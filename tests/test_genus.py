from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspforge.arith import (
    DeltaSubgroup,
    _congruence,
    _congruence_within,
    cusp_sum,
    delta_d,
    divisors,
    full_units,
    pm_one,
    totient,
    units,
    x0_cusp_count,
)
from cuspforge.cusps import (
    GAMMA0,
    GAMMA1,
    atlas,
    atlas_delta,
    canonicalize_x0,
)
from cuspforge.genus import cover, g0, g1, genus_delta

from oracles import bf_congruence_units, bf_g1, bf_genus_profile, bf_width_delta


def test_mu_values():
    assert genus_delta(pm_one(20)).mu == 144
    assert genus_delta(delta_d(20, 2)).mu == 72
    assert genus_delta(pm_one(1)).mu == 1


def test_nu2_values():
    assert genus_delta(pm_one(20)).nu2 == 0
    assert genus_delta(full_units(13)).nu2 == 2
    for n in range(4, 120):
        assert genus_delta(pm_one(n)).nu2 == 0
        assert genus_delta(pm_one(n)).nu3 == 0


def test_nu3_values():
    assert genus_delta(delta_d(20, 2)).nu3 == 0
    assert genus_delta(full_units(7)).nu3 == 2


def test_nu_inf_values():
    assert genus_delta(pm_one(20)).nu_inf == 20
    assert genus_delta(delta_d(20, 2)).nu_inf == 12
    assert genus_delta(delta_d(24, 2)).nu_inf == 16


def test_genus_spot_values():
    assert genus_delta(pm_one(20)).g == 3
    assert genus_delta(delta_d(20, 2)).g == 1
    assert genus_delta(delta_d(24, 2)).g == 1
    assert g1(24) == 5


def test_g0_g1_values():
    assert g0(8) == 0 and g0(16) == 0
    assert g1(18) == 2
    assert g1(11) == 1
    assert g1(13) == 2


def test_g1_against_independent_formula():
    for n in range(1, 101):
        assert g1(n) == bf_g1(n)


def _single_generator_subgroups(n):
    seen = set()
    for g in units(n):
        sub = DeltaSubgroup(n, (g,))
        if sub.elements not in seen:
            seen.add(sub.elements)
            yield sub


def test_genus_delta_matches_fraction_oracle():
    for n in range(1, 301):
        subgroups = {pm_one(n), full_units(n), *(delta_d(n, d) for d in divisors(n))}
        subgroups.update(_single_generator_subgroups(n))
        for delta in subgroups:
            p = genus_delta(delta)
            assert (p.mu, p.nu2, p.nu3, p.nu_inf, p.g) == bf_genus_profile(
                n, delta.elements
            ), (n, delta.elements)


def test_closed_forms_match_genus_delta():
    for n in range(1, 3001):
        assert g1(n) == genus_delta(pm_one(n)).g, n
        assert g0(n) == genus_delta(full_units(n)).g, n


@pytest.mark.parametrize("n", [10**12, 997920**2, 963761198400, 999983 * 999979])
def test_closed_forms_match_genus_delta_at_large_levels(n):
    # all units and {+-1} as Delta_1 and Delta_N, at levels whose phi(N)
    # is far past MAX_UNITS
    assert g0(n) == genus_delta(full_units(n)).g
    assert g1(n) == genus_delta(pm_one(n)).g


def test_genus_delta_lists_no_congruence_group(monkeypatch):
    # nu2 and nu3 of Delta_L are closed forms, and the invariant message
    # reads N and |Delta|: X_0(10^12) never lists its 4 * 10^11 units
    def refuse(self):
        raise AssertionError("elements listed")

    monkeypatch.setattr(DeltaSubgroup, "elements", property(refuse))
    assert genus_delta(full_units(10**12)).g == 149999100001


def test_congruence_family_matches_its_listed_span():
    # Delta_L, held by L alone, against the span of the units = +-1 mod L
    # that a scan lists, for every L | N <= 400: the order, membership of
    # every residue, the genus profile, equality both ways, the hash, and
    # then the elements, listed on that first read
    for n in range(1, 401):
        residues = range(1, n + 1)
        for m in divisors(n):
            group, listed = _congruence(n, m), DeltaSubgroup(n, bf_congruence_units(n, m))
            assert len(group) == len(listed), (n, m)
            assert [a in group for a in residues] == [a in listed for a in residues], (n, m)
            assert genus_delta(group) == genus_delta(listed), (n, m)
            assert group == listed and listed == group, (n, m)
            assert hash(group) == hash(listed), (n, m)
            assert group.elements == listed.elements, (n, m)
    # a span of the same order as Delta_8 mod 24, with other members
    span, group = DeltaSubgroup(24, (5,)), _congruence(24, 8)
    assert len(span) == len(group) and span != group and group != span


def test_congruence_containment_rule_matches_the_listed_sets():
    # Delta_L inside Delta_M, and Delta_L == Delta_M, against the sets a
    # scan lists, for every pair L, M | N <= 300
    for n in range(1, 301):
        sets = {m: set(bf_congruence_units(n, m)) for m in divisors(n)}
        for l, small in sets.items():
            for m, big in sets.items():
                assert _congruence_within(l, m) == (small <= big), (n, l, m)
                assert (_congruence(n, l) == _congruence(n, m)) == (small == big), (n, l, m)


@pytest.mark.parametrize(
    "genus, name, count", [(g0, "x0_cusp_count", x0_cusp_count), (g1, "cusp_sum", cusp_sum)]
)
def test_closed_forms_refuse_a_remainder(genus, name, count, monkeypatch):
    # one cusp too many leaves 6 over in 12 g0 and 18 over in 24 g1: the
    # closed forms raise, as genus_delta does, and do not floor the genus
    monkeypatch.setattr(f"cuspforge.genus.{name}", lambda n: count(n) + 1)
    with pytest.raises(RuntimeError, match=rf"^\d+ {genus.__name__}\(20\) = "):
        genus(20)


def test_mu_identity_for_delta_d():
    # mu(N, {+-1}) = e * mu(N, Delta_d) whenever e > 1.  N = 4 is the lone
    # exception: +-1 collapse mod N/e = 2, so Delta_2 = {+-1} and the
    # degree-e covering behind the identity does not exist there.
    assert genus_delta(pm_one(4)).mu == genus_delta(delta_d(4, 2)).mu
    for n in range(5, 301):
        for d in divisors(n):
            e = gcd(d, n // d)
            if e > 1:
                assert genus_delta(pm_one(n)).mu == e * genus_delta(delta_d(n, d)).mu


def test_nu_inf_inequality():
    # e*nu_inf(N, Delta_d) - nu_inf(N, {+-1}) >= (e-1) * phi(d) phi(N/d) / 2
    for n in range(2, 301):
        base = None
        for d in divisors(n):
            e = gcd(d, n // d)
            if e == 1:
                continue
            if base is None:
                base = genus_delta(pm_one(n)).nu_inf
            lhs = e * genus_delta(delta_d(n, d)).nu_inf - base
            rhs = Fraction((e - 1) * totient(d) * totient(n // d), 2)
            assert lhs >= rhs, (n, d)


def test_nu_inf_matches_atlas_sizes():
    for n in range(5, 121):
        assert genus_delta(pm_one(n)).nu_inf == len(atlas(n, GAMMA1))
    for n in range(1, 121):
        assert genus_delta(full_units(n)).nu_inf == len(atlas(n, GAMMA0))


def test_genus_integrality_single_generator_subgroups():
    for n in range(1, 301):
        seen = set()
        for g in units(n):
            # cheap dedupe: <+-1, g> is determined by the powers of g
            powers, p = {1 % n}, g
            while p not in powers:
                powers.add(p)
                p = p * g % n
            key = frozenset(powers)
            if key in seen:
                continue
            seen.add(key)
            profile = genus_delta(DeltaSubgroup(n, (g,)))
            assert profile.g >= 0  # _genus would raise first


def test_genus_monotone_under_nesting():
    for n in (16, 20, 24, 36, 40, 60):
        for g in units(n):
            sub = DeltaSubgroup(n, (g,))
            assert g1(n) >= genus_delta(sub).g >= g0(n)


def test_profile_internal_identity():
    p = genus_delta(delta_d(36, 3))
    assert 12 * p.g == 12 + p.mu - 3 * p.nu2 - 4 * p.nu3 - 6 * p.nu_inf


def _random_delta(data, lo, hi):
    n = data.draw(st.integers(lo, hi))
    gens = data.draw(st.lists(st.sampled_from(units(n)), max_size=2))
    return n, gens, DeltaSubgroup(n, gens)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_cover_widths_match_scan_oracle(data):
    # a cusp's ramification over X(1) = X_0(1) is its width
    n, _, delta = _random_delta(data, 5, 160)
    every_unit, x_one = set(units(n)), (1, full_units(1))
    for c in atlas(n, GAMMA1):
        _, width = cover((n, delta), x_one, c.d)
        assert width == bf_width_delta(n, set(delta.elements), c.x, c.y), (n, delta, c)
        _, width = cover((n, full_units(n)), x_one, c.d)
        assert width == bf_width_delta(n, every_unit, c.x, c.y), (n, c)


def _check_fibres(up, down, image, cusps_down):
    """Over each cusp downstairs, the ramification indices of
    `cover(up, down, d)` at its preimages sum to the degree; image maps
    each cusp upstairs to the one below it."""
    sums = Counter()
    for c, below in image.items():
        degree, ramification = cover(up, down, c.d)
        sums[below] += ramification
    assert set(sums) == set(cusps_down)
    assert set(sums.values()) == {degree}, (up, down)


def test_cover_fibres_sum_to_the_degree_on_x0():
    covers = 0
    for n in range(1, 301):
        cusps = atlas(n, GAMMA0)
        for n_down in divisors(n):
            image = {c: canonicalize_x0(n_down, c.x, c.y) for c in cusps}
            up, down = (n, full_units(n)), (n_down, full_units(n_down))
            _check_fibres(up, down, image, atlas(n_down, GAMMA0))
            covers += 1
    assert covers == 1767  # sum of the divisor counts of N <= 300


def test_cover_fibres_sum_to_the_degree_from_x1_to_x0():
    # mixes the two kinds of curve, and meets the X_1(4) edge at N = 4
    for n in range(1, 201):
        image = {c: canonicalize_x0(n, c.x, c.y) for c in atlas(n, GAMMA1)}
        _check_fibres((n, pm_one(n)), (n, full_units(n)), image, atlas(n, GAMMA0))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_cover_fibres_sum_to_the_degree_on_x_delta(data):
    # X_1(N) -> X_Delta(N) and X_Delta(N) -> X_{Delta<a>}(N), the fibres
    # read off the diamond orbits of atlas_delta
    n, gens, delta = _random_delta(data, 1, 120)
    bigger = DeltaSubgroup(n, [*gens, data.draw(st.sampled_from(units(n)))])
    for small, big in ((pm_one(n), delta), (delta, bigger)):
        below = {c: orbit[0] for orbit in atlas_delta(big) for c in orbit}
        image = {orbit[0]: below[orbit[0]] for orbit in atlas_delta(small)}
        _check_fibres((n, small), (n, big), image, set(below.values()))
