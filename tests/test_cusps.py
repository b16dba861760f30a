import random
import time
from collections import Counter
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspforge.arith import totient
from cuspforge.cusps import (
    GAMMA0,
    GAMMA1,
    atlas,
    atlas_delta,
    MAX_CUSP_SUM,
    canonicalize_x0,
    canonicalize_x1,
    lift_to_coprime,
    width,
    x0_class_of_pair,
    x0_image,
)
from cuspforge.arith import (
    cusp_sum,
    delta_d,
    divisors,
    pm_one,
    projection_image_size,
    subgroup_generated,
    units,
    x0_cusp_count,
)
from cuspforge.errors import (
    AtlasTooLarge,
    LevelTooLarge,
    NotADivisor,
    NotCoprime,
    NotIrregular,
    NotPrimitive,
)
from cuspforge.criteria import RULE_LEMMA_GENUS, x0_verdict, x1_verdict
from cuspforge.genus import cover, genus_delta
from cuspforge.arith import full_units

from oracles import (
    bf_counts_by_d,
    bf_delta_orbits,
    bf_ramification_x0_tower,
    bf_ramification_x1_to_delta,
    bf_width_and_sign,
    bf_x0_orbits,
    bf_x1_orbits,
    x1_equivalent,
)


def test_canonicalize_x1_pinned_cusp():
    c = canonicalize_x1(20, 1, 10)
    assert (c.x, c.y, c.d, c.e, c.irregular) == (1, 10, 10, 2, True)


def test_canonicalize_x1_reduces_mod_level():
    assert canonicalize_x1(20, 1, 30) == canonicalize_x1(20, 1, 10)


def test_canonicalize_x1_merges_shifted_representative():
    assert canonicalize_x1(20, 11, 10) == canonicalize_x1(20, 1, 10)
    assert x1_equivalent(20, (11, 10), (1, 10))


def test_canonicalize_x1_rejects_imprimitive():
    with pytest.raises(NotPrimitive):
        canonicalize_x1(20, 5, 10)


def test_canonicalize_x1_matches_scan_equivalence():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randrange(2, 60)
        x, y = rng.randrange(n), rng.randrange(n)
        u, v = rng.randrange(n), rng.randrange(n)
        if gcd(gcd(x, y), n) != 1 or gcd(gcd(u, v), n) != 1:
            continue
        same = canonicalize_x1(n, x, y) == canonicalize_x1(n, u, v)
        assert same == x1_equivalent(n, (x, y), (u, v))


def test_canonicalize_x1_constant_on_orbits():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randrange(2, 80)
        x, y = rng.randrange(n), rng.randrange(n)
        if gcd(gcd(x, y), n) != 1:
            continue
        c = canonicalize_x1(n, x, y)
        # apply a few random group moves: translations and the sign
        for _ in range(5):
            j = rng.randrange(n)
            x, y = (x + j * y) % n, y
            if rng.random() < 0.5:
                x, y = (-x) % n, (-y) % n
        assert canonicalize_x1(n, x, y) == c
        assert canonicalize_x1(n, c.x, c.y) == c  # idempotent


def test_canonicalize_x0_values():
    assert canonicalize_x0(12, 5, 2) == canonicalize_x0(12, 1, 2)
    c = canonicalize_x0(4, 1, 2)
    assert (c.x, c.d, c.e, c.irregular) == (1, 2, 2, True)
    assert canonicalize_x0(36, 5, 6) != canonicalize_x0(36, 1, 6)
    assert canonicalize_x0(36, 5, 6).x == 5


def test_canonicalize_x0_idempotent():
    for n in (16, 36, 48):
        for c in atlas(n, GAMMA0):
            assert canonicalize_x0(n, c.x, c.d) == c


@st.composite
def _primitive_pairs(draw):
    n = draw(st.integers(1, 400))
    x, y = draw(st.integers(-3 * n, 3 * n)), draw(st.integers(-3 * n, 3 * n))
    if gcd(gcd(x, y), n) != 1:
        y = y * n + 1  # y = 1 mod n makes the pair primitive
    return n, x, y


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_primitive_pairs())
def test_canonicalize_x1_is_idempotent(pair):
    n, x, y = pair
    c = canonicalize_x1(n, x, y)
    assert canonicalize_x1(n, c.x, c.y) == c
    assert x1_equivalent(n, (x % n, y % n), (c.x, c.y))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_primitive_pairs())
def test_gamma0_canonical_form_is_idempotent(pair):
    n, a, c = pair
    if gcd(a, c) != 1:
        a = 1
    k = x0_class_of_pair(n, a, c)
    assert canonicalize_x0(n, k.x, k.d) == k
    assert x0_class_of_pair(n, k.x, k.y) == k


def test_canonicalize_x0_errors():
    with pytest.raises(NotADivisor):
        canonicalize_x0(12, 1, 5)
    with pytest.raises(NotCoprime):
        canonicalize_x0(12, 2, 2)


def test_atlas_x1_20():
    a = atlas(20, GAMMA1)
    assert len(a) == 20
    irregular = {c.key() for c in a if c.irregular}
    assert irregular == {"1:2", "1:6", "1:10", "3:10"}


def test_atlas_x1_is_the_sorted_scan():
    # the listing equals the set of canonical forms of all primitive
    # pairs, in the same order
    for n in range(1, 151):
        scan = {
            canonicalize_x1(n, x, y)
            for x in range(n)
            for y in range(1, n + 1)
            if gcd(gcd(x, y), n) == 1
        }
        assert atlas(n, GAMMA1) == tuple(sorted(scan)), n


def test_x0_image_is_the_class_of_a_lift():
    for n in range(1, 101):
        for c in atlas(n, GAMMA1):
            assert x0_image(c) == x0_class_of_pair(n, *lift_to_coprime(n, c.x, c.y))


def test_atlas_x1_cost_bound():
    assert cusp_sum(1000000) == 10800000
    for n in (1000000, 99991):
        assert cusp_sum(n) > MAX_CUSP_SUM
        with pytest.raises(AtlasTooLarge):
            atlas(n, GAMMA1)
    assert len(atlas(49999, GAMMA1)) == cusp_sum(49999) // 2 <= MAX_CUSP_SUM // 2


def test_atlas_x0_cost_bound():
    for n in range(1, 301):
        assert x0_cusp_count(n) == len(atlas(n, GAMMA0)), n
    assert x0_cusp_count(1000000) == 1800
    # X_0(p^2) has p + 1 cusps: 99992 at p = 99991 is inside the bound
    assert x0_cusp_count(99991**2) == 99992 <= MAX_CUSP_SUM
    assert x0_cusp_count(100001**2) == 12 * 9092 > MAX_CUSP_SUM
    with pytest.raises(AtlasTooLarge):
        atlas(100001**2, GAMMA0)


def test_atlas_x0_12_counts():
    # phi(gcd(d, N/d)) cusps for each d
    assert Counter(c.d for c in atlas(12, GAMMA0)) == {1: 1, 2: 1, 3: 1, 4: 1, 6: 1, 12: 1}


def test_atlas_trivial_level():
    assert len(atlas(1, GAMMA0)) == 1
    assert len(atlas(1, GAMMA1)) == 1


def test_irregular_iff_e_gt_1_and_squarefree_regular():
    for n in (30, 42, 66, 105):  # square-free
        assert not any(c.irregular for c in atlas(n, GAMMA1))
    for n in range(2, 100):
        for c in atlas(n, GAMMA1):
            assert c.irregular == (gcd(c.d, n // c.d) > 1)


def test_atlas_counts_match_closed_forms_small():
    for n in range(5, 61):
        counts1 = Counter(c.d for c in atlas(n, GAMMA1))
        counts0 = Counter(c.d for c in atlas(n, GAMMA0))
        for d in divisors(n):
            assert counts1[d] == totient(d) * totient(n // d) // 2
            assert counts0[d] == totient(gcd(d, n // d))


def test_atlas_matches_bruteforce_orbits_small():
    for n in range(5, 41):
        orbits1, _ = bf_x1_orbits(n)
        assert bf_counts_by_d(n, orbits1) == Counter(c.d for c in atlas(n, GAMMA1))
        orbits0 = bf_x0_orbits(n)
        assert bf_counts_by_d(n, orbits0) == Counter(c.d for c in atlas(n, GAMMA0))


def test_atlas_delta_orbit_sizes():
    orbits = atlas_delta(delta_d(20, 2))
    sizes = {o[0].key(): len(o) for o in orbits}
    # the irregular cusps are fixed by Delta_2; the count matches nu_inf
    assert sizes["1:10"] == 1 and sizes["1:2"] == 1
    assert len(orbits) == genus_delta(delta_d(20, 2)).nu_inf == 12


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_atlas_delta_follows_the_bucket_model(data):
    # nu_inf(Delta) orbits; one with invariant d has |pi_d(Delta)| / |{+-1 mod L}|
    # members, L = N/e
    n = data.draw(st.integers(1, 300))
    gens = data.draw(st.lists(st.sampled_from(units(n)), max_size=3))
    delta = subgroup_generated(n, tuple(gens))
    orbits = atlas_delta(delta)
    assert len(orbits) == genus_delta(delta).nu_inf
    for o in orbits:
        c, m = o[0], n // o[0].e
        assert {x.d for x in o} == {c.d} and list(o) == sorted(o)
        assert len(o) == projection_image_size(c.d, delta) // len({1 % m, -1 % m})
    assert list(orbits) == sorted(orbits)


def test_atlas_delta_builds_no_class(monkeypatch):
    # each orbit member is looked up in the atlas that atlas_delta reads, so
    # it is that atlas's own object: no class is built or canonicalized.  At
    # 47^2 with Delta = <-1, 48> (94 elements, 48 = 1 mod 47), every cusp
    # with d = 47 was once canonicalized 94 times
    n = 47 * 47
    delta, classes = subgroup_generated(n, (48,)), atlas(n, GAMMA1)

    def refused(*args):
        raise AssertionError(f"canonicalize_x1{args} called")

    monkeypatch.setattr("cuspforge.cusps.atlas", lambda *args: classes)
    monkeypatch.setattr("cuspforge.cusps.canonicalize_x1", refused)
    orbits = atlas_delta(delta)
    assert len(delta) == 94 and len(orbits) == genus_delta(delta).nu_inf
    ids = set(map(id, classes))
    assert all(id(c) in ids for o in orbits for c in o)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_atlas_delta_matches_the_orbit_scan(data):
    # members against the scan: the X_1 classes merged under (a*x, a^-1*y)
    n = data.draw(st.integers(1, 500))
    gens = data.draw(st.lists(st.sampled_from(units(n)), max_size=3))
    delta = subgroup_generated(n, tuple(gens))
    x1_orbits, index = bf_x1_orbits(n)
    found = [{index[c.x, c.y % n] for c in o} for o in atlas_delta(delta)]
    assert sum(map(len, found)) == len(x1_orbits)
    expected = bf_delta_orbits(n, delta.elements, (x1_orbits, index))
    assert set(map(frozenset, found)) == set(map(frozenset, expected))


def test_x0_is_x_delta_of_all_units():
    # Delta = (Z/NZ)^* gives X_0(N): its orbits are the fibres of x0_image
    for n in range(1, 121):
        fibres = {}
        for c in atlas(n, GAMMA1):
            fibres.setdefault(x0_image(c), set()).add(c)
        orbits = atlas_delta(full_units(n))
        assert {frozenset(o) for o in orbits} == set(map(frozenset, fibres.values()))
        assert len(orbits) == x0_cusp_count(n), n


def test_widths_gamma0_20():
    inf = canonicalize_x0(20, 1, 20)
    zero = canonicalize_x0(20, 1, 1)
    assert width(inf) == 1
    assert width(zero) == 20


def test_width_gamma1_20_irregular():
    s = canonicalize_x1(20, 1, 10)
    assert width(s) == 2


def test_width_gamma1_4_classically_irregular():
    # the lone classical (stabilizer-sign) irregular cusp: width 1, not N/d = 2
    assert width(canonicalize_x1(4, 1, 2)) == 1


def test_widths_match_scan_oracle():
    for n in range(1, 201):
        for group in (GAMMA0, GAMMA1):
            for c in atlas(n, group):
                h, _ = bf_width_and_sign(n, group, c.x, c.y)
                assert width(c) == h, (n, group, c)


def test_widths_sum_to_index():
    for n in range(2, 41):
        for group, delta in ((GAMMA1, pm_one(n)), (GAMMA0, full_units(n))):
            total = sum(width(c) for c in atlas(n, group))
            assert total == genus_delta(delta).mu


def test_ramification_x1_to_delta():
    # X_1(N) -> X_{Delta_d}(N) has degree e and is totally ramified at d
    for n, d, e in ((20, 2, 2), (20, 10, 2), (36, 6, 6)):
        assert cover((n, pm_one(n)), (n, delta_d(n, d)), d) == (e, e)
    # at N = 4, {+-1} is already all of Delta_2, so the cover is the identity
    assert cover((4, pm_one(4)), (4, delta_d(4, 2)), 2) == (1, 1)
    with pytest.raises(NotIrregular):
        x1_verdict(20, 4)


IRREGULAR_LEVELS = [n for n in range(4, 501) if any(gcd(d, n // d) > 1 for d in divisors(n))]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_ramification_x1_to_delta_matches_scan_oracle(data):
    # the points of X_1(N) over a cusp of X_{Delta_d}(N) are its Delta_d-orbit
    n = data.draw(st.sampled_from(IRREGULAR_LEVELS))
    d = data.draw(st.sampled_from([d for d in divisors(n) if gcd(d, n // d) > 1]))
    pairs = [(c.x, c.y) for c in atlas(n, GAMMA1)]
    degree, ramification = cover((n, pm_one(n)), (n, delta_d(n, d)), d)
    assert degree // ramification == bf_ramification_x1_to_delta(n, d, pairs)


def test_ramification_x0_tower():
    # X_0(p^2 M) -> X_0(pM), p | M, has degree p and is totally ramified
    # at the cusps with d = p
    for p, m in ((2, 2), (3, 3), (2, 4)):
        assert cover((p * p * m, GAMMA0), (p * m, GAMMA0), p) == (p, p)


def test_ramification_x0_tower_matches_scan_oracle():
    cases = 0
    for p in (2, 3, 5, 7, 11, 13):
        for m in range(p, 2000 // (p * p) + 1, p):
            degree, ramification = cover((p * p * m, GAMMA0), (p * m, GAMMA0), p)
            for x in [x for x in range(1, 3 * p) if x % p] + [p * m + 1]:
                assert degree // ramification == bf_ramification_x0_tower(p, m, x)
                cases += 1
    assert cases == 1852


def test_ramification_x0_tower_is_bounded_by_the_level():
    # p | M puts p^3 <= p^2 M, so the level bound refuses every prime past
    # 10^4 before p is factored or the tower is read
    start = time.perf_counter()
    for p in (999983, 1000003, 999999999989):
        with pytest.raises(LevelTooLarge):
            x0_verdict(p, p)
    assert time.perf_counter() - start < 1
    # the largest prime the bound admits
    assert x0_verdict(9973, 9973).decisive_rule() == RULE_LEMMA_GENUS


def test_atlas_json_shape():
    entry = atlas(20, GAMMA1)[0].to_json()
    assert set(entry) == {"x", "y", "d", "e", "irregular", "width"}
