import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspforge.arith import delta_d, divisors, subgroup_generated, units
from cuspforge.cusps import (
    GAMMA0,
    GAMMA1,
    atlas,
    atlas_delta,
    canonicalize_x1,
    x0_class_of_pair,
)
from cuspforge.errors import NotCoprime, NotExactDivisor
from cuspforge.symmetry import (
    act_atkin_lehner,
    cusp_orbits_x1,
    exact_divisors,
    fixed_cusps,
)

from oracles import (
    bf_al_orbits,
    bf_fixed_cusps,
    bf_matrix_image,
    bf_x1_normalizer_orbits,
    bf_x1_orbits,
)


def _orbit_of(c, delta):
    return next(o for o in atlas_delta(delta) if c in o)


def test_act_diamond_examples():
    # [3] moves (1 : 10) to (3 : 10); [9] fixes it, as 9 lies in Delta_10
    s = canonicalize_x1(20, 1, 10)
    assert canonicalize_x1(20, 3, 10) in _orbit_of(s, subgroup_generated(20, (3,)))
    assert _orbit_of(s, subgroup_generated(20, (9,))) == (s,)


def test_diamond_fixes_d_cusps_iff_in_delta_d():
    # both directions, every unit and every divisor, N <= 100: the d-orbits
    # of <+-1, a> are all singletons exactly when a lies in Delta_d
    for n in range(2, 101):
        for a in units(n):
            orbits = atlas_delta(subgroup_generated(n, (a,)))
            for d in divisors(n):
                fixes_all = all(len(o) == 1 for o in orbits if o[0].d == d)
                assert fixes_all == (a in delta_d(n, d).members)


def test_fixed_cusps_examples():
    fixed9 = set(fixed_cusps(20, 9))
    assert {c for c in atlas(20, GAMMA1) if c.irregular} <= fixed9
    assert len(fixed_cusps(20, 19)) == 20
    assert fixed_cusps(13, 5) == ()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_fixed_cusps_match_scan_oracle(data):
    n = data.draw(st.integers(1, 500))
    a = data.draw(st.sampled_from(units(n))) + n * data.draw(st.integers(-2, 2))
    pairs = [(c.x, c.y) for c in atlas(n, GAMMA1)]
    assert [(c.x, c.y) for c in fixed_cusps(n, a)] == bf_fixed_cusps(n, a, pairs)


def test_fixed_cusps_refuses_a_non_unit():
    with pytest.raises(NotCoprime):
        fixed_cusps(20, 4)


def test_lewittes_near_miss_at_level_20():
    # [9] fixes exactly the four irregular cusps: one short of the
    # more-than-4-fixed-points criterion, which is why level 20 needs
    # the explicit function certificate
    from cuspforge.criteria import lewittes

    fixed9 = fixed_cusps(20, 9)
    assert len(fixed9) == 4
    assert not lewittes(len(fixed9))


def test_atkin_lehner_refuses_a_non_exact_divisor():
    s = canonicalize_x1(20, 1, 10)
    for q in (0, 2, 3, 10, 40):
        with pytest.raises(NotExactDivisor):
            act_atkin_lehner(q, s)


def test_atkin_lehner_images_on_x1_20():
    s = canonicalize_x1(20, 1, 10)
    images = {q: act_atkin_lehner(q, s) for q in (4, 20, 5)}
    assert images[4] == canonicalize_x1(20, 3, 10)
    assert images[20] == canonicalize_x1(20, 1, 2)
    assert images[5] == canonicalize_x1(20, 1, 6)


def test_fricke_swaps_d_and_is_involution_on_x0():
    for n in (16, 20, 24, 36, 45):
        for c in atlas(n, GAMMA0):
            img = act_atkin_lehner(n, c)
            assert img.d == n // c.d
            assert act_atkin_lehner(n, img) == c


def _random_al_matrix(rng, n, q):
    m = n // q
    while True:
        x, z = rng.randrange(1, 30), rng.randrange(1, 30)
        if gcd(q * x, m * z) == 1:
            break
    # solve q*x*w - m*z*y = 1, then randomize along the solution line
    w, y = _egcd_pair(q * x, m * z)
    t = rng.randrange(-20, 20)
    w, y = w + m * z * t, y + q * x * t
    mat = (q * x, y, n * z, q * w)
    assert mat[0] * mat[3] - mat[1] * mat[2] == q
    return mat


def _egcd_pair(a, b):
    # returns (w, y) with a*w - b*y = 1
    old_r, r, old_s, s = a, b, 1, 0
    while r:
        qq = old_r // r
        old_r, r = r, old_r - qq * r
        old_s, s = s, old_s - qq * s
    assert old_r == 1
    w = old_s
    y = (a * w - 1) // b
    return w, y


def test_atkin_lehner_matrix_choice_invariant_on_x0():
    rng = random.Random(17)
    for n in (20, 24, 36, 48, 60):
        for q in exact_divisors(n):
            if q == 1:
                continue
            for _ in range(4):
                mat = _random_al_matrix(rng, n, q)
                for c in atlas(n, GAMMA0):
                    image = bf_matrix_image(n, mat, c.x, c.y)
                    assert x0_class_of_pair(n, *image) == act_atkin_lehner(q, c)


def test_orbits_x1_20_irregular_single_orbit():
    report = cusp_orbits_x1(20)
    irregular = {c for c in atlas(20, GAMMA1) if c.irregular}
    s = canonicalize_x1(20, 1, 10)
    orbit = set(next(orb for orb in report.orbits if s in orb))
    assert orbit == irregular
    assert not report.normalizer_possibly_incomplete


def test_orbits_x1_12_regular_single_orbit():
    report = cusp_orbits_x1(12)
    regular = {c for c in atlas(12, GAMMA1) if not c.irregular}
    c = canonicalize_x1(12, 0, 1)
    assert set(next(orb for orb in report.orbits if c in orb)) == regular


def test_orbits_x1_16_structure():
    report = cusp_orbits_x1(16)
    for orbit in report.orbits:
        flags = {c.irregular for c in orbit}
        assert len(flags) == 1  # regularity is orbit-invariant


def test_orbit_divisors_stay_in_al_orbit():
    for n in range(5, 61):
        report = cusp_orbits_x1(n)
        for orbit in report.orbits:
            ds = {c.d for c in orbit}
            assert ds <= bf_al_orbits(n)[next(iter(ds))]


def test_orbits_match_normalizer_oracle():
    # the partition of X_1 classes, by an oracle that merges pair orbits
    # under the diamonds and its own W_Q matrices
    for n in range(5, 61):
        report = cusp_orbits_x1(n)
        orbits1, index = bf_x1_orbits(n)
        got = {frozenset(index[(c.x % n, c.y % n)] for c in orb) for orb in report.orbits}
        want = {
            frozenset(index[pair] for pair in orb)
            for orb in bf_x1_normalizer_orbits(n, (orbits1, index))
        }
        assert got == want, n
        assert list(report.orbits) == sorted(report.orbits)
        assert all(list(orb) == sorted(orb) for orb in report.orbits)


def test_orbits_flag_level_four():
    assert cusp_orbits_x1(4).normalizer_possibly_incomplete
