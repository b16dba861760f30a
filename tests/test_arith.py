import random
import time
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspforge.arith import (
    MAX_LEVEL,
    MAX_UNITS,
    DeltaSubgroup,
    cusp_sum,
    delta_d,
    divisors,
    factorize,
    full_units,
    pm_one,
    projection_image_size,
    subgroup_generated,
    totient,
    unit_group_generators,
    units,
    x0_cusp_count,
)
from cuspforge.errors import (
    LevelTooLarge,
    NonUnitGenerator,
    NotADivisor,
    UnitGroupTooLarge,
)

from oracles import (
    bf_divisors,
    bf_factorizations,
    bf_is_closed,
    bf_phi,
    bf_phi_table,
    bf_projection_image_size,
    bf_unit_group_generators,
)


def test_totient_values():
    assert totient(1) == 1
    assert totient(20) == 8
    assert totient(81) == 54


def test_totient_against_gcd_count():
    for n in range(1, 121):
        assert totient(n) == bf_phi(n)
    # the sieve oracle against the count
    assert bf_phi_table(1000)[1:] == [bf_phi(n) for n in range(1, 1001)]


def test_divisors_values():
    assert divisors(1) == [1]
    assert divisors(20) == [1, 2, 4, 5, 10, 20]
    assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]


def test_divisors_against_scan():
    for n in range(1, 200):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def test_units_values():
    assert units(1) == [1]
    assert units(8) == [1, 3, 5, 7]
    assert units(20) == [1, 3, 7, 9, 11, 13, 17, 19]


def test_subgroup_generated_values():
    assert subgroup_generated(20, ()).elements == (1, 19)
    assert subgroup_generated(20, (9,)).elements == (1, 9, 11, 19)
    assert subgroup_generated(13, (2,)).elements == tuple(units(13))


def test_subgroup_generated_rejects_nonunit():
    with pytest.raises(NonUnitGenerator):
        subgroup_generated(20, (5,))


def test_subgroup_closure_and_negation():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randrange(3, 120)
        gens = tuple(rng.choice(units(n)) for _ in range(rng.randrange(0, 3)))
        sub = subgroup_generated(n, gens)
        elems = set(sub.elements)
        assert 1 in elems and (n - 1 if n > 2 else 1) in elems
        for a in elems:
            assert (n - a if n - a > 0 else n) in elems or n <= 2
            for b in elems:
                c = (a * b) % n
                assert (c if c != 0 else n) in elems


def test_lagrange_for_single_generator_subgroups():
    for n in range(1, 301):
        phi = totient(n)
        for g in units(n)[:6]:
            assert phi % len(subgroup_generated(n, (g,))) == 0


def test_delta_d_values():
    assert delta_d(20, 2).elements == (1, 9, 11, 19)
    assert delta_d(24, 2).elements == (1, 11, 13, 23)
    assert delta_d(20, 1).elements == (1, 19)


def test_delta_d_rejects_nondivisor():
    with pytest.raises(NotADivisor):
        delta_d(20, 3)


def test_delta_d_size_bound_is_exact_and_refused_fast():
    # Delta_d has 2e elements once N/e > 2: e = 10^4 sits on the bound
    assert len(delta_d(10**8, 10**4)) == MAX_UNITS
    start = time.perf_counter()
    for n, d in ((10001**2, 10001), (10**10, 10**5)):
        with pytest.raises(UnitGroupTooLarge):
            delta_d(n, d)
    # listing the second's 2 * 10^5 lifts, unbounded, takes about 0.66 s
    assert time.perf_counter() - start < 0.1


def test_delta_d_contains_pm_one():
    for n in range(2, 150):
        base = set(pm_one(n).elements)
        for d in divisors(n):
            assert base <= set(delta_d(n, d).elements)


def test_delta_d_keeps_every_lift_of_pm_one():
    # e^2 | N leaves every prime of N in m = N/e, so each lift of +-1 mod m
    # is a unit (DeltaSubgroup refuses a non-unit) and none is dropped
    for n in range(1, 301):
        for d in divisors(n):
            e = gcd(d, n // d)
            m = n // e
            assert len(delta_d(n, d)) == e * len({1 % m, -1 % m}), (n, d)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 500))
def test_delta_d_depends_on_d_only_through_e(n):
    # Delta_d is the units = +-1 mod N/e, and d and N/d share e = gcd(d, N/d)
    for d in divisors(n):
        if gcd(d, n // d) > 1:
            assert delta_d(n, d) == delta_d(n, n // d)


def test_projection_image_size_values():
    assert projection_image_size(20, pm_one(20)) == 2
    assert projection_image_size(2, delta_d(20, 2)) == 2
    assert projection_image_size(1, delta_d(20, 2)) == 4


def test_projection_of_delta_d_is_two():
    # |pi_d(Delta_d)| = 2 whenever e > 1, except N = 4 where +-1 collapse
    # mod N/e = 2 (the only level with N/e <= 2)
    assert projection_image_size(2, delta_d(4, 2)) == 1
    for n in range(5, 301):
        for d in divisors(n):
            if gcd(d, n // d) > 1:
                assert projection_image_size(d, delta_d(n, d)) == 2


def test_projection_monotone_under_inclusion():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randrange(4, 100)
        g = rng.choice(units(n))
        small = subgroup_generated(n, (g,))
        big = full_units(n)
        for d in divisors(n):
            assert projection_image_size(d, small) <= projection_image_size(d, big)


def test_projection_image_size_matches_set_oracle():
    # the kernel count against the set of reductions, at every divisor
    rng = random.Random(13)
    for n in range(1, 160):
        groups = [pm_one(n), full_units(n), subgroup_generated(n, (rng.choice(units(n)),))]
        groups += [delta_d(n, d) for d in divisors(n)]
        for delta in groups:
            for d in divisors(n):
                expected = bf_projection_image_size(n, d, delta.elements)
                assert projection_image_size(d, delta) == expected, (n, d, delta)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_projection_image_size_matches_set_oracle_random_subgroups(data):
    n = data.draw(st.integers(1, 400))
    gens = data.draw(st.lists(st.sampled_from(units(n)), max_size=3))
    delta = subgroup_generated(n, tuple(gens))
    for d in divisors(n):
        assert projection_image_size(d, delta) == bf_projection_image_size(
            n, d, delta.elements
        )


def test_trivial_levels_collapse():
    assert pm_one(1).elements == (1,)
    assert pm_one(2).elements == (1,)
    assert full_units(1).elements == (1,)


def test_unit_group_generators_generate():
    for n in range(1, 80):
        gens = unit_group_generators(n)
        assert set(subgroup_generated(n, tuple(gens)).elements) == set(units(n))


def test_unit_group_generators_match_oracle():
    for n in range(1, 501):
        assert unit_group_generators(n) == bf_unit_group_generators(n), n


def test_subgroup_validation_rejects_unclosed():
    with pytest.raises(ValueError):
        DeltaSubgroup(20, (1, 3, 19))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_delta_subgroup_accepts_exactly_closed_sets(data):
    n = data.draw(st.integers(1, 60))
    pm = {1 % n or n, -1 % n or n}
    elems = pm | data.draw(st.sets(st.sampled_from(units(n))))
    if data.draw(st.booleans()):
        # close the draw up to a subgroup, then perhaps toggle one unit
        elems = set(subgroup_generated(n, tuple(elems)).elements)
        elems ^= data.draw(st.sets(st.sampled_from(units(n)), max_size=1)) - pm
    try:
        DeltaSubgroup(n, tuple(elems))
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == bf_is_closed(n, elems)


def test_subgroup_equality_ignores_member_set():
    a, b = DeltaSubgroup(20, (1, 9, 11, 19)), delta_d(20, 2)
    assert a == b and hash(a) == hash(b) and a.members == {1, 9, 11, 19}


def test_factorize_totient_divisors_against_sympy():
    for n in range(1, 10001):
        assert dict(factorize(n)) == sympy.factorint(n), n
        assert totient(n) == sympy.totient(n), n
        assert divisors(n) == sympy.divisors(n), n


def test_sieve_factorizations_against_sympy():
    table = bf_factorizations(10000)
    assert len(table) == 10001 and table[1] == ()
    for n in range(1, 10001):
        assert table[n] == tuple(sorted(sympy.factorint(n).items())), n


def test_cusp_counts_match_divisor_sums():
    phi = bf_phi_table(5000)
    for n in range(1, 5001):
        divs = bf_divisors(n)
        assert cusp_sum(n) == sum(phi[d] * phi[n // d] for d in divs), n
        assert x0_cusp_count(n) == sum(phi[gcd(d, n // d)] for d in divs), n


def test_level_bound_is_checked_before_trial_division():
    # the largest level in the tests and golden digests is 100001^2
    assert MAX_LEVEL >= 100001**2
    assert factorize(MAX_LEVEL) == ((2, 12), (5, 12))
    for n in (MAX_LEVEL + 1, 100000000000000003):
        with pytest.raises(LevelTooLarge):
            factorize(n)
        with pytest.raises(LevelTooLarge):
            totient(n)


def test_span_bound_is_exact():
    # 160001 is prime and 20000 | 160000: the powers of g^8 for a primitive
    # root g form the subgroup of order 20000, and -1 = g^80000 lies in it
    p, g = 160001, sympy.primitive_root(160001)
    assert len(subgroup_generated(p, (pow(g, 8, p),))) == MAX_UNITS == 20000
    with pytest.raises(UnitGroupTooLarge):
        subgroup_generated(p, (pow(g, 4, p),))
    with pytest.raises(UnitGroupTooLarge):
        subgroup_generated(1000003, (2,))
    # the unit group's own generators are not bounded here
    assert len(units(49999)) > MAX_UNITS
    assert len(unit_group_generators(49999)) >= 1
