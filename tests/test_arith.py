import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cuspforge.arith import (
    MAX_LEVEL,
    MAX_SIEVE,
    MAX_UNITS,
    DeltaSubgroup,
    cusp_sum,
    delta_d,
    divisors,
    factorize,
    full_units,
    pm_one,
    projection_image_size,
    ratio_text,
    totient,
    unit_group_generators,
    units,
    x0_cusp_count,
)
from cuspforge.errors import (
    LevelTooLarge,
    NonUnitGenerator,
    NotADivisor,
    NotPositive,
    UnitGroupTooLarge,
)

from oracles import (
    bf_divisors,
    bf_factorizations,
    bf_is_closed,
    bf_kernel_size,
    bf_phi,
    bf_phi_table,
    bf_projection_image_size,
    bf_subgroup,
    bf_unit_group_generators,
    bf_units,
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


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.integers(-(10**40), 10**40), st.integers(1, 10**40))
@example(7, 1)
@example(-12, 1)
@example(0, 240)
@example(-240, 240)
@example(-200, 240)  # the leading exponent -5/6 of E_10 at level 20
def test_ratio_text_matches_fraction(num, den):
    assert ratio_text(num, den) == str(Fraction(num, den))


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


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 3 * 10**4))
@example(1)
@example(2)
@example(4)
@example(2003)
@example(92400)
@example(94710)  # the largest level whose phi is within MAX_UNITS
def test_units_sieve_matches_gcd_scan(n):
    assert units(n) == bf_units(n)
    # unit_group_generators relies on this refusal of N < 1
    for bad in (0, -5):
        with pytest.raises(NotPositive):
            units(bad)


def test_units_refuses_past_the_sieve_bound():
    # quick: refused before the sieve allocates a byte per residue (about
    # 1 TB at 999999999989, the largest prime within MAX_LEVEL) and before
    # factorize trial-divides.  The refusals run in a child whose address
    # space is capped, so a sieve that allocates first fails there with
    # MemoryError, and whose factorize is unset, so one that factors first
    # fails with TypeError
    assert len(units(MAX_SIEVE)) == totient(MAX_SIEVE)
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        "from cuspforge import arith\n"
        "arith.factorize = None\n"
        "for n in (arith.MAX_SIEVE + 1, 999999999989):\n"
        "    try:\n        arith.units(n)\n"
        "    except Exception as exc:\n        print(type(exc).__name__)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "UnitGroupTooLarge\n" * 2, "")


def test_delta_subgroup_values():
    assert DeltaSubgroup(20).elements == (1, 19)
    assert DeltaSubgroup(20, (9,)).elements == (1, 9, 11, 19)
    assert DeltaSubgroup(13, (2,)).elements == tuple(units(13))
    # generators are read mod N, and any set generates: it need not be closed
    assert DeltaSubgroup(20, (-11, 29, 1, 41)) == DeltaSubgroup(20, (9,))
    assert DeltaSubgroup(20, (1, 3, 19)).elements == tuple(units(20))
    assert DeltaSubgroup(1, (0, 5)).elements == (1,)


def test_delta_subgroup_rejects_nonunit():
    with pytest.raises(NonUnitGenerator, match="^generator 5 shares a factor with 20$"):
        DeltaSubgroup(20, (5,))
    # the least non-unit mod N is named, read mod N
    with pytest.raises(NonUnitGenerator, match="^generator 0 shares a factor with 20$"):
        DeltaSubgroup(20, (9, 25, 40))


def test_subgroup_closure_and_negation():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randrange(3, 120)
        gens = tuple(rng.choice(units(n)) for _ in range(rng.randrange(0, 3)))
        sub = DeltaSubgroup(n, gens)
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
            assert phi % len(DeltaSubgroup(n, (g,))) == 0


def test_delta_d_values():
    assert delta_d(20, 2).elements == (1, 9, 11, 19)
    assert delta_d(24, 2).elements == (1, 11, 13, 23)
    assert delta_d(20, 1).elements == (1, 19)


def test_delta_d_rejects_nondivisor():
    with pytest.raises(NotADivisor):
        delta_d(20, 3)


def test_delta_d_size_bound_is_exact_and_refused_fast():
    # Delta_d has 2e elements once N/e > 2, and lists none until `elements`
    # is read: e = 10^4 sits on the bound, and past it only the listing is
    # refused
    assert len(delta_d(10**8, 10**4).elements) == MAX_UNITS
    start = time.perf_counter()
    for n, d in ((10001**2, 10001), (10**10, 10**5)):
        delta = delta_d(n, d)
        assert len(delta) == 2 * d
        with pytest.raises(UnitGroupTooLarge):
            delta.elements
    # listing the second's 2 * 10^5 lifts, unbounded, takes about 0.66 s
    assert time.perf_counter() - start < 0.1


def test_delta_d_contains_pm_one():
    for n in range(2, 150):
        base = set(pm_one(n).elements)
        for d in divisors(n):
            assert base <= set(delta_d(n, d).elements)


def test_delta_d_keeps_every_lift_of_pm_one():
    # e^2 | N leaves every prime of N in m = N/e, so each lift of +-1 mod m
    # is a unit, and the closed form <-1, 1 + m> is exactly those lifts
    for n in range(1, 400):
        for d in divisors(n):
            m = n // gcd(d, n // d)
            lifts = {(s + k * m) % n or n for k in range(n // m) for s in (1, -1)}
            assert delta_d(n, d).elements == tuple(sorted(lifts)), (n, d)


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
        small = DeltaSubgroup(n, (g,))
        big = full_units(n)
        for d in divisors(n):
            assert projection_image_size(d, small) <= projection_image_size(d, big)


def check_projection_against_oracles(d, delta):
    # the closed form against the set of reductions and against |Delta|
    # over the kernel count by scan
    n = delta.level
    expected = bf_projection_image_size(n, d, delta.elements)
    assert len(delta) // bf_kernel_size(n, d, set(delta.elements)) == expected, (n, d)
    assert projection_image_size(d, delta) == expected, (n, d, delta)


def test_projection_image_size_matches_set_oracle():
    rng = random.Random(13)
    for n in range(1, 160):
        groups = [pm_one(n), full_units(n), DeltaSubgroup(n, (rng.choice(units(n)),))]
        groups += [delta_d(n, d) for d in divisors(n)]
        for delta in groups:
            for d in divisors(n):
                check_projection_against_oracles(d, delta)


@st.composite
def subgroups_with_divisors(draw):
    n = draw(st.integers(1, 400))
    gens = draw(st.lists(st.sampled_from(units(n)), max_size=3))
    return DeltaSubgroup(n, tuple(gens)), divisors(n)


# Levels with e = gcd(d, N/d) far past the random draws: N = 997920^2 and
# 10^12 = 1000000^2, at d = sqrt(N) where e = d.  The set oracles list
# Delta_d's 2e elements, so its examples take the largest e within
# MAX_UNITS.
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(subgroups_with_divisors())
@example((pm_one(997920**2), (997920, 9504)))
@example((delta_d(997920**2, 9504), (997920, 9504)))
@example((pm_one(10**12), (10**6, 10**4)))
@example((delta_d(10**12, 10**4), (10**6, 10**4)))
def test_projection_image_size_matches_set_oracle_random_subgroups(case):
    delta, ds = case
    for d in ds:
        check_projection_against_oracles(d, delta)


def test_trivial_levels_collapse():
    assert pm_one(1).elements == (1,)
    assert pm_one(2).elements == (1,)
    assert full_units(1).elements == (1,)


def test_unit_group_generators_generate():
    for n in range(1, 80):
        gens = unit_group_generators(n)
        assert set(DeltaSubgroup(n, tuple(gens)).elements) == set(units(n))


def test_unit_group_generators_match_oracle():
    for n in range(1, 501):
        assert unit_group_generators(n) == bf_unit_group_generators(n), n


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_delta_subgroup_is_the_closure_of_its_generators(data):
    # any units, read mod N from anywhere in -2N..2N, generate with -1 the
    # subgroup that a search over products finds
    n = data.draw(st.integers(1, 60))
    unit = st.integers(-2 * n, 2 * n).filter(lambda a: gcd(a, n) == 1)
    gens = data.draw(st.lists(unit, max_size=4))
    assert DeltaSubgroup(n, gens).elements == bf_subgroup(n, [-1, *gens])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_delta_subgroup_accepts_exactly_closed_sets(data):
    # a set of units with +-1 comes back unchanged exactly when it is closed
    n = data.draw(st.integers(1, 60))
    pm = {1 % n or n, -1 % n or n}
    elems = pm | data.draw(st.sets(st.sampled_from(units(n))))
    if data.draw(st.booleans()):
        # close the draw up to a subgroup, then perhaps toggle one unit
        elems = set(bf_subgroup(n, elems))
        elems ^= data.draw(st.sets(st.sampled_from(units(n)), max_size=1)) - pm
    kept = DeltaSubgroup(n, elems).elements == tuple(sorted(elems))
    assert kept == bf_is_closed(n, elems)


def test_subgroup_equality_ignores_member_set():
    a, b = DeltaSubgroup(20, (1, 9, 11, 19)), delta_d(20, 2)
    assert a == b and hash(a) == hash(b) and set(b.elements) == {1, 9, 11, 19}


def test_subgroup_repr_round_trips():
    assert repr(pm_one(5)) == "DeltaSubgroup(level=5, gens=(1, 4))"
    d = DeltaSubgroup(720, (7,))
    assert eval(repr(d)) == d


def test_congruence_group_past_the_listing_bound():
    # held, measured and printed without a list; only `elements` refuses
    big, kernel = full_units(10**12), delta_d(10**12, 10**6)
    assert (len(big), len(kernel)) == (totient(10**12), 2 * 10**6)
    assert 999999999999 in big and 10**6 + 1 in kernel and 3 not in kernel
    assert repr(big) == "<DeltaSubgroup of level 1000000000000: +-1 mod 1>"
    assert big != kernel and kernel == delta_d(10**12, 10**6) and big == full_units(10**12)
    with pytest.raises(UnitGroupTooLarge, match=r"^\(Z/1000000000000Z\)\* has more "):
        big.elements
    with pytest.raises(UnitGroupTooLarge, match="^Delta_1000000 of level 1000000000000 has"):
        kernel.elements


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
    assert len(DeltaSubgroup(p, (pow(g, 8, p),))) == MAX_UNITS == 20000
    with pytest.raises(UnitGroupTooLarge):
        DeltaSubgroup(p, (pow(g, 4, p),))
    with pytest.raises(UnitGroupTooLarge):
        DeltaSubgroup(1000003, (2,))
    # the unit group's own generators are bounded by phi(N) alone
    assert len(units(49999)) > MAX_UNITS
    assert len(unit_group_generators(49999)) >= 1
