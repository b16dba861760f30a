import random
from fractions import Fraction

import pytest

from cuspforge.criteria import WEIERSTRASS, certify_x1_20
from cuspforge.cusps import GAMMA1, atlas, canonicalize_x1
from cuspforge.errors import RCongruentZero, TruncationTooSmall
from cuspforge.etaq import (
    EtaQuotient,
    F_EXPONENTS,
    G_EXPONENTS,
    bernoulli2,
    divisor,
    eta_series,
    ord_at_cusp,
    ord_at_cusp_exact,
    quotient_series,
)
from cuspforge.symmetry import cusp_orbits_x1


def test_bernoulli2_values():
    assert bernoulli2(0) == Fraction(1, 6)
    assert bernoulli2(Fraction(1, 2)) == Fraction(-1, 12)
    assert bernoulli2(Fraction(1, 20)) == Fraction(143, 1200)


def test_eta_series_leading_exponents():
    assert eta_series(20, 1, 30).leading_exponent() == Fraction(143, 120)
    assert eta_series(20, 10, 30).leading_exponent() == Fraction(-5, 6)


def test_eta_series_leading_exponent_closed_form():
    for n in range(2, 61):
        for r in range(1, n):
            lead = eta_series(n, r, 3).leading_exponent()
            assert lead == Fraction(n) * bernoulli2(Fraction(r, n)) / 2


def test_eta_series_symmetric_in_r():
    for n, r in ((20, 3), (15, 4), (24, 5)):
        assert eta_series(n, r, 40) == eta_series(n, n - r, 40)


def test_eta_series_rejects_zero_residue():
    with pytest.raises(RCongruentZero):
        eta_series(20, 40, 10)
    with pytest.raises(TruncationTooSmall):
        eta_series(20, 1, 0)


def test_trivial_quotient_is_one():
    q = EtaQuotient.make(20, {})
    s = quotient_series(q, 20)
    assert s.coeffs == {0: 1}


def test_series_inverse():
    e1 = eta_series(20, 1, 40)
    prod = e1 * e1.inverse()
    assert prod.coeffs == {0: 1}


def test_series_associativity_random():
    rng = random.Random(23)
    for _ in range(10):
        n = rng.choice([10, 12, 15, 20])
        a = eta_series(n, rng.randrange(1, n), 30)
        b = eta_series(n, rng.randrange(1, n), 30)
        c = eta_series(n, rng.randrange(1, n), 30)
        left, right = (a * b) * c, a * (b * c)
        assert left.truncation == right.truncation
        assert left.coeffs == right.coeffs


def _random_quotient(rng, n):
    exps = {}
    for _ in range(rng.randrange(2, 6)):
        r = rng.randrange(1, n)
        exps[r] = exps.get(r, 0) + rng.choice([-2, -1, 1, 2])
    exps = {r: k for r, k in exps.items() if k}
    if not exps:
        exps = {1: 1}
    return EtaQuotient.make(n, exps)


def test_quotient_series_leading_exponent_matches_order_formula():
    # product expansion against the closed form, at the infinity cusp
    rng = random.Random(31)
    checked = 0
    for _ in range(25):
        n = rng.randrange(10, 31)
        q = _random_quotient(rng, n)
        series = quotient_series(q, 12)
        inf = canonicalize_x1(n, 1, n)
        want = sum(
            Fraction(k * n) * bernoulli2(Fraction(r, n)) / 2 for r, k in q.exponents
        )
        assert ord_at_cusp_exact(q, inf) == want
        assert series.leading_exponent() == want
        checked += 1
    assert checked >= 20


def test_exact_orders_sum_to_zero_for_random_quotients():
    # weight-0 products have degree-0 divisors even before the
    # integrality screen
    rng = random.Random(37)
    for _ in range(12):
        n = rng.randrange(10, 26)
        q = _random_quotient(rng, n)
        total = sum(ord_at_cusp_exact(q, c) for c in atlas(n, GAMMA1))
        assert total == 0


def test_pinned_pole_orders_at_level_20():
    f = EtaQuotient.make(20, F_EXPONENTS)
    g = EtaQuotient.make(20, G_EXPONENTS)
    s = canonicalize_x1(20, 1, 10)
    assert ord_at_cusp(f, s) == -3
    assert ord_at_cusp(g, s) == -4
    for c in atlas(20, GAMMA1):
        if c != s:
            assert ord_at_cusp(f, c) >= 0
            assert ord_at_cusp(g, c) >= 0


def test_divisors_at_level_20():
    f = EtaQuotient.make(20, F_EXPONENTS)
    g = EtaQuotient.make(20, G_EXPONENTS)
    s = canonicalize_x1(20, 1, 10)
    df, dg = divisor(f), divisor(g)
    assert df.degree() == 0 and dg.degree() == 0
    assert df.pole_part() == {s: -3}
    assert dg.pole_part() == {s: -4}
    assert sum(df.zero_part().values()) == 3
    assert sum(dg.zero_part().values()) == 4


def test_trivial_quotient_divisor_is_zero():
    assert divisor(EtaQuotient.make(20, {})).orders == ()


def test_quotient_folding():
    q = EtaQuotient.make(20, {3: 1, 17: 1, 19: -1, 1: 1})
    assert q.exponent_map() == {3: 2}


def test_certify_x1_20():
    gapseq, verdict = certify_x1_20()
    assert gapseq.gaps == (1, 2, 5)
    assert gapseq.weight == 2
    assert gapseq.genus == 3
    assert verdict.status == WEIERSTRASS and verdict.weight == 2
    data = verdict.certificate[-1].data
    assert data["images"] == {"W_4": "3:10", "W_20": "1:2", "W_5": "1:6"}


def test_certified_cusps_form_one_orbit():
    report = cusp_orbits_x1(20)
    s = canonicalize_x1(20, 1, 10)
    assert set(report.orbit_of(s)) == set(atlas(20, GAMMA1).irregular())
