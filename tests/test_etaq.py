import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspforge.criteria import WEIERSTRASS, certify_x1_20
from cuspforge.cusps import GAMMA1, atlas, canonicalize_x0, canonicalize_x1
from cuspforge.errors import (
    BadSpec,
    LevelMismatch,
    NotAFunction,
    NotPositive,
    RCongruentZero,
    TruncationTooLarge,
)
from cuspforge.etaq import (
    MAX_TERMS,
    MAX_WORK,
    EtaQuotient,
    F_EXPONENTS,
    G_EXPONENTS,
    check_terms,
    divisor,
    eta_series,
    ord_at_cusp,
    order_over_12n,
    quotient_series,
)
from cuspforge.symmetry import cusp_orbits_x1

from oracles import bernoulli2, bf_dict_quotient_series, bf_ord_at_cusp, bf_quotient_series


def test_bernoulli2_values():
    assert bernoulli2(0) == Fraction(1, 6)
    assert bernoulli2(Fraction(1, 2)) == Fraction(-1, 12)
    assert bernoulli2(Fraction(1, 20)) == Fraction(143, 1200)


def test_eta_series_leading_exponents():
    for r, want in ((1, Fraction(143, 120)), (10, Fraction(-5, 6))):
        s = eta_series(20, r, 30)
        assert Fraction(s.lead, s.denom) == want


def test_eta_series_leading_exponent_closed_form():
    for n in range(2, 61):
        for r in range(1, n):
            s = eta_series(n, r, 3)
            assert Fraction(s.lead, s.denom) == Fraction(n) * bernoulli2(Fraction(r, n)) / 2


def test_eta_series_symmetric_in_r():
    for n, r in ((20, 3), (15, 4), (24, 5)):
        assert eta_series(n, r, 40) == eta_series(n, n - r, 40)


def test_eta_series_rejects_zero_residue():
    with pytest.raises(RCongruentZero):
        eta_series(20, 40, 10)
    with pytest.raises(NotPositive, match="^terms must be at least 1, got 0$"):
        eta_series(20, 1, 0)


@pytest.mark.parametrize(
    "fn, args",
    [
        (EtaQuotient.make, (20, {2: 1, 4.9: 2})),
        (EtaQuotient.make, (20, {2: 1.5, 4: 2})),
        (EtaQuotient.make, (20, {2: True})),
        (EtaQuotient.make, (20.0, {2: 1})),
        (eta_series, (20, 2.5)),
    ],
    ids=["float key", "float value", "bool value", "float level", "eta_series float r"],
)
def test_exponent_maps_refuse_non_ints(fn, args):
    # int() would truncate the floats and read True as 1
    with pytest.raises(BadSpec):
        fn(*args)


def test_trivial_quotient_is_one():
    q = EtaQuotient.make(20, {})
    s = quotient_series(q, 20)
    assert s.lead == 0 and s.coeffs == (1,) + (0,) * 19


def test_every_quotient_rejects_fewer_than_one_term():
    for exps in ({}, F_EXPONENTS):
        for terms in (0, -3):
            with pytest.raises(NotPositive, match=f"^terms must be at least 1, got {terms}$"):
                quotient_series(EtaQuotient.make(20, exps), terms)


def _level_2_work(terms):
    """The work of E_1^(+-1) at level 2 to `terms` q-steps: one pass over
    the T coefficients for theta_1 = sum_j (-1)^j q^(j^2), and one over
    the ceil(T/2) of the q^2-subseries for the pentagonal series P, each
    costing one update per coefficient and per sparse term below its
    length."""
    m = -(-terms // 2)
    theta = sum(1 for j in range(-terms, terms) if 0 < j * j < terms)
    pentagonal = sum(1 for j in range(-m, m) if 0 < j * (3 * j - 1) // 2 < m)
    return terms * (theta + 1) + m * (pentagonal + 1)


def test_cost_bound_refuses_before_expanding():
    with pytest.raises(TruncationTooLarge):
        eta_series(2, 1, 10**8)
    with pytest.raises(TruncationTooLarge):
        quotient_series(EtaQuotient.make(20, {}), MAX_TERMS + 1)
    # a pass costs its length even when theta_r has no term below T
    with pytest.raises(TruncationTooLarge):
        quotient_series(EtaQuotient.make(10**6, {5 * 10**5: MAX_WORK}), 2)
    lo, hi = 1, MAX_TERMS  # the largest T whose work is within MAX_WORK
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _level_2_work(mid) <= MAX_WORK else (lo, mid)
    for k in (1, -1):
        q = EtaQuotient.make(2, {1: k})
        assert check_terms(q, lo) == lo
        with pytest.raises(TruncationTooLarge):
            quotient_series(q, lo + 1)
    assert len(eta_series(2, 1, lo).coeffs) == lo


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
        assert Fraction(*order_over_12n(q, inf)) == want
        assert Fraction(series.lead, series.denom) == want
        checked += 1
    assert checked >= 20


def test_order_is_refused_off_the_quotients_curve():
    # a class of X_1 at another level, or of X_0 at the same level
    q = EtaQuotient.make(20, {1: 1})
    for c in (canonicalize_x1(10, 1, 5), canonicalize_x0(20, 1, 2)):
        with pytest.raises(LevelMismatch, match="is not an X_1\\(20\\) class"):
            order_over_12n(q, c)


def _assert_agrees_with_oracle(q, terms):
    series = quotient_series(q, terms)
    bf = bf_dict_quotient_series(q.level, q.exponents, terms)
    d = series.denom
    assert bf.truncation <= series.truncation
    assert all(k >= series.lead and (k - series.lead) % d == 0 for k in bf.coeffs)
    for j, c in enumerate(series.coeffs):
        k = series.lead + d * j
        if k >= bf.truncation:
            break
        assert c == bf.coeffs.get(k, 0), (q, j)


def test_dense_kernel_matches_dict_oracle():
    rng = random.Random(41)
    for _ in range(25):
        n = rng.randrange(10, 31)
        _assert_agrees_with_oracle(_random_quotient(rng, n), rng.randrange(1, 201))
    for exps in (F_EXPONENTS, G_EXPONENTS):
        _assert_agrees_with_oracle(EtaQuotient.make(20, exps), 200)


def _total_of_sign(ks, sign):
    """ks moved one step at a time toward `sign`, each within [-6, 6],
    until sum(ks) has that sign."""
    ks = list(ks)
    i = 0
    while (total := (sum(ks) > 0) - (sum(ks) < 0)) != sign:
        step = 1 if sign > total else -1
        if abs(ks[i] + step) <= 6:
            ks[i] += step
        i = (i + 1) % len(ks)
    return ks


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_triple_product_kernel_matches_factor_kernel(data):
    # P(q^N)^(-K) prod theta_r^(k_r) against one factor (1 - q^e) at a
    # time, for K = sum k_r of each sign: P is raised to a negative power,
    # left out, or raised to a positive power
    n = data.draw(st.integers(2, 70))
    rs = data.draw(st.lists(st.integers(1, n // 2), min_size=1, max_size=4, unique=True))
    if data.draw(st.booleans()) and n // 2 not in rs:
        rs.append(n // 2)  # at r = N/2 theta's terms pair up
    ks = data.draw(st.lists(st.integers(-6, 6), min_size=len(rs), max_size=len(rs)))
    ks = _total_of_sign(ks, data.draw(st.sampled_from((1, 0, -1))))
    q = EtaQuotient.make(n, dict(zip(rs, ks)))
    terms = data.draw(st.integers(1, 400))
    assert quotient_series(q, terms).coeffs == bf_quotient_series(n, q.exponents, terms)


@pytest.mark.parametrize("k", [1, 2, 7, 23, 50, -1, -4])
def test_high_powers_at_level_2(k):
    # at N = 2 the only block is r = 1 = N/2, and k divisions by P stack up
    q = EtaQuotient.make(2, {1: k})
    assert quotient_series(q, 120).coeffs == bf_quotient_series(2, q.exponents, 120)


def test_long_block_matches_factor_kernel():
    assert eta_series(60, 7, 10000).coeffs == bf_quotient_series(60, ((7, 1),), 10000)
    q = EtaQuotient.make(2, {1: -1})
    assert quotient_series(q, 2000).coeffs == bf_quotient_series(2, q.exponents, 2000)


def _cauchy(a, b):
    return tuple(
        sum(a[i] * b[j - i] for i in range(j + 1)) for j in range(len(a))
    )


@st.composite
def _quotients(draw, n):
    exps = st.dictionaries(st.integers(1, n - 1), st.integers(-3, 3), max_size=4)
    return EtaQuotient.make(n, draw(exps))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_product_quotient_is_cauchy_product(data):
    n = data.draw(st.integers(2, 30))
    terms = data.draw(st.integers(1, 60))
    q1, q2 = data.draw(_quotients(n)), data.draw(_quotients(n))
    both = dict(q1.exponents)
    for r, k in q2.exponents:
        both[r] = both.get(r, 0) + k
    s1, s2 = quotient_series(q1, terms), quotient_series(q2, terms)
    s = quotient_series(EtaQuotient.make(n, both), terms)
    assert s.lead == s1.lead + s2.lead
    assert s.coeffs == _cauchy(s1.coeffs, s2.coeffs)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_quotient_times_its_negation_is_one(data):
    n = data.draw(st.integers(2, 30))
    terms = data.draw(st.integers(1, 60))
    q = data.draw(_quotients(n))
    neg = EtaQuotient.make(n, {r: -k for r, k in q.exponents})
    s, t = quotient_series(q, terms), quotient_series(neg, terms)
    assert s.lead + t.lead == 0
    assert _cauchy(s.coeffs, t.coeffs) == (1,) + (0,) * (terms - 1)


def test_coefficients_are_ints():
    for exps in (F_EXPONENTS, G_EXPONENTS, {1: -3, 10: 2}):
        series = quotient_series(EtaQuotient.make(20, exps), 300)
        assert all(type(c) is int for c in series.coeffs)
    assert all(type(c) is int for c in eta_series(60, 7, 500).coeffs)


def test_exact_orders_sum_to_zero_for_random_quotients():
    # weight-0 products have degree-0 divisors even before the
    # integrality screen
    rng = random.Random(37)
    for _ in range(12):
        n = rng.randrange(10, 26)
        q = _random_quotient(rng, n)
        total = sum(Fraction(*order_over_12n(q, c)) for c in atlas(n, GAMMA1))
        assert total == 0


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_every_accepted_divisor_has_degree_zero(data):
    # integral orders at every cusp are all that `divisor` needs to accept
    # a quotient, and then its divisor is the orders, of degree 0
    n = data.draw(st.integers(2, 30))
    q = EtaQuotient.make(n, {r: 12 * k for r, k in data.draw(_quotients(n)).exponents})
    if data.draw(st.booleans()):
        q = data.draw(_quotients(n))
    orders = {c: Fraction(*order_over_12n(q, c)) for c in atlas(n, GAMMA1)}
    assert sum(orders.values()) == 0
    if all(o.denominator == 1 for o in orders.values()):
        div = divisor(q)
        assert div.degree() == 0
        assert dict(div.orders) == {c: o for c, o in orders.items() if o}
    else:
        with pytest.raises(NotAFunction):
            divisor(q)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_integer_orders_match_bernoulli_oracle(data):
    # the integer formula against B2~ on Fractions at every cusp, and the
    # first non-integral order, if any, is the one `divisor` refuses
    n = data.draw(st.integers(1, 60))
    q = data.draw(_quotients(n)) if n > 1 else EtaQuotient.make(1, {})
    if data.draw(st.booleans()):
        q = EtaQuotient.make(n, {r: 12 * k for r, k in q.exponents})
    orders = []
    for c in atlas(n, GAMMA1):
        want = bf_ord_at_cusp(n, q.exponents, c.x, c.y)
        assert Fraction(*order_over_12n(q, c)) == want
        orders.append((c, want))
    bad = [(c, o) for c, o in orders if o.denominator != 1]
    if bad:
        c, o = bad[0]
        message = f"order {o} at {c} is not an integer; not a function on X_1({n})"
        with pytest.raises(NotAFunction) as exc:
            divisor(q)
        assert str(exc.value) == message
    else:
        assert dict(divisor(q).orders) == {c: o for c, o in orders if o}


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
    assert sum(o for _, o in df.orders if o > 0) == 3
    assert sum(o for _, o in dg.orders if o > 0) == 4


def test_trivial_quotient_divisor_is_zero():
    assert divisor(EtaQuotient.make(20, {})).orders == ()


def test_quotient_folding():
    q = EtaQuotient.make(20, {3: 1, 17: 1, 19: -1, 1: 1})
    assert dict(q.exponents) == {3: 2}


def test_certify_x1_20():
    gapseq, verdict = certify_x1_20()
    assert gapseq.gaps == (1, 2, 5)
    assert gapseq.weight == 2
    assert gapseq.genus == 3
    assert verdict.status == WEIERSTRASS and verdict.weight == 2
    data = verdict.certificate[-1].data
    assert data["images"] == {"W_4": "3:10", "W_20": "1:2", "W_5": "1:6"}


@pytest.mark.parametrize(
    "name, value, error, match",
    [
        # order 1 at each of the 20 cusps: divisor's degree check refuses
        ("etaq.ord_at_cusp", lambda q, c: 1, RuntimeError, "divisor has degree 20;"),
        ("criteria.F_EXPONENTS", G_EXPONENTS, RuntimeError, "pole part of f is"),
        ("criteria.G_EXPONENTS", F_EXPONENTS, RuntimeError, "pole part of g is"),
        ("criteria.g1", lambda n: 4, RuntimeError, r"g_1\(20\) = 4, expected 3"),
        ("criteria.act_atkin_lehner", lambda q, c: c, RuntimeError, "Atkin-Lehner images"),
        ("criteria.atlas", lambda n, group: (), RuntimeError, "not exactly the irregular"),
    ],
)
def test_certify_x1_20_refuses_a_broken_invariant(name, value, error, match, monkeypatch):
    # each check of the certificate, reached by breaking the one input it guards
    monkeypatch.setattr(f"cuspforge.{name}", value)
    with pytest.raises(error, match=match):
        certify_x1_20()


def test_certified_cusps_form_one_orbit():
    report = cusp_orbits_x1(20)
    s = canonicalize_x1(20, 1, 10)
    orbit = next(orb for orb in report.orbits if s in orb)
    assert set(orbit) == {c for c in atlas(20, GAMMA1) if c.irregular}
