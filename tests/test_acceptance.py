"""Acceptance suite: every criterion at its exact tolerance, one PASS line
per criterion on stdout (run with pytest -s to watch them stream)."""

import time
from collections import Counter
from fractions import Fraction
from math import gcd

from cuspforge.arith import delta_d, divisors, pm_one, totient
from cuspforge.criteria import (
    NOT_WEIERSTRASS,
    UNKNOWN,
    WEIERSTRASS,
    certify_x1_20,
    survey_x1,
    x0_verdict,
    x1_verdict,
)
from cuspforge.cusps import GAMMA0, GAMMA1, atlas, canonicalize_x0, canonicalize_x1
from cuspforge.etaq import (
    EtaQuotient,
    F_EXPONENTS,
    G_EXPONENTS,
    divisor,
    order_over_12n,
    quotient_series,
)
from cuspforge.genus import cover, g0, g1, genus_delta
from cuspforge.symmetry import act_atkin_lehner, cusp_orbits_x1

from oracles import bf_counts_by_d, bf_g1, bf_x0_orbits, bf_x1_orbits


def _report(k, label, t0):
    print(f"criterion {k}: PASS — {label} ({time.time() - t0:.1f}s)")


def test_criterion_1_genus_spot_checks():
    t0 = time.time()
    assert g1(20) == 3
    assert g0(8) == 0 and g0(16) == 0
    assert g1(11) == 1
    assert g1(13) >= 2
    for n in range(1, 101):
        assert g1(n) == bf_g1(n), n
    _report(1, "genus spot checks and independent g1 up to 100", t0)


def test_criterion_2_cusp_count_equivalence():
    t0 = time.time()
    for n in range(5, 201):
        x1 = bf_x1_orbits(n)
        counts1 = bf_counts_by_d(n, x1[0])
        counts0 = bf_counts_by_d(n, bf_x0_orbits(n, x1))
        atlas1 = Counter(c.d for c in atlas(n, GAMMA1))
        atlas0 = Counter(c.d for c in atlas(n, GAMMA0))
        for d in divisors(n):
            closed1 = totient(d) * totient(n // d) // 2
            closed0 = totient(gcd(d, n // d))
            assert counts1.get(d, 0) == closed1 == atlas1.get(d, 0), (n, d)
            assert counts0.get(d, 0) == closed0 == atlas0.get(d, 0), (n, d)
    _report(2, "brute-force cusp orbits equal closed forms for 5 <= N <= 200", t0)


def test_criterion_3_headline_reproduction():
    t0 = time.time()
    report = survey_x1(300)
    failing = {n for n, _, status, _ in report.rows if status == NOT_WEIERSTRASS}
    assert tuple(sorted(failing)) == (18,)
    for n, _, status, _ in report.rows:
        assert status in (WEIERSTRASS, NOT_WEIERSTRASS)
        assert (status == NOT_WEIERSTRASS) == (n == 18)
    assert report.lemma_cusp_failures[2] == (16, 20, 24, 28, 32, 36, 40, 44, 48, 60)
    assert report.lemma_cusp_failures[3] == (18, 36)
    assert report.lemma_cusp_failures[4] == (16, 32, 48)
    assert report.lemma_cusp_failures[6] == (36, 72)
    _report(3, "survey to 300: only N = 18 fails; all four exception lists exact", t0)


def test_criterion_4_cusp_number_inequality():
    t0 = time.time()
    checked = 0
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
            checked += 1
    assert checked > 400
    _report(4, f"cusp-number inequality exact on {checked} pairs up to N = 300", t0)


def test_criterion_5_mu_identity():
    t0 = time.time()
    # Degenerate boundary: at N = 4 (the only level with N/e <= 2) +-1
    # collapse mod N/e, Delta_2 = {+-1}, and the degree-e covering behind
    # the identity does not exist; assert that exception explicitly.
    assert delta_d(4, 2) == pm_one(4)
    assert genus_delta(pm_one(4)).mu == genus_delta(delta_d(4, 2)).mu
    checked = 0
    for n in range(5, 301):
        for d in divisors(n):
            e = gcd(d, n // d)
            if e > 1:
                mu_n, mu_d = genus_delta(pm_one(n)).mu, genus_delta(delta_d(n, d)).mu
                assert mu_n == e * mu_d, (n, d)
                checked += 1
    assert checked > 400
    _report(5, f"mu identity exact on {checked} pairs (sole degenerate level: 4)", t0)


def test_criterion_6_eta_certificate():
    t0 = time.time()
    f = EtaQuotient.make(20, F_EXPONENTS)
    g = EtaQuotient.make(20, G_EXPONENTS)
    s = canonicalize_x1(20, 1, 10)
    df, dg = divisor(f), divisor(g)
    assert df.pole_part() == {s: -3} and df.degree() == 0
    assert dg.pole_part() == {s: -4} and dg.degree() == 0

    gapseq, verdict = certify_x1_20()
    assert gapseq.gaps == (1, 2, 5) and gapseq.weight == 2
    assert verdict.status == WEIERSTRASS and verdict.weight == 2

    images = {q: act_atkin_lehner(q, s) for q in (4, 20, 5)}
    assert images[4] == canonicalize_x1(20, 3, 10)
    assert images[20] == canonicalize_x1(20, 1, 2)
    assert images[5] == canonicalize_x1(20, 1, 6)
    orbit = set(next(orb for orb in cusp_orbits_x1(20).orbits if s in orb))
    assert orbit == {c for c in atlas(20, GAMMA1) if c.irregular}

    # series at the default truncation agree with the closed-form orders
    inf = canonicalize_x1(20, 1, 20)
    for quot in (f, g):
        s = quotient_series(quot)
        assert Fraction(s.lead, s.denom) == Fraction(*order_over_12n(quot, inf))
    _report(6, "level-20 certificate: divisors, gaps {1,2,5}, weight 2, one orbit", t0)


def test_criterion_7_x0_classifications():
    t0 = time.time()
    assert x0_verdict(2, 16).status == WEIERSTRASS  # N = 64
    assert x0_verdict(3, 9).status == NOT_WEIERSTRASS  # N = 81
    assert x0_verdict(2, 11).status == NOT_WEIERSTRASS  # N = 44
    assert x0_verdict(2, 77).status == UNKNOWN
    assert x0_verdict(3, 10).status == UNKNOWN  # 2*5, both = -1 mod 3
    for p in (2, 3, 5):
        m = p
        while p * p * m <= 400:
            if m % p == 0 and g0(p * p * m) >= 2:
                if g0(p * p * m) - p * g0(p * m) >= p:
                    assert x0_verdict(p, m).status == WEIERSTRASS, (p, m)
            m += 1
    _report(7, "x0 verdicts and quotient-genus consistency up to 400", t0)


def test_criterion_8_total_ramification():
    t0 = time.time()
    pairs = 0
    for n in range(2, 151):
        for d in divisors(n):
            if gcd(d, n // d) > 1:
                degree, ramification = cover((n, pm_one(n)), (n, delta_d(n, d)), d)
                assert ramification == degree, (n, d)
                pairs += 1
    towers = 0
    for p in (2, 3, 5):
        m = p
        while p * p * m <= 400:
            if m % p == 0:
                for x in range(1, p):
                    c = canonicalize_x0(p * p * m, x, p)
                    degree, ramification = cover((c.level, GAMMA0), (p * m, GAMMA0), c.d)
                    assert ramification == degree == p, (p, m, x)
                towers += 1
            m += p
    assert pairs > 100 and towers > 20
    _report(8, f"total ramification on {pairs} diamond and {towers} tower cases", t0)


def test_criterion_9_orbit_constant_verdicts():
    t0 = time.time()
    orbits_checked = 0
    for n in range(13, 101):
        if g1(n) < 2:
            continue
        report = cusp_orbits_x1(n)
        for orbit in report.orbits:
            if not orbit[0].irregular:
                continue
            statuses = {x1_verdict(n, c.d).status for c in orbit}
            assert len(statuses) == 1, (n, orbit)
            orbits_checked += 1
    assert orbits_checked > 30
    _report(9, f"verdicts constant on {orbits_checked} irregular orbits, N <= 100", t0)
