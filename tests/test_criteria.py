import os
import subprocess
import sys
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspforge.arith import (
    MAX_LEVEL,
    DeltaSubgroup,
    cofactor_gcd,
    delta_d,
    divisors,
    factorize,
    irregular_e,
    pm_one,
    ratio_text,
    unit_group_generators,
    units,
)
from cuspforge import criteria
from cuspforge.criteria import (
    LEMMA_CUSP_LEVEL,
    MAX_GAP_GENUS,
    MAX_SURVEY,
    NOT_WEIERSTRASS,
    RULE_FRICKE,
    RULE_LEMMA_CUSP,
    RULE_LEMMA_GENUS,
    UNKNOWN,
    WEIERSTRASS,
    gap_sequence_from_nongaps,
    schoeneberg,
    survey_x1,
    x0_verdict,
    x1_verdict,
)
from cuspforge.errors import (
    GenusTooLarge,
    GenusTooSmall,
    DomainError,
    InconsistentGapCount,
    LevelTooLarge,
    NotIrregular,
    NotPositive,
    NotPrime,
    SurveyTooLarge,
)
from cuspforge.cusps import atlas, canonicalize_x0, canonicalize_x1
from cuspforge.etaq import eta_series
from cuspforge.genus import g0, g1
from cuspforge.symmetry import cusp_orbits_x1

from oracles import (
    bf_al_min,
    bf_al_orbits,
    bf_cusp_inequality,
    bf_divisors,
    bf_fricke_choice,
    bf_genus_check,
    bf_phi_table,
    bf_survey_x1,
)


@pytest.mark.parametrize(
    "fn, args, error",
    [
        (canonicalize_x0, (0, 1, 4), NotPositive),
        (x1_verdict, (-20, 2), NotPositive),
        (irregular_e, (0, 4), NotPositive),
        (cofactor_gcd, (0, 4), NotPositive),
        (delta_d, (0, 4), NotPositive),
        (pm_one, (0,), NotPositive),
        (DeltaSubgroup, (0, ()), NotPositive),
        (DeltaSubgroup, (-5, (1,)), NotPositive),
        (unit_group_generators, (0,), NotPositive),
        (unit_group_generators, (-7,), NotPositive),
        (factorize, (0,), NotPositive),
        (units, (-3,), NotPositive),
        (canonicalize_x1, (0, 1, 1), NotPositive),
        (atlas, (0,), NotPositive),
        (eta_series, (0, 1), NotPositive),
    ],
    ids=lambda v: v.__name__ if callable(v) else repr(v),
)
def test_levels_below_one_are_refused(fn, args, error):
    # a level N or M below 1 is a DomainError, never a ZeroDivisionError,
    # a plain ValueError or a silent answer
    with pytest.raises(error, match="at least 1|M must be positive"):
        fn(*args)


def test_schoeneberg_examples():
    assert not schoeneberg(3, 2, 1)  # the level-20 failure forcing the certificate
    assert schoeneberg(5, 2, 1)
    assert schoeneberg(2, 2, 0)
    with pytest.raises(GenusTooSmall, match="^need genus >= 2, got 1$"):
        schoeneberg(1, 2, 0)
    for m, g_bar in ((1, 0), (2, -1)):
        with pytest.raises(DomainError, match="need m >= 2 and g_bar >= 0"):
            schoeneberg(3, m, g_bar)


def test_cover_step_refuses_a_cover_that_is_not_totally_ramified(monkeypatch):
    # both quotient-genus proofs reach the one cover step, which checks
    # the ramification before it applies schoeneberg
    monkeypatch.setattr(criteria, "cover", lambda up, down, d: (2, 1))
    with pytest.raises(RuntimeError, match="not totally ramified"):
        x1_verdict(20, 2)
    with pytest.raises(RuntimeError, match="not totally ramified"):
        x0_verdict(2, 16)


def test_x1_verdict_refuses_a_case_no_rule_decides(monkeypatch):
    monkeypatch.setattr(criteria, "_X1_FACTS", {})
    for n, d in ((16, 4), (18, 3)):
        with pytest.raises(RuntimeError, match=f"\\({n}, {d}\\) escaped every rule"):
            x1_verdict(n, d)


def _steps(n, d):
    return {s.rule: s.data for s in x1_verdict(n, d).certificate}


def test_lemma_cusp_inequality_examples():
    assert x1_verdict(20, 2).decisive_rule() != RULE_LEMMA_CUSP
    assert not bf_cusp_inequality(20, 2)
    # phi(10) phi(10) = 16 >= 8 + 4/9
    assert _steps(100, 10)[RULE_LEMMA_CUSP] == {
        "phi_product": 16, "threshold": "76/9", "e": 10
    }
    # phi(2) phi(26) = 12 meets the bound 8 + 4/1
    assert _steps(52, 2)[RULE_LEMMA_CUSP] == {
        "phi_product": 12, "threshold": "12", "e": 2
    }
    with pytest.raises(NotIrregular):
        x1_verdict(20, 4)


def test_lemma_genus_check_examples():
    assert _steps(24, 2)[RULE_LEMMA_GENUS] == {"g1": 5, "e": 2, "g_quotient": 1}
    assert bf_genus_check(24, 2)
    # g_1(20) - 2 g_{Delta_2}(20) = 1 < 2: the level-20 certificate decides
    assert RULE_LEMMA_GENUS not in _steps(20, 2)
    assert not bf_genus_check(20, 2)
    assert bf_genus_check(36, 3)
    with pytest.raises(GenusTooSmall):
        x1_verdict(12, 2)


def test_fricke_reduce_examples():
    assert _steps(20, 10)[RULE_FRICKE] == {
        "from_d": 10, "to_d": 2, "phi_d": 4, "phi_nd": 1
    }
    assert RULE_FRICKE not in _steps(36, 6)  # a tie keeps d
    assert RULE_FRICKE not in _steps(48, 4)
    assert [bf_fricke_choice(*nd) for nd in ((20, 10), (36, 6), (48, 4))] == [2, 6, 4]


def test_al_reduce():
    assert cofactor_gcd(24, 4) == bf_al_min(24, 4) == 2
    assert cofactor_gcd(40, 4) == 2
    assert cofactor_gcd(16, 4) == 4
    assert cofactor_gcd(32, 8) == 4
    assert cofactor_gcd(18, 6) == 3
    assert bf_al_orbits(24)[4] == {2, 4, 6, 12}


def test_al_reduce_closed_form_matches_orbit_minimum():
    # each W_Q swaps the Q-part of d with Q/(Q-part): prime by prime the
    # exponent b of p in d may become a - b, where p^a || N, so the least
    # divisor in the orbit takes p^min(b, a - b) at every prime, which is
    # gcd(d, N/d)
    for n in range(1, 1501):
        for d, orbit in bf_al_orbits(n).items():
            assert cofactor_gcd(n, d) == min(orbit), (n, d)


def test_al_orbit_preserves_e_and_phi_product():
    from cuspforge.arith import totient

    for n in range(2, 200):
        for d, orbit in bf_al_orbits(n).items():
            for d2 in orbit:
                assert gcd(d2, n // d2) == gcd(d, n // d)
                assert totient(d2) * totient(n // d2) == totient(d) * totient(n // d)


def test_x1_verdict_18():
    for d in (3, 6):
        v = x1_verdict(18, d)
        assert v.status == NOT_WEIERSTRASS
        assert v.decisive_rule() == "FactTable"


def test_x1_verdict_20():
    v = x1_verdict(20, 10)
    assert v.status == WEIERSTRASS and v.weight == 2
    rules = tuple(s.rule for s in v.certificate)
    assert rules == ("FrickeDualityReduction", "EtaCertificate")
    v2 = x1_verdict(20, 2)
    assert v2.status == WEIERSTRASS
    assert tuple(s.rule for s in v2.certificate) == ("EtaCertificate",)


def test_x1_verdict_lemma_cases():
    assert x1_verdict(72, 6).decisive_rule() == "LemmaGenus"
    assert x1_verdict(24, 2).decisive_rule() == "LemmaGenus"
    assert x1_verdict(52, 2).decisive_rule() == "LemmaCuspIneq"
    assert x1_verdict(16, 4).decisive_rule() == "FactTable"
    assert x1_verdict(16, 4).status == WEIERSTRASS


def test_x1_verdict_never_uses_fact_table_when_lemma_fires():
    for n in range(13, 121):
        if g1(n) < 2:
            continue
        for d in divisors(n):
            if gcd(d, n // d) == 1:
                continue
            v = x1_verdict(n, d)
            d0 = bf_fricke_choice(n, d)
            if bf_genus_check(n, d0):
                assert "FactTable" not in (s.rule for s in v.certificate)
                assert v.status == WEIERSTRASS


def test_x1_verdict_errors():
    with pytest.raises(NotIrregular):
        x1_verdict(20, 5)
    with pytest.raises(GenusTooSmall):
        x1_verdict(12, 2)


def test_x0_verdict_examples():
    assert x0_verdict(2, 16).status == WEIERSTRASS  # N = 64
    assert x0_verdict(3, 9).status == NOT_WEIERSTRASS  # N = 81
    assert x0_verdict(2, 11).status == NOT_WEIERSTRASS  # N = 44
    assert x0_verdict(2, 77).status == UNKNOWN
    assert x0_verdict(3, 10).status == UNKNOWN


def test_x0_verdict_more_cases():
    assert x0_verdict(2, 10).status == NOT_WEIERSTRASS  # N = 40 = 8*5
    assert x0_verdict(2, 20).status == NOT_WEIERSTRASS  # N = 80 = 16*5
    assert x0_verdict(2, 15).status == NOT_WEIERSTRASS  # M = 3q
    assert x0_verdict(2, 7).status == NOT_WEIERSTRASS  # M = q, smallest valid
    assert x0_verdict(2, 13 * 17).status == WEIERSTRASS  # both 1 mod 4
    assert x0_verdict(3, 7 * 13).status == WEIERSTRASS  # both 1 mod 3
    assert x0_verdict(3, 7).status == UNKNOWN  # M prime
    assert x0_verdict(5, 3).status == UNKNOWN  # p >= 5, p not dividing M
    assert x0_verdict(5, 5).status == WEIERSTRASS  # N = 125, p | M
    with pytest.raises(NotPrime):
        x0_verdict(4, 4)
    with pytest.raises(GenusTooSmall):
        x0_verdict(2, 2)  # g_0(8) = 0


def test_x0_verdict_refuses_level_before_factoring_p():
    factorize.cache_clear()
    with pytest.raises(LevelTooLarge, match=str(999999999989**2)):
        x0_verdict(999999999989, 1)
    assert factorize.cache_info().misses == 0
    # a composite p is refused for its level too, past the bound only
    m = MAX_LEVEL // 10**12
    with pytest.raises(LevelTooLarge):
        x0_verdict(10**6, m + 1)
    with pytest.raises(NotPrime):
        x0_verdict(10**6, m)
    for p, m in ((1, 10**13), (-3, 10**13), (0, 1)):
        with pytest.raises(NotPrime):
            x0_verdict(p, m)
    with pytest.raises(DomainError, match="M must be positive"):
        x0_verdict(999999999989, 0)


def test_x0_lemma_43_consistency():
    # wherever the quotient-genus inequality holds with p | M, the verdict
    # is Weierstrass and never overridden
    for p in (2, 3, 5):
        for m in range(p, 401 // (p * p) + 1, p):
            n = p * p * m
            if g0(n) < 2:
                continue
            v = x0_verdict(p, m)
            if g0(n) - p * g0(p * m) >= p:
                assert v.status == WEIERSTRASS
                assert tuple(s.rule for s in v.certificate) == ("LemmaGenus",)


def test_gap_sequence_examples():
    seq = gap_sequence_from_nongaps({3, 4}, 3)
    assert seq.gaps == (1, 2, 5) and seq.weight == 2
    seq = gap_sequence_from_nongaps({2}, 2)
    assert seq.gaps == (1, 3) and seq.weight == 1
    for g in range(2, 8):
        seq = gap_sequence_from_nongaps(set(range(g + 1, 2 * g + 1)), g)
        assert seq.gaps == tuple(range(1, g + 1)) and seq.weight == 0


def test_gap_sequence_counts_and_range():
    seq = gap_sequence_from_nongaps({4, 5}, 6)
    assert len(seq.gaps) == 6 and all(1 <= a <= 11 for a in seq.gaps)
    with pytest.raises(InconsistentGapCount):
        gap_sequence_from_nongaps({5}, 3)  # too few certified non-gaps
    for nongaps in ({0, 3}, set()):
        with pytest.raises(DomainError, match="non-gaps must be positive"):
            gap_sequence_from_nongaps(nongaps, 2)


def test_gap_sequence_genus_bound_is_exact_and_refused_first():
    # on the bound the closure runs (one non-gap past 2g - 1 closes nothing,
    # so too many gaps remain); one past it is refused
    with pytest.raises(InconsistentGapCount):
        gap_sequence_from_nongaps({2 * MAX_GAP_GENUS + 1}, MAX_GAP_GENUS)
    with pytest.raises(GenusTooLarge):
        gap_sequence_from_nongaps({1}, MAX_GAP_GENUS + 1)
    # quick: refused before the non-gaps are read or the closure allocates
    # (a set of 10^12 non-gaps, then 2 * 10^9 flags).  The refusal runs in a
    # child whose address space is capped, so a closure that allocates
    # first fails there with MemoryError
    code = (
        "import resource, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        "from cuspforge.criteria import gap_sequence_from_nongaps\n"
        "start = time.perf_counter()\n"
        "try:\n    gap_sequence_from_nongaps(range(1, 10**12), 10**9)\n"
        "except Exception as exc:\n    print(type(exc).__name__)\n"
        "print(time.perf_counter() - start < 0.1)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "GenusTooLarge\nTrue\n", "")


def test_gap_complement_is_a_numerical_semigroup():
    for nongaps, g in (({3, 4}, 3), ({2}, 2), ({4, 5}, 6), ({3, 7}, 5)):
        seq = gap_sequence_from_nongaps(nongaps, g)
        bound = 2 * g - 1
        semigroup = set(range(bound + 1, 3 * bound)) | (
            set(range(1, bound + 1)) - set(seq.gaps)
        )
        for a in semigroup:
            for b in semigroup:
                if a + b < 3 * bound:
                    assert a + b in semigroup, (nongaps, g, a, b)


def test_survey_failure_lists():
    rep = survey_x1(100)
    assert rep.lemma_cusp_failures[2] == (16, 20, 24, 28, 32, 36, 40, 44, 48, 60)
    assert rep.lemma_cusp_failures[3] == (18, 36)
    assert rep.lemma_cusp_failures[4] == (16, 32, 48)
    assert rep.lemma_cusp_failures[6] == (36, 72)


def test_survey_only_18_fails():
    rep = survey_x1(100)
    failing = {n for n, _, status, _ in rep.rows if status == NOT_WEIERSTRASS}
    assert tuple(sorted(failing)) == (18,)
    for _, _, status, _ in rep.rows:
        assert status in (WEIERSTRASS, NOT_WEIERSTRASS)


def test_survey_rows_sorted_and_deterministic():
    rep1, rep2 = survey_x1(60), survey_x1(60)
    assert rep1 == rep2
    keys = [(n, d) for n, d, _, _ in rep1.rows]
    assert keys == sorted(keys)
    assert all(type(row) is tuple and len(row) == 4 for row in rep1.rows)



def test_threshold_matches_fraction():
    for e in range(2, 10001):
        assert ratio_text(8 * e - 4, e - 1) == str(8 + Fraction(4, e - 1)), e


def test_survey_rows_match_x1_verdict():
    rep = survey_x1(20000)
    # e = gcd(d, N/d) is symmetric in d and N/d, so d <= sqrt(N) gives every e
    buckets = [
        (n, e)
        for n in range(13, 20001)
        if g1(n) >= 2
        for e in sorted(
            {gcd(d, n // d) for d in range(1, isqrt(n) + 1) if n % d == 0} - {1}
        )
    ]
    assert [(n, d) for n, d, _, _ in rep.rows] == buckets
    failures = {2: [], 3: [], 4: [], 6: []}
    for n, d, status, rule in rep.rows:
        verdict = x1_verdict(n, d)
        assert (status, rule) == (verdict.status, verdict.decisive_rule()), (n, d)
        if d in failures and not bf_cusp_inequality(n, d):
            failures[d].append(n)
    assert rep.lemma_cusp_failures == {d: tuple(v) for d, v in failures.items()}


@pytest.mark.parametrize("max_n", [13, 72, 90, 91, 3000])
def test_survey_matches_the_verdict_scan(max_n):
    assert survey_x1(max_n) == bf_survey_x1(max_n)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 2999), st.data())
def test_cusp_product_identity(n, data):
    # phi(d) phi(N/d) e = phi(N) phi(e), e = gcd(d, N/d): the lemma that
    # survey_x1 reads every row past LEMMA_CUSP_LEVEL off
    d = data.draw(st.sampled_from(sympy.divisors(n)))
    e = gcd(d, n // d)
    phi = sympy.totient
    assert phi(d) * phi(n // d) * e == phi(n) * phi(e), (n, d)


def test_lemma_cusp_level_is_the_last_small_totient():
    # the cusp inequality can fail only where phi(N) <= 26 (see survey_x1)
    phi = bf_phi_table(MAX_SURVEY)
    small = [n for n in range(1, MAX_SURVEY + 1) if phi[n] <= 26]
    assert small[-1] == LEMMA_CUSP_LEVEL == 90


def test_survey_bound():
    # ROADMAP plans the survey to 10^5 as a workload
    assert MAX_SURVEY >= 100000
    with pytest.raises(SurveyTooLarge):
        survey_x1(MAX_SURVEY + 1)


def test_verdict_certificates_match_oracle():
    phi = bf_phi_table(1000)
    checked = 0
    for n in range(13, 1001):
        if g1(n) < 2:
            continue
        for d in bf_divisors(n):
            e = gcd(d, n // d)
            if e == 1:
                continue
            steps = {s.rule: s.data for s in x1_verdict(n, d).certificate}
            product = phi[d] * phi[n // d]
            if phi[d] > phi[n // d]:
                assert steps[RULE_FRICKE] == {
                    "from_d": d, "to_d": n // d, "phi_d": phi[d], "phi_nd": phi[n // d]
                }, (n, d)
            else:
                assert RULE_FRICKE not in steps, (n, d)
            threshold = 8 + Fraction(4, e - 1)
            if product >= threshold:
                assert steps[RULE_LEMMA_CUSP] == {
                    "phi_product": product, "threshold": str(threshold), "e": e
                }, (n, d)
            else:
                assert RULE_LEMMA_CUSP not in steps, (n, d)
            checked += 1
    assert checked > 1000


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(101, 1500))
def test_verdicts_constant_on_orbits(n):
    # criterion 9 checks N <= 100; every N > 100 has g_1(N) >= 2 and an
    # X_1 atlas of at most cusp_sum(N) / 2 < 5 * 10^4 cusps, within its bound
    assert g1(n) >= 2
    for orbit in cusp_orbits_x1(n).orbits:
        if orbit[0].irregular:
            statuses = {x1_verdict(n, c.d).status for c in orbit}
            assert len(statuses) == 1, (n, orbit)
