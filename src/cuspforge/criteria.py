"""Weierstrass verdicts for irregular cusps, with certificate chains.

`x1_verdict` is the one home of the X_1(N) argument.  It takes, in order,
the Fricke choice of d or N/d, the cusp inequality
phi(d)phi(N/d) >= 8 + 4/(e-1), the quotient-genus inequality
g_1(N) - e*g_{Delta_d}(N) >= e, and finally a small certified fact table
(N = 16, 18) or the eta-quotient certificate (N = 20), which
`certify_x1_20` recomputes here from the quotients F and G of `etaq`.
The certificate holds a Fricke step when d gives way to N/d, then the
rule that decided, each with its data; callers read these facts there.
(N, d) is checked by the one guard `arith.irregular_e`.  The X_0(p^2 M)
verdicts encode the classification theorems for the cusps equivalent to
(1 : p): one decision returns the single (status, rule, data) step, and
the level p^2 M is checked against `MAX_LEVEL` before p is factored.
Cases those theorems leave open stay Unknown.  Both quotient-genus tests,
over X_{Delta_d}(N) and over X_0(pM), are one `_cover_step`: a cover of
degree n, totally ramified at the cusp, and g_X - n g_Y >= n.
"""

from math import isqrt
from typing import NamedTuple

from .arith import (
    check_level,
    delta_d,
    factorize,
    full_units,
    irregular_e,
    is_prime,
    pm_one,
    ratio_text,
    totient,
)
from .cusps import GAMMA1, atlas, canonicalize_x1
from .errors import (
    DomainError,
    GenusTooLarge,
    GenusTooSmall,
    InconsistentGapCount,
    NotAFunction,
    NotPrime,
    SurveyTooLarge,
)
from .etaq import F_EXPONENTS, G_EXPONENTS, EtaQuotient, divisor
from .genus import cover, g0, g1, genus_delta
from .symmetry import act_atkin_lehner

WEIERSTRASS = "Weierstrass"
NOT_WEIERSTRASS = "NotWeierstrass"
UNKNOWN = "Unknown"

RULE_LEMMA_GENUS = "LemmaGenus"
RULE_LEMMA_CUSP = "LemmaCuspIneq"
RULE_FRICKE = "FrickeDualityReduction"
RULE_FACT = "FactTable"
RULE_ATKIN = "AtkinClassification"
RULE_OGG = "OggClassification"
RULE_LEHNER_NEWMAN = "LehnerNewmanClassification"
RULE_ETA = "EtaCertificate"


class CertStep(NamedTuple):
    rule: str
    data: dict


class Verdict(NamedTuple):
    status: str
    weight: int | None
    certificate: tuple[CertStep, ...]

    def decisive_rule(self) -> str:
        return self.certificate[-1].rule


class GapSequence(NamedTuple):
    genus: int
    gaps: tuple[int, ...]
    weight: int


# ---------------------------------------------------------------------------
# Elementary sufficient criteria


def schoeneberg(g: int, m: int, g_bar: int) -> bool:
    """Fixed point of an order-m automorphism with quotient genus g_bar is
    a Weierstrass point when g - m*g_bar >= m."""
    if g < 2:
        raise GenusTooSmall(f"need genus >= 2, got {g}")
    if m < 2 or g_bar < 0:
        raise DomainError(f"need m >= 2 and g_bar >= 0, got m={m}, g_bar={g_bar}")
    return g - m * g_bar >= m


def _cover_step(g: int, up, down, d: int, g_down: int) -> bool:
    """The quotient-genus test for the cusps with invariant d of the
    curve up = (N, group), of genus g, over down, of genus g_down; raises
    unless the cover is totally ramified there."""
    degree, ramification = cover(up, down, d)
    if ramification != degree:
        raise RuntimeError(
            f"the cover of level {up[0]} over level {down[0]} is not totally "
            f"ramified at d = {d}: degree {degree}, ramification {ramification}"
        )
    return schoeneberg(g, degree, g_down)


# ---------------------------------------------------------------------------
# Gap sequences

# Largest genus `gap_sequence_from_nongaps` takes, checked first.  With the
# non-gaps g + 1..2g + 1 its quadratic closure took 20 ms at g = 1000 and
# 1.4 s at 10^4 (medians of 3, 2-vCPU host, CPython 3.11).
MAX_GAP_GENUS = 10**4


def gap_sequence_from_nongaps(nongaps, g: int) -> GapSequence:
    """Close certified pole orders under addition, read off the gaps.

    Exactly g gaps must remain in 1..2g-1; fewer certified non-gaps than
    the true semigroup leaves too many gaps and is reported as such.
    Non-gaps past 2g - 1 close nothing below 2g, but must be positive too.
    """
    if g > MAX_GAP_GENUS:
        raise GenusTooLarge(f"genus {g} is past the gap-sequence bound {MAX_GAP_GENUS}")
    members = set(nongaps)
    if not members or min(members) < 1:
        raise DomainError("non-gaps must be positive integers")
    bound = 2 * g - 1
    gens = sorted(m for m in members if m <= bound)
    attainable = [False] * (bound + 1)
    for k in range(1, bound + 1):
        attainable[k] = k in members or any(attainable[k - m] for m in gens if m < k)
    gaps = tuple(k for k in range(1, bound + 1) if not attainable[k])
    if len(gaps) != g:
        raise InconsistentGapCount(
            f"{len(gaps)} gaps in 1..{bound} from non-gaps {gens}, expected {g}"
        )
    weight = sum(a - i for i, a in enumerate(gaps, start=1))
    return GapSequence(g, gaps, weight)


# ---------------------------------------------------------------------------
# The level-20 certificate


def certify_x1_20() -> tuple[GapSequence, Verdict]:
    """Recompute the gap sequence 1, 2, 5 at the cusp (1 : 10) of X_1(20)
    and propagate weight 2 to all four irregular cusps via W_4, W_20, W_5."""
    n = 20
    s = canonicalize_x1(n, 1, 10)
    f = EtaQuotient.make(n, F_EXPONENTS)
    g = EtaQuotient.make(n, G_EXPONENTS)

    try:
        div_f, div_g = divisor(f), divisor(g)
    except NotAFunction as exc:
        raise RuntimeError(str(exc)) from exc
    if div_f.pole_part() != {s: -3}:
        raise RuntimeError(f"pole part of f is {div_f.pole_part()}, expected 3*(1:10)")
    if div_g.pole_part() != {s: -4}:
        raise RuntimeError(f"pole part of g is {div_g.pole_part()}, expected 4*(1:10)")

    genus = g1(n)
    if genus != 3:
        raise RuntimeError(f"g_1(20) = {genus}, expected 3")
    gapseq = gap_sequence_from_nongaps({3, 4}, genus)

    images = {q: act_atkin_lehner(q, s) for q in (4, 20, 5)}
    expected = {
        4: canonicalize_x1(n, 3, 10),
        20: canonicalize_x1(n, 1, 2),
        5: canonicalize_x1(n, 1, 6),
    }
    if images != expected:
        raise RuntimeError(f"Atkin-Lehner images {images} != {expected}")
    cusps = {s} | set(images.values())
    if cusps != {c for c in atlas(n, GAMMA1) if c.irregular}:
        raise RuntimeError("propagated cusps are not exactly the irregular ones")

    step = CertStep(
        RULE_ETA,
        {
            "pole_orders": [3, 4],
            "gaps": list(gapseq.gaps),
            "weight": gapseq.weight,
            "base_cusp": s.key(),
            "images": {f"W_{q}": c.key() for q, c in images.items()},
        },
    )
    verdict = Verdict(WEIERSTRASS, gapseq.weight, (step,))
    return gapseq, verdict


# ---------------------------------------------------------------------------
# X_1(N) verdicts

# Imported classifications of the two hyperelliptic levels whose irregular
# cusps the inequalities cannot decide; the N = 20 case is recomputed from
# the eta-quotient certificate instead of being stored.
_X1_FACTS = {
    16: (WEIERSTRASS, "hyperelliptic Weierstrass-point table: all irregular cusps"),
    18: (NOT_WEIERSTRASS, "hyperelliptic Weierstrass-point table: no cusp qualifies"),
}


def x1_verdict(n: int, d: int) -> Verdict:
    """Decide whether the X_1(N) cusps with invariant d are Weierstrass
    points, with the chain of rules that settled it.

    Fricke reduction keeps phi(d) phi(N/d) and e, so the cusp inequality is
    the same before and after it.  It keeps Delta_d as well, which depends
    on d only through e, so the quotient-genus test reads Delta_d at d
    itself.
    """
    e = irregular_e(n, d)
    g = g1(n)
    if g < 2:
        raise GenusTooSmall(f"g_1({n}) = {g} < 2")
    phi_d, phi_nd = totient(d), totient(n // d)
    steps = ()
    if phi_d > phi_nd:
        data = {"from_d": d, "to_d": n // d, "phi_d": phi_d, "phi_nd": phi_nd}
        steps = (CertStep(RULE_FRICKE, data),)
    # phi(d) phi(N/d) >= 8 + 4/(e - 1), times e - 1 > 0: exact in integers
    if (phi_d * phi_nd - 8) * (e - 1) >= 4:
        step = CertStep(
            RULE_LEMMA_CUSP,
            {"phi_product": phi_d * phi_nd, "threshold": ratio_text(8 * e - 4, e - 1), "e": e},
        )
        return Verdict(WEIERSTRASS, None, (*steps, step))
    quotient = delta_d(n, d)
    g_quot = genus_delta(quotient).g
    if _cover_step(g, (n, pm_one(n)), (n, quotient), d, g_quot):
        step = CertStep(RULE_LEMMA_GENUS, {"g1": g, "e": e, "g_quotient": g_quot})
        return Verdict(WEIERSTRASS, None, (*steps, step))
    if n == 20:
        _, cert = certify_x1_20()
        data = cert.certificate[0].data
        step = CertStep(RULE_ETA, {k: data[k] for k in ("pole_orders", "gaps", "weight")})
        return Verdict(WEIERSTRASS, cert.weight, (*steps, step))
    if n in _X1_FACTS:
        status, source = _X1_FACTS[n]
        step = CertStep(RULE_FACT, {"level": n, "source": source})
        return Verdict(status, None, (*steps, step))
    raise RuntimeError(
        f"(N, d) = ({n}, {d}) escaped every rule; the case analysis is broken"
    )


# ---------------------------------------------------------------------------
# X_0(p^2 M) verdicts for the cusps equivalent to (1 : p)


def _odd_prime(n: int) -> bool:
    return n != 2 and is_prime(n)


def _distinct_prime_pair(m: int) -> tuple[int, int] | None:
    fac = factorize(m)
    if len(fac) == 2 and fac[0][1] == 1 and fac[1][1] == 1:
        return fac[0][0], fac[1][0]
    return None


def x0_verdict(p: int, m: int) -> Verdict:
    """Classify the irregular cusps of X_0(p^2 M) equivalent to (1 : p)."""
    n = p * p * m
    if p >= 2:
        check_level(n)  # before is_prime trial-divides p
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if m < 1:
        raise DomainError("M must be positive")
    g = g0(n)
    if g < 2:
        raise GenusTooSmall(f"g_0({n}) = {g} < 2")
    status, rule, data = _x0_decision(p, m, n, g)
    return Verdict(status, None, (CertStep(rule, data),))


def _x0_decision(p: int, m: int, n: int, big: int) -> tuple[str, str, dict]:
    """(status, rule, data) of the one step that decides X_0(n), n = p^2 M,
    given big = g_0(n)."""
    if m % p == 0:
        small = g0(p * m)
        if _cover_step(big, (n, full_units(n)), (p * m, full_units(p * m)), p, small):
            return WEIERSTRASS, RULE_LEMMA_GENUS, {"g0_n": big, "g0_pm": small, "p": p}
        if n == 81:
            note = "0-cusp of X_0(81) is not a Weierstrass point"
            return NOT_WEIERSTRASS, RULE_ATKIN, {"level": 81, "note": note}
        for scale in (8, 16):
            if n % scale == 0 and _odd_prime(n // scale):
                data = {"level": n, "form": f"{scale}*q", "q": n // scale}
                return NOT_WEIERSTRASS, RULE_OGG, data
        return WEIERSTRASS, RULE_ATKIN, {"level": n, "form": "p | M"}

    if p == 2:
        # M odd here
        if _odd_prime(m) and m != 3:
            return NOT_WEIERSTRASS, RULE_OGG, {"level": n, "form": "4q", "q": m}
        if m % 3 == 0 and _odd_prime(m // 3) and m // 3 != 3:
            return NOT_WEIERSTRASS, RULE_OGG, {"level": n, "form": "12q", "q": m // 3}
        pair = _distinct_prime_pair(m)
        if pair and 3 not in pair and any(q % 4 == 3 for q in pair):
            exception = "M = q*q' with a prime = -1 mod 4"
            return UNKNOWN, RULE_LEHNER_NEWMAN, {"open_exception": exception, "M": m}
        return WEIERSTRASS, RULE_LEHNER_NEWMAN, {"level": n, "form": "4M"}

    if p == 3:
        if is_prime(m):
            return UNKNOWN, RULE_LEHNER_NEWMAN, {"open_exception": "M prime", "M": m}
        pair = _distinct_prime_pair(m)
        if pair and any(q % 3 == 2 for q in pair):
            exception = "M = q*q' with a prime = -1 mod 3"
            return UNKNOWN, RULE_LEHNER_NEWMAN, {"open_exception": exception, "M": m}
        return WEIERSTRASS, RULE_LEHNER_NEWMAN, {"level": n, "form": "9M"}

    return UNKNOWN, RULE_FACT, {"reason": "OutOfScope", "p": p, "M": m}


# ---------------------------------------------------------------------------
# Survey driver


class SurveyReport(NamedTuple):
    max_n: int
    rows: tuple[tuple[int, int, str, str], ...]  # (N, d, status, rule)
    lemma_cusp_failures: dict[int, tuple[int, ...]]


# Largest survey bound accepted.  On a 2-vCPU host with CPython 3.11,
# `survey x1 --max 200000` took 0.25 s and 41 MB as a process and printed
# 15 MB of JSON (128342 rows); --max 100000 took 0.16 s (medians,
# `BENCH_survey_rows.json`).  Writing the rows is more than half of that,
# and the bound keeps it in reason.
MAX_SURVEY = 2 * 10**5

# Every irregular bucket past this level passes the cusp inequality; see
# `survey_x1`.
LEMMA_CUSP_LEVEL = 90


def survey_x1(max_n: int) -> SurveyReport:
    """Verdicts for every irregular cusp bucket with 13 <= N <= max_n and
    g_1(N) >= 2, plus the per-d failure sets of the cusp-count inequality.

    The buckets of N are the r > 1 with r^2 | N, one per value of
    e = gcd(d, N/d) = r.  Up to `LEMMA_CUSP_LEVEL` each runs through
    `x1_verdict`.  Past it every row is (N, r, Weierstrass, LemmaCuspIneq),
    read off the bucket set alone, since g_1(N) >= 2 for N > 15 and the
    cusp inequality phi(d) phi(N/d) >= 8 + 4/(e - 1) holds:
    - phi(d) phi(N/d) e = phi(N) phi(e), prime by prime.
    - e not in {1, 2, 3, 4, 6} gives phi(e) >= 4, and phi(e) divides both
      phi(d) and phi(N/d), as e divides d and N/d.  So the product is at
      least 16, more than the threshold, which is at most 12.
    - e = 2, 3, 4 and 6 pass once phi(N) >= 24, 15, 19 and 27, in that
      order, since the product is phi(N) phi(e) / e.
    - phi(N) <= 26 forces N <= 90: phi(n) >= sqrt(n) for n > 6 bounds N
      by 676, and a scan to 676 finds 90 as the largest.
    So the failure sets come from the levels up to 90 alone.  Past
    `MAX_SURVEY` the survey is refused.
    """
    if max_n < 13:
        raise DomainError("survey needs max_n >= 13")
    if max_n > MAX_SURVEY:
        raise SurveyTooLarge(f"survey max {max_n} is past the bound {MAX_SURVEY}")
    rows = []
    failures: dict[int, list[int]] = {2: [], 3: [], 4: [], 6: []}
    for n in range(13, min(max_n, LEMMA_CUSP_LEVEL) + 1):
        if g1(n) < 2:
            continue
        for r in range(2, isqrt(n) + 1):
            if n % (r * r):
                continue
            verdict = x1_verdict(n, r)
            rule = verdict.decisive_rule()
            rows.append((n, r, verdict.status, rule))
            # x1_verdict tries the cusp inequality first, so any other
            # decisive rule means it failed
            if r in failures and rule != RULE_LEMMA_CUSP:
                failures[r].append(n)
    rows += sorted(
        (n, r, WEIERSTRASS, RULE_LEMMA_CUSP)
        for r in range(2, isqrt(max_n) + 1)
        for n in range(r * r * (LEMMA_CUSP_LEVEL // (r * r) + 1), max_n + 1, r * r)
    )
    return SurveyReport(
        max_n, tuple(rows), {d: tuple(v) for d, v in failures.items()}
    )
