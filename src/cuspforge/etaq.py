"""Generalized eta building blocks, exact q-series, and cusp divisors.

The block for residue r at level N is

    E_r = q^(N*B(r/N)/2) * prod_{m>=1} (1 - q^((m-1)N + r)) (1 - q^(mN - r)),

with B(x) = x^2 - x + 1/6.  Exponents live on the lattice (1/12N)Z, but
only the leading exponent is ever fractional: every E_r has leading
coefficient 1 and a tail in whole q-steps.  So a quotient prod E_r^(k_r)
is stored as one leading numerator over 12N and a dense tuple of integer
coefficients, one per whole q-step.  Jacobi's triple product writes each
block as a sparse theta series over Euler's pentagonal series in q^N, so
`quotient_series` raises each theta series and the pentagonal one to a
power of either sign, by one sparse kernel.

Both the leading exponent and the orders at cusps come from one integer
formula, b(t, delta) = 6t^2 - 6t*delta + delta^2 = 6 delta^2 B(t/delta):
the leading numerator over 12N is sum_r k_r b(r, N) (`EtaQuotient.lead`,
read without expanding anything), and the order of the quotient at a
cusp (x : y) of X_1(N), in the local parameter, is

    width * sum_r k_r b(x*r mod delta, delta) / 12N,   delta = gcd(y, N),

that is width * delta^2 * B2~(x*r/delta) / (2N) per block, with B2~ the
1-periodic extension of B.  `order_over_12n` gives that order as the
integer pair (numerator, 12N), and `ord_at_cusp` checks integrality with
divmod; no `Fraction` is built anywhere.  The formula is cross-validated
three ways (product expansion at the infinity cusp, degree-0 divisors,
and the pinned pole orders at level 20), and against the Bernoulli
oracle on Fractions in the tests; a mismatch raises instead of being
patched over.
The level-20 certificate built from F_EXPONENTS and G_EXPONENTS lives in
`criteria`, which sits above this module.
"""

from math import isqrt
from operator import add, sub
from typing import NamedTuple

from .arith import check_positive, cusp_sum, ratio_text
from .cusps import GAMMA1, CuspClass, atlas, width
from .errors import (
    BadSpec,
    DivisorTooLarge,
    LevelMismatch,
    NotAFunction,
    RCongruentZero,
    TruncationTooLarge,
)

# Cost bounds of one expansion.  Work counts the updates of the `_power`
# passes of `quotient_series`: per pass, one per coefficient and sparse
# term plus one per coefficient.  On a 2-vCPU host with CPython 3.11 the
# slowest accepted expansions were negative blocks with short theta series,
# whose recurrence pays mostly per coefficient: 2.8 s for E_r^-1 over
# r <= 10^4 at level 20000 (384 terms), 1.7 s for E_1^-1500 at level 10^5
# (1332 terms).  At level 2 none took more than the 0.62 s of E_1^-5000
# (46 terms).  Work leaves out a few microseconds per block: 5 * 10^5 blocks
# took 3.2 s at one term.  The trivial quotient to MAX_TERMS took 0.02 s.
MAX_TERMS = 10**6
MAX_WORK = 4 * 10**6

# Cost bound of one cusp divisor in (cusp, block) pairs: the X_1(N) cusp
# count, read off its closed form, times the number of blocks E_r.  On a
# 2-vCPU host with CPython 3.11 a pair costs about 270 ns when the quotient
# is a function (a non-integral order ends the loop early): all 2499 blocks
# at level 4999, 1.25 * 10^7 pairs, took 3.1-4.0 s in process or as an
# `eta div` process with the bound lifted, and 1581 blocks at level 3163,
# just inside the bound, took 1.3-1.6 s as a process.
MAX_DIVISOR_PAIRS = 5 * 10**6


def b2_scaled(t: int, delta: int) -> int:
    """6t^2 - 6t*delta + delta^2, which is 6 delta^2 B(t/delta)."""
    return 6 * t * t - 6 * t * delta + delta * delta


class QSeries(NamedTuple):
    """Truncated series q^(lead/12N) * sum_j coeffs[j] q^j with coeffs[0] = 1.

    The series is exact for every exponent numerator (over denom = 12N)
    strictly below `truncation`, that is for the len(coeffs) whole q-steps
    from the leading exponent on.
    """

    level: int
    lead: int
    coeffs: tuple[int, ...]

    @property
    def denom(self) -> int:
        return 12 * self.level

    @property
    def truncation(self) -> int:
        return self.lead + self.denom * len(self.coeffs)


class EtaQuotient(NamedTuple):
    """A finite product prod E_r^(n_r) at one level, keyed by folded r."""

    level: int
    exponents: tuple[tuple[int, int], ...]

    @staticmethod
    def make(level: int, exponents: dict) -> "EtaQuotient":
        """The quotient prod E_r^(k_r) of the exponent map {r: k_r}, with r
        folded to min(r, N - r) mod N.  The level, each r and each k_r must
        be an int, not merely something int() accepts: it would truncate
        2.5 to 2 and read True as 1."""
        if not all(type(v) is int for v in (level, *exponents, *exponents.values())):
            raise BadSpec("the level and each exponent key and value must be ints")
        check_positive(level)
        folded: dict[int, int] = {}
        for r, k in exponents.items():
            if r % level == 0:
                raise RCongruentZero(f"r = {r} is 0 mod {level}")
            r = min(r % level, -r % level)
            folded[r] = folded.get(r, 0) + k
        folded = {r: k for r, k in folded.items() if k != 0}
        return EtaQuotient(level, tuple(sorted(folded.items())))

    @property
    def lead(self) -> int:
        """The leading exponent's numerator over 12N, sum_r k_r b(r, N)."""
        return sum(k * b2_scaled(r, self.level) for r, k in self.exponents)


def eta_series(n: int, r: int, terms: int | None = None) -> QSeries:
    """Truncated expansion of E_r at level N.

    `terms` counts whole q-steps kept beyond the leading exponent
    (default 10N).  The series for r and N - r coincide.
    """
    return quotient_series(EtaQuotient.make(n, {r: 1}), terms)


def check_terms(q: EtaQuotient, terms: int | None) -> int:
    """`terms` (default 10N), refused below 1 or when the expansion of q
    to that many whole q-steps passes the cost bound."""
    return _passes(q, terms)[0]


def _passes(q: EtaQuotient, terms: int | None):
    """`check_terms`'s terms, and the sparse series that `quotient_series`
    raises to powers: P on the q^N-subseries, and theta_r of each block."""
    n = q.level
    if terms is None:
        terms = 10 * n
    check_positive(terms, "terms")
    if terms > MAX_TERMS:
        raise TruncationTooLarge(f"{terms} terms exceed the cost bound {MAX_TERMS}")
    m = (terms - 1) // n + 1  # |k_r| passes over T for theta_r, |K| over m for P
    pentagonal = _theta(3, 1, m)
    thetas = [_theta(n, r, terms) for r, _ in q.exponents]
    work = terms * sum(abs(k) * (len(t) + 1) for (_, k), t in zip(q.exponents, thetas))
    work += m * abs(sum(k for _, k in q.exponents)) * (len(pentagonal) + 1)
    if work > MAX_WORK:
        raise TruncationTooLarge(f"{terms} terms cost {work} updates, past {MAX_WORK}")
    return terms, pentagonal, thetas


def _theta(n: int, r: int, terms: int) -> list[tuple[int, int]]:
    """(exponent, sign) of each term with exponent in (0, terms) of
    sum_j (-1)^j q^(N j(j-1)/2 + r j), j over all integers, for 0 < r < N.
    At r = N/2 the exponent is N j^2/2: the terms of j and -j share it,
    and both are listed."""
    top = isqrt(2 * terms // n) + 2  # past it N j(j-1)/2 >= terms
    return [
        (e, -1 if j % 2 else 1)
        for j in range(-top, top + 1)
        if 0 < (e := n * j * (j - 1) // 2 + r * j) < terms
    ]


def _power(c: list[int], sparse: list[tuple[int, int]], k: int) -> None:
    """Multiply the dense series c in place by (1 + sum t q^e)^k over the
    (e, t) pairs of `sparse`, e > 0 and t = +-1: for k > 0 by k dense
    slice passes per term, for k < 0 by -k runs of the recurrence
    c[i] -= sum t c[i - e], exact as the constant term is 1."""
    for _ in range(k):
        prev = c[:]
        for e, t in sparse:
            c[e:] = map(add if t > 0 else sub, c[e:], prev)
    for _ in range(-k):
        for i in range(1, len(c)):
            c[i] -= sum(t * c[i - e] for e, t in sparse if e <= i)


def quotient_series(q: EtaQuotient, terms: int | None = None) -> QSeries:
    """The product series of an eta quotient, exact for `terms` whole
    q-steps beyond its leading exponent (default 10N).

    By Jacobi's triple product E_r = theta_r / P(q^N), with theta_r the
    sparse series of `_theta` and P(x) = prod_m (1 - x^m) = theta_1 at
    level 3, Euler's pentagonal series.  So the quotient is P(q^N)^(-K)
    prod theta_r^(k_r) with K = sum k_r: `_power` raises P to -K on the
    q^N-subseries while nothing else is nonzero, then each theta_r to k_r.
    """
    n = q.level
    terms, pentagonal, thetas = _passes(q, terms)
    sub_series = [1] + [0] * ((terms - 1) // n)
    _power(sub_series, pentagonal, -sum(k for _, k in q.exponents))
    c = [0] * terms
    c[::n] = sub_series
    for (_, k), theta in zip(q.exponents, thetas):
        _power(c, theta, k)
    return QSeries(n, q.lead, tuple(c))


def order_over_12n(q: EtaQuotient, c: CuspClass) -> tuple[int, int]:
    """The order of q at c as an integer numerator over 12N, before the
    integrality check: the pair (numerator, 12N).  Non-integral values
    occur for products that are not functions on X_1(N)."""
    n = q.level
    if c.level != n or c.group != GAMMA1:
        raise LevelMismatch(f"cusp {c} is not an X_1({n}) class")
    delta = c.d
    total = sum(k * b2_scaled(c.x * r % delta, delta) for r, k in q.exponents)
    return width(c) * total, 12 * n


def ord_at_cusp(q: EtaQuotient, c: CuspClass) -> int:
    """Order of vanishing in the local parameter at a cusp of X_1(N)."""
    num, den = order_over_12n(q, c)
    order, rest = divmod(num, den)
    if rest:
        raise NotAFunction(
            f"order {ratio_text(num, den)} at {c} is not an integer; "
            f"not a function on X_1({q.level})"
        )
    return order


class CuspDivisor(NamedTuple):
    level: int
    orders: tuple[tuple[CuspClass, int], ...]

    def degree(self) -> int:
        return sum(o for _, o in self.orders)

    def pole_part(self) -> dict[CuspClass, int]:
        return {c: o for c, o in self.orders if o < 0}


def divisor(q: EtaQuotient) -> CuspDivisor:
    """Full cusp divisor; raises unless the total degree is zero.  Past
    `MAX_DIVISOR_PAIRS` it is refused before the atlas is built."""
    pairs = cusp_sum(q.level) // 2 * len(q.exponents)
    if pairs > MAX_DIVISOR_PAIRS:
        raise DivisorTooLarge(
            f"{pairs} (cusp, block) pairs at level {q.level} exceed the cost "
            f"bound {MAX_DIVISOR_PAIRS}"
        )
    entries = []
    total = 0
    for c in atlas(q.level, GAMMA1):
        o = ord_at_cusp(q, c)
        total += o
        if o != 0:
            entries.append((c, o))
    if total != 0:
        raise NotAFunction(
            f"divisor has degree {total}; not a modular function on X_1({q.level})"
        )
    return CuspDivisor(q.level, tuple(entries))


# ---------------------------------------------------------------------------
# The level-20 certificate's eta quotients: F and G have poles of order 3
# and 4 at the cusp (1 : 10) of X_1(20) and nowhere else.

F_EXPONENTS = {2: 1, 4: 2, 6: 2, 1: -2, 8: -1, 9: -2}
G_EXPONENTS = {3: 1, 4: 2, 5: 1, 6: 1, 7: 1, 1: -2, 8: -2, 9: -1, 10: -1}
