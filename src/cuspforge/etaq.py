"""Generalized eta building blocks, exact q-series, and cusp divisors.

The block for residue r at level N is

    E_r = q^(N*B(r/N)/2) * prod_{m>=1} (1 - q^((m-1)N + r)) (1 - q^(mN - r)),

with B(x) = x^2 - x + 1/6.  Exponents live on the lattice (1/12N)Z, so a
series is stored as a map from exponent numerator (over 12N) to an exact
coefficient.  Only the leading exponent is ever fractional: the tail of
every E_r moves in whole q-steps.

The order of E_r at a cusp (x : y) of X_1(N), in the local parameter, is

    width * delta^2 * B2~(x*r/delta) / (2N),   delta = gcd(y, N),

with B2~ the 1-periodic extension of B.  The formula is cross-validated
three ways (product expansion at the infinity cusp, degree-0 divisors,
and the pinned pole orders at level 20); a mismatch raises instead of
being patched over.  The level-20 certificate built from F_EXPONENTS and
G_EXPONENTS lives in `criteria`, which sits above this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd

from .cusps import GAMMA1, CuspClass, atlas, width_and_stabilizer_sign
from .errors import (
    DomainError,
    LevelMismatch,
    NotAFunction,
    RCongruentZero,
    TruncationTooSmall,
)


def bernoulli2(x) -> Fraction:
    """B(x) = x^2 - x + 1/6."""
    x = Fraction(x)
    return x * x - x + Fraction(1, 6)


def periodic_bernoulli2(x) -> Fraction:
    """The 1-periodic extension of B, evaluated at the fractional part."""
    x = Fraction(x)
    return bernoulli2(x - (x.numerator // x.denominator))


def _norm_coeff(v):
    if isinstance(v, Fraction) and v.denominator == 1:
        return int(v)
    return v


@dataclass(frozen=True)
class QSeries:
    """Truncated series with exponents n/denom, denom = 12N.

    coeffs maps exponent numerators to exact coefficients; the series is
    exact for every exponent numerator strictly below `truncation`.
    """

    level: int
    denom: int
    coeffs: dict
    truncation: int

    def leading(self) -> tuple[Fraction, object] | None:
        if not self.coeffs:
            return None
        k = min(self.coeffs)
        return Fraction(k, self.denom), self.coeffs[k]

    def leading_exponent(self) -> Fraction:
        lead = self.leading()
        if lead is None:
            raise DomainError("zero series has no leading exponent")
        return lead[0]

    def _lead_num(self) -> int:
        return min(self.coeffs) if self.coeffs else self.truncation

    def __mul__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        if self.level != other.level:
            raise LevelMismatch("series at different levels")
        bound = min(
            self.truncation + other._lead_num(),
            other.truncation + self._lead_num(),
        )
        out: dict = {}
        for k1, v1 in self.coeffs.items():
            for k2, v2 in other.coeffs.items():
                t = k1 + k2
                if t < bound:
                    out[t] = out.get(t, 0) + v1 * v2
        out = {k: _norm_coeff(v) for k, v in out.items() if v != 0}
        return QSeries(self.level, self.denom, out, bound)

    def inverse(self) -> "QSeries":
        if not self.coeffs:
            raise DomainError("cannot invert the zero series")
        alpha = min(self.coeffs)
        window = self.truncation - alpha
        if window <= 0:
            raise TruncationTooSmall("no terms survive below the truncation")
        c0 = Fraction(self.coeffs[alpha])
        offsets = sorted(k - alpha for k in self.coeffs if k != alpha)
        step = reduce(gcd, offsets, window)
        inv = {0: 1 / c0}
        for t in range(step, window, step):
            acc = Fraction(0)
            for o in offsets:
                if o > t:
                    break
                if t - o in inv:
                    acc += Fraction(self.coeffs[alpha + o]) * inv[t - o]
            if acc:
                inv[t] = -acc / c0
        out = {-alpha + t: _norm_coeff(v) for t, v in inv.items() if v != 0}
        return QSeries(self.level, self.denom, out, self.truncation - 2 * alpha)

    def __pow__(self, k: int) -> "QSeries":
        if k < 0:
            return self.inverse() ** (-k)
        result = QSeries(self.level, self.denom, {0: 1}, self.truncation)
        for _ in range(k):
            result = result * self
        return result

    def to_json(self) -> dict:
        def enc(v):
            return v if isinstance(v, int) else str(v)

        lead = self.leading()
        return {
            "level": self.level,
            "denom": self.denom,
            "truncation": self.truncation,
            "leading_exponent": str(lead[0]) if lead else None,
            "coeffs": {str(k): enc(v) for k, v in sorted(self.coeffs.items())},
        }


def default_terms(n: int) -> int:
    return 10 * n


def eta_series(n: int, r: int, terms: int | None = None) -> QSeries:
    """Truncated expansion of E_r at level N.

    `terms` counts whole q-steps kept beyond the leading exponent
    (default 10N).  The series for r and N - r coincide, so r is folded
    into 1..N/2 internally.
    """
    if n < 1:
        raise DomainError("level must be positive")
    if r % n == 0:
        raise RCongruentZero(f"r = {r} is 0 mod {n}")
    if terms is None:
        terms = default_terms(n)
    if terms < 1:
        raise TruncationTooSmall("need at least one term")
    r %= n
    r = min(r, n - r)
    denom = 12 * n
    lead = 6 * r * r - 6 * r * n + n * n  # 12N * (N*B(r/N)/2)
    bound = lead + denom * terms
    coeffs = {lead: 1}
    exps = []
    m = 1
    while (m - 1) * n + r <= terms or m * n - r <= terms:
        exps += [(m - 1) * n + r, m * n - r]
        m += 1
    for e in exps:
        if e > terms:
            continue
        shift = denom * e
        for k in sorted(coeffs, reverse=True):
            t = k + shift
            if t < bound:
                v = coeffs.get(t, 0) - coeffs[k]
                if v:
                    coeffs[t] = v
                else:
                    coeffs.pop(t, None)
    return QSeries(n, denom, coeffs, bound)


@dataclass(frozen=True)
class EtaQuotient:
    """A finite product prod E_r^(n_r) at one level, keyed by folded r."""

    level: int
    exponents: tuple[tuple[int, int], ...]

    @staticmethod
    def make(level: int, exponents: dict) -> "EtaQuotient":
        folded: dict[int, int] = {}
        for r, k in exponents.items():
            r = int(r) % level
            if r == 0:
                raise RCongruentZero(f"exponent key is 0 mod {level}")
            r = min(r, level - r)
            folded[r] = folded.get(r, 0) + int(k)
        folded = {r: k for r, k in folded.items() if k != 0}
        return EtaQuotient(level, tuple(sorted(folded.items())))

    def exponent_map(self) -> dict[int, int]:
        return dict(self.exponents)

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "exponents": {str(r): k for r, k in self.exponents},
        }


def quotient_series(q: EtaQuotient, terms: int | None = None) -> QSeries:
    """The product series of an eta quotient, exact to the truncation."""
    n = q.level
    if terms is None:
        terms = default_terms(n)
    result = QSeries(n, 12 * n, {0: 1}, 12 * n * terms)
    for r, k in q.exponents:
        result = result * (eta_series(n, r, terms) ** k)
    return result


def ord_at_cusp_exact(q: EtaQuotient, c: CuspClass) -> Fraction:
    """Order at a cusp as an exact rational, before the integrality check.

    Non-integral values occur for products that are not functions on
    X_1(N); they are still useful for cross-validating the formula.
    """
    n = q.level
    if c.level != n or c.group != GAMMA1:
        raise LevelMismatch(f"cusp {c} is not an X_1({n}) class")
    delta = c.d
    total = Fraction(0)
    for r, k in q.exponents:
        total += k * periodic_bernoulli2(Fraction(c.x * r, delta))
    width, _ = width_and_stabilizer_sign(n, GAMMA1, c)
    return Fraction(width * delta * delta, 2 * n) * total


def ord_at_cusp(q: EtaQuotient, c: CuspClass) -> int:
    """Order of vanishing in the local parameter at a cusp of X_1(N)."""
    order = ord_at_cusp_exact(q, c)
    if order.denominator != 1:
        raise NotAFunction(
            f"order {order} at {c} is not an integer; not a function on X_1({q.level})"
        )
    return int(order)


@dataclass(frozen=True)
class CuspDivisor:
    level: int
    orders: tuple[tuple[CuspClass, int], ...]

    def degree(self) -> int:
        return sum(o for _, o in self.orders)

    def pole_part(self) -> dict[CuspClass, int]:
        return {c: o for c, o in self.orders if o < 0}

    def zero_part(self) -> dict[CuspClass, int]:
        return {c: o for c, o in self.orders if o > 0}

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "orders": [
                {"cusp": c.key(), "d": c.d, "order": o} for c, o in self.orders
            ],
            "degree": self.degree(),
        }


def divisor(q: EtaQuotient) -> CuspDivisor:
    """Full cusp divisor; raises unless the total degree is zero."""
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
