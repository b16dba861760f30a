"""Cusps of X_0(N) and X_1(N): canonical representatives, atlases, widths.

A cusp is a primitive pair (x : y) mod N, gcd(x, y, N) = 1.  Two pairs are
Gamma_1(N)-equivalent iff (x', y') = +-(x + j*y, y) mod N for some j; the
Gamma_0(N) classes additionally merge under (x, y) -> (u*x, u^-1*y) for
units u.  The invariants d = gcd(y, N) and e = gcd(d, N/d) are class
invariants; a cusp is irregular exactly when e > 1.
"""

from __future__ import annotations

from itertools import groupby
from math import gcd
from operator import attrgetter
from typing import NamedTuple

from .arith import (
    check_positive,
    cofactor_gcd,
    cusp_sum,
    divisors,
    normalize_residue,
    x0_cusp_count,
)
from .errors import AtlasTooLarge, NotCoprime, NotPrimitive

GAMMA0 = "gamma0"
GAMMA1 = "gamma1"

# Cost bound of the atlases: of the X_1(N) atlas in sum_{d | N} phi(d) phi(N/d),
# twice its cusp count, and of the X_0(N) atlas in its cusp count.  On a
# 2-vCPU host with CPython 3.11, `cusps --level N --gamma1` took 0.25-0.27 s
# and 35 MB at N = 10080 and 0.30 s and 37 MB at N = 49999 (sums 98304 and
# 99996), and `cusps --level 99991^2 --gamma0` (99992 cusps) took 0.50 s
# and 60 MB, each as a whole process.
MAX_CUSP_SUM = 10**5


class CuspClass(NamedTuple):
    """A cusp class; classes sort as their field tuples."""

    level: int
    group: str
    d: int
    y: int
    x: int
    e: int
    irregular: bool

    def key(self) -> str:
        return f"{self.x}:{self.y}"

    def to_json(self) -> dict:
        return {
            "x": self.x,
            "y": self.y,
            "d": self.d,
            "e": self.e,
            "irregular": self.irregular,
            "width": width(self),
        }

    def __str__(self) -> str:
        return f"({self.x}:{self.y})"


def _check_primitive(n: int, x: int, y: int) -> None:
    if gcd(gcd(x, y), n) != 1:
        raise NotPrimitive(f"gcd({x}, {y}, {n}) > 1")


def canonicalize_x1(n: int, x: int, y: int) -> CuspClass:
    """Canonical Gamma_1(N) representative of the cusp (x : y).

    Minimizes y over the sign choice (y normalized into 1..N, so the
    infinity-type classes carry y = N), then x over the translation
    orbit x + dZ; equals the minimum of the scanned congruence test
    (x', y') = +-(x + j*y, y).
    """
    check_positive(n)
    x %= n
    y = normalize_residue(y, n)
    _check_primitive(n, x, y)
    d = gcd(y, n)
    y, xc = min((y, x % d), (normalize_residue(-y, n), -x % d))
    e = gcd(d, n // d)
    return CuspClass(n, GAMMA1, d, y, xc, e, e > 1)


def _class_x0(n: int, x0: int, d: int) -> CuspClass:
    """Build the Gamma_0 class from the datum x0 mod e; the stored x is
    the smallest positive lift of x0 that is coprime to d."""
    e = gcd(d, n // d)
    x0 %= e
    rep = x0 if x0 > 0 else e
    while gcd(rep, d) != 1:
        rep += e
    return CuspClass(n, GAMMA0, d, d, rep, e, e > 1)


def canonicalize_x0(n: int, x: int, d: int) -> CuspClass:
    """Canonical Gamma_0(N) representative of the cusp (x : d), d | N.

    The class is x mod e; the stored x is the smallest positive lift
    coprime to d so the pair stays primitive.
    """
    cofactor_gcd(n, d)
    if gcd(x, d) != 1:
        raise NotCoprime(f"gcd({x}, {d}) > 1")
    return _class_x0(n, x, d)


def x0_class_of_pair(n: int, a: int, c: int) -> CuspClass:
    """Gamma_0(N) class of a cusp a/c given as a coprime integer pair."""
    if gcd(a, c) != 1:
        raise NotCoprime(f"gcd({a}, {c}) > 1")
    d = gcd(c, n)
    # c/d is a unit mod N/d; at d = N it is 0, which _class_x0 lifts to 1
    return _class_x0(n, a * (c % n // d), d)


def x0_image(c: CuspClass) -> CuspClass:
    """Image of a Gamma_1 class under X_1(N) -> X_0(N); the fibres are the
    orbits of all diamonds."""
    return _class_x0(c.level, c.x * (c.y // c.d), c.d)


def atlas(n: int, group: str = GAMMA1) -> tuple[CuspClass, ...]:
    """Complete duplicate-free cusp atlas of X_1(N) or X_0(N), sorted.

    The Gamma_1 atlas lists the fixed points of `canonicalize_x1` in order:
    d | N ascending, y = d*u (u a unit mod N/d) with y <= -y mod N, then the
    units x mod d, only those with x <= -x mod d when y = -y mod N.
    """
    check_positive(n)
    cusps = []
    if group == GAMMA1:
        if cusp_sum(n) > MAX_CUSP_SUM:  # before any work of order N
            raise AtlasTooLarge(f"X_1({n}) has more than {MAX_CUSP_SUM // 2} cusps")
        for d in divisors(n):
            m, e = n // d, gcd(d, n // d)
            xs = [x for x in range(d) if gcd(x, d) == 1]
            half = [x for x in xs if x <= (-x) % d]
            for y in range(d, n + 1, d):
                y_neg = normalize_residue(-y, n)
                if gcd(y // d, m) == 1 and y <= y_neg:
                    row = xs if y < y_neg else half
                    cusps += [CuspClass(n, GAMMA1, d, y, x, e, e > 1) for x in row]
    elif group == GAMMA0:
        if x0_cusp_count(n) > MAX_CUSP_SUM:
            raise AtlasTooLarge(f"X_0({n}) has more than {MAX_CUSP_SUM} cusps")
        for d in divisors(n):
            e = gcd(d, n // d)
            cusps += sorted(_class_x0(n, x, d) for x in range(e) if gcd(x, e) == 1)
    else:
        raise ValueError(f"unknown group tag {group!r}")
    return tuple(cusps)


def atlas_delta(delta) -> tuple[tuple[CuspClass, ...], ...]:
    """Cusps of X_Delta(N), N = delta.level, as diamond orbits of the
    sorted X_1(N) atlas, each a sorted tuple of atlas classes.

    A pair table, not a rebuild: in the model of `projection_image_size`,
    [a] sends the class (x : y) with invariant d to (a*x mod d : a^-1*y),
    so a d-bucket indexed by both signs of its pairs holds every image, and
    an orbit is the classes at the distinct pairs (a mod d, a^-1 mod N/e),
    a in Delta.  The first class not yet seen is the least member of its
    orbit, so orbits come sorted."""
    n, orbits = delta.level, []
    for d, bucket in groupby(atlas(n, GAMMA1), key=attrgetter("d")):
        bucket, index, seen = list(bucket), {}, set()
        for i, c in enumerate(bucket):
            index[c.x, c.y % n] = index[-c.x % d, -c.y % n] = i
        lcm = n // bucket[0].e  # lcm(d, N/d): [a] acts through a mod N/e
        pairs = [(r % d, pow(r, -1, lcm)) for r in {a % lcm for a in delta.elements}]
        for i, c in enumerate(bucket):
            if i not in seen:
                orbit = sorted({index[s * c.x % d, t * c.y % n] for s, t in pairs})
                seen.update(orbit)
                orbits.append(tuple(bucket[j] for j in orbit))
    return tuple(orbits)


# ---------------------------------------------------------------------------
# Coprime lifts and widths


def lift_to_coprime(n: int, x: int, y: int) -> tuple[int, int]:
    """Integer pair (a, c) = (x, y) mod n with gcd(a, c) = 1 and c = y in 1..N."""
    c = normalize_residue(y, n)
    a = x % n
    while gcd(a, c) != 1:
        a += n
    return a, c


def width(c: CuspClass) -> int:
    """Width h of the cusp on its group, at its level: with d = gcd(y, N),
    h = N/gcd(d^2, N) on Gamma_0(N) and h = N/d on Gamma_1(N).  The one
    exception is the classically irregular cusp (1 : 2) of X_1(4): width 1,
    with sigma T sigma^-1 in -Gamma_1(4) only (Diamond-Shurman, GTM 228,
    section 3.8).
    """
    n = c.level
    if c.group == GAMMA0:
        return n // gcd(c.d * c.d, n)
    if n == 4 and c.d == 2:
        return 1
    return n // c.d
