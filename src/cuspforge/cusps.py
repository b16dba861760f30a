"""Cusps of X_0(N) and X_1(N): canonical representatives, atlases, widths.

A cusp is a primitive pair (x : y) mod N, gcd(x, y, N) = 1.  Two pairs are
Gamma_1(N)-equivalent iff (x', y') = +-(x + j*y, y) mod N for some j; the
Gamma_0(N) classes additionally merge under (x, y) -> (u*x, u^-1*y) for
units u.  The invariants d = gcd(y, N) and e = gcd(d, N/d) are class
invariants; a cusp is irregular exactly when e > 1.
"""

from itertools import groupby
from math import gcd
from operator import attrgetter
from typing import NamedTuple

from .arith import (
    check_positive,
    cusp_sum,
    divisors,
    normalize_residue,
    units,
    x0_cusp_count,
)
from .errors import AtlasTooLarge, NotPrimitive

GAMMA0 = "gamma0"
GAMMA1 = "gamma1"

# Cost bound of the atlases: of the X_1(N) atlas in sum_{d | N} phi(d) phi(N/d),
# twice its cusp count, and of the X_0(N) atlas in its cusp count.  On a
# 2-vCPU host with CPython 3.11, `cusps --level N --gamma1` took 0.21 s and
# 28 MB at N = 10080 and 0.27 s and 30 MB at N = 49999 (sums 98304 and
# 99996), and `cusps --level 99991^2 --gamma0` (99992 cusps) took 0.54 s
# and 48 MB, each as a whole process.
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

    def __str__(self) -> str:
        return f"({self.x}:{self.y})"


def _reduced(n: int, x: int, y: int) -> tuple[int, int, int]:
    """(x mod N, y in 1..N, d = gcd(y, N)) of the pair (x : y), refused
    unless N >= 1 and the pair is primitive."""
    check_positive(n)
    x, y = x % n, normalize_residue(y, n)
    if gcd(gcd(x, y), n) != 1:
        raise NotPrimitive(f"gcd({x}, {y}, {n}) > 1")
    return x, y, gcd(y, n)


def canonicalize_x1(n: int, x: int, y: int) -> CuspClass:
    """Canonical Gamma_1(N) representative of the cusp (x : y).

    Minimizes y over the sign choice (y normalized into 1..N, so the
    infinity-type classes carry y = N), then x over the translation
    orbit x + dZ; equals the minimum of the scanned congruence test
    (x', y') = +-(x + j*y, y).
    """
    x, y, d = _reduced(n, x, y)
    y, xc = min((y, x % d), (normalize_residue(-y, n), -x % d))
    e = gcd(d, n // d)
    return CuspClass(n, GAMMA1, d, y, xc, e, e > 1)


def _class_x0(n: int, x0: int, d: int) -> CuspClass:
    """Build the Gamma_0 class from the datum x0 mod e; the stored x is
    the smallest positive lift of x0 that is coprime to d."""
    e = gcd(d, n // d)
    rep = normalize_residue(x0, e)
    while gcd(rep, d) != 1:
        rep += e
    return CuspClass(n, GAMMA0, d, d, rep, e, e > 1)


def canonicalize_x0(n: int, x: int, y: int) -> CuspClass:
    """Canonical Gamma_0(N) representative of the cusp (x : y).

    With d = gcd(y, N), a unit u = y/d mod N/d sends the pair to
    (u*x : u^-1*y) = (u*x : d); the class is u*x = x*(y/d) mod
    e = gcd(d, N/d), stored as its smallest positive lift coprime to d so
    the pair stays primitive.
    """
    x, y, d = _reduced(n, x, y)
    return _class_x0(n, x * (y // d), d)


def atlas(n: int, group: str = GAMMA1) -> tuple[CuspClass, ...]:
    """Complete duplicate-free cusp atlas of X_1(N) or X_0(N), sorted.

    The Gamma_1 atlas lists the fixed points of `canonicalize_x1` in order:
    d | N ascending, y = d*u for u in `units(N/d)` with y <= -y mod N, then
    x in `units(d)` mod d, only those with x <= -x mod d when y = -y mod N.
    Since -y = d*(-u) mod N, y <= -y mod N reads u <= -u, both mod N/d.
    """
    check_positive(n)
    cusps = []
    if group == GAMMA1:
        if cusp_sum(n) > MAX_CUSP_SUM:  # before any work of order N
            raise AtlasTooLarge(f"X_1({n}) has more than {MAX_CUSP_SUM // 2} cusps")
        for d in divisors(n):
            m, e = n // d, gcd(d, n // d)
            xs = [x % d for x in units(d)]
            for u in units(m):
                if u % m <= -u % m:
                    row = xs if u % m < -u % m else [x for x in xs if x <= -x % d]
                    cusps += [CuspClass(n, GAMMA1, d, d * u, x, e, e > 1) for x in row]
    elif group == GAMMA0:
        if x0_cusp_count(n) > MAX_CUSP_SUM:
            raise AtlasTooLarge(f"X_0({n}) has more than {MAX_CUSP_SUM} cusps")
        for d in divisors(n):
            cusps += sorted(_class_x0(n, x, d) for x in units(gcd(d, n // d)))
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
    """Integer pair (a, c) = (x, y) mod n with gcd(a, c) = 1 and c = y in
    1..N, read through `_reduced`: a pair that is not primitive has none."""
    a, c, _ = _reduced(n, x, y)
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
