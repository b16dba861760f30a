"""The Atkin-Lehner maps W_Q on cusps, and the orbits of the X_1(N)
atlas under them and all diamonds.

The diamond [a] sends (x : y) to (a*x : a^-1*y); its orbits, and so the
cusps it fixes, are read off `cusps.atlas_delta`.  W_Q is realized by an
integer matrix (Qx, y; Nz, Qw) of determinant Q; on X_0(N) classes the
induced map does not depend on the matrix choice, on X_1(N) classes it is
pinned down by the canonical matrix (Q*alpha, beta; N, Q) of
`act_atkin_lehner`, with alpha the least nonnegative inverse of Q mod N/Q.
Different valid matrices differ by a diamond, and the diamond orbits are
the fibres of X_1(N) -> X_0(N), which each W_Q maps to fibres; so the
orbits are preimages of W_Q-orbits of X_0(N) cusps, whatever the matrices.
"""

from math import gcd
from typing import NamedTuple

from .arith import divisors, unit_group_generators
from .cusps import (
    GAMMA0,
    GAMMA1,
    CuspClass,
    atlas,
    canonicalize_x0,
    canonicalize_x1,
    lift_to_coprime,
)
from .errors import NotExactDivisor


def act_atkin_lehner(q: int, c: CuspClass) -> CuspClass:
    """Fractional-linear image of a cusp class under W_Q, Q an exact
    divisor of the class's level N, through the matrix (Q*alpha, beta; N, Q)
    with alpha = Q^-1 mod N/Q and beta = (Q*alpha - 1) / (N/Q): its
    determinant Q*alpha*Q - beta*N is Q for every Q."""
    n = c.level
    if q < 1 or n % q != 0 or gcd(q, n // q) != 1:
        raise NotExactDivisor(f"{q} is not an exact divisor of {n}")
    m = n // q
    alpha = pow(q, -1, m)  # 0 when m = 1
    beta = (q * alpha - 1) // m
    a0, c0 = lift_to_coprime(n, c.x, c.y)
    a1, c1 = q * alpha * a0 + beta * c0, n * a0 + q * c0
    g = gcd(a1, c1)
    canonicalize = canonicalize_x0 if c.group == GAMMA0 else canonicalize_x1
    return canonicalize(n, a1 // g, c1 // g)


def exact_divisors(n: int) -> list[int]:
    return [q for q in divisors(n) if gcd(q, n // q) == 1]


class OrbitReport(NamedTuple):
    level: int
    generators: tuple[str, ...]
    normalizer_possibly_incomplete: bool
    orbits: tuple[tuple[CuspClass, ...], ...]


def cusp_orbits_x1(n: int) -> OrbitReport:
    """Partition of the X_1(N) atlas under all diamonds and all W_Q, as the
    preimages of W_Q-orbits of X_0(N) cusps.  On X_0(N) the W_Q form a
    group, so one class and its W_Q-images make up its orbit.

    These generate the full normalizer action except for N = 4, which is
    flagged rather than patched.
    """
    cusps = atlas(n, GAMMA1)  # refuses oversized levels before the O(N) work
    diamond_gens = unit_group_generators(n)
    qs = [q for q in exact_divisors(n) if q > 1]
    gen_names = tuple([f"[{a}]" for a in diamond_gens] + [f"W_{q}" for q in qs])

    # an X_0(N) class is fixed by (d, x0 mod e), the datum canonicalize_x0
    # stores; the X_1 class (x : y) lies over (d, x*(y/d) mod e)
    label: dict[tuple[int, int], tuple[int, int]] = {}
    for c0 in atlas(n, GAMMA0):
        key = c0.d, c0.x % c0.e
        if key not in label:
            for img in [c0] + [act_atkin_lehner(q, c0) for q in qs]:
                label[img.d, img.x % img.e] = key
    orbits: dict[tuple[int, int], list[CuspClass]] = {}  # sorted, as the atlas is
    for c in cusps:
        orbits.setdefault(label[c.d, c.x * (c.y // c.d) % c.e], []).append(c)
    return OrbitReport(n, gen_names, n == 4, tuple(tuple(orb) for orb in orbits.values()))
