"""Exact arithmetic mod N: factorizations, totients, divisors, and
subgroups of (Z/NZ)*.

`factorize` works by trial division up to `MAX_LEVEL`.  Everything else
that depends on N only through its primes is read off a factorization:
totients, divisors, the units (a sieve) and the cusp counts `cusp_sum`
and `x0_cusp_count` (closed forms per prime power).

`check_positive` is the one check that an integer (a level, a worker
count or a number of terms) is at least 1, and `check_level` the one
check of the factorization bound.  `cofactor_gcd` is the one check that d
divides N: every function of (N, d) calls it and reads e = gcd(d, N/d)
off it, and `irregular_e` adds the one check that e > 1 for those that
need an irregular bucket.

Residues are normalized to 1..N, so the trivial groups mod 1 and mod 2
collapse to {1} and no downstream formula needs a special case.  Everything
here is integer arithmetic; no floats.  An exact rational is an integer
numerator over a known denominator, and `ratio_text` writes it.
"""

from functools import lru_cache
from itertools import compress
from math import gcd, prod

from .errors import (
    LevelTooLarge,
    NonUnitGenerator,
    NotADivisor,
    NotIrregular,
    NotPositive,
    UnitGroupTooLarge,
)

# Largest level `factorize` accepts, checked before any trial division.  The
# worst case is the largest prime within the bound, 999999999989: trial
# division up to its square root took 0.10 s on a 2-vCPU host with CPython
# 3.11 (0.31 s at the largest prime below 10^13).
MAX_LEVEL = 10**12

# Cost bound of (Z/NZ)* in phi(N), checked before the units are listed.
# `genus --level N --gamma0` sieves 1..N in `units(N)`, then spans and sorts
# the phi(N) units.  At 94710, the largest level within the bound, and at
# 92400 (phi 19200 each) it took 17 ms in `cli.run` and 68 ms and 18 MB as
# a process (medians, 2-vCPU host, CPython 3.11).
# `DeltaSubgroup` holds every subgroup it spans to the same size.
MAX_UNITS = 2 * 10**4

# Largest n whose units `units` lists, checked before its sieve allocates
# one byte per residue in 1..n.  The CLI passes it at most 99991 (the x0's
# of `cusps --level 9998200081 --gamma0`).  At 999983, the largest prime
# within the bound, it took 40 ms and 40 MB (median, 2-vCPU host, CPython
# 3.11); at 10^6 itself 35 ms.
MAX_SIEVE = 10**6


def normalize_residue(a: int, n: int) -> int:
    """Reduce a into 1..n (the residue 0 is stored as n)."""
    r = a % n
    return r if r != 0 else n


def ratio_text(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den >= 1, from integers: num/den in
    lowest terms, or the integer alone when den divides num.  gcd is never
    negative, so the sign stays on the numerator."""
    g = gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"


def check_positive(n: int, name: str = "level") -> None:
    """Refuse n below 1, with NotPositive naming n as `name`: the one
    at-least-1 check, of a level, `--jobs` or `--terms`."""
    if n < 1:
        raise NotPositive(f"{name} must be at least 1, got {n}")


def check_level(n: int) -> None:
    """Refuse n past MAX_LEVEL, before anything trial-divides it."""
    if n > MAX_LEVEL:
        raise LevelTooLarge(f"{n} is past the factorization bound {MAX_LEVEL}")


def cofactor_gcd(n: int, d: int) -> int:
    """e = gcd(d, N/d) for a divisor d of N; raises unless N >= 1 and d | N,
    d >= 1."""
    check_positive(n)
    if d < 1 or n % d != 0:
        raise NotADivisor(f"{d} does not divide {n}")
    return gcd(d, n // d)


def irregular_e(n: int, d: int) -> int:
    """e = gcd(d, N/d) of an irregular bucket d | N; raises unless e > 1."""
    e = cofactor_gcd(n, d)
    if e == 1:
        raise NotIrregular(f"(N, d) = ({n}, {d}) has e = 1")
    return e


# The package's one cache: a command reads one level's primes many times,
# and `verdict x0 --p 999983 --m 1` trial-divides p^2 M to about 10^6 for
# `g0`, then reads it again there.  Everything else is recomputed per call.
@lru_cache(maxsize=8192)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization ((p, exponent), ...) by trial division."""
    check_positive(n)
    check_level(n)
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            out.append((p, k))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def totient(n: int) -> int:
    """Euler phi(n); phi(1) = 1 by convention."""
    out = n
    for p, _ in factorize(n):
        out = out // p * (p - 1)
    return out


def _cusp_sum_pp(p: int, a: int) -> int:
    """sum_b phi(p^b) phi(p^(a-b)) for a >= 1: the ends b = 0, a give
    p^(a-1)(p-1) each, the a-1 inner terms p^(a-2)(p-1)^2 each."""
    end = p ** (a - 1) * (p - 1)
    return 2 * end + (a - 1) * (end // p) * (p - 1)


def _x0_cusp_count_pp(p: int, a: int) -> int:
    """sum_b phi(p^min(b, a-b)) for a >= 1: 2 p^k at a = 2k + 1, and
    p^(k-1)(p+1) at a = 2k, since phi(1) + ... + phi(p^(k-1)) = p^(k-1)."""
    k = a // 2
    return 2 * p**k if a % 2 else p ** (k - 1) * (p + 1)


def cusp_sum(n: int) -> int:
    """sum over d | n of phi(d) phi(n/d): twice the cusp count of X_1(n), n >= 5."""
    return prod(_cusp_sum_pp(p, a) for p, a in factorize(n))


def x0_cusp_count(n: int) -> int:
    """sum over d | n of phi(gcd(d, n/d)): the cusp count of X_0(n)."""
    return prod(_x0_cusp_count_pp(p, a) for p, a in factorize(n))


def divisors(n: int) -> list[int]:
    """All divisors of n in increasing order."""
    out = [1]
    for p, a in factorize(n):
        out = [d * p**k for d in out for k in range(a + 1)]
    return sorted(out)


def units(n: int) -> list[int]:
    """The units of Z/nZ in 1..n, ascending: 1..n less each prime's
    multiples.  n below 1 or past MAX_SIEVE is refused before anything is
    allocated or factored."""
    check_positive(n)
    if n > MAX_SIEVE:
        raise UnitGroupTooLarge(f"the units mod {n} would sieve {n} residues, past {MAX_SIEVE}")
    alive = bytearray(b"\0" + b"\1" * n)
    for p, _ in factorize(n):
        alive[p::p] = bytes(n // p)
    return list(compress(range(n + 1), alive))


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == ((n, 1),)


def _span(n: int, gens, limit: int) -> tuple[list[int], list[int]]:
    """The subgroup of (Z/nZ)* generated by gens, residues in 1..n, 1
    first, and the generators kept: those not already in the span of the
    ones before.

    Each generator g not yet in the span H adds the cosets H*g^j for
    0 < j < k, where g^k is the first power back in H; (Z/nZ)* is abelian,
    so the union is <H, g>.  Every element is made once, so the cost is
    O(|span|) plus one membership test per generator.  A kept generator
    that is not a unit raises NonUnitGenerator.  A span that passes
    `limit` elements raises UnitGroupTooLarge as soon as a power shows it,
    before the cosets are built.
    """
    one = normalize_residue(1, n)
    span, seen, kept = [one], {one}, []
    for g in gens:
        if g in seen:
            continue
        if gcd(g, n) != 1:
            raise NonUnitGenerator(f"generator {g % n} shares a factor with {n}")
        kept.append(g)
        powers, x = [], g
        while x not in seen:
            powers.append(x)
            if len(span) * (len(powers) + 1) > limit:
                raise UnitGroupTooLarge(
                    f"the subgroup of (Z/{n}Z)* has more than {limit} elements"
                )
            x = x * g % n or n
        new = [h * x % n or n for x in powers for h in span]
        seen.update(new)
        span += new
    return span, kept


class DeltaSubgroup:
    """The subgroup of (Z/NZ)* generated by -1 and gens, with sorted
    element tuple.

    The generators are read mod N and spanned once (see `_span`), which
    refuses a non-unit and a span past `MAX_UNITS` elements: every instance
    is a subgroup containing -1 by construction.  Equality and hash use the
    level and the elements only; `members` is the same set, kept for
    membership tests.  The slots are set once in __init__ through
    object.__setattr__ and are read-only afterwards.
    """

    __slots__ = ("level", "elements", "members")

    def __init__(self, level: int, gens=()):
        n = level
        check_positive(n)
        gens = [normalize_residue(g, n) for g in (-1, *sorted({g % n for g in gens}))]
        span, _ = _span(n, gens, MAX_UNITS)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "elements", tuple(sorted(span)))
        object.__setattr__(self, "members", frozenset(span))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not DeltaSubgroup:
            return NotImplemented
        return self.level == other.level and self.elements == other.elements

    def __hash__(self) -> int:
        return hash((self.level, self.elements))

    def __repr__(self) -> str:
        return f"DeltaSubgroup(level={self.level!r}, gens={self.elements!r})"

    def __len__(self) -> int:
        return len(self.elements)


def pm_one(n: int) -> DeltaSubgroup:
    """The subgroup {+-1}: the Delta giving X_1(N)."""
    return DeltaSubgroup(n)


def full_units(n: int) -> DeltaSubgroup:
    """All of (Z/nZ)*: the Delta giving X_0(N)."""
    if totient(n) > MAX_UNITS:  # before the O(N) listing
        raise UnitGroupTooLarge(f"(Z/{n}Z)* has more than {MAX_UNITS} units")
    return DeltaSubgroup(n, units(n))


def delta_d(n: int, d: int) -> DeltaSubgroup:
    """Units congruent to +-1 mod N/e, where e = gcd(d, N/d).

    These are exactly the diamond operators fixing every cusp whose
    denominator invariant is d.  With m = N/e, e^2 | N puts m^2 in NZ, so
    (1 + m)^k = 1 + k*m mod N: the units = 1 mod m are the cyclic group
    generated by 1 + m, and Delta_d = <-1, 1 + m>.  It has 2e elements
    once m > 2, and a d with 2e past `MAX_UNITS` is refused before any is
    listed.
    """
    e = cofactor_gcd(n, d)
    if 2 * e > MAX_UNITS:
        raise UnitGroupTooLarge(
            f"Delta_{d} of level {n} has {2 * e} elements, past {MAX_UNITS}"
        )
    return DeltaSubgroup(n, (1 + n // e,))


def projection_image_size(d: int, delta: DeltaSubgroup) -> int:
    """|pi_d(Delta)|, the size of the image of Delta in (Z/LZ)*, where
    L = lcm(d, N/d) = N/e, e = gcd(d, N/d) and N = delta.level: |Delta|
    over t = |Delta meet K_d|, where K_d = {1 + j*L : 0 <= j < e} is the
    kernel of reduction mod L (each 1 + j*L is a unit, since L has every
    prime of N).

    t is read off the prime powers p^a || e in sum(a) <= log2(e)
    membership tests.  Since e^2 | N, L^2 lies in NZ, so (1 + L)^j =
    1 + j*L mod N: K_d is cyclic of order e, generated by 1 + L, and
    Delta meet K_d is its one subgroup of order t | e.  For each p^a || e
    and 1 <= b <= a, the element 1 + (e/p^b)*L = 1 + N/p^b (already in
    1..N) has order p^b, so it lies in that subgroup exactly when p^b | t.
    The p-part of t is therefore p to the number of such b with
    1 + N/p^b in Delta.

    The cusps of X_Delta(N) rest on it.  The X_1(N) cusps with invariant
    d are the unit pairs (x mod d, y/d mod N/d) up to a common sign, and
    [a] sends (x, u) to (a*x, a^-1*u): it acts through a mod L, fixing
    all of them when a = +-1 mod L and none otherwise.  So each
    Delta-orbit among them has |pi_d(Delta)| / |{+-1 mod L}| members, and
    they form phi(d) phi(N/d) / |pi_d(Delta)| orbits, an integer since
    phi(d) phi(N/d) = phi(L) phi(e).
    """
    n = delta.level
    t = 1
    for p, a in factorize(cofactor_gcd(n, d)):
        t *= p ** sum(1 + n // p**b in delta.members for b in range(1, a + 1))
    return len(delta) // t


def unit_group_generators(n: int) -> list[int]:
    """A small generating set of (Z/nZ)* (with -1 adjoined), found greedily:
    each unit, in increasing order, not yet in the span of -1 and the
    units kept before it."""
    # `units` refuses N past MAX_SIEVE before it allocates, and the span is
    # bounded by phi(N), which no span passes
    gens = units(n)  # refuses N < 1 before -1 is reduced mod N
    _, kept = _span(n, [normalize_residue(-1, n), *gens], totient(n))
    return kept[1:]  # -1 comes first, and is kept unless it is 1 (N <= 2)
