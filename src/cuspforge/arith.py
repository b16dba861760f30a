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

Every subgroup the verdicts build is Delta_L = {a : a = +-1 mod L}, L | N
(Diamond-Shurman, GTM 228, 3.1): `full_units` is L = 1, `pm_one` L = N and
`delta_d` L = N/e, held by L alone with closed forms; others are spanned.

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

# Cost bound on the elements a subgroup of (Z/NZ)* lists, checked before
# any is listed.  `genus --level N --gamma0` prints the phi(N) units.  At
# 94710, the largest level within the bound, and at 92400 (phi 19200 each)
# it took 7 and 9 ms in `cli.run` and 92 ms and 17 MB as a process
# (medians, 2-vCPU host, CPython 3.11).  A span is held to the same size.
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
    """A subgroup of (Z/NZ)* containing -1.  `DeltaSubgroup(N, gens)` spans
    -1 and gens mod N (see `_span`) and keeps the elements; `_congruence`
    holds Delta_L by L alone and lists `elements` on first read.  `len` and
    `in` never list.  Equality reads the level, the order and membership,
    the hash the level and the order.  The slots are read-only once set."""

    __slots__ = ("level", "_modulus", "_order", "_members", "_elements")

    def __init__(self, level: int, gens=()):
        n = level
        check_positive(n)
        gens = [normalize_residue(g, n) for g in (-1, *sorted({g % n for g in gens}))]
        span, _ = _span(n, gens, MAX_UNITS)
        self._fill(level, None, len(span), frozenset(span), tuple(sorted(span)))

    def _fill(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @property
    def elements(self) -> tuple[int, ...]:
        """Ascending; a congruence group lists them on first read, and
        refuses past `MAX_UNITS`."""
        if self._elements is not None:
            return self._elements
        n, m, order = self.level, self._modulus, self._order
        if order > MAX_UNITS:
            group = f"(Z/{n}Z)*" if order == totient(n) else f"Delta_{m} of level {n}"
            raise UnitGroupTooLarge(f"{group} has more than {MAX_UNITS} units")
        if m > 2 and all(m % p == 0 for p, _ in factorize(n)):  # +-1 + k*m are units
            listed = tuple(a for k in range(0, n, m) for a in (k + 1, k + m - 1))
        else:
            listed = tuple(a for a in units(n) if a % m in (1, m - 1))
        object.__setattr__(self, "_elements", listed)
        return listed

    def __contains__(self, a: int) -> bool:
        m = self._modulus
        if m is None:
            return a in self._members
        return gcd(a, self.level) == 1 and a % m in (1, m - 1)

    def __eq__(self, other):
        if type(other) is not DeltaSubgroup:
            return NotImplemented
        if (self.level, self._order) != (other.level, other._order):
            return False
        if self._modulus is None or other._modulus is None:
            spanned, rest = (self, other) if self._modulus is None else (other, self)
            return all(a in rest for a in spanned._elements)  # at most MAX_UNITS
        return _congruence_within(self._modulus, other._modulus)

    def __hash__(self) -> int:
        return hash((self.level, self._order))

    def __repr__(self) -> str:
        if self._order > MAX_UNITS:  # a congruence group past the listing bound
            return f"<DeltaSubgroup of level {self.level}: +-1 mod {self._modulus}>"
        return f"DeltaSubgroup(level={self.level!r}, gens={self.elements!r})"

    def __len__(self) -> int:
        return self._order


def _congruence(n: int, m: int) -> DeltaSubgroup:
    """Delta_m = {a in (Z/nZ)* : a = +-1 mod m}, m | n.  Reduction mod m is
    phi(n)/phi(m) to one onto (Z/mZ)*, so |Delta_m| = phi(n)/phi(m), twice
    that once +1 != -1 mod m (m > 2): all units exactly when phi(m) <= 2."""
    check_positive(n)
    group = object.__new__(DeltaSubgroup)
    group._fill(n, m, totient(n) // totient(m) * (1 + (m > 2)), None, None)
    return group


def _congruence_within(k: int, m: int) -> bool:
    """Delta_k inside Delta_m, k, m | N: Delta_k maps onto the units = +-1
    mod g = gcd(k, m) of (Z/mZ)*, which hold +-1 mod m, so it lies in
    Delta_m exactly when phi(m) c(g) = phi(g) c(m), c(x) = 1 + (x > 2)."""
    g = gcd(k, m)
    return totient(m) * (1 + (g > 2)) == totient(g) * (1 + (m > 2))


def pm_one(n: int) -> DeltaSubgroup:
    """{+-1} = Delta_N: the Delta giving X_1(N)."""
    return _congruence(n, n)


def full_units(n: int) -> DeltaSubgroup:
    """All of (Z/nZ)* = Delta_1: the Delta giving X_0(N)."""
    return _congruence(n, 1)


def delta_d(n: int, d: int) -> DeltaSubgroup:
    """Delta_{N/e}, e = gcd(d, N/d): the diamond operators fixing every
    cusp whose denominator invariant is d, 2e of them once N/e > 2."""
    return _congruence(n, n // cofactor_gcd(n, d))


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
        t *= p ** sum(1 + n // p**b in delta for b in range(1, a + 1))
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
