"""Exact arithmetic mod N: factorizations, totients, divisors, and
subgroups of (Z/NZ)*.

`factorize` works by trial division; `factorizations` reads a whole range
off one smallest-prime-factor sieve, and totients and divisors are built
from the factorization.

Residues are normalized to 1..N, so the trivial groups mod 1 and mod 2
collapse to {1} and no downstream formula needs a special case.  Everything
here is integer arithmetic; no floats.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt, prod

from .errors import NonUnitGenerator, NotADivisor, UnitGroupTooLarge

# Cost bound of (Z/NZ)* in phi(N), checked before the units are listed.
# `genus --level N --gamma0` costs about phi(N) times the divisor count of
# N: on a 2-vCPU host with CPython 3.11 it took 0.6 s and 20 MB at
# N = 92400 (phi 19200, 120 divisors), the worst level within the bound.
MAX_UNITS = 2 * 10**4


def normalize_residue(a: int, n: int) -> int:
    """Reduce a into 1..n (the residue 0 is stored as n)."""
    r = a % n
    return r if r != 0 else n


@lru_cache(maxsize=8192)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization ((p, exponent), ...) by trial division."""
    if n < 1:
        raise ValueError("n must be positive")
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


def factorizations(limit: int) -> list[tuple[tuple[int, int], ...]]:
    """factorize(n) at index n for 1 <= n <= limit (index 0 holds ()),
    read off one smallest-prime-factor sieve."""
    spf = list(range(limit + 1))
    for p in range(isqrt(limit), 1, -1):
        # descending, so the smallest prime factor is written last
        if all(p % q for q in range(2, isqrt(p) + 1)):
            spf[p * p :: p] = [p] * len(range(p * p, limit + 1, p))
    out: list[tuple[tuple[int, int], ...]] = [(), ()]
    for n in range(2, limit + 1):
        p = spf[n]
        rest = out[n // p]
        if rest and rest[0][0] == p:
            out.append(((p, rest[0][1] + 1),) + rest[1:])
        else:
            out.append(((p, 1),) + rest)
    return out[: limit + 1]


def totient(n: int) -> int:
    """Euler phi(n); phi(1) = 1 by convention."""
    out = n
    for p, _ in factorize(n):
        out = out // p * (p - 1)
    return out


def cusp_sum(n: int) -> int:
    """sum over d | n of phi(d) phi(n/d): twice the cusp count of X_1(n), n >= 5."""
    return prod(
        sum(totient(p**b) * totient(p ** (a - b)) for b in range(a + 1))
        for p, a in factorize(n)
    )


def x0_cusp_count(n: int) -> int:
    """sum over d | n of phi(gcd(d, n/d)): the cusp count of X_0(n)."""
    return prod(
        sum(totient(p ** min(b, a - b)) for b in range(a + 1)) for p, a in factorize(n)
    )


def divisors(n: int) -> list[int]:
    """All divisors of n in increasing order."""
    out = [1]
    for p, a in factorize(n):
        out = [d * p**k for d in out for k in range(a + 1)]
    return sorted(out)


def units(n: int) -> list[int]:
    """The units of Z/nZ as residues in 1..n; [1] for n = 1."""
    if n < 1:
        raise ValueError("n must be positive")
    return [a for a in range(1, n + 1) if gcd(a, n) == 1]


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == ((n, 1),)


def inv_mod(a: int, n: int) -> int:
    """Inverse of a mod n, normalized to 1..n."""
    if n == 1:
        return 1
    return normalize_residue(pow(a, -1, n), n)


def _span(n: int, gens, within: frozenset | None = None) -> list[int]:
    """The subgroup of (Z/nZ)* generated by gens, 1 first.

    Each generator g not yet in the span H adds the cosets H*g^j for
    0 < j < k, where g^k is the first power back in H; (Z/nZ)* is abelian,
    so the union is <H, g>.  Every element is made once, so the cost is
    O(|span|) plus one membership test per generator.  With `within`, an
    element outside that set raises.
    """
    one = normalize_residue(1, n)
    span, seen = [one], {one}
    for g in gens:
        if g in seen:
            continue
        if gcd(g, n) != 1:
            raise NonUnitGenerator(f"{g} is not a unit mod {n}")
        powers, x = [], g
        while x not in seen:
            powers.append(x)
            x = x * g % n or n
        new = [h * x % n or n for x in powers for h in span]
        if within is not None and not within.issuperset(new):
            raise ValueError("element set is not multiplicatively closed")
        seen.update(new)
        span += new
    return span


class Record:
    """Base of the records that check their fields when built: slots set
    once in __init__ through object.__setattr__, read-only afterwards.  The
    plain value records are NamedTuples."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class DeltaSubgroup(Record):
    """A subgroup of (Z/NZ)* containing -1, with sorted element tuple.

    Closure is proved against a generating set drawn greedily from the
    elements themselves (see `_span`), not by testing every product: the
    span of unit generators stays inside the set and reaches every element,
    so the set is that subgroup.  Equality and hash use the level and the
    elements only; `members` is the same set, kept for membership tests.
    """

    __slots__ = ("level", "elements", "members")

    def __init__(self, level: int, elements: tuple[int, ...]):
        n = level
        members = frozenset(elements)
        if normalize_residue(1, n) not in members or normalize_residue(-1, n) not in members:
            raise ValueError("subgroup must contain 1 and -1")
        if min(members) < 1 or max(members) > n:
            raise NonUnitGenerator(f"{elements} is not a set of residues 1..{n}")
        elements = tuple(sorted(members))
        _span(n, elements, within=members)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "members", members)

    def __eq__(self, other):
        if type(other) is not DeltaSubgroup:
            return NotImplemented
        return self.level == other.level and self.elements == other.elements

    def __hash__(self) -> int:
        return hash((self.level, self.elements))

    def __repr__(self) -> str:
        return f"DeltaSubgroup(level={self.level!r}, elements={self.elements!r})"

    def __len__(self) -> int:
        return len(self.elements)


def subgroup_generated(n: int, gens=()) -> DeltaSubgroup:
    """Smallest subgroup of (Z/nZ)* containing the generators and +-1."""
    return _subgroup_generated(n, tuple(sorted({g % n for g in gens})))


@lru_cache(maxsize=256)
def _subgroup_generated(n: int, gens: tuple) -> DeltaSubgroup:
    for g in gens:
        if gcd(g, n) != 1:
            raise NonUnitGenerator(f"generator {g} shares a factor with {n}")
    span = _span(n, [normalize_residue(g, n) for g in (-1, *gens)])
    return DeltaSubgroup(n, tuple(sorted(span)))


def pm_one(n: int) -> DeltaSubgroup:
    """The subgroup {+-1}: the Delta giving X_1(N)."""
    return subgroup_generated(n, ())


def full_units(n: int) -> DeltaSubgroup:
    """All of (Z/nZ)*: the Delta giving X_0(N)."""
    if totient(n) > MAX_UNITS:  # before the O(N) listing
        raise UnitGroupTooLarge(f"(Z/{n}Z)* has more than {MAX_UNITS} units")
    return DeltaSubgroup(n, tuple(units(n)))


@lru_cache(maxsize=1024)
def delta_d(n: int, d: int) -> DeltaSubgroup:
    """Units congruent to +-1 mod N/e, where e = gcd(d, N/d).

    These are exactly the diamond operators fixing every cusp whose
    denominator invariant is d.
    """
    if d < 1 or n % d != 0:
        raise NotADivisor(f"{d} does not divide {n}")
    m = n // gcd(d, n // d)
    lifts = {normalize_residue(s + k * m, n) for k in range(n // m) for s in (1, -1)}
    return DeltaSubgroup(n, tuple(sorted(a for a in lifts if gcd(a, n) == 1)))


def projection_image_size(n: int, d: int, delta: DeltaSubgroup) -> int:
    """Size of the image of Delta in (Z/lcm(d, N/d)Z)*.

    With e = gcd(d, N/d) and m = lcm(d, N/d) = N/e, the kernel of reduction
    mod m is {1 + j*m : 0 <= j < e} (m has every prime of N, so each is a
    unit), and the image has size |Delta| / |Delta meet kernel|.
    """
    if d < 1 or n % d != 0:
        raise NotADivisor(f"{d} does not divide {n}")
    if delta.level != n:
        raise ValueError("subgroup level does not match")
    e = gcd(d, n // d)
    m = n // e
    return len(delta) // sum((1 + j * m) in delta.members for j in range(e))


def unit_group_generators(n: int) -> list[int]:
    """A small generating set of (Z/nZ)* (with -1 adjoined), found greedily."""
    gens: list[int] = []
    span = {normalize_residue(1, n), normalize_residue(-1, n)}
    for u in units(n):
        if u not in span:
            gens.append(u)
            span = set(_span(n, [n - 1, *gens]))
    return gens
