"""Exact arithmetic mod N: totients, divisors, and subgroups of (Z/NZ)*.

Residues are normalized to 1..N, so the trivial groups mod 1 and mod 2
collapse to {1} and no downstream formula needs a special case.  Everything
here is integer arithmetic; no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .errors import NonUnitGenerator, NotADivisor


def normalize_residue(a: int, n: int) -> int:
    """Reduce a into 1..n (the residue 0 is stored as n)."""
    r = a % n
    return r if r != 0 else n


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def totient(n: int) -> int:
    """Euler phi(n); phi(1) = 1 by convention."""
    if n < 1:
        raise ValueError("n must be positive")
    out = n
    for p, _ in factorize(n):
        out = out // p * (p - 1)
    return out


def divisors(n: int) -> list[int]:
    """All divisors of n in increasing order."""
    if n < 1:
        raise ValueError("n must be positive")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


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


@dataclass(frozen=True)
class DeltaSubgroup:
    """A subgroup of (Z/NZ)* containing -1, with sorted element tuple."""

    level: int
    elements: tuple[int, ...]

    def __post_init__(self):
        n = self.level
        elems = set(self.elements)
        for a in elems:
            if not 1 <= a <= n or gcd(a, n) != 1:
                raise NonUnitGenerator(f"{a} is not a unit mod {n}")
        if normalize_residue(1, n) not in elems or normalize_residue(-1, n) not in elems:
            raise ValueError("subgroup must contain 1 and -1")
        for a in elems:
            for b in elems:
                if normalize_residue(a * b, n) not in elems:
                    raise ValueError("element set is not multiplicatively closed")
        object.__setattr__(self, "elements", tuple(sorted(elems)))

    def __len__(self) -> int:
        return len(self.elements)


def subgroup_generated(n: int, gens=()) -> DeltaSubgroup:
    """Smallest subgroup of (Z/nZ)* containing the generators and +-1."""
    return _subgroup_generated(n, tuple(sorted({g % n for g in gens})))


@lru_cache(maxsize=None)
def _subgroup_generated(n: int, gens: tuple) -> DeltaSubgroup:
    # closure multiplies only by the generating set; in a finite group the
    # generated submonoid is already the subgroup
    for g in gens:
        if gcd(g, n) != 1:
            raise NonUnitGenerator(f"generator {g} shares a factor with {n}")
    base = {normalize_residue(1, n), normalize_residue(-1, n)}
    base |= {normalize_residue(g, n) for g in gens}
    elems = set(base)
    frontier = list(elems)
    while frontier:
        a = frontier.pop()
        for b in base:
            c = normalize_residue(a * b, n)
            if c not in elems:
                elems.add(c)
                frontier.append(c)
    return DeltaSubgroup(n, tuple(sorted(elems)))


def pm_one(n: int) -> DeltaSubgroup:
    """The subgroup {+-1}: the Delta giving X_1(N)."""
    return subgroup_generated(n, ())


def full_units(n: int) -> DeltaSubgroup:
    """All of (Z/nZ)*: the Delta giving X_0(N)."""
    return DeltaSubgroup(n, tuple(units(n)))


@lru_cache(maxsize=None)
def delta_d(n: int, d: int) -> DeltaSubgroup:
    """Units congruent to +-1 mod N/e, where e = gcd(d, N/d).

    These are exactly the diamond operators fixing every cusp whose
    denominator invariant is d.
    """
    if d < 1 or n % d != 0:
        raise NotADivisor(f"{d} does not divide {n}")
    e = gcd(d, n // d)
    m = n // e
    elems = tuple(a for a in units(n) if a % m == 1 % m or (-a) % m == 1 % m)
    return DeltaSubgroup(n, elems)


def projection_image_size(n: int, d: int, delta: DeltaSubgroup) -> int:
    """Size of the image of Delta in (Z/lcm(d, N/d)Z)*."""
    if d < 1 or n % d != 0:
        raise NotADivisor(f"{d} does not divide {n}")
    if delta.level != n:
        raise ValueError("subgroup level does not match")
    m = d * (n // d) // gcd(d, n // d)  # lcm(d, N/d) = N/e
    return len({normalize_residue(a, m) for a in delta.elements})


def unit_group_generators(n: int) -> list[int]:
    """A small generating set of (Z/nZ)* (with -1 adjoined), found greedily."""
    gens: list[int] = []
    span = {normalize_residue(1, n), normalize_residue(-1, n)}
    for u in units(n):
        if u not in span:
            gens.append(u)
            span = set(subgroup_generated(n, tuple(gens)).elements)
    return gens
