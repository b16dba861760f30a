"""Genus of X_Delta(N) from the index, elliptic-point and cusp counts.

    g = 1 + mu/12 - nu2/4 - nu3/3 - nu_inf/2

with mu = N * prod_{p|N} (1 + 1/p) * phi(N)/|Delta|, nu2 and nu3 counting
solutions of b^2 + 1 = 0 and b^2 - b + 1 = 0 inside Delta (scaled by
phi(N)/|Delta|), and nu_inf = sum over d | N of phi(d) phi(N/d) / |pi_d(Delta)|.
Each count times |Delta| is an integer (|pi_d(Delta)| divides |Delta|), so
`genus_delta` forms 12 |Delta| g as one integer numerator and divides once;
a numerator that is not a non-negative multiple of 12 |Delta| means a bug,
not bad input.

`g0` and `g1` are the textbook closed forms over the factorization
(Diamond-Shurman, A First Course in Modular Forms, GTM 228, Sections 3.1
and 3.9), built from multiplicative sums over the prime powers p^a || N:

    12 g0 = 12 + psi(N) - 3 nu2 - 4 nu3 - 6 sum_{d|N} phi(gcd(d, N/d))
    24 g1 = 24 + N^2 prod_{p|N} (1 - 1/p^2) - 6 sum_{d|N} phi(d) phi(N/d)

with psi(N) = N prod_{p|N} (1 + 1/p), nu2 = prod (1 + (-1/p)) unless 4 | N
and nu3 = prod (1 + (-3/p)) unless 9 | N; the second holds for N >= 5, and
X_1(N) has genus 0 below that.  Both read one factorization of N; `g1_of`
takes it as given (the survey passes its sieve's), and the cached `g1`
feeds it `factorize(N)`.  The tests hold both to `genus_delta` at
Delta = all units and Delta = {+-1}.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import prod
from typing import NamedTuple

from .arith import (
    DeltaSubgroup,
    cusp_sum,
    divisors,
    factorize,
    projection_image_size,
    totient,
    x0_cusp_count,
)
from .errors import NonIntegralGenus


class GenusProfile(NamedTuple):
    delta: DeltaSubgroup
    mu: Fraction
    nu2: Fraction
    nu3: Fraction
    nu_inf: Fraction
    g: int

    def to_json(self) -> dict:
        def enc(v):
            return int(v) if v.denominator == 1 else str(v)

        return {
            "N": self.delta.level,
            "delta": list(self.delta.elements),
            "mu": enc(self.mu),
            "nu2": enc(self.nu2),
            "nu3": enc(self.nu3),
            "nu_inf": enc(self.nu_inf),
            "g": self.g,
        }


def _psi(n: int, fac=None) -> int:
    """N prod_{p|N} (1 + 1/p), the index of Gamma_0(N) in SL2(Z)."""
    return prod(p ** (a - 1) * (p + 1) for p, a in fac or factorize(n))


# Each *_num is |Delta| times the count, an integer; N is delta.level.


def _mu_num(delta: DeltaSubgroup) -> int:
    return _psi(delta.level) * totient(delta.level)


def _nu2_num(delta: DeltaSubgroup) -> int:
    n = delta.level
    return sum(1 for b in delta.elements if (b * b + 1) % n == 0) * totient(n)


def _nu3_num(delta: DeltaSubgroup) -> int:
    n = delta.level
    return sum(1 for b in delta.elements if (b * b - b + 1) % n == 0) * totient(n)


def _nu_inf_num(delta: DeltaSubgroup) -> int:
    n = delta.level
    return sum(
        totient(d) * totient(n // d) * (len(delta) // projection_image_size(d, delta))
        for d in divisors(n)
    )


def mu(delta: DeltaSubgroup) -> Fraction:
    """Degree of X_Delta(N) over X(1)."""
    return Fraction(_mu_num(delta), len(delta))


def nu2(delta: DeltaSubgroup) -> Fraction:
    """Number of elliptic points of order 2."""
    return Fraction(_nu2_num(delta), len(delta))


def nu3(delta: DeltaSubgroup) -> Fraction:
    """Number of elliptic points of order 3."""
    return Fraction(_nu3_num(delta), len(delta))


def nu_inf(delta: DeltaSubgroup) -> Fraction:
    """Number of cusps of X_Delta(N)."""
    return Fraction(_nu_inf_num(delta), len(delta))


@lru_cache(maxsize=256)
def genus_delta(delta: DeltaSubgroup) -> GenusProfile:
    """The genus profile of X_Delta(N), N = delta.level."""
    size = len(delta)
    m_, n2, n3 = _mu_num(delta), _nu2_num(delta), _nu3_num(delta)
    ni = _nu_inf_num(delta)
    num = 12 * size + m_ - 3 * n2 - 4 * n3 - 6 * ni  # 12 |Delta| g
    g, rem = divmod(num, 12 * size)
    if rem or g < 0:
        raise NonIntegralGenus(
            f"g({delta.level}, {delta.elements}) = {Fraction(num, 12 * size)}"
        )
    return GenusProfile(delta, *(Fraction(v, size) for v in (m_, n2, n3, ni)), g)


def g1_of(n: int, fac) -> int:
    """Genus of X_1(N), closed form over fac = factorize(N)."""
    if n < 5:
        return 0
    index = prod(p ** (2 * a - 2) * (p * p - 1) for p, a in fac)
    return (24 + index - 6 * cusp_sum(n, fac)) // 24


@lru_cache(maxsize=8192)
def g1(n: int) -> int:
    """Genus of X_1(N), closed form."""
    return g1_of(n, factorize(n)) if n >= 5 else 0


@lru_cache(maxsize=8192)
def g0(n: int) -> int:
    """Genus of X_0(N), closed form."""
    fac = factorize(n)
    nu2_, nu3_ = 1, 1
    for p, a in fac:
        # 1 + (-1/p) and 1 + (-3/p); 4 | N and 9 | N leave no elliptic points
        nu2_ *= (a == 1) if p == 2 else 2 * (p % 4 == 1)
        nu3_ *= (a == 1) if p == 3 else 2 * (p % 3 == 1)
    return (12 + _psi(n, fac) - 3 * nu2_ - 4 * nu3_ - 6 * x0_cusp_count(n, fac)) // 12
