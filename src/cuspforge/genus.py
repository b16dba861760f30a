"""Genus of X_Delta(N) from the index, elliptic-point and cusp counts.

    g = 1 + mu/12 - nu2/4 - nu3/3 - nu_inf/2

Every count is an integer.  With [U : Delta] = phi(N)/|Delta| the index
of Delta in U = (Z/NZ)*, mu = psi(N) [U : Delta] with psi(N) = N
prod_{p|N} (1 + 1/p); nu2 and nu3 are [U : Delta] times the number of
solutions of b^2 + 1 = 0 and b^2 - b + 1 = 0 inside Delta; and nu_inf =
sum over d | N of phi(d) phi(N/d) / |pi_d(Delta)|, each term an integer
(see `arith.projection_image_size`).  `genus_delta` forms 12 g as one
integer and divides once, as `g0` and `g1` do with 12 g0 and 24 g1, each
through one checked division: a remainder or a negative g means a bug,
not bad input.

`g0` and `g1` are the textbook closed forms over the factorization
(Diamond-Shurman, A First Course in Modular Forms, GTM 228, Sections 3.1
and 3.9), built from multiplicative sums over the prime powers p^a || N:

    12 g0 = 12 + psi(N) - 3 nu2 - 4 nu3 - 6 sum_{d|N} phi(gcd(d, N/d))
    24 g1 = 24 + N^2 prod_{p|N} (1 - 1/p^2) - 6 sum_{d|N} phi(d) phi(N/d)

with nu2 = prod (1 + (-1/p)) unless 4 | N and nu3 = prod (1 + (-3/p))
unless 9 | N; the second holds for N >= 5, and X_1(N) has genus 0 below
that.  Both read one factorization of N.  The tests hold both to
`genus_delta` at Delta = all units and Delta = {+-1}.

`cover` reads a cover of curves (N, group), the group `GAMMA0` or a
`DeltaSubgroup` of level N, off the same closed forms: its degree is the
ratio of the indices mu, its ramification index that of the cusp widths.
"""

from math import gcd, prod
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
from .cusps import GAMMA0


class GenusProfile(NamedTuple):
    delta: DeltaSubgroup
    mu: int
    nu2: int
    nu3: int
    nu_inf: int
    g: int


def _psi(n: int) -> int:
    """N prod_{p|N} (1 + 1/p), the index of Gamma_0(N) in SL2(Z)."""
    return prod(p ** (a - 1) * (p + 1) for p, a in factorize(n))


def _genus(multiple: int, k: int, name: str) -> int:
    """g from the integer k g; a remainder or a negative g raises."""
    g, rem = divmod(multiple, k)
    if rem or g < 0:
        raise RuntimeError(f"{k} {name} = {multiple}")
    return g


def genus_delta(delta: DeltaSubgroup) -> GenusProfile:
    """The genus profile of X_Delta(N), N = delta.level."""
    n = delta.level
    index = totient(n) // len(delta)  # [U : Delta]
    mu_ = _psi(n) * index
    nu2_ = index * sum(1 for b in delta.elements if (b * b + 1) % n == 0)
    nu3_ = index * sum(1 for b in delta.elements if (b * b - b + 1) % n == 0)
    nu_inf_ = sum(
        totient(d) * totient(n // d) // projection_image_size(d, delta)
        for d in divisors(n)
    )
    twelve_g = 12 + mu_ - 3 * nu2_ - 4 * nu3_ - 6 * nu_inf_
    g = _genus(twelve_g, 12, f"g({n}, {delta.elements})")
    return GenusProfile(delta, mu_, nu2_, nu3_, nu_inf_, g)


def g1(n: int) -> int:
    """Genus of X_1(N), closed form."""
    if n < 5:
        return 0
    index = _psi(n) * totient(n)  # [SL2(Z) : Gamma_1(N)]
    return _genus(24 + index - 6 * cusp_sum(n), 24, f"g1({n})")


def g0(n: int) -> int:
    """Genus of X_0(N), closed form."""
    nu2_, nu3_ = 1, 1
    for p, a in factorize(n):
        # 1 + (-1/p) and 1 + (-3/p); 4 | N and 9 | N leave no elliptic points
        nu2_ *= (a == 1) if p == 2 else 2 * (p % 4 == 1)
        nu3_ *= (a == 1) if p == 3 else 2 * (p % 3 == 1)
    twelve_g = 12 + _psi(n) - 3 * nu2_ - 4 * nu3_ - 6 * x0_cusp_count(n)
    return _genus(twelve_g, 12, f"g0({n})")


def _index_and_width(curve, d: int) -> tuple[int, int]:
    """mu of the curve (N, group), and the width of its cusps with
    invariant d: (N/d) / k with k = |Delta| / |pi_d(Delta)|, or e on
    X_0(N)."""
    n, group = curve
    if group == GAMMA0:
        return _psi(n), n // d // gcd(d, n // d)
    k = len(group) // projection_image_size(d, group)
    return _psi(n) * (totient(n) // len(group)), n // d // k


def cover(up, down, d: int) -> tuple[int, int]:
    """The degree of X_up -> X_down, and its ramification index at the
    cusps of X_up with invariant d, which lie over those with invariant
    gcd(d, N') of X_down, N' its level.  Each curve is a pair (N, group);
    the cover is not checked, so N' | N and Delta mod N' inside Delta'
    are the caller's to keep."""
    mu_up, width_up = _index_and_width(up, d)
    mu_down, width_down = _index_and_width(down, gcd(d, down[0]))
    return mu_up // mu_down, width_up // width_down
