"""Independent brute-force oracles used by the tests.

Everything here works from raw definitions (orbit closure under the
generating moves, literal formula evaluation with its own totient and
divisor loops) and deliberately shares no logic with the package.  The
exceptions are of two kinds.  The (N, d) lemma oracles
(`bf_cusp_inequality`, `bf_genus_check`, `bf_fricke_choice`, `bf_al_min`)
validate (N, d) with the package's guards `cofactor_gcd` and
`irregular_e`, so they refuse bad input with the package's errors, and
the genus check reads g_1 and g_{Delta_d} off `g1`, `delta_d` and
`genus_delta`, which other tests check against brute force.
`bf_survey_x1` is the survey as a scan that runs the package's own
verdict on every bucket: it checks the lemma that lets `survey_x1` skip
that scan, not the verdict rules.  `bf_ramification_x0_tower`, the scan
of coset images that the width ratio of `genus.cover` replaced, reads
each image's class off the package's `canonicalize_x0`, which the tests
hold to `bf_x0_orbits`.  `bf_quotient_series` and
`build_parser` are the package's former eta kernel and argparse parser,
kept to check the code that replaced them.
"""

import argparse
from fractions import Fraction
from functools import cache, reduce
from math import gcd, isqrt
from operator import add, sub

from cuspforge.arith import cofactor_gcd, delta_d, irregular_e
from cuspforge.criteria import SurveyReport, x1_verdict
from cuspforge.cusps import canonicalize_x0
from cuspforge.errors import GenusTooSmall
from cuspforge.genus import g1, genus_delta


def bf_phi(n):
    return sum(1 for a in range(1, n + 1) if gcd(a, n) == 1)


def bf_units(n):
    """The units of Z/nZ in 1..n by one gcd per residue: the package's
    former `arith.units`, which the sieve off the factorization replaced."""
    return [a for a in range(1, n + 1) if gcd(a, n) == 1]


@cache
def bf_phi_table(limit):
    """[0, phi(1), ..., phi(limit)] by Euler's sieve: phi(m) loses
    phi(m)/p for each prime p | m, a prime being an entry still equal to
    its index."""
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:
            for m in range(p, limit + 1, p):
                phi[m] -= phi[m] // p
    return phi


def bf_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def bf_factorizations(limit):
    """The prime factorization ((p, exponent), ...) of n at index n for
    1 <= n <= limit (index 0 holds ()), read off one smallest-prime-factor
    sieve."""
    spf = list(range(limit + 1))
    for p in range(isqrt(limit), 1, -1):
        # descending, so the smallest prime factor is written last
        if all(p % q for q in range(2, isqrt(p) + 1)):
            spf[p * p :: p] = [p] * len(range(p * p, limit + 1, p))
    out = [(), ()]
    for n in range(2, limit + 1):
        p = spf[n]
        rest = out[n // p]
        if rest and rest[0][0] == p:
            out.append(((p, rest[0][1] + 1),) + rest[1:])
        else:
            out.append(((p, 1),) + rest)
    return out[: limit + 1]


def _bf_phi_pair(n, d):
    """phi(d) and phi(N/d) off the sieve to the next power of two past N,
    so that a scan over N builds few tables."""
    phi = bf_phi_table(1 << n.bit_length())
    return phi[d], phi[n // d]


def bf_cusp_inequality(n, d):
    """phi(d) phi(N/d) >= 8 + 4/(e - 1), e = gcd(d, N/d) > 1, compared as
    Fractions over the oracle's own totient."""
    e = irregular_e(n, d)
    phi_d, phi_nd = _bf_phi_pair(n, d)
    return phi_d * phi_nd >= 8 + Fraction(4, e - 1)


def bf_genus_check(n, d):
    """g_1(N) - e g_{Delta_d}(N) >= e, the quotient-genus test at d, on an
    irregular bucket of a level with g_1(N) >= 2."""
    e = irregular_e(n, d)
    g = g1(n)
    if g < 2:
        raise GenusTooSmall(f"g_1({n}) = {g} < 2")
    return g - e * genus_delta(delta_d(n, d)).g >= e


def bf_fricke_choice(n, d):
    """d or N/d, whichever has the smaller totient; a tie keeps d."""
    cofactor_gcd(n, d)
    phi_d, phi_nd = _bf_phi_pair(n, d)
    return d if phi_d <= phi_nd else n // d


def bf_al_min(n, d):
    """The least divisor in the Atkin-Lehner orbit of d | N."""
    cofactor_gcd(n, d)
    return min(bf_al_orbits(n)[d])


def bf_survey_x1(max_n):
    """survey_x1(max_n) as one scan: x1_verdict on every bucket r > 1 with
    r^2 | N of every level 13 <= N <= max_n with g_1(N) >= 2, and the
    failure sets from `bf_cusp_inequality` at r = 2, 3, 4 and 6."""
    rows, failures = [], {2: [], 3: [], 4: [], 6: []}
    for n in range(13, max_n + 1):
        if g1(n) < 2:
            continue
        for r in range(2, isqrt(n) + 1):
            if n % (r * r) == 0:
                verdict = x1_verdict(n, r)
                rows.append((n, r, verdict.status, verdict.decisive_rule()))
                if r in failures and not bf_cusp_inequality(n, r):
                    failures[r].append(n)
    return SurveyReport(max_n, tuple(rows), {d: tuple(v) for d, v in failures.items()})


def bf_x1_orbits(n):
    """Orbits of primitive pairs mod n under T: (x,y) -> (x+y, y) and the
    sign flip; these are the cusps of X_1(n).  Returns a list of orbits
    (as sets of pairs) and a pair -> orbit-index map."""
    visited = bytearray(n * n)
    orbits = []
    index = {}
    for x0 in range(n):
        for y0 in range(n):
            if visited[x0 * n + y0] or gcd(gcd(x0, y0), n) != 1:
                continue
            orbit = []
            stack = [(x0, y0)]
            visited[x0 * n + y0] = 1
            while stack:
                x, y = stack.pop()
                orbit.append((x, y))
                for u, v in (((x + y) % n, y), ((-x) % n, (-y) % n)):
                    if not visited[u * n + v]:
                        visited[u * n + v] = 1
                        stack.append((u, v))
            idx = len(orbits)
            orbits.append(set(orbit))
            for p in orbit:
                index[p] = idx
    return orbits, index


def bf_delta_orbits(n, elements, x1_result=None):
    """Cusps of X_Delta(n), Delta = elements: X_1(n) orbits merged under
    (x,y) -> (ax, a^-1 y) for a in Delta, as sets of X_1 orbit indices."""
    orbits, index = x1_result if x1_result is not None else bf_x1_orbits(n)
    parent = list(range(len(orbits)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, orbit in enumerate(orbits):
        x, y = next(iter(orbit))
        for a in elements:
            j = index[(a * x % n, pow(a, -1, n) * y % n)]
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[rj] = ri
    merged = {}
    for i in range(len(orbits)):
        merged.setdefault(find(i), set()).add(i)
    return list(merged.values())


def bf_x0_orbits(n, x1_result=None):
    """Cusps of X_0(n): the X_Delta(n) orbits of all units, as pair sets."""
    orbits, index = x1_result if x1_result is not None else bf_x1_orbits(n)
    units = [u for u in range(1, n + 1) if gcd(u, n) == 1]
    merged = bf_delta_orbits(n, units, (orbits, index))
    return [set().union(*(orbits[i] for i in ids)) for ids in merged]


def bf_x1_normalizer_orbits(n, x1_result=None):
    """Cusps of X_1(n) merged under all diamonds and all W_Q: the X_0(n)
    orbits of bf_x0_orbits, merged again under the image of one pair of
    each X_1 orbit by a matrix (Q, -t; n, Q s) of determinant Q, where
    Q s + (n/Q) t = 1.  Returns a list of sets of pairs."""
    orbits1, index = x1_result if x1_result is not None else bf_x1_orbits(n)
    merged = bf_x0_orbits(n, (orbits1, index))
    where = {pair: i for i, orbit in enumerate(merged) for pair in orbit}
    parent = list(range(len(merged)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for q in bf_divisors(n):
        if gcd(q, n // q) != 1:
            continue
        s, t = _bf_egcd(q, n // q)
        mat = (q, -t, n, q * s)
        assert mat[0] * mat[3] - mat[1] * mat[2] == q
        for orbit in orbits1:
            x, y = next(iter(orbit))
            a1, c1 = bf_matrix_image(n, mat, x, y)
            ri, rj = find(where[(x, y)]), find(where[(a1 % n, c1 % n)])
            if ri != rj:
                parent[rj] = ri
    out = {}
    for i, orbit in enumerate(merged):
        out.setdefault(find(i), set()).update(orbit)
    return list(out.values())


def bf_matrix_image(n, mat, x, y):
    """The image a/c, as a coprime integer pair, of the cusp (x : y) mod n
    under the integer matrix mat = (p, q, r, s) acting by fractional linear
    maps, after lifting (x, y) to a coprime pair with y in 1..n."""
    c = y % n or n
    a = x % n
    while gcd(a, c) != 1:
        a += n
    p, q, r, s = mat
    a1, c1 = p * a + q * c, r * a + s * c
    g = gcd(a1, c1)
    return a1 // g, c1 // g


def bf_d_of_orbit(n, orbit):
    x, y = next(iter(orbit))
    y %= n
    return gcd(y, n) if y != 0 else n


def bf_counts_by_d(n, orbit_list):
    counts = {}
    for orbit in orbit_list:
        d = bf_d_of_orbit(n, orbit)
        counts[d] = counts.get(d, 0) + 1
    return counts


def bf_is_closed(n, elements):
    """Pairwise test: every product of two elements, reduced into 1..n, is
    again an element."""
    elems = set(elements)
    return all(((a * b) % n or n) in elems for a in elems for b in elems)


def bf_subgroup(n, elements):
    """The closure of the residues under multiplication mod n, by search
    from 1, as a sorted tuple of residues in 1..n."""
    gens = {a % n or n for a in elements}
    span, stack = {1 % n or n}, [1 % n or n]
    while stack:
        a = stack.pop()
        for g in gens:
            b = a * g % n or n
            if b not in span:
                span.add(b)
                stack.append(b)
    return tuple(sorted(span))


def bf_unit_group_generators(n):
    """Greedy generators of (Z/nZ)*: each unit, in increasing order, that
    the span of -1 and the units kept so far misses, with the span built
    again by search after each new generator."""
    gens = []
    span = set(bf_subgroup(n, [-1]))
    for u in range(1, n):
        if gcd(u, n) == 1 and u not in span:
            gens.append(u)
            span = set(bf_subgroup(n, [-1, *gens]))
    return gens


def bf_projection_image_size(n, d, elements):
    """Size of the image of the residues in (Z/lcm(d, n/d)Z)*, as a set of
    reductions."""
    m = d * (n // d) // gcd(d, n // d)
    return len({a % m or m for a in elements})


def bf_kernel_size(n, d, members):
    """|Delta meet K_d| by scan: how many of the e = gcd(d, n/d) lifts
    1 + j*L of 1 mod L = n/e, 0 <= j < e, lie in the member set (residues
    in 1..n).  The package counted the kernel this way before it read the
    count off the primes of e."""
    e = gcd(d, n // d)
    m = n // e
    return sum((1 + j * m) in members for j in range(e))


def bf_genus_profile(n, elements):
    """(mu, nu2, nu3, nu_inf, g) of X_Delta(n) for the subgroup with these
    residues, as four Fraction sums with its own primes and totients."""
    delta = sorted(set(elements))
    size = len(delta)
    phi = bf_phi(n)
    mu = Fraction(n * phi, size)
    m, p = n, 2
    while m > 1:
        if m % p == 0:
            mu *= Fraction(p + 1, p)
            while m % p == 0:
                m //= p
        p += 1
    nu2 = Fraction(sum(1 for b in delta if (b * b + 1) % n == 0) * phi, size)
    nu3 = Fraction(sum(1 for b in delta if (b * b - b + 1) % n == 0) * phi, size)
    nuinf = Fraction(0)
    for d in bf_divisors(n):
        image = bf_projection_image_size(n, d, delta)
        nuinf += Fraction(bf_phi(d) * bf_phi(n // d), image)
    g = 1 + mu / 12 - nu2 / 4 - nu3 / 3 - nuinf / 2
    assert g.denominator == 1 and g >= 0
    return mu, nu2, nu3, nuinf, int(g)


def bf_g1(n):
    """Genus of X_1(n) straight from the formula, own arithmetic only."""
    return bf_genus_profile(n, {1 % n or n, (-1) % n or n})[-1]


@cache
def bf_al_orbits(n):
    """Orbit of every divisor of n under the Atkin-Lehner swaps, by closure:
    W_Q for Q || n sends d to (d/g)(Q/g) with g = gcd(d, Q)."""
    divs = bf_divisors(n)
    exact = [q for q in divs if gcd(q, n // q) == 1]
    orbits = {}
    for d in divs:
        orbit, frontier = {d}, [d]
        while frontier:
            x = frontier.pop()
            for q in exact:
                g = gcd(x, q)
                y = (x // g) * (q // g)
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        orbits[d] = orbit
    return orbits


def x1_equivalent(n, p, q):
    """Literal congruence test: q = +-(p.x + j*p.y, p.y) mod n for some j."""
    x, y = p[0] % n, p[1] % n
    u, v = q[0] % n, q[1] % n
    for s in (1, n - 1):
        if (s * y - v) % n == 0:
            for j in range(n):
                if (s * (x + j * y) - u) % n == 0:
                    return True
    return False


def bf_fixed_cusps(n, a, pairs):
    """The cusps (x, y) among the pairs that the diamond [a] fixes: those
    whose image (a x, a^-1 y) passes the literal congruence test against
    (x, y)."""
    a_inv = pow(a, -1, n)
    return [(x, y) for x, y in pairs if x1_equivalent(n, (a * x, a_inv * y), (x, y))]


def bf_ramification_x1_to_delta(n, d, pairs):
    """Largest orbit, under Delta_d = {units a = +-1 mod lcm(d, n/d)}, of
    the cusps (x, y) among the pairs with gcd(y, n) = d; an orbit counts
    its images that are pairwise inequivalent under the literal
    congruence test."""
    m = d * (n // d) // gcd(d, n // d)
    delta = [
        a
        for a in range(1, n + 1)
        if gcd(a, n) == 1 and ((a - 1) % m == 0 or (a + 1) % m == 0)
    ]
    largest = 0
    for x, y in pairs:
        if gcd(y, n) != d:
            continue
        classes = []
        for a in delta:
            image = (a * x, pow(a, -1, n) * y)
            if not any(x1_equivalent(n, image, c) for c in classes):
                classes.append(image)
        largest = max(largest, len(classes))
    return largest


def bf_ramification_x0_tower(p, m, x):
    """Number of distinct Gamma_0(p^2 M) classes among the p coset images
    of the cusp x/p: the right coset representatives tau -> tau/(k p M tau
    + 1), 0 <= k < p, of Gamma_0(p^2 M) in Gamma_0(pM) send the pair
    (x, p) to (x, k p M x + p)."""
    n = p * p * m
    return len({canonicalize_x0(n, x, k * p * m * x + p) for k in range(p)})


def _bf_egcd(a, b):
    """(s, t) with a*s + b*t = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t


def _bf_mat_mul(m1, m2):
    a, b, c, d = m1
    p, q, r, s = m2
    return (a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s)


def _bf_sigma(n, x, y):
    """sigma in SL2(Z) sending infinity to the cusp (x : y), and its
    inverse, after lifting (x, y) to a coprime pair with y in 1..n."""
    c = y % n or n
    a = x % n
    while gcd(a, c) != 1:
        a += n
    s, t = _bf_egcd(a, c)
    return (a, -t, c, s), (s, t, -c, a)


def bf_width_and_sign(n, group, x, y):
    """Width of the cusp (x : y) on Gamma_0(n) ("gamma0") or Gamma_1(n)
    ("gamma1") by scanning: the least divisor h of n with
    sigma T^h sigma^-1 in +-Gamma, sigma in SL2(Z) sending infinity to the
    cusp, and whether the plus sign already lies in Gamma."""
    sigma, sigma_inv = _bf_sigma(n, x, y)
    for h in bf_divisors(n):
        m = _bf_mat_mul(_bf_mat_mul(sigma, (1, h, 0, 1)), sigma_inv)
        for sign in (1, -1):
            top_left, _, bottom_left, _ = (sign * v for v in m)
            if bottom_left % n == 0 and (group == "gamma0" or top_left % n == 1 % n):
                return h, sign == 1
    raise AssertionError(f"no width below {n} for ({x} : {y})")


def bf_width_delta(n, members, x, y):
    """Width of the cusp (x : y) on Gamma_Delta(n), Delta the residues
    1..n in members, -1 among them, by scanning: the least divisor h of n
    with sigma T^h sigma^-1 = (a, *; 0, *) mod n and a in Delta."""
    sigma, sigma_inv = _bf_sigma(n, x, y)
    for h in bf_divisors(n):
        a, _, c, _ = _bf_mat_mul(_bf_mat_mul(sigma, (1, h, 0, 1)), sigma_inv)
        if c % n == 0 and (a % n or n) in members:
            return h
    raise AssertionError(f"no width below {n} for ({x} : {y})")


# ---------------------------------------------------------------------------
# Orders of eta quotients at cusps, as the package first computed them:
# the second Bernoulli polynomial on Fractions, one block at a time.


def bernoulli2(x):
    """B(x) = x^2 - x + 1/6."""
    x = Fraction(x)
    return x * x - x + Fraction(1, 6)


def periodic_bernoulli2(x):
    """The 1-periodic extension of B, evaluated at the fractional part."""
    x = Fraction(x)
    return bernoulli2(x - (x.numerator // x.denominator))


def bf_ord_at_cusp(n, exponents, x, y):
    """Order of prod E_r^k over the (r, k) pairs at the X_1(n) cusp (x : y):
    width * delta^2 / 2n * sum k B2~(x r / delta), delta = gcd(y, n), with
    the width scanned by bf_width_and_sign."""
    width, _ = bf_width_and_sign(n, "gamma1", x, y)
    delta = gcd(y, n)
    total = sum(k * periodic_bernoulli2(Fraction(x * r, delta)) for r, k in exponents)
    return Fraction(width * delta * delta, 2 * n) * total


# ---------------------------------------------------------------------------
# The eta-quotient expansion as the package first computed it: series as
# dicts from exponent numerator (over 12N) to a Fraction or int, an O(T^2)
# dict convolution, a Fraction long-division inverse and repeated products.
# Meant for T <= 200.


def _bf_norm_coeff(v):
    if isinstance(v, Fraction) and v.denominator == 1:
        return int(v)
    return v


class BfSeries:
    """coeffs maps exponent numerators over denom to exact coefficients; the
    series is exact for every numerator strictly below `truncation`."""

    def __init__(self, level, denom, coeffs, truncation):
        self.level, self.denom = level, denom
        self.coeffs, self.truncation = coeffs, truncation

    def _lead_num(self):
        return min(self.coeffs) if self.coeffs else self.truncation

    def __mul__(self, other):
        if self.level != other.level:
            raise ValueError("series at different levels")
        bound = min(
            self.truncation + other._lead_num(),
            other.truncation + self._lead_num(),
        )
        out = {}
        for k1, v1 in self.coeffs.items():
            for k2, v2 in other.coeffs.items():
                t = k1 + k2
                if t < bound:
                    out[t] = out.get(t, 0) + v1 * v2
        out = {k: _bf_norm_coeff(v) for k, v in out.items() if v != 0}
        return BfSeries(self.level, self.denom, out, bound)

    def inverse(self):
        if not self.coeffs:
            raise ValueError("cannot invert the zero series")
        alpha = min(self.coeffs)
        window = self.truncation - alpha
        if window <= 0:
            raise ValueError("no terms survive below the truncation")
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
        out = {-alpha + t: _bf_norm_coeff(v) for t, v in inv.items() if v != 0}
        return BfSeries(self.level, self.denom, out, self.truncation - 2 * alpha)

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        result = BfSeries(self.level, self.denom, {0: 1}, self.truncation)
        for _ in range(k):
            result = result * self
        return result


def bf_eta_series(n, r, terms):
    """E_r at level n, multiplied out factor by factor on the dict."""
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
    return BfSeries(n, denom, coeffs, bound)


def bf_dict_quotient_series(n, exponents, terms):
    """prod E_r^k over the (r, k) pairs, by products of powers of the
    blocks; exact below the returned series' truncation."""
    result = BfSeries(n, 12 * n, {0: 1}, 12 * n * terms)
    for r, k in exponents:
        result = result * (bf_eta_series(n, r, terms) ** k)
    return result


def bf_quotient_series(n, exponents, terms):
    """The `terms` coefficients of prod E_r^k over the (r, k) pairs with
    0 < r <= n/2, one factor (1 - q^e) of each block at a time: a
    descending pass multiplies by it, an ascending prefix pass in blocks of
    e divides by it.  This was the package's kernel before the triple
    product, and for blocks with negative exponent until one sparse power
    kernel served both signs."""
    c = [1] + [0] * (terms - 1)
    for r, k in exponents:
        for e in (*range(r, terms, n), *range(n - r, terms, n)):
            for _ in range(k):
                c[e:] = map(sub, c[e:], c[:-e])
            for _ in range(-k):
                for i in range(e, terms, e):
                    c[i : i + e] = map(add, c[i : i + e], c[i - e : i])
    return tuple(c)


class ParserRefused(Exception):
    """The argparse oracle refused an argv."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParserRefused(message)


def build_parser():
    """The CLI's argparse parser, which the table parser replaced: -h
    prints its help and exits 0, and it raises ParserRefused where
    argparse would exit 2."""
    p = _Parser(prog="cuspforge", description="cuspforge command line.")
    sub = p.add_subparsers(dest="command")

    def add_delta_flags(sp):
        grp = sp.add_mutually_exclusive_group()
        grp.add_argument("--gamma1", action="store_true", help="Delta = {+-1} (default)")
        grp.add_argument("--gamma0", action="store_true", help="Delta = all units")
        grp.add_argument("--delta", help="comma-separated generators of Delta")

    sp = sub.add_parser("genus", description="Genus profile of X_Delta(N).")
    sp.add_argument("--level", type=int, required=True)
    add_delta_flags(sp)

    sp = sub.add_parser("cusps", description="Cusp atlas with widths.")
    sp.add_argument("--level", type=int, required=True)
    add_delta_flags(sp)

    sp = sub.add_parser("orbits", description="Cusp orbits of X_1(N) under [a], W_Q.")
    sp.add_argument("--level", type=int, required=True)

    sp = sub.add_parser("verdict", description="Weierstrass verdict for irregular cusps.")
    sp.add_argument("curve", choices=["x1", "x0"])
    sp.add_argument("--level", type=int, help="N (x1 only)")
    sp.add_argument("--d", type=int, help="divisor invariant of the cusps (x1 only)")
    sp.add_argument("--p", type=int, help="prime p (x0 only)")
    sp.add_argument("--m", type=int, help="M with N = p^2 M (x0 only)")

    sp = sub.add_parser("survey", description="Verdicts for all levels up to a bound.")
    sp.add_argument("curve", choices=["x1"])
    sp.add_argument("--max", type=int, required=True)
    sp.add_argument("--format", choices=["json", "tsv"], default="json")
    sp.add_argument(
        "--jobs", type=int, default=None, help="at least 1; the survey runs serially"
    )

    sp = sub.add_parser("eta", description="Eta-block series and quotient divisors.")
    sp.add_argument("what", choices=["series", "div"])
    sp.add_argument("--level", type=int, help="N (series)")
    sp.add_argument("--r", type=int, help="residue r (series)")
    sp.add_argument("--terms", type=int, default=None)
    sp.add_argument("--spec", help="JSON file with {level, exponents} (div)")

    sp = sub.add_parser("certify", description="Recompute a stored certificate.")
    sp.add_argument("target", choices=["x1-20"])

    return p
