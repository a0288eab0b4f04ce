"""Kovacic's algorithm for xi'' = r(w) xi over the field of square roots of
rationals, plus the classical solvability sieve for the Lame equation.

The three cases (reducible / dihedral / finite primitive) are run in
order.  Cases 1 and 2 enumerate candidate exponents at the poles and at
infinity whose degree d is a non-negative integer; case 3 takes one
candidate per invariant degree m = 6, 8, 12, a rational solution of the
m-th symmetric power (_case3_try).  Every candidate is one linear operator
on polynomials, the recursion of Ulmer and Weil:
P_n = -P, P_{i-1} = -S P_i' + ((n - i) S' - S theta) P_i
- (n - i)(i + 1) S^2 r P_{i+1}, at n = 1 (case 1), 2 (case 2) and m
(case 3), with one S = prod (w - c)^ceil(order/2) over the poles c for
every candidate of the decision (_Sweep).  S drops out of
Q_i = P_i / S^(n-i), as Q_{i-1} = -Q_i' - theta Q_i
- (n - i)(i + 1) r Q_{i+1} and P_{-1} = S^(n+1) Q_{-1}: -Q_{-1}
is case 1's P'' + 2 theta P' + (theta' + theta^2 - r) P at n = 1, and
Q_{-1} case 2's equation for the symmetric square at n = 2.  In general
V_j = (-1)^(j+1) Q_{n-j} exp(int theta) has V_0 = P exp(int theta) and
V_{j+1} = V_j' - j(n - j + 1) r V_{j-1}, so V_{n+1} is the n-th symmetric
power applied to V_0: at n = m, case 3's test for an invariant.  A
candidate succeeds when P_{-1} = 0 has a nonzero solution of degree <= d:
the kernel vector, over the monomials w^j, j <= d, monic at the first w^j
whose image depends on those below it.  That vector is found in GF(p) at
a few primes, for each automorphism of the field of the input's
coefficients, lifted by CRT and rational reconstruction, and certified by
one exact run of the recursion on it (_recursion); no elimination runs
over the field.  That run packs each input once over one integer
denominator, as integer numerators per radicand, and works on those
alone: a product is one integer convolution per pair of radicands and a
sum scales each side by its cofactor of the lcm of the denominators, so
no field element is built and no coefficient is reduced by a gcd until
P_{-1} goes back to a Poly.  Case 1 also checks its omega = theta + P'/P
by the Riccati equation omega' + omega^2 = r, as a polynomial identity in
Poly arithmetic on r itself (_riccati_holds), so the two certificates
share no arithmetic.

Every decision is exact: poles, exponents and truncated square roots are
field elements.  When a factor of the pole polynomial does not split over
the field, or an exponent or leading-coefficient root is not in it, the
decision ends as "indeterminate" with a log line naming what could not be
made exact.

The GF(p) images are taken at primes p at which -1 and every prime factor
of the input's radicands are squares and which divide no coefficient
denominator of the input: the coefficient matrix maps to GF(p) by a ring
homomorphism, and full rank mod p implies full rank over the field, so a
"no kernel" answer mod p is a rigorous rejection (_kernel_poly).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .field import (FE, ONE, ZERO, FieldElement, _radical_mul, _reduce,
                    _rational_square_root, field_sqrt, radical_generators,
                    radical_span)
from .poly import Poly, RationalFunction, exact_roots, partial_fractions

HALF = FE(Fraction(1, 2))


class _Inexact(Exception):
    """A root that the decision needs is not in the field."""


# ---------------------------------------------------------------------------
# pole profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pole:
    point: FieldElement
    order: int
    principal: tuple         # principal[j] multiplies (w-point)**-(order-j)

    @property
    def b(self):
        """Coefficient of (w-point)**-2 (meaningful for order >= 2)."""
        return self.principal[self.order - 2]


@dataclass(frozen=True)
class PoleProfile:
    poles: tuple              # sorted by complex position
    o_inf: int                # deg den - deg num
    poly_part: Poly           # polynomial part of r
    res_sum: FieldElement     # coefficient of w**-1 in the expansion at oo
    b_inf: FieldElement       # lim w^2 r (zero element when o_inf > 2)


def _sort_key(point: FieldElement):
    z = point.to_complex()
    return (z.real, z.imag)


def pole_profile(r: RationalFunction) -> PoleProfile:
    """Poles with principal parts, and the behaviour at infinity.

    Raises _Inexact when a factor of the denominator does not split over
    the field."""
    if r.is_zero():
        return PoleProfile(poles=(), o_inf=r.order_at_infinity(),
                           poly_part=Poly([]), res_sum=ZERO, b_inf=ZERO)
    roots, solved = exact_roots(r.den)
    if not solved:
        rest = r.den
        for root, mult in roots:
            rest = rest.exact_div(Poly([-root, ONE]) ** mult)
        rest = rest.exact_div(rest.gcd(rest.derivative()))
        raise _Inexact(f"poles: the factor {rest!r} of the denominator "
                       "does not split over the field")
    poly_part, ladders = partial_fractions(r, roots=roots)
    poles = tuple(sorted(
        (Pole(point=pole, order=order, principal=tuple(ladder))
         for pole, order, ladder in ladders),
        key=lambda p: _sort_key(p.point)))
    o_inf = r.order_at_infinity()
    res_sum = ZERO
    for p in poles:
        res_sum = res_sum + p.principal[p.order - 1]
    b_inf = r.num.lc() if o_inf == 2 else ZERO      # den is monic
    return PoleProfile(poles=poles, o_inf=o_inf, poly_part=poly_part,
                       res_sum=res_sum, b_inf=b_inf)


# ---------------------------------------------------------------------------
# result container
# ---------------------------------------------------------------------------

@dataclass
class KovacicResult:
    verdict: str               # liouvillian | not_liouvillian | indeterminate
    case: int | None = None
    group: str = "SL(2,C)"
    d: int | None = None
    n: int | None = None       # Kovacic's n for case 3: 4, 6 or 12
    omega: str | None = None
    certificate: str | None = None   # "exact" on success
    log: list = field(default_factory=list)

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _fe_int(x):
    """Integer value of a FieldElement, or None."""
    return x.num.get(1, 0) if x.den == 1 and x.is_rational() else None


def _degrees(inf_set, pole_sets, scale):
    """(e_inf, combo, d) for every choice of an integer exponent e_inf at
    infinity and one per pole, in ascending order, for which
    d = scale * (e_inf - sum(combo)) is a non-negative integer."""
    pole_lists = [sorted(s) for s in pole_sets]
    num, den = scale.numerator, scale.denominator
    for e_inf in sorted(inf_set):
        for combo in itertools.product(*pole_lists):
            d, rest = divmod(num * (e_inf - sum(combo)), den)
            if not rest and d >= 0:
                yield e_inf, combo, d


# ---------------------------------------------------------------------------
# case 1
# ---------------------------------------------------------------------------

def _exponents(b, where):
    """The exponents (1 +- sqrt(1 + 4b))/2 at a pole of order 2 or at an
    infinity of order 2, without repeats."""
    x = 1 + 4 * b
    s = field_sqrt(x)
    if s is None:
        raise _Inexact(f"case 1: sqrt(1 + 4b) = sqrt({x!r}) at {where} is "
                       "not in the field")
    ap, am = (1 + s) * HALF, (1 - s) * HALF
    return [ap] if ap == am else [ap, am]


def _truncated_sqrt(coef, k, lo, where):
    """Truncated square root sum a_i x^i, i = lo..k, of a Laurent series
    sum coef(m) x^m whose leading term is x^(2k).

    x is 1/(w-c) at a pole (lo = 2) and w at infinity (lo = 0).  The a_i
    match coef(m) for m = 2k down to k + lo; b is the coefficient of
    x^(k+lo-1) in the series minus the square.  Returns ([a_lo..a_k], b,
    a_k); raises _Inexact when a_k is not in the field."""
    lead = coef(2 * k)
    a_k = field_sqrt(lead)
    if a_k is None:
        raise _Inexact(f"case 1: the leading coefficient {lead!r} at {where} "
                       "has no square root in the field")
    inv2a = (2 * a_k).inverse()
    a = {k: a_k}
    for m in range(2 * k - 1, k + lo - 2, -1):
        # the unknown a_{m-k} appears as 2 a_k a_{m-k}; everything else
        # in the ordered convolution sum is already known
        i = m - k
        conv = ZERO
        for j1 in range(i + 1, k):
            if i < m - j1 < k:
                conv = conv + a[j1] * a[m - j1]
        if i < lo:
            b = coef(m) - conv
        else:
            a[i] = (coef(m) - conv) * inv2a
    return [a[i] for i in range(lo, k + 1)], b, a_k


def _case1_pole_options(pole: Pole, quotient: Poly):
    """[(S*theta_c, alpha)] for one pole c of order 1, 2 or even >= 4
    (_case1_try rejects odd orders >= 3 first): theta_c = alpha/(w-c),
    plus +-sum a_i/(w-c)^i, i = 2..k, at order 2k >= 4.  quotient is
    S/(w-c), which (w-c)^(k-1) divides."""
    c = pole.point
    if pole.order == 1:
        return [(quotient, ONE)]
    if pole.order == 2:
        return [(quotient.scale(alpha), alpha)
                for alpha in _exponents(pole.b, f"the pole {c!r}")]
    k = pole.order // 2
    # coefficient of (w-c)^-m
    r_m = dict(zip(range(pole.order, 0, -1), pole.principal))
    coeffs, b, a_k = _truncated_sqrt(r_m.__getitem__, k, 2, f"the pole {c!r}")
    ratio = b * a_k.inverse()
    sqrt_part, q = Poly([]), quotient
    for cf in coeffs:                     # a_i S/(w-c)^i, i = 2..k
        q = q.exact_div(Poly([-c, ONE]))
        sqrt_part = sqrt_part + q.scale(cf)
    return [(quotient.scale(alpha) + sign * sqrt_part, alpha)
            for sign, alpha in ((1, (ratio + k) * HALF),
                                (-1, (k - ratio) * HALF))]


def _case1_inf_options(profile: PoleProfile):
    """[(tail Poly, alpha)] at infinity, whose order is > 2, 2 or even <= 0
    (_case1_try rejects odd orders <= 2 first)."""
    if profile.o_inf > 2:
        return [(Poly([]), ZERO), (Poly([]), ONE)]
    if profile.o_inf == 2:
        return [(Poly([]), alpha)
                for alpha in _exponents(profile.b_inf, "infinity")]
    k = -profile.o_inf // 2

    def coef(m):                       # coefficient of w^m
        return profile.res_sum if m == -1 else profile.poly_part.coeff(m)

    coeffs, b, a_k = _truncated_sqrt(coef, k, 0, "infinity")
    poly = Poly(coeffs)
    ratio = b * a_k.inverse()
    return [(poly, (ratio - k) * HALF), (-poly, (-ratio - k) * HALF)]


def _case1_try(profile, r, sweep, log):
    """Run all case-1 candidates; return KovacicResult on success.  Past
    the two order checks every pole and infinity has an exponent option.
    A candidate's S*theta is the sum of its options' S*theta_c and tail*S,
    on the S of the sweep."""
    if any(p.order % 2 and p.order > 1 for p in profile.poles):
        log.append("case 1: inadmissible (odd pole order > 1)")
        return None
    if profile.o_inf % 2 and profile.o_inf <= 2:
        log.append("case 1: inadmissible (odd order at infinity <= 2)")
        return None
    pole_opts = [_case1_pole_options(p, q)
                 for p, q in zip(profile.poles, sweep.quotients)]
    inf_opts = _case1_inf_options(profile)
    tried = 0
    for tail, a_inf in inf_opts:
        for combo in itertools.product(*pole_opts):
            tried += 1
            dval = a_inf
            for _, alpha in combo:
                dval = dval - alpha
            d = _fe_int(dval)
            if d is None or d < 0:
                continue
            Sth = sum((part for part, _ in combo), tail * sweep.S)
            res = _case1_solve(r, sweep, Sth, d)
            if res is not None:
                log.append(f"case 1: success at d={d}")
                return res
            log.append(f"case 1: candidate d={d} rejected (exact)")
    log.append(f"case 1: {tried} candidates, none admissible")
    return None


def _riccati_holds(r, S, Sth, P):
    """omega' + omega^2 = r for omega = Sth/S + P'/P and a nonzero P, as
    the polynomial identity it is times S^2 P r.den (never 0):
    r.den (S^2 P'' + 2 Sth S P' + (S Sth' - S' Sth + Sth^2) P)
    = r.num S^2 P, in Poly arithmetic on r itself."""
    dP = P.derivative()
    lhs = (S * S * dP.derivative() + (Sth * S * dP).scale(2)
           + (S * Sth.derivative() - S.derivative() * Sth + Sth * Sth) * P)
    return r.den * lhs == r.num * S * S * P


def _case1_solve(r, sweep, Sth, d):
    P = _kernel_poly(sweep.S, Sth, sweep.S2r, 1, d)
    # second certificate, independent of the packed recursion: omega =
    # theta + P'/P re-substituted into the Riccati equation
    if P is None or not _riccati_holds(r, sweep.S, Sth, P):
        return None
    return KovacicResult(verdict="liouvillian", case=1,
                         group="reducible (triangular)", d=d,
                         omega="theta + P'/P with deg P = %d" % P.degree,
                         certificate="exact")


# ---------------------------------------------------------------------------
# case 2
# ---------------------------------------------------------------------------

def _disc_root(b):
    """sqrt(1 + 4b) as (n, d) in lowest terms when b and the root are
    rational, else None."""
    s = _rational_square_root(1 + 4 * b.as_rational()) if b.is_rational() \
        else None
    return None if s is None else (s.numerator, s.denominator)


def _int_candidates(center, steps, root):
    """Integers e = center + t*sqrt(1+4b) for t in steps, which hold 0,
    where root = _disc_root(b).  t*sqrt(1+4b) is an integer only when t = 0
    or sqrt(1+4b) = n/d is rational, and then exactly when d divides t, so
    no irrational root is ever needed."""
    if root is None:
        return {center}
    n, d = root
    return {center + t // d * n for t in steps if t % d == 0}


def _case2_pole_set(pole: Pole, root):
    if pole.order == 2:
        return _int_candidates(2, (2, 0, -2), root)
    return {4 if pole.order == 1 else pole.order}


def _case2_inf_set(profile: PoleProfile, root):
    """b_inf is zero when o(inf) > 2, which gives {0, 2, 4}."""
    if profile.o_inf >= 2:
        return _int_candidates(2, (2, 0, -2), root)
    return {profile.o_inf}


def _case2_try(profile, sweep, log):
    """Run the case-2 candidates; KovacicResult on success.  A GF(p) rank
    rejection is as rigorous as an exact one: both log "rejected (exact)"."""
    if not any(p.order == 2 or (p.order > 2 and p.order % 2 == 1)
               for p in profile.poles):
        log.append("case 2: inadmissible (needs a pole of order 2 or odd > 2)")
        return None
    tried = 0
    for e_inf, combo, d in _degrees(_case2_inf_set(profile, sweep.inf_root),
                                    map(_case2_pole_set, profile.poles,
                                        sweep.roots),
                                    Fraction(1, 2)):
        tried += 1
        P = _kernel_poly(sweep.S, sweep.theta(Fraction(e, 2) for e in combo),
                         sweep.S2r, 2, d)
        if P is not None:
            log.append(f"case 2: success with e_inf={e_inf}, "
                       f"e={list(combo)}, d={d}")
            omega = ("root of omega^2 - phi omega + (phi'/2 + phi^2/2 - r) "
                     "= 0, phi = theta + P'/P, deg P = %d" % P.degree)
            return KovacicResult(verdict="liouvillian", case=2,
                                 group="imprimitive (dihedral)", d=d,
                                 omega=omega, certificate="exact")
        log.append(f"case 2: candidate e_inf={e_inf}, e={list(combo)}, "
                   f"d={d} rejected (exact)")
    log.append(f"case 2: {tried} candidates with integer d >= 0, none admissible")
    return None


# ---------------------------------------------------------------------------
# the GF(p) image of a candidate's recursion
# ---------------------------------------------------------------------------

def _is_prime(n):
    """Trial division: the primes of _get_modp lie near 10^6."""
    return n > 1 and all(n % k for k in range(2, math.isqrt(n) + 1))


def _tonelli(a, p):
    """A square root mod the odd prime p of a nonzero square a (Tonelli-
    Shanks)."""
    a %= p
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2; s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, tt = 0, t
        while tt != 1:
            tt = tt * tt % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


class _ModP:
    """GF(p) image of the field: sqrt(r) maps to the product of fixed
    square roots mod p of r's generators (its prime factors, and -1 when
    r < 0).

    The map is a ring homomorphism on the elements whose generators are
    all squares mod p and whose coefficients have denominators prime to p;
    `fe` is only applied to those."""

    def __init__(self, p):
        self.p = p
        self.roots = {}          # generator -> its fixed square root mod p
        self.radicals = {}       # radicand r -> image of sqrt(r)

    def has_roots(self, gens) -> bool:
        """True when every generator is a nonzero square mod p."""
        p = self.p
        return all(pow(g % p, (p - 1) // 2, p) == 1 for g in gens)

    def _radical(self, r):
        v = self.radicals.get(r)
        if v is None:
            v = 1
            for g in radical_generators(r):
                root = self.roots.get(g)
                if root is None:
                    root = self.roots[g] = _tonelli(g, self.p)
                    assert root * root % self.p == g % self.p
                v = v * root % self.p
            self.radicals[r] = v
        return v

    def fe(self, x: FieldElement, flips=frozenset()) -> int:
        """The image of sigma(x) = N / den, sigma the automorphism that
        flips sqrt(g) for each generator g in flips: the image of the
        integer element N, with the image of sqrt(r) negated when sigma
        flips an odd number of r's generators, times one inverse of den.
        Raises ArithmeticError when p divides den, the lcm of the
        coefficient denominators: such an element has no image, and
        inverting den by Fermat would silently map it to 0."""
        p = self.p
        if x.den % p == 0:
            raise ArithmeticError(f"{p} divides the denominator of {x!r}")
        acc = 0
        for r, n in x.num.items():
            v = n * self._radical(r)
            acc += -v if len(flips & radical_generators(r)) % 2 else v
        return acc * pow(x.den, p - 2, p) % p

    def poly(self, q: Poly, flips=frozenset()):
        return np.array([self.fe(c, flips) for c in q.coeffs], dtype=np.int64)


# i, sqrt3 and sqrt26 of the Dyson inputs: every prime takes roots of these
_BASE_GENERATORS = (-1, 2, 3, 13)
_MODP_CACHE = []    # _ModP of the primes found so far, ascending


def _modp_candidates():
    """_ModP of the primes >= 1000003 at which -1, 2, 3 and 13 are squares,
    ascending."""
    yield from _MODP_CACHE
    n = _MODP_CACHE[-1].p + 2 if _MODP_CACHE else 1_000_003
    while True:
        if _is_prime(n):
            modp = _ModP(n)
            if modp.has_roots(_BASE_GENERATORS):
                _MODP_CACHE.append(modp)
                yield modp
        n += 2


def _get_modp(elements):
    """The _ModP of the primes, ascending, at which every generator of the
    given elements is a square and which divide no coefficient denominator
    of them, so that all of them have an image in GF(p)."""
    gens = frozenset().union(*(x.generators() for x in elements))
    dens = {x.den for x in elements}
    return (modp for modp in _modp_candidates()
            if modp.has_roots(gens) and all(d % modp.p for d in dens))


def _mp_mul_into(out, src, ker):
    """Add to out the product of each row of the stack src (C, rows, W) by
    a polynomial, keeping the width W: ker holds one polynomial per matrix
    (C, K), in ascending coefficients below p.  Each added term is a
    product below p^2."""
    ker = ker[:, :, None, None]
    width = out.shape[-1]
    for k in range(min(ker.shape[1], width)):
        out[..., k:] += ker[:, k] * src[..., :width - k]


def _recursion_modp(S, Sth, S2r, n, d, p):
    """The stack of GF(p) matrices of one candidate, one per automorphism
    of the field (_kernel_poly): row j of matrix c is the image of P_{-1}
    of _recursion for P = w^j and the inputs S[c], Sth[c] = S*theta and
    S2r[c], for j <= d.

    The inputs hold one image per matrix, in ascending coefficients below
    p.  The rows have the fixed width W = d + 1 + (n + 1) a, a =
    max(deg S - 1, deg S*theta, ceil(deg S^2 r/2)), the degree bound of
    P_{-1} plus one: deg P_i <= deg P + (n - i) a, since a step adds
    deg S - 1 or deg S*theta to deg P_i and deg S^2 r to deg P_{i+1} (a is
    deg S - 1 when o(inf) >= 2 and S*theta is a combination of the
    S/(w - c)).  No coefficient of any term lies beyond it, so keeping the
    width drops only zeros."""
    lin = max(S.shape[-1] - 1, Sth.shape[-1])      # terms of (n - i)S' - Sth
    width = d + 1 + (n + 1) * max(lin - 1, S2r.shape[-1] // 2)
    ramp = np.arange(1, width, dtype=np.int64)
    dS = np.zeros((len(S), lin), dtype=np.int64)
    dS[..., :S.shape[-1] - 1] = S[..., 1:] * np.arange(1, S.shape[-1]) % p
    neg_Sth = np.zeros((len(Sth), lin), dtype=np.int64)
    neg_Sth[:, :Sth.shape[-1]] = -Sth % p
    neg_S = -S % p
    cur = np.zeros((len(Sth), d + 1, width), dtype=np.int64)
    diag = np.arange(d + 1)
    cur[:, diag, diag] = p - 1                         # P_n = -P
    prev = np.zeros_like(cur)                          # P_{n+1} = 0
    dcur = np.zeros_like(cur)
    for i in range(n, -1, -1):
        dcur[..., :-1] = cur[..., 1:] * ramp % p
        nxt = np.zeros_like(cur)
        _mp_mul_into(nxt, dcur, neg_S)
        _mp_mul_into(nxt, cur, ((n - i) * dS + neg_Sth) % p)
        _mp_mul_into(nxt, prev, -(n - i) * (i + 1) * S2r % p)
        nxt %= p
        prev, cur = cur, nxt
    return cur


def _pack(q: Poly):
    """q written once over one integer denominator: (den, {r: [n_0, n_1,
    ...]}) with q = sum_r sum_k n_k sqrt(r) w^k / den, den the lcm of the
    coefficients' denominators and every list of the same length."""
    den = math.lcm(*(c.den for c in q.coeffs))
    out = {}
    for k, c in enumerate(q.coeffs):
        for r, m in c.num.items():
            out.setdefault(r, [0] * len(q.coeffs))[k] = m * (den // c.den)
    return den, out


def _packed_derivative(x):
    den, xs = x
    return den, {r: [k * a[k] for k in range(1, len(a))]
                 for r, a in xs.items() if len(a) > 1}


def _packed_mul(x, y):
    """x * y over the product of the denominators: one integer convolution
    per pair of radicands, sqrt(r1) sqrt(r2) = c sqrt(r) by _radical_mul."""
    (dx, xs), (dy, ys) = x, y
    out = {}
    for r1, a in xs.items():
        for r2, b in ys.items():
            c, r = _radical_mul(r1, r2)
            acc = out.setdefault(r, [0] * (len(a) + len(b) - 1))
            for i, u in enumerate(a):
                if u:
                    u *= c
                    for j, v in enumerate(b, i):
                        acc[j] += u * v
    return dx * dy, out


def _packed_sum(*terms):
    """sum m x over the pairs (m, x), m an integer, over the lcm of the
    denominators: each x scales by m times its cofactor of the lcm."""
    den = math.lcm(*(d for _, (d, _) in terms))
    width = max((len(a) for _, (_, xs) in terms for a in xs.values()),
                default=0)
    out = {}
    for m, (d, xs) in terms:
        f = m * (den // d)
        for r, a in xs.items():
            acc = out.setdefault(r, [0] * width)
            for k, v in enumerate(a):
                acc[k] += f * v
    return den, {r: a for r, a in out.items() if any(a)}


def _recursion(S, Sth, S2r, n, P):
    """P_{-1} of the recursion in the module docstring (Sth = S*theta), the
    exact certificate of a lifted kernel vector.  Each input is packed
    once (_pack), and every step is integer convolutions and cofactor
    scalings of the packed numerators, with no field element and no
    coefficient reduced by a gcd; only P_{-1} goes back to a canonical
    Poly."""
    S, S2r, th = _pack(S), _pack(S2r), _pack(Sth)
    dS = _packed_derivative(S)
    cur, prev = _packed_sum((-1, _pack(P))), (1, {})
    for i in range(n, -1, -1):
        lin = _packed_sum((n - i, dS), (-1, th))
        nxt = _packed_sum((-1, _packed_mul(S, _packed_derivative(cur))),
                          (1, _packed_mul(lin, cur)),
                          (-(n - i) * (i + 1), _packed_mul(S2r, prev)))
        prev, cur = cur, nxt
    return _unpack(cur)


def _unpack(x):
    """The Poly of a packed (den, {r: [n_0, n_1, ...]}), each coefficient
    reduced once over den."""
    den, xs = x
    width = max(map(len, xs.values()), default=0)
    return Poly([_reduce({r: a[k] for r, a in xs.items() if a[k]}, den)
                 for k in range(width)])


def _eliminate(A, width, p):
    """Per matrix of the stack A (C, rows, >= width), reduced mod p, the
    first row whose first width entries are a combination over GF(p) of
    those of the rows above it, or rows when there is none, and that row
    when it became zero there (zero for none).

    Fraction-free elimination in row order, each matrix with its own
    pivots: row k, already reduced by the rows above it, is zero exactly
    when it depends on them; otherwise its first nonzero column is its
    pivot, and every later row becomes piv*row - f*row_k (mod p), f the
    later row's entry in that column, so rows are only scaled by nonzero
    pivots and no inverse is needed.  Columns beyond width take the same
    row operations.  A matrix leaves the stack at its first dependent row.
    int64 cannot wrap: entries are reduced below p ~ 10^6 after each row,
    and each term is a product below p^2."""
    count, rows = A.shape[:2]
    first = np.full(count, rows)
    found = np.zeros((count, A.shape[2]), dtype=np.int64)
    live = np.arange(count)          # the matrices with no dependent row yet
    for k in range(rows):
        nonzero = A[:, k, :width] != 0
        dependent = ~nonzero.any(axis=1)
        if dependent.any():
            first[live[dependent]] = k
            found[live[dependent]] = A[dependent, k]
            A, nonzero, live = (x[~dependent] for x in (A, nonzero, live))
            if not live.size:
                break
        sel = np.arange(len(A))
        col = nonzero.argmax(axis=1)
        row = A[:, k]
        f = A[sel, k + 1:, col]
        A[:, k + 1:] = (row[sel, col, None, None] * A[:, k + 1:]
                        - f[:, :, None] * row[:, None, :]) % p
    return first, found


def _first_dependent_row(M, p):
    """Per matrix of the stack M (C, rows, W), the first row that is a
    linear combination over GF(p) of the rows above it, and that
    dependency: (first, deps) with first[c] = rows when all rows of matrix
    c are independent, and otherwise deps[c] the v with sum_j v_j M[c, j]
    = 0, v_j = 0 for j > first[c] and v_first[c] = 1 (deps[c] = 0 for full
    rank).  The first k rows are independent iff k <= first[c], so v is
    the only such dependency.

    _eliminate runs with the identity appended to the rows, so that each
    row carries its combination of the rows of M: at the dependent row
    that combination is the dependency, times the product of the pivots
    above it, which scaling by the inverse of its own entry removes."""
    count, rows, width = M.shape
    eye = np.broadcast_to(np.eye(rows, dtype=np.int64), (count, rows, rows))
    first, found = _eliminate(np.concatenate([M % p, eye], axis=2), width, p)
    deps = found[:, width:]
    dependent = np.flatnonzero(first < rows)
    scale = np.ones(count, dtype=np.int64)
    scale[dependent] = [pow(int(x), -1, p)
                        for x in deps[dependent, first[dependent]]]
    return first, deps * scale[:, None] % p


# ---------------------------------------------------------------------------
# the kernel of a candidate: found mod p, lifted by CRT, certified once
# ---------------------------------------------------------------------------

def _rational(a, m):
    """The fraction x/y = a mod m with |x|, y <= sqrt(m/2), or None: the
    half-extended Euclidean rational reconstruction, unique when it exists
    (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 5)."""
    bound = math.isqrt(m // 2)
    r0, r1, t0, t1 = m, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or math.gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


class _Lift:
    """The kernel vector v of a candidate's matrix, monic at its first
    dependent row k, lifted from its images at several primes.

    Its coordinates lie in the field F that the radicands of the input's
    coefficients generate: v_j = sum_s q_js sqrt(s) over the radicands s
    those span.  An automorphism sigma of F flips the sign of some sqrt(s),
    a character chi_sigma of the span, and is a composition of
    `FieldElement.conj`; F has one per radicand of the span, so Q(sqrt-78)
    has 2, not the 16 sign choices of its generators -1, 2, 3 and 13.
    sigma(v) is the kernel vector of the conjugated input, whose matrix
    mod p (`_ModP.poly` of the input under sigma's flips) gives its
    image, and the orthogonality of characters undoes
    them: q_js = sum_sigma chi_sigma(s) image(sigma(v_j)) / (F's degree
    times the image of sqrt(s)) mod p.

    Mod p the first dependent row is at most k, and it is k with the image
    of v as its dependency unless the prime is unlucky (rows above k lose
    rank).  So a prime at which any automorphism shows a row below the
    largest seen is dropped, and one above it drops every prime kept so
    far.  The kept primes' coordinates are combined by CRT and
    reconstructed as rationals, and a reconstruction is returned once the
    next prime agrees with it; with k = 0 there is nothing to lift, and
    v = (1) is returned at once.  The caller certifies what it returns."""

    def __init__(self, elements):
        span = radical_span(elements)
        gens = frozenset().union(*map(radical_generators, span))
        flips = {0: frozenset()}   # bit i set: sqrt(span[i]) flips -> gens
        for g in sorted(gens):
            bit = sum(1 << i for i, s in enumerate(span)
                      if g in radical_generators(s))
            for mask, conj in list(flips.items()):
                flips.setdefault(mask ^ bit, conj | {g})
        self.span = span
        self.conjugations = list(flips.values())      # the identity first
        self.chi = np.array([[-1 if mask >> i & 1 else 1
                              for i in range(len(span))] for mask in flips],
                            dtype=np.int64)
        self.top, self.mod, self.residues, self.guess = -1, 1, [], None

    def add(self, modp, first, deps):
        """Take one prime's first dependent rows and dependencies, one per
        automorphism in the order of `conjugations`; return v_0..v_{k-1}
        when a reconstruction survives this prime, else None."""
        p = modp.p
        if first.max() > self.top:
            k = int(first.max())
            self.top, self.mod, self.residues, self.guess = (
                k, 1, [0] * (k * len(self.span)), None)
        k = self.top
        if first.min() < k:
            return None
        inv = np.array([pow(len(self.span) * modp._radical(s), -1, p)
                        for s in self.span], dtype=np.int64)
        coords = [int(c) for c in (deps[:, :k].T @ self.chi % p * inv % p).flat]
        guess = self.guess
        if guess is None or any((q.numerator - q.denominator * c) % p
                                for q, c in zip(guess, coords)):
            m, t = self.mod, pow(self.mod, -1, p)
            self.residues = [r + m * ((c - r) * t % p)
                             for r, c in zip(self.residues, coords)]
            self.mod = m * p
            self.guess = guess = self._reconstruct()
            if guess is None or coords:
                return None
        self.guess = None
        size = len(self.span)
        return [FieldElement(dict(zip(self.span, guess[j * size:
                                                      (j + 1) * size])))
                for j in range(k)]

    def _reconstruct(self):
        """The rationals of the combined residues, or None when one has
        none."""
        out = []
        for r in self.residues:
            q = _rational(r, self.mod)
            if q is None:
                return None
            out.append(q)
        return out


def _kernel_poly(S, Sth, S2r, n, d):
    """A nonzero P of degree <= d with P_{-1} = 0 in _recursion, or None.

    Row j of the coefficient matrix is P_{-1} for P = w^j
    (_recursion_modp), and P is its kernel vector monic at the first
    dependent row k, so deg P = k; there is none when the rows up to d are
    independent.  At each prime of _get_modp and each automorphism of
    _Lift, the GF(p) matrix gives the image of that vector's conjugate
    (_first_dependent_row).  Full rank at any of them rejects the candidate
    rigorously (the module docstring); otherwise _Lift lifts the vector,
    and one exact run of the recursion on P certifies it.

    The loop ends.  At every prime the first dependent row is at most the
    true k, because a dependency over the field can be rescaled into one
    that survives reduction at that prime; only finitely many primes are
    unlucky (they divide a nonzero minor of the rows above k).  So either
    the candidate has no kernel and some prime shows full rank, or the CRT
    modulus of the lucky primes grows until reconstruction returns the
    kernel vector, which certifies."""
    coeffs = S.coeffs + Sth.coeffs + S2r.coeffs
    lift = _Lift(coeffs)
    for modp in _get_modp(coeffs):
        # the images of sigma(S), sigma(Sth) and sigma(S2r), one row per
        # automorphism, the identity first
        first, deps = _first_dependent_row(_recursion_modp(
            *(np.array([modp.poly(q, flips) for flips in lift.conjugations])
              for q in (S, Sth, S2r)), n, d, modp.p), modp.p)
        if first.max() > d:
            return None
        vec = lift.add(modp, first, deps)
        if vec is not None:
            P = Poly(vec + [ONE])
            if _recursion(S, Sth, S2r, n, P).is_zero():
                return P


class _Sweep:
    """What the candidates of one decision share: S, the product of
    (w - c)^ceil(order/2) over the poles c so that S^2 r is a polynomial,
    S^2 r, each S/(w - c), and the `_disc_root` of b at each pole of order
    2 and at infinity, for the integer exponents of cases 2 and 3."""

    def __init__(self, profile, r):
        # r.den is monic and split by pole_profile: prod (w - c)^order, so
        # S^2 r = r.num * prod (w - c) over the poles of odd order
        S = odd = Poly([ONE])
        for c in profile.poles:
            lin = Poly([-c.point, ONE])
            S = S * lin ** ((c.order + 1) // 2)
            if c.order % 2:
                odd = odd * lin
        self.S, self.S2r = S, r.num * odd
        self.quotients = [S.exact_div(Poly([-c.point, ONE]))
                          for c in profile.poles]
        self._packed = [_pack(q) for q in self.quotients]
        self.roots = [_disc_root(c.b) if c.order == 2 else None
                      for c in profile.poles]
        self.inf_root = _disc_root(profile.b_inf)

    def theta(self, weights):
        """S*theta for theta = sum e_c/(w - c), one rational e_c per pole,
        summed in integers over the packed S/(w - c) (_pack): e_c = m/n
        scales the numerators of S/(w - c) by m and its denominator by n."""
        return _unpack(_packed_sum(*(
            (e.numerator, (den * e.denominator, xs))
            for e, (den, xs) in zip(map(Fraction, weights), self._packed))))


# ---------------------------------------------------------------------------
# case 3 (finite primitive groups, by their invariants of degree 6, 8, 12)
# ---------------------------------------------------------------------------

# (Kovacic's n, the invariant degree m, the group whose first invariant has
# degree m), in the order tried (Klein)
_CASE3_DEGREES = ((4, 6, "finite primitive (tetrahedral)"),
                  (6, 8, "finite primitive (octahedral)"),
                  (12, 12, "finite primitive (icosahedral)"))


def _case3_try(profile, sweep, log):
    """Decide case 3 by one candidate per invariant degree m = 6, 8, 12;
    KovacicResult on success.

    Once cases 1 and 2 fail, the Galois group G is finite primitive or
    SL(2,C) (Kovacic, J. Symb. Comput. 2, 1986).  The binary tetrahedral
    group has an invariant form of degree 6, the binary octahedral group
    its first at 8 and the binary icosahedral group its first at 12;
    SL(2,C) has none (Klein).  So the first m with an invariant names G,
    and none means SL(2,C).  An invariant of degree m, evaluated at a basis
    of solutions, is a rational solution R of the m-th symmetric power (van
    Hoeij & Weil, J. Pure Appl. Algebra 117-118, 1997), and R = P prod
    (w - c)^m_c with P a polynomial is the recursion at n = m with
    S*theta = sum m_c S/(w - c) (the module docstring).

    The bound.  Case 3 needs every pole of order <= 2 and o(inf) >= 2.  At
    a pole c of order 2 the solutions have the exponents
    (1 +- sqrt(1 + 4b))/2, so R's order there is an exponent of the
    symmetric power, a sum of m of them: m/2 + k sqrt(1 + 4b) with
    |k| <= m/2.  At a simple pole they are 0 and 1, so it is one of 0..m,
    and elsewhere R is analytic.  At infinity the solutions grow like
    w^((1 +- sqrt(1 + 4 b_inf))/2), so R grows like w^e for one of the
    sums m/2 + k sqrt(1 + 4 b_inf), which are 0..m when o(inf) > 2
    (b_inf = 0).  Take m_c the smallest integer sum at each pole (k = 0
    gives m/2) and M the largest at infinity.  Then P = R / prod
    (w - c)^m_c is a polynomial of degree deg R - sum m_c <= M - sum m_c
    = d.  So every invariant of degree m is in the candidate's kernel at
    that d, and d < 0 leaves none.  _kernel_poly rejects a candidate only
    by a GF(p) rank, so a rejection is counted as prescreened."""
    if any(p.order > 2 for p in profile.poles) or profile.o_inf < 2:
        log.append("case 3: inadmissible (pole order > 2 or o(inf) < 2)")
        return None
    for n, m, group in _CASE3_DEGREES:
        steps = range(-m // 2, m // 2 + 1)
        low = [0 if c.order == 1 else min(_int_candidates(m // 2, steps, root))
               for c, root in zip(profile.poles, sweep.roots)]
        top = max(_int_candidates(m // 2, steps, sweep.inf_root))
        d = top - sum(low)
        P = (_kernel_poly(sweep.S, sweep.theta(low), sweep.S2r, m, d)
             if d >= 0 else None)
        if P is not None:
            log.append(f"case 3 (n={n}): success with e_inf={top}, e={low}, "
                       f"d={d} after 1 candidates (0 rejected by the GF(p) "
                       "prescreen)")
            omega = ("root of sum_i S^i P_i omega^i / (m-i)! = 0 from the "
                     "invariant of degree m = %d, deg P = %d" % (m, P.degree))
            return KovacicResult(verdict="liouvillian", case=3, group=group,
                                 d=d, n=n, omega=omega, certificate="exact")
        tried = int(d >= 0)
        log.append(f"case 3 (n={n}): {tried} candidates with integer d >= 0 "
                   f"({tried} rejected by the GF(p) prescreen), none admissible")
    return None


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def kovacic(r: RationalFunction) -> KovacicResult:
    """Full three-case run; all-fail means differential Galois group
    SL(2,C) and no Liouvillian solutions.  A root outside the field ends
    the run as "indeterminate"."""
    log = []
    try:
        profile = pole_profile(r)
        # every pole is exact; "exact=True" keeps the line's format
        log.append(f"poles: {[(str(p.point), p.order) for p in profile.poles]},"
                   f" o(inf)={profile.o_inf}, exact=True")
        sweep = _Sweep(profile, r)
        res = (_case1_try(profile, r, sweep, log)
               or _case2_try(profile, sweep, log)
               or _case3_try(profile, sweep, log))
        if res is not None:
            res.log = log
            return res
    except _Inexact as exc:
        log.append(f"{exc}: verdict indeterminate")
        return KovacicResult(verdict="indeterminate", group="undetermined",
                             log=log)
    log.append("all cases exhausted with exact rejections: group SL(2,C)")
    return KovacicResult(verdict="not_liouvillian", group="SL(2,C)", log=log)


# ---------------------------------------------------------------------------
# Lame sieve
# ---------------------------------------------------------------------------

def lame_sieve(A) -> dict:
    """Necessary-condition sieve for xi'' = (A p(t) + B) xi, A = n(n+1).

    Both roots n of n^2 + n - A = 0 are tested against the three
    classical solvable families: n integer (Lame-Hermite), n + 1/2 a
    non-negative integer (Brioschi-Halphen-Crawford), and
    n + 1/2 in (Z/3 u Z/4 u Z/5) \\ Z (Baldassarri, union reading).
    The intersection reading of the last set equals Z, so subtracting Z
    leaves nothing; the corresponding flag is reported alongside for
    comparison and is identically False.  Flags depend only on A.
    """
    if isinstance(A, FieldElement):
        if not A.is_rational():
            raise ValueError("sieve needs a rational coupling")
        A = A.as_rational()
    A = Fraction(A)
    disc = 1 + 4 * A
    sq = _rational_square_root(disc)
    roots = [] if sq is None else sorted({Fraction(-1 + sq, 2),
                                          Fraction(-1 - sq, 2)})
    lame_hermite = bhc = bald_union = False
    for n in roots:
        m = n + Fraction(1, 2)
        lame_hermite = lame_hermite or n.denominator == 1
        bhc = bhc or (m.denominator == 1 and m >= 0)
        bald_union = bald_union or (
            m.denominator != 1
            and any((k * m).denominator == 1 for k in (3, 4, 5)))
    bald_intersection = False
    return {
        "A": A,
        "disc": disc,
        "index_n": roots,
        "lame_hermite": lame_hermite,
        "brioschi_halphen_crawford": bhc,
        "baldassarri_union": bald_union,
        "baldassarri_intersection": bald_intersection,
        "admissible": lame_hermite or bhc or bald_union,
    }
