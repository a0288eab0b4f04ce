"""Kovacic's algorithm for xi'' = r(w) xi over the tower field, plus the
classical solvability sieve for the Lame equation.

The three cases (reducible / dihedral / finite primitive) are run in
order; each produces finitely many candidate degrees d and logarithmic
derivatives theta, and a candidate succeeds only if an auxiliary linear
ODE has a nonzero polynomial solution of degree d.  All decisions are
made exactly whenever the pole locations and the square roots
sqrt(1 + 4b) stay inside Q(sqrt3, sqrt26, i); otherwise the affected
candidates fall back to high-precision numerics and the result is
downgraded to "indeterminate" unless a (numerically verified) solution
is found.

Rejections of large rotation-group candidates are prescreened modulo a
prime p for which 3, 26 and -1 are quadratic residues and which divides no
coordinate denominator of the input: the coefficient matrix maps to GF(p)
by a ring homomorphism, and full column rank mod p implies full column
rank over the tower, so a "no kernel" answer from the prescreen is
rigorous.  Exact elimination runs only when the mod-p
kernel is nonzero.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp
import numpy as np

from .field import FieldElement, FE, _rational_square_root, field_sqrt
from .poly import (EXACT, NumericDomain, Poly, RationalFunction,
                   exact_roots, partial_fractions, poly_complex_roots)


# ---------------------------------------------------------------------------
# pole profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pole:
    point: object            # FieldElement or mpc
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
    res_sum: object           # coefficient of w**-1 in the expansion at oo
    b_inf: object             # lim w^2 r (zero element when o_inf > 2)
    exact: bool


def _sort_key(point, prec=64):
    z = point.to_mpc(prec) if isinstance(point, FieldElement) else mp.mpc(point)
    return (float(mp.re(z)), float(mp.im(z)))


def pole_profile(r: RationalFunction, prec: int = 128) -> PoleProfile:
    """Poles with principal parts, and the behaviour at infinity."""
    if r.is_zero():
        return PoleProfile(poles=(), o_inf=r.order_at_infinity(),
                           poly_part=Poly([], r.num.dom), res_sum=r.num.dom.zero,
                           b_inf=r.num.dom.zero, exact=r.dom.exact)
    exact = r.dom.exact
    if exact and r.den.degree > 0:
        roots, solved = exact_roots(r.den)
        if not solved:
            exact = False
            r = r.to_numeric(prec)
            roots = poly_complex_roots(r.den, prec)
    elif r.den.degree > 0:
        roots = poly_complex_roots(r.den, prec)
    else:
        roots = []
    if roots:
        poly_part, ladders = partial_fractions(r, roots=roots, prec=prec)
    else:
        poly_part, ladders = r.num.divmod(r.den)[0], []
    dom = poly_part.dom
    poles = tuple(sorted(
        (Pole(point=pole, order=order, principal=tuple(ladder))
         for pole, order, ladder in ladders),
        key=lambda p: _sort_key(p.point, prec)))
    o_inf = r.order_at_infinity()
    res_sum = dom.zero
    for p in poles:
        res_sum = res_sum + p.principal[p.order - 1]
    if o_inf == 2:
        b_inf = r.num.lc()         # den is monic
    else:
        b_inf = dom.zero
    return PoleProfile(poles=poles, o_inf=o_inf, poly_part=poly_part,
                       res_sum=res_sum, b_inf=b_inf, exact=exact)


# ---------------------------------------------------------------------------
# result container
# ---------------------------------------------------------------------------

@dataclass
class KovacicResult:
    verdict: str               # liouvillian | not_liouvillian | indeterminate
    case: int | None = None
    group: str = "SL(2,C)"
    d: int | None = None
    n: int | None = None       # rotation order for case 3
    omega: str | None = None
    certificate: str | None = None   # exact | numeric
    residual: float | None = None
    numeric_rejections: int = 0
    log: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "case": self.case,
            "group": self.group,
            "d": self.d,
            "n": self.n,
            "omega": self.omega,
            "certificate": self.certificate,
            "residual": self.residual,
            "numeric_rejections": self.numeric_rejections,
            "log": list(self.log),
        }


# ---------------------------------------------------------------------------
# small exact/numeric helpers
# ---------------------------------------------------------------------------

def _is_exact(x) -> bool:
    return isinstance(x, FieldElement)

def _fe_int(x):
    """Integer value of a FieldElement, or None."""
    if x.is_rational():
        q = x.as_rational()
        if q.denominator == 1:
            return int(q)
    return None


def _num_int(x, tol=1e-8):
    """Integer value of an mpc within tol, or None."""
    v = mp.mpc(x)
    n = int(mp.nint(mp.re(v)))
    if abs(v - n) < tol:
        return n
    return None


def _sqrt_1p4b(b):
    """sqrt(1 + 4b): (value, exact_flag).  Falls back to mpmath."""
    if _is_exact(b):
        s = field_sqrt(FE(1) + 4 * b) if b.is_rational() else None
        if s is not None:
            return s, True
        return mp.sqrt(1 + 4 * b.to_mpc(192)), False
    return mp.sqrt(1 + 4 * mp.mpc(b)), False


def _half(x):
    if _is_exact(x):
        return x * FE(Fraction(1, 2))
    return x / 2


def _as_mpc(x, prec):
    return x.to_mpc(prec) if _is_exact(x) else mp.mpc(x)


# ---------------------------------------------------------------------------
# theta as an unreduced (num, den) pair
# ---------------------------------------------------------------------------

class Theta:
    """Sum of c/(w-pole)**k terms plus a polynomial tail, kept as an
    unreduced num/den pair so that no gcd cancellation is ever needed
    (important in the numeric domain)."""

    def __init__(self, dom, terms, tail=None):
        # terms: list of (coef, pole, k); tail: Poly or None
        self.dom = dom
        self.terms = list(terms)
        self.tail = tail if tail is not None else Poly([], dom)
        den = Poly([dom.one], dom)
        kmax = {}
        for _, pole, k in terms:
            key = id(pole) if not _is_exact(pole) else pole
            kmax[key] = max(kmax.get(key, 0), k)
        self.pole_mults = []
        seen = {}
        for coef, pole, k in terms:
            key = id(pole) if not _is_exact(pole) else pole
            if key not in seen:
                seen[key] = kmax[key]
                self.pole_mults.append((pole, kmax[key]))
        for pole, m in self.pole_mults:
            lin = Poly([-pole, dom.one], dom)
            for _ in range(m):
                den = den * lin
        num = self.tail * den
        for coef, pole, k in terms:
            part = Poly([coef], dom)
            for other, m in self.pole_mults:
                lin = Poly([-other, dom.one], dom)
                mult = m - k if (other is pole or other == pole) else m
                for _ in range(mult):
                    part = part * lin
            num = num + part
        self.num = num
        self.den = den

    def eval(self, x):
        acc = self.tail(x)
        for coef, pole, k in self.terms:
            dx = x - (pole.to_mpc(192) if _is_exact(pole) else pole)
            acc = acc + coef / dx ** k
        return acc


def _div_exact(p: Poly, q: Poly) -> Poly:
    quo, rem = p.divmod(q)
    if p.dom.exact:
        if not rem.is_zero():
            raise ArithmeticError("inexact polynomial division")
    return quo


# ---------------------------------------------------------------------------
# nullspace over a domain
# ---------------------------------------------------------------------------

def _nullspace(rows, ncols, dom, scale=None):
    """Kernel basis of the matrix given as a list of row vectors.

    In the numeric domain `scale` sets the absolute zero threshold
    (entries below dom.tol * scale count as zero); it should be the
    magnitude of the operator coefficients the rows came from, so that a
    uniformly tiny matrix reads as the zero matrix."""
    mat = [list(row) + [dom.zero] * (ncols - len(row)) for row in rows]
    if dom.exact:
        is_zero = dom.is_zero
    else:
        thresh = float(dom.tol) * float(scale if scale else 1.0)
        is_zero = lambda v: dom.abs_estimate(v) <= thresh
    pivots = []
    rank_row = 0
    for col in range(ncols):
        sel = None
        best = -1.0
        for i in range(rank_row, len(mat)):
            if not is_zero(mat[i][col]):
                a = dom.abs_estimate(mat[i][col])
                if a > best:
                    best, sel = a, i
        if sel is None:
            continue
        mat[rank_row], mat[sel] = mat[sel], mat[rank_row]
        piv_inv = dom.inv(mat[rank_row][col])
        mat[rank_row] = [v * piv_inv for v in mat[rank_row]]
        for i in range(len(mat)):
            if i != rank_row and not is_zero(mat[i][col]):
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank_row])]
        pivots.append(col)
        rank_row += 1
        if rank_row == len(mat):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [dom.zero] * ncols
        vec[fc] = dom.one
        for prow, pcol in enumerate(pivots):
            vec[pcol] = -mat[prow][fc]
        basis.append(vec)
    return basis


def _rows_from_polys(polys, dom):
    width = max((p.degree + 1 for p in polys), default=0)
    rows = []
    for k in range(width):
        rows.append([p.coeff(k) for p in polys])
    return rows


# ---------------------------------------------------------------------------
# numeric certificate sampling
# ---------------------------------------------------------------------------

_SAMPLES = [mp.mpc("1.7", "0.3"), mp.mpc("-2.3", "1.1"),
            mp.mpc("0.4", "-1.9"), mp.mpc("3.1", "2.2"),
            mp.mpc("-0.8", "-0.6")]


def _riccati_residual(theta: Theta, P: Poly, r_num, prec=192):
    """max |omega' + omega^2 - r| over sample points, omega = theta + P'/P."""
    dP = P.derivative()
    ddP = dP.derivative()
    res = 0.0
    for pt in _SAMPLES:
        x = pt
        if abs(P(x)) < 1e-8 or abs(theta.den(x)) < 1e-8:
            x = x + mp.mpc("0.137", "0.731")
        th = theta.eval(x)
        nd = theta.den(x)
        thp = (theta.num.derivative()(x) * nd
               - theta.num(x) * theta.den.derivative()(x)) / nd ** 2
        om = th + dP(x) / P(x)
        omp = thp + (ddP(x) * P(x) - dP(x) ** 2) / P(x) ** 2
        val = omp + om * om - r_num(x)
        res = max(res, float(abs(val)))
    return res


# ---------------------------------------------------------------------------
# case 1
# ---------------------------------------------------------------------------

def _truncated_sqrt(coef, k, lo, dom):
    """Truncated square root sum a_i x^i, i = lo..k, of a Laurent series
    sum coef(m) x^m whose leading term is x^(2k).

    x is 1/(w-c) at a pole (lo = 2) and w at infinity (lo = 0).  The a_i
    match coef(m) for m = 2k down to k + lo; b is the coefficient of
    x^(k+lo-1) in the series minus the square.  Returns ([a_lo..a_k], b,
    a_k), or None when a_k cannot be taken in the domain (the caller then
    retries numerically)."""
    lead = coef(2 * k)
    if dom.exact:
        a_k = field_sqrt(lead)
        if a_k is None:
            return None
        inv2a = (2 * a_k).inverse()
    else:
        a_k = mp.sqrt(lead)
        inv2a = 1 / (2 * a_k)
    a = {k: a_k}
    for m in range(2 * k - 1, k + lo - 2, -1):
        # the unknown a_{m-k} appears as 2 a_k a_{m-k}; everything else
        # in the ordered convolution sum is already known
        i = m - k
        conv = dom.zero
        for j1 in range(i + 1, k):
            if i < m - j1 < k:
                conv = conv + a[j1] * a[m - j1]
        if i < lo:
            b = coef(m) - conv
        else:
            a[i] = (coef(m) - conv) * inv2a
    return [a[i] for i in range(lo, k + 1)], b, a_k


def _case1_pole_options(pole: Pole, dom):
    """[(sqrt_part_terms, alpha, exact_flag)] for one pole."""
    c = pole.point
    if pole.order == 1:
        return [([], dom.one if dom.exact else mp.mpc(1), True)]
    if pole.order == 2:
        s, ok = _sqrt_1p4b(pole.b)
        if ok:
            ap = _half(FE(1) + s)
            am = _half(FE(1) - s)
        else:
            ap = (1 + s) / 2
            am = (1 - s) / 2
        opts = [([], ap, ok)]
        if not (ok and ap == am) and not (not ok and abs(ap - am) < 1e-30):
            opts.append(([], am, ok))
        return opts
    if pole.order % 2:
        return []                         # odd order >= 3: case 1 impossible
    k = pole.order // 2
    # coefficient of (w-c)^-m
    r_m = dict(zip(range(pole.order, 0, -1), pole.principal))
    sdom, data = dom, _truncated_sqrt(r_m.__getitem__, k, 2, dom)
    if data is None and dom.exact:
        sdom = NumericDomain(192)
        data = _truncated_sqrt(lambda m: _as_mpc(r_m[m], 192), k, 2, sdom)
    if data is None:
        return []
    coeffs, b, a_k = data
    if sdom.exact:
        ratio = b * a_k.inverse()
        ap = _half(ratio + FE(k))
        am = _half(-ratio + FE(k))
    else:
        ratio = b / a_k
        ap = (ratio + k) / 2
        am = (-ratio + k) / 2
    out = []
    for sgn, alpha in ((1, ap), (-1, am)):
        terms = [(cf if sgn > 0 else -cf, c, i + 2)
                 for i, cf in enumerate(coeffs)]
        out.append((terms, alpha, sdom.exact))
    return out


def _case1_inf_options(profile: PoleProfile, dom):
    """[(tail Poly or None, alpha, exact_flag)] at infinity."""
    if profile.o_inf > 2:
        one = dom.one if dom.exact else mp.mpc(1)
        zero = dom.zero if dom.exact else mp.mpc(0)
        return [(None, zero, True), (None, one, True)]
    if profile.o_inf == 2:
        s, ok = _sqrt_1p4b(profile.b_inf)
        if ok:
            ap, am = _half(FE(1) + s), _half(FE(1) - s)
        else:
            ap, am = (1 + s) / 2, (1 - s) / 2
        opts = [(None, ap, ok)]
        if not (ok and ap == am) and not (not ok and abs(ap - am) < 1e-30):
            opts.append((None, am, ok))
        return opts
    if profile.o_inf % 2:
        return []                      # odd order < 2: case 1 impossible
    k = -profile.o_inf // 2

    def coef(m):                       # coefficient of w^m
        return profile.res_sum if m == -1 else profile.poly_part.coeff(m)

    sdom, data = dom, _truncated_sqrt(coef, k, 0, dom)
    if data is None and dom.exact:
        sdom = NumericDomain(192)
        data = _truncated_sqrt(lambda m: _as_mpc(coef(m), 192), k, 0, sdom)
    if data is None:
        return []
    coeffs, b, a_k = data
    poly = Poly(coeffs, sdom)
    if sdom.exact:
        ratio = b * a_k.inverse()
        ap = _half(ratio - FE(k))
        am = _half(-ratio - FE(k))
    else:
        ratio = b / a_k
        ap, am = (ratio - k) / 2, (-ratio - k) / 2
    return [(poly, ap, sdom.exact), (-poly, am, sdom.exact)]


def _case1_try(profile, r, dom, prec, log, counters):
    """Run all case-1 candidates; return KovacicResult on success."""
    if any(p.order % 2 and p.order > 1 for p in profile.poles):
        log.append("case 1: inadmissible (odd pole order > 1)")
        return None
    if profile.o_inf % 2 and profile.o_inf <= 2:
        log.append("case 1: inadmissible (odd order at infinity <= 2)")
        return None
    pole_opts = [_case1_pole_options(p, dom) for p in profile.poles]
    inf_opts = _case1_inf_options(profile, dom)
    if any(not o for o in pole_opts) or not inf_opts:
        log.append("case 1: no admissible exponent data")
        return None
    tried = 0
    for inf_choice in inf_opts:
        for combo in itertools.product(*pole_opts):
            tried += 1
            tail, a_inf, inf_exact = inf_choice
            all_exact = inf_exact and all(c[2] for c in combo)
            if all_exact and dom.exact:
                dval = a_inf
                for _, alpha, _e in combo:
                    dval = dval - alpha
                d = _fe_int(dval)
            else:
                dval = _as_mpc(a_inf, prec)
                for _, alpha, _e in combo:
                    dval = dval - _as_mpc(alpha, prec)
                d = _num_int(dval)
                counters["numeric"] += 1
            if d is None or d < 0:
                continue
            res = _case1_solve(profile, r, combo, tail, d,
                               all_exact and dom.exact, prec, log)
            if res is not None:
                log.append(f"case 1: success at d={d}")
                return res
            log.append(f"case 1: candidate d={d} rejected "
                       f"({'exact' if all_exact and dom.exact else 'numeric'})")
            if not (all_exact and dom.exact):
                counters["numeric_reject"] += 1
    log.append(f"case 1: {tried} candidates, none admissible")
    return None


def _case1_solve(profile, r, combo, tail, d, exact, prec, log):
    if exact:
        dom, rr = EXACT, r
        poles = [p.point for p in profile.poles]
    else:
        dom = NumericDomain(prec)
        rr = r.to_numeric(prec) if r.dom.exact else r
        poles = [_as_mpc(p.point, prec) for p in profile.poles]
    terms = []
    for (sqrt_terms, alpha, _e), point in zip(combo, poles):
        a = alpha if exact else _as_mpc(alpha, prec)
        terms.append((a, point, 1))
        for cf, pl, k in sqrt_terms:
            terms.append((cf if exact else _as_mpc(cf, prec),
                          point, k))
    tail_poly = None
    if tail is not None:
        tail_poly = tail if tail.dom == dom else tail.to_numeric(prec)
    theta = Theta(dom, terms, tail_poly)
    N, D = theta.num, theta.den
    # operator multiplied through by Dc = den(r) * D^2
    A2 = rr.den * D * D
    A1 = 2 * N * rr.den * D
    A0 = (N.derivative() * D - N * D.derivative() + N * N) * rr.den \
        - rr.num * D * D
    sys_polys = []
    for j in range(d + 1):
        pj = Poly([dom.zero] * j + [dom.one], dom)
        lhs = A2 * pj.derivative().derivative() + A1 * pj.derivative() + A0 * pj
        sys_polys.append(lhs)
    scale = max((dom.abs_estimate(c) for a in (A2, A1, A0) for c in a.coeffs),
                default=1.0)
    basis = _nullspace(_rows_from_polys(sys_polys, dom), d + 1, dom, scale)
    if not basis:
        return None
    P = Poly(basis[0], dom)
    if P.is_zero():
        return None
    omega_desc = "theta + P'/P with deg P = %d" % P.degree
    if exact:
        theta_rf = RationalFunction(N, D)
        prf = RationalFunction.from_poly(P)
        omega = theta_rf + prf.derivative() / prf
        ok = (omega.derivative() + omega * omega) == rr
        if not ok:
            return None
        return KovacicResult(verdict="liouvillian", case=1,
                             group="reducible (triangular)", d=d,
                             omega=omega_desc, certificate="exact",
                             residual=0.0)
    resid = _riccati_residual(theta, P, lambda x: rr(x), prec)
    if resid > 1e-10:
        return None
    return KovacicResult(verdict="liouvillian", case=1,
                         group="reducible (triangular)", d=d,
                         omega=omega_desc, certificate="numeric",
                         residual=resid)


# ---------------------------------------------------------------------------
# case 2
# ---------------------------------------------------------------------------

def _int_candidates(center, steps, b, exact):
    """Integers e = center + t*sqrt(1+4b) for t in steps: exact when the
    root lies in the tower; otherwise found numerically and, when b is an
    exact element, certified by squaring: (e - center)^2 == t^2 (1 + 4b).
    Returns (set of e, exact_flag)."""
    s, ok = _sqrt_1p4b(b)
    out = set()
    for t in steps:
        if ok:
            e = _fe_int(FE(center) + FE(t) * s)
        else:
            e = _num_int(center + float(t) * mp.mpc(s))
            if e is not None and exact and (
                    FE((e - center) ** 2) != FE(t * t) * (FE(1) + 4 * b)):
                e = None
        if e is not None:
            out.add(e)
    return out, ok


def _case2_pole_set(pole: Pole, exact):
    if pole.order == 1:
        return {4}, True
    if pole.order == 2:
        cands, ok = _int_candidates(2, (2, -2), pole.b, exact)
        cands.add(2)
        return cands, ok
    return {pole.order}, True


def _case2_inf_set(profile: PoleProfile, exact):
    if profile.o_inf > 2:
        return {0, 2, 4}, True
    if profile.o_inf == 2:
        cands, ok = _int_candidates(2, (2, -2), profile.b_inf, exact)
        cands.add(2)
        return cands, ok
    return {profile.o_inf}, True


def _case2_try(profile, r, dom, prec, log, counters):
    if not any(p.order == 2 or (p.order > 2 and p.order % 2 == 1)
               for p in profile.poles):
        log.append("case 2: inadmissible (needs a pole of order 2 or odd > 2)")
        return None
    pole_sets = []
    all_exact = profile.exact
    for p in profile.poles:
        s, ok = _case2_pole_set(p, profile.exact)
        all_exact = all_exact and ok
        if not s:
            log.append("case 2: a pole admits no integer exponent")
            return None
        pole_sets.append(sorted(s))
    inf_set, ok = _case2_inf_set(profile, profile.exact)
    all_exact = all_exact and ok
    if not inf_set:
        log.append("case 2: infinity admits no integer exponent")
        return None
    tried = 0
    for e_inf in sorted(inf_set):
        for combo in itertools.product(*pole_sets):
            num = e_inf - sum(combo)
            if num < 0 or num % 2:
                continue
            d = num // 2
            tried += 1
            res = _case2_solve(profile, r, combo, d, prec, log)
            if res is not None:
                log.append(f"case 2: success with e_inf={e_inf}, "
                           f"e={list(combo)}, d={d}")
                return res
            log.append(f"case 2: candidate e_inf={e_inf}, e={list(combo)}, "
                       f"d={d} rejected "
                       f"({'exact' if profile.exact else 'numeric'})")
            if not profile.exact:
                counters["numeric_reject"] += 1
    log.append(f"case 2: {tried} candidates with integer d >= 0, none admissible")
    return None


def _case2_solve(profile, r, combo, d, prec, log):
    exact = profile.exact
    dom = EXACT if exact else NumericDomain(prec)
    rr = r if r.dom == dom else r.to_numeric(prec)
    half = FE(Fraction(1, 2)) if exact else mp.mpf("0.5")
    terms = [((half * FE(e)) if exact else half * e, p.point, 1)
             for e, p in zip(combo, profile.poles)]
    theta = Theta(dom, terms)
    N, D = theta.num, theta.den
    dr = rr.den
    # common multiple Dc = dr^2 * D^4; all operator coefficients below are
    # polynomials by construction.
    D2, D3, D4 = D * D, D * D * D, D * D * D * D
    N1 = N.derivative() * D - N * D.derivative()          # theta' = N1/D^2
    N2 = N1.derivative() * D2 - N1 * (D2).derivative()    # theta'' = N2/D^4
    nr1 = rr.num.derivative() * dr - rr.num * dr.derivative()  # r' = nr1/dr^2
    A3 = dr * dr * D4
    A2 = 3 * (N * dr * dr * D3)
    A1 = (3 * N1 + 3 * N * N) * dr * dr * D2 - 4 * rr.num * dr * D4
    A0 = (N2 * dr * dr
          + (3 * N * N1 + N * N * N) * dr * dr * D
          - 4 * rr.num * N * dr * D3
          - 2 * nr1 * D4)
    sys_polys = []
    for j in range(d + 1):
        pj = Poly([dom.zero] * j + [dom.one], dom)
        p1 = pj.derivative(); p2 = p1.derivative(); p3 = p2.derivative()
        sys_polys.append(A3 * p3 + A2 * p2 + A1 * p1 + A0 * pj)
    scale = max((dom.abs_estimate(c) for a in (A3, A2, A1, A0)
                 for c in a.coeffs), default=1.0)
    basis = _nullspace(_rows_from_polys(sys_polys, dom), d + 1, dom, scale)
    if not basis:
        return None
    P = Poly(basis[0], dom)
    if P.is_zero():
        return None
    if exact:
        # certificate: re-evaluate the cubic operator on P exactly
        p1 = P.derivative(); p2 = p1.derivative(); p3 = p2.derivative()
        if not (A3 * p3 + A2 * p2 + A1 * p1 + A0 * P).is_zero():
            return None
        cert, resid = "exact", 0.0
    else:
        p1 = P.derivative(); p2 = p1.derivative(); p3 = p2.derivative()
        out = A3 * p3 + A2 * p2 + A1 * p1 + A0 * P
        scale = max((dom.abs_estimate(c) for c in A0.coeffs), default=1.0)
        resid = max((dom.abs_estimate(c) for c in out.coeffs), default=0.0)
        resid = float(resid / max(scale, 1.0))
        if resid > 1e-10:
            return None
        cert = "numeric"
    omega = ("root of omega^2 - phi omega + (phi'/2 + phi^2/2 - r) = 0, "
             "phi = theta + P'/P, deg P = %d" % P.degree)
    return KovacicResult(verdict="liouvillian", case=2,
                         group="imprimitive (dihedral)", d=d,
                         omega=omega, certificate=cert, residual=resid)


# ---------------------------------------------------------------------------
# case 3 (finite primitive groups, n = 4, 6, 12)
# ---------------------------------------------------------------------------

# -- modular prescreen -------------------------------------------------------

def _is_prime(n):
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2; s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _tonelli(a, p):
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
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
    """GF(p) image of the tower: fixed residues for sqrt3, sqrt26, i.

    The map is a ring homomorphism on the elements whose coordinates have
    denominators prime to p; `fe` is only applied to those."""

    def __init__(self, p):
        self.p = p
        self.s3 = _tonelli(3, p)
        self.s26 = _tonelli(26, p)
        self.im = _tonelli(p - 1, p)
        if None in (self.s3, self.s26, self.im):
            raise ValueError("unsuitable prime")
        assert (self.s3 ** 2 % p, self.s26 ** 2 % p, self.im ** 2 % p) \
            == (3, 26, p - 1)
        b = [1, self.s3, self.s26, self.s3 * self.s26 % p]
        self.basis = b + [v * self.im % p for v in b]

    def fe(self, x: FieldElement) -> int:
        acc = 0
        for coord, bas in zip(x.c, self.basis):
            if coord:
                acc += coord.numerator * pow(coord.denominator, self.p - 2,
                                             self.p) * bas
        return acc % self.p

    def poly(self, q: Poly):
        return np.array([self.fe(c) for c in q.coeffs], dtype=np.int64)


_MODP_CACHE = []    # _ModP of the suitable primes found so far, ascending


def _get_modp(elements) -> _ModP:
    """The smallest suitable prime above 10^6 that divides no coordinate
    denominator of the given elements, so that all of them have an image
    in GF(p).  Suitable: p = 1 mod 4, with 3 and 26 squares mod p."""
    dens = {c.denominator for x in elements for c in x.c}
    for modp in _MODP_CACHE:
        if all(d % modp.p for d in dens):
            return modp
    n = _MODP_CACHE[-1].p + 2 if _MODP_CACHE else 1_000_003
    while True:
        if (_is_prime(n) and n % 4 == 1
                and pow(3, (n - 1) // 2, n) == 1
                and pow(26, (n - 1) // 2, n) == 1):
            _MODP_CACHE.append(_ModP(n))
            if all(d % n for d in dens):
                return _MODP_CACHE[-1]
        n += 2


def _mp_mul(A, ker, p):
    """Multiply each row (ascending poly coeffs) by the small poly ker."""
    rows, L = A.shape
    out = np.zeros((rows, L + len(ker) - 1), dtype=np.int64)
    for i, kv in enumerate(ker):
        kv = int(kv) % p
        if kv:
            out[:, i:i + L] = (out[:, i:i + L] + kv * A) % p
    return out


def _mp_deriv(A, p):
    rows, L = A.shape
    if L <= 1:
        return np.zeros((rows, 1), dtype=np.int64)
    mult = np.arange(1, L, dtype=np.int64)
    return (A[:, 1:] * mult) % p


def _mp_pad(A, L):
    if A.shape[1] >= L:
        return A
    out = np.zeros((A.shape[0], L), dtype=np.int64)
    out[:, :A.shape[1]] = A
    return out


def _case3_matrix_modp(Sk, dSk, Sthk, S2rk, n, d, p):
    """Columns of P_{-1} for basis monomials w^j, computed over GF(p)."""
    eye = np.zeros((d + 1, d + 1), dtype=np.int64)
    np.fill_diagonal(eye, p - 1)                       # P_n = -P
    cur = eye
    prev = np.zeros((d + 1, 1), dtype=np.int64)        # P_{n+1} (unused: factor 0)
    for i in range(n, -1, -1):
        t1 = _mp_mul(_mp_deriv(cur, p), (p - Sk) % p, p)
        coef2 = ((n - i) % p) * dSk % p
        ker2 = (coef2 - Sthk) % p
        t2 = _mp_mul(cur, ker2, p)
        c3 = (-(n - i) * (i + 1)) % p
        t3 = _mp_mul(prev, (c3 * S2rk) % p, p)
        L = max(t1.shape[1], t2.shape[1], t3.shape[1])
        nxt = (_mp_pad(t1, L) + _mp_pad(t2, L) + _mp_pad(t3, L)) % p
        prev, cur = cur, nxt
    return cur      # this is P_{-1}


def _modp_has_kernel(M, p):
    """True iff the columns of M (rows = coefficients) are linearly
    dependent over GF(p).  M shape: (d+1, L) rows-per-basis layout."""
    A = M % p
    rows, L = A.shape
    rank = 0
    for col in range(L):
        sel = None
        for i in range(rank, rows):
            if A[i, col]:
                sel = i
                break
        if sel is None:
            continue
        A[[rank, sel]] = A[[sel, rank]]
        inv = pow(int(A[rank, col]), p - 2, p)
        A[rank] = (A[rank] * inv) % p
        for i in range(rows):
            if i != rank and A[i, col]:
                A[i] = (A[i] - A[i, col] * A[rank]) % p
        rank += 1
        if rank == rows:
            break
    return rank < rows


def _case3_recursion_exact(S, Sth, S2r, n, P):
    dom = P.dom
    cur = -P
    prev = Poly([], dom)
    dS = S.derivative()
    for i in range(n, -1, -1):
        nxt = (-(S * cur.derivative())
               + (dS.scale(n - i) - Sth) * cur
               - (S2r * prev).scale((n - i) * (i + 1)))
        prev, cur = cur, nxt
    return cur


def _case3_try(profile, r, dom, prec, log, counters):
    if any(p.order > 2 for p in profile.poles) or profile.o_inf < 2:
        log.append("case 3: inadmissible (pole order > 2 or o(inf) < 2)")
        return None
    exact = profile.exact
    S = Poly([dom.one], dom)
    for p in profile.poles:
        S = S * Poly([-p.point, dom.one], dom)
    S2r_rf = RationalFunction.from_poly(S * S) * r
    if not S2r_rf.is_poly():
        log.append("case 3: S^2 r not polynomial (unexpected)")
        return None
    S2r = S2r_rf.num
    modp = _get_modp(S.coeffs + S2r.coeffs + [p.point for p in profile.poles]
                     ) if exact else None
    for n in (4, 6, 12):
        # exponents e = 6 + (12k/n) sqrt(1+4b), |k| <= n/2
        steps = range(-6, 7, 12 // n)
        pole_sets = [sorted({12} if p.order == 1 else
                            _int_candidates(6, steps, p.b, exact)[0])
                     for p in profile.poles]
        if not all(pole_sets):
            log.append(f"case 3 (n={n}): a pole admits no integer exponent")
            continue
        inf_set = _int_candidates(6, steps, profile.b_inf, exact)[0]
        if not inf_set:
            log.append(f"case 3 (n={n}): infinity admits no integer exponent")
            continue
        tried = screened = 0
        for e_inf in sorted(inf_set):
            for combo in itertools.product(*pole_sets):
                num = Fraction(n, 12) * (e_inf - sum(combo))
                if num.denominator != 1 or num < 0:
                    continue
                d = int(num)
                tried += 1
                # S*theta = (n/12) sum e_c S/(w - c): a polynomial
                Sth = Poly([], dom)
                for e, p in zip(combo, profile.poles):
                    quo = _div_exact(S, Poly([-p.point, dom.one], dom))
                    coef = (FE(Fraction(e * n, 12)) if exact
                            else mp.mpf(e) * n / 12)
                    Sth = Sth + quo.scale(coef)
                if exact:
                    Mk = _case3_matrix_modp(
                        modp.poly(S),
                        _mp_pad_vec(modp.poly(S.derivative()), len(S.coeffs)),
                        _mp_pad_vec(modp.poly(Sth), len(S.coeffs)),
                        modp.poly(S2r), n, d, modp.p)
                    if not _modp_has_kernel(Mk, modp.p):
                        screened += 1
                        continue
                res = _case3_solve(S, Sth, S2r, n, d, dom, exact, prec)
                if res is not None:
                    log.append(f"case 3 (n={n}): success with e_inf={e_inf}, "
                               f"e={list(combo)}, d={d} after {tried} "
                               f"candidates ({screened} rejected by the "
                               "GF(p) prescreen)")
                    return res
                if not exact:
                    counters["numeric_reject"] += 1
                log.append(f"case 3 (n={n}): candidate e_inf={e_inf}, "
                           f"e={list(combo)}, d={d} rejected")
        log.append(f"case 3 (n={n}): {tried} candidates with integer d >= 0 "
                   f"({screened} rejected by the GF(p) prescreen), none admissible")
    return None


def _mp_pad_vec(v, L):
    if len(v) >= L:
        return v
    out = np.zeros(L, dtype=np.int64)
    out[:len(v)] = v
    return out


def _case3_solve(S, Sth, S2r, n, d, dom, exact, prec):
    polys = []
    for j in range(d + 1):
        pj = Poly([dom.zero] * j + [dom.one], dom)
        polys.append(_case3_recursion_exact(S, Sth, S2r, n, pj))
    scale = max((dom.abs_estimate(c) for q in polys for c in q.coeffs),
                default=1.0)
    basis = _nullspace(_rows_from_polys(polys, dom), d + 1, dom, scale)
    if not basis:
        return None
    P = Poly(basis[0], dom)
    if P.is_zero():
        return None
    out = _case3_recursion_exact(S, Sth, S2r, n, P)
    if exact:
        if not out.is_zero():
            return None
        cert, resid = "exact", 0.0
    else:
        resid = max((dom.abs_estimate(c) for c in out.coeffs), default=0.0)
        if resid > 1e-8:
            return None
        cert = "numeric"
    groups = {4: "finite primitive (tetrahedral)",
              6: "finite primitive (octahedral)",
              12: "finite primitive (icosahedral)"}
    omega = ("root of sum_i S^i P_i omega^i / (n-i)! = 0 from the "
             "degree-%d recursion solution" % P.degree)
    return KovacicResult(verdict="liouvillian", case=3, group=groups[n],
                         d=d, n=n, omega=omega, certificate=cert,
                         residual=resid)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def kovacic(r: RationalFunction, prec: int = 128) -> KovacicResult:
    """Full three-case run; all-fail means differential Galois group
    SL(2,C) and no Liouvillian solutions."""
    # numeric-domain polynomial arithmetic runs at the ambient mpmath
    # precision, so pin it for the whole decision run
    with mp.workprec(prec + 64):
        return _kovacic_run(r, prec)


def _kovacic_run(r: RationalFunction, prec: int) -> KovacicResult:
    profile = pole_profile(r, prec)
    log = [f"poles: {[(str(_short(p.point)), p.order) for p in profile.poles]},"
           f" o(inf)={profile.o_inf}, exact={profile.exact}"]
    counters = {"numeric": 0, "numeric_reject": 0}
    dom = EXACT if profile.exact else NumericDomain(prec)
    rr = r if (r.dom.exact == profile.exact) else r.to_numeric(prec)
    for case_fn in (_case1_try, _case2_try, _case3_try):
        res = case_fn(profile, rr, dom, prec, log, counters)
        if res is not None:
            res.log = log
            res.numeric_rejections = counters["numeric_reject"]
            return res
    verdict = "not_liouvillian"
    if counters["numeric_reject"]:
        verdict = "indeterminate"
        log.append(f"{counters['numeric_reject']} candidates rejected only "
                   "numerically: verdict downgraded")
    else:
        log.append("all cases exhausted with exact rejections: group SL(2,C)")
    return KovacicResult(verdict=verdict, group="SL(2,C)",
                         numeric_rejections=counters["numeric_reject"],
                         log=log)


def _short(x):
    if isinstance(x, FieldElement):
        return x
    return mp.nstr(mp.mpc(x), 6)


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
