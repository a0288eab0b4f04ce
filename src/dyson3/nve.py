"""Variational equations along the diagonal particular solutions, their
scalar decoupling, and the algebrization of the quartic-truncation NVE.

The truncated Hamiltonians are swap-symmetric, so along the diagonal both
the symmetric (xi1 + xi2) and antisymmetric (xi1 - xi2) variation
combinations decouple into a scalar equation xiddot = a(q) xi.  The
published analysis prints NVE constants that disagree with the mechanical
derivation from the same linearized systems; both variants are carried
through the Galois analysis ("paper" labels the printed ones, "derived"
the recomputed ones).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .field import FieldElement, FE, SQRT3
from .model import (TruncatedHamiltonian, diagonal_potential, diagonal_reduce,
                    elliptic_solution, kinetic_matrix, mode_eigenvalue,
                    pole_solution, taylor_truncate)
from .poly import Poly, RationalFunction, float_horner


@dataclass(frozen=True)
class VariationalSystem:
    """Linearization J * Hess(H) along the diagonal.

    alpha(q) = d2H/dq1^2 and beta(q) = d2H/dq1 dq2 restricted to
    q1 = q2 = q; the kinetic block is the constant model.kinetic_matrix().
    """
    alpha: Poly
    beta: Poly
    source: str     # "K" or "L"


@dataclass(frozen=True)
class ScalarNVE:
    a: Poly          # xiddot = a(q) xi
    mode: str        # "symmetric" | "antisymmetric"
    source: str      # "K" | "L"
    variant: str     # "derived" | "paper"


@dataclass(frozen=True)
class AlgebraizedODE:
    p: RationalFunction       # xi'' + p xi' + q xi = 0 in w
    q: RationalFunction
    r: RationalFunction       # normal form xi'' = r xi
    variant: str

    def normal_form_identity_holds(self) -> bool:
        """r = p^2/4 + p'/2 - q, as the polynomial identity it is times
        4 b^2 q.den r.den for p = a/b:
        (a^2 + 2(a'b - ab')) q.den r.den = 4 b^2 (q.num r.den + r.num q.den),
        which takes no gcd."""
        (a, b), q, r = (self.p.num, self.p.den), self.q, self.r
        lhs = (a * a + (a.derivative() * b - a * b.derivative()).scale(2)) \
            * (q.den * r.den)
        return lhs == (q.num * r.den + r.num * q.den).scale(4) * (b * b)


def derive_variational(trunc: TruncatedHamiltonian) -> VariationalSystem:
    """Exact Hessian blocks of the potential f(q1) + f(q2) + f(-q1 - q2)
    along the diagonal: alpha = f''(q) + f''(-2q), beta = f''(-2q)."""
    d2f = trunc.f.derivative().derivative()
    beta = d2f.dilate(-2)
    src = "K" if trunc.order <= 3 else "L"
    return VariationalSystem(alpha=d2f + beta, beta=beta, source=src)


# the sign s of each swap mode xi = xi1 + s xi2
_SIGN = {"symmetric": 1, "antisymmetric": -1}


def scalar_nve(vs: VariationalSystem, mode: str) -> ScalarNVE:
    """Decouple the tagged combination xi = xi1 + s xi2 (`_SIGN`).

    (1, s) is an eigenvector of the Hessian block [[alpha, beta],
    [beta, alpha]], with eigenvalue alpha + s beta, and of the kinetic
    matrix, with the mode's eigenvalue lambda (model.mode_eigenvalue).  So
    xidot = lambda (eta1 + s eta2) and xiddot = -lambda (alpha + s beta) xi.
    """
    if mode not in _SIGN:
        raise ValueError(f"unknown mode {mode!r}")
    sign = _SIGN[mode]
    a = (-(vs.alpha + vs.beta.scale(sign))).scale(mode_eigenvalue(sign))
    return ScalarNVE(a=a, mode=mode, source=vs.source, variant="derived")


def paper_nve_k() -> ScalarNVE:
    """NVE reconstructed from the printed Lame data (A,B)=(4,-8/3):
    a(q) = -4 - (8 sqrt3/9) q."""
    a = Poly([FE(-4), SQRT3 * FE(Fraction(-8, 9))])
    return ScalarNVE(a=a, mode="antisymmetric", source="K", variant="paper")


def paper_nve_l() -> ScalarNVE:
    """The printed quartic NVE: a(q) = -(4 + (8 sqrt3/9) q + 24 q^2)."""
    a = Poly([FE(-4), SQRT3 * FE(Fraction(-8, 9)), FE(-24)])
    return ScalarNVE(a=a, mode="symmetric", source="L", variant="paper")


def substitute_elliptic(nve: ScalarNVE):
    """Rewrite a(phi(t)) as A*p + B along the cubic truncation's
    phi = a + b p (`model.elliptic_solution`): A = b a1, B = a(a).

    Only valid for affine a (the cubic truncation).  Returns (A, B) as
    exact tower elements.
    """
    if nve.a.degree > 1:
        raise ValueError("substitution needs an affine coefficient")
    phi = elliptic_solution()
    return phi.b * nve.a.coeff(1), nve.a(phi.a)


@functools.lru_cache(maxsize=None)
def algebrize(nve: ScalarNVE) -> AlgebraizedODE:
    """Change variables t -> w along the quartic truncation's pole solution
    psi = alpha/w, w = 1 + rho sin(omega t) (`model.pole_solution`).  With
    the exact polynomials wdot^2 and wddot in w, xiddot = a(psi) xi becomes
        xi'' + p(w) xi' + q(w) xi = 0,
        p = wddot/wdot^2,  q = -a(alpha/w)/wdot^2,
    and the normal form r = p^2/4 + p'/2 - q.  With P = wddot, D = wdot^2
    and N = w^n a(alpha/w), n = deg a, each is formed as one fraction of
    polynomials, so one gcd reduces it:
        q = -N/(w^n D),  r = (w^n (P^2 + 2(P'D - PD')) + 4DN) / (4 w^n D^2).
    """
    if nve.source != "L":
        raise ValueError("algebrization is defined for the quartic NVE")
    pole = pole_solution()
    big_p, big_d, n, w = pole.wddot, pole.wdot2, nve.a.degree, Poly.x()
    wn = w ** n
    big_n = Poly([])      # sum_k a_k alpha^k w^(n-k), by Horner's rule
    for k in range(n, -1, -1):
        big_n = big_n.scale(pole.alpha) + Poly([nve.a.coeff(k)]) * w ** (n - k)
    p = RationalFunction(big_p, big_d)
    q = RationalFunction(-big_n, wn * big_d)
    dp = (big_p.derivative() * big_d - big_p * big_d.derivative()).scale(2)
    r = RationalFunction(wn * (big_p * big_p + dp) + (big_d * big_n).scale(4),
                         (wn * big_d * big_d).scale(4))
    return AlgebraizedODE(p=p, q=q, r=r, variant=nve.variant)


# -- numeric oracles --------------------------------------------------------

_ORDER = {"K": 3, "L": 4}    # Taylor order of each named truncation

# One Chebyshev-Picard integrator serves every oracle (Clenshaw & Norton,
# Comput. J. 6, 1963; Bai & Junkins, J. Astronaut. Sci. 58, 2011): on each
# segment the solution is the degree-24 polynomial through 25
# Chebyshev-Lobatto nodes, found by Picard iteration y <- y0 + int f(t, y).
_DEG = 24
_TAU = -np.cos(np.pi * np.arange(_DEG + 1) / _DEG)   # ascending on [-1, 1]
_HALF = np.ones(_DEG + 1)
_HALF[[0, -1]] = 0.5
# node values -> Chebyshev coefficients (discrete orthogonality at the nodes)
_TO_COEF = (2.0 / _DEG) * _HALF[:, None] * cheb.chebvander(_TAU, _DEG).T * _HALF
# node values of f -> node values of its integral from -1
_INTEGRATE = cheb.chebvander(_TAU, _DEG + 1) @ (
    cheb.chebint(np.eye(_DEG + 1), lbnd=-1) @ _TO_COEF)
# A segment is accepted when the last Picard update and its last three
# Chebyshev coefficients are below _TOL * (1 + max|y|), no looser than the
# DOP853 at rtol 1e-12, atol 1e-13 that the tests cross-check against.  A
# segment whose Picard iteration has not converged after _PICARD_ITERS
# sweeps is rejected.
_TOL = 1e-14
_PICARD_ITERS = 60
_MIN_WIDTH = 1e-6     # refuse below this fraction of the interval


def _picard_segment(rhs, y0, t0: float, width: float):
    """Chebyshev coefficients [node, component] of the solution on
    [t0, t0 + width], or None when the segment does not converge.  Every
    sweep calls rhs with the same array t of the segment's nodes."""
    t = t0 + 0.5 * width * (_TAU + 1.0)
    integrate = (0.5 * width) * _INTEGRATE
    y = np.broadcast_to(y0, (_DEG + 1,) + y0.shape)
    for _ in range(_PICARD_ITERS):
        new = y0 + integrate @ rhs(t, y)
        update = abs(new - y).max()
        bound = _TOL * (1.0 + abs(new).max())
        y = new
        if not math.isfinite(update):
            return None
        if update <= bound:
            break
    else:
        return None
    coef = _TO_COEF @ y
    if not abs(coef[-3:]).max() <= bound:
        return None
    return coef


def _chebyshev_picard(rhs, y0, t_end: float):
    """Integrate y' = rhs(t, y) from 0 to t_end; rhs is vectorized,
    rhs(t[k], y[k, d]) -> [k, d].  The first segment spans a quarter of the
    interval, which the report's integrations mostly accept; a first segment
    of the full width fails one to three times on each of them.
    Segments grow by 1.5x after an accepted one and halve after a rejected
    one; ArithmeticError when a segment would fall below _MIN_WIDTH * t_end.
    Returns the dense solution: t[...] -> y[..., d], the stored Chebyshev
    series evaluated at t."""
    y0 = np.asarray(y0) + 0.0
    breaks, coefs = [0.0], []
    width = 0.25 * t_end
    with np.errstate(over="ignore", invalid="ignore"):
        while breaks[-1] < t_end:
            t0 = breaks[-1]
            last = width >= t_end - t0
            step = t_end - t0 if last else width
            coef = _picard_segment(rhs, y0, t0, step)
            if coef is None:
                width = 0.5 * step
                if width < _MIN_WIDTH * t_end:
                    raise ArithmeticError(
                        f"Chebyshev-Picard integration failed at t = {t0!r}")
                continue
            coefs.append(coef)
            breaks.append(t_end if last else t0 + step)
            y0 = coef.sum(axis=0)        # the series at tau = 1
            width = 1.5 * step
    edges, series = np.array(breaks), np.array(coefs)

    def solution(t):
        t = np.asarray(t, dtype=float)
        seg = np.clip(np.searchsorted(edges, t, side="right") - 1,
                      0, len(series) - 1)
        lo, hi = edges[seg], edges[seg + 1]
        vander = cheb.chebvander((2.0 * t - lo - hi) / (hi - lo), _DEG)
        return np.einsum("...k,...kd->...d", vander.reshape(t.shape + (-1,)),
                         series[seg])

    return solution


def _per_segment(coefficients):
    """coefficients(t) formed once per segment: every sweep of a segment
    passes the same array t of its nodes (_picard_segment), so a
    coefficient that depends on t alone is kept until t changes."""
    last = [None, None]

    def at(t):
        if last[0] is not t:
            last[:] = t, coefficients(t)
        return last[1]

    return at


@functools.lru_cache(maxsize=None)
def _base_orbit(source: str, q0: float):
    """The diagonal orbit through (q0, p=0) of the truncation `source`
    ("K" or "L") over one period: its dense solution t -> (q, p) by the
    Chebyshev-Picard integrator, and the period.  The variational oracles
    take q(t) from it, so their coefficients depend on t alone."""
    trunc = taylor_truncate(_ORDER[source])
    accel = float_horner(diagonal_reduce(trunc))
    t_end = base_period(trunc, q0)

    def rhs(t, y):
        q, p = y.T
        return np.array([p, accel(q)]).T

    return _chebyshev_picard(rhs, [q0, 0.0], t_end), t_end


def base_period(trunc: TruncatedHamiltonian, q0: float) -> float:
    """Period of the diagonal orbit of the truncation through (q0, p=0),
    by singularity-removing quadrature of the energy relation.  The other
    turning point q1 is the real root nearest 0, on the side opposite q0,
    of D = (U(q) - U(q0))/(q - q0), the quotient of synthetic division by
    q - q0; dividing D by q - q1 the same way leaves R with
    h - U(q) = (q - q-)(q+ - q) R(q), where h = U(q0), {q-, q+} = {q0, q1}
    and R > 0 between them.  So h - U is never formed in floats, where it
    cancels near both turning points.

    With q = q- + span sin^2(theta) the half period is the integral of
    2/sqrt(R(q)) over 0 <= theta <= pi/2, smooth, even and pi-periodic in
    theta, which period.quarter_midpoint takes at 53 bits."""
    # imported here, so that the exact modules load no mpmath
    from .period import quarter_midpoint
    coeffs = [c.to_complex().real for c in diagonal_potential(trunc).coeffs]
    quot = _deflate(coeffs, q0)
    opposite = [r.real for r in np.roots(quot[::-1])
                if abs(r.imag) < 1e-10 and r.real * q0 < 0]
    if not opposite:
        raise ValueError("no opposite turning point")
    q1 = min(opposite, key=abs)
    rest = _deflate(quot, q1)
    qm, qp = sorted((q0, q1))
    span = qp - qm

    def integrand(theta):
        s = math.sin(theta)
        q, r = qm + span * s * s, 0.0
        for c in reversed(rest):
            r = r * q + c
        return 2.0 / math.sqrt(r)

    return float(2 * quarter_midpoint(integrand)[0])


def _deflate(coeffs, root: float):
    """The quotient of the polynomial with ascending float coefficients
    `coeffs` by q - root, by synthetic division; the remainder, the value at
    root, is dropped."""
    quot = [0.0] * (len(coeffs) - 1)
    acc = 0.0
    for k in range(len(coeffs) - 1, 0, -1):
        acc = acc * root + coeffs[k]
        quot[k - 1] = acc
    return quot


def nve_flow_oracle(nve: ScalarNVE, vs: VariationalSystem, q0: float = 0.1,
                    perturb: float = 0.0):
    """Integrate the 4D variational system and the scalar NVE side by side
    along the numeric diagonal base solution (_base_orbit), over one base
    period, with the Chebyshev-Picard integrator; return the max deviation
    of the scalar solution from the tagged combination xi1 + sign * xi2 at
    400 points.

    `perturb` adds a constant to the scalar coefficient for the negative
    control experiment.
    """
    alpha, beta = float_horner(vs.alpha), float_horner(vs.beta)
    orbit, t_end = _base_orbit(vs.source, q0)
    a_nve = float_horner(nve.a)
    sign = _SIGN[nve.mode]
    (k11, k12), (k21, k22) = np.array(kinetic_matrix(), float)
    kin = mode_eigenvalue(sign)

    @_per_segment
    def coefficients(t):
        q = orbit(t)[:, 0]
        return alpha(q), beta(q), a_nve(q) + perturb

    def rhs(t, y):
        x1, x2, e1, e2, xs, xd = y.T
        a, b, c = coefficients(t)
        return np.array([
            k11 * e1 + k12 * e2, k21 * e1 + k22 * e2,
            -a * x1 - b * x2, -b * x1 - a * x2,
            xd, c * xs,
        ]).T

    # start inside the tagged subspace
    x1, e1 = 1.0, 0.3
    x2, e2 = sign * x1, sign * e1
    xs0, xd0 = x1 + sign * x2, kin * (e1 + sign * e2)
    sol = _chebyshev_picard(rhs, [x1, x2, e1, e2, xs0, xd0], t_end)
    ys = sol(np.linspace(0.0, t_end, 400))
    return float(np.max(np.abs(ys[:, 0] + sign * ys[:, 1] - ys[:, 4])))


def monodromy_matrix(vs: VariationalSystem, q0: float = 0.1):
    """Fundamental 4x4 solution over one base period (_base_orbit), by the
    Chebyshev-Picard integrator."""
    alpha, beta = float_horner(vs.alpha), float_horner(vs.beta)
    orbit, t_end = _base_orbit(vs.source, q0)
    kinetic = np.array(kinetic_matrix(), float)

    @_per_segment
    def coefficients(t):
        q = orbit(t)[:, 0]
        return alpha(q)[:, None, None], beta(q)[:, None, None]

    def rhs(t, y):
        m = y.reshape(-1, 4, 4)
        x, e = m[:, :2], m[:, 2:]      # position and momentum rows
        a, b = coefficients(t)
        # J Hess H = [[0, K], [-A, 0]] with A = [[a, b], [b, a]]
        dm = np.concatenate((kinetic @ e, -a * x - b * x[:, ::-1]), axis=1)
        return dm.reshape(-1, 16)

    sol = _chebyshev_picard(rhs, np.eye(4).ravel(), t_end)
    return sol(t_end).reshape(4, 4)


def wronskian_drift(nve: ScalarNVE, q0: float = 0.1):
    """Max drift of the Wronskian of two independent scalar solutions at
    300 points of one base period (_base_orbit), by the Chebyshev-Picard
    integrator."""
    orbit, t_end = _base_orbit(nve.source, q0)
    a_nve = float_horner(nve.a)
    coefficients = _per_segment(lambda t: a_nve(orbit(t)[:, 0]))

    def rhs(t, y):
        x1, v1, x2, v2 = y.T
        a = coefficients(t)
        return np.array([v1, a * x1, v2, a * x2]).T

    sol = _chebyshev_picard(rhs, [1.0, 0.0, 0.0, 1.0], t_end)
    ys = sol(np.linspace(0.0, t_end, 300))
    wr = ys[:, 0] * ys[:, 3] - ys[:, 1] * ys[:, 2]
    return float(np.max(np.abs(wr - wr[0])))


def algebrize_gauge_oracle(nve: ScalarNVE) -> float:
    """Consistency of the algebrized normal form with the time-domain NVE.

    Along the pole solution's w(t) the normal-form solution is
    zeta = xi * exp(+(1/2) int p dw), so the logarithmic derivatives obey
        (d/dt log zeta) - (d/dt log xi) = p(w) wdot / 2.
    Both equations are integrated side by side over 0 <= t <= 0.4 with
    matched initial data by the Chebyshev-Picard integrator, and the
    maximal violation of this identity at 80 checkpoints is returned.
    """
    ode = algebrize(nve)
    pole = pole_solution()
    omega = pole.omega.to_complex().real
    alpha, rho = pole.alpha.to_complex(), pole.rho.to_complex()

    def wpath(t):
        return 1 + rho * np.sin(omega * t), rho * omega * np.cos(omega * t)

    a_nve = float_horner(nve.a)
    p_num, p_den = float_horner(ode.p.num), float_horner(ode.p.den)
    r_num, r_den = float_horner(ode.r.num), float_horner(ode.r.den)

    @_per_segment
    def coefficients(t):
        w, wd = wpath(t)
        return a_nve(alpha / w), wd, r_num(w) / r_den(w) * wd

    def rhs(t, y):
        a, wd, rwd = coefficients(t)
        xi, xid, ze, zew = y.T
        return np.array([xid, a * xi, zew * wd, rwd * ze]).T

    w0, wd0 = wpath(0.0)
    pw0 = p_num(w0) / p_den(w0)
    y0 = [1 + 0j, 0.3 + 0j, 1 + 0j, (0.3 + pw0 * wd0 / 2) / wd0]
    t_end = 0.4
    # 80 checkpoints, t_end/80 apart
    ts = t_end * (50 * np.arange(80) + 1) / 4000
    xi, xid, ze, zew = _chebyshev_picard(rhs, y0, t_end)(ts).T
    w, wd = wpath(ts)
    gap = (zew * wd) / ze - xid / xi
    return float(np.max(np.abs(gap - p_num(w) / p_den(w) * wd / 2)))


# -- serialization ------------------------------------------------------------

# radicands of the JSON coordinates: the basis {1,s3,s26,s78}x{1,i}
_TOWER = (1, 3, 26, 78, -1, -3, -26, -78)


def _fe_coords(x: FieldElement):
    """The reduced [numerator, denominator] of each tower coordinate."""
    if not set(x.num) <= set(_TOWER):
        raise ValueError(f"{x!r} lies outside Q(sqrt3, sqrt26, i)")
    coords = []
    for r in _TOWER:
        n = x.num.get(r, 0)
        g = math.gcd(n, x.den)
        coords.append([n // g, x.den // g])
    return coords


def _poly_json(p: Poly):
    return [_fe_coords(c) for c in p.coeffs]


def _rf_json(f: RationalFunction):
    return {"num": _poly_json(f.num), "den": _poly_json(f.den)}


def scalar_nve_json(nve: ScalarNVE) -> dict:
    return {
        "a": _poly_json(nve.a),
        "mode": nve.mode,
        "source": nve.source,
        "variant": nve.variant,
        "basis": "rational coords over {1,s3,s26,s78}x{1,i}",
    }


def algebraized_json(ode: AlgebraizedODE) -> dict:
    return {
        "p": _rf_json(ode.p),
        "q": _rf_json(ode.q),
        "r": _rf_json(ode.r),
        "variant": ode.variant,
        "basis": "rational coords over {1,s3,s26,s78}x{1,i}",
    }
