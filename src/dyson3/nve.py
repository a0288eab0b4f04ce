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
                    taylor_truncate)
from .poly import Poly, RationalFunction, float_horner


@dataclass(frozen=True)
class VariationalSystem:
    """Linearization J * Hess(H) along the diagonal.

    alpha(q) = d2H/dq1^2 and beta(q) = d2H/dq1 dq2 restricted to
    q1 = q2 = q; the kinetic block is the constant [[2,-1],[-1,2]].
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
        lhs = self.p * self.p * Fraction(1, 4) + self.p.derivative() * Fraction(1, 2) - self.q
        return lhs == self.r


def derive_variational(trunc: TruncatedHamiltonian) -> VariationalSystem:
    """Exact Hessian blocks of the potential along the diagonal."""
    if not trunc.poly.swap_symmetric():
        raise ValueError("truncation is not swap-symmetric")
    pot = trunc.poly.momentum_free()
    d11 = pot.derivative("q1").derivative("q1")
    d12 = pot.derivative("q1").derivative("q2")
    src = "K" if trunc.order <= 3 else "L"
    return VariationalSystem(alpha=d11.diagonal_univariate(),
                             beta=d12.diagonal_univariate(), source=src)


def scalar_nve(vs: VariationalSystem, mode: str) -> ScalarNVE:
    """Decouple the tagged combination: xi = xi1 -+ xi2.

    For the antisymmetric mode xidot = 3(eta1 - eta2), so
    xiddot = -3(alpha - beta) xi; the symmetric mode carries kinetic
    eigenvalue 1 and gives xiddot = -(alpha + beta) xi.
    """
    if mode == "antisymmetric":
        a = (-(vs.alpha - vs.beta)).scale(3)
    elif mode == "symmetric":
        a = -(vs.alpha + vs.beta)
    else:
        raise ValueError(f"unknown mode {mode!r}")
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
    """Rewrite a(phi(t)) as A*p + B using phi = -sqrt3/2 - (3 sqrt3/2) p.

    Only valid for affine a (the cubic truncation).  Returns (A, B) as
    exact tower elements.
    """
    if nve.a.degree > 1:
        raise ValueError("substitution needs an affine coefficient")
    a0 = nve.a.coeff(0)
    a1 = nve.a.coeff(1)
    half_s3 = SQRT3 * FE(Fraction(1, 2))
    big_a = -(SQRT3 * FE(Fraction(3, 2))) * a1
    big_b = a0 - half_s3 * a1
    return big_a, big_b


W_POLY_WDOT2 = Poly([FE(-108), FE(8), FE(-4)])   # wdot^2 = -104 - 4(w-1)^2
W_POLY_WDDOT = Poly([FE(4), FE(-4)])             # wddot = -4(w-1)


def algebrize(nve: ScalarNVE) -> AlgebraizedODE:
    """Change variables t -> w = sqrt26 sinh(2it) + 1 along psi = -3 sqrt3/w.

    With wdot^2 = -104 - 4(w-1)^2 and wddot = -4(w-1) (exact identities in
    the tower), xiddot = a(psi) xi becomes
        xi'' + p(w) xi' + q(w) xi = 0,
        p = wddot/wdot^2,  q = -a(-3 sqrt3/w)/wdot^2,
    and the normal form r = p^2/4 + p'/2 - q.
    """
    if nve.source != "L":
        raise ValueError("algebrization is defined for the quartic NVE")
    w = Poly.x()
    wdot2 = RationalFunction.from_poly(W_POLY_WDOT2)
    wddot = RationalFunction.from_poly(W_POLY_WDDOT)
    psi = RationalFunction(Poly([SQRT3 * FE(-3)]), w)
    a_of_psi = RationalFunction.const(FieldElement())
    pw = RationalFunction.from_poly(Poly([1]))
    for k, c in enumerate(nve.a.coeffs):
        if k > 0:
            pw = pw * psi
        a_of_psi = a_of_psi + pw * c
    p = wddot / wdot2
    q = (-a_of_psi) / wdot2
    r = p * p * Fraction(1, 4) + p.derivative() * Fraction(1, 2) - q
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
    [t0, t0 + width], or None when the segment does not converge."""
    t = t0 + 0.5 * width * (_TAU + 1.0)
    y = np.broadcast_to(y0, (_DEG + 1,) + y0.shape)
    for _ in range(_PICARD_ITERS):
        new = y0 + 0.5 * width * (_INTEGRATE @ rhs(t, y))
        update = np.max(np.abs(new - y))
        bound = _TOL * (1.0 + np.max(np.abs(new)))
        y = new
        if not np.isfinite(update):
            return None
        if update <= bound:
            break
    else:
        return None
    coef = _TO_COEF @ y
    if not np.max(np.abs(coef[-3:])) <= bound:
        return None
    return coef


def _chebyshev_picard(rhs, y0, t_end: float):
    """Integrate y' = rhs(t, y) from 0 to t_end; rhs is vectorized,
    rhs(t[k], y[k, d]) -> [k, d].  Segments grow by 1.5x after an accepted
    one and halve after a rejected one; ArithmeticError when a segment
    would fall below _MIN_WIDTH * t_end.  Returns the dense solution:
    t[...] -> y[..., d], the stored Chebyshev series evaluated at t."""
    y0 = np.asarray(y0) + 0.0
    breaks, coefs = [0.0], []
    width = t_end
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


@functools.lru_cache(maxsize=None)
def _base_orbit(source: str, q0: float):
    """Float diagonal force and period of the diagonal orbit through
    (q0, p=0) of the truncation `source` ("K" or "L")."""
    trunc = taylor_truncate(_ORDER[source])
    return float_horner(diagonal_reduce(trunc)), base_period(trunc, q0)


_PERIOD_NODES = 32    # midpoint nodes of base_period


def base_period(trunc: TruncatedHamiltonian, q0: float) -> float:
    """Period of the diagonal orbit of the truncation through (q0, p=0),
    by singularity-removing quadrature of the energy relation.  The other
    turning point is the real root of U - h nearest 0 on the side opposite
    q0.

    With q = q- + span sin^2(theta) the half period is the integral over
    0 <= theta <= pi/2 of an integrand that is smooth, even and pi-periodic
    in theta, so the midpoint rule converges geometrically."""
    u = diagonal_potential(trunc)
    uval = float_horner(u)
    h = uval(q0)
    shifted = [c.to_complex().real for c in u.coeffs][::-1]
    shifted[-1] -= h
    opposite = [r.real for r in np.roots(shifted)
                if abs(r.imag) < 1e-10 and r.real * q0 < 0]
    if not opposite:
        raise ValueError("no opposite turning point")
    qm, qp = sorted((q0, min(opposite, key=abs)))
    span = qp - qm
    dtheta = 0.5 * math.pi / _PERIOD_NODES
    theta = dtheta * (np.arange(_PERIOD_NODES) + 0.5)
    s, c = np.sin(theta), np.cos(theta)
    integrand = 2.0 * span * s * c / np.sqrt(h - uval(qm + span * s * s))
    return float(2.0 * dtheta * np.sum(integrand))


def nve_flow_oracle(nve: ScalarNVE, vs: VariationalSystem, q0: float = 0.1,
                    perturb: float = 0.0):
    """Integrate the 4D variational system and the scalar NVE side by side
    along the numeric diagonal base solution, over one base period, with
    the Chebyshev-Picard integrator; return the max deviation of the scalar
    solution from the tagged combination xi1 + sign * xi2 at 400 points.

    `perturb` adds a constant to the scalar coefficient for the negative
    control experiment.
    """
    alpha, beta = float_horner(vs.alpha), float_horner(vs.beta)
    accel, t_end = _base_orbit(vs.source, q0)
    a_nve = float_horner(nve.a)
    sign = -1.0 if nve.mode == "antisymmetric" else 1.0
    kin = 2.0 - sign      # kinetic eigenvalue of the mode: 3 or 1

    def rhs(t, y):
        q, p, x1, x2, e1, e2, xs, xd = y.T
        a, b = alpha(q), beta(q)
        return np.stack([
            p, accel(q),
            2 * e1 - e2, -e1 + 2 * e2,
            -a * x1 - b * x2, -b * x1 - a * x2,
            xd, (a_nve(q) + perturb) * xs,
        ], axis=-1)

    # start inside the tagged subspace
    x1, e1 = 1.0, 0.3
    x2, e2 = sign * x1, sign * e1
    xs0, xd0 = x1 + sign * x2, kin * (e1 + sign * e2)
    sol = _chebyshev_picard(rhs, [q0, 0.0, x1, x2, e1, e2, xs0, xd0], t_end)
    ys = sol(np.linspace(0.0, t_end, 400))
    return float(np.max(np.abs(ys[:, 2] + sign * ys[:, 3] - ys[:, 6])))


_KINETIC = np.array([[2.0, -1.0], [-1.0, 2.0]])


def monodromy_matrix(vs: VariationalSystem, q0: float = 0.1):
    """Fundamental 4x4 solution over one base period, by the
    Chebyshev-Picard integrator."""
    alpha, beta = float_horner(vs.alpha), float_horner(vs.beta)
    accel, t_end = _base_orbit(vs.source, q0)

    def rhs(t, y):
        q, p = y[:, 0], y[:, 1]
        m = y[:, 2:].reshape(-1, 4, 4)
        x, e = m[:, :2], m[:, 2:]      # position and momentum rows
        a, b = alpha(q)[:, None, None], beta(q)[:, None, None]
        # J Hess H = [[0, K], [-A, 0]] with A = [[a, b], [b, a]]
        dm = np.concatenate((_KINETIC @ e, -a * x - b * x[:, ::-1]), axis=1)
        return np.column_stack((p, accel(q), dm.reshape(-1, 16)))

    y0 = np.concatenate(([q0, 0.0], np.eye(4).ravel()))
    return _chebyshev_picard(rhs, y0, t_end)(t_end)[2:].reshape(4, 4)


def wronskian_drift(nve: ScalarNVE, q0: float = 0.1):
    """Max drift of the Wronskian of two independent scalar solutions at
    300 points of one base period, by the Chebyshev-Picard integrator."""
    accel, t_end = _base_orbit(nve.source, q0)
    a_nve = float_horner(nve.a)

    def rhs(t, y):
        q, p, x1, v1, x2, v2 = y.T
        a = a_nve(q)
        return np.stack([p, accel(q), v1, a * x1, v2, a * x2], axis=-1)

    sol = _chebyshev_picard(rhs, [q0, 0.0, 1.0, 0.0, 0.0, 1.0], t_end)
    ys = sol(np.linspace(0.0, t_end, 300))
    wr = ys[:, 2] * ys[:, 5] - ys[:, 3] * ys[:, 4]
    return float(np.max(np.abs(wr - wr[0])))


def algebrize_gauge_oracle(nve: ScalarNVE) -> float:
    """Consistency of the algebrized normal form with the time-domain NVE.

    Along w(t) = sqrt26 sinh(2it) + 1 the normal-form solution is
    zeta = xi * exp(+(1/2) int p dw), so the logarithmic derivatives obey
        (d/dt log zeta) - (d/dt log xi) = p(w) wdot / 2.
    Both equations are integrated side by side over 0 <= t <= 0.4 with
    matched initial data by the Chebyshev-Picard integrator, and the
    maximal violation of this identity at 80 checkpoints is returned.
    """
    ode = algebrize(nve)
    s26 = 26 ** 0.5

    def wpath(t):
        w = s26 * np.sinh(2j * t) + 1
        wd = 2j * s26 * np.cosh(2j * t)
        return w, wd

    a_nve = float_horner(nve.a)
    p_num, p_den = float_horner(ode.p.num), float_horner(ode.p.den)
    r_num, r_den = float_horner(ode.r.num), float_horner(ode.r.den)
    s3 = 3 ** 0.5

    def rhs(t, y):
        xi, xid, ze, zew = y.T
        w, wd = wpath(t)
        psi = -3 * s3 / w
        rw = r_num(w) / r_den(w)
        return np.stack([xid, a_nve(psi) * xi, zew * wd, rw * ze * wd],
                        axis=-1)

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


def _fe_from_coords(coords) -> FieldElement:
    if len(coords) != len(_TOWER):
        raise ValueError("need 8 coordinates over {1,s3,s26,s78}x{1,i}")
    return FieldElement({r: Fraction(n, d) for r, (n, d) in zip(_TOWER, coords)})


def poly_from_json(data) -> Poly:
    return Poly([_fe_from_coords(c) for c in data])


def rf_from_json(data) -> RationalFunction:
    return RationalFunction(poly_from_json(data["num"]), poly_from_json(data["den"]))
