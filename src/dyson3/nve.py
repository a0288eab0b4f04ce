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

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.integrate import solve_ivp

from .field import FieldElement, FE, SQRT3
from .model import TruncatedHamiltonian, diagonal_reduce, diagonal_potential
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

def base_period(trunc: TruncatedHamiltonian, q0: float) -> float:
    """Period of the diagonal orbit of the truncation through (q0, p=0),
    by singularity-removing quadrature of the energy relation."""
    u = diagonal_potential(trunc)
    uval = float_horner(u)
    h = uval(q0)
    # other turning point: root of u - h on the opposite side of 0
    shifted = [c.to_complex().real for c in u.coeffs][::-1]
    shifted[-1] -= h
    roots = np.roots(shifted)
    real = sorted(r.real for r in roots if abs(r.imag) < 1e-10)
    if q0 > 0:
        qm = max(r for r in real if r < 0 - 1e-14) if any(r < 0 for r in real) else None
        qp = q0
    else:
        qm = q0
        qp = min(r for r in real if r > 0 + 1e-14)
    if qm is None:
        raise ValueError("no opposite turning point")
    span = qp - qm
    nodes, weights = np.polynomial.legendre.leggauss(240)
    theta = 0.25 * math.pi * (nodes + 1.0)
    wts = 0.25 * math.pi * weights
    total = 0.0
    for th, wt in zip(theta, wts):
        s = math.sin(th)
        q = qm + span * s * s
        val = h - uval(q)
        if val <= 0:
            continue
        total += wt * 2.0 * span * s * math.cos(th) / math.sqrt(val)
    return 2.0 * total


def nve_flow_oracle(nve: ScalarNVE, vs: VariationalSystem, q0: float = 0.1,
                    t_end: float | None = None, rtol: float = 1e-12,
                    perturb: float = 0.0):
    """Integrate the 4D variational system and the scalar NVE side by side
    along the numeric diagonal base solution; return the max deviation of
    the scalar solution from the tagged combination.

    `perturb` adds a constant to the scalar coefficient for the negative
    control experiment.
    """
    alpha, beta = float_horner(vs.alpha), float_horner(vs.beta)
    accel = float_horner(diagonal_reduce_poly_cache(vs.source))
    a_nve = float_horner(nve.a)
    sign = -1.0 if nve.mode == "antisymmetric" else 1.0
    kin = 3.0 if nve.mode == "antisymmetric" else 1.0

    def rhs(t, y):
        q, p = y[0], y[1]
        x1, x2, e1, e2 = y[2], y[3], y[4], y[5]
        a, b = alpha(q), beta(q)
        xs, xd = y[6], y[7]
        anve = a_nve(q) + perturb
        return [
            p, accel(q),
            2 * e1 - e2, -e1 + 2 * e2,
            -a * x1 - b * x2, -b * x1 - a * x2,
            xd, anve * xs,
        ]

    # start inside the tagged subspace
    x1, e1 = 1.0, 0.3
    x2, e2 = sign * x1, sign * e1
    if nve.mode == "antisymmetric":
        xs0, xd0 = x1 - x2, kin * (e1 - e2)
    else:
        xs0, xd0 = x1 + x2, kin * (e1 + e2)
    if t_end is None:
        t_end = base_period_cached(vs.source, q0)
    sol = solve_ivp(rhs, (0.0, t_end), [q0, 0.0, x1, x2, e1, e2, xs0, xd0],
                    rtol=rtol, atol=1e-13, dense_output=True, method="DOP853",
                    max_step=t_end / 50)
    ts = np.linspace(0.0, t_end, 400)
    ys = sol.sol(ts)
    if nve.mode == "antisymmetric":
        combo = ys[2] - ys[3]
    else:
        combo = ys[2] + ys[3]
    return float(np.max(np.abs(combo - ys[6])))


_DIAG_CACHE = {}


def diagonal_reduce_poly_cache(source: str) -> Poly:
    from .model import taylor_truncate
    if source not in _DIAG_CACHE:
        order = 3 if source == "K" else 4
        _DIAG_CACHE[source] = diagonal_reduce(taylor_truncate(order))
    return _DIAG_CACHE[source]


_PERIOD_CACHE = {}


def base_period_cached(source: str, q0: float) -> float:
    from .model import taylor_truncate
    key = (source, q0)
    if key not in _PERIOD_CACHE:
        order = 3 if source == "K" else 4
        _PERIOD_CACHE[key] = base_period(taylor_truncate(order), q0)
    return _PERIOD_CACHE[key]


def monodromy_matrix(vs: VariationalSystem, q0: float = 0.1,
                     rtol: float = 1e-12):
    """Fundamental 4x4 solution over one base period."""
    alpha, beta = float_horner(vs.alpha), float_horner(vs.beta)
    accel = float_horner(diagonal_reduce_poly_cache(vs.source))

    def rhs(t, y):
        q, p = y[0], y[1]
        m = y[2:].reshape(4, 4)
        a, b = alpha(q), beta(q)
        jac = np.array([
            [0.0, 0.0, 2.0, -1.0],
            [0.0, 0.0, -1.0, 2.0],
            [-a, -b, 0.0, 0.0],
            [-b, -a, 0.0, 0.0],
        ])
        return np.concatenate(([p, accel(q)], (jac @ m).ravel()))

    t_end = base_period_cached(vs.source, q0)
    y0 = np.concatenate(([q0, 0.0], np.eye(4).ravel()))
    sol = solve_ivp(rhs, (0.0, t_end), y0, rtol=rtol, atol=1e-13,
                    method="DOP853")
    return sol.y[2:, -1].reshape(4, 4)


def wronskian_drift(nve: ScalarNVE, q0: float = 0.1, rtol: float = 1e-12):
    """Max drift of the Wronskian of two independent scalar solutions."""
    accel = float_horner(diagonal_reduce_poly_cache(nve.source))
    a_nve = float_horner(nve.a)

    def rhs(t, y):
        q, p, x1, v1, x2, v2 = y
        a = a_nve(q)
        return [p, accel(q), v1, a * x1, v2, a * x2]

    t_end = base_period_cached(nve.source, q0)
    sol = solve_ivp(rhs, (0.0, t_end), [q0, 0.0, 1.0, 0.0, 0.0, 1.0],
                    rtol=rtol, atol=1e-13, dense_output=True, method="DOP853")
    ts = np.linspace(0.0, t_end, 300)
    ys = sol.sol(ts)
    wr = ys[2] * ys[5] - ys[3] * ys[4]
    return float(np.max(np.abs(wr - wr[0])))


def algebrize_gauge_oracle(nve: ScalarNVE, t_end: float = 0.4) -> float:
    """Consistency of the algebrized normal form with the time-domain NVE.

    Along w(t) = sqrt26 sinh(2it) + 1 the normal-form solution is
    zeta = xi * exp(+(1/2) int p dw), so the logarithmic derivatives obey
        (d/dt log zeta) - (d/dt log xi) = p(w) wdot / 2.
    Both equations are integrated side by side with matched initial data
    and the maximal violation of this identity is returned.
    """
    ode = algebrize(nve)
    s26 = 26 ** 0.5

    def wpath(t):
        w = s26 * cmath.sinh(2j * t) + 1
        wd = 2j * s26 * cmath.cosh(2j * t)
        return w, wd

    a_nve = float_horner(nve.a)
    p_num, p_den = float_horner(ode.p.num), float_horner(ode.p.den)
    r_num, r_den = float_horner(ode.r.num), float_horner(ode.r.den)
    s3 = 3 ** 0.5

    def rhs(t, y):
        xi, xid, ze, zew = y
        w, wd = wpath(t)
        psi = -3 * s3 / w
        rw = r_num(w) / r_den(w)
        return [xid, a_nve(psi) * xi, zew * wd, rw * ze * wd]

    w0, wd0 = wpath(0.0)
    pw0 = p_num(w0) / p_den(w0)
    y0 = [1 + 0j, 0.3 + 0j, 1 + 0j, (0.3 + pw0 * wd0 / 2) / wd0]
    # 80 checkpoints, t_end/80 apart
    ts = t_end * (50 * np.arange(80) + 1) / 4000
    sol = solve_ivp(rhs, (0.0, t_end), y0, t_eval=ts, rtol=1e-12,
                    atol=1e-13, method="DOP853")
    if not sol.success:
        raise ArithmeticError(f"gauge oracle integration failed: {sol.message}")
    worst = 0.0
    for t, (xi, xid, ze, zew) in zip(sol.t, sol.y.T):
        w, wd = wpath(t)
        gap = (zew * wd) / ze - xid / xi
        worst = max(worst, abs(gap - p_num(w) / p_den(w) * wd / 2))
    return float(worst)


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
