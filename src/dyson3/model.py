"""The three-particle Dyson model: Hamiltonians, canonical reduction and
exact Taylor truncations around the triangular equilibrium.

Conventions follow the reduced Hamiltonian
    H_reg = p1^2 - p1 p2 + p2^2 - log sin q1 - log sin q2 - log sin(q1+q2)
(no 1/2 on the kinetic form, so qdot1 = 2 p1 - p2).  The equilibrium is
q1 = q2 = pi/3, p = 0; all work happens in the singularity-free cell
0 < q1, q2, q1 + q2 < pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .field import FE, SQRT3
from .multipoly import MultiPoly, cos_series, sin_series, neg_log1p_series
from .poly import Poly


class DomainError(ValueError):
    """State outside the singularity-free configuration cell."""


def in_cell(q1: float, q2: float) -> bool:
    return 0 < q1 < math.pi and 0 < q2 < math.pi and 0 < q1 + q2 < math.pi


def h_reg_eval(q1: float, q2: float, p1: float, p2: float) -> float:
    """Energy of the reduced two-degree system at a phase point."""
    if not in_cell(q1, q2):
        raise DomainError(f"({q1}, {q2}) leaves the cell 0<q1,q2,q1+q2<pi")
    kinetic = p1 * p1 - p1 * p2 + p2 * p2
    return kinetic - math.log(math.sin(q1)) - math.log(math.sin(q2)) \
        - math.log(math.sin(q1 + q2))


def h_full_eval(x, y) -> float:
    """Three-particle Hamiltonian (1/2)sum y^2 - sum log|sin(xi - xj)|."""
    pairs = ((0, 1), (0, 2), (1, 2))
    v = 0.0
    for i, j in pairs:
        s = abs(math.sin(x[i] - x[j]))
        if s == 0:
            raise DomainError("collision configuration")
        v -= math.log(s)
    return 0.5 * sum(t * t for t in y) + v


def canonical_transform(x, y):
    """(x, y) -> (q, p) for the 3-particle chain; exact over Fractions."""
    x1, x2, x3 = x
    y1, y2, y3 = y
    q = (x1 - x2, x2 - x3, x1 + x2 + x3)
    p3 = (y1 + y2 + y3) / 3
    p1 = y1 - p3
    p2 = p3 - y3
    return q, (p1, p2, p3)


def canonical_inverse(q, p):
    q1, q2, q3 = q
    p1, p2, p3 = p
    x2 = (q3 - q1 + q2) / 3
    x1 = x2 + q1
    x3 = x2 - q2
    y1 = p1 + p3
    y2 = -p1 + p2 + p3
    y3 = -p2 + p3
    return (x1, x2, x3), (y1, y2, y3)


def transform_jacobian():
    """Exact 6x6 Jacobian of (x,y) -> (q,p) in the order (q1..q3,p1..p3)."""
    F = Fraction
    rows = [
        [F(1), F(-1), F(0), F(0), F(0), F(0)],
        [F(0), F(1), F(-1), F(0), F(0), F(0)],
        [F(1), F(1), F(1), F(0), F(0), F(0)],
        [F(0), F(0), F(0), F(2, 3), F(-1, 3), F(-1, 3)],
        [F(0), F(0), F(0), F(1, 3), F(1, 3), F(-2, 3)],
        [F(0), F(0), F(0), F(1, 3), F(1, 3), F(1, 3)],
    ]
    return rows


@dataclass(frozen=True)
class TruncatedHamiltonian:
    """Taylor polynomial of H_reg at the equilibrium, in shifted variables
    (q1, q2 now denote q_i - pi/3); the transcendental constant is dropped
    so the value and gradient at 0 vanish."""
    poly: MultiPoly
    order: int

    def potential(self) -> MultiPoly:
        return self.poly.momentum_free()


_S3_INV = SQRT3 * FE(Fraction(1, 3))   # 1/sqrt3 = sqrt3/3


def _shifted_log_sin(arg: MultiPoly, sign_plus: bool) -> MultiPoly:
    """-log sin(pi/3 + arg) or -log sin(2pi/3 + arg), constant dropped.

    sin(pi/3 + x)  = (sqrt3/2)(cos x + (1/sqrt3) sin x)
    sin(2pi/3 + x) = (sqrt3/2)(cos x - (1/sqrt3) sin x)
    """
    c = cos_series(arg)
    s = sin_series(arg)
    u = c - MultiPoly.const(1, arg.cutoff) + s.scale(_S3_INV if sign_plus else -_S3_INV)
    return neg_log1p_series(u)


def taylor_truncate(order: int) -> TruncatedHamiltonian:
    """Exact Taylor polynomial of H_reg at (pi/3, pi/3, 0, 0).

    Built by series composition (angle-addition then log series), so the
    coefficients are exact tower elements.  order=3 gives the cubic
    truncation, order=4 the quartic one.
    """
    if order < 2:
        raise ValueError("truncation order must be >= 2")
    q1 = MultiPoly.var("q1", order)
    q2 = MultiPoly.var("q2", order)
    p1 = MultiPoly.var("p1", order)
    p2 = MultiPoly.var("p2", order)
    kinetic = p1 * p1 - p1 * p2 + p2 * p2
    pot = (_shifted_log_sin(q1, True) + _shifted_log_sin(q2, True)
           + _shifted_log_sin(q1 + q2, False))
    return TruncatedHamiltonian(poly=kinetic + pot, order=order)


def hamiltonian_vector_field(th: TruncatedHamiltonian):
    """(q1dot, q2dot, p1dot, p2dot) as MultiPolys."""
    h = th.poly
    return (h.derivative("p1"), h.derivative("p2"),
            -h.derivative("q1"), -h.derivative("q2"))


def diagonal_reduce(th: TruncatedHamiltonian) -> Poly:
    """Scalar ODE qddot = g(q) on the invariant plane q1=q2, p1=p2.

    Computed as -dH/dq1 restricted to the diagonal (qdot = 2p - p = p on
    the plane, so qddot = pdot).  Requires swap symmetry.
    """
    if not th.poly.swap_symmetric():
        raise ValueError("Hamiltonian is not symmetric under index swap")
    return -th.poly.derivative("q1").momentum_free().diagonal_univariate()


def diagonal_reduce_via_energy(th: TruncatedHamiltonian) -> Poly:
    """Independent route: restrict H to the diagonal, then -U'(q)/2.

    The diagonal energy relation is qdot^2 = h - U(q) with
    U(q) = potential(q, q), so qddot = -U'(q)/2.
    """
    if not th.poly.swap_symmetric():
        raise ValueError("Hamiltonian is not symmetric under index swap")
    u = th.potential().diagonal_univariate()
    du = u.derivative()
    half = FE(Fraction(-1, 2))
    return du.scale(half)


def diagonal_potential(th: TruncatedHamiltonian) -> Poly:
    """U(q) with qdot^2 = h - U(q) on the invariant plane."""
    return th.potential().diagonal_univariate()


def qddot_exact(q: float) -> float:
    """pdot = cot q + cot 2q for the untruncated diagonal system."""
    return 1 / math.tan(q) + 1 / math.tan(2 * q)
