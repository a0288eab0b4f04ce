"""The three-particle Dyson model: the canonical reduction and exact Taylor
truncations around the triangular equilibrium.

The full Hamiltonian (1/2) sum y_i^2 - sum_{i<j} log|sin(x_i - x_j)|
reduces, by the linear map of `transform_jacobian`, to the Hamiltonian
    H_reg = p1^2 - p1 p2 + p2^2 - log sin q1 - log sin q2 - log sin(q1+q2)
(no 1/2 on the kinetic form, so qdot1 = 2 p1 - p2).  The equilibrium is
q1 = q2 = pi/3, p = 0; all work happens in the singularity-free cell
0 < q1, q2, q1 + q2 < pi.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .field import FE, ONE, SQRT3, ZERO, FieldElement, field_sqrt
from .poly import Poly


def transform_jacobian():
    """Exact 6x6 Jacobian of the linear map (x, y) -> (q, p), rows in the
    order (q1..q3, p1..p3), columns (x1..x3, y1..y3): q1 = x1 - x2,
    q2 = x2 - x3, q3 = x1 + x2 + x3, p3 = (y1 + y2 + y3)/3, p1 = y1 - p3,
    p2 = p3 - y3.  The report's check truncations.canonical_reduction
    proves from it that H_full = H_reg + (3/2) p3^2."""
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


# H_reg's kinetic form p1^2 - p1 p2 + p2^2: {(e_p1, e_p2): coefficient}.
# The one definition: the canonical check proves it, and every flow reads it
# through kinetic_matrix at call time.
KINETIC = {(2, 0): 1, (1, 1): -1, (0, 2): 1}


def kinetic_matrix() -> list:
    """K = d2T/dp_i dp_j of the quadratic form T = KINETIC, exactly, so
    that qdot = K p: the term c p^e adds c e_i (e_j - [i = j]) to K_ij."""
    return [[sum(c * e[i] * (e[j] - (i == j)) for e, c in KINETIC.items())
             for j in range(2)] for i in range(2)]


def mode_eigenvalue(sign: int):
    """lambda with K (1, sign) = lambda (1, sign): the kinetic eigenvalue of
    the swap mode xi1 + sign xi2, 1 for sign = 1 and 3 for sign = -1;
    ValueError when (1, sign) is not an eigenvector of K."""
    (k11, k12), (k21, k22) = kinetic_matrix()
    lam = k11 + sign * k12
    if k21 + sign * k22 != sign * lam:
        raise ValueError(f"(1, {sign}) is not an eigenvector of the "
                         "kinetic matrix")
    return lam


def _neg_log_sin(cot_a: FieldElement, order: int) -> list:
    """[0, f_1, ..., f_order] with -log sin(a + x) = -log sin a + sum f_k x^k.

    cot(a + x) = sum c_n x^n has c_0 = cot a and, from cot' = -1 - cot^2,
    c_{n+1} = -([n = 0] + sum_{i<=n} c_i c_{n-i}) / (n + 1); -log sin has
    derivative -cot, so f_k = -c_{k-1} / k.
    """
    c = [cot_a]
    for n in range(order - 1):
        c.append(-(int(n == 0) + sum(c[i] * c[n - i] for i in range(n + 1)))
                 / (n + 1))
    return [ZERO] + [-c[k - 1] / k for k in range(1, order + 1)]


@dataclass(frozen=True)
class TruncatedHamiltonian:
    """Taylor polynomial of H_reg at the equilibrium, in shifted variables
    (q1, q2 now denote q_i - pi/3), with the transcendental constant
    dropped.  f is the series of -log sin(pi/3 + x) to the truncation's
    order; as sin(2pi/3 + x) = sin(pi/3 - x), the potential is
    f(q1) + f(q2) + f(-q1 - q2), and the kinetic form is KINETIC."""
    f: Poly
    order: int

    def potential_coeffs(self) -> dict:
        """{(e_q1, e_q2): coefficient} of the potential's nonzero terms:
        C(k, j) (-1)^k f_k for q1^j q2^(k-j), plus f_k when j = 0 or j = k."""
        out = {}
        for k, fk in enumerate(self.f.coeffs):
            for j in range(k + 1):
                c = math.comb(k, j) * (-1) ** k * fk + (
                    fk if j in (0, k) else ZERO)
                if not c.is_zero():
                    out[(j, k - j)] = c
        return out


@functools.lru_cache(maxsize=None)
def taylor_truncate(order: int) -> TruncatedHamiltonian:
    """Exact Taylor polynomial of H_reg at (pi/3, pi/3, 0, 0); its
    coefficients are exact tower elements, from cot(pi/3) = 1/sqrt3.
    order=3 gives the cubic truncation, order=4 the quartic one.
    """
    if order < 2:
        raise ValueError("truncation order must be >= 2")
    return TruncatedHamiltonian(f=Poly(_neg_log_sin(SQRT3 / 3, order)),
                                order=order)


def diagonal_reduce(th: TruncatedHamiltonian) -> Poly:
    """Scalar ODE qddot = g(q) on the invariant plane q1=q2, p1=p2.

    Computed as -dH/dq1 = f'(-q1 - q2) - f'(q1) restricted to the diagonal
    (qdot = 2p - p = p on the plane, so qddot = pdot).
    """
    df = th.f.derivative()
    return df.dilate(-2) - df


def diagonal_reduce_via_energy(th: TruncatedHamiltonian) -> Poly:
    """Independent route: restrict H to the diagonal, then -U'(q)/2.

    The diagonal energy relation is qdot^2 = h - U(q) with
    U(q) the potential at q1 = q2 = q, so qddot = -U'(q)/2.
    """
    return diagonal_potential(th).derivative().scale(FE(Fraction(-1, 2)))


def diagonal_potential(th: TruncatedHamiltonian) -> Poly:
    """U(q) = 2 f(q) + f(-2q) with qdot^2 = h - U(q) on the invariant
    plane."""
    return th.f.scale(2) + th.f.dilate(-2)


# -- particular solutions, read off the diagonal U = u2 q^2 + u3 q^3 + u4 q^4

@dataclass(frozen=True)
class PoleSolution:
    """psi = alpha/w, w = 1 + rho sin(omega t), where 1/psi = y0 +
    y1 sin(omega t), alpha = 1/y0 and rho = y1/y0.  As polynomials in w,
    wdot^2 = omega^2 rho^2 - omega^2 (w-1)^2 and wddot = -omega^2 (w-1)."""
    omega: FieldElement
    y0: FieldElement
    y1: FieldElement
    alpha: FieldElement
    rho: FieldElement
    wdot2: Poly
    wddot: Poly

    def along(self, p: Poly) -> Poly:
        """w^n p(alpha/w) for n = deg p, the numerator of p(psi) over w^n:
        its w^(n-k) coefficient is p_k alpha^k."""
        out, power = [], ONE
        for c in p.coeffs:
            out.append(c * power)
            power = power * self.alpha
        return Poly(out[::-1])

    def solves(self, force: Poly) -> bool:
        """psiddot = force(psi) exactly.  As psiddot = alpha (2 wdot^2 -
        w wddot)/w^3 and force(psi) = along(force)/w^n, n = deg force, this
        is the polynomial identity, times w^m for m = max(3, n),
            alpha (2 wdot^2 - w wddot) w^(m-3) = along(force) w^(m-n)."""
        w, n = Poly.x(), force.degree
        m = max(3, n)
        lhs = (self.wdot2.scale(2) - w * self.wddot).scale(self.alpha)
        return lhs * w ** (m - 3) == self.along(force) * w ** (m - n)


def _root(x: FieldElement) -> FieldElement:
    """The square root of x in the upper half plane or on the positive
    reals; ArithmeticError when field_sqrt finds none."""
    y = field_sqrt(x)
    if y is None:
        raise ArithmeticError(f"no square root of {x!r} found in the field")
    z = y.to_complex()
    return y if z.imag > 0 or (z.imag == 0 and z.real > 0) else -y


def derive_pole(u: Poly) -> PoleSolution:
    """The zero-level solution of qdot^2 = -U(q) through q = infinity: for
    y = 1/q, ydot^2 = -(u2 y^2 + u3 y + u4) holds along y0 + y1 sin(omega t)
    with omega^2 = u2, y0 = -u3/(2 u2) and y1^2 = (u3^2/(4 u2) - u4)/u2.
    omega and rho are `_root`s; the other rho runs the mirror path w(-t)."""
    u2, u3, u4 = u.coeff(2), u.coeff(3), u.coeff(4)
    y0 = -u3 / (2 * u2)
    y1_squared = (u3 * u3 / (4 * u2) - u4) / u2
    rho = _root(y1_squared / (y0 * y0))
    w1 = Poly([-1, 1])                               # w - 1
    return PoleSolution(_root(u2), y0, rho * y0, 1 / y0, rho,
                        Poly([u2 * rho * rho]) - (w1 * w1).scale(u2),
                        w1.scale(-u2))


@dataclass(frozen=True)
class EllipticSolution:
    """phi = a + b p(t; g2, g3(h)) on the level h of qdot^2 = h - U(q);
    g3 = (U(a) - h)/b^2 is a polynomial in h."""
    a: FieldElement
    b: FieldElement
    g2: FieldElement
    g3: Poly


def derive_elliptic(u: Poly) -> EllipticSolution:
    """q = a + b p in qdot^2 = h - u2 q^2 - u3 q^3 with p'^2 = 4p^3 - g2 p
    - g3: the p^3 terms give b = -4/u3, no p^2 term a = -u2/(3 u3), the
    p terms g2 = (2 u2 a + 3 u3 a^2)/b."""
    u2, u3 = u.coeff(2), u.coeff(3)
    b, a = -4 / u3, -u2 / (3 * u3)
    return EllipticSolution(a, b, (2 * u2 * a + 3 * u3 * a * a) / b,
                            Poly([u(a), -1]).scale(1 / (b * b)))


@functools.lru_cache(maxsize=None)
def pole_solution(trunc: TruncatedHamiltonian) -> PoleSolution:
    """psi of the truncation trunc."""
    return derive_pole(diagonal_potential(trunc))


@functools.lru_cache(maxsize=None)
def elliptic_solution(trunc: TruncatedHamiltonian) -> EllipticSolution:
    """phi of the truncation trunc, a solution when trunc is cubic."""
    return derive_elliptic(diagonal_potential(trunc))
