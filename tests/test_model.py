"""Canonical reduction and exact Taylor truncations."""
import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from dyson3 import model
from dyson3.field import FE, SQRT3, FieldElement
from dyson3.model import (KINETIC, TruncatedHamiltonian, derive_pole,
                          diagonal_potential, diagonal_reduce,
                          diagonal_reduce_via_energy, kinetic_matrix,
                          mode_eigenvalue, taylor_truncate,
                          transform_jacobian)
from dyson3.poly import Poly


def qddot_exact(q: float) -> float:
    """pdot = cot q + cot 2q for the untruncated diagonal system."""
    return 1 / math.tan(q) + 1 / math.tan(2 * q)


def _reduce(x, y):
    """(x, y) -> (q, p) by the Jacobian of the linear reduction."""
    J = transform_jacobian()
    v = list(x) + list(y)
    out = [sum(J[row][k] * v[k] for k in range(6)) for row in range(6)]
    return out[:3], out[3:]


def test_canonical_transform_roundtrip():
    """The reduction inverts exactly: x2 = (q3 - q1 + q2)/3, x1 = x2 + q1,
    x3 = x2 - q2, y1 = p1 + p3, y2 = p2 - p1 + p3, y3 = p3 - p2."""
    F = Fraction
    x, y = (F(3, 10), F(-1, 10), F(6, 5)), (F(1, 2), F(-1, 5), F(7, 10))
    (q1, q2, q3), (p1, p2, p3) = _reduce(x, y)
    x2 = (q3 - q1 + q2) / 3
    assert (x2 + q1, x2, x2 - q2) == x
    assert (p1 + p3, p2 - p1 + p3, p3 - p2) == y


def test_transform_is_canonical():
    """J S J^T = S: the reduction preserves the symplectic form exactly."""
    J = transform_jacobian()
    n = 6

    def s(i, j):
        if j == i + 3:
            return Fraction(1)
        if i == j + 3:
            return Fraction(-1)
        return Fraction(0)

    for a in range(n):
        for b in range(n):
            acc = Fraction(0)
            for i in range(n):
                for j in range(n):
                    acc += J[a][i] * s(i, j) * J[b][j]
            assert acc == s(a, b)


def test_jacobian_matches_linear_transform():
    """The reduction is linear, so J's columns are the images of the basis
    vectors under q = (x1 - x2, x2 - x3, x1 + x2 + x3),
    p3 = (y1 + y2 + y3)/3, p1 = y1 - p3, p2 = p3 - y3."""
    J = transform_jacobian()
    for col in range(6):
        x1, x2, x3 = (Fraction(int(col == k)) for k in range(3))
        y1, y2, y3 = (Fraction(int(col == k + 3)) for k in range(3))
        p3 = (y1 + y2 + y3) / 3
        image = [x1 - x2, x2 - x3, x1 + x2 + x3, y1 - p3, p3 - y3, p3]
        assert image == [J[row][col] for row in range(6)]


def test_reduced_energy_matches_full_energy():
    """A float oracle for the report's exact truncations.canonical_reduction:
    H_full(x, y) = H_reg(q, p) + (3/2) p3^2 at a phase point in the cell."""
    x, y = (0.9, 0.2, -0.5), (0.3, -0.4, 0.1)
    (q1, q2, _), (p1, p2, p3) = _reduce(x, y)
    q1, q2, p1, p2, p3 = (float(v) for v in (q1, q2, p1, p2, p3))
    h_full = 0.5 * sum(v * v for v in y) - sum(
        math.log(abs(math.sin(x[i] - x[j])))
        for i, j in ((0, 1), (1, 2), (0, 2)))
    h_reg = (p1 * p1 - p1 * p2 + p2 * p2 - math.log(math.sin(q1))
             - math.log(math.sin(q2)) - math.log(math.sin(q1 + q2)))
    assert abs(h_full - (h_reg + 1.5 * p3 ** 2)) < 1e-12


def test_printed_truncation_coefficients_exact():
    pot = taylor_truncate(4).potential_coeffs()
    assert pot[(2, 0)] == FE(Fraction(4, 3))
    assert pot[(2, 1)] == SQRT3 * FE(Fraction(4, 9))
    assert pot[(4, 0)] == FE(Fraction(4, 9))
    assert pot[(3, 1)] == FE(Fraction(8, 9))


def _to_sympy(x: FieldElement):
    return sum(n * sympy.sqrt(r) for r, n in x.num.items()) / x.den


def test_truncation_matches_sympy_series():
    """-log sin(pi/3 + x1) - log sin(pi/3 + x2) - log sin(2pi/3 + x1 + x2),
    expanded by sympy along (x1, x2) = (a t, b t) to order 6 in t, is the
    potential of taylor_truncate(6) term by term, the constant dropped; each
    lower truncation is its part of degree <= its order."""
    a, b, t = sympy.symbols("a b t")
    pot = -sum(sympy.log(sympy.sin(z)) for z in (
        sympy.pi / 3 + a * t, sympy.pi / 3 + b * t,
        2 * sympy.pi / 3 + (a + b) * t))
    series = sympy.series(pot, t, 0, 7).removeO()
    want = {}
    for k in range(1, 7):
        part = sympy.Poly(sympy.expand(series.coeff(t, k)), a, b)
        for (j, i), c in part.terms():
            want[(j, i)] = sympy.radsimp(c)
    got = taylor_truncate(6).potential_coeffs()
    assert set(got) == {e for e, c in want.items() if c != 0}
    assert len(got) == 21
    for e, c in got.items():
        assert sympy.simplify(_to_sympy(c) - want[e]) == 0, e
    for order in range(2, 6):
        assert taylor_truncate(order).potential_coeffs() == {
            e: c for e, c in got.items() if sum(e) <= order}


def test_truncation_has_no_linear_or_constant_part():
    pot = taylor_truncate(4).potential_coeffs()
    for exps in ((0, 0), (1, 0), (0, 1)):
        assert exps not in pot


def test_truncation_swap_symmetry():
    """The potential is invariant under q1 <-> q2."""
    for order in (3, 4):
        pot = taylor_truncate(order).potential_coeffs()
        assert all(pot.get((i, j)) == c for (j, i), c in pot.items())


def test_diagonal_reduction_both_routes():
    for order, want in (
            (3, Poly([FE(0), FE(-4), SQRT3 * FE(Fraction(-4, 3))])),
            (4, Poly([FE(0), FE(-4), SQRT3 * FE(Fraction(-4, 3)), FE(-8)]))):
        th = taylor_truncate(order)
        assert diagonal_reduce(th) == want
        assert diagonal_reduce_via_energy(th) == want


def test_truncated_force_matches_transcendental_force():
    """g(q - pi/3) from the quartic truncation approximates
    cot q + cot 2q to the expected order near the equilibrium."""
    g = diagonal_reduce(taylor_truncate(4))
    coeffs = [c.to_complex().real for c in g.coeffs]
    for dq in (1e-2, -1e-2, 3e-3):
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * dq + c
        exact = qddot_exact(math.pi / 3 + dq)
        assert abs(acc - exact) < 30 * abs(dq) ** 4


def test_vector_field_is_hamiltonian():
    """qdot = dH/dp: the kinetic form gives qdot1 = 2 p1 - p2, with no q
    term."""
    dk_dp1 = {(e1 - 1, e2): e1 * c for (e1, e2), c in KINETIC.items() if e1}
    assert dk_dp1 == {(1, 0): 2, (0, 1): -1}
    assert kinetic_matrix() == [[2, -1], [-1, 2]]


def test_swap_modes_are_kinetic_eigenvectors():
    """K (1, 1) = 1 (1, 1) and K (1, -1) = 3 (1, -1): the mode factors of
    the scalar NVEs."""
    assert (mode_eigenvalue(1), mode_eigenvalue(-1)) == (1, 3)


def test_kinetic_form_without_swap_modes_raises(monkeypatch):
    monkeypatch.setitem(model.KINETIC, (2, 0), 2)
    for sign in (1, -1):
        with pytest.raises(ValueError, match="eigenvector"):
            mode_eigenvalue(sign)


def test_diagonal_potential_energy_relation():
    """U' = -2 g so that qdot^2 = h - U is conserved along qddot = g."""
    for order in (3, 4):
        th = taylor_truncate(order)
        u = diagonal_potential(th)
        g = diagonal_reduce(th)
        assert u.derivative() == g.scale(FE(-2))


_RATIONALS = st.fractions(min_value=-8, max_value=8, max_denominator=12)
_NONZERO = _RATIONALS.filter(bool)


@settings(max_examples=60, deadline=None)
@given(omega=st.fractions(min_value=Fraction(1, 8), max_value=8,
                          max_denominator=12),
       y0=_NONZERO, c=_NONZERO,
       s=st.sampled_from([1, 3, 26, 78, -1, -3, -26, -78]))
def test_pole_derivation_round_trip(omega, y0, c, s):
    """From y = 1/q = y0 + y1 sin(omega t) with y1 = c sqrt(s), build the
    quartic diagonal U = u2 q^2 + u3 q^3 + u4 q^4 whose zero level it
    solves; the derivation gives omega, y0 and y1 back, y1 up to the sign
    that puts rho = y1/y0 in the upper half plane, and the exact identity
    holds for the force -U'/2."""
    omega, y0 = FE(omega), FE(y0)
    y1 = FieldElement({s: c})
    u2 = omega * omega
    u = Poly([0, 0, u2, -2 * u2 * y0, u2 * (y0 * y0 - y1 * y1)])
    pole = derive_pole(u)
    assert pole.omega == omega and pole.y0 == y0
    assert pole.y1 in (y1, -y1)
    rho = pole.rho.to_complex()
    assert rho.imag > 0 or (rho.imag == 0 and rho.real > 0)
    assert pole.alpha == 1 / y0 and pole.rho == pole.y1 / y0
    force = u.derivative().scale(FE(Fraction(-1, 2)))
    assert pole.solves(force)
    assert not pole.solves(force + Poly([0, 0, 0, 1]))


@settings(max_examples=60, deadline=None)
@given(f1=_RATIONALS, f2=_NONZERO, f3=_NONZERO, f4=_RATIONALS)
def test_quartic_pole_depends_on_kappa_alone(f1, f2, f3, f4):
    """For any quartic series f, the diagonal potential 2 f(q) + f(-2q) has
    no linear term, and its pole solution has rho^2 = 1 - 12 kappa with
    kappa = f2 f4 / f3^2: u2 = 6 f2, u3 = -6 f3 and u4 = 18 f4.  Dyson's
    kappa = 9/4 gives rho^2 = -26."""
    th = TruncatedHamiltonian(f=Poly([0, f1, f2, f3, f4]), order=4)
    u = diagonal_potential(th)
    assert u.coeff(1).is_zero()
    rho = derive_pole(u).rho
    assert rho * rho == FE(1 - 12 * f2 * f4 / (f3 * f3))


def test_dyson_kappa():
    f = taylor_truncate(4).f
    assert f.coeff(2) * f.coeff(4) / (f.coeff(3) * f.coeff(3)) == FE(
        Fraction(9, 4))
    rho = derive_pole(diagonal_potential(taylor_truncate(4))).rho
    assert rho * rho == FE(-26)
