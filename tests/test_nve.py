"""Variational systems, scalar reductions, and algebrization."""
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from dyson3 import nve
from dyson3.field import FE, I, SQRT3, SQRT78, FieldElement
from dyson3.model import diagonal_potential, diagonal_reduce, taylor_truncate
from dyson3.poly import Poly, float_horner


def _vs(order):
    return nve.derive_variational(taylor_truncate(order))


def test_hessian_tables_exact():
    k = _vs(3)
    assert k.alpha == Poly([FE(Fraction(8, 3)), SQRT3 * FE(Fraction(8, 9))])
    assert k.beta == Poly([FE(Fraction(4, 3)), SQRT3 * FE(Fraction(16, 9))])
    l = _vs(4)
    assert l.alpha == Poly([FE(Fraction(8, 3)), SQRT3 * FE(Fraction(8, 9)),
                            FE(Fraction(40, 3))])
    assert l.beta == Poly([FE(Fraction(4, 3)), SQRT3 * FE(Fraction(16, 9)),
                           FE(Fraction(32, 3))])


def test_scalar_reduction_modes():
    k = _vs(3)
    anti = nve.scalar_nve(k, "antisymmetric")
    assert anti.a == Poly([FE(-4), SQRT3 * FE(Fraction(8, 3))])
    sym = nve.scalar_nve(k, "symmetric")
    assert sym.a == Poly([FE(-4), SQRT3 * FE(Fraction(-8, 3))])
    with pytest.raises(ValueError):
        nve.scalar_nve(k, "sideways")


def test_printed_variant_coefficients():
    pk = nve.paper_nve_k()
    assert pk.a == Poly([FE(-4), SQRT3 * FE(Fraction(-8, 9))])
    pl = nve.paper_nve_l()
    assert pl.a == Poly([FE(-4), SQRT3 * FE(Fraction(-8, 9)), FE(-24)])


def test_elliptic_substitution_couplings():
    a, b = nve.substitute_elliptic(nve.paper_nve_k())
    assert a == FE(4) and b == FE(Fraction(-8, 3))
    a, b = nve.substitute_elliptic(nve.scalar_nve(_vs(3), "antisymmetric"))
    assert a == FE(-12) and b == FE(-8)
    with pytest.raises(ValueError):
        nve.substitute_elliptic(nve.paper_nve_l())


def test_scalar_nve_matches_4d_variational_flow():
    for order, source in ((3, "K"), (4, "L")):
        vs = _vs(order)
        for mode in ("antisymmetric", "symmetric"):
            sc = nve.scalar_nve(vs, mode)
            dev = nve.nve_flow_oracle(sc, vs)
            assert dev < 1e-6, (source, mode, dev)
            # negative control: a perturbed coefficient must not track
            ctrl = nve.nve_flow_oracle(sc, vs, perturb=0.05)
            assert ctrl > 1e-4, (source, mode, ctrl)


def _dense_error(rhs, y0, t_end, exact):
    """Max deviation of the Chebyshev-Picard dense output from a closed
    form at interior points, and of its end value."""
    sol = nve._chebyshev_picard(rhs, y0, t_end)
    ts = np.linspace(0.0, t_end, 503)[1:-1]
    end = sol(t_end)
    assert end.shape == np.shape(y0)
    return max(np.max(np.abs(sol(ts) - exact(ts))),
               np.max(np.abs(end - exact(np.array([t_end]))[0])))


def test_chebyshev_picard_harmonic_oscillator():
    """y'' = -w^2 y over about five periods."""
    w = 3.0

    def rhs(t, y):
        return np.stack([y[:, 1], -w * w * y[:, 0]], axis=-1)

    def exact(t):
        return np.stack([np.cos(w * t) + np.sin(w * t) / w,
                         -w * np.sin(w * t) + np.cos(w * t)], axis=-1)

    assert _dense_error(rhs, [1.0, 1.0], 10.0, exact) < 1e-12


def test_chebyshev_picard_complex_rotation():
    """Complex y' = i w y keeps its dtype and follows exp(i w t)."""
    w, y0 = 5.0, 1.0 - 0.5j

    def rhs(t, y):
        return 1j * w * y

    def exact(t):
        return (y0 * np.exp(1j * w * t))[:, None]

    assert _dense_error(rhs, [y0], 4.0, exact) < 1e-12


def test_chebyshev_picard_linear_system_18d():
    """y' = A y in 18 dimensions, A = O B O^T with O orthogonal and B nine
    damped 2x2 rotations, so exp(A t) = O exp(B t) O^T in closed form.
    The fastest block decays like exp(-30 t): a Picard iterate that has
    not converged there is visibly wrong."""
    rng = np.random.default_rng(3)
    orth, _ = np.linalg.qr(rng.standard_normal((18, 18)))
    freq = np.linspace(0.5, 4.5, 9)
    damp = np.array([-30.0, -3.0, -1.0, -0.3, -0.1, 0.0, 0.02, 0.05, 0.1])
    blocks = np.zeros((18, 18))
    for k, (om, sg) in enumerate(zip(freq, damp)):
        blocks[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[sg, om], [-om, sg]]
    a = orth @ blocks @ orth.T
    y0 = rng.standard_normal(18)

    def rhs(t, y):
        return y @ a.T

    def exact(t):
        z = (orth.T @ y0).reshape(9, 2)
        c, s = np.cos(np.outer(t, freq)), np.sin(np.outer(t, freq))
        g = np.exp(np.outer(t, damp))
        rot = np.stack([g * (c * z[:, 0] + s * z[:, 1]),
                        g * (-s * z[:, 0] + c * z[:, 1])], axis=-1)
        return rot.reshape(len(t), 18) @ orth.T

    assert _dense_error(rhs, y0, 6.0, exact) < 1e-12


def test_chebyshev_picard_fast_coefficient():
    """y' = cos(w t) y: |df/dy| <= 1, so Picard converges on segments far
    too wide to resolve y = exp(sin(w t) / w); only the coefficient tail
    refuses them."""
    w = 10.0

    def rhs(t, y):
        return np.cos(w * t)[:, None] * y

    def exact(t):
        return np.exp(np.sin(w * t) / w)[:, None]

    assert _dense_error(rhs, [1.0], 10.0, exact) < 1e-12


def test_chebyshev_picard_refuses_blow_up():
    """y' = y^2, y(0) = 1 has y = 1/(1 - t), which blows up at t = 1: the
    integrator must raise instead of returning a value on [0, 2]."""
    with pytest.raises(ArithmeticError):
        nve._chebyshev_picard(lambda t, y: y * y, [1.0], 2.0)


def _dop853(rhs, y0, t_end, **kw):
    sol = solve_ivp(rhs, (0.0, t_end), y0, method="DOP853",
                    rtol=1e-12, atol=1e-13, **kw)
    assert sol.success
    return sol


@pytest.mark.parametrize("q0", [0.08, 0.12])
@pytest.mark.parametrize("order", [3, 4], ids=["K", "L"])
def test_nve_oracles_against_dop853(order, q0):
    """Independent cross-check: the monodromy, flow-oracle and Wronskian
    systems integrated by scipy's DOP853 (rtol 1e-12, atol 1e-13).  The
    monodromy matrices agree to 1e-10 and the perturbed controls to 1e-10
    relative; |det M - 1| and the Wronskian drift are no larger than
    DOP853's.  The unperturbed scalar-vs-4D deviation compares two float
    evaluations of one linear equation, rounding noise for either
    integrator, so it is only bounded."""
    trunc = taylor_truncate(order)
    vs = nve.derive_variational(trunc)
    alpha, beta = float_horner(vs.alpha), float_horner(vs.beta)
    accel = float_horner(diagonal_reduce(trunc))
    t_end = nve.base_period(trunc, q0)

    def mono_rhs(t, y):
        q, p = y[0], y[1]
        a, b = alpha(q), beta(q)
        jac = np.array([[0.0, 0.0, 2.0, -1.0], [0.0, 0.0, -1.0, 2.0],
                        [-a, -b, 0.0, 0.0], [-b, -a, 0.0, 0.0]])
        return np.concatenate(([p, accel(q)], (jac @ y[2:].reshape(4, 4)).ravel()))

    y0 = np.concatenate(([q0, 0.0], np.eye(4).ravel()))
    ref = _dop853(mono_rhs, y0, t_end).y[2:, -1].reshape(4, 4)
    mono = nve.monodromy_matrix(vs, q0=q0)
    assert np.max(np.abs(mono - ref)) < 1e-10
    assert abs(np.linalg.det(mono) - 1) <= abs(np.linalg.det(ref) - 1)

    for mode in ("antisymmetric", "symmetric"):
        sc = nve.scalar_nve(vs, mode)
        a_nve = float_horner(sc.a)
        sign = -1.0 if mode == "antisymmetric" else 1.0

        def flow_rhs(t, y, perturb):
            q, p, x1, x2, e1, e2, xs, xd = y
            a, b = alpha(q), beta(q)
            return [p, accel(q), 2 * e1 - e2, -e1 + 2 * e2,
                    -a * x1 - b * x2, -b * x1 - a * x2,
                    xd, (a_nve(q) + perturb) * xs]

        # the oracle's start in the tagged subspace: x2 = sign x1,
        # e2 = sign e1, with kinetic eigenvalue 2 - sign
        x0 = [q0, 0.0, 1.0, sign, 0.3, 0.3 * sign, 2.0, (2.0 - sign) * 0.6]
        sol = _dop853(flow_rhs, x0, t_end, args=(0.05,), dense_output=True,
                      max_step=t_end / 50)
        ys = sol.sol(np.linspace(0.0, t_end, 400))
        ctrl = np.max(np.abs(ys[2] + sign * ys[3] - ys[6]))
        got = nve.nve_flow_oracle(sc, vs, q0=q0, perturb=0.05)
        assert abs(got - ctrl) < 1e-10 * ctrl, (mode, got, ctrl)
        assert nve.nve_flow_oracle(sc, vs, q0=q0) < 1e-13, mode

        def wr_rhs(t, y):
            q, p, x1, v1, x2, v2 = y
            a = a_nve(q)
            return [p, accel(q), v1, a * x1, v2, a * x2]

        sol = _dop853(wr_rhs, [q0, 0.0, 1.0, 0.0, 0.0, 1.0], t_end,
                      dense_output=True)
        ys = sol.sol(np.linspace(0.0, t_end, 300))
        wr = ys[2] * ys[5] - ys[3] * ys[4]
        assert nve.wronskian_drift(sc, q0=q0) <= np.max(np.abs(wr - wr[0]))


@pytest.mark.parametrize("order", [3, 4], ids=["K", "L"])
def test_base_period_from_either_turning_point(order):
    """The orbit through (0.1, 0) and the one through its negative turning
    point are the same orbit, so base_period gives one period from both
    sides."""
    trunc = taylor_truncate(order)
    uval = float_horner(diagonal_potential(trunc))
    h = uval(0.1)
    q_minus = brentq(lambda q: uval(q) - h, -0.5, 0.0, xtol=1e-15)
    assert abs(nve.base_period(trunc, 0.1)
               - nve.base_period(trunc, q_minus)) < 1e-9


def test_base_period_without_opposite_turning_point_raises():
    """At q0 = 0.9 the cubic orbit's energy lies above the barrier on the
    negative side: there is no closed orbit to take the period of."""
    with pytest.raises(ValueError):
        nve.base_period(taylor_truncate(3), 0.9)


def test_algebrized_normal_form_identity():
    for sc in (nve.paper_nve_l(), nve.scalar_nve(_vs(4), "symmetric"),
               nve.scalar_nve(_vs(4), "antisymmetric")):
        ode = nve.algebrize(sc)
        assert ode.normal_form_identity_holds()


def test_algebrize_rejects_cubic_truncation():
    with pytest.raises(ValueError):
        nve.algebrize(nve.paper_nve_k())


def test_algebrization_gauge_oracle():
    """Numeric continuation along the pole solution: the log-derivative of
    the time-domain solution minus that of the w-domain solution must be
    exactly p(w) wdot / 2 (the normal-form gauge factor)."""
    for sc in (nve.paper_nve_l(), nve.scalar_nve(_vs(4), "symmetric")):
        assert nve.algebrize_gauge_oracle(sc) < 1e-9


def test_tangential_mode_solved_by_psidot():
    """The derived symmetric coefficient equals g'(q) along the diagonal,
    so xi = psidot solves that NVE: the variation is tangent to the orbit."""
    sym = nve.scalar_nve(_vs(4), "symmetric")
    g = diagonal_reduce(taylor_truncate(4))
    assert sym.a == g.derivative()
    pap = nve.paper_nve_l()
    assert pap.a != g.derivative()


def test_serialization_roundtrip():
    sc = nve.scalar_nve(_vs(4), "antisymmetric")
    data = nve.scalar_nve_json(sc)
    assert nve.poly_from_json(data["a"]) == sc.a
    ode = nve.algebrize(sc)
    odedata = nve.algebraized_json(ode)
    for key, rf in (("p", ode.p), ("q", ode.q), ("r", ode.r)):
        assert nve.rf_from_json(odedata[key]) == rf


def test_serialization_keeps_the_tower_coordinates():
    x = FE(Fraction(1, 2)) - I * SQRT78 * FE(3)
    coords = nve._fe_coords(x)
    assert coords == [[1, 2], [0, 1], [0, 1], [0, 1],
                      [0, 1], [0, 1], [0, 1], [-3, 1]]
    assert nve._fe_from_coords(coords) == x
    with pytest.raises(ValueError):
        nve._fe_coords(FieldElement({5: 1}))


def test_w_substitution_identities_exact():
    """wdot^2 = -104 - 4(w-1)^2 and wddot = -4(w-1) as tower polynomials."""
    w = Poly.x()
    assert nve.W_POLY_WDOT2 == Poly([FE(-104)]) - ((w - 1) * (w - 1)).scale(FE(4))
    assert nve.W_POLY_WDDOT == (w - 1).scale(FE(-4))
    # and nothing flat: the derivative chain rule closes,
    # d(wdot^2)/dw = 2 wddot
    assert nve.W_POLY_WDOT2.derivative() == nve.W_POLY_WDDOT.scale(FE(2))
