"""Variational systems, scalar reductions, and algebrization."""
from fractions import Fraction

import pytest
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
