"""Elliptic particular solutions on the invariant plane."""
import mpmath as mp
import pytest
from mpmath.libmp import to_fixed

from dyson3 import elliptic
from dyson3.field import SQRT3
from dyson3.model import (diagonal_potential, diagonal_reduce,
                          elliptic_solution, pole_solution, taylor_truncate)
from dyson3.poly import Poly


def test_weierstrass_ode_residual():
    inv = elliptic.invariants_for_energy(2, 128)
    with mp.workprec(170):
        for t in (mp.mpf(1) / 5, mp.mpf(1) / 2, mp.mpf("1.3")):
            assert elliptic.weierstrass_ode_residual(t, inv, 128) < mp.mpf(1e-20)


def test_weierstrass_duplication_consistency():
    """p(2t) from direct evaluation matches the ODE-governed flow, i.e. the
    series + duplication evaluation path is self-consistent."""
    inv = elliptic.invariants_for_energy(3, 128)
    with mp.workprec(170):
        t = mp.mpf("0.17")
        x1, y1 = elliptic.weierstrass_p(t, inv, 128)
        x2, _ = elliptic.weierstrass_p(2 * t, inv, 128)
        # duplication: p(2t) = -2p(t) + ((6p^2 - g2/2)/(2p'))^2
        g2 = mp.mpf(inv.g2)
        dup = -2 * x1 + ((6 * x1 * x1 - g2 / 2) / (2 * y1)) ** 2
        assert abs(dup - x2) < mp.mpf(1e-25)


# the reference's fixed series length; weierstrass_p sizes its own series by
# the lattice
_REFERENCE_TERMS = 64


def _reference_p(t, inv, prec):
    """weierstrass_p in complex arithmetic for every t, with its own
    _REFERENCE_TERMS Laurent coefficients, and the series summed term by
    term with one division per term."""
    with mp.workprec(prec + 40):
        t = mp.mpc(t)
        g2, g3 = mp.mpf(inv.g2), mp.mpf(inv.g3)
        ndup = 0
        while abs(t) > elliptic._SERIES_RADIUS:
            t /= 2
            ndup += 1
        c = [mp.mpf(0)] * (_REFERENCE_TERMS + 1)
        c[2], c[3] = g2 / 20, g3 / 28
        for k in range(4, _REFERENCE_TERMS + 1):
            c[k] = 3 * mp.fsum(c[m] * c[k - m] for m in range(2, k - 1)) \
                / ((2 * k + 1) * (k - 3))
        t2 = t * t
        x = 1 / t2
        y = -2 / (t2 * t)
        tp = t2
        for k in range(2, _REFERENCE_TERMS + 1):
            x += c[k] * tp
            y += (2 * k - 2) * c[k] * tp / t
            tp *= t2
        for _ in range(ndup):
            u = (6 * x * x - g2 / 2) / (2 * y)
            x, y = u * u - 2 * x, u * (6 * x - 2 * u * u) - y
        return +x, +y


# inside the series disc (|t| <= 0.3) and beyond it, where duplication
# doubles t back from t / 2^k
_P_ARGS = [mp.mpf("0.1"), mp.mpf("0.29"), mp.mpf("-0.45"), mp.mpf("0.7"),
           mp.mpf("1.3")]


@pytest.mark.parametrize("h", [1, 2, 3])
@pytest.mark.parametrize("t", _P_ARGS, ids=str)
def test_weierstrass_p_matches_the_per_term_reference(t, h):
    prec = 128
    inv = elliptic.invariants_for_energy(h, prec)
    got = elliptic.weierstrass_p(t, inv, prec)
    want = _reference_p(t, inv, prec)
    with mp.workprec(prec + 40):
        for g, w in zip(got, want):
            assert abs(g - w) <= mp.mpf(2) ** -prec * abs(w)


@pytest.mark.parametrize("t", [mp.mpf("0.2"), mp.mpf("1.3"), 0.7, 2],
                         ids=str)
def test_weierstrass_p_of_real_t_is_real(t):
    x, y = elliptic.weierstrass_p(t, elliptic.invariants_for_energy(2, 128))
    assert isinstance(x, mp.mpf) and isinstance(y, mp.mpf)


@pytest.mark.parametrize("t", [mp.mpc("0.2", "0.15"), mp.mpc("0.3", "0.2"),
                               mp.mpc("0.9", "-0.4"), mp.mpc(0, "0.8")],
                         ids=str)
def test_weierstrass_p_refuses_a_complex_t(t):
    """p is evaluated at real t only; a complex t is refused, never cut to
    its real part."""
    with pytest.raises(TypeError):
        elliptic.weierstrass_p(t, elliptic.invariants_for_energy(2, 128))


def test_phi_satisfies_energy_relation():
    for h in (1, 2, 3):
        assert elliptic.verify_phi(h, prec=128) < mp.mpf(1e-10)


def test_phi_oracle_detects_corruption():
    """Same orbit against a wrong cubic coefficient must blow past the
    tolerance: the residual oracle is sensitive, not vacuous."""
    u = diagonal_potential(taylor_truncate(3))
    corrupted = Poly(u.coeffs[:3] + [SQRT3])      # 8 sqrt3/9 -> sqrt3
    with mp.workprec(168):
        ts = [mp.mpf("0.3")]
    assert elliptic.phi_residual(corrupted, 2, ts, 128) > 1e-3


def test_psi_satisfies_quartic_ode():
    assert elliptic.verify_psi(prec=128) < mp.mpf(1e-12)


def test_psi_energy_level_is_zero():
    worst, _ = elliptic.psi_diagonal_energy(128)
    assert worst < mp.mpf(1e-20)


def test_psi_exact_rational_identity():
    assert pole_solution().solves(diagonal_reduce(taylor_truncate(4)))


def test_psi_pole_guard():
    """w = 1 + i sqrt26 sin(2t) vanishes on the imaginary axis at
    t = (i/2) asinh(1/sqrt26)."""
    with mp.workprec(128):
        t_pole = mp.mpc(0, 1) * mp.asinh(1 / mp.sqrt(26)) / 2
    with pytest.raises(elliptic.LatticePointError):
        elliptic._psi_at(t_pole, elliptic._psi_constants(128), 128)


@pytest.mark.parametrize("h", [1, 2, 3])
def test_laurent_series_is_sized_by_its_lattice(h):
    """The series stops at about 28 terms, not 64: each term at |t| = 0.3
    is about 1/100 of the one before, and the three terms after the last
    kept one (from the reference recursion) lie below 2^-wp relative to
    the leading terms of p and p'."""
    wp = 168
    inv = elliptic.invariants_for_energy(h, 128)
    with mp.workprec(wp):
        g2, g3 = mp.mpf(inv.g2), mp.mpf(inv.g3)
        kept = elliptic._laurent_coeffs(g2, g3, wp)
        n = len(kept) + 1
        assert n <= 28
        c = [mp.mpf(0)] * (n + 4)
        c[2], c[3] = g2 / 20, g3 / 28
        for k in range(4, n + 4):
            acc = mp.mpf(0)
            for m in range(2, k - 1):
                acc += c[m] * c[k - m]
            c[k] = 3 * acc / ((2 * k + 1) * (k - 3))
        assert [ck for ck, _ in kept] == [to_fixed(ck._mpf_, wp)
                                          for ck in c[n:1:-1]]
        r2 = mp.mpf(elliptic._SERIES_RADIUS) ** 2
        for k in range(n + 1, n + 4):
            assert (k - 1) * abs(c[k]) * r2 ** k < mp.mpf(2) ** -wp


def _reference_phi_residual(u, h, ts, prec):
    """phi_residual with a, b, the invariants and u's coefficients converted
    at every time point."""
    phi = elliptic_solution()
    with mp.workprec(prec + 40):
        worst = mp.mpf(0)
        for t in ts:
            inv = elliptic.invariants_for_energy(h, prec)
            x, y = elliptic.weierstrass_p(t, inv, prec)
            b = elliptic._mp(phi.b)
            q, qd = elliptic._mp(phi.a) + b * x, b * y
            poly = mp.polyval([elliptic._mp(c) for c in reversed(u.coeffs)], q)
            worst = max(worst, abs(qd * qd - (h - poly)))
        return worst


def _reference_psi(t, prec):
    pole = pole_solution()
    with mp.workprec(prec + 40):
        t = mp.mpc(t)
        alpha, rho, omega = (elliptic._mp(pole.alpha), elliptic._mp(pole.rho),
                             elliptic._mp(pole.omega))
        s = rho * mp.sin(omega * t)
        w = 1 + s
        wd = rho * omega * mp.cos(omega * t)
        wdd = -omega * omega * s
        return (alpha / w, -alpha * wd / w ** 2,
                alpha * (2 * wd * wd - wdd * w) / w ** 3)


def test_certificates_equal_the_per_point_conversions():
    """Converting the constants once per call leaves every residual of the
    report's verify_solutions section as it was with a conversion at every
    point: the same mpmath numbers, bit for bit."""
    prec = 128
    u3 = diagonal_potential(taylor_truncate(3))
    with mp.workprec(prec + 40):
        ts = [mp.mpf(1) / 10 + mp.mpf(k) / 40 for k in range(20)]
    for h in (1, 2, 3):
        assert elliptic.verify_phi(h, prec) == _reference_phi_residual(
            u3, h, ts, prec)
    g = diagonal_reduce(taylor_truncate(4))
    u4 = diagonal_potential(taylor_truncate(4))
    with mp.workprec(prec + 40):
        def value(p, q):
            return mp.polyval([elliptic._mp(c) for c in reversed(p.coeffs)], q)

        psi_ref = max(abs(qdd - value(g, q)) for q, _, qdd in
                      (_reference_psi(mp.mpf(k) / 16, prec)
                       for k in range(25)))
        energies = [qd * qd + value(u4, q) for q, qd, _ in
                    (_reference_psi(mp.mpf(k) / 8, prec) for k in range(1, 8))]
        energy_ref = max(abs(v) for v in energies), energies[0]
    assert elliptic.verify_psi(prec) == psi_ref
    assert elliptic.psi_diagonal_energy(prec) == energy_ref
