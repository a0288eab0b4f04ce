"""Elliptic particular solutions on the invariant plane."""
import mpmath as mp
import pytest

from dyson3 import elliptic
from dyson3.model import diagonal_reduce, pole_solution, taylor_truncate


def test_weierstrass_ode_residual():
    inv = elliptic.invariants_for_energy(2, 128)
    with mp.workprec(170):
        for t in (mp.mpf(1) / 5, mp.mpf(1) / 2, mp.mpc(0.3, 0.2)):
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


def test_phi_satisfies_energy_relation():
    for h in (1, 2, 3):
        assert elliptic.verify_phi(h, prec=128) < mp.mpf(1e-10)


def test_phi_oracle_detects_corruption():
    """Same orbit against a wrong cubic coefficient must blow past the
    tolerance: the residual oracle is sensitive, not vacuous."""
    with mp.workprec(160):
        s3 = mp.sqrt(3)
        q, qd = elliptic.phi_solution(mp.mpf("0.3"), 2, 128)
        res = qd * qd - (-s3 * q ** 3 - 4 * q * q + 2)
        assert abs(res) > 1e-3


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
        elliptic.psi_solution(t_pole, 128)
