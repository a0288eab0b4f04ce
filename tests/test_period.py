"""Period function, turning points, and branch monodromy."""
import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyson3 import period


def test_equilibrium_constants():
    with mp.workprec(128):
        assert abs(period.e_min() - mp.log(8 * mp.sqrt(3) / 9)) < mp.mpf(1e-35)
        assert abs(period.c_star() - 3 * mp.sqrt(3) / 16) < mp.mpf(1e-35)


def test_c_energy_bijection():
    with mp.workprec(128):
        e = period.e_min() + mp.mpf("0.37")
        c = period.c_of_energy(e)
        assert abs(period.energy_of_c(c) - e) < mp.mpf(1e-35)
        assert 0 < c < period.c_star()


def test_double_root_at_c_star():
    tp = period.turning_points_closed(period.c_star(128), 128)
    assert abs(float(tp.r1) + 0.5) < 1e-10
    assert abs(float(tp.r2) + 0.5) < 1e-10
    assert float(abs(tp.eps)) < 1e-30 and float(abs(tp.delta)) < 1e-30


def test_domain_guards():
    with pytest.raises(period.PeriodDomainError):
        period.turning_points_closed(0.4)      # above c*
    with pytest.raises(period.PeriodDomainError):
        period.turning_points_numeric(float(period.e_min()) - 0.1)


@pytest.mark.parametrize("offset", ["2^(20-prec)", 1e-6, 0.5, 40])
@pytest.mark.parametrize("prec", [80, 128, 200])
def test_turning_points_solve_to_the_working_precision(prec, offset):
    """Both roots at the rounding level of prec bits: E - Vtilde at each is
    below its change over a few ulps of q plus the rounding of E.  Where
    the closed form is well conditioned, c >= 0.02 (the range of the
    report's comparison), the two agree to the rounding of E - Vtilde over
    its slope, about 4 sqrt(E - E_min) near E_min.  At E_min + 40, c ~ 1e-18:
    the rationalized Cardano radicand keeps q- to near the working
    precision, while q+ = pi/3 + eps loses about half its bits to acos
    near r1 = -1."""
    with mp.workprec(prec):
        off = (mp.mpf(2) ** (20 - prec) if offset == "2^(20-prec)"
               else mp.mpf(offset))
        e = period.e_min(prec) + off
        qm, qp = period.turning_points_numeric(e, prec)
        assert 0 < qm < mp.pi / 3 < qp < mp.pi / 2
        ulps = mp.mpf(2) ** (8 - prec)
        for q in (qm, qp):
            t = mp.tan(q)
            slope = (3 - t * t) / t
            assert abs(e - period.potential_tilde(q)) <= ulps * (
                abs(q * slope) + abs(e))
        c = period.c_of_energy(e, prec)
        if c >= mp.mpf("0.02"):
            tp = period.turning_points_closed(c, prec)
            tol = ulps / min(1, mp.sqrt(off))
            assert abs(tp.q_minus - qm) <= tol
            assert abs(tp.q_plus - qp) <= tol
        elif offset == 40:
            tp = period.turning_points_closed(c, prec)
            tol = mp.mpf({80: "1e-15", 128: "1e-30", 200: "1e-50"}[prec])
            assert abs(tp.q_minus - qm) <= tol
            assert abs(tp.q_plus - qp) <= mp.mpf("1e-15")


@pytest.mark.parametrize("slope", [lambda q: -2 * q, lambda q: 0],
                         ids=["wrong_sign", "zero"])
def test_newton_safeguard_returns_the_bracketed_root(slope):
    """A derivative that sends every Newton step out of the bracket (or
    none at all) leaves bisection, which still converges to the root."""
    with mp.workprec(128):
        root = period._bracket_root(lambda q: q * q - 2, slope, mp.mpf(0),
                                    mp.mpf(2), mp.mpf("1.9"), 128)
        assert abs(root - mp.sqrt(2)) <= mp.mpf(2) ** (6 - 128)


def test_newton_without_convergence_raises():
    """Steps a million times too short never reach the stopping test in
    prec + 20 evaluations: no unconverged point is returned."""
    with mp.workprec(80):
        with pytest.raises(ArithmeticError):
            period._bracket_root(lambda q: q * q - 2, lambda q: 2e6 * q,
                                 mp.mpf(0), mp.mpf(2), mp.mpf(1), 80)


@pytest.mark.parametrize("q0,p0", [(0.01, -20.0), (1.56, 20.0)])
def test_integrate_diagonal_leaving_the_cell_is_a_domain_error(q0, p0):
    def error(nsteps):
        try:
            period.integrate_diagonal(q0, p0, 1e-3, nsteps)
        except period.PeriodDomainError as exc:
            return str(exc)
        return None

    message = error(50)
    q = float(re.fullmatch(r"q=(\S+) outside \(0, pi/2\)", message).group(1))
    assert not 0 < q < math.pi / 2
    # the error names the first step outside the cell, not a later one
    assert message == next(m for m in map(error, range(1, 51)) if m)


def _step(q, p, h):
    """One step of the period kernel from (q, p)."""
    return period._yoshida4(q, p, period._force(math.tan(q)), h, 1)[:2]


def _q_minus(offset):
    e = float(period.e_min()) + offset
    return float(period.turning_points_numeric(e, prec=80)[0])


def test_kernel_matches_the_textbook_composition():
    # Yoshida's fourth-order step as three kick-drift-kick leapfrogs,
    # taking the force cot q + cot 2q six times
    w1 = 1 / (2 - 2 ** (1 / 3))
    w0 = 1 - 2 * w1

    def force(q):
        return 1 / math.tan(q) + 1 / math.tan(2 * q)

    def step(q, p, h):
        for w in (w1, w0, w1):
            p += 0.5 * w * h * force(q)
            q += w * h * p
            p += 0.5 * w * h * force(q)
        return q, p

    q0, h, n = _q_minus(0.3), 1e-3, 10 ** 4
    q, p = q0, 0.0
    for _ in range(n):
        q, p = step(q, p, h)
    qk, pk, _ = period.integrate_diagonal(q0, 0.0, h, n)
    assert abs(qk - q) < 1e-12 and abs(pk - p) < 1e-12


def test_tangent_forms_of_force_and_energy():
    qs = [(k + 0.5) / 200 * math.pi / 2 for k in range(200)]
    ts = np.tan(qs)
    energy = period._energy(ts, np.zeros(len(qs)))
    for q, t, v in zip(qs, ts, energy):
        f = 1 / math.tan(q) + 1 / math.tan(2 * q)
        assert abs(period._force(t) - f) <= 1e-13 * abs(f)
        vt = period.potential_tilde(q)
        assert abs(v - vt) <= 1e-13 * abs(vt)


@pytest.mark.parametrize("nsteps", [1, period._CHUNK - 1, period._CHUNK,
                                    period._CHUNK + 1, 2 * period._CHUNK + 3])
def test_integrate_diagonal_across_chunk_boundaries(nsteps):
    q0, h = _q_minus(0.3), 1e-3
    e0 = period.potential_tilde(q0)
    q, p, emax = q0, 0.0, 0.0
    for _ in range(nsteps):
        q, p = _step(q, p, h)
        emax = max(emax, abs(p * p + period.potential_tilde(q) - e0))
    qk, pk, ek = period.integrate_diagonal(q0, 0.0, h, nsteps)
    assert (qk, pk) == (q, p)
    assert abs(ek - emax) < 1e-15


@settings(max_examples=200, deadline=None)
@given(q=st.floats(0.3, 1.2), p=st.floats(-1.0, 1.0),
       h=st.sampled_from([1e-2, 1e-3, 1e-4]))
def test_yoshida_step_is_time_reversible(q, p, h):
    q1, p1 = _step(*_step(q, p, h), -h)
    assert abs(q1 - q) < 1e-13 and abs(p1 - p) < 1e-13


def test_period_scan_is_monotone():
    emin = period.e_min(96)
    samples = [period.period(emin + mp.mpf(off), prec=96)
               for off in (0.5, 0.1, 0.01, 1e-4)]
    ts = [float(s.period) for s in samples]
    assert ts == sorted(ts)
    assert all(float(s.phi) == float(s.period - s.log_eta) for s in samples)


def test_monodromy_single_loop_flips_branch():
    res = period.eta_monodromy(radius=1e-3, steps=800, loops=1)
    assert res.branch_changed
    assert res.roots_swapped
    assert res.eta_winding == 1
    assert abs(res.log_eta_increment.imag - 2 * math.pi) < 1e-10
    assert abs(res.log_eta_increment.real) < 1e-10


def test_monodromy_b_solves_the_resolvent_cubic():
    radius = 1e-3
    res = period.eta_monodromy(radius=radius, steps=800, loops=1)
    c = float(period.c_star(80)) + radius
    for b in (res.b_before, res.b_after):
        assert abs(b ** 3 - 64 * c * c * b - 64 * c * c) < 1e-12


def test_monodromy_double_loop_restores():
    res = period.eta_monodromy(radius=1e-3, steps=800, loops=2)
    assert not res.branch_changed
    assert not res.roots_swapped
    assert res.eta_winding == 2


def test_monodromy_non_enclosing_loop():
    center = float(period.c_star(80)) - 0.01
    res = period.eta_monodromy(radius=1e-3, steps=800, loops=1, center=center)
    assert not res.branch_changed
    assert not res.roots_swapped
    assert res.eta_winding == 0


def test_monodromy_ambiguity_guard():
    with pytest.raises(period.ContinuationAmbiguity):
        period.eta_monodromy(radius=1e-3, steps=4, loops=1)


def test_nearest_exact_tie_is_ambiguous():
    with pytest.raises(period.ContinuationAmbiguity):
        period._nearest((1 + 0j, -1 + 0j), 0j, 0.0)
    assert period._nearest((1 + 0j, -1 + 0j), 0.5 + 0j, 0.0) == 1
