"""Period function, turning points, and branch monodromy."""
import cmath
import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyson3 import period


def potential_tilde(q):
    """Vtilde(q) = -log(sin 2q) - 2 log(sin q) on 0 < q < pi/2, the closed
    form that period's turning points and energies are checked against."""
    if isinstance(q, (int, float)) and not 0 < q < math.pi / 2:
        raise period.PeriodDomainError(f"q={q} outside (0, pi/2)")
    if isinstance(q, (int, float)):
        return -math.log(math.sin(2 * q)) - 2 * math.log(math.sin(q))
    return -mp.log(mp.sin(2 * q)) - 2 * mp.log(mp.sin(q))


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
            assert abs(e - potential_tilde(q)) <= ulps * (
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


def _offset(prec, offset):
    if offset == "2^(20-prec)":
        return mp.mpf(2) ** (20 - prec)
    return mp.mpf(offset)


def _newton_paths(monkeypatch, prec, offset):
    """E and, for the roots u- and u+, (side, start, iterates, root): the
    start and the points where _convex_newton evaluated g at the working
    precision, with side +1 where the iterates should rise to the root and
    -1 where they should fall.  The warm starts' solves in doubles
    (_convex_newton at 53 bits) are not recorded."""
    paths = []
    real = period._convex_newton

    def spy(g, u, gu, newton_prec):
        if newton_prec != prec:
            return real(g, u, gu, newton_prec)
        points = [u]

        def g_logged(v):
            points.append(v)
            return g(v)

        root = real(g_logged, u, gu, prec)
        paths.append((u, points, root))
        return root

    monkeypatch.setattr(period, "_convex_newton", spy)
    with mp.workprec(prec):
        e = period.e_min(prec) + _offset(prec, offset)
        period.turning_points_numeric(e, prec)
    return e, [(side, *path) for side, path in zip((1, -1), paths)]


@pytest.mark.parametrize("offset", ["2^(20-prec)", 1e-6, 0.5, 40])
@pytest.mark.parametrize("prec", [80, 128, 200])
def test_newton_starts_lie_beyond_the_roots(monkeypatch, prec, offset):
    """Vtilde > E at both starting points, checked in q = atan(e^u) at 64
    bits above the working precision: at 80 bits and E_min + 40, E - Vtilde
    at the safe bound E + log 2 rounds to 0, and u+ is that start."""
    e, paths = _newton_paths(monkeypatch, prec, offset)
    with mp.workprec(prec + 64):
        for side, start, _, root in paths:
            assert side * (root - start) >= 0
            assert potential_tilde(mp.atan(mp.exp(start))) > e


@pytest.mark.parametrize("offset", ["2^(20-prec)", 1e-6, 0.5, 40])
@pytest.mark.parametrize("prec", [80, 128, 200])
def test_newton_iterates_move_monotonically_to_each_root(monkeypatch, prec,
                                                         offset):
    """Every iterate lies beyond its root and every step moves toward it,
    up to the root's rounding: a few ulps of E - Vtilde over the slope
    Vtilde' at the root."""
    e, paths = _newton_paths(monkeypatch, prec, offset)
    with mp.workprec(prec):
        for side, start, points, root in paths:
            t2 = mp.exp(2 * root)
            tol = mp.mpf(2) ** (8 - prec) * (abs(e) + 3 * abs(root)) / abs(
                (t2 - 3) / (1 + t2))
            assert points[0] == start and len(points) > 1
            assert all(side * (root - u) >= -tol for u in points)
            assert all(side * (b - a) >= -tol
                       for a, b in zip(points, points[1:]))


def test_newton_without_convergence_raises():
    """Steps a million times too short keep shrinking through prec + 20
    evaluations without reaching the rounding floor: no unconverged point
    is returned.  With the true slope the same start gets sqrt 2."""
    def newton(slope):
        def g(u):
            return u * u - 2, slope * u

        return period._convex_newton(g, mp.mpf(2), g(mp.mpf(2)), 80)

    with mp.workprec(80):
        with pytest.raises(ArithmeticError):
            newton(2e6)
        assert abs(newton(2) - mp.sqrt(2)) <= mp.mpf(2) ** (2 - 80)


@pytest.mark.parametrize("prec", [80, 128, 200])
def test_turning_points_near_e_min_take_no_more_evaluations(monkeypatch,
                                                            prec):
    """At E_min + 2^(20 - prec) the two roots take no more evaluations of
    Vtilde than at E_min + 0.5: the steps stop at the rounding floor of
    E - Vtilde instead of running on in rounding noise.  Each evaluation
    takes one exponential, and two more give q = atan(e^u) at the roots."""
    calls, exps = [], []
    real, exp = period._vtilde_u, mp.exp
    monkeypatch.setattr(period, "_vtilde_u",
                        lambda u, t: calls.append(u) or real(u, t))
    monkeypatch.setattr(mp, "exp", lambda x: exps.append(x) or exp(x))

    def evaluations(offset):
        with mp.workprec(prec):
            e = period.e_min(prec) + _offset(prec, offset)
            calls.clear()
            exps.clear()
            period.turning_points_numeric(e, prec)
        assert len(exps) == len(calls) + 2
        return len(calls)

    assert evaluations("2^(20-prec)") <= min(20, evaluations(0.5))


@pytest.mark.parametrize("offset", ["2^-108", 1e-6, 0.5, 20])
def test_warm_started_roots_equal_cold_started_ones(monkeypatch, offset):
    """The roots from the warm starts agree with those from the cold starts
    (_warm_starts monkeypatched to fail) at 128 bits, up to the rounding of
    g over its slope at the root, which at E_min + 2^-108 leaves the last
    ~60 bits of u to rounding noise whatever the start."""
    prec = 128
    with mp.workprec(prec):
        off = mp.mpf(2) ** -108 if offset == "2^-108" else mp.mpf(offset)
        e = period.e_min(prec) + off
        warm = period._turning_points_u(e, prec)
        monkeypatch.setattr(period, "_warm_starts", lambda *a: [None, None])
        cold = period._turning_points_u(e, prec)
        for w, c in zip(warm, cold):
            t2 = mp.exp(2 * c)
            tol = mp.mpf(2) ** (8 - prec) * (abs(e) + 3 * abs(c)) / abs(
                (t2 - 3) / (1 + t2))
            assert abs(w - c) <= tol


@pytest.mark.parametrize("offset", ["2^-108", 1e-6, 0.5, 20, 40])
def test_warm_starts_hold_the_roots_to_a_few_ulps_of_doubles(offset):
    """The roots in doubles, as offsets d from u*, are within 1e-15 of
    |d| of the roots solved at 256 bits, far inside the 1e-9 |d| that the
    warm start moves outward by, at E_min + 2^-108 as at E_min + 40."""
    prec = 256
    with mp.workprec(prec):
        off = mp.mpf(2) ** -108 if offset == "2^-108" else mp.mpf(offset)
        e = period.e_min(prec) + off
        starts = period._warm_starts(off, e + mp.ln2)
        u_star = mp.log(3) / 2
        for (d, slope), root in zip(starts, period._turning_points_u(e, prec)):
            assert abs(d - (root - u_star)) <= 1e-15 * abs(d)
            t2 = mp.exp(2 * root)
            assert abs(slope - (t2 - 3) / (1 + t2)) <= 1e-12 * abs(slope)


def _doubling_midpoint(f, prec=53):
    """The doubling midpoint rule, the reference of quarter_midpoint: from
    24 nodes it doubles, evaluating every node of each level, until two
    levels agree to 2^(-3 prec/4) relative or their difference stops
    shrinking fourfold."""
    with mp.workprec(prec):
        def level(n):
            h = mp.pi / (2 * n)
            return h * mp.fsum(f(h * (k + 0.5)) for k in range(n))

        agree = mp.mpf(2) ** (-3 * prec / 4)
        n, value, diff = 48, level(24), mp.inf
        while True:
            new = level(n)
            last, diff, value = diff, abs(new - value), new
            if diff <= agree * abs(value) or not 4 * diff <= last:
                return value, diff
            n *= 2


def _report_offsets():
    from dyson3 import report as rpt
    return rpt._scan_offsets(rpt.PipelineConfig()) + [1e-6, 0.25, 20]


@pytest.mark.parametrize("offset", _report_offsets())
def test_nested_midpoint_matches_the_doubling_rule(monkeypatch, offset):
    """T by the nested rule equals T by the doubling rule to 2^(-3 prec/4)
    relative on the report's grid, its limit probe and cross-check energy,
    and at E_min + 20; and each integrand evaluation takes a new node."""
    prec = 128
    nodes = []
    real = period.quarter_midpoint

    def recording(f, prec=53):
        def g(theta):
            nodes.append(theta)
            return f(theta)
        return real(g, prec)

    monkeypatch.setattr(period, "quarter_midpoint", recording)
    e = period.e_min(prec) + mp.mpf(offset)
    nested = period.period(e, prec=prec).period
    assert len(nodes) == len(set(nodes))
    monkeypatch.setattr(period, "quarter_midpoint", _doubling_midpoint)
    doubling = period.period(e, prec=prec).period
    with mp.workprec(prec):
        assert abs(nested - doubling) <= mp.mpf(2) ** (-3 * prec / 4) * nested


def test_report_periods_take_at_most_768_evaluations(monkeypatch):
    """The 14 periods of the report's period_scan section evaluate the
    128-bit integrand at most 768 times (1,104 by the doubling rule)."""
    from dyson3 import report as rpt
    calls = []
    real = period.quarter_midpoint

    def counting(f, prec=53):
        def g(theta):
            calls.append(prec)
            return f(theta)
        return real(g, prec)

    monkeypatch.setattr(period, "quarter_midpoint", counting)
    rpt.section_period_scan(rpt.PipelineConfig())
    assert 0 < calls.count(128) <= 768


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
    return period._yoshida4(q, p, math.tan(q), h, 1)[:2]


def _q_minus(offset):
    e = float(period.e_min()) + offset
    return float(period.turning_points_numeric(e, prec=80)[0])


_W1 = 1 / (2 - 2 ** (1 / 3))
_W0 = 1 - 2 * _W1


def _textbook_step(q, p, h):
    """Yoshida's fourth-order step as three kick-drift-kick leapfrogs,
    taking the force cot q + cot 2q six times."""
    for w in (_W1, _W0, _W1):
        p += 0.5 * w * h * (1 / math.tan(q) + 1 / math.tan(2 * q))
        q += w * h * p
        p += 0.5 * w * h * (1 / math.tan(q) + 1 / math.tan(2 * q))
    return q, p


def test_kernel_matches_the_textbook_composition():
    q0, h, n = _q_minus(0.3), 1e-3, 10 ** 4
    q, p = q0, 0.0
    for _ in range(n):
        q, p = _textbook_step(q, p, h)
    qk, pk, _ = period.integrate_diagonal(q0, 0.0, h, n)
    assert abs(qk - q) < 1e-12 and abs(pk - p) < 1e-12


@settings(max_examples=200, deadline=None)
@given(q=st.floats(0.3, 1.2), p=st.floats(-1.0, 1.0),
       h=st.sampled_from([1e-2, 1e-3, 1e-4]))
def test_folded_kicks_match_the_textbook_step(q, p, h):
    # the kernel's four kick constants a/t - b t against the force written
    # out: a relative change of 1e-6 in any one of them moves p by at
    # least 5e-12 at h = 1e-4
    qk, pk = _step(q, p, h)
    qt, pt = _textbook_step(q, p, h)
    assert abs(qk - qt) < 1e-14 and abs(pk - pt) < 1e-14


def test_tangent_form_of_energy():
    qs = [(k + 0.5) / 200 * math.pi / 2 for k in range(200)]
    energy = period._energy(np.tan(qs), np.zeros(len(qs)))
    for q, v in zip(qs, energy):
        vt = potential_tilde(q)
        assert abs(v - vt) <= 1e-13 * abs(vt)


def test_diagonal_kinetic_energy_is_p_squared():
    """period integrates qdot = p with energy p^2 + Vtilde, as its module
    docstring states: on the diagonal p1 = p2 = p, model.KINETIC is
    T(1, 1) p^2 with T(1, 1) = 1, and qdot1 = (K (1, 1))_1 p = p."""
    from dyson3 import model
    assert sum(model.KINETIC.values()) == 1
    assert sum(model.kinetic_matrix()[0]) == 1
    t, p = np.tan([0.4, 1.0, 1.3]), np.array([0.3, -0.7, 1.1])
    kinetic = period._energy(t, p) - period._energy(t, 0 * p)
    assert np.allclose(kinetic, p * p, rtol=1e-12, atol=0)


def test_closed_form_potential_is_the_truncations_series():
    """period's closed form Vtilde, evaluated through _vtilde_u in
    u = log tan q, has the Taylor coefficients at q = pi/3 of model's
    diagonal potential U = 2 f(q) + f(-2q), once E_min is taken off: 0, 0,
    4, 8 sqrt3/9, 4, ..., 22.387 to order 8.  mp.taylor differentiates at
    a raised precision, so each coefficient holds to a few units in the
    last place of the working precision."""
    from dyson3 import elliptic, model
    prec = 128
    want = model.diagonal_potential(model.taylor_truncate(8)).coeffs
    with mp.workprec(prec):
        emin = period.e_min(prec)

        def vtilde(x):
            t = mp.tan(mp.pi / 3 + x)
            return period._vtilde_u(mp.log(t), 1 + t * t) - emin

        got = mp.taylor(vtilde, 0, 8)
        assert len(got) == len(want) == 9
        for g, w in zip(got, map(elliptic._mp, want)):
            assert abs(g - w) <= mp.ldexp(1 + abs(w), 8 - prec)


@pytest.mark.parametrize("nsteps", [1, period._CHUNK - 1, period._CHUNK,
                                    period._CHUNK + 1, 2 * period._CHUNK + 3])
def test_integrate_diagonal_across_chunk_boundaries(nsteps):
    q0, h = _q_minus(0.3), 1e-3
    e0 = potential_tilde(q0)
    q, p, emax = q0, 0.0, 0.0
    for _ in range(nsteps):
        q, p = _step(q, p, h)
        emax = max(emax, abs(p * p + potential_tilde(q) - e0))
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


@pytest.mark.parametrize("prec", [53, 128])
def test_quarter_midpoint_takes_a_periodic_integral(prec):
    """int_0^(pi/2) dtheta / (2 + cos 2theta) = pi / (2 sqrt3): even,
    pi-periodic and analytic in a strip, so the rule meets its agreement
    stop, 2^(-3 prec/4) relative."""
    with mp.workprec(prec):
        exact = mp.pi / (2 * mp.sqrt(3))
        value, diff = period.quarter_midpoint(
            lambda theta: 1 / (2 + mp.cos(2 * theta)), prec)
        assert abs(value - exact) <= mp.mpf(2) ** (-3 * prec / 4) * exact
        assert diff <= mp.mpf(2) ** (-3 * prec / 4) * exact


@pytest.mark.parametrize("offset", [1e-6, 20])
def test_period_does_not_depend_on_the_precision(offset):
    """T at 80 bits is the 128-bit T to 1e-15, near E_min, where E - Vtilde
    cancels at the turning points, and at E_min + 20, where the outer
    turning point nears the log singularity at pi/2."""
    ref = period.period(period.e_min(128) + mp.mpf(offset), prec=128).period
    low = period.period(period.e_min(80) + mp.mpf(offset), prec=80).period
    assert abs(low - ref) < 1e-15 * ref


@pytest.mark.parametrize("offset", [0.25, 0.5])
def test_return_map_solves_its_own_turning_point(offset):
    """Without q_minus, return_map_period solves the inner turning point at
    80 bits itself, as the oracles benchmark calls it; the period is
    bit-identical to the one started from period's q_minus at 80 bits."""
    e = float(period.e_min(128)) + offset
    q_minus = period.period(e, prec=80).q_minus
    assert period.return_map_period(e, h=1e-3) == \
        period.return_map_period(e, h=1e-3, q_minus=q_minus)


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


def test_continuation_exact_tie_is_ambiguous():
    with pytest.raises(period.ContinuationAmbiguity, match="equidistant"):
        period._continue_root(np.array([0j, 1 + 0j]), 2)
    picks = period._continue_root(np.array([0.5 + 0j, 1 + 0j]), 2)
    assert list(picks) == [0.5, 1]


# -- the per-step continuation that eta_monodromy replaced, as its reference

_RADICALS = ("s", "t", "s1", "s2")


def _sqrt_candidates(z):
    s = cmath.sqrt(z)
    return (s, -s)


_OMEGA = cmath.exp(2j * math.pi / 3)


def _cbrt_candidates(z):
    r = z ** (1 / 3)
    return (r, r * _OMEGA, r * _OMEGA * _OMEGA)


def _nearest(cands, prev, move_scale):
    ranked = sorted(cands, key=lambda c: abs(c - prev))
    best = ranked[0]
    if len(ranked) > 1:
        if abs(ranked[1] - prev) == abs(best - prev):
            raise period.ContinuationAmbiguity("equidistant")
        gap = abs(ranked[1] - best)
        if move_scale > 0 and gap < 3 * move_scale:
            raise period.ContinuationAmbiguity("separation below guard")
    return best


def _reference_monodromy(radius, steps, loops, center):
    """eta_monodromy one step at a time in Python; an ambiguity names its
    radical."""
    c0 = complex(center)
    k1, k2 = (float(k) for k in period._b_coeffs(80))
    sqrt3, two_thirds_pi = math.sqrt(3), 2 * math.pi / 3

    def radicals(c, prev, move):
        def pick(cands, i):
            if prev is None:
                return cands[0]
            try:
                return _nearest(cands, prev[i], move[i])
            except period.ContinuationAmbiguity as exc:
                raise period.ContinuationAmbiguity(_RADICALS[i]) from exc
        s = pick(_sqrt_candidates(27 * c ** 4 - 256 * c ** 6), 0)
        t = pick(_cbrt_candidates(9 * c ** 2 - sqrt3 * s), 1)
        b = k1 * c ** 2 / t + k2 * t
        s1 = pick(_sqrt_candidates(1 + b), 2)
        s2 = pick(_sqrt_candidates(2 - b + 2 / s1), 3)
        return (s, t, s1, s2), b

    def roots(rad):
        s1, s2 = rad[2], rad[3]
        return 0.5 - s1 / 2 - s2 / 2, 0.5 - s1 / 2 + s2 / 2

    def eta_of(r1, r2):
        eps = (cmath.acos(r1) - two_thirds_pi) / 2
        delta = (two_thirds_pi - cmath.acos(r2)) / 2
        return eps * delta

    rad0, b_start = radicals(c0 + radius, None, None)
    r1_start, r2_start = roots(rad0)
    eta_start = eta_prev = eta_of(r1_start, r2_start)
    arg_acc = 0.0
    rad, move, b = rad0, (0.0,) * 4, b_start
    for j in range(1, loops * steps + 1):
        c = c0 + radius * cmath.exp(1j * (2 * math.pi * j / steps))
        new, b = radicals(c, rad, move)
        move = tuple(abs(x - y) for x, y in zip(new, rad))
        rad = new
        eta = eta_of(*roots(rad))
        arg_acc += cmath.phase(eta / eta_prev)
        eta_prev = eta
    r1_end, r2_end = roots(rad)
    swapped = (abs(r1_end - r2_start) + abs(r2_end - r1_start)
               < abs(r1_end - r1_start) + abs(r2_end - r2_start))
    return period.MonodromyResult(
        b_before=b_start, b_after=b,
        branch_changed=abs(rad[0] + rad0[0]) < abs(rad[0] - rad0[0]),
        b_changed=abs(b - b_start) > 1e-6,
        roots_swapped=swapped,
        log_eta_increment=complex(
            math.log(abs(eta_prev)) - math.log(abs(eta_start)), arg_acc),
        eta_winding=round(arg_acc / (2 * math.pi)))


@pytest.mark.parametrize("loops", [1, 2])
@pytest.mark.parametrize("steps", [800, 2000])
@pytest.mark.parametrize("radius", [5e-4, 1e-3, 3e-3])
@pytest.mark.parametrize("shift", [0.0, -0.01], ids=["enclosing", "away"])
def test_continuation_matches_the_per_step_reference(shift, radius, steps,
                                                     loops):
    center = float(period.c_star(80)) + shift
    got = period.eta_monodromy(radius, steps, loops, center)
    want = _reference_monodromy(radius, steps, loops, center)
    for field in ("branch_changed", "b_changed", "roots_swapped",
                  "eta_winding"):
        assert getattr(got, field) == getattr(want, field), field
    for field in ("b_before", "b_after", "log_eta_increment"):
        assert abs(getattr(got, field) - getattr(want, field)) < 1e-12, field
    assert got.eta_winding == (loops if shift == 0 else 0)


@pytest.mark.parametrize("center, radius, steps, radical", [
    (0.0, 0.01, 5, "t"),
    (0.0, 0.5, 6, "s1"),
    (0.38 + 0.07j, 0.1, 16, "s2"),
])
def test_every_radical_of_the_chain_is_guarded(monkeypatch, center, radius,
                                               steps, radical):
    """Loops where s continues cleanly but a later radical of the chain
    does not: the per-step reference and eta_monodromy both raise, at the
    same radical."""
    with pytest.raises(period.ContinuationAmbiguity, match=f"^{radical}$"):
        _reference_monodromy(radius, steps, 1, center)
    continued = []
    continue_root = period._continue_root

    def record(base, n):
        continued.append(n)
        return continue_root(base, n)

    monkeypatch.setattr(period, "_continue_root", record)
    with pytest.raises(period.ContinuationAmbiguity):
        period.eta_monodromy(radius, steps, 1, center)
    assert _RADICALS[len(continued) - 1] == radical
