"""Periodic family on the invariant plane: turning points, period
function, and the branch monodromy of the closed-form radical B(c).

The diagonal system is qdot = p, pdot = -Vtilde'(q)/2 with
Vtilde(q) = -log(sin 2q) - 2 log(sin q), convex on (0, pi/2) with minimum
at pi/3.  Energies are parameterized by c = 1/(2 e^E); the orbit exists
for 0 < c <= c* = 3 sqrt3 / 16, shrinking to the equilibrium at c*.
"""

from __future__ import annotations

import cmath
import math
from array import array
from dataclasses import dataclass

import mpmath as mp
import numpy as np


class PeriodDomainError(ValueError):
    pass


def potential_tilde(q):
    """Vtilde(q) = -log(sin 2q) - 2 log(sin q) on 0 < q < pi/2."""
    if isinstance(q, (int, float)) and not 0 < q < math.pi / 2:
        raise PeriodDomainError(f"q={q} outside (0, pi/2)")
    if isinstance(q, (int, float)):
        return -math.log(math.sin(2 * q)) - 2 * math.log(math.sin(q))
    return -mp.log(mp.sin(2 * q)) - 2 * mp.log(mp.sin(q))


def e_min(prec: int = 128):
    """Equilibrium energy -3 log(sqrt3/2)."""
    with mp.workprec(prec):
        return -3 * mp.log(mp.sqrt(3) / 2)


def c_star(prec: int = 128):
    with mp.workprec(prec):
        return 3 * mp.sqrt(3) / 16


def c_of_energy(e, prec: int = 128):
    with mp.workprec(prec):
        return mp.exp(-mp.mpf(e)) / 2


def energy_of_c(c, prec: int = 128):
    with mp.workprec(prec):
        return -mp.log(2 * mp.mpf(c))


@dataclass(frozen=True)
class TurningPointData:
    c: object
    energy: object
    big_b: object
    r1: object
    r2: object
    eps: object
    delta: object
    q_minus: object
    q_plus: object

    def quartic_residual(self):
        res = []
        for r in (self.r1, self.r2):
            res.append(abs((1 - r) ** 2 * (1 - r * r) - 16 * self.c ** 2))
        return max(res)


def _b_coeffs(prec):
    # B solves the resolvent B^3 - 64 c^2 B - 64 c^2 = 0 of the
    # turning-point quartic; Cardano gives
    #   B = K1 c^2 / t + K2 t,  t = (9c^2 - sqrt3 * sqrt(27c^4-256c^6))^(1/3)
    # with K1 = 16 (2/3)^(1/3) and K2 = (32/9)^(1/3).  big_b takes t^3 in
    # the rationalized form 768c^6 / (9c^2 + sqrt3 * sqrt(27c^4-256c^6)),
    # which does not cancel as c -> 0.
    with mp.workprec(prec):
        return 16 * mp.cbrt(mp.mpf(2) / 3), mp.cbrt(mp.mpf(32) / 9)


def big_b(c, prec: int = 128):
    """Closed-form B(c) on the principal (real, 0 < c <= c*) branch."""
    with mp.workprec(prec):
        c = mp.mpf(c)
        rad = 27 * c ** 4 - 256 * c ** 6
        if rad < 0:
            # roundoff below the branch point c*: the radicand is >= 0
            # throughout (0, c*]
            rad = mp.mpf(0)
        inner = mp.sqrt(rad)
        t = mp.cbrt(768 * c ** 6 / (9 * c ** 2 + mp.sqrt(3) * inner))
        k1, k2 = _b_coeffs(prec)
        return k1 * c ** 2 / t + k2 * t


def turning_points_closed(c, prec: int = 128) -> TurningPointData:
    """Closed forms: B(c), the quartic roots r_{1,2}, then eps/delta
    and q-+.

    The turning-point cosines satisfy r = cos 2q with q+ = pi/3 + eps and
    q- = pi/3 - delta, hence eps = (arccos r1 - 2pi/3)/2 and
    delta = (2pi/3 - arccos r2)/2.
    """
    with mp.workprec(prec):
        c = mp.mpf(c)
        cs = c_star(prec)
        if not 0 < c <= cs * (1 + mp.mpf(2) ** (5 - prec)):
            raise PeriodDomainError(f"c={float(c)} outside (0, 3*sqrt(3)/16]")
        b = big_b(c, prec)
        s1 = mp.sqrt(1 + b)
        arg = 2 - b + 2 / s1
        if arg < 0:
            # roundoff at the degenerate point c = c*
            arg = mp.mpf(0)
        s2 = mp.sqrt(arg)
        r1 = mp.mpf(1) / 2 - s1 / 2 - s2 / 2
        r2 = mp.mpf(1) / 2 - s1 / 2 + s2 / 2
        eps = (mp.acos(r1) - 2 * mp.pi / 3) / 2
        delta = (2 * mp.pi / 3 - mp.acos(r2)) / 2
        return TurningPointData(
            c=c, energy=energy_of_c(c, prec), big_b=b, r1=r1, r2=r2,
            eps=eps, delta=delta,
            q_minus=mp.pi / 3 - delta, q_plus=mp.pi / 3 + eps)


def turning_points_numeric(e, prec: int = 128):
    """Roots q- < pi/3 < q+ of E - Vtilde(q) = 0 at working precision prec,
    each by a safeguarded Newton iteration (_bracket_root) in its
    sign-change bracket, (0, pi/3] or [pi/3, pi/2), from
    pi/3 -+ sqrt((E - E_min)/4), since Vtilde''(pi/3) = 8.  The slope
    -Vtilde'(q) = 2 cot 2q + 2 cot q is (3 - t^2)/t with t = tan q.  A root
    is returned once a step falls below 2^(4 - prec) |q|, and never
    unconverged; its residual is near the rounding of E - Vtilde at prec
    bits."""
    with mp.workprec(prec):
        e = mp.mpf(e)
        emin = e_min(prec)
        if e <= emin:
            raise PeriodDomainError("energy at or below the equilibrium energy")
        f = lambda q: e - potential_tilde(q)

        def slope(q):
            t = mp.tan(q)
            return (3 - t * t) / t

        half_width = mp.sqrt((e - emin) / 4)
        tiny = mp.mpf(2) ** (-prec)
        q_minus = _bracket_root(f, slope, tiny, mp.pi / 3,
                                mp.pi / 3 - half_width, prec)
        q_plus = _bracket_root(f, slope, mp.pi / 3, mp.pi / 2 - tiny,
                               mp.pi / 3 + half_width, prec)
        return q_minus, q_plus


def _bracket_root(f, df, lo, hi, q, prec):
    """The root of f in [lo, hi], across which f changes sign once, by
    Newton's method from q.  Every evaluation of f shrinks the bracket to
    the side that keeps the sign change, and a Newton step that would leave
    the bracket (or a zero slope) is replaced by its midpoint.  Stops when
    a step falls below 2^(4 - prec) |q|; raises ArithmeticError when
    prec + 20 steps do not get there."""
    flo, fhi = f(lo), f(hi)
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    if not lo < q < hi:
        q = (lo + hi) / 2
    tol = mp.mpf(2) ** (4 - prec)
    for _ in range(prec + 20):
        fq = f(q)
        if fq == 0:
            return q
        if mp.sign(fq) == mp.sign(flo):
            lo = q
        else:
            hi = q
        slope = df(q)
        step = fq / slope if slope else mp.inf
        new = q - step
        if abs(step) > tol * abs(q) and not lo < new < hi:
            new = (lo + hi) / 2
        if abs(new - q) <= tol * abs(q):
            return new
        q = new
    raise ArithmeticError(f"no turning point to {prec} bits in [{lo}, {hi}] "
                          f"after {prec + 20} steps")


@dataclass(frozen=True)
class PeriodSample:
    c: object
    energy: object
    period: object
    log_eta: object
    phi: object
    q_minus: object     # the inner turning point the quadrature started from


def period(e, tol: float = 1e-10, prec: int = 128) -> PeriodSample:
    """Full return-map period T = 2 * int dq / sqrt(E - Vtilde).

    The substitution q = q- + (q+ - q-) sin^2(theta) removes both
    inverse-square-root endpoint singularities; the integral is then done
    with mpmath's Gauss-Legendre quadrature.  Some published forms quote
    the half-period between turning points; we keep the true return time.
    """
    with mp.workprec(prec):
        q_minus, q_plus = turning_points_numeric(e, prec)
        span = q_plus - q_minus
        e = mp.mpf(e)

        def integrand(theta):
            s = mp.sin(theta)
            q = q_minus + span * s * s
            val = e - potential_tilde(q)
            if val <= 0:
                return mp.mpf(0)
            return 2 * span * s * mp.cos(theta) / mp.sqrt(val)

        val, err = mp.quad(integrand, [0, mp.pi / 2], method="gauss-legendre",
                           error=True)
        t = 2 * val
        if err > tol:
            raise ArithmeticError(
                f"quadrature error {mp.nstr(err, 3)} above tolerance {tol}")
        c = c_of_energy(e, prec)
        tp = turning_points_closed(c, prec) if c <= c_star(prec) else None
        if tp is not None and tp.eps > 0 and tp.delta > 0:
            log_eta = mp.log(tp.eps * tp.delta)
        else:
            log_eta = mp.ninf
        return PeriodSample(c=c, energy=e, period=t, log_eta=log_eta,
                            phi=t - log_eta, q_minus=q_minus)


# -- symplectic oracle --------------------------------------------------------

_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = 1.0 - 2.0 * _W1
# steps per kernel call in integrate_diagonal and return_map_period: bounds
# the buffers of t and p a call fills for the numpy pass over them
_CHUNK = 1024


def _force(t: float) -> float:
    """pdot = -Vtilde'(q)/2 = cot q + cot 2q = (3 - t^2)/(2t), t = tan q."""
    return (3.0 - t * t) / (2.0 * t)


def _energy(t, p):
    """p^2 + Vtilde(q) for numpy arrays of t = tan q and p, with
    Vtilde = log((1 + t^2)^2 / (2 t^3))."""
    return p * p + np.log((1.0 + t * t) ** 2 / (2.0 * t * t * t))


def _yoshida4(q: float, p: float, f: float, h: float, n: int):
    """n steps of Yoshida's fourth-order composition: kick-drift-kick
    leapfrogs of w1*h, w0*h, w1*h, with f = _force(tan q) the force at the
    starting q.  The two kicks at each interior drift point share one
    force, and the last kick's force is the next step's first, so a step
    takes three forces, each from one tangent (_force, written out in the
    loop).  Raises PeriodDomainError at the first step that ends outside
    0 < q < pi/2.  Returns the final q, p and force, and two double
    arrays of tan q and p after each step."""
    tan, half_pi = math.tan, math.pi / 2
    h1, h0 = _W1 * h, _W0 * h
    k1, k10 = 0.5 * h1, 0.5 * (h1 + h0)
    ts, ps = array('d'), array('d')
    t_append, p_append = ts.append, ps.append
    for _ in range(n):
        p += k1 * f
        q += h1 * p
        t = tan(q)
        p += k10 * ((3.0 - t * t) / (2.0 * t))
        q += h0 * p
        t = tan(q)
        p += k10 * ((3.0 - t * t) / (2.0 * t))
        q += h1 * p
        t = tan(q)
        f = (3.0 - t * t) / (2.0 * t)
        p += k1 * f
        if not 0 < q < half_pi:
            raise PeriodDomainError(f"q={q} outside (0, pi/2)")
        t_append(t)
        p_append(p)
    return q, p, f, ts, ps


def integrate_diagonal(q0: float, p0: float, h: float, nsteps: int):
    """nsteps of the _yoshida4 kernel from (q0, p0); returns the final
    state and the max deviation of the energy p^2 + Vtilde(q) over every
    step, taken with numpy per chunk of at most _CHUNK steps."""
    if not 0 < q0 < math.pi / 2:
        raise PeriodDomainError(f"q={q0} outside (0, pi/2)")
    q, p, t = q0, p0, math.tan(q0)
    f = _force(t)
    e0 = _energy(np.array([t]), np.array([p]))[0]
    emax = 0.0
    for done in range(0, nsteps, _CHUNK):
        q, p, f, ts, ps = _yoshida4(q, p, f, h, min(_CHUNK, nsteps - done))
        de = np.abs(_energy(np.frombuffer(ts), np.frombuffer(ps)) - e0).max()
        emax = max(emax, float(de))
    return q, p, emax


def return_map_period(e: float, h: float = 1e-4, q_minus=None) -> float:
    """Period from the symplectic flow: start at rest at the inner turning
    point, find the first step across which p turns from > 0 to <= 0 (half
    a period), and bisect on that step with 16 fine substeps.  q_minus is
    that turning point when the caller has it (PeriodSample.q_minus);
    otherwise it is solved for at 80 bits."""
    if q_minus is None:
        q_minus, _ = turning_points_numeric(e, prec=80)
    q, p = float(q_minus), 0.0
    f = _force(math.tan(q))
    k = 0                                   # steps taken to reach (q, p)
    while True:
        q1, p1, f1, _, ps = _yoshida4(q, p, f, h, _CHUNK)
        pa = np.concatenate(([p], ps))
        hits = np.flatnonzero((pa[:-1] > 0) & (pa[1:] <= 0))
        if hits.size:
            break
        q, p, f, k = q1, p1, f1, k + _CHUNK
        if k * h > 1e6:
            raise ArithmeticError("no return detected")
    i = int(hits[0])
    q, p, f, _, _ = _yoshida4(q, p, f, h, i)
    lo, hi = 0.0, h
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _yoshida4(q, p, f, mid / 16, 16)[1] > 0:
            lo = mid
        else:
            hi = mid
    return 2.0 * ((k + i) * h + 0.5 * (lo + hi))


def energy_drift(e: float, h: float = 1e-3, n_periods: int = 1000) -> float:
    """Max |H - E| along n_periods of symplectic evolution, from rest at
    the inner turning point that period() solves for."""
    sample = period(e, prec=80)
    nsteps = int(n_periods * float(sample.period) / h) + 1
    _, _, emax = integrate_diagonal(float(sample.q_minus), 0.0, h, nsteps)
    return emax


# -- branch monodromy ---------------------------------------------------------

@dataclass(frozen=True)
class MonodromyResult:
    b_before: complex
    b_after: complex
    branch_changed: bool        # did the defining inner radical flip sign?
    b_changed: bool
    roots_swapped: bool
    log_eta_increment: complex  # continuously tracked log(eps*delta) change
    eta_winding: int


class ContinuationAmbiguity(ArithmeticError):
    pass


def _sqrt_candidates(z):
    s = cmath.sqrt(z)
    return (s, -s)


_OMEGA = cmath.exp(2j * math.pi / 3)


def _cbrt_candidates(z):
    r = z ** (1 / 3)
    return (r, r * _OMEGA, r * _OMEGA * _OMEGA)


def _nearest(cands, prev, move_scale):
    """Branch-continuous pick with an ambiguity guard: the two
    closest candidates must be separated by at least 3x the step-to-step
    movement, and an exact tie in distance has no continuous choice."""
    ranked = sorted(cands, key=lambda c: abs(c - prev))
    best = ranked[0]
    if len(ranked) > 1:
        if abs(ranked[1] - prev) == abs(best - prev):
            raise ContinuationAmbiguity(
                f"candidates {best} and {ranked[1]} equidistant from {prev}")
        gap = abs(ranked[1] - best)
        if move_scale > 0 and gap < 3 * move_scale:
            raise ContinuationAmbiguity(
                f"branch separation {gap:.3e} below guard "
                f"{3 * move_scale:.3e}; increase step count")
    return best


def eta_monodromy(radius: float = 1e-3, steps: int = 2000, loops: int = 1,
                  center=None) -> MonodromyResult:
    """Continue the closed-form turning-point chain around a loop in the
    complex c-plane.

    The inner radical sqrt(27 c^4 - 256 c^6) has a simple zero at
    c* = 3 sqrt3/16; a loop around c* flips its sign and exchanges the
    turning-point roots r1 <-> r2, while two loops restore everything.
    B(c) itself is the symmetric Cardano combination of the resolvent
    cubic and returns to its value.  eta = eps*delta has a simple zero at
    c*, so the continuously tracked log(eta) gains 2*pi*i per enclosing
    loop: the logarithmic branch point that makes the period function
    infinitely branched.

    The continuation runs in complex128, with c*, K1 and K2 rounded once
    from 80 bits.  That is safe because `_nearest` takes each radical as
    the candidate closest to its previous value only when the choice is
    clear by 3x the step-to-step movement, and raises
    ContinuationAmbiguity otherwise: a loop too coarse for the arithmetic
    fails loudly instead of jumping branches.
    """
    c0 = float(c_star(80)) if center is None else complex(center)
    k1, k2 = (float(k) for k in _b_coeffs(80))
    sqrt3, two_thirds_pi = math.sqrt(3), 2 * math.pi / 3

    def radicals(c, prev, move):
        # principal roots at the start of the loop, continuous picks after
        def pick(cands, i):
            return cands[0] if prev is None else \
                _nearest(cands, prev[i], move[i])
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
    return MonodromyResult(
        b_before=b_start, b_after=b,
        branch_changed=abs(rad[0] + rad0[0]) < abs(rad[0] - rad0[0]),
        b_changed=abs(b - b_start) > 1e-6,
        roots_swapped=swapped,
        log_eta_increment=complex(
            math.log(abs(eta_prev)) - math.log(abs(eta_start)), arg_acc),
        eta_winding=round(arg_acc / (2 * math.pi)))
