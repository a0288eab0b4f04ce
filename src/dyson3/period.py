"""Periodic family on the invariant plane: turning points, period
function, and the branch monodromy of the closed-form radical B(c).

The diagonal system is qdot = p, pdot = -Vtilde'(q)/2 with
Vtilde(q) = -log(sin 2q) - 2 log(sin q), convex on (0, pi/2) with minimum
at pi/3.  On the diagonal p1 = p2 = p the kinetic form model.KINETIC is
T(1, 1) p^2 = p^2, so the energy is p^2 + Vtilde and qdot = p; every flow
and quadrature below takes that unit factor as read.  Energies are
parameterized by c = 1/(2 e^E); the orbit exists for
0 < c <= c* = 3 sqrt3 / 16, shrinking to the equilibrium at c*.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import mpmath as mp
import numpy as np


class PeriodDomainError(ValueError):
    pass


# e_min, c_star and _b_coeffs are kept per precision: a report asks for them
# hundreds of times, and each is computed on its first use.
@functools.lru_cache(maxsize=None)
def e_min(prec: int = 128):
    """Equilibrium energy -3 log(sqrt3/2)."""
    with mp.workprec(prec):
        return -3 * mp.log(mp.sqrt(3) / 2)


@functools.lru_cache(maxsize=None)
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


@functools.lru_cache(maxsize=None)
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
        c2, c6 = c ** 2, c ** 6
        rad = 27 * c ** 4 - 256 * c6
        if rad < 0:
            # roundoff below the branch point c*: the radicand is >= 0
            # throughout (0, c*]
            rad = mp.mpf(0)
        inner = mp.sqrt(rad)
        t = mp.cbrt(768 * c6 / (9 * c2 + mp.sqrt(3) * inner))
        k1, k2 = _b_coeffs(prec)
        return k1 * c2 / t + k2 * t


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


def _vtilde_u(u, w):
    """Vtilde in u = log tan q, given w = 1 + t^2 with t = e^u:
    2 log w - 3u - log 2."""
    return 2 * mp.log(w) - 3 * u - mp.ln2


def _turning_points_u(e, prec):
    """Roots u- < u* < u+ of Vtilde(u) = E in u = log tan q at working
    precision prec, each by Newton's method on g = Vtilde - E
    (_convex_newton).  With t = e^u:

    - Vtilde'(u) = (t^2 - 3)/(1 + t^2) and Vtilde''(u) = 8t^2/(1 + t^2)^2
      > 0, so Vtilde is strictly convex with its minimum E_min at
      u* = log(3)/2 (q = pi/3), where Vtilde'' = 3/2.
    - So Newton from a point beyond a root, where g > 0, moves
      monotonically to that root.
    - (Vtilde - E_min) Vtilde'' / Vtilde'^2 tends to 1/2 at u* and stays
      below 0.54, so beyond a root, where 0 < g < Vtilde - E_min,
      (g/g')' = 1 - g g''/g'^2 > 0: the steps g/g' shrink strictly on the
      way in, until the rounding of g.
    - Vtilde > -3u - log 2 (as t^2 > 0) and Vtilde > u - log 2 (as
      1 + t^2 > t^2), so u = -(E + log 2)/3 and u = E + log 2 always lie
      beyond the two roots.
    - The cold start of each side is u* -+ 4 sqrt((E - E_min)/3), twice the
      distance of the roots of the quadratic E_min + 3(u - u*)^2/4, when
      Vtilde is above E there, and otherwise that safe bound.
    - The warm start is the root solved in doubles (_warm_starts) and moved
      outward by 1e-9 |u - u*|, which covers the doubles' error, plus 2^6
      roundings of g at prec bits over the slope there.  It is taken where
      g > 0, so it lies beyond the root and the argument above holds; from
      it, Newton's quadratic convergence reaches the rounding of g in a
      few steps.  Where the doubles fail, or g <= 0 there, the cold start
      is taken.

    One evaluation (g, g') takes one exponential, t, then t^2 = t t and
    1 + t^2 once each."""
    with mp.workprec(prec):
        e = mp.mpf(e)
        emin = e_min(prec)
        if e <= emin:
            raise PeriodDomainError("energy at or below the equilibrium energy")

        def g(u):
            t = mp.exp(u)
            t2 = t * t
            w = 1 + t2
            return _vtilde_u(u, w) - e, (t2 - 3) / w

        u_star, reach = mp.log(3) / 2, 4 * mp.sqrt((e - emin) / 3)
        bound = e + mp.ln2
        roots = []
        for side, warm, safe in zip((-1, 1), _warm_starts(e - emin, bound),
                                    (-bound / 3, bound)):
            gu = None
            if warm is not None:
                d, slope = warm
                u = u_star + d
                u += side * (1e-9 * abs(d) + mp.ldexp(
                    1 + abs(e) + 3 * abs(u), 6 - prec) / abs(slope))
                gu = g(u)
                if not gu[0] > 0:
                    gu = None
            if gu is None:
                u = u_star + side * reach
                gu = g(u)
                if not gu[0] > 0:
                    u, gu = safe, g(safe)
            roots.append(_convex_newton(g, u, gu, prec))
        return tuple(roots)


def _warm_starts(delta, bound):
    """(d, h'(d)) at each root of h(d) = Vtilde(u* + d) - E_min = delta, the
    root with d < 0 first, solved in doubles by _convex_newton from the cold
    starts of _turning_points_u (bound = E + log 2); None for a root the
    doubles do not reach (overflow, or steps that never stop shrinking).
    With a = e^(d/2),
        h(d) = 2 log(1 + (a - 1)^2 (3a^2 + 2a + 1) / (4a^3)),
        h'(d) = 3 (e^(2d) - 1) / (1 + 3a^4),
    and a - 1 = expm1(d/2) carries the double zero of h at d = 0, so h
    keeps its relative accuracy at every d and each root comes out to a
    few ulps of d, at E_min + 2^-108 as at E_min + 20."""
    delta, bound = float(delta), float(bound)
    u_star = 0.5 * math.log(3.0)

    def h(d):
        a, m = math.exp(0.5 * d), math.expm1(0.5 * d)
        return (2.0 * math.log1p(m * m * (3.0 * a * a + 2.0 * a + 1.0)
                                 / (4.0 * a ** 3)) - delta,
                3.0 * math.expm1(2.0 * d) / (1.0 + 3.0 * a ** 4))

    reach = 4.0 * math.sqrt(delta / 3.0)
    starts = []
    for side, safe in ((-1, -bound / 3.0 - u_star), (1, bound - u_star)):
        try:
            d = side * reach
            hd = h(d)
            if not hd[0] > 0:
                d, hd = safe, h(safe)
            d = _convex_newton(h, d, hd, 53)
            slope = h(d)[1]
        except ArithmeticError:
            starts.append(None)
            continue
        starts.append((d, slope) if side * d > 0 and side * slope > 0
                      else None)
    return starts


def _convex_newton(g, u, gu, prec):
    """Newton's method from u, where g returns (g, g') and gu = g(u), for
    steps that shrink until the rounding of g takes over
    (_turning_points_u): returns the iterate at the first step that is no
    longer smaller than the step before it, so no tolerance is needed.
    Raises ArithmeticError when the steps still shrink after prec + 20 of
    them."""
    last = mp.inf
    for _ in range(prec + 20):
        step = gu[0] / gu[1]
        if not abs(step) < last:
            return u
        u, last = u - step, abs(step)
        gu = g(u)
    raise ArithmeticError(f"no turning point to {prec} bits after "
                          f"{prec + 20} steps")


def turning_points_numeric(e, prec: int = 128):
    """Roots q- < pi/3 < q+ of E = Vtilde(q) at working precision prec:
    q = atan(e^u) at the roots of _turning_points_u."""
    with mp.workprec(prec):
        return tuple(mp.atan(mp.exp(u)) for u in _turning_points_u(e, prec))


@dataclass(frozen=True)
class PeriodSample:
    c: object
    energy: object
    period: object
    log_eta: object
    phi: object
    q_minus: object     # the inner turning point the quadrature started from


def quarter_midpoint(f, prec: int = 53):
    """Midpoint rule for int_0^(pi/2) f(theta) dtheta at prec bits, for f
    even, pi-periodic and analytic in a strip, where it converges
    geometrically (Trefethen & Weideman, SIAM Rev. 56, 2014).  From 8
    nodes it triples until two levels agree to 2^(-3 prec/4) relative, or
    their difference stops shrinking fourfold (the rounding floor of f).
    The nodes h(k + 1/2), h = pi/(2n), of n nodes are the nodes j = 3k + 1
    of 3n, so each level evaluates f only at its 2n new nodes and adds
    them to the running sum.  Returns the last level and its difference
    from the one before."""
    with mp.workprec(prec):
        agree = mp.mpf(2) ** (-3 * prec / 4)
        n = 8
        half = mp.pi / (4 * n)                  # h/2: node j is half (2j + 1)
        total = mp.fsum(f(half * (2 * k + 1)) for k in range(n))
        value, diff = 2 * half * total, mp.inf
        while True:
            n *= 3
            half = mp.pi / (4 * n)
            total += mp.fsum(f(half * (2 * j + 1)) for j in range(n)
                             if j % 3 != 1)
            new = 2 * half * total
            last, diff, value = diff, abs(new - value), new
            if diff <= agree * abs(value) or not 4 * diff <= last:
                return value, diff


def period(e, tol: float = 1e-10, prec: int = 128) -> PeriodSample:
    """Full return-map period T = 2 * int dq / sqrt(E - Vtilde).

    In u = log tan q, Vtilde = 2 log(1 + t^2) - 3u - log 2 with t = e^u is
    analytic for |Im u| < pi/2 at every energy (in q the strip closes as q+
    nears pi/2), and dq/du = t/(1 + t^2).  u = u- + (u+ - u-) sin^2(theta)
    removes both endpoint singularities; quarter_midpoint integrates over
    theta, and ArithmeticError is raised when its last difference exceeds
    tol.  Some published forms quote the half-period; we keep the return
    time.  log_eta = log(eps delta), with eps = q+ - pi/3 and
    delta = pi/3 - q- at the turning points q = atan(e^u).
    """
    with mp.workprec(prec):
        u_minus, u_plus = _turning_points_u(e, prec)
        span = u_plus - u_minus
        e = mp.mpf(e)
        e_ln2, two_span = e + mp.ln2, 2 * span

        def integrand(theta):
            # E - Vtilde(u) as in _vtilde_u, with w = 1 + t^2 formed once,
            # and sin 2 theta = 2 s c from one cos_sin
            c, s = mp.cos_sin(theta)
            u = u_minus + span * s * s
            t = mp.exp(u)
            w = 1 + t * t
            val = e_ln2 + 3 * u - 2 * mp.log(w)
            if val <= 0:
                return mp.mpf(0)
            return two_span * s * c * t / (w * mp.sqrt(val))

        val, err = quarter_midpoint(integrand, prec)
        t = 2 * val
        if err > tol:
            raise ArithmeticError(
                f"quadrature error {mp.nstr(err, 3)} above tolerance {tol}")
        q_minus, q_plus = (mp.atan(mp.exp(u)) for u in (u_minus, u_plus))
        third = mp.pi / 3
        log_eta = mp.log((q_plus - third) * (third - q_minus))
        return PeriodSample(c=c_of_energy(e, prec), energy=e, period=t,
                            log_eta=log_eta, phi=t - log_eta, q_minus=q_minus)


# -- symplectic oracle --------------------------------------------------------

_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = 1.0 - 2.0 * _W1
# steps per kernel call in integrate_diagonal and return_map_period: bounds
# the buffers of t and p a call fills for the numpy pass over them
_CHUNK = 1024


def _energy(t, p):
    """p^2 + Vtilde(q) for numpy arrays of t = tan q and p, with
    Vtilde = log((1 + t^2)^2 / (2 t^3))."""
    return p * p + np.log((1.0 + t * t) ** 2 / (2.0 * t * t * t))


def _yoshida4(q: float, p: float, t: float, h: float, n: int):
    """n steps of Yoshida's fourth-order composition: kick-drift-kick
    leapfrogs of w1*h, w0*h, w1*h, with t = tan q at the starting q.  The
    force pdot = cot q + cot 2q = (3 - t^2)/(2t) is folded into each kick:
    a kick of k*h/2 is a/t - b*t with a = 3kh/4 and b = kh/4.  The two
    kicks at each interior drift point are merged, and the last kick of a
    step is the next step's first, so a step takes three tangents.  Raises
    PeriodDomainError at the first step that ends outside 0 < q < pi/2.
    Returns the final q, p and tan q, and two lists of tan q and p after
    each step."""
    tan, half_pi = math.tan, math.pi / 2
    h1, h0 = _W1 * h, _W0 * h
    a1, b1 = 0.75 * h1, 0.25 * h1
    a10, b10 = 0.75 * (h1 + h0), 0.25 * (h1 + h0)
    ts, ps = [0.0] * n, [0.0] * n
    kick = a1 / t - b1 * t
    for i in range(n):
        p += kick
        q += h1 * p
        t = tan(q)
        p += a10 / t - b10 * t
        q += h0 * p
        t = tan(q)
        p += a10 / t - b10 * t
        q += h1 * p
        t = tan(q)
        kick = a1 / t - b1 * t
        p += kick
        if not 0.0 < q < half_pi:
            raise PeriodDomainError(f"q={q} outside (0, pi/2)")
        ts[i] = t
        ps[i] = p
    return q, p, t, ts, ps


def integrate_diagonal(q0: float, p0: float, h: float, nsteps: int):
    """nsteps of the _yoshida4 kernel from (q0, p0); returns the final
    state and the max deviation of the energy p^2 + Vtilde(q) over every
    step, taken with numpy per chunk of at most _CHUNK steps; each chunk's
    lists are packed into doubles, cheaper than np.array over a list."""
    if not 0 < q0 < math.pi / 2:
        raise PeriodDomainError(f"q={q0} outside (0, pi/2)")
    q, p, t = q0, p0, math.tan(q0)
    e0 = _energy(np.array([t]), np.array([p]))[0]
    emax = 0.0
    for done in range(0, nsteps, _CHUNK):
        n = min(_CHUNK, nsteps - done)
        q, p, t, ts, ps = _yoshida4(q, p, t, h, n)
        fmt = f"{n}d"
        de = _energy(np.frombuffer(struct.pack(fmt, *ts)),
                     np.frombuffer(struct.pack(fmt, *ps))) - e0
        emax = max(emax, float(np.abs(de).max()))
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
    t = math.tan(q)
    k = 0                                   # steps taken to reach (q, p)
    while True:
        q1, p1, t1, _, ps = _yoshida4(q, p, t, h, _CHUNK)
        pa = np.concatenate(([p], ps))
        hits = np.flatnonzero((pa[:-1] > 0) & (pa[1:] <= 0))
        if hits.size:
            break
        q, p, t, k = q1, p1, t1, k + _CHUNK
        if k * h > 1e6:
            raise ArithmeticError("no return detected")
    i = int(hits[0])
    q, p, t, _, _ = _yoshida4(q, p, t, h, i)
    lo, hi = 0.0, h
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _yoshida4(q, p, t, mid / 16, 16)[1] > 0:
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


# the n-th roots of unity for the square and cube roots of the chain
_UNITY = {2: np.array([1, -1], dtype=complex),
          3: np.exp(2j * np.pi / 3 * np.arange(3))}


def _continue_root(base, n):
    """Continue an n-th root (n = 2 or 3) along a path from its principal
    values `base`: the start takes base[0], and each later step the
    candidate base[j] u_k (u_k the n-th roots of unity) closest to the
    previous pick.  As |u_k| = 1, the distance from base[j] u_k to the
    previous pick base[j-1] u_m is |base[j] u_(k-m) - base[j-1]|, so each
    step's choice relative to the last one depends on base alone, and the
    picks are base u_(cumulative sum of the relative choices mod n).

    Guard: the two closest candidates, |base[j]| |u_1 - 1| apart, must be
    separated by at least 3x the pick's movement on the step before, and an
    exact tie in distance has no continuous choice; either raises
    ContinuationAmbiguity.  Step 1 has no step before it and no guard."""
    u = _UNITY[n]
    dist = np.abs(base[1:, None] * u - base[:-1, None])
    near = np.sort(dist, axis=1)
    move = np.concatenate(([0.0], near[:-1, 0]))
    gap = abs(u[1] - 1) * np.abs(base[1:])
    tie = near[:, 0] == near[:, 1]
    bad = tie | (gap < 3 * move)
    if bad.any():
        j = int(bad.argmax())
        if tie[j]:
            raise ContinuationAmbiguity(
                f"two candidates equidistant from the pick at step {j + 1}")
        raise ContinuationAmbiguity(
            f"branch separation {gap[j]:.3e} below guard {3 * move[j]:.3e} "
            f"at step {j + 1}; increase step count")
    rel = np.concatenate(([0], np.cumsum(dist.argmin(axis=1)) % n))
    return base * u[rel]


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

    Each radical is continued over the whole path at once (_continue_root),
    in chain order: s = sqrt(27 c^4 - 256 c^6), t = cbrt(9 c^2 - sqrt3 s),
    then s1 = sqrt(1 + B) and s2 = sqrt(2 - B + 2/s1), each from the picks
    before it.  The continuation runs in complex128, with c*, K1 and K2
    rounded once from 80 bits.  That is safe because `_continue_root` takes
    each radical as the candidate closest to its previous value only when
    the choice is clear by 3x the step-to-step movement, and raises
    ContinuationAmbiguity otherwise: a loop too coarse for the arithmetic
    fails loudly instead of jumping branches.
    """
    c0 = float(c_star(80)) if center is None else complex(center)
    k1, k2 = (float(k) for k in _b_coeffs(80))
    j = np.arange(loops * steps + 1)
    c = c0 + radius * np.exp(1j * (2 * np.pi * j / steps))
    c2 = c * c
    s = _continue_root(np.sqrt(27 * c2 * c2 - 256 * c2 * c2 * c2), 2)
    t = _continue_root((9 * c2 - math.sqrt(3) * s) ** (1 / 3), 3)
    b = k1 * c2 / t + k2 * t
    s1 = _continue_root(np.sqrt(1 + b), 2)
    s2 = _continue_root(np.sqrt(2 - b + 2 / s1), 2)
    r1, r2 = 0.5 - s1 / 2 - s2 / 2, 0.5 - s1 / 2 + s2 / 2
    eta = (np.arccos(r1) - 2 * np.pi / 3) * (2 * np.pi / 3 - np.arccos(r2)) / 4
    arg = math.fsum(np.angle(eta[1:] / eta[:-1]))     # correctly rounded
    swapped = (abs(r1[-1] - r2[0]) + abs(r2[-1] - r1[0])
               < abs(r1[-1] - r1[0]) + abs(r2[-1] - r2[0]))
    return MonodromyResult(
        b_before=complex(b[0]), b_after=complex(b[-1]),
        branch_changed=bool(abs(s[-1] + s[0]) < abs(s[-1] - s[0])),
        b_changed=bool(abs(b[-1] - b[0]) > 1e-6),
        roots_swapped=bool(swapped),
        log_eta_increment=complex(
            math.log(abs(eta[-1])) - math.log(abs(eta[0])), arg),
        eta_winding=round(arg / (2 * math.pi)))
