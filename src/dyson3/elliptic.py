"""Weierstrass p-function evaluation and the particular-solution
certificates phi (cubic truncation, elliptic) and psi (quartic
truncation, hyperbolic).  Each certificate takes the truncation it
certifies and evaluates `model`'s exact derivation of its phi or psi.

p is evaluated at real t from its Laurent series near 0 together with
the duplication formula, which is all the verification grids need; no
argument reduction to a fundamental cell is attempted.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import mpmath as mp
from mpmath.libmp import from_man_exp, to_fixed

from . import model


class LatticePointError(ArithmeticError):
    pass


@dataclass(frozen=True)
class EllipticInvariants:
    g2: object
    g3: object


def _mp(x):
    """A field element as an mpf when it is real, else as an mpc."""
    return sum((n * mp.sqrt(r) if r > 0 else mp.mpc(0, n * mp.sqrt(-r))
                for r, n in sorted(x.num.items())), mp.mpf(0)) / x.den


def _mp_coeffs(p):
    """p's coefficients as mpmath numbers, highest first, for mp.polyval."""
    return [_mp(c) for c in reversed(p.coeffs)]


def invariants_for_energy(trunc, h, prec: int = 128) -> EllipticInvariants:
    """g2 and g3 of phi on the rational energy h of the cubic truncation
    trunc."""
    phi = model.elliptic_solution(trunc)
    with mp.workprec(prec):
        return EllipticInvariants(g2=_mp(phi.g2), g3=_mp(phi.g3(h)))


_SERIES_RADIUS = 0.3


@functools.lru_cache(maxsize=16)
def _laurent_coeffs(g2, g3, wp: int):
    """The pairs (c_k, (2k-2) c_k) for k = n, ..., 2, the order Horner's
    rule takes them in, with p(t) = t^-2 + sum_{k>=2} c_k t^(2k-2),
    computed at working precision wp and returned in fixed point, as the
    integers nearest c 2^wp.

    Standard recursion: c_2 = g2/20, c_3 = g3/28,
    c_k = 3/((2k+1)(k-3)) * sum_{m=2}^{k-2} c_m c_{k-m}.
    The series converges out to the nearest nonzero lattice point, which
    lies at 3.0-3.3 for the report's lattices, so at |t| <= R =
    _SERIES_RADIUS each term is about 1/100 of the one before.  n is the
    last k before three terms in a row fall below 2^-wp relative to the
    leading terms t^-2 of p and -2 t^-3 of p': (k - 1) |c_k| R^(2k) <
    2^-wp.  Three, as c_k vanishes in runs of two when g2 or g3 is 0.
    The recursion is O(n^2), and a report evaluates p many times on the
    invariants of a few energies, so the coefficients are kept per
    (g2, g3, wp); wp is in the key because it rounds every c_k.
    """
    with mp.workprec(wp):
        r2, tiny = mp.mpf(_SERIES_RADIUS) ** 2, mp.ldexp(1, -wp)
        c = [None, None, g2 / 20, g3 / 28]
        small, k = 0, 2
        while small < 3:
            if k == len(c):
                acc = mp.mpf(0)
                for m in range(2, k - 1):
                    acc += c[m] * c[k - m]
                c.append(3 * acc / ((2 * k + 1) * (k - 3)))
            small = small + 1 if (k - 1) * abs(c[k]) * r2 ** k < tiny else 0
            k += 1
        n = k - 4
        return tuple((to_fixed(c[k]._mpf_, wp),
                      to_fixed(((2 * k - 2) * c[k])._mpf_, wp))
                     for k in range(n, 1, -1))


def weierstrass_p(t, inv: EllipticInvariants, prec: int = 128):
    """(p(t), p'(t)) at a real t by Laurent series plus repeated
    duplication; a complex t raises TypeError.

    t is halved into the series disc, where Horner's rule in t^2 sums
    p = t^-2 + t^2 A(t^2) and p' = -2 t^-3 + t B(t^2), with
    A(x) = sum_{k>=2} c_k x^(k-2) and B(x) = sum_{k>=2} (2k-2) c_k x^(k-2),
    at the cost of one division; duplication then doubles t back.  Horner's
    rule runs in fixed point, on integers scaled by 2^wp, wp = prec + 40:
    x <= 0.09 and the c_k shrink about a hundredfold per term, so its
    truncation errors, one unit of 2^-wp per step, stay 40 bits below the
    result's precision.

    Validity check: |p'^2 - (4p^3 - g2 p - g3)| stays tiny at the working
    precision.  Proximity to a lattice point shows up as a magnitude
    blow-up and raises LatticePointError.
    """
    wp = prec + 40
    with mp.workprec(wp):
        t = mp.mpf(t)
        if t == 0:
            raise LatticePointError("t = 0 is a lattice point")
        g2, g3 = mp.mpf(inv.g2), mp.mpf(inv.g3)
        ndup = 0
        while abs(t) > _SERIES_RADIUS:
            t /= 2
            ndup += 1
        t2 = t * t
        x2 = to_fixed(t2._mpf_, wp)
        a = b = 0
        for ck, dk in _laurent_coeffs(g2, g3, wp):
            a = ((a * x2) >> wp) + ck
            b = ((b * x2) >> wp) + dk
        a, b = (mp.make_mpf(from_man_exp(v, -wp)) for v in (a, b))
        inv_t = 1 / t
        inv_t2 = inv_t * inv_t
        x = inv_t2 + t2 * a
        y = t * b - 2 * inv_t2 * inv_t
        for _ in range(ndup):
            if abs(y) < mp.mpf(2) ** (-prec):
                raise LatticePointError("p' vanished during duplication "
                                        "(half-lattice point)")
            # p(2z) = u^2 - 2p with u = p''/(2p'); differentiating gives
            # p'(2z) = u*(6p - 2u^2) - p'
            u = (6 * x * x - g2 / 2) / (2 * y)
            x, y = u * u - 2 * x, u * (6 * x - 2 * u * u) - y
        if abs(x) > mp.mpf(10) ** (prec // 2):
            raise LatticePointError("magnitude blow-up: t is next to a "
                                    "lattice point")
        return +x, +y


def weierstrass_ode_residual(t, inv: EllipticInvariants, prec: int = 128):
    with mp.workprec(prec + 40):
        x, y = weierstrass_p(t, inv, prec)
        return abs(y * y - (4 * x ** 3 - mp.mpf(inv.g2) * x - mp.mpf(inv.g3)))


# The certificates convert the field constants of phi, psi and the potential
# to mpmath once per call: a and b, psi's constants and the potentials at
# prec + 40 bits, the invariants at prec.

def _phi_constants(trunc, h, prec):
    """(a, b, invariants) of trunc's phi on the energy h as mpmath
    numbers."""
    phi = model.elliptic_solution(trunc)
    inv = invariants_for_energy(trunc, h, prec)
    with mp.workprec(prec + 40):
        return _mp(phi.a), _mp(phi.b), inv


def _phi_at(t, consts, prec):
    a, b, inv = consts
    with mp.workprec(prec + 40):
        x, y = weierstrass_p(t, inv, prec)
        return a + b * x, b * y


def phi_residual(trunc, u, h, ts, prec: int = 128):
    """Max residual of qdot^2 = h - u(q) along the cubic truncation trunc's
    phi at the times ts; u is trunc's diagonal potential, or a corrupted
    one for a negative control."""
    consts = _phi_constants(trunc, h, prec)
    with mp.workprec(prec + 40):
        coeffs = _mp_coeffs(u)
        return max(abs(qd * qd - (h - mp.polyval(coeffs, q)))
                   for q, qd in (_phi_at(t, consts, prec) for t in ts))


def verify_phi(trunc, h, prec: int = 128):
    """Max residual of the cubic truncation trunc's energy relation along
    its phi."""
    with mp.workprec(prec + 40):
        ts = [mp.mpf(1) / 10 + mp.mpf(k) / 40 for k in range(20)]
        return phi_residual(trunc, model.diagonal_potential(trunc), h, ts,
                            prec)


def _psi_constants(trunc, prec):
    """(alpha, rho, omega) of trunc's psi as mpmath numbers."""
    pole = model.pole_solution(trunc)
    with mp.workprec(prec + 40):
        return _mp(pole.alpha), _mp(pole.rho), _mp(pole.omega)


def _psi_at(t, consts, prec):
    alpha, rho, omega = consts
    with mp.workprec(prec + 40):
        t = mp.mpc(t)
        s = rho * mp.sin(omega * t)
        w = 1 + s
        if abs(w) < mp.mpf(2) ** (-prec // 2):
            raise LatticePointError("t lies next to a pole of psi")
        wd = rho * omega * mp.cos(omega * t)
        wdd = -omega * omega * s
        return (alpha / w, -alpha * wd / w ** 2,
                alpha * (2 * wd * wd - wdd * w) / w ** 3)


def verify_psi(trunc, prec: int = 128):
    """Max residual of the quartic truncation trunc's force qddot = g(q)
    along its psi."""
    g = model.diagonal_reduce(trunc)
    consts = _psi_constants(trunc, prec)
    with mp.workprec(prec + 40):
        coeffs = _mp_coeffs(g)
        return max(abs(qdd - mp.polyval(coeffs, q)) for q, _, qdd in
                   (_psi_at(mp.mpf(k) / 16, consts, prec) for k in range(25)))


def psi_diagonal_energy(trunc, prec: int = 128):
    """Energy h = qdot^2 + U(q) of the quartic truncation trunc's psi in
    its diagonal relation, evaluated on a grid (it is identically 0; the
    report stores the measured value)."""
    u = model.diagonal_potential(trunc)
    consts = _psi_constants(trunc, prec)
    with mp.workprec(prec + 40):
        coeffs = _mp_coeffs(u)
        vals = [qd * qd + mp.polyval(coeffs, q) for q, qd, _ in
                (_psi_at(mp.mpf(k) / 8, consts, prec) for k in range(1, 8))]
        return max(abs(v) for v in vals), vals[0]
