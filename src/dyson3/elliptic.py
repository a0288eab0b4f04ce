"""Weierstrass p-function evaluation and the particular-solution
certificates phi (cubic truncation, elliptic) and psi (quartic
truncation, hyperbolic).

p is evaluated from its Laurent series near 0 together with the
duplication formula, which is all the verification grids need; no
argument reduction to a fundamental cell is attempted.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import mpmath as mp


class LatticePointError(ArithmeticError):
    pass


@dataclass(frozen=True)
class EllipticInvariants:
    g2: object
    g3: object


def invariants_for_energy(h, prec: int = 128) -> EllipticInvariants:
    """g2 = 4/3, g3 = -4(h-2)/27 for the cubic-truncation energy h."""
    with mp.workprec(prec):
        return EllipticInvariants(g2=mp.mpf(4) / 3,
                                  g3=-mp.mpf(4) * (mp.mpf(h) - 2) / 27)


_SERIES_RADIUS = 0.3
_SERIES_TERMS = 64


@functools.lru_cache(maxsize=16)
def _laurent_coeffs(g2, g3, wp: int):
    """(c_0, ..., c_n) with p(t) = t^-2 + sum_{k>=2} c_k t^(2k-2) and
    n = _SERIES_TERMS, computed at working precision wp.

    Standard recursion: c_2 = g2/20, c_3 = g3/28,
    c_k = 3/((2k+1)(k-3)) * sum_{m=2}^{k-2} c_m c_{k-m}.
    The recursion is O(n^2), and a report evaluates p many times on the
    invariants of a few energies, so the coefficients are kept per
    (g2, g3, wp); wp is in the key because it rounds every c_k.
    """
    with mp.workprec(wp):
        c = [mp.mpf(0)] * (_SERIES_TERMS + 1)
        c[2] = g2 / 20
        c[3] = g3 / 28
        for k in range(4, _SERIES_TERMS + 1):
            acc = mp.mpf(0)
            for m in range(2, k - 1):
                acc += c[m] * c[k - m]
            c[k] = 3 * acc / ((2 * k + 1) * (k - 3))
        return tuple(c)


def weierstrass_p(t, inv: EllipticInvariants, prec: int = 128):
    """(p(t), p'(t)) by Laurent series plus repeated duplication.

    Validity check: |p'^2 - (4p^3 - g2 p - g3)| stays tiny at the working
    precision.  Proximity to a lattice point shows up as a magnitude
    blow-up and raises LatticePointError.
    """
    with mp.workprec(prec + 40):
        t = mp.mpc(t)
        if t == 0:
            raise LatticePointError("t = 0 is a lattice point")
        g2, g3 = mp.mpf(inv.g2), mp.mpf(inv.g3)
        ndup = 0
        while abs(t) > _SERIES_RADIUS:
            t /= 2
            ndup += 1
        c = _laurent_coeffs(g2, g3, prec + 40)
        t2 = t * t
        x = 1 / t2
        y = -2 / (t2 * t)
        tp = t2
        for k in range(2, _SERIES_TERMS + 1):
            # term c_k t^(2k-2) for p, (2k-2) c_k t^(2k-3) for p'
            x += c[k] * tp
            y += (2 * k - 2) * c[k] * tp / t
            tp *= t2
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


def phi_solution(t, h, prec: int = 128):
    """phi(t) = -sqrt3/2 - (3 sqrt3/2) p(t; 4/3, -4(h-2)/27) and phidot."""
    inv = invariants_for_energy(h, prec)
    with mp.workprec(prec + 40):
        x, y = weierstrass_p(t, inv, prec)
        s3 = mp.sqrt(3)
        return -s3 / 2 - 3 * s3 / 2 * x, -3 * s3 / 2 * y


def verify_phi(h, grid=None, prec: int = 128):
    """Max residual of qdot^2 = -(8 sqrt3/9) q^3 - 4 q^2 + h along phi."""
    with mp.workprec(prec + 40):
        if grid is None:
            grid = [mp.mpf(1) / 10 + mp.mpf(k) / 40 for k in range(20)]
        s3 = mp.sqrt(3)
        worst = mp.mpf(0)
        for t in grid:
            q, qd = phi_solution(t, h, prec)
            res = qd * qd - (-(8 * s3 / 9) * q ** 3 - 4 * q * q + mp.mpf(h))
            worst = max(worst, abs(res))
        return worst


def verify_phi_accel(h, grid=None, prec: int = 128):
    """Differentiated energy relation: 2 qddot = -(8 sqrt3/3) q^2 - 8 q.

    qddot = -(3 sqrt3/2) p'' with p'' = 6 p^2 - g2/2.
    """
    inv = invariants_for_energy(h, prec)
    with mp.workprec(prec + 40):
        if grid is None:
            grid = [mp.mpf(1) / 10 + mp.mpf(k) / 40 for k in range(20)]
        s3 = mp.sqrt(3)
        worst = mp.mpf(0)
        for t in grid:
            x, _ = weierstrass_p(t, inv, prec)
            q = -s3 / 2 - 3 * s3 / 2 * x
            qdd = -(3 * s3 / 2) * (6 * x * x - mp.mpf(inv.g2) / 2)
            res = 2 * qdd - (-(8 * s3 / 3) * q * q - 8 * q)
            worst = max(worst, abs(res))
        return worst


def psi_solution(t, prec: int = 128):
    """psi(t) = -3 sqrt3 / w, w = sqrt26 sinh(2it) + 1; returns
    (psi, psidot, psiddot) by direct trigonometric differentiation."""
    with mp.workprec(prec + 40):
        t = mp.mpc(t)
        s26 = mp.sqrt(26)
        s3 = mp.sqrt(3)
        w = s26 * mp.sinh(2j * t) + 1
        if abs(w) < mp.mpf(2) ** (-prec // 2):
            raise LatticePointError("t lies next to a pole of psi")
        wd = 2j * s26 * mp.cosh(2j * t)
        wdd = -4 * s26 * mp.sinh(2j * t)
        psi = -3 * s3 / w
        psid = 3 * s3 * wd / w ** 2
        psidd = 3 * s3 * (wdd * w - 2 * wd * wd) / w ** 3
        return psi, psid, psidd


def verify_psi(grid=None, prec: int = 128):
    """Max residual of qddot = -4q - (4 sqrt3/3) q^2 - 8 q^3 along psi."""
    with mp.workprec(prec + 40):
        if grid is None:
            grid = [mp.mpf(k) / 16 for k in range(25)]
        s3 = mp.sqrt(3)
        worst = mp.mpf(0)
        for t in grid:
            q, _, qdd = psi_solution(t, prec)
            res = qdd - (-4 * q - (4 * s3 / 3) * q * q - 8 * q ** 3)
            worst = max(worst, abs(res))
        return worst


def psi_diagonal_energy(prec: int = 128):
    """Energy parameter h of psi in the quartic diagonal relation
    qdot^2 = h - 4q^2 - (8 sqrt3/9) q^3 - 4 q^4, evaluated on a grid
    (it is identically 0; the report stores the measured value)."""
    with mp.workprec(prec + 40):
        s3 = mp.sqrt(3)
        vals = []
        for k in range(1, 8):
            t = mp.mpf(k) / 8
            q, qd, _ = psi_solution(t, prec)
            vals.append(qd * qd + 4 * q * q + (8 * s3 / 9) * q ** 3 + 4 * q ** 4)
        return max(abs(v) for v in vals), vals[0]
