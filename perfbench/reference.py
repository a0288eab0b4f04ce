"""Reference values computed without dyson3.

Nothing here imports the program: each expected value comes from the
problem statement (the reduced Hamiltonian, the closed forms of the
equilibrium energy and of c*) or from classical theorems (Kimura's
solvability theorem for the hypergeometric equation, the Riccati
construction r = omega' + omega^2).  The check functions return a list of
failure messages, empty when the program's output agrees.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.integrate import solve_ivp

E_MIN = math.log(8 * math.sqrt(3) / 9)
C_STAR = 3 * math.sqrt(3) / 16

# Agreement demanded of the program's quadrature period against the DOP853
# integration below; the reference itself is good to about 1e-11.
PERIOD_TOL = 1e-8
# E_min and c* against their closed forms
EQUILIBRIUM_TOL = 1e-12
# T at the lowest energy of a family against its limit pi
PERIOD_LIMIT_TOL = 1e-4
# Im of the log eta increment against 2 pi times the winding
WINDING_TOL = 1e-6
# NVE monodromy determinant against 1
UNIMODULAR_TOL = 1e-8


# ---------------------------------------------------------------------------
# period of the diagonal orbit
# ---------------------------------------------------------------------------

def _hamilton_rhs(t, y):
    """H = p1^2 - p1 p2 + p2^2 - log sin q1 - log sin q2 - log sin(q1+q2)."""
    q1, q2, p1, p2 = y
    c12 = 1.0 / math.tan(q1 + q2)
    return [2 * p1 - p2, 2 * p2 - p1,
            1.0 / math.tan(q1) + c12, 1.0 / math.tan(q2) + c12]


def _upward(t, y):
    return y[0] - math.pi / 3


_upward.direction = 1


def _downward(t, y):
    return y[0] - math.pi / 3


_downward.direction = -1


def diagonal_period(offset: float) -> float:
    """Return time of the diagonal orbit at energy E_min + offset.

    The orbit starts at the minimum q1 = q2 = pi/3 with p1 = p2 =
    sqrt(offset) (on the diagonal H = p^2 + V(q)), and the full 4D
    Hamiltonian flow is integrated until q1 next crosses pi/3 upward,
    after its downward crossing at half the period.
    """
    p = math.sqrt(offset)
    y0 = [math.pi / 3, math.pi / 3, p, p]
    sol = solve_ivp(_hamilton_rhs, (0.0, 2 * math.pi), y0, method="DOP853",
                    rtol=1e-13, atol=1e-15, events=(_upward, _downward))
    down = [t for t in sol.t_events[1] if t > 0]
    if not down:
        raise ArithmeticError(f"no half return at offset {offset}")
    up = [t for t in sol.t_events[0] if t > down[0]]
    if not up:
        raise ArithmeticError(f"no return at offset {offset}")
    return float(up[0])


def check_period(label: str, t_program: float, offset: float) -> list:
    want = diagonal_period(offset)
    if not abs(t_program - want) <= PERIOD_TOL:
        return [f"{label}: T={t_program!r} but the DOP853 reference gives "
                f"{want!r} (tolerance {PERIOD_TOL})"]
    return []


def check_equilibrium(e_min: float, c_star: float) -> list:
    out = []
    if not abs(e_min - E_MIN) <= EQUILIBRIUM_TOL:
        out.append(f"E_min={e_min!r}, log(8*sqrt(3)/9)={E_MIN!r}")
    if not abs(c_star - C_STAR) <= EQUILIBRIUM_TOL:
        out.append(f"c*={c_star!r}, 3*sqrt(3)/16={C_STAR!r}")
    return out


def check_period_family(offsets, periods) -> list:
    """T falls strictly as the energy rises and tends to pi at E_min."""
    pairs = sorted(zip(offsets, periods))
    out = []
    for (e1, t1), (e2, t2) in zip(pairs, pairs[1:]):
        if not t2 < t1:
            out.append(f"T does not fall between offsets {e1} and {e2}: "
                       f"{t1!r} -> {t2!r}")
    lowest_offset, lowest_t = pairs[0]
    if not abs(lowest_t - math.pi) <= PERIOD_LIMIT_TOL:
        out.append(f"T={lowest_t!r} at offset {lowest_offset} is not within "
                   f"{PERIOD_LIMIT_TOL} of pi")
    return out


# ---------------------------------------------------------------------------
# Kimura's theorem and Schwarz's list
# ---------------------------------------------------------------------------

_H = Fraction(1, 2)
_T = Fraction(1, 3)
_Q = Fraction(1, 4)
_F = Fraction(1, 5)

# Schwarz's list rows 2-15 (row 1, (1/2, 1/2, nu), is the dihedral family)
# with the rotation order Kovacic's case 3 finds for the projective group.
SCHWARZ_ROWS = (
    ((_H, _T, _T), "tetrahedral", 4),
    ((2 * _T, _T, _T), "tetrahedral", 4),
    ((_H, _T, _Q), "octahedral", 6),
    ((2 * _T, _Q, _Q), "octahedral", 6),
    ((_H, _T, _F), "icosahedral", 12),
    ((2 * _F, _T, _T), "icosahedral", 12),
    ((2 * _T, _F, _F), "icosahedral", 12),
    ((_H, 2 * _F, _F), "icosahedral", 12),
    ((3 * _F, _T, _F), "icosahedral", 12),
    ((2 * _F, 2 * _F, 2 * _F), "icosahedral", 12),
    ((2 * _T, _T, _F), "icosahedral", 12),
    ((4 * _F, _F, _F), "icosahedral", 12),
    ((_H, 2 * _F, _T), "icosahedral", 12),
    ((3 * _F, 2 * _F, _T), "icosahedral", 12),
)


def _is_int(x: Fraction) -> bool:
    return x.denominator == 1


def kimura_expectation(lam, mu, nu) -> dict:
    """Expected Kovacic outcome for exponent differences (lam, mu, nu).

    Kimura (Funkcial. Ekvac. 12, 1969): the hypergeometric equation has
    Liouvillian solutions iff (A) one of lam+mu+nu, -lam+mu+nu,
    lam-mu+nu, lam+mu-nu is an odd integer (reducible: Kovacic case 1),
    or (B) after sign changes, a permutation and adding integers of even
    sum, the triple is a row of Schwarz's list: row 1 is dihedral (case 2),
    the others tetrahedral, octahedral or icosahedral (case 3, n = 4, 6,
    12).  Otherwise the group is SL(2, C).
    """
    ex = tuple(Fraction(x) for x in (lam, mu, nu))
    for s1, s2 in itertools.product((1, -1), repeat=2):
        total = ex[0] + s1 * ex[1] + s2 * ex[2]
        if _is_int(total) and total % 2 == 1:
            return {"verdict": "liouvillian", "case": 1, "n": None,
                    "group": "reducible"}
    halves = sum(1 for x in ex if _is_int(x - _H))
    if halves >= 2:
        return {"verdict": "liouvillian", "case": 2, "n": None,
                "group": "dihedral"}
    for row, group, n in SCHWARZ_ROWS:
        for perm in itertools.permutations(ex):
            for signs in itertools.product((1, -1), repeat=3):
                shifts = [s * x - r for s, x, r in zip(signs, perm, row)]
                if all(_is_int(d) for d in shifts) and sum(shifts) % 2 == 0:
                    return {"verdict": "liouvillian", "case": 3, "n": n,
                            "group": group}
    return {"verdict": "not_liouvillian", "case": None, "n": None,
            "group": "SL(2,C)"}


def check_decision(label: str, expect: dict, verdict: str, case, n,
                   certificate) -> list:
    """Compare one Kovacic result with its expected verdict, case and n."""
    got = (verdict, case, n)
    want = (expect["verdict"], expect["case"], expect["n"])
    out = []
    if got != want:
        out.append(f"{label}: (verdict, case, n) = {got}, expected {want}")
    if verdict == "liouvillian" and certificate != "exact":
        out.append(f"{label}: certificate {certificate!r} is not exact")
    return out


# A Riccati solution omega makes xi = exp(int omega) a solution of
# xi'' = (omega' + omega^2) xi, so the operator is reducible.
RICCATI_EXPECTATION = {"verdict": "liouvillian", "case": 1, "n": None,
                       "group": "reducible"}


# ---------------------------------------------------------------------------
# numeric-oracle properties
# ---------------------------------------------------------------------------

def check_winding(label: str, winding: int, log_increment: complex,
                  expected: int) -> list:
    out = []
    if winding != expected:
        out.append(f"{label}: eta winds {winding} times, expected {expected}")
    if not abs(log_increment.imag - 2 * math.pi * expected) <= WINDING_TOL:
        out.append(f"{label}: Im(log eta increment) = {log_increment.imag!r}, "
                   f"expected {2 * math.pi * expected!r}")
    return out


def check_below(label: str, value: float, bound: float) -> list:
    if not value < bound:
        return [f"{label}: {value!r} is not below {bound}"]
    return []


def check_above(label: str, value: float, bound: float) -> list:
    if not value > bound:
        return [f"{label}: {value!r} is not above {bound}"]
    return []


def check_unimodular(label: str, matrix) -> list:
    det = float(np.linalg.det(np.asarray(matrix, dtype=float)))
    if not abs(det - 1.0) <= UNIMODULAR_TOL:
        return [f"{label}: monodromy determinant {det!r} is not 1"]
    return []
