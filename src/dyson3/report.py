"""Pipeline orchestration: run every analysis stage, collect evidence into a
versioned JSON report, and emit CSV/Markdown artifacts.

Each section builder returns a plain dict with a ``status`` field
(``PASS`` / ``FAIL`` / ``INDETERMINATE``) and a list of named checks; the
verdict section ties the two non-integrability claims to the section checks
that support them.  A report always holds all eight sections, so every
verdict finds each check it cites.  All outputs are deterministic: no
timestamps, sorted keys, and floats rendered through ``float`` reprs.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
import pickle
import signal
import traceback
from dataclasses import asdict, dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

from . import period

# The exact and elliptic layers (field, poly, model, elliptic, nve, kovacic)
# are imported by the section builders that use them, after the report
# forks: a forked child that builds only period sections never compiles
# them, and the parent compiles them while the child already runs.

SCHEMA_VERSION = "1.0.0"

# The period quadrature tolerance, and the bound of the two equilibrium
# checks that compare closed forms at the working precision.
TOL = 1e-10

_STATUSES = ("PASS", "INDETERMINATE", "FAIL")     # ascending severity
EXIT_CODES = {"PASS": 0, "FAIL": 1, "INDETERMINATE": 2}


def _has(obj, key, kind) -> bool:
    return (isinstance(obj, dict) and obj.get("status") in _STATUSES
            and isinstance(obj.get(key), kind))


def validate_section(section) -> None:
    """ValueError unless the section holds a status and a list of checks,
    each with a string id and a status."""
    if not (_has(section, "checks", list)
            and all(_has(c, "id", str) for c in section["checks"])):
        raise ValueError("a section does not have the fixed section shape")


def validate(report: dict) -> None:
    """ValueError unless the report has its fixed shape: a string
    schema_version, a config object, sections that each pass
    `validate_section`, and verdicts that hold a status and a list of
    string evidence ids."""
    if not (isinstance(report, dict)
            and isinstance(report.get("schema_version"), str)
            and isinstance(report.get("config"), dict)
            and isinstance(report.get("sections"), dict)
            and isinstance(report.get("verdicts"), dict)
            and all(_has(v, "evidence", list)
                    and all(isinstance(e, str) for e in v["evidence"])
                    for v in report["verdicts"].values())):
        raise ValueError("the report does not have the fixed report shape")
    for section in report["sections"].values():
        validate_section(section)


@dataclass(frozen=True)
class PipelineConfig:
    precision: int = 128
    grid_min: float = 1e-6
    grid_max: float = 1.0
    grid_count: int = 12

    def __post_init__(self):
        if not (math.isfinite(self.grid_min) and math.isfinite(self.grid_max)):
            raise ValueError("grid min and max must be finite")
        if self.grid_min <= 0:
            raise ValueError("grid min must be positive")
        if self.grid_count < 2:
            raise ValueError("grid count must be >= 2")
        if self.grid_max <= self.grid_min:
            raise ValueError("grid max must exceed grid min")
        if self.precision < 53:
            raise ValueError("precision below double precision")

    def to_json(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# check plumbing
# ---------------------------------------------------------------------------

def _check(cid, ok, value=None, tol=None, note=None) -> dict:
    out = {"id": cid, "status": "PASS" if ok else "FAIL"}
    if value is not None:
        out["value"] = value
    if tol is not None:
        out["tol"] = tol
    if note is not None:
        out["note"] = note
    return out


def _status(statuses) -> str:
    """The most severe status: FAIL over INDETERMINATE over PASS."""
    return max(statuses, key=_STATUSES.index, default="PASS")


def _section(name, checks, extra=None) -> dict:
    out = {"name": name, "status": _status(c["status"] for c in checks),
           "checks": checks}
    if extra:
        out.update(extra)
    return out


def _c(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------

def section_equilibrium(cfg: PipelineConfig) -> dict:
    from . import model
    from .field import FE
    prec = cfg.precision
    with mp.workprec(prec):
        emin = period.e_min(prec)
        cstar = period.c_star(prec)
        emin_err = abs(emin - mp.log(8 * mp.sqrt(3) / 9))
        cstar_err = abs(cstar - 3 * mp.sqrt(3) / 16)
    g3 = model.diagonal_reduce(model.taylor_truncate(3))
    checks = [
        _check("equilibrium.e_min", float(emin_err) < TOL,
               value=float(emin), tol=TOL, note="log(8*sqrt(3)/9)"),
        _check("equilibrium.c_star", float(cstar_err) < TOL,
               value=float(cstar), tol=TOL, note="3*sqrt(3)/16"),
        _check("equilibrium.omega_squared",
               g3.coeff(1) == FE(-4), value=4.0, tol=0.0,
               note="linearized qddot = -4q, so the small-oscillation "
                    "period limit is pi"),
    ]
    return _section("equilibrium", checks, extra={
        "e_min": float(emin), "c_star": float(cstar),
        "period_limit": float(mp.pi)})


def _scan_offsets(cfg: PipelineConfig):
    # geometric spacing, ordered from the top of the grid down toward E_min
    lo, hi, n = cfg.grid_min, cfg.grid_max, cfg.grid_count
    ratio = (hi / lo) ** (1.0 / (n - 1))
    return [hi / ratio ** k for k in range(n)]


def section_period_scan(cfg: PipelineConfig) -> dict:
    prec = cfg.precision
    emin = period.e_min(prec)
    rows, errors = [], []
    for off in _scan_offsets(cfg):
        try:
            s = period.period(emin + mp.mpf(off), tol=TOL, prec=prec)
            rows.append({"offset": off, "c": float(s.c), "E": float(s.energy),
                         "T": float(s.period), "log_eta": float(s.log_eta),
                         "phi": float(s.phi), "error": None})
        except (period.PeriodDomainError, ArithmeticError) as exc:
            rows.append({"offset": off, "error": str(exc)})
            errors.append(str(exc))
    good = [r for r in rows if r["error"] is None]
    periods = [r["T"] for r in good]
    # limit probe at E_min + 1e-6 (always included regardless of grid)
    probe = period.period(emin + mp.mpf(1e-6), tol=TOL, prec=prec)
    probe_err = abs(float(probe.period) - math.pi)
    # degenerate row at c = c* has coincident turning points
    tp_star = period.turning_points_closed(period.c_star(prec), prec)
    eps_star = max(abs(float(tp_star.eps)), abs(float(tp_star.delta)))
    # cross-check quadrature against the symplectic return map at one energy
    e_mid = float(period.e_min(prec)) + 0.25
    mid = period.period(e_mid, tol=TOL, prec=prec)
    t_quad = float(mid.period)
    t_map = period.return_map_period(e_mid, h=1e-3, q_minus=mid.q_minus)
    monotone = all(b > a for a, b in zip(periods, periods[1:]))
    checks = [
        _check("period_scan.limit_probe", probe_err < 1e-3,
               value=float(probe.period), tol=1e-3,
               note="T -> pi as E -> E_min"),
        _check("period_scan.degenerate_row", eps_star < 1e-30,
               value=eps_star, tol=1e-30,
               note="eps = delta = 0 at c = 3*sqrt(3)/16"),
        _check("period_scan.monotone_T", monotone and not errors,
               note="T rises toward pi as the energy drops to E_min"),
        _check("period_scan.return_map_crosscheck",
               abs(t_quad - t_map) < 1e-6,
               value=abs(t_quad - t_map), tol=1e-6),
    ]
    return _section("period_scan", checks, extra={"rows": rows})


def section_turning_points(cfg: PipelineConfig) -> dict:
    prec = cfg.precision
    with mp.workprec(prec):
        cstar = period.c_star(prec)
        cs = [mp.mpf("0.02") + (cstar - mp.mpf("0.02")) * k / 49
              for k in range(50)]
        emin = period.e_min(prec)
        worst_q, worst_quartic = 0.0, 0.0
        for c in cs:
            tp = period.turning_points_closed(c, prec)
            if tp.energy - emin < mp.mpf(2) ** (16 - prec):
                # degenerate endpoint c = c*: both turning points coincide
                # with the equilibrium, and E(c*) may round to E_min or
                # below, where turning_points_numeric raises
                qm = qp = mp.pi / 3
            else:
                qm, qp = period.turning_points_numeric(tp.energy, prec)
            worst_q = max(worst_q, float(abs(tp.q_minus - qm)),
                          float(abs(tp.q_plus - qp)))
            worst_quartic = max(worst_quartic, float(tp.quartic_residual()))
        tp_star = period.turning_points_closed(cstar, prec)
        r_err = max(float(abs(tp_star.r1 + mp.mpf(1) / 2)),
                    float(abs(tp_star.r2 + mp.mpf(1) / 2)))
    checks = [
        _check("turning_points.closed_vs_numeric", worst_q < 1e-9,
               value=worst_q, tol=1e-9),
        _check("turning_points.quartic_residual", worst_quartic < 1e-12,
               value=worst_quartic, tol=1e-12),
        _check("turning_points.double_root_at_c_star", r_err < 1e-10,
               value=r_err, tol=1e-10, note="r1 = r2 = -1/2"),
    ]
    return _section("turning_points", checks)


# the branch loops round c*: their radius and number of steps per loop
MONODROMY_RADIUS = 1e-3
MONODROMY_STEPS = 2000


def section_monodromy(cfg: PipelineConfig) -> dict:
    radius, steps = MONODROMY_RADIUS, MONODROMY_STEPS
    single = period.eta_monodromy(radius=radius, steps=steps, loops=1)
    double = period.eta_monodromy(radius=radius, steps=steps, loops=2)
    cstar = float(period.c_star(80))
    away = period.eta_monodromy(radius=radius, steps=steps, loops=1,
                                center=cstar - 0.01)
    checks = [
        _check("monodromy.single_loop_flip",
               single.branch_changed and single.roots_swapped,
               note="one loop around c* flips the inner radical and "
                    "exchanges the turning-point roots"),
        _check("monodromy.log_eta_winding", single.eta_winding == 1,
               value=_c(single.log_eta_increment), tol=0.0,
               note="log(eta) gains 2*pi*i per enclosing loop"),
        _check("monodromy.double_loop_restores",
               (not double.branch_changed) and double.eta_winding == 2),
        _check("monodromy.non_enclosing_loop",
               (not away.branch_changed) and away.eta_winding == 0,
               note="a loop not enclosing c* changes nothing"),
    ]
    return _section("monodromy", checks, extra={
        "radius": radius, "steps": steps,
        "b_before": _c(single.b_before), "b_after": _c(single.b_after)})


def _canonical_reduction(jac, kinetic) -> bool:
    """H_full = H_reg + (3/2) p3^2, exactly, for the linear reduction
    (x, y) -> (q, p) with Jacobian `jac` (as in model.transform_jacobian)
    and `kinetic`, H_reg's kinetic form as {(e_p1, e_p2, e_p3): coefficient}.

    (i) jac is block diagonal (q depends on x alone, p on y alone), so
    jac S jac^T = [[0, A B^T], [-B A^T, 0]] for A and B its position and
    momentum blocks, and A B^T = I: jac S jac^T = S, the map is canonical
    and y = A^T p.  (ii) The free kinetic energy |y|^2/2 = p^T (A A^T/2) p
    is then `kinetic` exactly.  (iii) The rows of A give q1, q2 and q1 + q2
    as the pair differences x1 - x2, x2 - x3 and x1 - x3, so
    -sum log|sin(xi - xj)| is H_reg's potential, free of q3.
    """
    pos = [row[:3] for row in jac[:3]]
    mom = [row[3:] for row in jac[3:]]
    canonical = (
        all(jac[i][j] == jac[j][i] == 0 for i in range(3) for j in range(3, 6))
        and all(sum(u * v for u, v in zip(pos[i], mom[j])) == (i == j)
                for i in range(3) for j in range(3)))
    free = {}
    for i in range(3):
        for j in range(i, 3):
            c = sum(u * v for u, v in zip(pos[i], pos[j]))
            if c:
                e = [0, 0, 0]
                e[i] += 1
                e[j] += 1
                free[tuple(e)] = c / 2 if i == j else c
    pairs = [pos[0], pos[1], [u + v for u, v in zip(pos[0], pos[1])]]
    return (canonical and free == kinetic
            and pairs == [[1, -1, 0], [0, 1, -1], [1, 0, -1]])


def section_truncations(cfg: PipelineConfig) -> dict:
    from . import model
    from .field import FE, SQRT3, FieldElement
    from .poly import Poly
    printed_quartic_coeffs = (
        # (q1 exp, q2 exp, expected coefficient) in the truncated potential
        ((2, 0), FE(Fraction(4, 3))),
        ((2, 1), SQRT3 * FE(Fraction(4, 9))),
        ((4, 0), FE(Fraction(4, 9))),
        ((3, 1), FE(Fraction(8, 9))),
    )
    t3 = model.taylor_truncate(3)
    t4 = model.taylor_truncate(4)
    pot4 = t4.potential_coeffs()
    # H_reg's kinetic form on (p1, p2), and the free centre of mass
    kinetic = {e + (0,): c for e, c in model.KINETIC.items()}
    kinetic[(0, 0, 2)] = Fraction(3, 2)
    checks = [_check(
        "truncations.canonical_reduction",
        _canonical_reduction(model.transform_jacobian(), kinetic),
        value="H_full = H_reg + (3/2) p3^2", tol=0.0,
        note="exact over Fractions: J S J^T = S; |y|^2/2 = p1^2 - p1 p2 + "
             "p2^2 + (3/2) p3^2; q1, q2, q1 + q2 are the pair differences")]
    for (e1, e2), want in printed_quartic_coeffs:
        got = pot4.get((e1, e2), FieldElement())
        checks.append(_check(
            f"truncations.coeff_q1^{e1}q2^{e2}", got == want,
            value=str(want), tol=0.0, note="exact tower equality"))
    g3 = model.diagonal_reduce(t3)
    g4 = model.diagonal_reduce(t4)
    want3 = Poly([FE(0), FE(-4), SQRT3 * FE(Fraction(-4, 3))])
    want4 = Poly([FE(0), FE(-4), SQRT3 * FE(Fraction(-4, 3)), FE(-8)])
    checks.append(_check("truncations.diagonal_cubic", g3 == want3,
                         value="qddot = -4q - (4*sqrt3/3) q^2", tol=0.0))
    checks.append(_check("truncations.diagonal_quartic", g4 == want4,
                         value="qddot = -4q - (4*sqrt3/3) q^2 - 8 q^3",
                         tol=0.0))
    checks.append(_check(
        "truncations.dual_route_reduction",
        g3 == model.diagonal_reduce_via_energy(t3)
        and g4 == model.diagonal_reduce_via_energy(t4),
        note="Hamiltonian gradient route equals energy-relation route"))
    return _section("truncations", checks)


def section_verify_solutions(cfg: PipelineConfig) -> dict:
    from . import elliptic, model
    from .field import SQRT3
    from .poly import Poly
    prec = cfg.precision
    checks = []
    for h in (1, 2, 3):
        res = float(elliptic.verify_phi(h, prec=prec))
        checks.append(_check(f"verify_solutions.phi_h{h}", res < 1e-10,
                             value=res, tol=1e-10))
    inv = elliptic.invariants_for_energy(2, prec)
    with mp.workprec(prec):
        wres = float(elliptic.weierstrass_ode_residual(mp.mpf(1) / 3, inv,
                                                        prec))
    checks.append(_check("verify_solutions.weierstrass_ode", wres < 1e-20,
                         value=wres, tol=1e-20))
    psi_res = float(elliptic.verify_psi(prec=prec))
    checks.append(_check("verify_solutions.psi", psi_res < 1e-12,
                         value=psi_res, tol=1e-12))
    h_psi = float(elliptic.psi_diagonal_energy(prec)[0])
    checks.append(_check("verify_solutions.psi_energy", abs(h_psi) < 1e-20,
                         value=h_psi, tol=1e-20,
                         note="the pole solution sits on the zero level"))
    g4 = model.diagonal_reduce(model.taylor_truncate(4))
    checks.append(_check("verify_solutions.psi_exact_identity",
                         model.pole_solution().solves(g4), tol=0.0,
                         note="w^3 * (psiddot - g(psi)) = 0 as a polynomial "
                              "identity in the tower"))
    # negative control: the cubic coefficient of the energy relation,
    # -8*sqrt3/9, replaced by -sqrt3 must fail visibly, demonstrating the
    # residual oracle is sensitive
    u = model.diagonal_potential(model.taylor_truncate(3))
    with mp.workprec(prec + 40):
        ts = [mp.mpf(1) / 10 + mp.mpf(k) / 8 for k in range(5)]
        control = float(elliptic.phi_residual(Poly(u.coeffs[:3] + [SQRT3]), 2,
                                           ts, prec))
    checks.append(_check("verify_solutions.corrupted_control",
                         control > 1e-3, value=control, tol=1e-3,
                         note="corrupted coefficient must FAIL the oracle"))
    return _section("verify_solutions", checks)


def section_nve(cfg: PipelineConfig) -> dict:
    from . import model, nve
    from .field import FE
    checks, systems = [], {}
    dets = {}
    for source, order in (("K", 3), ("L", 4)):
        vs = nve.derive_variational(model.taylor_truncate(order))
        det = float(np.linalg.det(nve.monodromy_matrix(vs)))
        dets[source] = det
        checks.append(_check(f"nve.monodromy_det_{source}",
                             abs(det - 1.0) < 1e-8, value=det, tol=1e-8))
        for mode in ("antisymmetric", "symmetric"):
            sc = nve.scalar_nve(vs, mode)
            dev = nve.nve_flow_oracle(sc, vs)
            ctrl = nve.nve_flow_oracle(sc, vs, perturb=0.05)
            wro = nve.wronskian_drift(sc)
            label = f"{source}_{mode}"
            systems[label] = nve.scalar_nve_json(sc)
            checks.append(_check(f"nve.scalar_vs_4d_{label}", dev < 1e-6,
                                 value=dev, tol=1e-6))
            checks.append(_check(f"nve.control_{label}", ctrl > 1e-4,
                                 value=ctrl, tol=1e-4,
                                 note="perturbed coefficient must diverge"))
            checks.append(_check(f"nve.wronskian_{label}", wro < 1e-8,
                                 value=wro, tol=1e-8))
    # elliptic substitution for the cubic truncation, both variants
    vs3 = nve.derive_variational(model.taylor_truncate(3))
    a_der, b_der = nve.substitute_elliptic(nve.scalar_nve(vs3, "antisymmetric"))
    a_pap, b_pap = nve.substitute_elliptic(nve.paper_nve_k())
    checks.append(_check("nve.lame_coupling_paper",
                         a_pap == FE(4) and b_pap == FE(Fraction(-8, 3)),
                         value=[str(a_pap), str(b_pap)], tol=0.0,
                         note="(A, B) = (4, -8/3)"))
    checks.append(_check("nve.lame_coupling_derived",
                         a_der == FE(-12) and b_der == FE(-8),
                         value=[str(a_der), str(b_der)], tol=0.0,
                         note="(A, B) = (-12, -8) for the derived "
                              "antisymmetric coefficient"))
    # algebrization of the quartic equations
    algebraized = {}
    for label, sc in _quartic_variants().items():
        ode = nve.algebrize(sc)
        algebraized[label] = nve.algebraized_json(ode)
        checks.append(_check(f"nve.normal_form_identity_{label}",
                             ode.normal_form_identity_holds(), tol=0.0,
                             note="r = p^2/4 + p'/2 - q exactly"))
        gauge = nve.algebrize_gauge_oracle(sc)
        checks.append(_check(f"nve.gauge_oracle_{label}", gauge < 1e-9,
                             value=gauge, tol=1e-9,
                             note="log-derivative gap equals p(w) wdot / 2 "
                                  "along the pole solution"))
    return _section("nve", checks, extra={
        "systems": systems, "algebraized": algebraized,
        "monodromy_determinants": dets})


def _quartic_variants() -> dict:
    from . import model, nve
    vs4 = nve.derive_variational(model.taylor_truncate(4))
    return {"L_paper": nve.paper_nve_l(),
            "L_derived_symmetric": nve.scalar_nve(vs4, "symmetric"),
            "L_derived_antisymmetric": nve.scalar_nve(vs4, "antisymmetric")}


_DIVERGENCE_NOTE = (
    "The symmetric-mode coefficient derived from the quartic truncation is "
    "the derivative of the diagonal force, so xi = psidot solves it: the "
    "variation is tangent to the orbit and the equation is Liouvillian by "
    "construction. The printed coefficient differs (8*sqrt3/9 vs 8*sqrt3/3 "
    "on the linear term), breaking that tangency, and is not Liouvillian. "
    "The transverse (antisymmetric) derived equation, which governs normal "
    "variations, is not Liouvillian either, so the non-integrability "
    "conclusion is supported on both routes."
)

# check id, expected verdict and note of each quartic Kovacic run.  The
# tangential mode is Liouvillian by construction: it is surfaced, not cited.
_QUARTIC_CHECKS = {
    "L_paper": ("kovacic.quartic_paper_variant", "not_liouvillian",
                "differential Galois group SL(2,C)"),
    "L_derived_antisymmetric": ("kovacic.quartic_derived_transverse",
                                "not_liouvillian",
                                "normal variations: SL(2,C)"),
    "L_derived_symmetric": ("kovacic.quartic_derived_tangential",
                            "liouvillian", _DIVERGENCE_NOTE),
}


def _decision_check(res, cid, want, note) -> dict:
    """A Kovacic decision against its expected verdict; an indeterminate
    one is INDETERMINATE, noted with the decision's last log line."""
    out = _check(cid, res.verdict == want, value=res.verdict, tol=0.0,
                 note=note)
    if res.verdict == "indeterminate":
        out.update(status="INDETERMINATE", note=res.log[-1])
    return out


def section_kovacic(cfg: PipelineConfig) -> dict:
    from . import kovacic, nve
    from .field import FE
    from .poly import Poly, RationalFunction
    checks = []
    corpus = {}
    w = Poly.x()
    one = Poly([1])
    cases = [
        ("zero", RationalFunction(Poly([0]), one), "liouvillian"),
        ("one", RationalFunction(one, one), "liouvillian"),
        ("airy", RationalFunction(w, one), "not_liouvillian"),
        ("three_sixteenth_over_w2",
         RationalFunction(Poly([FE(Fraction(3, 16))]), w * w), "liouvillian"),
    ]
    for name, r, want in cases:
        res = kovacic.kovacic(r)
        corpus[name] = res.to_json()
        checks.append(_decision_check(res, f"kovacic.corpus_{name}", want,
                                      f"expect {want}"))
    # Lame sieve on the cubic truncation couplings
    sieve = {}
    for label, a_val in (("paper_A4", 4), ("derived_Am12", -12)):
        sv = kovacic.lame_sieve(a_val)
        sieve[label] = {k: (str(v) if isinstance(v, Fraction) else
                            [str(x) for x in v] if isinstance(v, list) else v)
                        for k, v in sv.items()}
        checks.append(_check(f"kovacic.lame_sieve_{label}",
                             not sv["admissible"], value=sv["admissible"],
                             tol=0.0,
                             note="no solvable family admits this coupling"))
    # full algorithm on the algebrized quartic equations
    runs = {}
    for label, sc in _quartic_variants().items():
        res = kovacic.kovacic(nve.algebrize(sc).r)
        runs[label] = res.to_json()
        checks.append(_decision_check(res, *_QUARTIC_CHECKS[label]))
    return _section("kovacic", checks, extra={
        "corpus": corpus, "lame_sieve": sieve, "quartic_runs": runs,
        "divergence_note": _DIVERGENCE_NOTE})


SECTION_BUILDERS = {
    "equilibrium": section_equilibrium,
    "period_scan": section_period_scan,
    "turning_points": section_turning_points,
    "monodromy": section_monodromy,
    "truncations": section_truncations,
    "verify_solutions": section_verify_solutions,
    "nve": section_nve,
    "kovacic": section_kovacic,
}
SECTION_NAMES = tuple(SECTION_BUILDERS)


# ---------------------------------------------------------------------------
# verdicts and assembly
# ---------------------------------------------------------------------------

_CLAIM_A_EVIDENCE = (
    "monodromy.single_loop_flip", "monodromy.log_eta_winding",
    "monodromy.double_loop_restores", "period_scan.limit_probe",
    "turning_points.closed_vs_numeric", "truncations.canonical_reduction",
)
# The printed equations' decisions (kovacic.lame_sieve_paper_A4 and
# kovacic.quartic_paper_variant) stay report checks that reproduce the paper,
# but claim b does not cite them: neither equation is the system's.
_CLAIM_B_EVIDENCE = (
    "kovacic.quartic_derived_transverse", "nve.scalar_vs_4d_L_antisymmetric",
    "truncations.canonical_reduction", "truncations.diagonal_quartic",
    "verify_solutions.psi",
)


def _verdict(sections: dict, evidence_ids) -> dict:
    """The most severe status of the cited checks; a KeyError naming the
    first cited id that no section holds."""
    index = {chk["id"]: chk["status"]
             for sec in sections.values() for chk in sec["checks"]}
    return {"status": _status([index[cid] for cid in evidence_ids]),
            "evidence": list(evidence_ids)}


def build_verdicts(sections: dict) -> dict:
    return {
        "analytic_nonintegrability": {
            "claim": "no additional first integral analytic in a "
                     "neighborhood of the periodic family, read from the "
                     "winding of eta = eps*delta: log(eta) gains 2*pi*i per "
                     "loop round c*. Caveat: log(eta) winds the same way "
                     "round every non-degenerate minimum, integrable "
                     "systems included, and the branching of the period T "
                     "itself, round E_min + i*pi*k, is not yet continued",
            **_verdict(sections, _CLAIM_A_EVIDENCE),
        },
        "meromorphic_nonintegrability": {
            "claim": "the quartic Taylor truncation H4 has no additional "
                     "meromorphic first integral near its pole solution: "
                     "the Galois group of its transverse normal variational "
                     "equation is SL(2,C). Scoped to H4; the full "
                     "Hamiltonian is not decided here",
            **_verdict(sections, _CLAIM_B_EVIDENCE),
        },
    }


# The sections built in a forked child while this process builds the rest;
# the split follows measured section costs, so the halves take about as long.
# Kovacic and nve stay here, so a tracer installed in this process sees their
# spans and every decision log; a tracer sees none of the child's spans.
_FORKED_SECTIONS = ("period_scan", "turning_points", "monodromy")


def _send_sections(cfg: PipelineConfig, wfd: int) -> None:
    """The forked child's work: build the `_FORKED_SECTIONS` and pickle
    (True, sections), or (False, exception), to the pipe; an exception that
    does not survive pickling goes as a RuntimeError with its traceback."""
    try:
        msg = (True, {n: SECTION_BUILDERS[n](cfg) for n in _FORKED_SECTIONS})
    except BaseException as exc:
        msg = (False, exc)
    try:
        data = pickle.dumps(msg)
        if not msg[0]:
            pickle.loads(data)  # some exceptions pickle but do not unpickle
    except Exception as exc:
        failed = exc if msg[0] else msg[1]
        data = pickle.dumps((False, RuntimeError(
            "".join(traceback.format_exception(failed)))))
    with open(wfd, "wb") as pipe:
        pipe.write(data)


def _build_forked(cfg: PipelineConfig) -> dict:
    """Build the `_FORKED_SECTIONS` in one forked child while this process
    builds the rest; return all eight, or raise what a builder raised.  The
    child is reaped before this returns or raises."""
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(rfd)
            _send_sections(cfg, wfd)
            status = 0
        finally:
            os._exit(status)
    os.close(wfd)
    try:
        with open(rfd, "rb") as pipe:
            sections = {n: SECTION_BUILDERS[n](cfg) for n in SECTION_NAMES
                        if n not in _FORKED_SECTIONS}
            data = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0:
        raise RuntimeError(f"the report's forked child exited with status "
                           f"{status} before sending its sections")
    ok, payload = pickle.loads(data)
    if not ok:
        raise payload
    sections.update(payload)
    return sections


def build_report(cfg: PipelineConfig) -> dict:
    """Build all eight sections and assemble the report.

    Where ``os.fork`` exists, the ``_FORKED_SECTIONS`` are built in a forked
    child while this process builds the rest; the report is the same either
    way.
    """
    built = (_build_forked(cfg) if hasattr(os, "fork") else
             {name: SECTION_BUILDERS[name](cfg) for name in SECTION_NAMES})
    sections = {name: built[name] for name in SECTION_NAMES}
    report = {
        "schema_version": SCHEMA_VERSION,
        "config": cfg.to_json(),
        "sections": sections,
        "verdicts": build_verdicts(sections),
    }
    validate(report)
    return report


def report_exit_code(report: dict) -> int:
    """0 all PASS, 1 any FAIL, 2 any INDETERMINATE, over the sections and
    the verdicts."""
    return EXIT_CODES[_status(
        [s["status"] for s in report["sections"].values()]
        + [v["status"] for v in report["verdicts"].values()])]


# ---------------------------------------------------------------------------
# renderers
# ---------------------------------------------------------------------------

def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


def render_csv(period_scan: dict) -> str:
    """The period_scan section's rows that have no error, one per line."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["c", "E", "T", "log_eta", "phi"])
    for row in period_scan["rows"]:
        if row.get("error"):
            continue
        writer.writerow([repr(row[k]) for k in ("c", "E", "T", "log_eta",
                                                "phi")])
    return buf.getvalue()


_CLAIM_TITLES = {
    "analytic_nonintegrability": "Claim a: no additional analytic first "
                                 "integral",
    "meromorphic_nonintegrability": "Claim b: no additional meromorphic "
                                    "first integral (not formally "
                                    "integrable)",
}


def render_markdown(report: dict) -> str:
    lines = ["# Non-integrability evidence report", ""]
    for key, title in _CLAIM_TITLES.items():
        v = report["verdicts"][key]
        mark = {"PASS": "evidence reproduced", "FAIL": "evidence FAILED",
                "INDETERMINATE": "indeterminate"}[v["status"]]
        lines.append(f"## {title}")
        lines.append("")
        lines.append(f"*Status: **{mark}***  \n{v['claim']}.")
        lines.append("")
        lines.append("Evidence checks: " + ", ".join(
            f"`{e}`" for e in v["evidence"]))
        lines.append("")
    lines.append("## Sections")
    lines.append("")
    lines.append("| section | status | checks |")
    lines.append("|---|---|---|")
    for name in sorted(report["sections"]):
        sec = report["sections"][name]
        n_pass = sum(1 for c in sec["checks"] if c["status"] == "PASS")
        lines.append(f"| {name} | {sec['status']} | "
                     f"{n_pass}/{len(sec['checks'])} pass |")
    lines += ["", "## Coefficient-variant divergence", "",
              report["sections"]["kovacic"]["divergence_note"], ""]
    return "\n".join(lines)


def write_outputs(report: dict, out_dir) -> list:
    """Write report.json, period_scan.csv and summary.md; returns paths."""
    import pathlib

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    texts = {"report.json": render_json(report),
             "period_scan.csv": render_csv(report["sections"]["period_scan"]),
             "summary.md": render_markdown(report)}
    for name, text in texts.items():
        (out / name).write_text(text, encoding="utf-8")
    return [out / name for name in texts]
