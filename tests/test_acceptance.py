"""Acceptance gate: one test (one pass/fail line under pytest -v) per
criterion, with the tolerances pinned in the assertions."""
import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import mpmath as mp
import numpy as np

from dyson3 import cli, elliptic, kovacic, model, nve, period
from dyson3 import report as rpt
from dyson3.field import FE, SQRT3
from dyson3.poly import Poly, RationalFunction


@contextmanager
def criterion(n, desc):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {n}: {desc}")
        raise
    print(f"[PASS] criterion {n}: {desc}")


def test_criterion_1_taylor_truncation_exactness():
    with criterion(1, "printed truncation coefficients exact, under 1 s"):
        t0 = time.monotonic()
        pot = model.taylor_truncate(4).potential_coeffs()
        assert pot[(2, 0)] == FE(Fraction(4, 3))
        assert pot[(2, 1)] == SQRT3 * FE(Fraction(4, 9))
        assert pot[(4, 0)] == FE(Fraction(4, 9))
        assert pot[(3, 1)] == FE(Fraction(8, 9))
        pot3 = model.taylor_truncate(3).potential_coeffs()
        assert pot3[(2, 0)] == FE(Fraction(4, 3))
        assert pot3[(2, 1)] == SQRT3 * FE(Fraction(4, 9))
        assert (3, 1) not in pot3
        assert time.monotonic() - t0 < 1.0


def test_criterion_2_turning_point_oracle_equivalence():
    with criterion(2, "closed-form vs numeric turning points, 50 c-values"):
        prec = 128
        with mp.workprec(prec):
            cstar = period.c_star(prec)
            emin = period.e_min(prec)
            for k in range(50):
                c = mp.mpf("0.02") + (cstar - mp.mpf("0.02")) * k / 49
                tp = period.turning_points_closed(c, prec)
                assert float(tp.quartic_residual()) < 1e-12
                if tp.energy - emin < mp.mpf(2) ** (16 - prec):
                    qm = qp = mp.pi / 3
                else:
                    qm, qp = period.turning_points_numeric(tp.energy, prec)
                assert float(abs(tp.q_minus - qm)) < 1e-9
                assert float(abs(tp.q_plus - qp)) < 1e-9
            tp = period.turning_points_closed(cstar, prec)
            assert float(abs(tp.r1 + mp.mpf(1) / 2)) < 1e-10
            assert float(abs(tp.r2 + mp.mpf(1) / 2)) < 1e-10


def test_criterion_3_period_limit_and_symplectic_oracle():
    with criterion(3, "T -> pi limit, quadrature vs return map, drift"):
        with mp.workprec(128):
            t = period.period(period.e_min() + mp.mpf(1e-6)).period
            assert abs(t - mp.pi) < 1e-3
        emin = float(period.e_min(80))
        for off in [0.02 * 1.6 ** k for k in range(10)]:
            e = emin + off
            sample = period.period(e, prec=80)
            t_quad = float(sample.period)
            t_map = period.return_map_period(e, h=1e-4,
                                             q_minus=sample.q_minus)
            assert abs(t_quad - t_map) < 1e-6
        assert period.energy_drift(emin + 0.3, h=1e-3, n_periods=1000) < 1e-8


def test_criterion_4_branch_monodromy():
    with criterion(4, "loop around c* flips the branch; two loops restore"):
        one = period.eta_monodromy(radius=1e-3, steps=800, loops=1)
        assert one.branch_changed and one.roots_swapped
        assert one.eta_winding == 1
        two = period.eta_monodromy(radius=1e-3, steps=800, loops=2)
        assert not two.branch_changed and not two.roots_swapped
        assert two.eta_winding == 2
        away = period.eta_monodromy(radius=1e-3, steps=800, loops=1,
                                    center=float(period.c_star(80)) - 0.01)
        assert not away.branch_changed and away.eta_winding == 0


def test_criterion_5_elliptic_certificates():
    with criterion(5, "phi, weierstrass and psi residuals; exact identity"):
        t3, t4 = model.taylor_truncate(3), model.taylor_truncate(4)
        for h in (1, 2, 3):
            assert elliptic.verify_phi(t3, h, prec=128) < mp.mpf(1e-10)
        inv = elliptic.invariants_for_energy(t3, 2, 128)
        with mp.workprec(170):
            for t in (mp.mpf(1) / 5, mp.mpf(1) / 2):
                assert elliptic.weierstrass_ode_residual(t, inv, 128) \
                    < mp.mpf(1e-20)
        assert elliptic.verify_psi(t4, prec=128) < mp.mpf(1e-12)
        assert model.pole_solution(model.taylor_truncate(4)).solves(
            model.diagonal_reduce(model.taylor_truncate(4)))


def test_criterion_6_nve_soundness():
    with criterion(6, "scalar NVE tracks the 4D variational flow"):
        for order in (3, 4):
            vs = nve.derive_variational(model.taylor_truncate(order))
            for mode in ("antisymmetric", "symmetric"):
                sc = nve.scalar_nve(vs, mode)
                assert nve.nve_flow_oracle(sc, vs) < 1e-6
                assert nve.wronskian_drift(sc) < 1e-8
            m = nve.monodromy_matrix(vs)
            assert abs(np.linalg.det(m) - 1.0) < 1e-8


def test_criterion_7_kovacic_regression_corpus():
    with criterion(7, "Kovacic corpus verdicts and certificates"):
        w = Poly.x()
        one = Poly([1])
        res = kovacic.kovacic(RationalFunction(Poly([0]), one))
        assert res.verdict == "liouvillian" and res.case == 1
        assert res.certificate == "exact"
        res = kovacic.kovacic(RationalFunction(one, one))
        assert res.verdict == "liouvillian" and res.case == 1
        assert res.certificate == "exact"
        res = kovacic.kovacic(RationalFunction(w, one))
        assert res.verdict == "not_liouvillian"
        res = kovacic.kovacic(
            RationalFunction(Poly([FE(Fraction(3, 16))]), w * w))
        assert res.verdict == "liouvillian" and res.case == 1
        # exponents (1 +- sqrt7/2)/2 lie outside Q(sqrt3, sqrt26, i) but in
        # the field, so the certificate is an exact re-substitution
        assert res.certificate == "exact"


def test_criterion_8_paper_verdict_reproduction(dyson_decisions):
    with criterion(8, "Lame sieve all-fail; quartic NVE not Liouvillian"):
        sv = kovacic.lame_sieve(4)
        assert not sv["lame_hermite"]
        assert not sv["brioschi_halphen_crawford"]
        assert not sv["baldassarri_union"]
        res_paper = dyson_decisions["paper"]
        assert res_paper.verdict == "not_liouvillian"
        # the mechanically derived variant is produced and reported alongside;
        # its symmetric mode diverges from the printed equation for a
        # structural reason that is surfaced, never suppressed
        vs = nve.derive_variational(model.taylor_truncate(4))
        res_tan = dyson_decisions["tangential"]
        res_nor = dyson_decisions["transverse"]
        assert res_nor.verdict == "not_liouvillian"
        assert res_tan.verdict == "liouvillian"
        # divergence check: the derived symmetric coefficient is g'(q), so
        # it is solved by the orbit's own velocity (a tangential variation)
        g = model.diagonal_reduce(model.taylor_truncate(4))
        assert nve.scalar_nve(vs, "symmetric").a == g.derivative()
        print("  derived-variant divergence: symmetric mode coefficient "
              "equals g'(q) (tangential, Liouvillian by construction); "
              "printed variant and transverse derived mode are both "
              "not Liouvillian")


def test_criterion_9_end_to_end_determinism(tmp_path):
    with criterion(9, "forked and serial reports are byte-identical"):
        assert cli.main(["report", "--out", str(tmp_path)]) == 0
        a = (tmp_path / "report.json").read_text(encoding="utf-8")
        # the serial reference: every builder in this process, in order
        cfg = rpt.PipelineConfig()
        sections = {n: rpt.SECTION_BUILDERS[n](cfg) for n in rpt.SECTION_NAMES}
        b = rpt.render_json({"schema_version": rpt.SCHEMA_VERSION,
                             "config": cfg.to_json(), "sections": sections,
                             "verdicts": rpt.build_verdicts(sections)})
        assert a == b
        assert json.loads(a) == json.loads(b)
        summary = (tmp_path / "summary.md").read_text(encoding="utf-8")
        assert "## Coefficient-variant divergence" in summary
        csv_lines = (tmp_path / "period_scan.csv").read_text(
            encoding="utf-8").splitlines()
        assert len(csv_lines) == cfg.grid_count + 1
