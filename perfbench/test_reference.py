"""Each reference check accepts a right value and rejects a corrupted one.

    python3 -m pytest perfbench
"""
import math
from fractions import Fraction as Q

import pytest
from scipy.integrate import quad

import reference as R
import spans
from run import check_report


def _quadrature_period(offset):
    """T = 2 int dq / sqrt(E - V) between the turning points, with
    V(q) = -log sin 2q - 2 log sin q: a second route to the period."""
    from scipy.optimize import brentq

    e = R.E_MIN + offset

    def gap(q):
        return e + math.log(math.sin(2 * q)) + 2 * math.log(math.sin(q))

    qm = brentq(gap, 1e-3, math.pi / 3, xtol=1e-15)
    qp = brentq(gap, math.pi / 3, math.pi / 2 - 1e-3, xtol=1e-15)
    span = qp - qm

    def integrand(theta):
        s = math.sin(theta)
        val = gap(qm + span * s * s)
        return 2 * span * s * math.cos(theta) / math.sqrt(val) if val > 0 else 0.0

    val, _err = quad(integrand, 0, math.pi / 2, epsabs=1e-13, epsrel=1e-13,
                     limit=200)
    return 2 * val


@pytest.mark.parametrize("offset", [0.05, 0.5, 2.0])
def test_period_reference_matches_quadrature(offset):
    assert abs(R.diagonal_period(offset) - _quadrature_period(offset)) < 1e-9


def test_period_check_rejects_t_off_by_1e_6():
    t = R.diagonal_period(0.3)
    assert R.check_period("T", t, 0.3) == []
    assert R.check_period("T", t + 1e-6, 0.3)
    assert R.check_period("T", t - 1e-6, 0.3)


def test_period_tends_to_pi():
    assert abs(R.diagonal_period(1e-9) - math.pi) < 1e-7


def test_equilibrium_check():
    e_min = -3 * math.log(math.sqrt(3) / 2)
    assert R.check_equilibrium(e_min, 3 * math.sqrt(3) / 16) == []
    assert R.check_equilibrium(e_min + 1e-9, R.C_STAR)
    assert R.check_equilibrium(e_min, R.C_STAR * (1 + 1e-9))


def test_period_family_check():
    offsets = [1e-6, 0.1, 1.0]
    periods = [R.diagonal_period(o) for o in offsets]
    assert R.check_period_family(offsets, periods) == []
    assert R.check_period_family(offsets, [periods[0], periods[2], periods[1]])
    assert R.check_period_family(offsets, [periods[0] - 1e-3] + periods[1:])


@pytest.mark.parametrize("exps,case,n", [
    ((Q(1, 2), Q(1, 2), Q(1, 3)), 2, None),        # dihedral
    ((Q(1, 2), Q(1, 3), Q(1, 3)), 3, 4),           # tetrahedral
    ((Q(1, 2), Q(1, 3), Q(1, 4)), 3, 6),           # octahedral
    ((Q(1, 2), Q(1, 3), Q(1, 5)), 3, 12),          # icosahedral
    ((Q(1, 3), Q(1, 3), Q(2, 5)), 3, 12),
    ((Q(5, 2), Q(1, 3), Q(1, 5)), 3, 12),          # shifted by (2, 0, 0)
    ((Q(5, 3), Q(4, 3), Q(1, 3)), 3, 4),           # shifted by (1, 1, 0)
    ((Q(5, 3), Q(1, 3), Q(1, 3)), 1, None),        # -5/3 + 1/3 + 1/3 = -1
    ((Q(1, 2), Q(1, 4), Q(1, 4)), 1, None),        # sum 1: reducible
    ((Q(1, 2), Q(1, 3), Q(1, 7)), None, None),     # hyperbolic: SL(2, C)
    ((Q(1, 3), Q(1, 4), Q(1, 5)), None, None),
])
def test_kimura_truth_table(exps, case, n):
    want = R.kimura_expectation(*exps)
    assert (want["case"], want["n"]) == (case, n)
    assert want["verdict"] == ("not_liouvillian" if case is None
                               else "liouvillian")


def test_decision_check_rejects_wrong_verdict_group_or_certificate():
    want = R.kimura_expectation(Q(1, 2), Q(1, 3), Q(1, 5))
    assert R.check_decision("c", want, "liouvillian", 3, 12, "exact") == []
    assert R.check_decision("c", want, "not_liouvillian", None, None, None)
    assert R.check_decision("c", want, "indeterminate", None, None, None)
    assert R.check_decision("c", want, "liouvillian", 3, 6, "exact")
    assert R.check_decision("c", want, "liouvillian", 3, 12, "numeric")


def test_riccati_expectation_rejects_other_cases():
    want = R.RICCATI_EXPECTATION
    assert R.check_decision("w", want, "liouvillian", 1, None, "exact") == []
    assert R.check_decision("w", want, "liouvillian", 2, None, "exact")
    assert R.check_decision("w", want, "not_liouvillian", None, None, None)


def test_winding_check():
    two_pi = 2 * math.pi
    assert R.check_winding("loop", 1, complex(0, two_pi), 1) == []
    assert R.check_winding("loop", 0, complex(0, two_pi), 1)
    assert R.check_winding("loop", 1, complex(0, two_pi + 1e-3), 1)
    assert R.check_winding("loop", 2, complex(0, 2 * two_pi), 2) == []


def test_bound_checks():
    assert R.check_below("drift", 1e-12, 1e-8) == []
    assert R.check_below("drift", 2e-8, 1e-8)
    assert R.check_below("drift", float("nan"), 1e-8)
    assert R.check_above("control", 0.07, 1e-4) == []
    assert R.check_above("control", 1e-6, 1e-4)


def test_unimodular_check():
    assert R.check_unimodular("M", [[2.0, 0.0], [0.0, 0.5]]) == []
    assert R.check_unimodular("M", [[2.0, 0.0], [0.0, 0.5 + 1e-6]])


def _report_doc():
    offsets = [1.0, 0.01, 1e-6]
    rows = [{"offset": o, "E": R.E_MIN + o, "T": R.diagonal_period(o),
             "error": None} for o in offsets]
    return {"sections": {
        "equilibrium": {"e_min": R.E_MIN, "c_star": R.C_STAR,
                        "checks": [{"id": "equilibrium.e_min",
                                    "status": "PASS"}]},
        "period_scan": {"rows": rows, "checks": []},
        "kovacic": {"checks": [], "quartic_runs": {
            "L_paper": {"verdict": "not_liouvillian"},
            "L_derived_antisymmetric": {"verdict": "not_liouvillian"},
            "L_derived_symmetric": {"verdict": "liouvillian"}}},
    }}


def test_report_check_rejects_corruption():
    assert check_report(_report_doc()) == []
    doc = _report_doc()
    doc["sections"]["period_scan"]["rows"][1]["T"] += 1e-6
    assert check_report(doc)
    doc = _report_doc()
    doc["sections"]["equilibrium"]["checks"][0]["status"] = "FAIL"
    assert check_report(doc)
    doc = _report_doc()
    doc["sections"]["kovacic"]["quartic_runs"]["L_paper"]["verdict"] = \
        "liouvillian"
    assert check_report(doc)
    doc = _report_doc()
    doc["sections"]["equilibrium"]["c_star"] += 1e-9
    assert check_report(doc)


# ---------------------------------------------------------------------------
# trace accounting
# ---------------------------------------------------------------------------

_SWEEP_LOG = [
    "poles: [(FE(0), 2)], o(inf)=4, exact=True",
    "case 1: candidate d=0 rejected (exact)",
    "case 1: 4 candidates, none admissible",
    "case 2: candidate e_inf=2, e=[2, 2], d=0 rejected (exact)",
    "case 2: 1 candidates with integer d >= 0, none admissible",
    "case 3 (n=4): candidate e_inf=6, e=[3, 3], d=0 rejected",
    "case 3 (n=4): 5 candidates with integer d >= 0 (4 rejected by the "
    "GF(p) prescreen), none admissible",
    "case 3 (n=6): a pole admits no integer exponent",
    "case 3 (n=12): 9 candidates with integer d >= 0 (9 rejected by the "
    "GF(p) prescreen), none admissible",
    "all cases exhausted with exact rejections: group SL(2,C)",
]


def test_kovacic_log_counts():
    c = spans.parse_kovacic_log(_SWEEP_LOG)
    assert c == {"case1": 1, "case2": 1, "case3": 14, "case3_pre": 13,
                 "unlogged": 0}
    success = _SWEEP_LOG[:7] + ["case 3 (n=6): success with e_inf=6, "
                                "e=[3, 3], d=0"]
    c = spans.parse_kovacic_log(success)
    assert (c["case3"], c["case3_pre"], c["unlogged"]) == (5, 4, 1)


def test_kovacic_log_unknown_line_reads_absent():
    assert spans.parse_kovacic_log(_SWEEP_LOG + ["case 4: something"]) is None
    bad_sum = list(_SWEEP_LOG)
    bad_sum[4] = "case 2: 3 candidates with integer d >= 0, none admissible"
    assert spans.parse_kovacic_log(bad_sum) is None
    assert spans.kovacic_counts([_SWEEP_LOG, ["case 4: ?"]]) == {}


def test_self_time_subtracts_children():
    sp = [{"name": "a", "start": 0.0, "end": 10.0, "parent": None, "id": 0},
          {"name": "b", "start": 1.0, "end": 4.0, "parent": 0, "id": 1},
          {"name": "c", "start": 2.0, "end": 3.0, "parent": 1, "id": 2},
          {"name": "d", "start": 5.0, "end": 6.0, "parent": 0, "id": 3}]
    assert spans.self_times(sp) == [6.0, 2.0, 1.0, 1.0]
