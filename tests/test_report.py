"""Report assembly, schema, determinism, and renderers."""
import json

import jsonschema
import pytest

from dyson3 import report as rpt

FAST_SECTIONS = ("equilibrium", "truncations", "verify_solutions")


@pytest.fixture(scope="module")
def fast_report():
    cfg = rpt.PipelineConfig(grid_count=3, grid_max=0.1)
    return rpt.build_report(cfg, only=FAST_SECTIONS)


def test_config_validation():
    with pytest.raises(ValueError):
        rpt.PipelineConfig(tol=-1)
    with pytest.raises(ValueError):
        rpt.PipelineConfig(grid_count=1)
    with pytest.raises(ValueError):
        rpt.PipelineConfig(variant="bogus")
    with pytest.raises(ValueError):
        rpt.PipelineConfig.from_mapping({"no_such_key": 1})
    cfg = rpt.PipelineConfig.from_mapping({"precision": "96", "tol": "1e-9"})
    assert cfg.precision == 96 and cfg.tol == 1e-9


def test_schema_valid_and_versioned(fast_report):
    jsonschema.validate(fast_report, rpt.REPORT_SCHEMA)
    assert fast_report["schema_version"] == rpt.SCHEMA_VERSION


def test_json_roundtrip(fast_report):
    text = rpt.render_json(fast_report)
    assert json.loads(text) == fast_report


def test_partial_report_marks_verdicts(fast_report):
    verdicts = fast_report["verdicts"]
    assert verdicts["analytic_nonintegrability"]["status"] == "PARTIAL"
    missing = verdicts["analytic_nonintegrability"]["missing"]
    assert "monodromy.single_loop_flip" in missing
    # a partial report takes its exit code from its sections alone
    assert rpt.report_exit_code(fast_report) == 0


def test_claim_b_needs_the_transverse_decision():
    """--variant paper runs no transverse decision, so claim b stays
    PARTIAL however the other checks come out."""
    present = [cid for cid in rpt._CLAIM_B_EVIDENCE
               if cid != "kovacic.quartic_derived_transverse"]
    sections = {"s": {"checks": [{"id": cid, "status": "PASS"}
                                 for cid in present]}}
    claim_b = rpt.build_verdicts(sections)["meromorphic_nonintegrability"]
    assert claim_b["status"] == "PARTIAL"
    assert claim_b["missing"] == ["kovacic.quartic_derived_transverse"]
    assert "nve.scalar_vs_4d_L_antisymmetric" in claim_b["evidence"]
    sections["s"]["checks"].append(
        {"id": "kovacic.quartic_derived_transverse", "status": "PASS"})
    claim_b = rpt.build_verdicts(sections)["meromorphic_nonintegrability"]
    assert claim_b["status"] == "PASS"


def test_every_check_carries_tolerance_when_numeric(fast_report):
    for sec in fast_report["sections"].values():
        for chk in sec["checks"]:
            if isinstance(chk.get("value"), float):
                assert "tol" in chk, chk["id"]


def test_exit_code_mapping():
    doc = {"sections": {"a": {"status": "PASS", "checks": []}},
           "verdicts": {"v": {"status": "PASS", "evidence": []}}}
    assert rpt.report_exit_code(doc) == 0
    doc["sections"]["a"]["status"] = "INDETERMINATE"
    assert rpt.report_exit_code(doc) == 2
    doc["sections"]["a"]["status"] = "FAIL"
    assert rpt.report_exit_code(doc) == 1
    # a report with every section also counts its verdicts
    full = {"sections": {name: {"status": "PASS", "checks": []}
                         for name in rpt.SECTION_NAMES},
            "verdicts": {"v": {"status": "PASS", "evidence": []}}}
    assert rpt.report_exit_code(full) == 0
    full["verdicts"]["v"]["status"] = "PARTIAL"
    assert rpt.report_exit_code(full) == 2
    full["verdicts"]["v"]["status"] = "FAIL"
    assert rpt.report_exit_code(full) == 1


def test_markdown_mirrors_both_claims(fast_report):
    md = rpt.render_markdown(fast_report)
    assert "Claim a" in md and "Claim b" in md
    assert "analytic first integral" in md
    assert "meromorphic first integral" in md


def test_csv_shape():
    cfg = rpt.PipelineConfig(grid_count=3, grid_max=0.1)
    doc = rpt.build_report(cfg, only=("period_scan",))
    lines = rpt.render_csv(doc).splitlines()
    assert lines[0] == "c,E,T,log_eta,phi"
    assert len(lines) == 1 + cfg.grid_count
    for line in lines[1:]:
        assert all(float(tok) == float(tok) for tok in line.split(","))


def test_section_determinism():
    cfg = rpt.PipelineConfig(grid_count=3, grid_max=0.1)
    a = rpt.build_report(cfg, only=FAST_SECTIONS)
    b = rpt.build_report(cfg, only=FAST_SECTIONS)
    assert rpt.render_json(a) == rpt.render_json(b)


def test_write_outputs(tmp_path, fast_report):
    paths = rpt.write_outputs(fast_report, tmp_path)
    names = {p.name for p in paths}
    assert names == {"report.json", "summary.md"}
    assert json.loads((tmp_path / "report.json").read_text()) == fast_report


def test_output_directory_does_not_enter_the_report():
    a = rpt.PipelineConfig(out="out")
    b = rpt.PipelineConfig(out="elsewhere/out")
    assert "out" not in a.to_json()
    assert (rpt.render_json(rpt.build_report(a, only=("equilibrium",)))
            == rpt.render_json(rpt.build_report(b, only=("equilibrium",))))
