"""Report assembly, schema, determinism, and renderers."""
import copy
import json
import os

import jsonschema
import pytest

from dyson3 import cli, kovacic, nve
from dyson3 import report as rpt
from dyson3.poly import Poly, RationalFunction

FAST_SECTIONS = ("equilibrium", "truncations", "verify_solutions")

# The reference for the shape that report.validate checks by hand.
REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema_version", "config", "sections", "verdicts"],
    "properties": {
        "schema_version": {"type": "string"},
        "config": {"type": "object"},
        "sections": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["status", "checks"],
                "properties": {
                    "status": {"enum": ["PASS", "FAIL", "INDETERMINATE"]},
                    "checks": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["id", "status"],
                            "properties": {
                                "id": {"type": "string"},
                                "status": {
                                    "enum": ["PASS", "FAIL", "INDETERMINATE"],
                                },
                            },
                        },
                    },
                },
            },
        },
        "verdicts": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["status", "evidence"],
                "properties": {
                    "status": {
                        "enum": ["PASS", "FAIL", "INDETERMINATE", "PARTIAL"],
                    },
                    "evidence": {"type": "array", "items": {"type": "string"}},
                },
            },
        },
    },
}


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
    jsonschema.validate(fast_report, REPORT_SCHEMA)
    rpt.validate(fast_report)
    assert fast_report["schema_version"] == rpt.SCHEMA_VERSION


def _set(path, value):
    def mutate(doc):
        *keys, last = path
        for key in keys:
            doc = doc[key]
        doc[last] = value
    return mutate


def _drop(path):
    def mutate(doc):
        *keys, last = path
        for key in keys:
            doc = doc[key]
        del doc[last]
    return mutate


_CLAIM_B = ("verdicts", "meromorphic_nonintegrability")
_MUTATIONS = {
    "bad section status": _set(("sections", "truncations", "status"), "OK"),
    "bad check status": _set(
        ("sections", "truncations", "checks", 0, "status"), "passed"),
    "missing checks": _drop(("sections", "equilibrium", "checks")),
    "non-string check id": _set(
        ("sections", "equilibrium", "checks", 1, "id"), 7),
    "bad verdict status": _set(_CLAIM_B + ("status",), "MAYBE"),
    "non-list evidence": _set(_CLAIM_B + ("evidence",), "kovacic"),
    "non-string evidence": _set(_CLAIM_B + ("evidence", 0), None),
    "missing verdicts": _drop(("verdicts",)),
    "non-string schema version": _set(("schema_version",), 1),
}


@pytest.mark.parametrize("name", sorted(_MUTATIONS))
def test_validate_rejects_what_the_schema_rejects(fast_report, name):
    doc = copy.deepcopy(fast_report)
    _MUTATIONS[name](doc)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, REPORT_SCHEMA)
    with pytest.raises(ValueError):
        rpt.validate(doc)


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


# ---------------------------------------------------------------------------
# the forked build: stub builders, so these run in milliseconds
# ---------------------------------------------------------------------------

def _stub_builders(monkeypatch, cpus=2, **replace):
    """Every section builder becomes a stub whose section records the pid
    that built it; `replace` maps a section name to its own builder.  The
    process sees `cpus` CPUs."""
    for name in rpt.SECTION_NAMES:
        def stub(cfg, name=name):
            return {"name": name, "status": "PASS", "checks": [],
                    "pid": os.getpid()}
        monkeypatch.setitem(rpt.SECTION_BUILDERS, name,
                            replace.get(name, stub))
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)))


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forked_report_builds_the_numeric_half_in_a_child(monkeypatch):
    _stub_builders(monkeypatch)
    doc = rpt.build_report(rpt.PipelineConfig())
    assert tuple(doc["sections"]) == rpt.SECTION_NAMES
    pids = {n: s["pid"] for n, s in doc["sections"].items()}
    child = {pids[n] for n in rpt._FORKED_SECTIONS}
    assert len(child) == 1 and os.getpid() not in child
    assert {p for n, p in pids.items()
            if n not in rpt._FORKED_SECTIONS} == {os.getpid()}
    _assert_no_child()


@pytest.mark.parametrize("name", ["period_scan", "kovacic"])
def test_a_raise_in_either_half_reaches_the_caller(monkeypatch, name):
    def broken(cfg):
        raise ValueError(f"{name} broke")

    _stub_builders(monkeypatch, **{name: broken})
    with pytest.raises(ValueError, match=f"^{name} broke$"):
        rpt.build_report(rpt.PipelineConfig())
    _assert_no_child()


class TwoArgError(Exception):
    """Pickles, but does not unpickle: unpickling calls __init__ with the
    one argument it passed to Exception."""

    def __init__(self, what, why):
        super().__init__(f"{what} {why}")


@pytest.mark.parametrize("unpicklable", ["local_class", "two_arg_init"])
def test_an_unpicklable_raise_in_the_child_keeps_its_traceback(monkeypatch,
                                                               unpicklable):
    class Local(Exception):         # a local class does not pickle
        pass

    def broken(cfg):
        if unpicklable == "local_class":
            raise Local("nve broke")
        raise TwoArgError("nve", "broke")

    _stub_builders(monkeypatch, nve=broken)
    with pytest.raises(RuntimeError, match=r"(TwoArgError|Local): nve broke"):
        rpt.build_report(rpt.PipelineConfig())
    _assert_no_child()


def test_a_child_that_dies_raises_its_exit_status(monkeypatch):
    test_pid = os.getpid()

    def dies(cfg):
        assert os.getpid() != test_pid, "monodromy was not built in a child"
        os._exit(3)

    _stub_builders(monkeypatch, monodromy=dies)
    with pytest.raises(RuntimeError, match="status 3 "):
        rpt.build_report(rpt.PipelineConfig())
    _assert_no_child()


def _forbid_fork(monkeypatch):
    def fork():
        raise AssertionError("the report forked")

    monkeypatch.setattr(os, "fork", fork)


@pytest.mark.parametrize("only", sorted(
    {("period_scan",), ("kovacic",)}
    | {names for cmd, names in cli._SUBCOMMANDS.items() if cmd != "report"}))
def test_one_half_builds_without_forking(monkeypatch, only):
    _stub_builders(monkeypatch)
    _forbid_fork(monkeypatch)
    doc = rpt.build_report(rpt.PipelineConfig(), only=only)
    assert tuple(doc["sections"]) == only


@pytest.mark.parametrize("host", ["one_cpu", "no_affinity_one_cpu",
                                  "no_fork"])
def test_full_report_builds_inline_without_cpus_or_fork(monkeypatch, host):
    _stub_builders(monkeypatch, cpus=2 if host == "no_fork" else 1)
    if host == "no_fork":
        monkeypatch.delattr(os, "fork")
    else:
        _forbid_fork(monkeypatch)
    if host == "no_affinity_one_cpu":
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    doc = rpt.build_report(rpt.PipelineConfig())
    assert tuple(doc["sections"]) == rpt.SECTION_NAMES
    assert {s["pid"] for s in doc["sections"].values()} == {os.getpid()}


def _patch_kovacic(monkeypatch, verdicts):
    """kovacic.kovacic with the decisions of the normal forms in `verdicts`
    replaced by a bare result of the given verdict."""
    real = kovacic.kovacic

    def fake(r):
        for target, verdict in verdicts:
            if r == target:
                return kovacic.KovacicResult(
                    verdict=verdict, group="undetermined",
                    log=["kernel lift exhausted: verdict indeterminate"])
        return real(r)

    monkeypatch.setattr(kovacic, "kovacic", fake)


def test_indeterminate_decision_makes_claim_b_indeterminate(monkeypatch,
                                                            tmp_path):
    """An indeterminate paper-variant decision reads INDETERMINATE, with
    the decision's last log line as its note, in its check, its section and
    claim b, and the report exits 2."""
    paper_r = nve.algebrize(nve.paper_nve_l()).r
    _patch_kovacic(monkeypatch, [(paper_r, "indeterminate")])
    cfg = rpt.PipelineConfig()
    doc = rpt.build_report(cfg)
    checks = {c["id"]: c for c in doc["sections"]["kovacic"]["checks"]}
    chk = checks["kovacic.quartic_paper_variant"]
    assert chk["status"] == "INDETERMINATE"
    assert chk["note"] == "kernel lift exhausted: verdict indeterminate"
    assert doc["sections"]["kovacic"]["status"] == "INDETERMINATE"
    verdicts = doc["verdicts"]
    assert verdicts["meromorphic_nonintegrability"]["status"] \
        == "INDETERMINATE"
    assert verdicts["analytic_nonintegrability"]["status"] == "PASS"
    assert rpt.report_exit_code(doc) == 2


def test_section_fail_beats_an_indeterminate_decision(monkeypatch):
    """A corpus FAIL beside an indeterminate quartic run fails the
    section."""
    airy = RationalFunction(Poly.x(), Poly([1]))
    paper_r = nve.algebrize(nve.paper_nve_l()).r
    _patch_kovacic(monkeypatch, [(airy, "liouvillian"),
                                 (paper_r, "indeterminate")])
    sec = rpt.section_kovacic(rpt.PipelineConfig(variant="paper"))
    status = {c["id"]: c["status"] for c in sec["checks"]}
    assert status["kovacic.corpus_airy"] == "FAIL"
    assert status["kovacic.quartic_paper_variant"] == "INDETERMINATE"
    assert sec["status"] == "FAIL"
