"""Report assembly, schema, determinism, and renderers."""
import copy
import json
import os

import jsonschema
import pytest

from dyson3 import cli, kovacic, model, nve
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
                        "enum": ["PASS", "FAIL", "INDETERMINATE"],
                    },
                    "evidence": {"type": "array", "items": {"type": "string"}},
                },
            },
        },
    },
}


# every check id that a verdict cites
_CITED = sorted(set(rpt._CLAIM_A_EVIDENCE + rpt._CLAIM_B_EVIDENCE))


@pytest.fixture(scope="module")
def full_report():
    return rpt.build_report(rpt.PipelineConfig(grid_count=3, grid_max=0.1))


def test_config_validation():
    with pytest.raises(ValueError):
        rpt.PipelineConfig(grid_min=-1)
    with pytest.raises(ValueError):
        rpt.PipelineConfig(grid_count=1)
    with pytest.raises(ValueError):
        rpt.PipelineConfig(grid_max=float("nan"))
    with pytest.raises(ValueError):
        rpt.PipelineConfig(precision=32)
    assert rpt.PipelineConfig(precision=96).precision == 96


def test_schema_valid_and_versioned(full_report):
    jsonschema.validate(full_report, REPORT_SCHEMA)
    rpt.validate(full_report)
    assert full_report["schema_version"] == rpt.SCHEMA_VERSION


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
def test_validate_rejects_what_the_schema_rejects(full_report, name):
    doc = copy.deepcopy(full_report)
    _MUTATIONS[name](doc)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, REPORT_SCHEMA)
    with pytest.raises(ValueError):
        rpt.validate(doc)


def test_json_roundtrip(full_report):
    text = rpt.render_json(full_report)
    assert json.loads(text) == full_report


def _passing(ids) -> dict:
    return {"s": {"checks": [{"id": cid, "status": "PASS"} for cid in ids]}}


def test_a_verdict_citing_an_absent_check_raises():
    """A cited id that no section holds raises a KeyError naming it, so a
    renamed check fails loudly instead of reading PASS."""
    for absent in _CITED:
        sections = _passing(cid for cid in _CITED if cid != absent)
        with pytest.raises(KeyError) as exc:
            rpt.build_verdicts(sections)
        assert exc.value.args == (absent,)
    verdicts = rpt.build_verdicts(_passing(_CITED))
    assert {v["status"] for v in verdicts.values()} == {"PASS"}


def test_claim_b_needs_the_transverse_decision():
    """Without the transverse decision the verdicts raise however the
    other checks come out; with it claim b passes."""
    sections = _passing(cid for cid in _CITED
                        if cid != "kovacic.quartic_derived_transverse")
    with pytest.raises(KeyError, match="kovacic.quartic_derived_transverse"):
        rpt.build_verdicts(sections)
    sections["s"]["checks"].append(
        {"id": "kovacic.quartic_derived_transverse", "status": "PASS"})
    claim_b = rpt.build_verdicts(sections)["meromorphic_nonintegrability"]
    assert claim_b["status"] == "PASS"
    assert "kovacic.quartic_derived_transverse" in claim_b["evidence"]
    assert "nve.scalar_vs_4d_L_antisymmetric" in claim_b["evidence"]


def test_claim_b_cites_no_printed_equation():
    """The decisions on the printed equations (coupling A = 4, coefficient
    8 sqrt3/9) stay report checks, but neither is the system's equation:
    claim b does not cite them, and it PASSes with both FAILing."""
    printed = ("kovacic.lame_sieve_paper_A4", "kovacic.quartic_paper_variant")
    assert not set(printed) & set(_CITED)
    sections = _passing(_CITED)
    sections["s"]["checks"] += [{"id": cid, "status": "FAIL"}
                                for cid in printed]
    verdicts = rpt.build_verdicts(sections)
    assert {v["status"] for v in verdicts.values()} == {"PASS"}


def test_both_claims_cite_the_canonical_reduction(full_report):
    """Both verdicts rest on H_reg, so both cite the exact reduction, and
    it PASSes."""
    for key in ("analytic_nonintegrability", "meromorphic_nonintegrability"):
        assert "truncations.canonical_reduction" in \
            full_report["verdicts"][key]["evidence"]
    checks = {c["id"]: c for c in full_report["sections"]["truncations"]
              ["checks"]}
    assert checks["truncations.canonical_reduction"]["status"] == "PASS"


def test_corrupted_reduction_fails_both_claims(monkeypatch):
    """Negative control: one corrupted entry of the reduction's Jacobian,
    any of the 36, makes truncations.canonical_reduction FAIL; with every
    other cited check passing, both claims FAIL with it."""
    cfg = rpt.PipelineConfig()
    jacobian = model.transform_jacobian
    for row in range(6):
        for col in range(6):
            rows = jacobian()
            rows[row][col] += 1
            monkeypatch.setattr(model, "transform_jacobian",
                                lambda rows=rows: rows)
            section = rpt.section_truncations(cfg)
            status = {c["id"]: c["status"] for c in section["checks"]}
            assert status.pop("truncations.canonical_reduction") == "FAIL"
            assert set(status.values()) == {"PASS"}
    others = {cid for cid in rpt._CLAIM_A_EVIDENCE + rpt._CLAIM_B_EVIDENCE
              if not cid.startswith("truncations.")}
    sections = {"truncations": section,
                "s": {"checks": [{"id": cid, "status": "PASS"}
                                 for cid in sorted(others)]}}
    verdicts = rpt.build_verdicts(sections)
    assert {v["status"] for v in verdicts.values()} == {"FAIL"}


@pytest.mark.parametrize("key", sorted(model.KINETIC))
@pytest.mark.parametrize("delta", [-1, 1])
def test_corrupted_kinetic_form_fails_the_check_and_moves_the_nve(
        monkeypatch, key, delta):
    """Negative control: a change of one entry of model.KINETIC makes
    truncations.canonical_reduction FAIL, and every derived scalar NVE
    either raises (the swap modes are no longer kinetic eigenvectors) or
    changes its coefficient."""
    pairs = [(nve.derive_variational(model.taylor_truncate(order)), mode)
             for order in (3, 4) for mode in ("symmetric", "antisymmetric")]
    before = [nve.scalar_nve(vs, mode).a for vs, mode in pairs]
    kinetic = dict(model.KINETIC)
    kinetic[key] += delta
    monkeypatch.setattr(model, "KINETIC", kinetic)
    section = rpt.section_truncations(rpt.PipelineConfig())
    status = {c["id"]: c["status"] for c in section["checks"]}
    assert status.pop("truncations.canonical_reduction") == "FAIL"
    assert set(status.values()) == {"PASS"}
    for (vs, mode), a in zip(pairs, before):
        try:
            after = nve.scalar_nve(vs, mode).a
        except ValueError:
            continue
        assert after != a, (key, delta, mode)


def test_every_check_carries_tolerance_when_numeric(full_report):
    for sec in full_report["sections"].values():
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
    # the verdicts count as the sections do
    doc["sections"]["a"]["status"] = "PASS"
    doc["verdicts"]["v"]["status"] = "INDETERMINATE"
    assert rpt.report_exit_code(doc) == 2
    doc["verdicts"]["v"]["status"] = "FAIL"
    assert rpt.report_exit_code(doc) == 1


def test_markdown_mirrors_both_claims(full_report):
    md = rpt.render_markdown(full_report)
    assert "Claim a" in md and "Claim b" in md
    assert "analytic first integral" in md
    assert "meromorphic first integral" in md


def test_csv_shape():
    cfg = rpt.PipelineConfig(grid_count=3, grid_max=0.1)
    lines = rpt.render_csv(rpt.section_period_scan(cfg)).splitlines()
    assert lines[0] == "c,E,T,log_eta,phi"
    assert len(lines) == 1 + cfg.grid_count
    for line in lines[1:]:
        assert all(float(tok) == float(tok) for tok in line.split(","))


def test_section_determinism():
    cfg = rpt.PipelineConfig(grid_count=3, grid_max=0.1)
    a, b = ({n: rpt.SECTION_BUILDERS[n](cfg) for n in FAST_SECTIONS}
            for _ in range(2))
    assert rpt.render_json(a) == rpt.render_json(b)


def test_write_outputs(tmp_path, full_report):
    paths = rpt.write_outputs(full_report, tmp_path)
    names = {p.name for p in paths}
    assert names == {"report.json", "period_scan.csv", "summary.md"}
    assert json.loads((tmp_path / "report.json").read_text()) == full_report


def test_output_directory_does_not_enter_the_report(full_report):
    """The CLI owns the output directory: the config, and so the report,
    holds the four analysis inputs alone."""
    assert full_report["config"] == {
        "precision": 128, "grid_min": 1e-6, "grid_max": 0.1, "grid_count": 3}


# ---------------------------------------------------------------------------
# the forked build: stub builders, so these run in milliseconds
# ---------------------------------------------------------------------------

def _stub_builders(monkeypatch, **replace):
    """Every section builder becomes a stub whose section holds the cited
    checks of its name, passing, and records the pid that built it;
    `replace` maps a section name to its own builder."""
    for name in rpt.SECTION_NAMES:
        def stub(cfg, name=name):
            checks = [{"id": cid, "status": "PASS"} for cid in _CITED
                      if cid.startswith(name + ".")]
            return {"name": name, "status": "PASS", "checks": checks,
                    "rows": [], "pid": os.getpid()}
        monkeypatch.setitem(rpt.SECTION_BUILDERS, name,
                            replace.get(name, stub))


# a section of each half, taken from the split, so that a rebalance cannot
# turn a test of the child into a test of the parent
_CHILD = rpt._FORKED_SECTIONS[0]
_INLINE = [n for n in rpt.SECTION_NAMES if n not in rpt._FORKED_SECTIONS][-1]


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


@pytest.mark.parametrize("name", [_CHILD, _INLINE])
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

    test_pid = os.getpid()

    def broken(cfg):
        assert os.getpid() != test_pid, f"{_CHILD} was not built in a child"
        if unpicklable == "local_class":
            raise Local(f"{_CHILD} broke")
        raise TwoArgError(_CHILD, "broke")

    _stub_builders(monkeypatch, **{_CHILD: broken})
    with pytest.raises(RuntimeError,
                       match=rf"(TwoArgError|Local): {_CHILD} broke"):
        rpt.build_report(rpt.PipelineConfig())
    _assert_no_child()


def test_a_child_that_dies_raises_its_exit_status(monkeypatch):
    test_pid = os.getpid()

    def dies(cfg):
        assert os.getpid() != test_pid, f"{_CHILD} was not built in a child"
        os._exit(3)

    _stub_builders(monkeypatch, **{_CHILD: dies})
    with pytest.raises(RuntimeError, match="status 3 "):
        rpt.build_report(rpt.PipelineConfig())
    _assert_no_child()


def _forbid_fork(monkeypatch):
    def fork():
        raise AssertionError("the report forked")

    monkeypatch.setattr(os, "fork", fork)


@pytest.mark.parametrize("only", sorted(cli._SUBCOMMANDS.items()))
def test_one_half_builds_without_forking(monkeypatch, tmp_path, capsys,
                                         only):
    """A subcommand builds only its own section, in this process, and
    writes and prints that section alone, with no verdict."""
    command, name = only
    _stub_builders(monkeypatch)
    _forbid_fork(monkeypatch)
    assert cli.main([command, "--out", str(tmp_path)]) == 0
    written = {p.name for p in tmp_path.iterdir()}
    assert written == {f"{name}.json"} | (
        {"period_scan.csv"} if name == "period_scan" else set())
    section = json.loads((tmp_path / f"{name}.json").read_text())
    assert section["name"] == name and section["pid"] == os.getpid()
    printed = capsys.readouterr().out.splitlines()
    assert printed == [f"[PASS] {c['id']}" for c in section["checks"]]


def test_a_subcommand_exits_with_its_section_status(monkeypatch, tmp_path):
    """A subcommand's exit code is its section's status, and a section
    without the fixed shape is refused before anything is written."""
    for status, code in (("INDETERMINATE", 2), ("FAIL", 1)):
        _stub_builders(monkeypatch, kovacic=lambda cfg, status=status: {
            "name": "kovacic", "status": status, "checks": []})
        assert cli.main(["kovacic", "--out", str(tmp_path / status)]) == code
    _stub_builders(monkeypatch, kovacic=lambda cfg: {
        "name": "kovacic", "status": "PASS", "checks": [{"id": 7}]})
    with pytest.raises(ValueError, match="section shape"):
        cli.main(["kovacic", "--out", str(tmp_path / "malformed")])
    assert not (tmp_path / "malformed").exists()


def test_full_report_builds_inline_without_fork(monkeypatch):
    _stub_builders(monkeypatch)
    monkeypatch.delattr(os, "fork")
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
    """An indeterminate transverse decision (L_derived_antisymmetric) reads
    INDETERMINATE, with the decision's last log line as its note, in its
    check, its section and claim b, and the report exits 2."""
    vs4 = nve.derive_variational(model.taylor_truncate(4))
    transverse_r = nve.algebrize(nve.scalar_nve(vs4, "antisymmetric")).r
    _patch_kovacic(monkeypatch, [(transverse_r, "indeterminate")])
    cfg = rpt.PipelineConfig()
    doc = rpt.build_report(cfg)
    checks = {c["id"]: c for c in doc["sections"]["kovacic"]["checks"]}
    assert checks["kovacic.quartic_paper_variant"]["status"] == "PASS"
    chk = checks["kovacic.quartic_derived_transverse"]
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
    sec = rpt.section_kovacic(rpt.PipelineConfig())
    status = {c["id"]: c["status"] for c in sec["checks"]}
    assert status["kovacic.corpus_airy"] == "FAIL"
    assert status["kovacic.quartic_paper_variant"] == "INDETERMINATE"
    assert sec["status"] == "FAIL"
