"""Command-line interface: flags, config files, exit codes, outputs."""
import json
import os
import pathlib
import subprocess
import sys

import pytest

import dyson3
from dyson3 import cli


def test_usage_errors_exit_3(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 3


def test_bad_grid_is_usage_error(tmp_path):
    assert cli.main(["turning-points", "--grid", "nonsense",
                     "--out", str(tmp_path)]) == 3


def test_bad_config_value_is_usage_error(tmp_path):
    cfgfile = tmp_path / "cfg.txt"
    cfgfile.write_text("grid_count = 1\n", encoding="utf-8")
    assert cli.main(["taylor", "--config", str(cfgfile),
                     "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize("key", ["monodromy_radius", "monodromy_steps"])
def test_monodromy_loop_keys_are_unknown(tmp_path, capsys, key):
    """The branch loops' radius and steps are constants of the report, not
    config keys: a file that names one is a usage error."""
    cfgfile = tmp_path / "cfg.txt"
    cfgfile.write_text(f"{key} = 1\n", encoding="utf-8")
    assert cli.main(["monodromy", "--config", str(cfgfile),
                     "--out", str(tmp_path)]) == 3
    assert f"unknown config key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "monodromy.json").exists()


def test_config_file_parsing(tmp_path):
    cfgfile = tmp_path / "cfg.txt"
    cfgfile.write_text("precision = 96  # narrower\n\ntol=1e-9\n",
                       encoding="utf-8")
    assert cli.load_config_file(cfgfile) == {"precision": "96", "tol": "1e-9"}
    cfgfile.write_text("broken line\n", encoding="utf-8")
    with pytest.raises(ValueError):
        cli.load_config_file(cfgfile)


def test_cli_overrides_config_file(tmp_path):
    cfgfile = tmp_path / "cfg.txt"
    cfgfile.write_text("precision = 96\nvariant = paper\n", encoding="utf-8")
    parser = cli.build_parser()
    args = parser.parse_args(["taylor", "--config", str(cfgfile),
                              "--precision", "128"])
    cfg = cli.make_config(args)
    assert cfg.precision == 128          # flag wins
    assert cfg.variant == "paper"        # file survives where no flag given


def test_tol_and_variant_flags_reach_the_report(tmp_path):
    """--variant paper runs only the paper quartic NVE, so claim b lacks the
    derived transverse decision: PARTIAL, exit 2.  Both flags are recorded
    in the report's config block."""
    assert cli.main(["report", "--variant", "paper", "--tol", "1e-9",
                     "--out", str(tmp_path)]) == 2
    doc = json.loads((tmp_path / "report.json").read_text())
    claim_b = doc["verdicts"]["meromorphic_nonintegrability"]
    assert claim_b["status"] == "PARTIAL"
    assert claim_b["missing"] == ["kovacic.quartic_derived_transverse"]
    assert doc["config"]["variant"] == "paper"
    assert doc["config"]["tol"] == 1e-9


def test_taylor_subcommand_passes_and_writes_json(tmp_path, capsys):
    code = cli.main(["taylor", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "[PASS] truncations.diagonal_quartic" in out
    doc = json.loads((tmp_path / "truncations.json").read_text())
    assert doc["status"] == "PASS"


def test_period_scan_writes_csv(tmp_path):
    code = cli.main(["period-scan", "--grid", "1e-6,0.1,3",
                     "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "period_scan.csv").read_text().splitlines()
    assert lines[0] == "c,E,T,log_eta,phi"
    assert len(lines) == 4


def test_verify_solutions_subcommand(tmp_path, capsys):
    assert cli.main(["verify-solutions", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "[PASS] verify_solutions.psi" in out
    assert "[PASS] verify_solutions.corrupted_control" in out


def test_section_json_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cli.main(["turning-points", "--out", str(out1)])
    cli.main(["turning-points", "--out", str(out2)])
    assert (out1 / "turning_points.json").read_bytes() == \
        (out2 / "turning_points.json").read_bytes()


def test_cli_import_leaves_scipy_integrate_unloaded(tmp_path):
    """SciPy and jsonschema are test dependencies only: a fresh interpreter
    that imports dyson3.cli and writes the full report has loaded no scipy
    and no jsonschema module."""
    src = str(pathlib.Path(dyson3.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys\n"
            "from dyson3 import cli\n"
            "def test_only_modules():\n"
            "    return [m for m in sys.modules\n"
            "            if m.split('.')[0] in ('scipy', 'jsonschema')]\n"
            "assert not test_only_modules(), test_only_modules()\n"
            f"assert cli.main(['report', '--out', {str(tmp_path)!r}]) == 0\n"
            "assert not test_only_modules(), test_only_modules()\n")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_exact_modules_leave_mpmath_unloaded():
    """The exact pipeline (field, model, poly, nve, kovacic) loads no
    mpmath module: nve imports the midpoint rule only when base_period
    runs."""
    src = str(pathlib.Path(dyson3.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys\n"
            "from dyson3 import field, kovacic, model, nve, poly\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'mpmath']\n"
            "assert not loaded, loaded\n")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
