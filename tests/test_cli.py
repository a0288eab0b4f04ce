"""Command-line interface: flags, exit codes, outputs."""
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
    assert cli.main(["taylor", "--grid", "1e-6,1,1",
                     "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize("grid", ["nan,1,3", "1e-6,inf,3", "1e-6,nan,3"])
def test_non_finite_grid_is_usage_error(tmp_path, capsys, grid):
    out = tmp_path / "out"
    assert cli.main(["period-scan", "--grid", grid, "--out", str(out)]) == 3
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["config", "tol", "variant",
                                  "monodromy_radius", "monodromy_steps"])
def test_removed_flags_are_usage_errors(tmp_path, flag):
    """A run is configured by --precision, --grid and --out alone: the
    config file, the tolerance, the variant and the branch loops' radius
    and steps are fixed by the report, so a flag that names one is a usage
    error."""
    option = "--" + flag.replace("_", "-")
    with pytest.raises(SystemExit) as exc:
        cli.main(["monodromy", option, "1", "--out", str(tmp_path)])
    assert exc.value.code == 3
    assert not (tmp_path / "monodromy.json").exists()


@pytest.mark.parametrize("abbrev", [["--prec", "96"], ["--gr", "1e-6,0.1,3"],
                                    ["--o", "elsewhere"]])
def test_abbreviated_flags_are_usage_errors(tmp_path, abbrev):
    """A flag has one spelling: a prefix of it exits 3 and writes nothing,
    while the full flags run."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["taylor", *abbrev, "--out", str(tmp_path)])
    assert exc.value.code == 3
    assert not any(tmp_path.iterdir())
    assert cli.main(["taylor", "--precision", "96", "--grid", "1e-6,0.1,3",
                     "--out", str(tmp_path)]) == 0
    assert {p.name for p in tmp_path.iterdir()} == {"truncations.json"}


def test_flags_reach_the_config():
    args = cli.build_parser().parse_args(
        ["report", "--precision", "96", "--grid", "1e-6,0.1,3"])
    assert cli.make_config(args).to_json() == {
        "precision": 96, "grid_min": 1e-6, "grid_max": 0.1, "grid_count": 3}


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


def test_period_scan_error_row(tmp_path):
    """At 128 bits E_min + 1e-45 rounds to E_min: that row holds the error
    and no values, monotone_T FAILs, the command exits 1, and the CSV
    keeps the two rows that have values."""
    code = cli.main(["period-scan", "--grid", "1e-45,1e-6,3",
                     "--out", str(tmp_path)])
    assert code == 1
    doc = json.loads((tmp_path / "period_scan.json").read_text())
    assert doc["rows"][-1] == {
        "offset": 1e-45, "error": "energy at or below the equilibrium energy"}
    assert [r["error"] for r in doc["rows"][:-1]] == [None, None]
    status = {c["id"]: c["status"] for c in doc["checks"]}
    assert status["period_scan.monotone_T"] == "FAIL"
    lines = (tmp_path / "period_scan.csv").read_text().splitlines()
    assert lines[0] == "c,E,T,log_eta,phi"
    assert len(lines) == 3


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


def _run_fresh(code: str) -> None:
    """Run code in a fresh interpreter that imports this dyson3."""
    src = str(pathlib.Path(dyson3.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_cli_import_loads_no_exact_layer():
    """A fresh import of dyson3.cli loads dyson3, cli, period and report
    alone: the exact layers (field, poly, model, nve, kovacic) and
    elliptic are imported by the section builders, after the fork, and
    stay off the set-up path."""
    _run_fresh("import sys\n"
               "import dyson3.cli\n"
               "loaded = sorted(m for m in sys.modules\n"
               "                if m.split('.')[0] == 'dyson3')\n"
               "assert loaded == ['dyson3', 'dyson3.cli', 'dyson3.period',\n"
               "                  'dyson3.report'], loaded\n")


def test_cli_import_leaves_scipy_integrate_unloaded(tmp_path):
    """SciPy and jsonschema are test dependencies only: a fresh interpreter
    that imports dyson3.cli and writes the full report has loaded no scipy
    and no jsonschema module."""
    code = ("import sys\n"
            "from dyson3 import cli\n"
            "def test_only_modules():\n"
            "    return [m for m in sys.modules\n"
            "            if m.split('.')[0] in ('scipy', 'jsonschema')]\n"
            "assert not test_only_modules(), test_only_modules()\n"
            f"assert cli.main(['report', '--out', {str(tmp_path)!r}]) == 0\n"
            "assert not test_only_modules(), test_only_modules()\n")
    _run_fresh(code)


def test_exact_modules_leave_mpmath_unloaded():
    """The exact pipeline (field, model, poly, nve, kovacic) loads no
    mpmath module: nve imports the midpoint rule only when base_period
    runs."""
    _run_fresh("import sys\n"
               "from dyson3 import field, kovacic, model, nve, poly\n"
               "loaded = [m for m in sys.modules\n"
               "          if m.split('.')[0] == 'mpmath']\n"
               "assert not loaded, loaded\n")
