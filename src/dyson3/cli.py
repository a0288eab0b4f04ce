"""Command-line front end for the analysis pipeline.

Each subcommand but ``report`` builds one report section and writes it as
``{section}.json`` (plus ``period_scan.csv`` for ``period-scan``), with no
verdicts; ``report`` builds all eight sections and the two verdicts.  Three
flags configure a run: ``--precision``, ``--grid`` and ``--out``.  Exit
codes: 0 all PASS, 1 any FAIL, 2 any INDETERMINATE, 3 usage error.
"""
from __future__ import annotations

import argparse
import pathlib
import sys

from . import report as rpt

USAGE_EXIT = 3

# each subcommand but `report` and the one section it builds
_SUBCOMMANDS = {
    "period-scan": "period_scan",
    "turning-points": "turning_points",
    "monodromy": "monodromy",
    "taylor": "truncations",
    "verify-solutions": "verify_solutions",
    "nve": "nve",
    "kovacic": "kovacic",
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the interface contract says 3.
    A flag has one spelling: no prefix of it is accepted."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _add_common(p: _Parser):
    p.add_argument("--precision", type=int, default=None,
                   help="working precision in bits (default 128)")
    p.add_argument("--grid", type=str, default=None, metavar="MIN,MAX,COUNT",
                   help="energy-offset grid above the equilibrium energy")
    p.add_argument("--out", type=str, default="out",
                   help="output directory (default ./out)")


def build_parser() -> _Parser:
    parser = _Parser(prog="dyson3",
                     description="non-integrability evidence pipeline for "
                                 "the three-particle log-sine chain")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    for name in (*_SUBCOMMANDS, "report"):
        _add_common(sub.add_parser(name))
    return parser


def _parse_grid(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("grid must be min,max,count")
    return float(parts[0]), float(parts[1]), int(parts[2])


def make_config(args) -> rpt.PipelineConfig:
    kwargs = {}
    if args.precision is not None:
        kwargs["precision"] = args.precision
    if args.grid is not None:
        lo, hi, n = _parse_grid(args.grid)
        kwargs.update(grid_min=lo, grid_max=hi, grid_count=n)
    return rpt.PipelineConfig(**kwargs)


def _print_checks(sections: dict, verdicts: dict):
    for name in sorted(sections):
        for chk in sections[name]["checks"]:
            val = chk.get("value")
            tail = "" if val is None else f"  value={val!r}"
            tol = chk.get("tol")
            if tol:
                tail += f" tol={tol!r}"
            print(f"[{chk['status']}] {chk['id']}{tail}")
    for key, v in sorted(verdicts.items()):
        print(f"[{v['status']}] verdict.{key}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = make_config(args)
    except ValueError as exc:
        print(f"dyson3: config error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    out = pathlib.Path(args.out)
    if args.command == "report":
        report_doc = rpt.build_report(cfg)
        rpt.write_outputs(report_doc, out)
        _print_checks(report_doc["sections"], report_doc["verdicts"])
        return rpt.report_exit_code(report_doc)
    name = _SUBCOMMANDS[args.command]
    section = rpt.SECTION_BUILDERS[name](cfg)
    rpt.validate_section(section)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{name}.json").write_text(rpt.render_json(section),
                                      encoding="utf-8")
    if name == "period_scan":
        (out / "period_scan.csv").write_text(rpt.render_csv(section),
                                             encoding="utf-8")
    _print_checks({name: section}, {})
    return rpt.EXIT_CODES[section["status"]]


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
