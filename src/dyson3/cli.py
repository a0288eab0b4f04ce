"""Command-line front end for the analysis pipeline.

Subcommands map one-to-one onto report sections (plus ``report`` for the
full merged document).  Every flag mirrors a config-file key; values given
on the command line win over the file.  Exit codes: 0 all PASS, 1 any
FAIL, 2 any Indeterminate/partial evidence, 3 usage error.
"""
from __future__ import annotations

import argparse
import pathlib
import sys

from . import report as rpt

USAGE_EXIT = 3

_SUBCOMMANDS = {
    "period-scan": ("period_scan",),
    "turning-points": ("turning_points",),
    "monodromy": ("monodromy",),
    "taylor": ("truncations",),
    "verify-solutions": ("verify_solutions",),
    "nve": ("nve",),
    "kovacic": ("kovacic",),
    "report": rpt.SECTION_NAMES,
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the interface contract says 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _add_common(p: _Parser):
    p.add_argument("--config", type=str, default=None,
                   help="flat key=value config file")
    p.add_argument("--precision", type=int, default=None,
                   help="working precision in bits (default 128)")
    p.add_argument("--tol", type=float, default=None,
                   help="quadrature tolerance (default 1e-10)")
    p.add_argument("--grid", type=str, default=None, metavar="MIN,MAX,COUNT",
                   help="energy-offset grid above the equilibrium energy")
    p.add_argument("--variant", choices=("paper", "derived", "both"),
                   default=None,
                   help="which quartic coefficient variants to run")
    p.add_argument("--out", type=str, default=None,
                   help="output directory (default ./out)")


def build_parser() -> _Parser:
    parser = _Parser(prog="dyson3",
                     description="non-integrability evidence pipeline for "
                                 "the three-particle log-sine chain")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    for name in _SUBCOMMANDS:
        _add_common(sub.add_parser(name))
    return parser


def load_config_file(path: str) -> dict:
    """Flat key=value lines; '#' starts a comment; blank lines ignored."""
    out = {}
    text = pathlib.Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def _parse_grid(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("grid must be min,max,count")
    return float(parts[0]), float(parts[1]), int(parts[2])


def make_config(args) -> rpt.PipelineConfig:
    mapping = {}
    if args.config:
        mapping.update(load_config_file(args.config))
    if args.precision is not None:
        mapping["precision"] = args.precision
    if args.tol is not None:
        mapping["tol"] = args.tol
    if args.grid is not None:
        lo, hi, n = _parse_grid(args.grid)
        mapping.update(grid_min=lo, grid_max=hi, grid_count=n)
    if args.variant is not None:
        mapping["variant"] = args.variant
    if args.out is not None:
        mapping["out"] = args.out
    return rpt.PipelineConfig.from_mapping(mapping)


def _print_checks(report_doc: dict, stream, with_verdicts: bool):
    for name in sorted(report_doc["sections"]):
        for chk in report_doc["sections"][name]["checks"]:
            val = chk.get("value")
            tail = "" if val is None else f"  value={val!r}"
            tol = chk.get("tol")
            if tol:
                tail += f" tol={tol!r}"
            print(f"[{chk['status']}] {chk['id']}{tail}", file=stream)
    if with_verdicts:
        for key, v in sorted(report_doc["verdicts"].items()):
            print(f"[{v['status']}] verdict.{key}", file=stream)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = make_config(args)
    except (ValueError, OSError) as exc:
        print(f"dyson3: config error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    sections = _SUBCOMMANDS[args.command]
    report_doc = rpt.build_report(cfg, only=sections)
    out = pathlib.Path(cfg.out)
    if args.command == "report":
        rpt.write_outputs(report_doc, out)
    else:
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{sections[0]}.json").write_text(
            rpt.render_json(report_doc["sections"][sections[0]]),
            encoding="utf-8")
        if args.command == "period-scan":
            (out / "period_scan.csv").write_text(rpt.render_csv(report_doc),
                                                 encoding="utf-8")
    _print_checks(report_doc, sys.stdout,
                  with_verdicts=args.command == "report")
    return rpt.report_exit_code(report_doc)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
