"""Run `dyson3 report --out DIR` through cli.main in this fresh process.

run.py starts this file as the report workload's child, so each report
pays interpreter start, imports and lazy set-up as a user's run does.
With --trace the child records spans and counters.  It writes cli.main's
exit code (and the trace) to --record and exits with that code.

    python3 perfbench/report_child.py --out DIR --record FILE [--trace RUN_ID]
"""
import argparse
import json
import os
import sys


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    ap.add_argument("--record", required=True)
    ap.add_argument("--trace", default=None, metavar="RUN_ID")
    args = ap.parse_args()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from dyson3 import cli

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer(args.trace)
        tracer.install()
    rc = cli.main(["report", "--out", args.out])
    record = {"rc": rc}
    if tracer is not None:
        tracer.uninstall()
        record["trace"] = tracer.to_json()
    with open(args.record, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
