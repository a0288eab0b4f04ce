"""Spans and counters for the traced run.

The benchmark wraps public functions of dyson3 in spans from the outside:
each span records its name, start, end, parent span and run id, and is
kept in memory until the run writes them out.  High-frequency arithmetic
(FieldElement and Poly methods) is counted, not spanned.  Kovacic
candidate counts are parsed from KovacicResult.log.
"""
from __future__ import annotations

import functools
import json
import re
import sys
import time

# (module, attribute) -> metric key; self times of all spans sharing a key
# are summed into that per-layer metric.
SPANNED = (
    ("kovacic", "kovacic", "kovacic.decide_s"),
    ("kovacic", "pole_profile", "kovacic.pole_profile_s"),
    ("kovacic", "lame_sieve", "kovacic.lame_sieve_s"),
    ("poly", "exact_roots", "poly.exact_roots_s"),
    ("poly", "partial_fractions", "poly.partial_fractions_s"),
    ("nve", "derive_variational", "nve.derive_s"),
    ("nve", "scalar_nve", "nve.derive_s"),
    ("nve", "algebrize", "nve.derive_s"),
    ("nve", "nve_flow_oracle", "nve.flow_oracle_s"),
    ("nve", "wronskian_drift", "nve.wronskian_s"),
    ("nve", "monodromy_matrix", "nve.monodromy_matrix_s"),
    ("nve", "algebrize_gauge_oracle", "nve.gauge_oracle_s"),
    ("period", "period", "period.quad_s"),
    ("period", "turning_points_closed", "period.turning_points_s"),
    ("period", "turning_points_numeric", "period.turning_points_s"),
    ("period", "return_map_period", "period.return_map_s"),
    ("period", "eta_monodromy", "period.monodromy_s"),
    ("period", "energy_drift", "period.drift_s"),
    ("period", "integrate_diagonal", "period.drift_s"),
    ("elliptic", "verify_phi", "elliptic.verify_s"),
    ("elliptic", "verify_psi", "elliptic.verify_s"),
    ("elliptic", "weierstrass_ode_residual", "elliptic.verify_s"),
    ("elliptic", "psi_diagonal_energy", "elliptic.verify_s"),
    ("model", "taylor_truncate", "model.truncate_s"),
    ("report", "render_json", "report.render_s"),
    ("report", "render_csv", "report.render_s"),
    ("report", "render_markdown", "report.render_s"),
    ("cli", "main", "cli.self_s"),
)

SECTIONS = ("equilibrium", "period_scan", "turning_points", "monodromy",
            "truncations", "verify_solutions", "nve", "kovacic")

# (class, method names, counter)
COUNTED = (
    ("field.FieldElement", ("__mul__", "__rmul__"), "field.mul_calls"),
    ("field.FieldElement", ("inverse",), "field.inverse_calls"),
    ("poly.Poly", ("__mul__", "__rmul__"), "poly.mul_calls"),
    ("poly.Poly", ("divmod",), "poly.divmod_calls"),
)

TIME_KEYS = tuple(dict.fromkeys(
    [key for _m, _a, key in SPANNED if key != "cli.self_s"]
    + [f"report.section.{s}_s" for s in SECTIONS]
    + ["report.validate_s", "cli.self_s"]))


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []          # [name, key, start, end, parent, id]
        self.stack = []
        self.counts = {key: 0 for _c, _m, key in COUNTED}
        self.counts.update({"period.monodromy_steps": 0,
                            "period.drift_steps": 0, "period.quad_calls": 0})
        self.kovacic_logs = []
        self._undo = []

    # -- recording -------------------------------------------------------
    def span(self, name: str, key: str, fn, on_call=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            sid = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else None
            rec = [name, key, time.perf_counter(), None, parent, sid]
            tracer.spans.append(rec)
            tracer.stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                tracer.stack.pop()
            if name == "kovacic.kovacic":
                tracer.kovacic_logs.append(list(result.log))
            return result
        return wrapper

    def counter(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installing --------------------------------------------------------
    def _replace_everywhere(self, orig, new):
        """Rebind every dyson3 module attribute that refers to orig, so that
        names imported with `from .x import f` are wrapped too."""
        for mname, mod in list(sys.modules.items()):
            if not mname.startswith("dyson3") or mod is None:
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, new)
                    self._undo.append((mod, attr, orig))

    def install(self):
        import jsonschema

        from dyson3 import (cli, elliptic, field, kovacic, model, nve, period,
                            poly, report)
        mods = {"kovacic": kovacic, "poly": poly, "nve": nve, "period": period,
                "elliptic": elliptic, "model": model, "report": report,
                "cli": cli, "field": field}
        hooks = {
            "period.period": lambda a, k: self._bump("period.quad_calls", 1),
            "period.eta_monodromy": self._monodromy_steps,
            "period.integrate_diagonal": lambda a, k: self._bump(
                "period.drift_steps", _arg(a, k, 3, "nsteps")),
        }
        for mname, attr, key in SPANNED:
            name = f"{mname}.{attr}"
            orig = getattr(mods[mname], attr)
            self._replace_everywhere(orig, self.span(name, key, orig,
                                                     hooks.get(name)))
        builders = report.SECTION_BUILDERS
        for sec in SECTIONS:
            orig = builders[sec]
            builders[sec] = self.span(f"report.section.{sec}",
                                      f"report.section.{sec}_s", orig)
            self._undo.append((builders, sec, orig))
        orig = jsonschema.validate
        jsonschema.validate = self.span("jsonschema.validate",
                                        "report.validate_s", orig)
        self._undo.append((jsonschema, "validate", orig))
        for cpath, methods, key in COUNTED:
            mname, cname = cpath.split(".")
            cls = getattr(mods[mname], cname)
            for meth in methods:
                orig = cls.__dict__[meth]
                setattr(cls, meth, self.counter(key, orig))
                self._undo.append((cls, meth, orig))

    def uninstall(self):
        for target, attr, orig in reversed(self._undo):
            if isinstance(target, dict):
                target[attr] = orig
            else:
                setattr(target, attr, orig)
        self._undo.clear()

    def _bump(self, key, n):
        self.counts[key] += int(n)

    def _monodromy_steps(self, args, kwargs):
        steps = _arg(args, kwargs, 1, "steps", 2000)
        loops = _arg(args, kwargs, 2, "loops", 1)
        self._bump("period.monodromy_steps", steps * loops)

    # -- output ------------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "run": self.run_id,
            "spans": [{"name": n, "start": s, "end": e, "parent": p, "id": i,
                       "run": self.run_id}
                      for n, _k, s, e, p, i in self.spans],
            "keys": {n: k for n, k, *_ in self.spans},
            "counts": dict(self.counts),
            "kovacic_logs": self.kovacic_logs,
        }


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    if len(args) > pos:
        return args[pos]
    return default


# ---------------------------------------------------------------------------
# per-layer metrics from a trace
# ---------------------------------------------------------------------------

def self_times(spans) -> list:
    """Duration of each span minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for sp in spans:
        if sp["parent"] is not None:
            child[sp["parent"]] += sp["end"] - sp["start"]
    return [sp["end"] - sp["start"] - c for sp, c in zip(spans, child)]


def layer_times(trace: dict) -> dict:
    """Per-layer seconds.  Report sections are inclusive (a section's whole
    wall time, as the report's readers think of it); every other key is a
    self time, so nested spans are not counted twice."""
    spans, keys = trace["spans"], trace["keys"]
    out = {key: 0.0 for key in TIME_KEYS}
    for sp, self_s in zip(spans, self_times(spans)):
        key = keys[sp["name"]]
        if key.startswith("report.section."):
            out[key] += sp["end"] - sp["start"]
        else:
            out[key] += self_s
    # cli.main's self time already excludes the sections it ran
    return out


_CASE1_CAND = re.compile(r"case 1: (candidate d=\d+ rejected \((exact|numeric)\)"
                         r"|success at d=\d+)$")
_CASE2_CAND = re.compile(r"case 2: (candidate e_inf=-?\d+, e=\[[-\d, ]*\], d=\d+ "
                         r"rejected \((exact|numeric)\)|success with .*)$")
_CASE2_SUM = re.compile(r"case 2: (\d+) candidates with integer d >= 0, "
                        r"none admissible$")
_CASE3_SUM = re.compile(r"case 3 \(n=(\d+)\): (\d+) candidates with integer "
                        r"d >= 0 \((\d+) rejected by the GF\(p\) prescreen\), "
                        r"none admissible$")
_CASE3_REJ = re.compile(r"case 3 \(n=(\d+)\): candidate e_inf=.* rejected$")
_CASE3_OK = re.compile(r"case 3 \(n=(\d+)\): success with .*$")
_OTHER = re.compile(
    r"(poles: .*"
    r"|case 1: (inadmissible .*|no admissible exponent data"
    r"|\d+ candidates, none admissible)"
    r"|case 2: (inadmissible .*|a pole admits no integer exponent"
    r"|infinity admits no integer exponent)"
    r"|case 3: (inadmissible .*|S\^2 r not polynomial \(unexpected\))"
    r"|case 3 \(n=\d+\): (a pole|infinity) admits no integer exponent"
    r"|\d+ candidates rejected only numerically: verdict downgraded"
    r"|all cases exhausted with exact rejections: group SL\(2,C\))$")


def parse_kovacic_log(lines):
    """Candidate counts of one decision, or None when a line is not
    understood (the counts then read as absent, never as 0).

    case1/case2 count the candidates with integer d >= 0 that reached the
    linear solve.  Case 3 logs per n either a summary (tried, prescreened)
    or, for the n that succeeds, only its exactly eliminated candidates and
    the success: the prescreened candidates of that n are not in the log,
    so that n is counted in `case3_unlogged_successes` and left out of the
    case-3 sums.
    """
    c = {"case1": 0, "case2": 0, "case3": 0, "case3_pre": 0,
         "unlogged": 0}
    case2_lines = 0
    rejected3 = {}
    for line in lines:
        if _CASE1_CAND.fullmatch(line):
            c["case1"] += 1
        elif _CASE2_CAND.fullmatch(line):
            case2_lines += 1
        elif m := _CASE2_SUM.fullmatch(line):
            if int(m.group(1)) != case2_lines:
                return None
        elif m := _CASE3_SUM.fullmatch(line):
            c["case3"] += int(m.group(2))
            c["case3_pre"] += int(m.group(3))
            exact = rejected3.pop(int(m.group(1)), 0)
            if int(m.group(2)) - int(m.group(3)) != exact:
                return None
        elif m := _CASE3_REJ.fullmatch(line):
            n = int(m.group(1))
            rejected3[n] = rejected3.get(n, 0) + 1
        elif m := _CASE3_OK.fullmatch(line):
            rejected3.pop(int(m.group(1)), None)
            c["unlogged"] += 1
        elif not _OTHER.fullmatch(line):
            return None
    c["case2"] = case2_lines
    return c


def kovacic_counts(logs) -> dict:
    """Summed candidate counters; {} when any log cannot be parsed."""
    total = {"case1": 0, "case2": 0, "case3": 0, "case3_pre": 0,
             "unlogged": 0}
    for lines in logs:
        c = parse_kovacic_log(lines)
        if c is None:
            print(f"perfbench: unparsed Kovacic log: {lines!r}",
                  file=sys.stderr)
            return {}
        for k in total:
            total[k] += c[k]
    tried = total["case3"]
    return {
        "kovacic.decisions": len(logs),
        "kovacic.case1_candidates": total["case1"],
        "kovacic.case2_candidates": total["case2"],
        "kovacic.case3_candidates": tried,
        "kovacic.case3_prescreened": total["case3_pre"],
        "kovacic.case3_exact": tried - total["case3_pre"],
        "kovacic.case3_unlogged_successes": total["unlogged"],
        # base: kovacic.case3_candidates; a yield over no candidates reads 0
        "kovacic.prescreen_yield": total["case3_pre"] / tried if tried else 0.0,
    }


def write(path, traces):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(traces, fh)


# ---------------------------------------------------------------------------
# field microbenchmark
# ---------------------------------------------------------------------------

# Each field rate is the median of three timed passes of at least this long.
RATE_PASS_S = 0.1


def field_rates(operands) -> dict:
    """Operations per second of FieldElement mul, add and inverse on the
    workload's own operands (pairs of consecutive operands); each rate is
    the median of three timed passes of at least RATE_PASS_S."""
    ops = [x for x in operands if not x.is_zero()]
    pairs = list(zip(ops, ops[1:] + ops[:1]))
    def rate(fn):
        samples = []
        for _ in range(3):
            n, t0 = 0, time.perf_counter()
            while True:
                fn()
                n += 1
                dt = time.perf_counter() - t0
                if dt >= RATE_PASS_S:
                    break
            samples.append(n * len(pairs) / dt)
        return sorted(samples)[1]

    def mul():
        for a, b in pairs:
            a * b

    def add():
        for a, b in pairs:
            a + b

    def inv():
        for a, _b in pairs:
            a.inverse()

    return {"field.mul_per_s": rate(mul), "field.add_per_s": rate(add),
            "field.inverse_per_s": rate(inv)}


def operands_of(rfs, points):
    """Distinct nonzero coefficients of the rational functions, then the
    pole points, in a fixed order."""
    seen, out = set(), []
    for rf in rfs:
        for c in list(rf.num.coeffs) + list(rf.den.coeffs):
            if not c.is_zero() and c not in seen:
                seen.add(c)
                out.append(c)
    for p in points:
        if not p.is_zero() and p not in seen:
            seen.add(p)
            out.append(p)
    return out
