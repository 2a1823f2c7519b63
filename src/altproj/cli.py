"""Command-line entry point.

    altproj solve    --problem file.json [--scheme ...] [--trace out.csv] ...
    altproj diagnose --trace out.csv [--problem file.json] [--predict-alpha a]
    altproj bench    [--filter substr] [--json]

Problem files carry {"kind": ..., payload, "start": [...], "options": {...}}
with the payload schemas owned by the sets/linconstr/inclusion modules.
Exit codes: 0 Converged, 1 input error, 2 MaxIters/Diverged,
3 LinearizationInfeasible/RankDeficient.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from . import alternating, diagnostics, inclusion, linconstr
from .alternating import (
    CONVERGED,
    ExactApproximateProjector,
    InexactProjector,
    IterationTrace,
    SolveOptions,
)
from .errors import AltprojError, InsufficientData
from .inclusion import ChartApproximateProjector, InclusionProblem, ManifoldChart
from .linconstr import ConstraintSystem
from .sets import ProjectableSet, set_from_json

SCHEMES = ("exact", "inexact", "approximate", "linconstr", "inclusion")
_DEFAULT_SCHEME = {"two_sets": "exact", "constraint_system": "linconstr", "inclusion": "inclusion"}
_COMPATIBLE = {
    "two_sets": ("exact", "inexact", "approximate"),
    "constraint_system": ("linconstr",),
    "inclusion": ("inclusion", "approximate"),
}

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_CONVERGED = 2
EXIT_STRUCTURAL = 3


class ProblemFormatError(ValueError):
    pass


@dataclass
class ProblemFile:
    kind: str
    payload: object          # (Q, M) | ConstraintSystem | InclusionProblem
    start: np.ndarray
    options: SolveOptions
    chart_bounds: tuple | None = None


def _require(obj, key, where):
    if key not in obj:
        raise ProblemFormatError(f"missing field '{key}' in {where}")
    return obj[key]


def load_problem(path) -> ProblemFile:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ProblemFormatError(f"cannot read problem file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"malformed JSON at line {exc.lineno}: {exc.msg}") from exc

    kind = _require(obj, "kind", "problem file")
    if kind not in _DEFAULT_SCHEME:
        raise ProblemFormatError(f"unknown kind '{kind}'")
    opts_obj = obj.get("options", {})
    try:
        options = SolveOptions(
            gap_tol=float(opts_obj.get("gap_tol", 1e-10)),
            max_iters=int(opts_obj.get("max_iters", 10_000)),
            epsilon=float(opts_obj.get("epsilon", 0.0)),
        )
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"bad options block: {exc}") from exc

    try:
        if kind == "two_sets":
            Q = set_from_json(_require(obj, "Q", "two_sets problem"))
            M = set_from_json(_require(obj, "M", "two_sets problem"))
            payload = (Q, M)
            dim = Q.ambient_dim
            if M.ambient_dim != dim:
                raise ProblemFormatError("Q and M ambient dimensions differ")
        elif kind == "constraint_system":
            payload = ConstraintSystem.from_json(_require(obj, "system", "problem file"))
            dim = payload.ambient_dim
        else:
            payload = InclusionProblem.from_json(_require(obj, "problem", "problem file"))
            dim = payload.F.input_dim
    except ValueError as exc:
        raise ProblemFormatError(str(exc)) from exc

    start = np.asarray(_require(obj, "start", "problem file"), dtype=float)
    if start.shape != (dim,):
        raise ProblemFormatError(
            f"start point has dimension {start.shape}, expected ({dim},)"
        )
    chart = None
    if "U_lower" in obj or "U_upper" in obj:
        chart = (
            np.asarray(_require(obj, "U_lower", "chart block"), dtype=float),
            np.asarray(_require(obj, "U_upper", "chart block"), dtype=float),
        )
    return ProblemFile(kind, payload, start, options, chart)


def run_problem(prob: ProblemFile, scheme=None, seed=None) -> IterationTrace:
    scheme = scheme or _DEFAULT_SCHEME[prob.kind]
    if scheme not in _COMPATIBLE[prob.kind]:
        raise ProblemFormatError(
            f"scheme '{scheme}' is not valid for kind '{prob.kind}'"
        )
    if seed is None:
        seed = int(os.environ.get("ALTPROJ_SEED", "42"))
    if prob.kind == "two_sets":
        Q, M = prob.payload
        if scheme == "exact":
            return alternating.run_exact(Q, M, prob.start, prob.options)
        if scheme == "inexact":
            proj = InexactProjector(M, prob.options.epsilon, seed)
            return alternating.run_inexact(Q, proj, prob.start, prob.options)
        return alternating.run_approximate(
            ExactApproximateProjector(M), Q, M.project(prob.start), prob.options
        )
    if prob.kind == "constraint_system":
        return linconstr.solve_constraint_system(prob.payload, prob.start, prob.options)
    # inclusion kind
    if scheme == "inclusion":
        return inclusion.solve_inclusion(prob.payload, prob.start, prob.options)
    if prob.chart_bounds is None:
        raise ProblemFormatError(
            "approximate scheme on an inclusion problem needs U_lower/U_upper"
        )
    chart = ManifoldChart(prob.payload.F, *prob.chart_bounds)
    projector = ChartApproximateProjector(chart, prob.start)
    z0 = prob.payload.F.eval(prob.start)
    return alternating.run_approximate(projector, prob.payload.Q, z0, prob.options)


def _status_exit(status):
    if status == CONVERGED:
        return EXIT_OK
    if status in (alternating.LINEARIZATION_INFEASIBLE, alternating.RANK_DEFICIENT):
        return EXIT_STRUCTURAL
    return EXIT_NOT_CONVERGED


def _summary(trace: IterationTrace):
    try:
        rate = diagnostics.fit_rate(trace).rate
    except InsufficientData:
        rate = None
    gap = trace.final_gap
    return {
        "status": trace.status,
        "iterations": trace.iterations,
        "final_gap": None if math.isnan(gap) else gap,
        "rate": rate,
    }


def cmd_solve(args):
    prob = load_problem(args.problem)
    flags = {"gap_tol": args.tol, "max_iters": args.max_iters, "epsilon": args.eps}
    try:
        prob.options = replace(
            prob.options, **{k: v for k, v in flags.items() if v is not None}
        )
    except ValueError as exc:
        raise ProblemFormatError(f"bad option: {exc}") from exc
    trace = run_problem(prob, args.scheme)
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write(trace.to_csv())
    summary = _summary(trace)
    text = json.dumps(summary, indent=2)
    if args.summary:
        with open(args.summary, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return _status_exit(trace.status)


def cmd_diagnose(args):
    try:
        with open(args.trace) as fh:
            trace = IterationTrace.from_csv(fh.read())
    except (OSError, ValueError) as exc:
        print(f"error: unreadable trace: {exc}", file=sys.stderr)
        return EXIT_INPUT

    out = {}
    try:
        rate = diagnostics.fit_rate(trace)
        out["rate"] = rate.to_json()
    except InsufficientData as exc:
        print(f"error: InsufficientData: {exc}", file=sys.stderr)
        return EXIT_INPUT

    if args.problem:
        prob = load_problem(args.problem)
        if prob.kind == "two_sets":
            _, M = prob.payload
            trace.xs = [M.project(z) for z in trace.zs]
            try:
                out["angles"] = diagnostics.angles_from_trace(trace).to_json()
            except InsufficientData as exc:
                out["angles"] = {"error": str(exc)}
    if args.predict_alpha is not None:
        out["comparison"] = diagnostics.compare_predicted(rate, args.predict_alpha)

    text = json.dumps(out, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK


# Bundled benchmark problems: (name, scheme, acceptance check).
# Checks are (description, callable(trace, rate) -> bool).
def _bundled_checks():
    def rate_between(lo, hi):
        return lambda trace, rate: rate is not None and lo <= rate <= hi

    def stalled_at(dist, tol=1e-9):
        return lambda trace, rate: (
            trace.status == "MaxIters" and abs(trace.final_gap - dist) <= tol
        )

    def converged(trace, rate):
        return trace.status == CONVERGED

    return [
        ("two_lines_45deg", "exact", "rate 0.50 +/- 0.02", rate_between(0.48, 0.52)),
        ("two_lines_60deg", "exact", "rate 0.25 +/- 0.02", rate_between(0.23, 0.27)),
        ("two_lines_45deg", "inexact", "converges", converged),
        ("circle_line", "exact", "rate 0.25 +/- 0.05", rate_between(0.20, 0.30)),
        ("parallel_lines", "exact", "stalls at gap 1", stalled_at(1.0)),
        ("circle_system", "linconstr", "converges", converged),
        ("parabola_inclusion", "inclusion", "converges", converged),
        ("parabola_inclusion", "approximate", "converges", converged),
    ]


def bundled_problem_path(name):
    return resources.files("altproj").joinpath("problems", f"{name}.json")


def cmd_bench(args):
    rows = []
    failed = 0
    for name, scheme, desc, check in _bundled_checks():
        if args.filter and args.filter not in name and args.filter != scheme:
            continue
        with resources.as_file(bundled_problem_path(name)) as path:
            prob = load_problem(path)
        trace = run_problem(prob, scheme)
        summary = _summary(trace)
        ok = check(trace, summary["rate"])
        failed += 0 if ok else 1
        rows.append(
            {
                "problem": name,
                "scheme": scheme,
                "status": summary["status"],
                "iters": summary["iterations"],
                "rate": summary["rate"],
                "check": desc,
                "pass": ok,
            }
        )
    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        fmt = "{:<22} {:<12} {:<26} {:>6} {:>10}  {:<22} {}"
        print(fmt.format("problem", "scheme", "status", "iters", "rate", "check", "pass"))
        for r in rows:
            rate = "-" if r["rate"] is None else f"{r['rate']:.4f}"
            print(
                fmt.format(
                    r["problem"], r["scheme"], r["status"], r["iters"], rate,
                    r["check"], "ok" if r["pass"] else "FAIL",
                )
            )
    return EXIT_OK if failed == 0 else EXIT_NOT_CONVERGED


def build_parser():
    parser = argparse.ArgumentParser(prog="altproj", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run a solver on a problem file")
    p_solve.add_argument("--problem", required=True)
    p_solve.add_argument("--scheme", choices=SCHEMES, default=None)
    p_solve.add_argument("--tol", type=float, default=None)
    p_solve.add_argument("--max-iters", type=int, default=None)
    p_solve.add_argument("--eps", type=float, default=None)
    p_solve.add_argument("--trace", default=None, help="write trace CSV here")
    p_solve.add_argument("--summary", default=None, help="write summary JSON here")
    p_solve.set_defaults(func=cmd_solve)

    p_diag = sub.add_parser("diagnose", help="diagnostics from a trace CSV")
    p_diag.add_argument("--trace", required=True)
    p_diag.add_argument("--problem", default=None, help="problem file for angle context")
    p_diag.add_argument("--predict-alpha", type=float, default=None)
    p_diag.add_argument("--out", default=None)
    p_diag.set_defaults(func=cmd_diagnose)

    p_bench = sub.add_parser("bench", help="run the bundled problem suite")
    p_bench.add_argument("--filter", default=None)
    p_bench.add_argument("--json", action="store_true")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ProblemFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AltprojError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL


if __name__ == "__main__":
    sys.exit(main())
