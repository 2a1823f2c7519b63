"""Command-line entry point.

    altproj solve    --problem file.json [--scheme ...] [--trace out.csv] ...
    altproj diagnose --trace out.csv [--problem file.json] [--out out.json]
    altproj bench    [--filter substr] [--json]

Problem files carry {"kind": ..., payload, "start": [...], "options": {...}}
with the payload schemas owned by the sets/linconstr/inclusion modules;
linalg.read_fields reads every object in them.
diagnose prints the fitted rate and, for a two_sets problem, the angles and
the rate c^2 predicted at the last iterate (diagnostics.predicted_rate).
Exit codes: 0 Converged, 1 input error, 2 MaxIters/Diverged,
3 LinearizationInfeasible/RankDeficient/LeftChart.
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
from .alternating import CONVERGED, STRUCTURAL, IterationTrace, SolveOptions
from .errors import AltprojError, FieldError, InsufficientData, RankDrop
from .inclusion import ChartApproximateProjector, InclusionProblem, ManifoldChart
from .linalg import as_vector, integer, number, numbers, read_fields, string
from .linconstr import ConstraintSystem
from .sets import set_from_json

SCHEMES = ("exact", "inexact", "approximate", "linconstr", "inclusion")
# per kind: its schemes, the default first
_COMPATIBLE = {
    "two_sets": ("exact", "inexact", "approximate"),
    "constraint_system": ("linconstr",),
    "inclusion": ("inclusion", "approximate"),
}

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_CONVERGED = 2
EXIT_STRUCTURAL = 3


@dataclass
class ProblemFile:
    kind: str
    payload: object          # (Q, M) | ConstraintSystem | InclusionProblem
    start: np.ndarray
    options: SolveOptions
    chart: ManifoldChart | None = None   # of an inclusion problem with U_lower/U_upper
    epsilon: float = 0.0     # of the inexact scheme


def _epsilon(eps, source):
    if not 0 <= eps < math.inf:
        raise ValueError(f"{source}: epsilon must be finite and nonnegative, got {eps}")
    return eps


def _options(obj, where):
    """(SolveOptions, epsilon) from an options block; a field left out takes its default."""
    opts = read_fields(obj, _OPTIONS, "options", where, optional=_OPTIONS)
    epsilon = _epsilon(opts.pop("epsilon", 0.0), "bad options block")
    return SolveOptions(**opts), epsilon


_OPTIONS = {"gap_tol": number, "max_iters": integer, "epsilon": number}
_FIELDS = {  # per kind, the fields of a problem file; only "options" may be left out
    "two_sets": {"Q": set_from_json, "M": set_from_json, "start": numbers, "options": _options},
    "constraint_system": {"system": ConstraintSystem.from_json, "start": numbers, "options": _options},
    "inclusion": {"problem": InclusionProblem.from_json, "start": numbers, "options": _options},
}
_CHART = {"U_lower": numbers, "U_upper": numbers}  # an inclusion problem's: both, or neither


def load_problem(path) -> ProblemFile:
    """The problem in a file; bad input raises ValueError, a FieldError naming the field."""
    with open(path, "rb") as fh:
        text = fh.read()
    try:
        obj = json.loads(text)
    except RecursionError:  # json's parser recurses once per nesting level
        raise ValueError(f"{path}: JSON nested too deeply to read") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None
    kind = read_fields(obj, {"kind": string}, "", "problem file")["kind"]
    if kind not in _FIELDS:
        raise FieldError(f"unknown kind '{kind}'; expected one of: {', '.join(_FIELDS)}")
    f = read_fields(obj, _FIELDS[kind], "", "problem file", optional=("options",))
    options, epsilon = f["options"] if "options" in f else (SolveOptions(), 0.0)
    chart = None
    if kind == "two_sets":
        payload = Q, M = f["Q"], f["M"]
        if M.ambient_dim != Q.ambient_dim:
            raise FieldError(f"field 'M' lives in R^{M.ambient_dim}, field 'Q' in R^{Q.ambient_dim}")
        dim = Q.ambient_dim
    elif kind == "constraint_system":
        payload = f["system"]
        dim = payload.ambient_dim
    else:
        payload = f["problem"]
        dim = payload.F.input_dim
        if _CHART.keys() & obj.keys():
            bounds = read_fields(obj, _CHART, "", "problem file")
            lower, upper = (as_vector(v, dim, f"field '{k}'") for k, v in bounds.items())
            chart = ManifoldChart(payload.F, lower, upper)
    start = as_vector(f["start"], dim, "field 'start'")
    return ProblemFile(kind, payload, start, options, chart, epsilon)


def run_problem(prob: ProblemFile, scheme=None, seed=None) -> IterationTrace:
    scheme = scheme or _COMPATIBLE[prob.kind][0]
    if scheme not in _COMPATIBLE[prob.kind]:
        raise ValueError(f"scheme '{scheme}' is not valid for kind '{prob.kind}'")
    if prob.kind == "two_sets":
        Q, M = prob.payload
        if scheme == "exact":
            return alternating.run_exact(Q, M, prob.start, prob.options)
        if scheme == "inexact":
            seed = _env_seed() if seed is None else seed
            return alternating.run_inexact(Q, M, prob.start, prob.epsilon, seed, prob.options)
        # approximate on two sets: exact projections onto M keep the iterates
        # on M, so it is exact AP with Q and M exchanged, columns named back.
        trace = alternating.run_exact(M, Q, prob.start, prob.options)
        trace.dist_q, trace.dist_m = trace.dist_m, trace.dist_q
        return trace
    if prob.kind == "constraint_system":
        return linconstr.solve_constraint_system(prob.payload, prob.start, prob.options)
    # inclusion kind
    if scheme == "inclusion":
        return inclusion.solve_inclusion(prob.payload, prob.start, prob.options)
    if prob.chart is None:
        raise ValueError("approximate scheme on an inclusion problem needs U_lower/U_upper")
    projector = ChartApproximateProjector(prob.chart, prob.start)
    return alternating.run_approximate(projector, prob.payload.Q, projector.fx, prob.options)


def _env_seed():
    """The inexact scheme's direction seed: ALTPROJ_SEED, 42 when it is unset."""
    raw = os.environ.get("ALTPROJ_SEED", "42")
    if not raw.isdecimal():  # digits only, so no sign
        raise ValueError(f"ALTPROJ_SEED must be an integer >= 0, got {raw!r}")
    return int(raw)


def _status_exit(status):
    if status == CONVERGED:
        return EXIT_OK
    if status in {exc.__name__ for exc in STRUCTURAL}:
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
    flags = {"gap_tol": args.tol, "max_iters": args.max_iters}
    prob.options = replace(
        prob.options, **{k: v for k, v in flags.items() if v is not None}
    )
    if args.eps is not None:
        if (args.scheme or _COMPATIBLE[prob.kind][0]) != "inexact":
            raise ValueError("--eps applies only to --scheme inexact")
        prob.epsilon = _epsilon(args.eps, "bad option")
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
    with open(args.trace, "rb") as fh:
        data = fh.read()
    try:
        trace = IterationTrace.from_csv(data.decode())
    except UnicodeDecodeError as exc:
        raise ValueError(f"{args.trace}: not valid UTF-8: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{args.trace}: {exc}") from None

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
            Q, M = prob.payload
            if len(trace.zs[0]) != M.ambient_dim:
                raise ValueError(f"trace points have dimension {len(trace.zs[0])},"
                                 f" the problem's sets have dimension {M.ambient_dim}")
            trace.xs = [M.project(z) for z in trace.zs]
            try:
                out["angles"] = diagnostics.angles_from_trace(trace).to_json()
            except InsufficientData as exc:
                out["angles"] = {"error": str(exc)}
            try:  # at the last iterate, which the file holds without loss
                out["predicted"] = diagnostics.predicted_rate(Q, M, trace.zs[-1])
            except (ValueError, InsufficientData, RankDrop) as exc:
                out["predicted"] = {"error": str(exc)}
        else:
            need = f"a two_sets problem, got kind '{prob.kind}'"
            out["angles"] = {"error": f"angles need {need}"}
            out["predicted"] = {"error": f"predicted rate needs {need}"}

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
    p_diag.add_argument("--problem", default=None, help="problem file for the angles and predicted rate")
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
    except (OSError, ValueError) as exc:  # bad input: an unreadable file, a FieldError, ...
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AltprojError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL


if __name__ == "__main__":
    sys.exit(main())
