#!/usr/bin/env python3
"""Run one workload of the altproj benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller in one process runs solves back to back (a closed loop) in
whole rounds of the workload's ops until S seconds have passed, checks every
answer apart from the package, and prints one JSON object as the last line
of standard output.  With --trace 0 it reports the end-to-end metrics; with
--trace 1 it runs untraced rounds for a third of the time, then wraps the
package's public functions and reports per-layer metrics and the tracing
overhead.  The package is imported from the checkout's src/, never from an
installed copy.
"""

from __future__ import annotations

import os

# Set before numpy loads: BLAS kernels here are at most 900x450, where a
# second thread only adds scheduling jitter to a single-caller loop.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

SETUP_REPEATS = 5        # set-ups per run: this process plus four child processes
SETUP_UNITS = 40         # calibration units before and after each set-up
TRACE_WARM_SHARE = 1 / 3  # share of a traced run spent on untraced rounds

SET_TYPES = {
    "Box": "box", "Ball": "ball", "Sphere": "sphere", "AffineSubspace": "affine_subspace",
    "Hyperplane": "hyperplane", "Halfspace": "halfspace", "FinitePointSet": "finite_point_set",
    "FixedRankMatrices": "fixed_rank_matrices", "Polyhedron": "polyhedron",
}
CSV_SPANS = ("alternating.IterationTrace.to_csv", "alternating.IterationTrace.from_csv")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="time one set-up and print it (used internally)")
    return p.parse_args(argv)


def import_package():
    sys.path.insert(0, SRC)
    import altproj
    import altproj.cli  # noqa: F401
    import altproj.errors  # noqa: F401

    if os.path.dirname(os.path.abspath(altproj.__file__)) != os.path.join(SRC, "altproj"):
        raise SystemExit(f"error: altproj was imported from {altproj.__file__}, not {SRC}")
    return altproj


def setup(workload, seed, workdir):
    """Generate inputs (untimed), import, then time constructors, loaders and the warm-up.

    Returns the package, the ops of one round and the set-up time at the
    reference speed, from calibration units run just before and just after.
    """
    from calibrate import Calibrator, speed

    inputs = workload.inputs(seed, workdir)
    ap = import_package()
    cal = Calibrator(workload.calibration_mix)
    before = cal.sample(SETUP_UNITS)
    t0 = time.perf_counter()
    ops = workload.build(ap, inputs)
    workload.warmup(ap)
    raw = time.perf_counter() - t0
    return ap, ops, raw * speed(cal.kernel, before + cal.sample(SETUP_UNITS))


def child_setups(args):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    out = []
    for _ in range(SETUP_REPEATS - 1):
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=False)
        if res.returncode != 0:
            sys.stderr.write(res.stderr)
            raise SystemExit(f"error: set-up child exited with {res.returncode}")
        out.append(float(res.stdout.strip().splitlines()[-1]))
    return out


@dataclass
class RoundStats:
    times: list = field(default_factory=list)  # per round: seconds per attempted solve, in op order
    speeds: list = field(default_factory=list)  # per round: machine speed from its calibration units
    attempted: int = 0
    failed: Counter = field(default_factory=Counter)  # exception name -> count
    rounds: int = 0
    regular_s: float = 0.0  # time of the ops other than the kept fault case
    iterations: int = 0  # of those ops
    csv_bytes: int = 0  # of those ops
    wrong: list = field(default_factory=list)


def run_rounds(ops, seconds, cal=None):
    """Closed loop: whole rounds of ops back to back until `seconds` have passed.

    With a calibrator, its units run after each solve (outside the solve's
    time) and each round records the machine speed they measured.

    An op may end in an exception only if it names that exception in
    `may_raise`; then the solve counts as failed.  Any other exception is a
    failed solve and a wrong answer.
    """
    import checks
    from calibrate import speed

    stats = RoundStats()
    clock = time.perf_counter
    deadline = clock() + seconds
    while True:
        outcomes, times = [], []
        u0 = len(cal.units) if cal else 0
        for op in ops:
            t0 = clock()
            try:
                out = op.solve()
            except Exception as exc:  # noqa: BLE001 - judged below, outside the timed loop
                out = exc
            dt = clock() - t0
            times.append(dt)
            outcomes.append(out)
            if cal:
                cal.between(dt)
        stats.times.append(times)
        if cal:
            stats.speeds.append(speed(cal.kernel, cal.units[u0:] or cal.units[-1:]))
        stats.rounds += 1
        stats.attempted += len(ops)
        for op, out, dt in zip(ops, outcomes, times):
            if op.may_raise is None:
                stats.regular_s += dt
            if isinstance(out, Exception):
                name = type(out).__name__
                stats.failed[name] += 1
                if name != op.may_raise:
                    stats.wrong.append(f"{op.label}: raised {name}: {out}")
                continue
            if op.may_raise is None:
                stats.iterations += out.trace.iterations
                stats.csv_bytes += out.csv_bytes
            try:
                op.check(out)
            except checks.CheckFailed as exc:
                stats.wrong.append(f"{op.label}: {exc}")
        del outcomes
        if clock() >= deadline:
            return stats


def timings(seconds, tail_pct):
    """solves_per_s, solve_ms_p50 and solve_ms_tail of a (rounds, ops) array of solve times."""
    return {
        "solves_per_s": (seconds.size / float(seconds.sum()), "1/s"),
        "solve_ms_p50": (float(np.median(seconds)) * 1e3, "ms"),
        "solve_ms_tail": (float(np.percentile(seconds, tail_pct)) * 1e3, "ms"),
    }


def scaled_round_s(stats):
    """Mean summed solve time of a round, at the reference speed."""
    return float((np.asarray(stats.times) * np.asarray(stats.speeds)[:, None]).sum()) / stats.rounds


def end_to_end(stats, setups, tail_pct):
    """Solve times at the reference speed: each round's times times that round's speed."""
    scaled = np.asarray(stats.times) * np.asarray(stats.speeds)[:, None]
    return {
        **timings(scaled, tail_pct),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }


def per_layer(tr, plain, traced, n_regular, n_fault):
    """Per-layer metrics from the traced rounds; per-iteration time from the untraced ones.

    The kept fault case runs in its own sink: it is left out of every other
    metric and reported by the `qp.fault_case_*` metrics alone.
    """
    main, fault = tr.main, tr.sinks["fault_case"]
    it = max(traced.iterations, 1)
    qp = "qp.solve_projection_qp"
    spd = "linalg.solve_spd"
    fault_solves = max(n_fault * traced.rounds, 1)
    m = {
        "alternating.iters_per_solve": (traced.iterations / (n_regular * traced.rounds), "count"),
        "alternating.us_per_iter": (plain.regular_s * 1e6 / max(plain.iterations, 1), "us"),
        "alternating.self_us_per_iter": (main.self_us("alternating", exclude=CSV_SPANS) / it, "us"),
        "alternating.trace_csv_us": (main.mean_us(CSV_SPANS[0]), "us"),
        "alternating.trace_csv_bytes_per_iter": (traced.csv_bytes / it, "B"),
        "sets.project_calls_per_iter": (sum(main.calls(f"sets.{c}.project") for c in SET_TYPES) / it, "count"),
    }
    for cls, key in SET_TYPES.items():
        m[f"sets.{key}.project_us"] = (main.mean_us(f"sets.{cls}.project"), "us")
    m.update({
        "qp.solves_per_iter": (main.calls(qp) / it, "count"),
        "qp.us_per_solve": (main.mean_us(qp), "us"),
        "qp.spd_solves_per_qp": (main.child_calls(qp, spd) / max(main.calls(qp), 1), "count"),
        "qp.max_pivots_raised": (traced.failed["MaxPivots"] / traced.rounds, "count"),
        "qp.fault_case_qp_ms": (fault.total_us(qp) / 1e3 / fault_solves, "ms"),
        "qp.fault_case_spd_solves": (fault.child_calls(qp, spd) / fault_solves, "count"),
        "linalg.svd_calls_per_iter": (main.calls("linalg.svd") / it, "count"),
        "linalg.svd_us": (main.mean_us("linalg.svd"), "us"),
        "linalg.solve_spd_us": (main.mean_us(spd), "us"),
        "linalg.least_squares_calls_per_iter": (main.calls("linalg.least_squares") / it, "count"),
        "linalg.least_squares_us": (main.mean_us("linalg.least_squares"), "us"),
        "linalg.as_vector_calls_per_iter": (main.calls("linalg.as_vector") / it, "count"),
        "linalg.as_vector_us_per_iter": (main.total_us("linalg.as_vector") / it, "us"),
        "polymap.eval_calls_per_iter": (main.calls("polymap.PolyMap.eval") / it, "count"),
        "polymap.eval_us": (main.mean_us("polymap.PolyMap.eval"), "us"),
        "polymap.jacobian_calls_per_iter": (main.calls("polymap.PolyMap.jacobian") / it, "count"),
        "polymap.jacobian_us": (main.mean_us("polymap.PolyMap.jacobian"), "us"),
        "linconstr.self_us_per_iter": (main.self_us("linconstr") / it, "us"),
        "inclusion.self_us_per_iter": (main.self_us("inclusion") / it, "us"),
        "diagnostics.fit_rate_us": (main.mean_us("diagnostics.fit_rate"), "us"),
        "diagnostics.angles_us": (main.mean_us("diagnostics.angles_from_trace"), "us"),
        "cli.load_problem_us": (main.mean_us("cli.load_problem"), "us"),
        "tracing.overhead_pct": (100.0 * (scaled_round_s(traced) / scaled_round_s(plain) - 1.0), "%"),
    })
    return m


def traced_run(ap, ops, seconds, mix):
    from calibrate import Calibrator
    from tracer import Sink, Tracer

    import workloads

    cal = Calibrator(mix)  # the kernel calls numpy only, so the tracer never sees it
    plain = run_rounds(ops, seconds * TRACE_WARM_SHARE, cal)
    tr = Tracer()
    tr.sinks["fault_case"] = Sink()
    wrapped = []
    for op in ops:
        solve = tr.wrap("bench.solve", op.solve)
        if op.may_raise is not None:
            solve = tr.isolate("fault_case", solve)
        wrapped.append(workloads.Op(op.label, solve, op.check, op.may_raise))
    tr.install(ap)
    try:
        traced = run_rounds(wrapped, seconds * (1 - TRACE_WARM_SHARE), cal)
    finally:
        tr.uninstall()
    return plain, traced, tr


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, HERE)
    import workloads

    workload = workloads.make(args.workload, ROOT)
    if not os.path.isfile(os.path.join(SRC, "altproj", "__init__.py")):
        raise SystemExit(f"error: no altproj package under {SRC}; run from a full checkout")
    os.makedirs(RESULTS, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as workdir:
        if args.setup_only:
            print(repr(setup(workload, args.seed, workdir)[2]))
            return 0
        setups = [] if args.trace else child_setups(args)
        ap, ops, own = setup(workload, args.seed, workdir)
        setups.append(own)
        if args.trace:
            plain, stats, tr = traced_run(ap, ops, args.seconds, workload.calibration_mix)
            n_fault = sum(op.may_raise is not None for op in ops)
            metrics = per_layer(tr, plain, stats, len(ops) - n_fault, n_fault)
            attempted = plain.attempted + stats.attempted
            failed = sum(plain.failed.values()) + sum(stats.failed.values())
            wrong = plain.wrong + stats.wrong
            spans = dict(tr.to_json(), rounds=stats.rounds, iterations=stats.iterations)
            with open(os.path.join(RESULTS, f"spans-{args.workload}-seed{args.seed}.json"), "w") as fh:
                json.dump(spans, fh, indent=1)
        else:
            from calibrate import Calibrator

            stats = run_rounds(ops, args.seconds, Calibrator(workload.calibration_mix))
            metrics = end_to_end(stats, setups, workload.tail_pct)
            attempted, failed, wrong = stats.attempted, sum(stats.failed.values()), stats.wrong
            raw = timings(np.asarray(stats.times), workload.tail_pct)
            print("  unscaled wall time: " + ", ".join(f"{k} {v:.6g} {u}" for k, (v, u) in raw.items())
                  + f"; machine speed {statistics.median(stats.speeds):.3f} of reference (median round)",
                  file=sys.stderr)

    for line in wrong[:20]:
        print(f"wrong answer: {line}", file=sys.stderr)
    print(f"{args.workload}: {attempted} solves in {stats.rounds} rounds, {failed} failed "
          f"{dict(stats.failed)}, {len(wrong)} wrong", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}", file=sys.stderr)
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    with open(os.path.join(RESULTS, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(dict(result, ops=[op.label for op in ops], round_ms=(np.asarray(stats.times) * 1e3).tolist(),
                       round_speed=stats.speeds), fh)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
