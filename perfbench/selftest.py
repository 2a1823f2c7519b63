#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Feeds every check a right answer, which it must accept, and a wrong one,
which it must reject.  The answers are built from the generators' own data
(a known solution, perturbed where the answer should be wrong), so this runs
in a second without the package.
"""

from __future__ import annotations

import os
import sys
import tempfile
from types import SimpleNamespace

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402


def trace(points, gaps=(1.0, 0.5, 1e-12), status="Converged"):
    """A stand-in trace whose final iterate and other-set point are both `points[-1]`."""
    points = [np.asarray(p, dtype=float) for p in points]
    return SimpleNamespace(status=status, gaps=list(gaps), zs=points, xs=points, iterations=len(gaps) - 1)


def outcome(tr, extra=None):
    return workloads.Outcome(tr, extra=extra)


class SelfTest:
    def __init__(self):
        self.accepted = 0
        self.rejected = 0
        self.errors = []

    def right(self, label, fn, *args):
        try:
            fn(*args)
            self.accepted += 1
        except checks.CheckFailed as exc:
            self.errors.append(f"{label}: right answer rejected ({exc})")

    def wrong(self, label, fn, *args):
        try:
            fn(*args)
        except checks.CheckFailed:
            self.rejected += 1
            return
        self.errors.append(f"{label}: wrong answer accepted")


def generic(t):
    t.right("gaps", checks.gaps_nonincreasing, [3.0, 2.0, 2.0, 1.0])
    t.wrong("gaps", checks.gaps_nonincreasing, [3.0, 2.0, 2.5, 1.0])
    t.wrong("gaps with projection accuracy", checks.gaps_nonincreasing, [1e-8, 5e-9, 8e-9], 1.0, 2e-9)
    t.right("converged", checks.converged, "Converged", [1.0, 1e-11], 1e-10)
    t.wrong("converged status", checks.converged, "MaxIters", [1.0, 1e-11], 1e-10)
    t.wrong("converged gap", checks.converged, "Converged", [1.0, 1e-9], 1e-10)
    t.wrong("csv round trip", checks.csv_round_trip, [0.1, 0.2], [[1.0]], [0.1, np.nextafter(0.2, 1.0)], [[1.0]])
    t.wrong("csv round trip iterate", checks.csv_round_trip, [0.1], [[1.0]], [0.1], [[np.nextafter(1.0, 2.0)]])
    t.right("csv round trip", checks.csv_round_trip, [0.1, 0.2], [[1.0]], [0.1, 0.2], [[1.0]])
    specs = [
        ({"type": "box", "lower": [0, 0], "upper": [1, 1]}, [0.5, 1.0], [0.5, 1.1]),
        ({"type": "ball", "center": [0, 0], "radius": 1.0}, [0.6, 0.8], [0.8, 0.8]),
        ({"type": "halfspace", "normal": [0, 2], "offset": 1.0}, [3.0, 0.5], [0.0, 0.6]),
        ({"type": "sphere", "center": [0, 0], "radius": 1.0}, [0.6, 0.8], [0.6, 0.6]),
        ({"type": "affine_subspace", "anchor": [0, 1], "basis": [[1, 0]]}, [5.0, 1.0], [5.0, 1.1]),
        ({"type": "finite_point_set", "points": [[0, 0], [1, 1]]}, [1.0, 1.0], [1.0, 0.9]),
    ]
    for spec, inside, outside in specs:
        t.right(f"in_set {spec['type']}", checks.in_set, spec, inside, 1e-9)
        t.wrong(f"in_set {spec['type']}", checks.in_set, spec, outside, 1e-9)


def lowrank(t):
    w = workloads.LowRankCompletion()
    inst = w.inputs(7, None)[0]
    X = inst.X.reshape(-1)
    t.right("lowrank", w.check, inst, outcome(trace([X])))
    rng = np.random.default_rng(0)
    bump = 1e-3 * np.outer(rng.standard_normal(w.size), rng.standard_normal(w.size)).reshape(-1)
    t.wrong("lowrank rank 3", w.check, inst, outcome(trace([X + bump])))
    off = X.copy()
    off[np.flatnonzero(inst.mask.reshape(-1))[0]] += 1e-4
    t.wrong("lowrank observed entry", w.check, inst, outcome(trace([off])))
    t.wrong("lowrank other matrix", w.check, inst, outcome(trace([2.0 * X])))
    t.wrong("lowrank gap increase", w.check, inst, outcome(trace([X], gaps=(1.0, 2.0, 1e-12))))


def polyhedron_ball(t):
    w = workloads.PolyhedronBall()
    inst = w.inputs(7, None)[0]
    far = inst.center + 2.0 * inst.radius * (inst.z0 - inst.center) / np.linalg.norm(inst.z0 - inst.center)
    t.wrong("polyhedron_ball outside ball", w.check, inst, outcome(trace([far])))
    # The lens is thin, so the ball's center lies outside the polyhedron.
    t.wrong("polyhedron_ball outside polyhedron", w.check, inst, outcome(trace([inst.center])))


def poly_systems(t):
    w = workloads.PolySystems()
    systems, inclusions = w.inputs(7, None)
    s, inc = systems[0], inclusions[0]
    t.right("linconstr", w.check_linconstr, s, outcome(trace([s.x_star])))
    t.wrong("linconstr", w.check_linconstr, s, outcome(trace([s.x_star + 1e-3])))
    t.right("inclusion", w.check_inclusion, inc, outcome(trace([inc.x_star])))
    t.wrong("inclusion", w.check_inclusion, inc, outcome(trace([inc.x_star + 1e-3])))
    z = checks.poly_eval(*inc.F, inc.x_star)
    t.right("chart", w.check_chart, inc, outcome(trace([z]), extra=inc.x_star))
    t.wrong("chart off manifold", w.check_chart, inc, outcome(trace([z + 1e-6]), extra=inc.x_star))
    z0 = checks.poly_eval(*inc.F, inc.x0)
    t.wrong("chart off Q", w.check_chart, inc, outcome(trace([z0]), extra=inc.x0))


def small_sets(t, workdir):
    w = workloads.make("small_sets", os.path.dirname(HERE))
    slots = w.inputs(7, workdir)
    seen = set()
    for slot in slots:
        kind = slot.expect[0]
        if (kind, slot.scheme) in seen:
            continue
        seen.add((kind, slot.scheme))
        label = f"small_sets {os.path.basename(slot.path)}:{slot.scheme}"
        if kind == "lines" and slot.scheme != "inexact":
            _, cos_theta, point = slot.expect
            good = [1.0 * cos_theta ** (2 * k) for k in range(12)] + [1e-11]
            bad = [1.0 * 0.5 ** k for k in range(12)] + [1e-11]
            if abs(cos_theta**2 - 0.5) < 1e-3:
                bad = [1.0 * 0.4 ** k for k in range(12)] + [1e-11]
            ok = trace([point], gaps=good)
            rate = SimpleNamespace(gaps=good, zs=ok.zs)
            t.right(label, w.check, slot, outcome(ok, extra=(rate, cos_theta**2)))
            wrong = trace([point], gaps=bad)
            t.wrong(label + " rate", w.check, slot, outcome(wrong, extra=(SimpleNamespace(gaps=bad, zs=wrong.zs), cos_theta**2)))
        elif kind == "stall":
            sep = slot.expect[1]
            gaps = [sep] * 5
            ok = trace([np.zeros(2)], gaps=gaps, status="MaxIters")
            t.right(label, w.check, slot, outcome(ok, extra=(SimpleNamespace(gaps=gaps, zs=ok.zs), None)))
            bad = trace([np.zeros(2)], gaps=[sep, sep, 0.0], status="Converged")
            t.wrong(label + " converged", w.check, slot, outcome(bad, extra=(SimpleNamespace(gaps=bad.gaps, zs=bad.zs), None)))
        elif kind == "one_of":
            limit = slot.expect[1][0]
            ok = trace([limit])
            t.right(label, w.check, slot, outcome(ok, extra=(SimpleNamespace(gaps=ok.gaps, zs=ok.zs), None)))
            bad = trace([limit + 1e-4])
            t.wrong(label + " limit", w.check, slot, outcome(bad, extra=(SimpleNamespace(gaps=bad.gaps, zs=bad.zs), None)))
        elif kind == "point":
            ok = trace([slot.expect[1]])
            t.right(label, w.check, slot, outcome(ok, extra=(SimpleNamespace(gaps=ok.gaps, zs=ok.zs), None)))
            bad = trace([slot.expect[1] + 1e-4])
            t.wrong(label + " point", w.check, slot, outcome(bad, extra=(SimpleNamespace(gaps=bad.gaps, zs=bad.zs), None)))
        elif kind == "convex":
            _, Q, M = slot.expect
            inner = np.asarray(Q.get("center", Q.get("lower")), dtype=float) + 1e3
            bad = trace([inner])
            t.wrong(label + " outside", w.check, slot, outcome(bad, extra=(SimpleNamespace(gaps=bad.gaps, zs=bad.zs), None)))
        # every slot rejects a trace whose CSV round trip lost a bit
        tr = trace([np.ones(len(slot.problem["start"]))])
        back = SimpleNamespace(gaps=[tr.gaps[0], np.nextafter(tr.gaps[1], 1.0), tr.gaps[2]], zs=tr.zs)
        t.wrong(label + " csv", w.check, slot, outcome(tr, extra=(back, None)))


class MaxPivots(Exception):
    pass


class NonConvergence(Exception):
    pass


def failure_policy(t):
    """Only an op that names MaxPivots may raise it; every other exception is a wrong answer."""
    import run

    def raising(exc):
        def solve():
            raise exc("stand-in")
        return solve

    def ok():
        return outcome(trace([np.zeros(2)]))

    def accept(_):
        pass

    cases = [
        ("kept case raises MaxPivots", workloads.Op("kept", raising(MaxPivots), accept, "MaxPivots"), 1, True),
        ("kept case converges", workloads.Op("kept", ok, accept, "MaxPivots"), 0, True),
        ("kept case raises another error", workloads.Op("kept", raising(NonConvergence), accept, "MaxPivots"), 1, False),
        ("other op raises MaxPivots", workloads.Op("other", raising(MaxPivots), accept), 1, False),
        ("other op raises", workloads.Op("other", raising(ValueError), accept), 1, False),
    ]
    for label, op, failed, right in cases:
        stats = run.run_rounds([workloads.Op("plain", ok, accept), op], 0.0)
        counted = sum(stats.failed.values()) == failed and stats.attempted == 2
        if right and counted and not stats.wrong:
            t.accepted += 1
        elif not right and counted and stats.wrong:
            t.rejected += 1
        else:
            t.errors.append(f"failure policy, {label}: failed {dict(stats.failed)}, wrong {stats.wrong}")


def calibration(t):
    """Solve times are scaled by their round's speed; the kernel keeps to its share."""
    import calibrate
    import run

    errors = len(t.errors)
    stats = run.RoundStats(times=[[0.1, 0.3], [0.2, 0.2]], speeds=[1.0, 0.5], attempted=4)
    got = run.end_to_end(stats, [1.0], 50)
    want = {"solves_per_s": 4 / 0.6, "solve_ms_p50": 100.0, "solve_ms_tail": 100.0}
    for name, value in want.items():
        if abs(got[name][0] - value) > 1e-9 * value:
            t.errors.append(f"calibration: {name} read {got[name][0]}, expected {value}")
    for name in ("lowrank_completion", "polyhedron_ball", "poly_systems", "small_sets"):
        cal = calibrate.Calibrator(workloads.make(name, os.path.dirname(HERE)).calibration_mix)
        cal.between(0.05)
        share = cal.spent_s / cal.solve_s
        if not calibrate.SHARE <= share <= calibrate.SHARE + max(cal.units) / cal.solve_s:
            t.errors.append(f"calibration, {name}: kernel share {share:.3f}, expected {calibrate.SHARE}")
    if len(t.errors) == errors:
        t.accepted += 1


def main():
    t = SelfTest()
    generic(t)
    failure_policy(t)
    calibration(t)
    lowrank(t)
    polyhedron_ball(t)
    poly_systems(t)
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "results")) as workdir:
        small_sets(t, workdir)
    for line in t.errors:
        print("FAIL", line)
    print(f"{t.rejected} wrong answers rejected, {t.accepted} right answers accepted, {len(t.errors)} failures")
    return 1 if t.errors else 0


if __name__ == "__main__":
    sys.exit(main())
