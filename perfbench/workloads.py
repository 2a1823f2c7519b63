"""The four workloads: seeded inputs, the package calls that solve them, checks.

Each workload draws a fixed pool of instances from CANON_SEED and moves it by
a symmetry drawn from --seed: a rotation or signed permutation of the
coordinates, a translation, and a reordering of the round.  The symmetry
changes every number the package receives, but not the geometry that sets
the iteration counts, which vary by a factor of three or more between
independent draws.  Two seeds therefore time the same amount of work,
and the spread between runs shows the code and the machine rather than the
luck of the draw.

``inputs(seed, workdir)`` uses numpy only.  ``build(ap, inputs)`` calls the
package's constructors and loaders and returns the ops of one round; it is
timed as set-up.  Every op calls the package through module attributes at
call time, so that a tracer that rebinds them sees the calls.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

import checks

CANON_SEED = 1811
FAILING_INSTANCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "maxpivots_10x30.json")
INEXACT_SEED = 42  # direction seed of the eps-corrupted projector in small_sets


@dataclass
class Outcome:
    trace: object
    csv_bytes: int = 0
    extra: object = None


@dataclass
class Op:
    label: str
    solve: Callable[[], Outcome]
    check: Callable[[Outcome], None]
    may_raise: str | None = None  # the one exception this op may end in, counted as failed


def _rng(seed, *key):
    return np.random.default_rng([int(seed), *key])


def _rotation(rng, n):
    """Haar-distributed orthogonal matrix."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _exact(ap, Q, M, z0, opts):
    return Outcome(ap.run_exact(Q, M, z0, opts))


# ====================================================== lowrank_completion


@dataclass
class LowRankInstance:
    X: np.ndarray
    mask: np.ndarray
    anchor: np.ndarray
    basis: np.ndarray


class LowRankCompletion:
    """Rank-2 completion of 30x30 matrices from half their entries.

    Lewis & Malick's test case: exact projections between the rank-2
    matrices and the affine set of matrices that agree on the observed
    entries.  The seed applies signed row and column permutations.
    """

    size, rank, observed, pool = 30, 2, 450, 8
    gap_tol, max_iters = 1e-9, 3000
    tail_pct = 80
    calibration_mix = {"dense": 2, "numpy_small": 1}

    def inputs(self, seed, workdir):
        canon = _rng(CANON_SEED, 1)
        rng = _rng(seed, 1)
        n, out = self.size, []
        for _ in range(self.pool):
            X = canon.standard_normal((n, self.rank)) @ canon.standard_normal((self.rank, n))
            mask = np.zeros(n * n, dtype=bool)
            mask[canon.choice(n * n, self.observed, replace=False)] = True
            mask = mask.reshape(n, n)
            pr, pc = rng.permutation(n), rng.permutation(n)
            sr, sc = rng.choice([-1.0, 1.0], n), rng.choice([-1.0, 1.0], n)
            X = (sr[:, None] * X[pr])[:, pc] * sc[None, :]
            mask = mask[pr][:, pc]
            flat = mask.reshape(-1)
            anchor = np.where(flat, X.reshape(-1), 0.0)
            basis = np.eye(n * n)[~flat]
            out.append(LowRankInstance(X, mask, anchor, basis))
        return [out[i] for i in rng.permutation(self.pool)]

    def build(self, ap, insts):
        opts = ap.SolveOptions(gap_tol=self.gap_tol, max_iters=self.max_iters)
        M = ap.FixedRankMatrices(self.size, self.size, self.rank)
        ops = []
        for i, inst in enumerate(insts):
            Q = ap.AffineSubspace(inst.anchor, inst.basis)
            ops.append(
                Op(f"lowrank[{i}]", partial(_exact, ap, Q, M, inst.anchor, opts), partial(self.check, inst))
            )
        return ops

    def check(self, inst, out):
        tr = out.trace
        checks.converged(tr.status, tr.gaps, self.gap_tol)
        checks.gaps_nonincreasing(tr.gaps, scale=float(np.linalg.norm(inst.X)))
        checks.lowrank_solution(tr.xs[-1], inst.X, inst.mask, self.rank)

    def warmup(self, ap):
        n, r = 12, 2
        rng = _rng(CANON_SEED, 11)
        X = rng.standard_normal((n, r)) @ rng.standard_normal((r, n))
        flat = np.zeros(n * n, dtype=bool)
        flat[rng.choice(n * n, n * n * 2 // 3, replace=False)] = True
        anchor = np.where(flat, X.reshape(-1), 0.0)
        Q = ap.AffineSubspace(anchor, np.eye(n * n)[~flat])
        M = ap.FixedRankMatrices(n, n, r)
        return _exact(ap, Q, M, anchor, ap.SolveOptions(gap_tol=1e-9, max_iters=3000))


# ========================================================= polyhedron_ball


@dataclass
class PolyBallInstance:
    A: np.ndarray
    b: np.ndarray
    center: np.ndarray
    radius: float
    z0: np.ndarray


def _dome_lens(rng, n, m, k, depth=0.01, spread=0.3):
    """A ball overlapping by `depth` a dome of k nearly coplanar facets.

    The k facet normals lie within `spread` of a common axis u, so near the
    contact several rows are close to active and each projection is a QP
    with a few violated rows.  The overlap is thin, so the sets meet at a
    small angle and the run takes tens to hundreds of iterations.  The
    other m - k rows are far away and never active.
    """
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    G = rng.standard_normal((m, n))
    G -= np.outer(G @ u, u)
    A = G.copy()
    A[:k] = u + spread * G[:k]
    A /= np.linalg.norm(A, axis=1, keepdims=True)
    b = np.ones(m)
    b[k:] = rng.uniform(1.0, 2.0, m - k)
    radius = 1.0
    center = u * (1.0 / np.max(A[:k] @ u) + radius - depth)
    d = rng.standard_normal(n)
    z0 = center + 2.0 * d / np.linalg.norm(d)
    return PolyBallInstance(A, b, center, radius, z0)


def _moved(rng, inst):
    """Rotate and translate an instance.

    The rows keep their order: the active-set QP takes its pivots in row
    order, so reordering the rows changed the pivots per round by up to 8%
    from seed to seed.
    """
    n = inst.A.shape[1]
    O = _rotation(rng, n)
    t = rng.standard_normal(n)
    A = inst.A @ O.T
    return PolyBallInstance(A, inst.b + A @ t, O @ inst.center + t, inst.radius, O @ inst.z0 + t)


class PolyhedronBall:
    """Exact projections between a ball and a polyhedron that meet in a thin lens.

    Ten lens instances per round (n=10 with m = 10, 20, 30, 40 twice each,
    and n=20, m=100 twice) plus one fixed instance, stored under data/, on
    which the active-set QP raises MaxPivots.
    """

    shapes = ((10, 10), (10, 10), (10, 20), (10, 20), (10, 30), (10, 30),
              (10, 40), (10, 40), (20, 100), (20, 100))
    # The active-set QP accepts rows violated by up to its FEAS_TOL = 1e-9,
    # so polyhedron projections are exact only to that level: stop ten times
    # above it, and allow two such errors per cycle in the gap check.
    gap_tol, max_iters = 1e-8, 3000
    projection_accuracy = 2e-9
    tail_pct = 85
    calibration_mix = {"python": 3, "numpy_small": 1}

    def inputs(self, seed, workdir):
        canon = _rng(CANON_SEED, 2)
        rng = _rng(seed, 2)
        insts = [_moved(rng, _dome_lens(canon, n, m, k=n)) for n, m in self.shapes]
        insts = [insts[i] for i in rng.permutation(len(insts))]
        return insts + [self.failing_instance()]

    @staticmethod
    def failing_instance():
        """Fixed input, independent of --seed, on which the nearest-point QP hits its pivot cap.

        Stored as literal data (see its "about" field), so that no rounding in
        drawing it decides whether it fails.
        """
        with open(FAILING_INSTANCE) as fh:
            d = json.load(fh)
        return PolyBallInstance(np.array(d["A"]), np.array(d["b"]), np.array(d["center"]),
                                float(d["radius"]), np.array(d["z0"]))

    def build(self, ap, insts):
        opts = ap.SolveOptions(gap_tol=self.gap_tol, max_iters=self.max_iters)
        ops = []
        for i, inst in enumerate(insts):
            B = ap.Ball(inst.center, inst.radius)
            P = ap.Polyhedron(inst.A, inst.b)
            n, m = inst.A.shape[1], inst.A.shape[0]
            ops.append(
                Op(f"poly[{i}] n={n} m={m}", partial(_exact, ap, B, P, inst.z0, opts), partial(self.check, inst))
            )
        # The last op is the fixed instance: MaxPivots is the one failure allowed, and only there.
        ops[-1].label += " (kept MaxPivots case)"
        ops[-1].may_raise = "MaxPivots"
        return ops

    def check(self, inst, out):
        tr = out.trace
        checks.converged(tr.status, tr.gaps, self.gap_tol)
        checks.gaps_nonincreasing(tr.gaps, accuracy=self.projection_accuracy)
        z, x = tr.zs[-1], tr.xs[-1]
        checks.in_ball(z, inst.center, inst.radius, 1e-9)
        checks.in_polyhedron(x, inst.A, inst.b, 1e-8)
        checks.in_ball(x, inst.center, inst.radius, self.gap_tol + 1e-9)
        # z is within gap_tol of x, so each row may exceed b by |row| * gap_tol
        row = float(np.max(np.linalg.norm(inst.A, axis=1)))
        checks.in_polyhedron(z, inst.A, inst.b, row * self.gap_tol + 1e-8)

    def warmup(self, ap):
        inst = _dome_lens(_rng(CANON_SEED, 12), 4, 8, k=4)
        B = ap.Ball(inst.center, inst.radius)
        P = ap.Polyhedron(inst.A, inst.b)
        return _exact(ap, B, P, inst.z0, ap.SolveOptions(gap_tol=1e-9, max_iters=3000))


# ============================================================ poly_systems


def _random_block(rng, n, rows, terms=20, max_degree=3, scale=0.3):
    """Raw polynomial block (coeffs (rows, T), exponents (rows, T, n))."""
    coeffs = rng.standard_normal((rows, terms)) * scale
    exps = np.zeros((rows, terms, n), dtype=np.int64)
    for j in range(rows):
        for t in range(terms):
            for _ in range(rng.integers(1, max_degree + 1)):
                exps[j, t, rng.integers(n)] += 1
    return coeffs, exps


def _with_linear_part(coeffs, exps, n):
    """Append one unit linear term x_(j mod n) to row j (keeps F one-to-one)."""
    rows = coeffs.shape[0]
    lin = np.zeros((rows, 1, n), dtype=np.int64)
    lin[np.arange(rows), 0, np.arange(rows) % n] = 1
    return np.concatenate([coeffs, np.ones((rows, 1))], axis=1), np.concatenate([exps, lin], axis=1)


def _orthonormal_rows(rng, n, k):
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return q.T


class _SignedPerm:
    """y[perm[i]] = sign[i] * x[i]: a coordinate symmetry of polynomial problems."""

    def __init__(self, rng, n):
        self.perm = rng.permutation(n)
        self.sign = rng.choice([-1.0, 1.0], n)

    def vec(self, x):
        y = np.empty_like(x)
        y[self.perm] = self.sign * x
        return y

    def rows(self, B):
        Y = np.empty_like(B)
        Y[:, self.perm] = self.sign * B
        return Y

    def box(self, lo, hi):
        a, b = self.vec(lo), self.vec(hi)
        return np.minimum(a, b), np.maximum(a, b)

    def poly_inputs(self, block):
        """Substitute x = P^T y into every monomial of a raw block."""
        coeffs, exps, const = block
        flip = np.prod(np.where(self.sign < 0, -1.0, 1.0) ** exps, axis=2)
        new = np.empty_like(exps)
        new[..., self.perm] = exps
        return coeffs * flip, new, const

    def poly_outputs(self, block):
        coeffs, exps, const = block
        c, e, k = np.empty_like(coeffs), np.empty_like(exps), np.empty_like(const)
        c[self.perm] = self.sign[:, None] * coeffs
        e[self.perm] = exps
        k[self.perm] = self.sign * const
        return c, e, k


@dataclass
class ConstraintInstance:
    G: tuple
    H: tuple
    Q: tuple  # (anchor, orthonormal basis rows)
    x0: np.ndarray
    x_star: np.ndarray  # a feasible point the generator built the system around


@dataclass
class InclusionInstance:
    F: tuple
    Q: tuple
    x0: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    x_star: np.ndarray  # F(x_star) lies in Q


class PolySystems:
    """10-D polynomial problems through linconstr, Gauss-Newton and the chart.

    Six constraint systems (two equalities H = 0 and three inequalities
    G <= 0, one active, 20 monomials of degree <= 3 per output, Q a 7-D
    affine set) and four inclusions F(x) in Q (F: R^10 -> R^12, 21 monomials
    per output, Q a 5-D affine set), each inclusion solved by both
    solve_inclusion and run_approximate with a ChartApproximateProjector.
    The seed applies signed permutations of the variables and outputs.
    """

    n, systems, inclusions = 10, 6, 4
    gap_tol, max_iters = 1e-9, 500
    check_tol = 1e-7
    tail_pct = 75
    calibration_mix = {"python": 3, "numpy_small": 1}

    def inputs(self, seed, workdir):
        canon = _rng(CANON_SEED, 3)
        rng = _rng(seed, 3)
        n = self.n
        systems, inclusions = [], []
        for _ in range(self.systems):
            xs = canon.uniform(-1.0, 1.0, n)
            H = _random_block(canon, n, 2)
            G = _random_block(canon, n, 3)
            H = (*H, -checks.poly_eval(*H, np.zeros(2), xs))
            G = (*G, -checks.poly_eval(*G, np.zeros(3), xs) - np.array([0.0, 0.5, 0.5]))
            Q = (xs, _orthonormal_rows(canon, n, 7))
            x0 = xs + 0.1 * canon.standard_normal(n)
            s = _SignedPerm(rng, n)
            systems.append(ConstraintInstance(
                s.poly_inputs(G), s.poly_inputs(H), (s.vec(Q[0]), s.rows(Q[1])), s.vec(x0), s.vec(xs)))
        for _ in range(self.inclusions):
            xs = canon.uniform(-1.0, 1.0, n)
            F = (*_with_linear_part(*_random_block(canon, n, 12), n), np.zeros(12))
            Q = (checks.poly_eval(*F, xs), _orthonormal_rows(canon, 12, 5))
            x0 = xs + 0.1 * canon.standard_normal(n)
            s, o = _SignedPerm(rng, n), _SignedPerm(rng, 12)
            F = o.poly_outputs(s.poly_inputs(F))
            inclusions.append(InclusionInstance(
                F, (o.vec(Q[0]), o.rows(Q[1])), s.vec(x0), *s.box(xs - 2.0, xs + 2.0), s.vec(xs)))
        return systems, inclusions

    @staticmethod
    def polymap(ap, block, n):
        coeffs, exps, const = block
        zero = (0,) * n
        return ap.PolyMap(n, [
            [(float(c), tuple(int(v) for v in e)) for c, e in zip(coeffs[j], exps[j])] + [(float(const[j]), zero)]
            for j in range(coeffs.shape[0])
        ])

    def build(self, ap, inputs):
        systems, inclusions = inputs
        n = self.n
        opts = ap.SolveOptions(gap_tol=self.gap_tol, max_iters=self.max_iters)
        ops = []
        for i, inst in enumerate(systems):
            sys_ = ap.ConstraintSystem(
                G=self.polymap(ap, inst.G, n), P=ap.PolyMap.empty(n), H=self.polymap(ap, inst.H, n),
                Q=ap.AffineSubspace(*inst.Q), ambient_dim=n)
            ops.append(Op(f"linconstr[{i}]", partial(self._linconstr, ap, sys_, inst.x0, opts),
                          partial(self.check_linconstr, inst)))
        for i, inst in enumerate(inclusions):
            prob = ap.InclusionProblem(self.polymap(ap, inst.F, n), ap.AffineSubspace(*inst.Q))
            chart = ap.ManifoldChart(prob.F, inst.lower, inst.upper)
            ops.append(Op(f"inclusion[{i}]", partial(self._inclusion, ap, prob, inst.x0, opts),
                          partial(self.check_inclusion, inst)))
            ops.append(Op(f"chart[{i}]", partial(self._chart, ap, prob, chart, inst.x0, opts),
                          partial(self.check_chart, inst)))
        return ops

    @staticmethod
    def _linconstr(ap, sys_, x0, opts):
        return Outcome(ap.solve_constraint_system(sys_, x0, opts))

    @staticmethod
    def _inclusion(ap, prob, x0, opts):
        return Outcome(ap.solve_inclusion(prob, x0, opts))

    @staticmethod
    def _chart(ap, prob, chart, x0, opts):
        projector = ap.ChartApproximateProjector(chart, x0)
        trace = ap.run_approximate(projector, prob.Q, prob.F.eval(x0), opts)
        return Outcome(trace, extra=projector.coords)

    def check_linconstr(self, inst, out):
        tr = out.trace
        checks.converged(tr.status, tr.gaps, self.gap_tol)
        checks.constraint_point(tr.zs[-1], inst.G, inst.H, inst.Q, self.check_tol)

    def check_inclusion(self, inst, out):
        tr = out.trace
        checks.converged(tr.status, tr.gaps, self.gap_tol)
        checks.inclusion_point(tr.zs[-1], inst.F, inst.Q, self.check_tol)

    def check_chart(self, inst, out):
        tr = out.trace
        checks.converged(tr.status, tr.gaps, self.gap_tol)
        checks.chart_point(tr.zs[-1], out.extra, inst.F, inst.Q, self.check_tol)

    def warmup(self, ap):
        n = 3
        rng = _rng(CANON_SEED, 13)
        xs = rng.uniform(-1.0, 1.0, n)
        H = _random_block(rng, n, 1, terms=4, max_degree=2)
        H = (*H, -checks.poly_eval(*H, np.zeros(1), xs))
        sys_ = ap.ConstraintSystem(
            G=ap.PolyMap.empty(n), P=ap.PolyMap.empty(n), H=self.polymap(ap, H, n),
            Q=ap.AffineSubspace(xs, _orthonormal_rows(rng, n, 2)), ambient_dim=n)
        return self._linconstr(ap, sys_, xs + 0.05, ap.SolveOptions(gap_tol=1e-9, max_iters=200))


# ============================================================== small_sets


def _affine(anchor, *dirs):
    return {"type": "affine_subspace", "anchor": list(anchor), "basis": [list(d) for d in dirs]}


def _problem(Q, M, start, gap_tol=1e-10, max_iters=500, epsilon=0.0):
    return {
        "kind": "two_sets", "Q": Q, "M": M, "start": list(start),
        "options": {"gap_tol": gap_tol, "max_iters": max_iters, "epsilon": epsilon},
    }


@dataclass
class SmallSlot:
    path: str
    scheme: str
    expect: tuple
    problem: dict


class SmallSets:
    """Many 2- to 5-D two-set problems, loaded from JSON and run through the CLI layer.

    Per round: the four bundled two-set problem files under the exact,
    inexact and approximate schemes, and 26 seeded problems (line pairs at
    30/45/60/75 degrees, sphere-line pairs, parallel lines, box/ball/
    halfspace pairs and a finite set against a line).  Each solve also
    writes its trace to CSV, reads it back, fits the rate and measures
    angles.
    """

    bundled = ("two_lines_45deg", "two_lines_60deg", "circle_line", "parallel_lines")
    tail_pct = 99
    calibration_mix = {"numpy_small": 3, "python": 2}

    def __init__(self, problems_dir):
        self.problems_dir = problems_dir

    def inputs(self, seed, workdir):
        rng = _rng(seed, 4)
        slots = []
        for name in self.bundled:
            path = os.path.join(self.problems_dir, f"{name}.json")
            with open(path) as fh:
                problem = json.load(fh)
            for scheme in ("exact", "inexact", "approximate"):
                slots.append(SmallSlot(path, scheme, self._bundled_expect(name, problem), problem))

        def add(tag, problem, schemes, expect):
            path = os.path.join(workdir, f"{tag}.json")
            with open(path, "w") as fh:
                json.dump(problem, fh)
            for scheme in schemes:
                slots.append(SmallSlot(path, scheme, expect, problem))

        for d, deg in ((2, 30), (3, 45), (4, 60), (5, 75)):
            O, p = _rotation(rng, d), rng.standard_normal(d)
            th = math.radians(deg)
            u, v = O[:, 0], math.cos(th) * O[:, 0] + math.sin(th) * O[:, 1]
            cos_theta = float(abs(u @ v) / np.linalg.norm(v))
            Q, M = _affine(p, u), _affine(p, v / np.linalg.norm(v))
            add(f"lines{d}", _problem(Q, M, p + u), ("exact", "approximate"), ("lines", cos_theta, p))
            add(f"lines{d}-eps", _problem(Q, M, p + u, epsilon=0.05), ("inexact",), ("point", p, 1e-7))
        for d in (2, 3):
            O, c = _rotation(rng, d), rng.standard_normal(d)
            anchor = c + 0.5 * O[:, 1]
            limits = checks.sphere_line_limits(c, 1.0, anchor, O[:, 0])
            prob = _problem(_affine(anchor, O[:, 0]), {"type": "sphere", "center": list(c), "radius": 1.0},
                            anchor + 0.8 * O[:, 0])
            add(f"sphere-line{d}", prob, ("exact", "approximate"), ("one_of", limits))
        for d, sep in ((2, 0.5), (4, 2.0)):
            O, p = _rotation(rng, d), rng.standard_normal(d)
            q = p + sep * O[:, 1]
            add(f"parallel{d}", _problem(_affine(q, O[:, 0]), _affine(p, O[:, 0]), q, max_iters=30),
                ("exact",), ("stall", sep))
        for tag, Q, M, start in self._convex_pairs(rng):
            add(tag, _problem(Q, M, start), ("exact", "approximate"), ("convex", Q, M))
        O, a = _rotation(rng, 3), rng.standard_normal(3)
        u, nrm = O[:, 0], O[:, 1]
        on = a + 0.3 * u
        points = [a + 2.0 * nrm, on, a - 2.0 * nrm + u]
        add("finite-line", _problem(_affine(a, u), {"type": "finite_point_set", "points": [list(x) for x in points]},
                                    a + 0.35 * u), ("exact", "approximate"), ("point", on, 1e-12))
        return [slots[i] for i in rng.permutation(len(slots))]

    @staticmethod
    def _convex_pairs(rng):
        """Box/halfspace, ball/halfspace and box/ball pairs with a thin overlap."""
        out = []
        perm, sign = rng.permutation(3), rng.choice([-1.0, 1.0], 3)
        t = rng.standard_normal(3)
        normal = np.empty(3)
        normal[perm] = sign * np.array([1.0, 2.0, 2.0]) / 3.0
        corner = np.empty(3)
        corner[perm] = sign * np.array([1.0, 1.0, 1.0])
        box = {"type": "box", "lower": list(t - 1.0), "upper": list(t + 1.0)}
        half = {"type": "halfspace", "normal": list(normal), "offset": float(normal @ t) - 1.6}
        out.append(("box-half", box, half, t + 2.5 * corner))
        O, t = _rotation(rng, 4), rng.standard_normal(4)
        ball = {"type": "ball", "center": list(t), "radius": 1.0}
        half = {"type": "halfspace", "normal": list(O[:, 0]), "offset": float(O[:, 0] @ t) - 0.8}
        out.append(("ball-half", ball, half, t + 2.0 * O[:, 1] + 1.0 * O[:, 0]))
        perm, sign = rng.permutation(2), rng.choice([-1.0, 1.0], 2)
        t = rng.standard_normal(2)
        shift, corner = np.empty(2), np.empty(2)
        shift[perm] = sign * np.array([1.8, 0.3])
        corner[perm] = sign * np.array([-1.0, 1.0])
        box = {"type": "box", "lower": list(t - 1.0), "upper": list(t + 1.0)}
        ball = {"type": "ball", "center": list(t + shift), "radius": 1.0}
        out.append(("box-ball", box, ball, t + 2.0 * shift + corner))
        return out

    @staticmethod
    def _bundled_expect(name, problem):
        if name == "parallel_lines":
            sep = abs(problem["Q"]["anchor"][1] - problem["M"]["anchor"][1])
            return ("stall", float(sep))
        if name == "circle_line":
            Q, M = problem["Q"], problem["M"]
            n = np.asarray(Q["normal"], dtype=float)
            point = n * Q["offset"] / (n @ n)
            direction = np.array([-n[1], n[0]])
            limits = checks.sphere_line_limits(np.asarray(M["center"], float), M["radius"], point, direction)
            return ("one_of", limits)
        u = np.asarray(problem["Q"]["basis"][0], dtype=float)
        v = np.asarray(problem["M"]["basis"][0], dtype=float)
        cos_theta = float(abs(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v)))
        return ("lines", cos_theta, np.asarray(problem["Q"]["anchor"], dtype=float))

    def build(self, ap, slots):
        # Each solve loads its own file; set-up loads every file once, so that
        # a file the loader rejects stops the run before the timed loop.
        for path in sorted({s.path for s in slots}):
            ap.cli.load_problem(path)
        return [
            Op(f"{os.path.basename(s.path)}:{s.scheme}", partial(self._solve, ap, s.path, s.scheme),
               partial(self.check, s))
            for s in slots
        ]

    @staticmethod
    def _solve(ap, path, scheme):
        prob = ap.cli.load_problem(path)
        trace = ap.cli.run_problem(prob, scheme, seed=INEXACT_SEED)
        text = trace.to_csv()
        back = ap.IterationTrace.from_csv(text, status=trace.status)
        try:
            rate = ap.fit_rate(back).rate
        except ap.errors.InsufficientData:
            rate = None
        try:
            ap.angles_from_trace(trace)
        except ap.errors.InsufficientData:
            pass
        return Outcome(trace, csv_bytes=len(text), extra=(back, rate))

    def check(self, slot, out):
        tr = out.trace
        back, rate = out.extra
        checks.csv_round_trip(tr.gaps, tr.zs, back.gaps, back.zs)
        opts = slot.problem["options"]
        kind = slot.expect[0]
        if kind == "stall":
            checks.stalled_at(tr.status, tr.gaps, slot.expect[1])
            return
        checks.converged(tr.status, tr.gaps, opts["gap_tol"])
        if slot.scheme == "exact":
            checks.gaps_nonincreasing(tr.gaps)
        z = tr.zs[-1]
        if kind == "lines":
            _, cos_theta, point = slot.expect
            if slot.scheme == "inexact" and opts.get("epsilon", 0.0) > 0:
                checks.near_point(z, point, 1e-7)
                return
            checks.line_pair_rate(tr.gaps, cos_theta)
            checks.require(rate is not None and abs(rate - cos_theta**2) <= 1e-6,
                           f"fit_rate gave {rate}, expected {cos_theta**2:.6f}")
            checks.near_point(z, point, 1e-8)
        elif kind == "point":
            checks.near_point(z, slot.expect[1], slot.expect[2])
        elif kind == "one_of":
            checks.near_one_of(z, slot.expect[1], 1e-7)
        elif kind == "convex":
            _, Q, M = slot.expect
            on_z, on_x = (Q, M) if slot.scheme == "exact" else (M, Q)
            checks.in_set(on_z, z, 1e-9)
            checks.in_set(on_x, tr.xs[-1], 1e-9)
        else:
            raise ValueError(f"unknown expectation '{kind}'")

    def warmup(self, ap):
        for name in self.bundled:
            path = os.path.join(self.problems_dir, f"{name}.json")
            for scheme in ("exact", "inexact", "approximate"):
                self._solve(ap, path, scheme)


def make(name, root):
    problems = os.path.join(root, "src", "altproj", "problems")
    table = {
        "lowrank_completion": LowRankCompletion,
        "polyhedron_ball": PolyhedronBall,
        "poly_systems": PolySystems,
        "small_sets": lambda: SmallSets(problems),
    }
    if name not in table:
        raise SystemExit(f"unknown workload '{name}'; choose from {', '.join(sorted(table))}")
    return table[name]()
