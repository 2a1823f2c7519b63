from importlib import resources

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from altproj import (
    AffineSubspace,
    ConstraintSystem,
    Hyperplane,
    IterationTrace,
    Monomial,
    PolyMap,
    SolveOptions,
    Sphere,
    run_exact,
    run_inexact,
    solve_constraint_system,
)
from altproj.alternating import DIVERGENCE_FACTOR, DIVERGENCE_WINDOW, STRUCTURAL, _perturb, iterate
from altproj.cli import _COMPATIBLE, ProblemFile, bundled_problem_path, load_problem, run_problem
from altproj.errors import DimensionMismatch, Infeasible, MaxPivots

from oracles import trace_csv_reference

X_AXIS = AffineSubspace([0, 0], [[1, 0]])
FULL_PLANE = AffineSubspace([0, 0], [[1, 0], [0, 1]])
DIAGONAL = AffineSubspace([0, 0], [[2**-0.5, 2**-0.5]])
LINE_Y1 = AffineSubspace([0, 1], [[1, 0]])


BUNDLED = ("two_lines_45deg", "two_lines_60deg", "circle_line", "parallel_lines",
           "circle_system", "parabola_inclusion")


def load_bundled(name):
    with resources.as_file(bundled_problem_path(name)) as path:
        return load_problem(path)


def two_sets(Q, M, start, opts=None):
    """An in-memory two_sets problem, as load_problem returns one."""
    return ProblemFile("two_sets", (Q, M), np.asarray(start, dtype=float), opts or SolveOptions())


def line_line_trace(max_iters=200, tol=1e-10):
    return run_exact(X_AXIS, DIAGONAL, [1, 0], SolveOptions(tol, max_iters))


class OverflowingDiagonal(AffineSubspace):
    """The diagonal line, whose projection returns `value` from call `after` + 1 on."""

    def __init__(self, after, value):
        super().__init__([0, 0], [[2**-0.5, 2**-0.5]])
        self.after, self.value, self.calls = after, value, 0

    def _project(self, z):
        self.calls += 1
        if self.calls > self.after:
            return np.full(2, self.value)
        return super()._project(z)


class TestRunExact:
    def test_already_in_intersection(self):
        tr = run_exact(X_AXIS, X_AXIS, [1, 0])
        assert tr.status == "Converged"
        assert tr.iterations == 0

    def test_options_take_no_epsilon(self):
        # eps is run_inexact's own argument, so an exact run cannot be handed one
        with pytest.raises(TypeError):
            SolveOptions(epsilon=0.3)

    def test_numpy_error_state_is_the_callers_after_a_run(self):
        with np.errstate(all="raise"):
            assert line_line_trace().status == "Converged"
            assert set(np.geterr().values()) == {"raise"}

    def test_line_line_contraction_factor(self):
        # closed-form line projections: per-cycle factor cos^2(pi/4) = 0.5
        tr = line_line_trace()
        assert tr.status == "Converged"
        g = np.array(tr.gaps[:-1])
        ratios = g[1:] / g[:-1]
        np.testing.assert_allclose(ratios, 0.5, atol=1e-9)

    def test_parallel_lines_stall(self):
        tr = run_exact(LINE_Y1, X_AXIS, [0, 1], SolveOptions(max_iters=60))
        assert tr.status == "MaxIters"
        assert tr.final_gap == pytest.approx(1.0, abs=1e-12)

    def test_start_off_q_is_projected(self):
        tr = run_exact(X_AXIS, DIAGONAL, [1, 5], SolveOptions(max_iters=200))
        assert tr.initial_projected
        np.testing.assert_allclose(tr.zs[0], [1, 0])

    def test_limit_in_both_sets(self):
        opts = SolveOptions(gap_tol=1e-10, max_iters=500)
        tr = run_exact(Hyperplane([0, 1], 0.5), Sphere([0, 0], 1.0), [0.8, 0.5], opts)
        assert tr.status == "Converged"
        z = tr.zs[-1]
        assert Hyperplane([0, 1], 0.5).distance(z) <= opts.gap_tol + 1e-9
        assert Sphere([0, 0], 1.0).distance(z) <= opts.gap_tol + 1e-9


class TestRunInexact:
    def test_eps_zero_bitwise_identical(self):
        exact = line_line_trace()
        inexact = run_inexact(X_AXIS, DIAGONAL, [1, 0], 0.0, 42, SolveOptions(max_iters=200))
        assert exact.status == inexact.status
        assert np.array_equal(exact.gaps, inexact.gaps)
        for a, b in zip(exact.zs, inexact.zs):
            assert np.array_equal(a, b)

    def test_small_eps_converges_with_degraded_rate(self):
        # kappa = 1 for affine Q: per-cycle contraction <= tau + kappa*eps.
        # Individual ratios fluctuate with the random error direction, so
        # the bound is checked on the geometric mean.
        tr = run_inexact(X_AXIS, DIAGONAL, [1, 0], 0.05, 42, SolveOptions(1e-10, 500))
        assert tr.status == "Converged"
        g = np.array(tr.gaps[:-1])
        ratios = g[1:] / g[:-1]
        gmean = float(np.exp(np.mean(np.log(ratios))))
        assert gmean <= 0.5 + 0.05 + 1e-9
        assert np.max(ratios) <= 1.0

    def test_large_eps_recorded_not_asserted(self):
        tr = run_inexact(X_AXIS, DIAGONAL, [1, 0], 0.9, 7, SolveOptions(1e-10, 100))
        assert tr.status in ("Converged", "MaxIters", "Diverged")
        assert len(tr.gaps) >= 2


def perturbed(M, eps, seed, z, k):
    """The driver's M step at iteration k: the eps-corrupted exact projection of z."""
    z = np.asarray(z, dtype=float)
    exact = M.project(z)
    return _perturb(exact, np.linalg.norm(z - exact), eps, seed, k)


class TestCorruptingProjector:
    def test_eps_zero_exact(self):
        z = np.array([1.0, 0.0])
        np.testing.assert_array_equal(perturbed(DIAGONAL, 0.0, 42, z, 0), DIAGONAL.project(z))

    def test_perturbation_magnitude(self):
        sphere = Sphere([0, 0], 1.0)
        z = np.array([3.0, 0.0])  # d_M(z) = 2
        x = perturbed(sphere, 0.1, 42, z, 0)
        assert np.linalg.norm(x - sphere.project(z)) == pytest.approx(0.2)

    @pytest.mark.parametrize("z", [[1.0, 0.0, 0.0], [np.nan, 0.0], [0.0, np.inf]])
    def test_bad_point_raises_dimension_mismatch(self, z):
        # the driver checks the start before any M step
        with pytest.raises(DimensionMismatch):
            run_inexact(X_AXIS, DIAGONAL, z, 0.1, 42)

    def test_determinism(self):
        z = np.array([1.0, 0.0])
        x5 = perturbed(DIAGONAL, 0.3, 99, z, 5)
        assert np.array_equal(x5, perturbed(DIAGONAL, 0.3, 99, z, 5))
        assert not np.array_equal(x5, perturbed(DIAGONAL, 0.3, 99, z, 6))

    def test_bound_holds_by_construction(self):
        sphere = Sphere([0, 0], 1.0)
        rng = np.random.default_rng(2)
        for k in range(20):
            z = rng.standard_normal(2) * 3
            x = perturbed(sphere, 0.25, 11, z, k)
            d = sphere.distance(z)
            assert np.linalg.norm(x - sphere.project(z)) <= 0.25 * d + 1e-12


class TestRunApproximate:
    """On two sets the approximate scheme is exact AP with Q and M exchanged."""

    def test_exact_instance_matches_run_exact(self):
        names = [name for name in BUNDLED if load_bundled(name).kind == "two_sets"]
        assert len(names) == 4
        for name in names:
            prob = load_bundled(name)
            Q, M = prob.payload
            tr = run_problem(prob, "approximate")
            ref = run_exact(M, Q, prob.start, prob.options)
            assert (tr.status, tr.initial_projected) == (ref.status, ref.initial_projected), name
            for got, want in ((tr.zs, ref.zs), (tr.xs, ref.xs), (tr.gaps, ref.gaps),
                              (tr.dist_q, ref.dist_m), (tr.dist_m, ref.dist_q)):
                assert np.array_equal(bits(got), bits(want)), name
            # every iterate lies on M, and its distance to Q is the gap
            assert np.array_equal(bits(tr.dist_q), bits(tr.gaps)), name
            assert np.array_equal(tr.dist_m, np.zeros(len(tr.zs))), name

    def test_iterates_stay_on_m(self):
        z0 = DIAGONAL.project([1.0, 0.0])
        tr = run_problem(two_sets(X_AXIS, DIAGONAL, z0, SolveOptions(1e-10, 300)), "approximate")
        assert tr.status == "Converged"
        for z in tr.zs:
            assert DIAGONAL.distance(z) <= 1e-9

    def test_zero_iterations_at_intersection(self):
        tr = run_problem(two_sets(X_AXIS, DIAGONAL, [0, 0]), "approximate")
        assert tr.status == "Converged"
        assert tr.iterations == 0

    def test_projects_start_off_m(self):
        tr = run_problem(two_sets(X_AXIS, DIAGONAL, [1.0, 0.0]), "approximate")
        assert tr.initial_projected
        assert np.array_equal(tr.zs[0], DIAGONAL.project([1.0, 0.0]))
        assert np.array_equal(tr.dist_m, np.zeros(len(tr.zs)))

    def test_keeps_start_within_1e12_of_m(self):
        z0 = np.array([1.0, 1.0 + 1e-13])
        tr = run_problem(two_sets(X_AXIS, DIAGONAL, z0), "approximate")
        assert not tr.initial_projected
        assert np.array_equal(tr.zs[0], z0)
        assert tr.dist_m[0] == DIAGONAL.distance(z0) > 0
        assert np.array_equal(tr.dist_m[1:], np.zeros(tr.iterations))


class TestNonFiniteGap:
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("max_iters", [3, 10], ids=["last-row", "mid-run"])
    def test_run_exact_raises(self, value, max_iters):
        # P_M turns non-finite on row 3, the last row max_iters = 3 allows
        M = OverflowingDiagonal(3, value)
        with pytest.raises(DimensionMismatch, match="iteration 3 has gap"):
            run_exact(X_AXIS, M, [1, 0], SolveOptions(1e-10, max_iters))
        assert M.calls == 4

    def test_run_approximate_raises(self):
        # the start's projection and two steps are finite; the third step is NaN
        M = OverflowingDiagonal(3, np.nan)
        with pytest.raises(DimensionMismatch, match="iteration 3 has gap nan"):
            run_problem(two_sets(X_AXIS, M, [1, 0], SolveOptions(1e-10, 10)), "approximate")
        assert M.calls == 4


def gap_rows(gaps):
    """A step yielding rows with the given gaps; dist_q = 1 keeps them from converging."""
    z = np.zeros(1)
    for gap in gaps:
        yield z, z, gap, 1.0, 0.0
    raise AssertionError("iterate asked for a row past the one that stops the run")


class RaisingStep:
    """A step yielding k rows that do not stop the run, then raising exc; counts the rows asked for."""

    def __init__(self, k, exc):
        self.k, self.exc, self.asked = k, exc, 0

    def __iter__(self):
        return self

    def __next__(self):
        self.asked += 1
        if self.asked == self.k + 1:
            raise self.exc
        if self.asked > self.k + 1:
            raise AssertionError("iterate asked for a row after the step raised")
        return np.zeros(1), np.zeros(1), 1.0, 1.0, 0.0


class TestStoppingRules:
    def test_structural_statuses_are_the_error_names(self):
        assert [e.__name__ for e in STRUCTURAL] == ["RankDeficient", "LeftChart", "LinearizationInfeasible"]

    @pytest.mark.parametrize("k", [0, 1, 5])
    @pytest.mark.parametrize("error", STRUCTURAL, ids=lambda e: e.__name__)
    def test_structural_error_ends_the_run_with_its_name(self, error, k):
        step = RaisingStep(k, error("the step cannot go on"))
        tr = iterate(step, SolveOptions(max_iters=10))
        assert tr.status == error.__name__
        assert len(tr.gaps) == len(tr.zs) == len(tr.xs) == k
        assert step.asked == k + 1

    @pytest.mark.parametrize("error", [MaxPivots, ValueError, Infeasible], ids=lambda e: e.__name__)
    def test_other_errors_propagate(self, error):
        step = RaisingStep(2, error("not a status"))
        with pytest.raises(error, match="not a status"):
            iterate(step, SolveOptions(max_iters=10))
        assert step.asked == 3

    def boundary_gaps(self, last):
        # slowly growing gaps, so a window one row off moves the boundary
        gaps = [0.3 + 0.01 * k for k in range(30)]
        gaps[25] = last(DIVERGENCE_FACTOR * gaps[25 - DIVERGENCE_WINDOW])
        return gaps

    def test_gap_factor_times_window_ago_keeps_running(self):
        gaps = self.boundary_gaps(lambda bound: bound)
        tr = iterate(gap_rows(gaps), SolveOptions(max_iters=29))
        assert tr.status == "MaxIters"
        assert np.array_equal(tr.gaps, gaps)

    def test_gap_above_factor_times_window_ago_diverges_on_that_row(self):
        gaps = self.boundary_gaps(lambda bound: np.nextafter(bound, np.inf))
        tr = iterate(gap_rows(gaps), SolveOptions(max_iters=29))
        assert tr.status == "Diverged"
        assert np.array_equal(tr.gaps, gaps[:26])

    def test_no_divergence_before_a_full_window(self):
        gaps = [1.0] + [1e6] * (DIVERGENCE_WINDOW - 1)
        tr = iterate(gap_rows(gaps), SolveOptions(max_iters=DIVERGENCE_WINDOW - 1))
        assert tr.status == "MaxIters"
        assert np.array_equal(tr.gaps, gaps)

    def test_rows_are_kept_as_yielded(self):
        zs = [np.full(2, float(k)) for k in range(3)]
        xs = [-z for z in zs]
        tr = iterate(zip(zs, xs, [3.0, 2.0, 1.0], [1.0] * 3, [0.0] * 3), SolveOptions(max_iters=2))
        assert tr.status == "MaxIters"
        assert all(a is b for a, b in zip(tr.zs + tr.xs, zs + xs))
        for col, want in ((tr.gaps, [3.0, 2.0, 1.0]), (tr.dist_q, [1.0] * 3), (tr.dist_m, [0.0] * 3)):
            assert type(col) is np.ndarray and col.dtype == float
            assert np.array_equal(col, want)


def bundled_runs():
    for name in BUNDLED:
        for scheme in _COMPATIBLE[load_bundled(name).kind]:
            yield pytest.param(name, scheme, id=f"{name}-{scheme}")


def bundled_trace(name, scheme):
    return run_problem(load_bundled(name), scheme)


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


class TestTrace:
    @pytest.mark.parametrize("name, scheme", list(bundled_runs()))
    def test_csv_matches_per_value_reference(self, name, scheme):
        tr = bundled_trace(name, scheme)
        text = tr.to_csv()
        assert text == trace_csv_reference(tr)
        back = IterationTrace.from_csv(text, status=tr.status)
        for col in ("gaps", "dist_q", "dist_m"):
            assert np.array_equal(bits(getattr(back, col)), bits(getattr(tr, col)))
        assert np.array_equal(bits(back.zs), bits(tr.zs))
        assert back.xs is None and back.status == tr.status

    def test_inclusion_trace(self):
        # zs in X-space (1-D), xs in Y-space (2-D), dist_M NaN throughout
        tr = bundled_trace("parabola_inclusion", "inclusion")
        assert tr.status == "Converged"
        assert {z.shape for z in tr.zs} == {(1,)} and {x.shape for x in tr.xs} == {(2,)}
        assert np.isnan(tr.dist_m).all()
        text = tr.to_csv()
        assert text.splitlines()[0] == "k,gap,dist_Q,dist_M,z_0"
        assert text == trace_csv_reference(tr)
        back = IterationTrace.from_csv(text)
        assert np.array_equal(bits(back.dist_m), bits(tr.dist_m))
        assert np.array_equal(bits(back.zs), bits(tr.zs))

    def test_empty_trace(self):
        # x0 <= 0 and x0 >= 1: the linearization at the start is infeasible
        G = PolyMap(2, [[Monomial(1, (1, 0))], [Monomial(-1, (1, 0)), Monomial(1, (0, 0))]])
        sys_ = ConstraintSystem(G, PolyMap.empty(2), PolyMap.empty(2), FULL_PLANE, 2)
        tr = solve_constraint_system(sys_, [0.5, 0.0])
        assert tr.status == "LinearizationInfeasible"
        assert tr.zs == [] and tr.xs == [] and tr.gaps.shape == (0,)
        assert tr.iterations == 0 and np.isnan(tr.final_gap)
        assert tr.to_csv() == trace_csv_reference(tr) == "k,gap,dist_Q,dist_M\n"
        back = IterationTrace.from_csv(tr.to_csv())
        assert back.zs == [] and back.xs is None
        assert back.gaps.shape == back.dist_q.shape == back.dist_m.shape == (0,)

    def test_ragged_csv_rejected(self):
        text = line_line_trace().to_csv().splitlines()
        text[3] = text[3].rsplit(",", 1)[0]
        with pytest.raises(ValueError, match="trace row 2 has 5 fields, header has 6"):
            IterationTrace.from_csv("\n".join(text))

    @pytest.mark.parametrize("text", ["", "0,1,1,0,1\n", "gap,k,dist_Q,dist_M,z_0\n0,1,1,0,1\n"],
                             ids=["empty", "rows-only", "other-header"])
    def test_csv_without_header_rejected(self, text):
        with pytest.raises(ValueError, match="trace CSV missing header row"):
            IterationTrace.from_csv(text)

    def test_csv_round_trip(self):
        tr = line_line_trace()
        text = tr.to_csv()
        assert text.splitlines()[0] == "k,gap,dist_Q,dist_M,z_0,z_1"
        again = IterationTrace.from_csv(text)
        assert np.array_equal(again.gaps, tr.gaps)
        for a, b in zip(again.zs, tr.zs):
            assert np.array_equal(a, b)

    def test_csv_deterministic(self):
        assert line_line_trace().to_csv() == line_line_trace().to_csv()

    def test_gaps_nonnegative(self):
        tr = line_line_trace()
        assert all(g >= 0 for g in tr.gaps)


# signed zeros, the smallest and largest subnormals, and magnitudes near the ends of the range
EXTREME_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -1e-310,
                  1e-300, -1e-300, 1e300, -1e300, 1.7976931348623157e308]


@st.composite
def csv_traces(draw):
    """A trace read from CSV: n = 0-30 rows of any finite values in R^1-R^6; dist_M may be NaN."""
    n, d = draw(st.integers(0, 30)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # a third each: values of a run, any finite bit pattern, and the extremes
    table = rng.standard_normal((n, 3 + d)) * 10.0 ** rng.integers(-8, 9, (n, 3 + d))
    raw = rng.integers(0, 2**64, (n, 3 + d), dtype=np.uint64, endpoint=False).view(float)
    pick = rng.integers(0, 3, (n, 3 + d))
    table = np.where(pick == 1, np.where(np.isfinite(raw), raw, 0.0), table)
    table = np.where(pick == 2, rng.choice(EXTREME_VALUES, (n, 3 + d)), table)
    nan_rows = draw(st.sampled_from(["none", "all", "some"]))
    if nan_rows == "all":  # as an inclusion run records dist_M
        table[:, 2] = np.nan
    elif nan_rows == "some":
        table[rng.random(n) < 0.5, 2] = np.nan
    gaps, dist_q, dist_m = (table[:, j].copy() for j in range(3))
    return IterationTrace([row.copy() for row in table[:, 3:]], None, gaps, dist_q, dist_m)


class TestTraceCsvProperties:
    @given(csv_traces())
    def test_csv_is_the_per_value_reference_and_reads_back_bit_for_bit(self, tr):
        text = tr.to_csv()
        assert text == trace_csv_reference(tr)
        back = IterationTrace.from_csv(text, status=tr.status)
        for col in ("gaps", "dist_q", "dist_m"):
            assert np.array_equal(bits(getattr(back, col)), bits(getattr(tr, col)))
        assert len(back.zs) == len(tr.zs)
        for a, b in zip(back.zs, tr.zs):
            assert np.array_equal(bits(a), bits(b))

    @given(csv_traces(), st.data())
    def test_a_row_missing_a_field_is_rejected(self, tr, data):
        n = len(tr.gaps)
        if n == 0:
            return
        d = len(tr.zs[0])
        lines = tr.to_csv().splitlines()
        k = data.draw(st.integers(0, n - 1))
        fields = lines[k + 1].split(",")
        del fields[data.draw(st.integers(0, 3 + d))]
        lines[k + 1] = ",".join(fields)
        with pytest.raises(ValueError, match=f"^trace row {k} has {3 + d} fields, header has {4 + d}$"):
            IterationTrace.from_csv("\n".join(lines))
