from importlib import resources

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from altproj import (
    AffineSubspace,
    Ball,
    Box,
    FinitePointSet,
    IterationTrace,
    SolveOptions,
    angles_from_trace,
    check_transversality,
    fit_rate,
    run_exact,
)
from altproj.cli import bundled_problem_path, load_problem, run_problem
from altproj.diagnostics import predicted_rate
from altproj.errors import InsufficientData

from oracles import angles_columns_reference, angles_reference, rate_columns_reference, regression_reference

X_AXIS = AffineSubspace([0, 0], [[1, 0]])
DIAGONAL = AffineSubspace([0, 0], [[2**-0.5, 2**-0.5]])


# fit_rate's closed-form line against np.polyfit's: rate_regression within
# this relative tolerance, r_squared, a share of the variance that is near 0
# on uncorrelated gaps, within it absolutely.  Over 20000 random traces the
# two differed by at most 2.8e-15 and 1.6e-15.
REGRESSION_TOL = 1e-12


def synthetic_trace(gaps):
    """One-dimensional trace whose gap sequence is exactly `gaps`."""
    g = np.array(gaps, dtype=float)
    return IterationTrace(
        [np.array([v]) for v in g], [np.zeros(1)] * len(g), g, g.copy(), np.zeros(len(g)), "Converged"
    )


class TestAngles:
    def test_two_lines_separability(self):
        tr = run_exact(DIAGONAL, X_AXIS, [1, 0], SolveOptions(1e-12, 200))
        rep = angles_from_trace(tr)
        for a in rep.separability:
            assert a == pytest.approx(np.pi / 4, abs=1e-9)
        assert rep.min_separability == pytest.approx(np.pi / 4, abs=1e-9)

    def test_convex_sets_super_regular(self):
        tr = run_exact(Ball([0, 2], 1.0), X_AXIS, [3, 0], SolveOptions(1e-12, 200))
        rep = angles_from_trace(tr)
        for a in rep.super_regularity:
            assert a >= np.pi / 2 - 1e-7

    def test_scale_invariance(self):
        small = run_exact(DIAGONAL, X_AXIS, [1e-6, 0], SolveOptions(1e-300, 40))
        big = run_exact(DIAGONAL, X_AXIS, [1e6, 0], SolveOptions(1e-300, 40))
        a = angles_from_trace(small)
        b = angles_from_trace(big)
        assert len(a.separability) == len(b.separability)
        np.testing.assert_allclose(a.separability, b.separability, atol=1e-6)

    def test_single_row_insufficient(self):
        tr = run_exact(X_AXIS, X_AXIS, [1, 0])  # already in both sets
        with pytest.raises(InsufficientData):
            angles_from_trace(tr)

    def test_inclusion_trace_has_no_angles(self):
        # solve_inclusion's zs are chart coordinates in R^1, its xs points of R^2
        with resources.as_file(bundled_problem_path("parabola_inclusion")) as path:
            tr = run_problem(load_problem(path), "inclusion")
        with pytest.raises(InsufficientData, match="different spaces"):
            angles_from_trace(tr)

    def test_degenerate_triples_skipped(self):
        tr = run_exact(DIAGONAL, X_AXIS, [1, 0], SolveOptions(1e-14, 500))
        rep = angles_from_trace(tr)
        assert rep.skipped >= 0
        assert len(rep.separability) + rep.skipped == len(tr.zs) - 1


@st.composite
def two_set_traces(draw):
    """Random two-set traces; some triples are degenerate or collinear by construction."""
    n, d = draw(st.integers(2, 25)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-8, 8))
    zs = rng.standard_normal((n, d)) * scale
    xs = rng.standard_normal((n, d)) * scale
    kinds = draw(st.lists(st.sampled_from("-xyzctf"), min_size=n - 1, max_size=n - 1))
    for k, kind in enumerate(kinds):
        if kind == "x":  # x_k on z_k
            xs[k] = zs[k]
        elif kind == "y":  # x_k on z_{k+1}
            xs[k] = zs[k + 1]
        elif kind == "z":  # z_{k+1} on z_k
            zs[k + 1] = zs[k]
        elif kind == "c":  # x_k between z_k and z_{k+1}: separability near pi
            xs[k] = zs[k] + rng.uniform() * (zs[k + 1] - zs[k])
        elif kind == "t":  # x_k within a few rounding errors of z_k
            xs[k] = zs[k] * (1 + 1e-14 * rng.standard_normal(d))
    gaps = np.linalg.norm(zs - xs, axis=1)
    f_rows = [k for k, kind in enumerate(kinds) if kind == "f"]
    floor = 100 * np.finfo(float).eps * np.delete(gaps, f_rows).max()
    for k in f_rows:  # |z_k - x_k| is the skip floor, or one ulp either side of it
        s = draw(st.sampled_from([np.nextafter(floor, 0), floor, np.nextafter(floor, np.inf)]))
        zs[k, 0] = 0.0
        xs[k] = zs[k]
        xs[k, 0] = s
        gaps[k] = s
    return IterationTrace(list(zs), list(xs), gaps, gaps.copy(), np.zeros(n))


class TestAnglesAgainstReference:
    @given(two_set_traces())
    def test_match_per_triple_loop(self, tr):
        separability, super_regularity, skipped = angles_reference(tr)
        if not separability:
            with pytest.raises(InsufficientData, match="degenerate"):
                angles_from_trace(tr)
            return
        rep = angles_from_trace(tr)
        assert rep.skipped == skipped
        assert len(rep.separability) == len(separability)
        assert len(rep.super_regularity) == len(super_regularity)
        assert np.max(np.abs(np.subtract(rep.separability, separability))) <= 1e-15
        assert np.max(np.abs(np.subtract(rep.super_regularity, super_regularity))) <= 1e-15

    def test_trace_read_from_csv_has_no_angles(self):
        tr = run_exact(DIAGONAL, X_AXIS, [1, 0], SolveOptions(1e-12, 200))
        back = IterationTrace.from_csv(tr.to_csv())
        assert back.xs is None
        with pytest.raises(InsufficientData, match="projected points"):
            angles_from_trace(back)


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@st.composite
def gap_sequences(draw):
    """Positive gap runs of any shape, often ending in a tail under the noise floor.

    The tail holds zeros, subnormals and values one ulp either side of
    100 eps, and may be followed by gaps above the floor again.
    """
    n = draw(st.integers(0, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    start = 10.0 ** rng.uniform(-12, 12)
    gaps = start * np.exp(np.cumsum(rng.normal(np.log(rng.uniform(0.05, 1.2)), 10.0 ** rng.uniform(-6, 0), n)))
    floor = 100 * np.finfo(float).eps
    tail = [0.0, 5e-324, 1e-300, 1e-17, np.nextafter(floor, 0), floor, np.nextafter(floor, 1)]
    gaps = list(gaps) + draw(st.lists(st.sampled_from(tail), max_size=6))
    return gaps + draw(st.lists(st.floats(1e-6, 1e6), max_size=3))


class TestColumnBits:
    """angles_from_trace and fit_rate give the bits of their formulas through numpy's wrappers."""

    @given(two_set_traces())
    def test_angles(self, tr):
        ref = angles_columns_reference(tr)
        if ref is None:
            with pytest.raises(InsufficientData, match="degenerate"):
                angles_from_trace(tr)
            return
        rep = angles_from_trace(tr)
        sep, sup, skipped = ref
        assert np.array_equal(bits(rep.separability), bits(sep))
        assert np.array_equal(bits(rep.super_regularity), bits(sup))
        assert rep.skipped == skipped and type(rep.skipped) is int

    @given(gap_sequences())
    def test_fit_rate(self, gaps):
        ref = rate_columns_reference(gaps)
        if ref is None:
            with pytest.raises(InsufficientData, match="noise floor"):
                fit_rate(synthetic_trace(gaps))
            return
        rep = fit_rate(synthetic_trace(gaps))
        ratios, rate, rate_regression, r_squared = ref
        assert np.array_equal(bits(rep.ratios), bits(ratios))
        assert bits([rep.rate, rep.rate_regression, rep.r_squared]).tolist() == bits(
            [rate, rate_regression, r_squared]).tolist()


class TestFitRate:
    def test_exact_halving(self):
        tr = synthetic_trace([2.0**-k for k in range(20)])
        rep = fit_rate(tr)
        assert rep.rate == pytest.approx(0.5, abs=1e-12)
        assert rep.rate_regression == pytest.approx(0.5, abs=1e-12)
        assert rep.r_squared == pytest.approx(1.0, abs=1e-12)
        assert rep.quality == "good"
        assert rep.contracting

    def test_stagnant_sequence(self):
        tr = synthetic_trace([1.0] * 15)
        rep = fit_rate(tr)
        assert rep.rate == pytest.approx(1.0, abs=1e-12)
        assert not rep.contracting

    def test_two_lines_rate_matches_cos_squared(self):
        tr = run_exact(DIAGONAL, X_AXIS, [1, 0], SolveOptions(1e-12, 200))
        rep = fit_rate(tr)
        assert rep.rate == pytest.approx(0.5, abs=1e-6)
        assert rep.quality == "good"

    def test_noise_floor_truncates(self):
        gaps = [2.0**-k for k in range(30)] + [1e-17] * 5 + [0.3]
        rep = fit_rate(synthetic_trace(gaps))
        # the spurious recovery after the floor is ignored
        assert rep.rate == pytest.approx(0.5, abs=1e-6)

    def test_regression_is_one_least_squares_line(self):
        gaps = [0.5**k * (1 + 0.1 * np.sin(k)) for k in range(31)]
        rep = fit_rate(synthetic_trace(gaps))
        # the trailing half of the 30 ratios
        rate_regression, r_squared = regression_reference(np.log(gaps[15:]))
        assert rep.rate_regression == pytest.approx(rate_regression, rel=REGRESSION_TOL, abs=0)
        assert rep.r_squared == pytest.approx(r_squared, rel=0, abs=REGRESSION_TOL)

    @given(n=st.integers(6, 300), kind=st.sampled_from(["geometric", "noise", "walk"]),
           seed=st.integers(0, 2**32 - 1))
    def test_closed_form_line_matches_polyfit(self, n, kind, seed):
        rng = np.random.default_rng(seed)
        if kind == "geometric":  # a contracting run with relative noise from 1e-6 to 1
            gaps = rng.uniform(0.05, 1.0) ** np.arange(n) * np.exp(rng.normal(0, 10.0 ** rng.uniform(-6, 0), n))
        elif kind == "noise":  # uncorrelated gaps: r_squared near 0
            gaps = np.exp(rng.normal(0, 1, n))
        else:
            gaps = np.exp(np.cumsum(rng.normal(0, 1, n))) * 10.0 ** rng.uniform(-5, 5)
        gaps = np.maximum(gaps, 1e-300)
        rep = fit_rate(synthetic_trace(gaps))
        g = gaps[: len(rep.ratios) + 1]
        half = len(rep.ratios) // 2
        rate_regression, r_squared = regression_reference(np.log(g[half:]))
        assert rep.rate == float(np.exp(np.mean(np.log(g[half + 1:] / g[half:-1]))))
        assert rep.rate_regression == pytest.approx(rate_regression, rel=REGRESSION_TOL, abs=0)
        assert rep.r_squared == pytest.approx(r_squared, rel=0, abs=REGRESSION_TOL)

    def test_too_few_gaps(self):
        with pytest.raises(InsufficientData):
            fit_rate(synthetic_trace([1.0, 0.5, 0.25]))


BUNDLED_TWO_SETS = {"two_lines_45deg": 0.5, "two_lines_60deg": 0.25, "circle_line": 0.25}


def bundled_run(name, scheme):
    """(Q, M, trace) of a bundled two_sets problem run under a scheme."""
    with resources.as_file(bundled_problem_path(name)) as path:
        prob = load_problem(path)
    return (*prob.payload, run_problem(prob, scheme))


class TestPredictedRate:
    @pytest.mark.parametrize("theta", [np.pi / 4, np.pi / 3], ids=["45deg", "60deg"])
    def test_two_lines_give_the_squared_cosine(self, theta):
        line = AffineSubspace([0, 0], [[np.cos(theta), np.sin(theta)]])
        assert predicted_rate(X_AXIS, line, [0, 0]) == pytest.approx(np.cos(theta) ** 2, abs=1e-12)

    def test_an_interior_point_gives_zero(self):
        # N = {0} inside a ball: one projection lands on the other set
        assert predicted_rate(Ball([0, 0], 2.0), X_AXIS, [0, 0]) == 0.0

    @pytest.mark.parametrize("scheme", ["exact", "inexact", "approximate"])
    @pytest.mark.parametrize("name", BUNDLED_TWO_SETS)
    def test_bundled_limits_give_the_closed_form_and_the_fitted_rate(self, name, scheme):
        # the lines' cones do not move along them; the circle's normal at the
        # last iterate is within the gap tolerance of its normal at the limit
        Q, M, trace = bundled_run(name, scheme)
        assert trace.status == "Converged"
        predicted = predicted_rate(Q, M, trace.zs[-1])
        assert predicted == pytest.approx(BUNDLED_TWO_SETS[name], abs=1e-12 if "lines" in name else 1e-9)
        # fit_rate's noise floor is absolute, so its last ratios carry rounding of up to about 1e-6
        assert abs(fit_rate(trace).rate - predicted) <= 1e-6

    def test_a_point_off_a_set_raises_value_error(self):
        Q, M, trace = bundled_run("parallel_lines", "exact")
        with pytest.raises(ValueError, match="at distance 1 from the set"):
            predicted_rate(Q, M, trace.zs[-1])

    @pytest.mark.parametrize("Q, z", [
        (Ball([0, 1], 1.0), [0, 0]),                # the ray -e_1 of the ball's boundary
        (Box([-1, 0], [1, 1]), [0.5, 0]),           # the ray -e_1 of the box's face
    ], ids=["ball", "box"])
    def test_a_cone_with_rays_raises(self, Q, z):
        with pytest.raises(InsufficientData, match="has rays"):
            predicted_rate(Q, X_AXIS, z)

    def test_a_full_cone_is_named_before_transversality(self):
        # N = R^2 at a point of a finite set meets the x-axis' normal line, so the
        # pair is not transversal either; the full cone is the reason given
        points = FinitePointSet([[0, 0], [3, 1]])
        assert not check_transversality(points, X_AXIS, [0, 0]).transversal
        for Q, M in ((points, X_AXIS), (X_AXIS, points)):
            with pytest.raises(InsufficientData, match="all of R\\^n"):
                predicted_rate(Q, M, [0, 0])

    def test_two_lines_in_r3_are_not_transversal(self):
        # their normal planes share the direction e_2
        a = AffineSubspace([0, 0, 0], [[1, 0, 0]])
        b = AffineSubspace([0, 0, 0], [[2**-0.5, 2**-0.5, 0]])
        with pytest.raises(InsufficientData, match="not transversal"):
            predicted_rate(a, b, [0, 0, 0])
