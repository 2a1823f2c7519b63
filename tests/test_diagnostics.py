import numpy as np
import pytest

from altproj import (
    AffineSubspace,
    Ball,
    IterationTrace,
    SolveOptions,
    angles_from_trace,
    compare_predicted,
    fit_rate,
    run_exact,
)
from altproj.errors import InsufficientData

X_AXIS = AffineSubspace([0, 0], [[1, 0]])
DIAGONAL = AffineSubspace([0, 0], [[2**-0.5, 2**-0.5]])


def synthetic_trace(gaps):
    """One-dimensional trace whose gap sequence is exactly `gaps`."""
    tr = IterationTrace()
    for g in gaps:
        tr.add_row([g], [0.0], float(g), float(g), 0.0)
    tr.status = "Converged"
    return tr


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

    def test_degenerate_triples_skipped(self):
        tr = run_exact(DIAGONAL, X_AXIS, [1, 0], SolveOptions(1e-14, 500))
        rep = angles_from_trace(tr)
        assert rep.skipped >= 0
        assert len(rep.separability) + rep.skipped == len(tr.zs) - 1


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
        ks = np.arange(15, 31, dtype=float)  # the trailing half of the 30 ratios
        log_g = np.log(gaps[15:])
        slope, intercept = np.polyfit(ks, log_g, 1)
        resid = log_g - (slope * ks + intercept)
        total = log_g - np.mean(log_g)
        assert rep.rate_regression == float(np.exp(slope))
        assert rep.r_squared == 1.0 - float(resid @ resid) / float(total @ total)

    def test_too_few_gaps(self):
        with pytest.raises(InsufficientData):
            fit_rate(synthetic_trace([1.0, 0.5, 0.25]))


class TestComparePredicted:
    def test_two_lines_within_bound(self):
        tr = run_exact(DIAGONAL, X_AXIS, [1, 0], SolveOptions(1e-12, 200))
        rate = fit_rate(tr)
        alpha = angles_from_trace(tr).min_separability
        cmp = compare_predicted(rate, alpha)
        assert cmp["predicted"] == pytest.approx(np.cos(np.pi / 4), abs=1e-9)
        assert cmp["measured"] <= cmp["predicted"] + 1e-9
        assert cmp["flags"] == []

    def test_bound_violation_flag(self):
        rep = fit_rate(synthetic_trace([0.95**k for k in range(20)]))
        cmp = compare_predicted(rep, np.pi / 3)  # predicted cos = 0.5
        assert "BoundViolation" in cmp["flags"]

    def test_orthogonal_case(self):
        rep = fit_rate(synthetic_trace([2.0**-k for k in range(10)]))
        cmp = compare_predicted(rep, np.pi / 2)
        assert "OrthogonalBoundZero" in cmp["flags"]
        assert cmp["ratio"] == float("inf")

    def test_invalid_alpha(self):
        rep = fit_rate(synthetic_trace([2.0**-k for k in range(10)]))
        with pytest.raises(ValueError):
            compare_predicted(rep, 0.0)
