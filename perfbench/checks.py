"""Correctness checks computed apart from the package.

Every check takes plain numpy data (the generator's own description of an
instance and the numbers a solve returned) and raises CheckFailed when the
answer is wrong.  None of them calls into ``altproj``: set membership,
polynomial values and closed-form limits are recomputed here, so a fault in
the package cannot hide itself by also breaking its own check.
"""

from __future__ import annotations

import math

import numpy as np


class CheckFailed(AssertionError):
    """A solve returned an answer that an independent check rejects."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def gaps_nonincreasing(gaps, scale=1.0, accuracy=0.0):
    """Exact alternating projections never increase the gap.

    |z_{k+1} - x_{k+1}| <= |z_{k+1} - x_k| <= |z_k - x_k| by the nearest-point
    property, for any two closed sets.  The slack covers rounding, plus
    `accuracy`: the absolute error to which the projections themselves are
    computed (nonzero only for projections that are solved to a tolerance).
    """
    g = np.asarray(gaps, dtype=float)
    slack = g[:-1] * 1e-9 + 1e-12 * max(1.0, scale) + accuracy
    bad = np.nonzero(g[1:] > g[:-1] + slack)[0]
    require(bad.size == 0, f"gap increased at iteration {bad[0] + 1}" if bad.size else "")


def converged(status, gaps, gap_tol):
    require(status == "Converged", f"status {status}, expected Converged")
    require(gaps[-1] <= gap_tol, f"final gap {gaps[-1]:.3e} above tolerance {gap_tol:.1e}")


# ---------------------------------------------------------------- low rank


def lowrank_solution(x, X, mask, rank, rel_tol=1e-6):
    """x (flattened) has rank <= rank, matches X on mask, and is close to X."""
    A = np.asarray(x, dtype=float).reshape(X.shape)
    sigma = np.linalg.svd(A, compute_uv=False)
    require(
        sigma[rank] <= 1e-8 * sigma[0],
        f"numerical rank above {rank}: sigma[{rank}]/sigma[0] = {sigma[rank] / sigma[0]:.2e}",
    )
    scale = np.linalg.norm(X)
    obs_err = np.max(np.abs(A[mask] - X[mask]))
    require(obs_err <= 1e-8 * scale, f"observed entries off by {obs_err:.2e}")
    err = np.linalg.norm(A - X) / scale
    require(err <= rel_tol, f"relative distance to the generating matrix {err:.2e}")


# -------------------------------------------------------- polyhedron, ball


def in_polyhedron(x, A, b, tol):
    viol = float(np.max(A @ x - b))
    require(viol <= tol, f"A x <= b violated by {viol:.2e}")


def in_ball(x, center, radius, tol):
    excess = float(np.linalg.norm(x - center) - radius)
    require(excess <= tol, f"ball constraint violated by {excess:.2e}")


# ------------------------------------------------------------- polynomials


def poly_eval(coeffs, exps, const, x):
    """Values of a polynomial block: coeffs (out, T), exps (out, T, n), const (out,)."""
    x = np.asarray(x, dtype=float)
    if coeffs.shape[0] == 0:
        return np.zeros(0)
    terms = np.prod(x[None, None, :] ** exps, axis=2)
    return (coeffs * terms).sum(axis=1) + const


def affine_distance(y, anchor, basis):
    """Distance of y to anchor + span(rows of basis); rows orthonormal."""
    d = np.asarray(y, dtype=float) - anchor
    return float(np.linalg.norm(d - basis.T @ (basis @ d)))


def constraint_point(x, G, H, Q, tol):
    """G(x) <= 0, H(x) = 0 and x in the affine set Q, from raw coefficients."""
    g = poly_eval(*G, x)
    h = poly_eval(*H, x)
    require(float(np.max(g, initial=0.0)) <= tol, f"G(x) <= 0 violated by {np.max(g):.2e}")
    require(float(np.max(np.abs(h), initial=0.0)) <= tol, f"|H(x)| = {np.max(np.abs(h)):.2e}")
    dq = affine_distance(x, *Q)
    require(dq <= tol, f"x is {dq:.2e} away from Q")


def inclusion_point(x, F, Q, tol):
    """F(x) in Q, with F evaluated from its raw coefficients."""
    dq = affine_distance(poly_eval(*F, x), *Q)
    require(dq <= tol, f"F(x) is {dq:.2e} away from Q")


def chart_point(z, coords, F, Q, tol):
    """z = F(coords) lies on the image manifold and in Q."""
    fz = poly_eval(*F, coords)
    off = float(np.linalg.norm(fz - z))
    require(off <= 1e-9 * max(1.0, float(np.linalg.norm(z))), f"z is {off:.2e} off F(coords)")
    dq = affine_distance(z, *Q)
    require(dq <= tol, f"z is {dq:.2e} away from Q")


# -------------------------------------------------------------- small sets


def line_pair_rate(gaps, cos_theta, floor=1e-7, rel_tol=1e-6):
    """Each exact cycle between two lines at angle theta multiplies the gap by cos^2 theta."""
    g = np.asarray(gaps, dtype=float)
    keep = np.nonzero(g[1:] > floor)[0]
    require(keep.size >= 3, "too few iterations to measure the rate")
    ratios = g[1:][keep] / g[:-1][keep]
    want = cos_theta**2
    worst = float(np.max(np.abs(ratios - want)))
    require(worst <= rel_tol * max(want, 1e-3), f"gap ratio off cos^2(theta)={want:.6f} by {worst:.2e}")


def near_point(z, target, tol):
    d = float(np.linalg.norm(np.asarray(z, dtype=float) - target))
    require(d <= tol, f"limit is {d:.2e} away from the expected point")


def near_one_of(z, targets, tol):
    d = min(float(np.linalg.norm(np.asarray(z, dtype=float) - t)) for t in targets)
    require(d <= tol, f"limit is {d:.2e} away from every expected point")


def sphere_line_limits(center, radius, point, direction):
    """The two points where the line point + t*direction meets the sphere."""
    u = direction / np.linalg.norm(direction)
    w = point - center
    bq = float(u @ w)
    disc = bq * bq - (float(w @ w) - radius * radius)
    require(disc >= 0.0, "line misses the sphere")
    r = math.sqrt(disc)
    return [point + (-bq - r) * u, point + (-bq + r) * u]


def stalled_at(status, gaps, separation, tol=1e-12):
    require(status == "MaxIters", f"status {status}, expected MaxIters on parallel lines")
    worst = float(np.max(np.abs(np.asarray(gaps) - separation)))
    require(worst <= tol * max(1.0, separation), f"gap drifted {worst:.2e} from the separation")


def csv_round_trip(gaps, zs, gaps_back, zs_back):
    """Gaps and iterates survive to_csv -> from_csv bit for bit."""
    require(len(gaps) == len(gaps_back), "row count changed in the CSV round trip")
    a = np.asarray(gaps, dtype=float)
    b = np.asarray(gaps_back, dtype=float)
    require(np.array_equal(a.view(np.int64), b.view(np.int64)), "gaps changed in the CSV round trip")
    za = np.asarray(zs, dtype=float)
    zb = np.asarray(zs_back, dtype=float)
    require(np.array_equal(za.view(np.int64), zb.view(np.int64)), "iterates changed in the CSV round trip")


def in_set(spec, x, tol):
    """Membership of x in a set given by its JSON description."""
    x = np.asarray(x, dtype=float)
    kind = spec["type"]
    if kind == "box":
        lo, hi = np.asarray(spec["lower"]), np.asarray(spec["upper"])
        worst = float(max(np.max(lo - x), np.max(x - hi)))
        require(worst <= tol, f"box violated by {worst:.2e}")
    elif kind == "ball":
        in_ball(x, np.asarray(spec["center"]), spec["radius"], tol)
    elif kind == "halfspace":
        n = np.asarray(spec["normal"])
        excess = float((n @ x - spec["offset"]) / np.linalg.norm(n))
        require(excess <= tol, f"halfspace violated by {excess:.2e}")
    elif kind == "sphere":
        off = abs(float(np.linalg.norm(x - np.asarray(spec["center"]))) - spec["radius"])
        require(off <= tol, f"point is {off:.2e} off the sphere")
    elif kind == "affine_subspace":
        d = affine_distance(x, np.asarray(spec["anchor"], float), np.asarray(spec["basis"], float))
        require(d <= tol, f"point is {d:.2e} off the affine subspace")
    elif kind == "finite_point_set":
        d = float(np.min(np.linalg.norm(np.asarray(spec["points"]) - x, axis=1)))
        require(d <= tol, f"point is {d:.2e} from every point of the finite set")
    else:
        raise ValueError(f"no membership test for set type '{kind}'")
