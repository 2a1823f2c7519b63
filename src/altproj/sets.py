"""Closed sets with exact, deterministic nearest-point projections.

The base class checks the argument of project / distance / normal_cone
once.  Each variant implements _project and _normal_cone on the checked
vector and a JSON schema.  The drivers call the function _run_projection
returns, once per run: _project itself, or for Polyhedron a projection
that starts each QP from the previous one's working set.
Nonconvex projections use the documented tie-breaks so traces
reproduce exactly:

  * Sphere center          -> first standard basis direction
  * FinitePointSet ties    -> lowest index
  * FixedRank ties at the  -> earlier SVD columns
    rank cut
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, qp
from .errors import DimensionMismatch, Infeasible, RankDrop, UnsupportedVariant

ON_SET_TOL = 1e-9
ACTIVE_TOL = 1e-9


@dataclass
class NormalCone:
    """Finite description of a normal cone.

    rays:      (k, n) nonnegative-combination generators
    lineality: (m, n) free-sign directions (a subspace component)
    full:      the cone is the whole ambient space
    """

    dim: int
    rays: np.ndarray
    lineality: np.ndarray
    full: bool = False

    @property
    def trivial(self):
        return not self.full and self.rays.shape[0] == 0 and self.lineality.shape[0] == 0


def _finite(value, field):
    """value as a float array; a NaN/Inf entry raises ValueError naming the set field."""
    a = np.asarray(value, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError(f"{field} contains NaN/Inf entries")
    return a


class ProjectableSet:
    """Base class: a closed set with deterministic nearest-point projection."""

    ambient_dim: int

    def project(self, z):
        return self._project(self._check(z))

    def distance(self, z):
        z = self._check(z)
        return float(np.linalg.norm(z - self._project(z)))

    def normal_cone(self, point) -> NormalCone:
        return self._normal_cone(self._check(point))

    def to_json(self):
        raise NotImplementedError

    def _check(self, z):
        return linalg.as_vector(z, dim=self.ambient_dim)

    def _project(self, z):
        """The nearest point to a checked (ambient_dim,) float vector z, as a new array."""
        raise NotImplementedError

    def _run_projection(self):
        """The _project of one run, built by the driver at its start.

        A variant may return a function that carries state from one call
        to the next within the run; the set itself keeps none.
        """
        return self._project

    def _normal_cone(self, p):
        raise UnsupportedVariant(f"{type(self).__name__} has no normal-cone description")

    def _cone(self, rays=(), lineality=(), full=False):
        """The NormalCone with these rows of rays and lineality; empty blocks by default."""
        n = self.ambient_dim
        return NormalCone(n, np.array(rays, float).reshape(-1, n),
                          np.array(lineality, float).reshape(-1, n), full)


class Box(ProjectableSet):
    def __init__(self, lower, upper):
        self.lower = linalg.as_vector(lower, field="box lower")
        self.upper = linalg.as_vector(upper, dim=self.lower.shape[0], field="box upper")
        if np.any(self.lower > self.upper):
            raise ValueError("box lower bound exceeds upper bound")
        self.ambient_dim = self.lower.shape[0]

    def _project(self, z):
        return np.clip(z, self.lower, self.upper)

    def _normal_cone(self, p):
        rays = []
        for i in range(self.ambient_dim):
            if abs(p[i] - self.upper[i]) <= ACTIVE_TOL:
                e = np.zeros(self.ambient_dim)
                e[i] = 1.0
                rays.append(e)
            if abs(p[i] - self.lower[i]) <= ACTIVE_TOL:
                e = np.zeros(self.ambient_dim)
                e[i] = -1.0
                rays.append(e)
        return self._cone(rays)

    def to_json(self):
        return {"type": "box", "lower": list(self.lower), "upper": list(self.upper)}


class Ball(ProjectableSet):
    def __init__(self, center, radius):
        self.center = linalg.as_vector(center, field="ball center")
        self.radius = float(radius)
        _finite(self.radius, "ball radius")
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")
        self.ambient_dim = self.center.shape[0]

    def _project(self, z):
        d = z - self.center
        r = np.linalg.norm(d)
        if r <= self.radius:
            return z.copy()
        return self.center + (self.radius / r) * d

    def _normal_cone(self, p):
        d = p - self.center
        n = np.linalg.norm(d)
        if abs(n - self.radius) <= ACTIVE_TOL:
            return self._cone([d / n])
        return self._cone()

    def to_json(self):
        return {"type": "ball", "center": list(self.center), "radius": self.radius}


class AffineSubspace(ProjectableSet):
    """anchor + span(basis rows); basis rows must be finite and orthonormal to 1e-10.

    A basis whose rows are signed unit vectors on distinct coordinates
    (matrix completion's observed-entry constraint, an axis line) is
    projected by selecting those coordinates: basis^T basis is then the 0/1
    diagonal of the free coordinates, so anchor + where(free, z - anchor, 0)
    is the dense anchor + basis^T (basis (z - anchor)) bit for bit, signed
    zeros included, since every product in the dense sums is 0*d or +-1*d.
    """

    def __init__(self, anchor, basis):
        self.anchor = linalg.as_vector(anchor, field="affine subspace anchor")
        self.ambient_dim = self.anchor.shape[0]
        basis = _finite(basis, "affine subspace basis").reshape(-1, self.ambient_dim)
        self._free = _free_coordinates(basis)
        if self._free is None:
            gram = basis @ basis.T
            if np.max(np.abs(gram - np.eye(basis.shape[0]))) > 1e-10:
                raise ValueError("affine subspace basis is not orthonormal")
        self.basis = basis

    def _project(self, z):
        if self.basis.shape[0] == 0:
            return self.anchor.copy()
        if self._free is not None:
            return self.anchor + np.where(self._free, z - self.anchor, 0.0)
        return self.anchor + self.basis.T @ (self.basis @ (z - self.anchor))

    def _normal_cone(self, p):
        # orthogonal complement of the direction space
        U, sigma, _ = linalg.svd(self.basis.T) if self.basis.shape[0] else (
            np.eye(self.ambient_dim),
            np.zeros(0),
            None,
        )
        r = int(np.sum(sigma > 1e-12))
        comp = U[:, r:].T
        return self._cone(lineality=comp)

    def to_json(self):
        return {
            "type": "affine_subspace",
            "anchor": list(self.anchor),
            "basis": [list(row) for row in self.basis],
        }


def _free_coordinates(basis):
    """A mask of the coordinates spanned if the rows are +-e_c on distinct c, else None.

    Such a basis, the empty one included, has Gram matrix exactly I.
    Duplicates are found with a set: np.unique would import numpy.ma on
    first use.
    """
    rows, c = basis.nonzero()
    k = basis.shape[0]
    if (
        rows.size != k
        or rows.tolist() != list(range(k))
        or len(set(c.tolist())) != k
        or not (np.abs(basis[rows, c]) == 1.0).all()
    ):
        return None
    free = np.zeros(basis.shape[1], dtype=bool)
    free[c] = True
    return free


class Hyperplane(ProjectableSet):
    """{x : <normal, x> = offset}."""

    def __init__(self, normal, offset):
        self.normal = linalg.as_vector(normal, field="hyperplane normal")
        if np.linalg.norm(self.normal) == 0:
            raise ValueError("hyperplane normal must be nonzero")
        self.offset = float(offset)
        _finite(self.offset, "hyperplane offset")
        self.ambient_dim = self.normal.shape[0]

    def _project(self, z):
        n = self.normal
        return z - ((n @ z - self.offset) / (n @ n)) * n

    def _normal_cone(self, p):
        n = self.normal / np.linalg.norm(self.normal)
        return self._cone(lineality=[n])

    def to_json(self):
        return {"type": "hyperplane", "normal": list(self.normal), "offset": self.offset}


class Halfspace(ProjectableSet):
    """{x : <normal, x> <= offset}."""

    def __init__(self, normal, offset):
        self.normal = linalg.as_vector(normal, field="halfspace normal")
        if np.linalg.norm(self.normal) == 0:
            raise ValueError("halfspace normal must be nonzero")
        self.offset = float(offset)
        _finite(self.offset, "halfspace offset")
        self.ambient_dim = self.normal.shape[0]

    def _project(self, z):
        n = self.normal
        excess = n @ z - self.offset
        if excess <= 0:
            return z.copy()
        return z - (excess / (n @ n)) * n

    def _normal_cone(self, p):
        if abs(self.normal @ p - self.offset) <= ACTIVE_TOL * (
            1 + np.linalg.norm(self.normal)
        ):
            return self._cone([self.normal / np.linalg.norm(self.normal)])
        return self._cone()

    def to_json(self):
        return {"type": "halfspace", "normal": list(self.normal), "offset": self.offset}


class Sphere(ProjectableSet):
    def __init__(self, center, radius):
        self.center = linalg.as_vector(center, field="sphere center")
        self.radius = float(radius)
        _finite(self.radius, "sphere radius")
        if self.radius <= 0:
            raise ValueError("sphere radius must be positive")
        self.ambient_dim = self.center.shape[0]

    def _project(self, z):
        d = z - self.center
        r = np.linalg.norm(d)
        if r == 0.0:
            # documented tie-break: first standard basis direction
            e = np.zeros(self.ambient_dim)
            e[0] = self.radius
            return self.center + e
        return self.center + (self.radius / r) * d

    def _normal_cone(self, p):
        d = p - self.center
        n = d / np.linalg.norm(d)
        return self._cone(lineality=[n])

    def to_json(self):
        return {"type": "sphere", "center": list(self.center), "radius": self.radius}


class FinitePointSet(ProjectableSet):
    def __init__(self, points):
        pts = [linalg.as_vector(p, field="finite point set points") for p in points]
        if not pts:
            raise ValueError("finite point set must be nonempty")
        self.points = np.vstack(pts)
        self.ambient_dim = self.points.shape[1]

    def _project(self, z):
        dists = np.linalg.norm(self.points - z, axis=1)
        return self.points[int(np.argmin(dists))].copy()  # lowest-index tie-break

    def _normal_cone(self, p):
        # at an isolated point every direction is normal
        return self._cone(full=True)

    def to_json(self):
        return {"type": "finite_point_set", "points": [list(p) for p in self.points]}


class FixedRankMatrices(ProjectableSet):
    """Matrices of rank <= r, flattened row-major into R^(rows*cols)."""

    def __init__(self, rows, cols, rank):
        self.rows, self.cols, self.rank = int(rows), int(cols), int(rank)
        if not (1 <= self.rank <= min(self.rows, self.cols)):
            raise ValueError("rank must satisfy 1 <= r <= min(rows, cols)")
        self.ambient_dim = self.rows * self.cols

    def _project(self, z):
        U, sigma, V = linalg.svd(z.reshape(self.rows, self.cols))
        r = self.rank
        trunc = U[:, :r] @ np.diag(sigma[:r]) @ V[:, :r].T  # Eckart-Young
        return trunc.reshape(-1)

    def _normal_cone(self, p):
        U, sigma, V = linalg.svd(p.reshape(self.rows, self.cols))
        if sigma.size < self.rank or sigma[self.rank - 1] <= 1e-9 * max(
            sigma[0], 1e-300
        ):
            raise RankDrop(f"matrix rank below {self.rank} at probe point")
        # normal space = { U_perp N V_perp^T }, flattened
        Up = U[:, self.rank :]
        Vp = V[:, self.rank :]
        basis = []
        for i in range(Up.shape[1]):
            for j in range(Vp.shape[1]):
                basis.append(np.outer(Up[:, i], Vp[:, j]).reshape(-1))
        return self._cone(lineality=basis)

    def to_json(self):
        return {
            "type": "fixed_rank_matrices",
            "rows": self.rows,
            "cols": self.cols,
            "rank": self.rank,
        }


class Polyhedron(ProjectableSet):
    """{x : A_ineq x <= b_ineq, A_eq x = b_eq}; emptiness rejected at construction."""

    def __init__(self, A_ineq, b_ineq, A_eq=None, b_eq=None):
        A_ineq = _finite(A_ineq, "polyhedron A_ineq")
        if A_ineq.ndim != 2:
            raise DimensionMismatch("A_ineq must be 2-D")
        n = A_ineq.shape[1]
        if A_eq is None and b_eq is None:
            A_eq, b_eq = np.zeros((0, n)), np.zeros(0)
        elif A_eq is None or b_eq is None:
            raise ValueError("polyhedron needs both A_eq and b_eq, or neither")
        self.A_ineq = A_ineq
        self.b_ineq = _finite(b_ineq, "polyhedron b_ineq").reshape(-1)
        self.A_eq = _finite(A_eq, "polyhedron A_eq").reshape(-1, n)
        self.b_eq = _finite(b_eq, "polyhedron b_eq").reshape(-1)
        for rhs, rows in (("b_ineq", "A_ineq"), ("b_eq", "A_eq")):
            if getattr(self, rhs).shape[0] != getattr(self, rows).shape[0]:
                raise DimensionMismatch(f"polyhedron {rhs} needs one entry per row of {rows}")
        self.ambient_dim = n
        # checked once here; _project hands the stacked rows to the solver core
        self._rows = np.vstack([self.A_ineq, self.A_eq])
        self._rhs = np.concatenate([self.b_ineq, self.b_eq])
        # one QP feasibility solve certifies nonemptiness
        qp._nearest_point(np.zeros(n), self._rows, self._rhs, self.A_ineq.shape[0])

    def _project(self, z):
        return qp._nearest_point(z, self._rows, self._rhs, self.A_ineq.shape[0])[0]

    def _run_projection(self):
        # consecutive QPs of a run mostly end on the same working set: each starts from the last
        rows, rhs, n_i, hint = self._rows, self._rhs, self.A_ineq.shape[0], qp._Hint()
        return lambda z: qp._nearest_point(z, rows, rhs, n_i, hint)[0]

    def _normal_cone(self, p):
        active = [
            i
            for i in range(self.A_ineq.shape[0])
            if abs(self.A_ineq[i] @ p - self.b_ineq[i])
            <= ACTIVE_TOL * (1 + np.linalg.norm(self.A_ineq[i]))
        ]
        return self._cone(self.A_ineq[active], self.A_eq)

    def to_json(self):
        return {
            "type": "polyhedron",
            "A_ineq": [list(r) for r in self.A_ineq],
            "b_ineq": list(self.b_ineq),
            "A_eq": [list(r) for r in self.A_eq],
            "b_eq": list(self.b_eq),
        }


@dataclass
class NormalConeProbe:
    """A set together with one of its points, for normal-cone queries."""

    set: ProjectableSet
    point: np.ndarray

    def __post_init__(self):
        self.point = self.set._check(self.point)
        if self.set.distance(self.point) > ON_SET_TOL:
            raise ValueError("probe point does not lie on the set")


@dataclass
class TransversalityResult:
    transversal: bool
    witness: np.ndarray | None = None


def check_transversality(a: NormalConeProbe, b: NormalConeProbe) -> TransversalityResult:
    """Decide whether N_A(p) intersects -N_B(p) only at the origin.

    Both probes must sit at the same point.  Pure-subspace cases are
    decided by rank; cones bring in small feasibility problems over the
    generator descriptions, each decided by the nearest-point QP.
    """
    if np.linalg.norm(a.point - b.point) > ON_SET_TOL:
        raise ValueError("probes must be at the same point")
    na = a.set._normal_cone(a.point)
    nb = b.set._normal_cone(b.point)
    if na.trivial or nb.trivial:
        return TransversalityResult(True)
    if na.full:
        w = _any_nonzero(nb)
        return TransversalityResult(False, -w)
    if nb.full:
        return TransversalityResult(False, _any_nonzero(na))

    if na.rays.shape[0] == 0 and nb.rays.shape[0] == 0:
        return _subspace_intersection(na.lineality, nb.lineality)
    return _cone_intersection(na, nb)


def _any_nonzero(cone: NormalCone):
    if cone.rays.shape[0]:
        return cone.rays[0]
    if cone.lineality.shape[0]:
        return cone.lineality[0]
    return np.zeros(cone.dim)  # unreachable for nontrivial cones


def _subspace_intersection(La, Lb):
    stacked = np.hstack([La.T, -Lb.T])
    _, sigma, V = linalg.svd(stacked)
    tol = 1e-10 * max(1.0, sigma[0] if sigma.size else 0.0)
    rank = int(np.sum(sigma > tol))
    if rank == stacked.shape[1]:
        return TransversalityResult(True)
    coeffs = V[:, rank]
    v = La.T @ coeffs[: La.shape[0]]
    return TransversalityResult(False, v)


def _unit_rows(G):
    """The nonzero rows of G at unit norm: the same cone, on the QP's FEAS_TOL scale."""
    norms = np.linalg.norm(G, axis=1)
    return G[norms > 0] / norms[norms > 0, None]


def _cone_intersection(na: NormalCone, nb: NormalCone):
    n = na.dim
    na, nb = (NormalCone(n, _unit_rows(c.rays), _unit_rows(c.lineality)) for c in (na, nb))
    # variables: [wa (>=0), ya (free), wb (>=0), yb (free)]
    ka, ma = na.rays.shape[0], na.lineality.shape[0]
    kb, mb = nb.rays.shape[0], nb.lineality.shape[0]
    nv = ka + ma + kb + mb
    blocks = np.hstack([na.rays.T, na.lineality.T, nb.rays.T, nb.lineality.T])
    a_cols = blocks[:, : ka + ma]
    # -lambda_i <= 0 on the ray coefficients wa and wb, then blocks lambda = 0
    fixed = np.vstack([-np.eye(nv)[np.r_[0:ka, ka + ma:ka + ma + kb]], blocks])
    rhs = np.append(np.zeros(ka + kb + n), 1.0)
    # a nonzero common v must have positive inner product with a generator
    # of its own description, so normalizing against each generator of the
    # A side (rays, +/- lineality) covers every nonzero candidate
    candidates = [r for r in na.rays] + [l for l in na.lineality] + [
        -l for l in na.lineality
    ]
    for g in candidates:
        norm_row = np.concatenate([g @ a_cols, np.zeros(kb + mb)])
        # {lambda : fixed rows, norm_row lambda = 1} is nonempty exactly when
        # its min-norm point exists; Infeasible rules g out
        try:
            sol = qp._nearest_point(np.zeros(nv), np.vstack([fixed, norm_row]), rhs, ka + kb)[0]
        except Infeasible:
            continue
        v = a_cols @ sol[: ka + ma]
        if np.linalg.norm(v) > 1e-9:
            return TransversalityResult(False, v)
    return TransversalityResult(True)


_VARIANTS = {
    "box": lambda d: Box(d["lower"], d["upper"]),
    "ball": lambda d: Ball(d["center"], d["radius"]),
    "affine_subspace": lambda d: AffineSubspace(d["anchor"], d["basis"]),
    "hyperplane": lambda d: Hyperplane(d["normal"], d["offset"]),
    "halfspace": lambda d: Halfspace(d["normal"], d["offset"]),
    "sphere": lambda d: Sphere(d["center"], d["radius"]),
    "finite_point_set": lambda d: FinitePointSet(d["points"]),
    "fixed_rank_matrices": lambda d: FixedRankMatrices(d["rows"], d["cols"], d["rank"]),
    "polyhedron": lambda d: Polyhedron(
        d["A_ineq"], d["b_ineq"], d.get("A_eq"), d.get("b_eq")
    ),
}


def set_from_json(obj) -> ProjectableSet:
    try:
        kind = obj["type"]
    except (KeyError, TypeError) as exc:
        raise ValueError("set JSON missing field 'type'") from exc
    if kind not in _VARIANTS:
        raise ValueError(
            f"unknown set type '{kind}'; expected one of: {', '.join(_VARIANTS)}"
        )
    try:
        return _VARIANTS[kind](obj)
    except KeyError as exc:
        raise ValueError(f"set JSON of type '{kind}' missing field {exc}") from exc
