"""Closed sets with exact, deterministic nearest-point projections.

The base class checks the argument of project / distance / normal_cone
once.  Each variant implements _project and _normal_cone on the checked
vector, and declares its JSON schema (a linalg.Schema): kind, its "type",
and fields, which maps its constructor arguments to their JSON readers.
to_json, set_from_json and the field names in errors come from these two.
The drivers call the function _run_projection
returns, once per run: _project itself, or for Polyhedron a projection
that starts each QP from the previous one's working set.
normal_cone takes a point p within _on_set_tol(p, scale) of the set, scale
the size of its own data (_scale), and finds its active constraints by
the bound _on_set_tol(p) (_active), at any scale.
Nonconvex projections use the documented tie-breaks so traces
reproduce exactly:

  * Sphere center          -> first standard basis direction
  * FinitePointSet ties    -> lowest index
  * FixedRank ties at the  -> earlier SVD columns
    rank cut
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, qp
from .errors import DimensionMismatch, FieldError, Infeasible, RankDrop, UnsupportedVariant
from .linalg import Schema, integer, list_of, number, numbers, read_fields, string

ON_SET_TOL = 1e-9


@dataclass
class NormalCone:
    """Finite description of a normal cone: cone(rays) + span(lineality).

    rays:      (k, n) nonnegative-combination generators
    lineality: (m, n) free-sign directions (a subspace component)

    This is every cone's one form: {0} has no rows, and R^n (a finite point
    set's) has lineality I_n.  Rows need not be independent.  A ray is the
    outward normal of an active constraint (a ball's boundary when
    r - |p - c| <= _on_set_tol(p, |c| + r)).  At the centre, a point of a
    sphere when r is within that bound, a ball has {0} and a sphere the
    tie-break's e_0.
    """

    dim: int
    rays: np.ndarray
    lineality: np.ndarray


def _on_set_tol(p, scale=0.0):
    """ON_SET_TOL (1 + |p| + scale): how far from a set of that scale p may be and still count as a point of it.

    Relative, because projecting p again moves it by the rounding of its
    coordinates and of the set's data: a few ulps of |p|, which is more
    than ON_SET_TOL once |p| is large (about 1.5e-8 on a sphere of radius
    1e8), or of the set's own scale (ProjectableSet._scale), which is
    |c| + r for a ball or sphere: a point near 0 projected onto
    Ball([1e8, 0], 1e8) inherits the rounding of c + (r/|d|) d.
    """
    return ON_SET_TOL * (1.0 + linalg.norm(p) + scale)


def _active(A, b, p):
    """Rows of A x <= b within _on_set_tol(p) of their boundary at p, or past it, as a mask."""
    return b - A @ p <= _on_set_tol(p) * np.linalg.norm(A, axis=1)


class ProjectableSet(Schema):
    """Base class: a closed set with deterministic nearest-point projection."""

    ambient_dim: int
    _scale = 0.0        # the size of the set's own data, which its projections round at

    def project(self, z):
        return self._project(self._check(z))

    def distance(self, z):
        z = self._check(z)
        return linalg.norm(z - self._project(z))

    def normal_cone(self, point) -> NormalCone:
        """The normal cone at a point p of the set; ValueError if p is farther than _on_set_tol(p, _scale) from it."""
        p = self._check(point)
        d, tol = self.distance(p), _on_set_tol(p, self._scale)
        if not d <= tol:
            raise ValueError(f"{type(self).__name__} normal cone: the point is at distance {d:.6g} "
                             f"from the set, beyond ON_SET_TOL (1 + |p| + scale) = {tol:.6g}")
        return self._normal_cone(p)

    def to_json(self):
        return {"type": self.kind, **super().to_json()}

    def _field(self, name):
        """A constructor argument as errors name it: 'affine subspace basis'."""
        return f"{self.kind.replace('_', ' ')} {name}"

    def _scalar(self, name, value):
        """float(value), checked to be finite; the error names the argument."""
        x = float(value)
        if not math.isfinite(x):
            raise ValueError(f"{self._field(name)} contains NaN/Inf entries")
        return x

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

    def _cone(self, rays=(), lineality=()):
        """The NormalCone with these rows of rays and lineality; empty blocks by default."""
        n = self.ambient_dim
        return NormalCone(n, np.array(rays, float).reshape(-1, n), np.array(lineality, float).reshape(-1, n))


class Box(ProjectableSet):
    kind, fields = "box", {"lower": numbers, "upper": numbers}

    def __init__(self, lower, upper):
        self.lower = linalg.as_vector(lower, field=self._field("lower"))
        self.upper = linalg.as_vector(upper, dim=self.lower.shape[0], field=self._field("upper"))
        if np.any(self.lower > self.upper):
            raise ValueError("box lower bound exceeds upper bound")
        self.ambient_dim = self.lower.shape[0]

    def _project(self, z):
        return z.clip(self.lower, self.upper)

    def _normal_cone(self, p):
        # rows e_i x <= upper_i, -e_i x <= -lower_i, coordinate by coordinate
        n = self.ambient_dim
        rows = np.zeros((2 * n, n))
        rows[np.arange(2 * n), np.arange(2 * n) // 2] = np.tile([1.0, -1.0], n)
        bounds = np.column_stack([self.upper, -self.lower]).reshape(-1)
        return self._cone(rows[_active(rows, bounds, p)])


class _CenterRadius(ProjectableSet):
    """The constructor of Ball and Sphere."""

    fields = {"center": numbers, "radius": number}

    def __init__(self, center, radius):
        self.center = linalg.as_vector(center, field=self._field("center"))
        self.radius = self._scalar("radius", radius)
        if self.radius <= 0:
            raise ValueError(f"{self._field('radius')} must be positive")
        self.ambient_dim = self.center.shape[0]
        self._scale = linalg.norm(self.center) + self.radius


class Ball(_CenterRadius):
    kind = "ball"

    def _project(self, z):
        d = z - self.center
        r = linalg.norm(d)
        if r <= self.radius:
            return z.copy()
        return self.center + (self.radius / r) * d

    def _normal_cone(self, p):
        d = p - self.center
        n = linalg.norm(d)
        if n > 0 and self.radius - n <= _on_set_tol(p, self._scale):
            return self._cone([d / n])
        return self._cone()


class Sphere(_CenterRadius):
    kind = "sphere"

    def _project(self, z):
        d = z - self.center
        r = linalg.norm(d)
        if r == 0.0:
            # documented tie-break: first standard basis direction
            e = np.zeros(self.ambient_dim)
            e[0] = self.radius
            return self.center + e
        return self.center + (self.radius / r) * d

    def _normal_cone(self, p):
        # at the centre, the tie-break's direction
        d = p - self.center
        n = linalg.norm(d)
        return self._cone(lineality=[d / n if n > 0 else np.eye(self.ambient_dim)[0]])


class AffineSubspace(ProjectableSet):
    """anchor + span(basis rows); basis rows must be finite and orthonormal to 1e-10.

    A basis whose rows are signed unit vectors on distinct coordinates
    (matrix completion's observed-entry constraint, an axis line) is
    projected by selecting those coordinates: basis^T basis is then the 0/1
    diagonal of the free coordinates, so anchor + where(free, z - anchor, 0)
    is the dense anchor + basis^T (basis (z - anchor)) bit for bit, signed
    zeros included, since every product in the dense sums is 0*d or +-1*d.
    """

    kind, fields = "affine_subspace", {"anchor": numbers, "basis": numbers}

    def __init__(self, anchor, basis):
        self.anchor = linalg.as_vector(anchor, field=self._field("anchor"))
        self.ambient_dim = self.anchor.shape[0]
        basis = linalg.as_matrix(basis, cols=self.ambient_dim, field=self._field("basis"))
        self._free = _free_coordinates(basis)
        if self._free is None:
            gram = basis @ basis.T
            if np.abs(gram - np.eye(basis.shape[0])).max() > 1e-10:
                raise ValueError(f"{self._field('basis')} is not orthonormal")
            # one layout for the dense product, whatever the caller's: BLAS rounds
            # it differently for row- and column-major bases, and a set read
            # back from its JSON must project as the original does
            basis = np.asfortranarray(basis)
        self.basis = basis

    def _project(self, z):
        if self.basis.shape[0] == 0:
            return self.anchor.copy()
        if self._free is not None:
            return self.anchor + np.where(self._free, z - self.anchor, 0.0)
        return self.anchor + self.basis.T @ (self.basis @ (z - self.anchor))

    def _normal_cone(self, p):
        # the orthogonal complement of the direction space: U's columns past the orthonormal basis
        U, _, _ = linalg.require_full_column_rank(self.basis.T, "affine subspace basis is rank deficient")
        return self._cone(lineality=U[:, self.basis.shape[0]:].T)


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


class _NormalOffset(ProjectableSet):
    """The constructor of Hyperplane and Halfspace."""

    fields = {"normal": numbers, "offset": number}

    def __init__(self, normal, offset):
        self.normal = linalg.as_vector(normal, field=self._field("normal"))
        self._normal_sq = self.normal @ self.normal  # |normal|^2, the divisor of every projection
        if self._normal_sq == 0:
            raise ValueError(f"{self._field('normal')} must be nonzero")
        self.offset = self._scalar("offset", offset)
        self.ambient_dim = self.normal.shape[0]


class Hyperplane(_NormalOffset):
    """{x : <normal, x> = offset}."""

    kind = "hyperplane"

    def _project(self, z):
        n = self.normal
        return z - ((n @ z - self.offset) / self._normal_sq) * n

    def _normal_cone(self, p):
        n = self.normal / np.linalg.norm(self.normal)
        return self._cone(lineality=[n])


class Halfspace(_NormalOffset):
    """{x : <normal, x> <= offset}."""

    kind = "halfspace"

    def _project(self, z):
        n = self.normal
        excess = n @ z - self.offset
        if excess <= 0:
            return z.copy()
        return z - (excess / self._normal_sq) * n

    def _normal_cone(self, p):
        row = self.normal[None, :]
        return self._cone(row[_active(row, self.offset, p)] / np.linalg.norm(self.normal))


class FinitePointSet(ProjectableSet):
    kind, fields = "finite_point_set", {"points": list_of(numbers)}

    def __init__(self, points):
        points, field = list(points), self._field("points")
        if not points:
            raise ValueError(f"{field} must be nonempty")
        n = linalg.as_vector(points[0], field=field).shape[0]
        self.points = np.vstack([linalg.as_vector(p, n, field) for p in points])
        self.ambient_dim = n

    def _project(self, z):
        dists = np.linalg.norm(self.points - z, axis=1)
        return self.points[int(np.argmin(dists))].copy()  # lowest-index tie-break

    def _normal_cone(self, p):
        # at an isolated point every direction is normal
        return self._cone(lineality=np.eye(self.ambient_dim))


class FixedRankMatrices(ProjectableSet):
    """Matrices of rank <= r, flattened row-major into R^(rows*cols)."""

    kind, fields = "fixed_rank_matrices", {"rows": integer, "cols": integer, "rank": integer}

    def __init__(self, rows, cols, rank):
        self.rows, self.cols, self.rank = int(rows), int(cols), int(rank)
        if not (1 <= self.rank <= min(self.rows, self.cols)):
            raise ValueError(f"{self._field('rank')} must satisfy 1 <= rank <= min(rows, cols)")
        self.ambient_dim = self.rows * self.cols

    def _project(self, z):
        U, sigma, V = linalg.svd(z.reshape(self.rows, self.cols))
        r = self.rank
        trunc = U[:, :r] @ np.diag(sigma[:r]) @ V[:, :r].T  # Eckart-Young
        return trunc.reshape(-1)

    def _normal_cone(self, p):
        U, sigma, V = linalg.svd(p.reshape(self.rows, self.cols))
        if linalg.rank(sigma) < self.rank:
            raise RankDrop(f"matrix rank below {self.rank} at probe point")
        # normal space = { U_perp N V_perp^T }: entry (i, j, a, b) is Up[a, i] Vp[b, j], the
        # flattened outer product of column pair (i, j) (one product each; einsum would lose -0.0)
        Up, Vp = U[:, self.rank :].T, V[:, self.rank :].T
        return self._cone(lineality=Up[:, None, :, None] * Vp[None, :, None, :])


class Polyhedron(ProjectableSet):
    """{x : A_ineq x <= b_ineq, A_eq x = b_eq}; emptiness rejected at construction."""

    kind = "polyhedron"
    fields = {"A_ineq": numbers, "b_ineq": numbers, "A_eq": numbers, "b_eq": numbers, "dim": integer}

    def __init__(self, A_ineq, b_ineq, A_eq=None, b_eq=None, dim=None):
        if A_eq is None and b_eq is None:
            A_eq, b_eq = [], []
        elif A_eq is None or b_eq is None:
            raise ValueError("polyhedron needs both A_eq and b_eq, or neither")
        if dim is not None and dim < 1:
            raise ValueError(f"{self._field('dim')} must be at least 1")
        # rows are as long as A_ineq's, or A_eq's when A_ineq is [], or else dim, kept for to_json
        if dim is None and not len(A_ineq) and len(A_eq):
            dim = linalg.as_matrix(A_eq, field=self._field("A_eq")).shape[1]
        self.A_ineq = linalg.as_matrix(A_ineq, dim, self._field("A_ineq"))
        n = self.ambient_dim = self.A_ineq.shape[1]
        self.b_ineq = linalg.as_vector(b_ineq, len(self.A_ineq), self._field("b_ineq"))
        self.A_eq = linalg.as_matrix(A_eq, n, self._field("A_eq"))
        self.b_eq = linalg.as_vector(b_eq, len(self.A_eq), self._field("b_eq"))
        self.dim = None if len(self.A_ineq) or len(self.A_eq) else n
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
        return self._cone(self.A_ineq[_active(self.A_ineq, self.b_ineq, p)], self.A_eq)


@dataclass
class TransversalityResult:
    transversal: bool
    witness: np.ndarray | None = None


def check_transversality(A: ProjectableSet, B: ProjectableSet, point) -> TransversalityResult:
    """Decide whether N_A(p) intersects -N_B(p) only at the origin, at a point p of A and B.

    Sets of different dimensions raise DimensionMismatch, and a point off
    either set normal_cone's ValueError, naming the set and the distance.
    Two cones without rays are subspaces, decided by the rank of orthonormal
    bases of the two; otherwise small feasibility problems over the generator
    descriptions are each decided by the nearest-point QP.  The answer no
    carries a nonzero witness direction in N_A(p) and in -N_B(p).
    """
    if A.ambient_dim != B.ambient_dim:
        raise DimensionMismatch("A and B live in different ambient spaces")
    na, nb = A.normal_cone(point), B.normal_cone(point)
    if na.rays.shape[0] == 0 and nb.rays.shape[0] == 0:
        return _subspace_intersection(linalg.row_basis(na.lineality), linalg.row_basis(nb.lineality))
    return _cone_intersection(na, nb)


def _subspace_intersection(Qa, Qb):
    """Whether [Qa^T, -Qb^T] has full column rank, for orthonormal rows Qa and Qb.

    If not, a unit null vector (ca, cb) gives the witness Qa^T ca = Qb^T cb, of norm |ca| = |cb| > 0.
    """
    _, sigma, V = linalg.svd(np.hstack([Qa.T, -Qb.T]))
    r = linalg.rank(sigma)
    if r == V.shape[0]:
        return TransversalityResult(True)
    return TransversalityResult(False, Qa.T @ V[: Qa.shape[0], r])


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
        # g v = 1 with |g| = 1, so v is nonzero
        return TransversalityResult(False, a_cols @ sol[: ka + ma])
    return TransversalityResult(True)


_VARIANTS = {cls.kind: cls for cls in (
    Box, Ball, AffineSubspace, Hyperplane, Halfspace, Sphere, FinitePointSet,
    FixedRankMatrices, Polyhedron,
)}


def set_from_json(obj, where="set JSON") -> ProjectableSet:
    """The set a to_json dict describes, of the variant its "type" names; where names obj in errors."""
    kind = read_fields(obj, {"type": string}, "set", where)["type"]
    if kind not in _VARIANTS:
        raise FieldError(f"unknown set type '{kind}'; expected one of: {', '.join(_VARIANTS)}")
    try:
        return _VARIANTS[kind].from_json(obj, f"{where} of type '{kind}'")
    except Infeasible as exc:  # an empty polyhedron: read from JSON, it is bad input
        raise FieldError(f"{where}: {exc}") from exc
