"""Geometric diagnostics computed from iteration traces.

Angles come in two families measured on consecutive triples
(z_k, x_k, z_{k+1}): the separability angle at the M-point x_k and the
super-regularity angle at the next Q-point z_{k+1}.  Rates are measured
on the gap sequence |z_k - x_k|, the quantity the local contraction
argument actually bounds; the trailing-half window discards
pre-asymptotic iterations.  predicted_rate gives the theory's rate.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import linalg
from .alternating import IterationTrace
from .errors import InsufficientData
from .sets import _subspace_intersection

_GOOD_FIT_REL = 0.05


@dataclass
class AngleReport:
    separability: list = field(default_factory=list)
    super_regularity: list = field(default_factory=list)
    skipped: int = 0

    @property
    def min_separability(self):
        return min(self.separability) if self.separability else float("nan")

    @property
    def min_super_regularity(self):
        return min(self.super_regularity) if self.super_regularity else float("nan")

    def to_json(self):
        return {
            "separability": self.separability,
            "super_regularity": self.super_regularity,
            "min_separability": self.min_separability,
            "min_super_regularity": self.min_super_regularity,
            "skipped": self.skipped,
        }


@dataclass
class RateReport:
    ratios: list
    rate: float                 # geometric-mean contraction over the trailing half
    rate_regression: float      # exp(slope) of the log-gap regression
    r_squared: float
    quality: str                # "good" when both estimates agree within 5%
    contracting: bool

    def to_json(self):
        return asdict(self)


def _rowdot(u, v):
    """u[k] @ v[k] for every row k; the batched matmul sums as the 1-D product does."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def angles_from_trace(trace: IterationTrace) -> AngleReport:
    """Separability and super-regularity angles along a two-set trace.

    A triple is skipped when any of its three segments has norm <= floor,
    100 machine epsilons of the largest gap.
    """
    if trace.xs is None or len(trace.zs) < 2:
        raise InsufficientData("need at least 2 iterations with projected points")
    if np.shape(trace.xs[0]) != np.shape(trace.zs[0]):
        raise InsufficientData("trace points live in different spaces; no angles")
    zs = np.array(trace.zs)
    z, z1, x = zs[:-1], zs[1:], np.array(trace.xs[:-1])
    segs = (z - x, z1 - x, z - z1)
    norms = np.sqrt([_rowdot(s, s) for s in segs])
    floor = 100 * np.finfo(float).eps * np.max(trace.gaps)
    keep = ~(norms <= floor).any(axis=0)
    kept = int(keep.sum())
    if not kept:
        raise InsufficientData("all triples were degenerate")
    if kept < keep.size:
        segs, norms = [s[keep] for s in segs], norms[:, keep]
    u, v, w = segs
    nu, nv, nw = norms
    # the angle at x between z - x and z1 - x; at z1 between z - z1 and x - z1
    sep = np.arccos((_rowdot(u, v) / (nu * nv)).clip(-1.0, 1.0))
    sup = np.arccos((_rowdot(w, -v) / (nw * nv)).clip(-1.0, 1.0))
    return AngleReport(sep.tolist(), sup.tolist(), keep.size - kept)


def fit_rate(trace: IterationTrace) -> RateReport:
    """Contraction rate of the gap sequence.

    Geometric mean of gap ratios over the trailing half of the usable
    iterations, cross-checked against a log-linear regression.
    """
    gaps = np.asarray(trace.gaps, dtype=float)
    # keep the leading contiguous run of gaps above the noise floor
    n = int(np.argmin(np.append(gaps > 100 * np.finfo(float).eps, False)))
    g = gaps[:n]
    if n < 6:
        raise InsufficientData(f"only {n} gaps above the noise floor, need 6")
    ratios = g[1:] / g[:-1]
    half = len(ratios) // 2
    rate = float(np.exp(np.log(ratios[half:]).mean()))
    # the least-squares line through (k, log g_k), centred: its slope is
    # dk.total / dk.dk and its residuals total - slope * dk
    log_g = np.log(g[half:])
    dk = np.arange(log_g.size) - (log_g.size - 1) / 2
    total = log_g - log_g.mean()
    slope = float(dk @ total) / float(dk @ dk)
    rate_reg = float(np.exp(slope))
    resid = total - slope * dk
    denom = float(total @ total)
    r2 = 1.0 - float(resid @ resid) / denom if denom > 0 else 1.0
    quality = "good" if abs(rate_reg - rate) <= _GOOD_FIT_REL * rate else "poor"
    return RateReport(
        ratios=ratios.tolist(),
        rate=rate,
        rate_regression=rate_reg,
        r_squared=r2,
        quality=quality,
        contracting=rate < 1.0 - 1e-9,
    )


def predicted_rate(Q, M, z):
    """c^2, the rate of exact AP near a transversal point z of Q and M (Lewis, Luke & Malick, 2009).

    c is sigma_max(Qa Qb^T), Qa and Qb orthonormal bases of two subspace cones, each
    built once and decided transversal by check_transversality's rank test.  A point
    off a set raises ValueError; a cone with rays, a cone that is all of R^n and a
    pair not transversal, InsufficientData, in that order.
    """
    cones = Q.normal_cone(z), M.normal_cone(z)
    if any(c.rays.shape[0] for c in cones):
        raise InsufficientData("a normal cone at the point has rays; c needs two subspace cones")
    Qa, Qb = (linalg.row_basis(c.lineality) for c in cones)
    if Q.ambient_dim in (Qa.shape[0], Qb.shape[0]):
        raise InsufficientData("a normal cone at the point is all of R^n, as at a finite set's point")
    if not _subspace_intersection(Qa, Qb).transversal:
        raise InsufficientData("the sets are not transversal at the point")
    return float(linalg.svd(Qa @ Qb.T)[1].max(initial=0.0)) ** 2
