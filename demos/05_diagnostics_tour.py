"""Reading the geometry of a run off its trace.

A finished trace carries enough information to estimate the contraction
rate and the two angles that explain it: the separability angle between
consecutive segments at each M-point (bigger is better) and the
super-regularity angle at each Q-point (>= 90 degrees for convex sets).
Near a transversal point the theory predicts the rate c^2, where c is the
largest cosine between the two sets' normal spaces there (Lewis, Luke &
Malick, 2009); for two lines at angle theta that is cos^2(theta), and the
fitted rate should match it.
"""

import numpy as np

from altproj import (
    AffineSubspace,
    SolveOptions,
    angles_from_trace,
    fit_rate,
    run_exact,
)
from altproj.diagnostics import predicted_rate

X_AXIS = AffineSubspace([0, 0], [[1, 0]])
theta = np.pi / 4
DIAG = AffineSubspace([0, 0], [[np.cos(theta), np.sin(theta)]])

trace = run_exact(X_AXIS, DIAG, [1, 0], SolveOptions(1e-12, 500))

rate = fit_rate(trace)
print(f"fitted rate            : {rate.rate:.6f}  (quality: {rate.quality})")
print(f"regression cross-check : {rate.rate_regression:.6f}  R^2 = {rate.r_squared:.6f}")
# c^2 from the normal cones at the last iterate, the limit to within gap_tol
print(f"predicted rate c^2     : {predicted_rate(X_AXIS, DIAG, trace.zs[-1]):.6f}")

angles = angles_from_trace(trace)
print(f"min separability angle : {np.degrees(angles.min_separability):.2f} deg")
print(f"min super-regularity   : {np.degrees(angles.min_super_regularity):.2f} deg")

# Traces serialize to CSV (17 significant digits, bit-deterministic),
# which is also what `altproj solve --trace` writes.
print("\nfirst three CSV rows:")
print("\n".join(trace.to_csv().splitlines()[:4]))
