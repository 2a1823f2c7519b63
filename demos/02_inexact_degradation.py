"""How projection error degrades the convergence rate.

The inexact driver accepts projections that may be off by a relative
factor eps. For two lines at 45 degrees the exact per-cycle rate is
0.5, and the theory predicts the inexact rate is at most 0.5 + eps
(the constant in front of eps is 1 for an affine Q). We corrupt the
exact projector with seeded random errors of relative size eps and
watch the fitted rate climb.
"""

import numpy as np

from altproj import (
    AffineSubspace,
    SolveOptions,
    fit_rate,
    run_inexact,
)

X_AXIS = AffineSubspace([0, 0], [[1, 0]])
DIAG = AffineSubspace([0, 0], [[2**-0.5, 2**-0.5]])

print(f"{'eps':>6} {'status':>10} {'iters':>6} {'fitted rate':>12} {'bound':>7}")
for eps in (0.0, 0.01, 0.05, 0.1, 0.2):
    trace = run_inexact(X_AXIS, DIAG, [1, 0], eps, seed=42, opts=SolveOptions(1e-10, 2000))
    rate = fit_rate(trace).rate
    print(
        f"{eps:>6.2f} {trace.status:>10} {trace.iterations:>6}"
        f" {rate:>12.6f} {0.5 + eps:>7.2f}"
    )

# eps = 0 reproduces the exact run bit for bit: same projections, no noise.
from altproj import run_exact

exact = run_exact(X_AXIS, DIAG, [1, 0], SolveOptions(1e-10, 2000))
zero = run_inexact(X_AXIS, DIAG, [1, 0], 0.0, seed=42, opts=SolveOptions(1e-10, 2000))
identical = np.array_equal(exact.gaps, zero.gaps)
print(f"\neps=0 trace identical to exact run: {identical}")
