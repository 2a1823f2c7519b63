"""Machine-speed calibration: a fixed kernel timed between the solves.

The benchmark runs on a few cores of a shared host.  There the same solve
takes from 1x to 2x its best time, depending on what the other tenants do.
The slow stretches last from milliseconds to minutes, and the CPU time of
the process grows with its wall time, so no clock of the process removes
them.  A fixed kernel that runs between the solves sees the same slowdown.

The kernel is a mix of three kinds of work that the workloads do:
interpreted Python, numpy calls on short vectors, and products with a
900x450 matrix.  Each workload names its own mix (README, "Machine-speed
calibration").  The kernel uses numpy only, never the package, so no change
to the package can move it.

``Calibrator.between(solve_s)`` runs kernel units until they make up
``SHARE`` of the solve time, so the units sample the machine at the same
moments as the solves, in proportion to their length.  ``speed(kernel,
units)`` is the kernel's reference unit time over its mean unit time: about
1 at the reference speed, below 1 when the machine is slowed down.  A solve
time multiplied by it is the time at the reference speed.
"""

from __future__ import annotations

import time

import numpy as np

SHARE = 0.1  # calibration time / solve time
# Median time of each kind of work, alone, on the reference machine (README,
# "Machine-speed calibration").  They only set the scale of the reported
# times; a comparison of two versions of the package does not depend on them.
KIND_REF_S = {"python": 80e-6, "numpy_small": 220e-6, "dense": 350e-6}


class Kernel:
    """One unit of fixed work: `mix` maps each kind of work to its repeats per unit.

    The kinds slow down by different amounts on a busy machine: the dense
    products least, short numpy calls most.  Each workload's mix is chosen
    so that, round by round, the kernel slows down as much as its solves.
    """

    def __init__(self, mix):
        self.ref_s = sum(KIND_REF_S[kind] * count for kind, count in mix.items())
        if self.ref_s <= 0:
            raise ValueError("empty calibration mix")
        self.plan = [getattr(self, kind) for kind, count in mix.items() for _ in range(count)]
        rng = np.random.default_rng(20181103)
        self.basis = rng.standard_normal((900, 450))  # lowrank_completion's affine basis
        self.vec = rng.standard_normal(900)
        self.short = [rng.standard_normal(10) for _ in range(6)]
        self.table = {i: (i, float(i)) for i in range(64)}

    def python(self):
        acc = 0.0
        for i in range(400):  # interpreted bookkeeping: dict, tuples, float arithmetic
            k, v = self.table[i & 63]
            acc += v * k if i % 3 else -v
        return acc

    def numpy_small(self):
        acc = 0.0
        for x in self.short:  # per-call overhead of numpy on 10-vectors
            for y in self.short:
                acc += float(np.dot(x, y)) + float(np.linalg.norm(x - y))
        return acc

    def dense(self):
        c = self.basis.T @ self.vec
        return float((self.basis @ c)[0])

    def run(self):
        acc = 0.0
        for part in self.plan:
            acc += part()
        return acc


def speed(kernel, units):
    """The kernel's reference unit time over the mean of `units` (seconds each)."""
    return kernel.ref_s / float(np.mean(units))


class Calibrator:
    def __init__(self, mix):
        self.kernel = Kernel(mix)
        self.units = []  # seconds per unit, in the order run
        self.solve_s = 0.0
        self.spent_s = 0.0
        for _ in range(20):  # numpy's first-call costs, kept out of every record
            self.kernel.run()

    def sample(self, count):
        """Run `count` units back to back and return their times."""
        clock = time.perf_counter
        out = []
        for _ in range(count):
            t0 = clock()
            self.kernel.run()
            out.append(clock() - t0)
        return out

    def between(self, solve_s):
        """Account `solve_s` of solving, then run units until they make up SHARE of it."""
        self.solve_s += solve_s
        clock = time.perf_counter
        while self.spent_s < SHARE * self.solve_s:
            t0 = clock()
            self.kernel.run()
            dt = clock() - t0
            self.units.append(dt)
            self.spent_s += dt
