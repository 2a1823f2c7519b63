"""Vector-valued polynomial maps with exact analytic Jacobians.

These stand in for every smooth map in the solvers (constraint blocks,
coordinate charts): polynomials are C-infinity, differentiate exactly,
and serialize to JSON without an expression interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FieldError
from .linalg import Schema, as_vector, integer, list_of, number

# exponents are compiled into an integer array (see PolyMap)
_MAX_EXPONENT = int(np.iinfo(np.intp).max)


@dataclass(frozen=True)
class Monomial(Schema):
    """coeff * prod_i x_i**exponents[i]."""

    coeff: float
    exponents: tuple[int, ...]

    kind = "monomial"
    fields = {"coeff": number, "exponents": list_of(integer)}

    def __post_init__(self):
        object.__setattr__(self, "coeff", float(self.coeff))
        exps = tuple(int(e) for e in self.exponents)
        if any(e < 0 for e in exps):
            raise ValueError("monomial exponents must be nonnegative")
        if any(e > _MAX_EXPONENT for e in exps):
            raise ValueError(f"monomial exponents must be at most {_MAX_EXPONENT}")
        object.__setattr__(self, "exponents", exps)


class PolyMap(Schema):
    """A polynomial map R^input_dim -> R^output_dim.

    outputs[j] is the list of Monomials of output coordinate j.
    output_dim = 0 (an empty constraint block) is legal everywhere.

    The constructor compiles the monomials into one sum of terms whose
    bins are [F(x); vec J(x)], m * (1 + n) of them for m outputs and n
    inputs.  The value terms come first, in monomial order: a coefficient,
    an exponent row and the output index j of each.  Then come the
    derivative terms, one per (value term, variable i with positive
    exponent): the coefficient c * e_i, the exponent row with e_i reduced
    by one, and the bin m + j * n + i of the Jacobian entry (j, i).
    _linearize(x) looks the factors up in one per-call table of x_k**d,
    with one entry per distinct (k, d) that occurs, so the table's size
    does not grow with an exponent's value.  It multiplies each term's
    factors variable by variable in coordinate order and sums with
    np.bincount, which adds in term order; no bin mixes value and
    derivative terms.  jacobian is its second part; eval sums only the
    value terms, the first T into the first m bins, in the same order.
    The table is built from numpy scalars, so each power is one libm pow
    call (numpy's array power can differ in the last bit) and an overflow
    gives inf with numpy's RuntimeWarning, not an OverflowError.  So every
    value is bit-identical to a term-by-term loop over the monomials.
    """

    kind = "polynomial map"
    fields = {"input_dim": integer, "outputs": list_of(list_of(Monomial.from_json))}

    def __init__(self, input_dim, outputs):
        self.input_dim = int(input_dim)
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        comps = []
        for comp in outputs:
            comp = [m if isinstance(m, Monomial) else Monomial(*m) for m in comp]
            for m in comp:
                if len(m.exponents) != self.input_dim:
                    raise FieldError(
                        f"monomial has {len(m.exponents)} exponents, "
                        f"map input_dim is {self.input_dim}"
                    )
            comps.append(tuple(comp))
        self.outputs = tuple(comps)

        n = self.input_dim
        terms = [(j, m) for j, comp in enumerate(self.outputs) for m in comp]
        coeff = np.array([m.coeff for _, m in terms], dtype=float)
        expo = np.array([m.exponents for _, m in terms], dtype=np.intp).reshape(-1, n)
        out = np.array([j for j, _ in terms], dtype=np.intp)
        t, i = np.nonzero(expo)
        reduced = expo[t]
        reduced[np.arange(t.size), i] -= 1
        self._sums = _TermSums(
            np.concatenate([coeff, coeff[t] * expo[t, i]]),
            np.vstack([expo, reduced]),
            np.concatenate([out, self.output_dim + out[t] * n + i]),
            self.output_dim * (1 + n),
        )

    @property
    def output_dim(self):
        return len(self.outputs)

    @staticmethod
    def identity(n):
        def unit(i):
            e = [0] * n
            e[i] = 1
            return [Monomial(1.0, tuple(e))]

        return PolyMap(n, [unit(i) for i in range(n)])

    @staticmethod
    def empty(input_dim):
        """A 0-row block (absent constraints)."""
        return PolyMap(input_dim, [])

    @staticmethod
    def constant(input_dim, values):
        zero = (0,) * input_dim
        return PolyMap(input_dim, [[Monomial(v, zero)] for v in values])

    def eval(self, x):
        value_terms = sum(map(len, self.outputs))
        return self._sums.at(as_vector(x, dim=self.input_dim), value_terms, self.output_dim)

    def jacobian(self, x):
        return self._linearize(as_vector(x, dim=self.input_dim))[1]

    def _linearize(self, x):
        """(F(x), J(x)) at a checked (input_dim,) float vector x, from one power table.

        F(x) is a copy, so keeping it does not keep the Jacobian's buffer.
        """
        sums = self._sums.at(x)
        m = self.output_dim
        return sums[:m].copy(), sums[m:].reshape(m, self.input_dim)

    def check_jacobian(self, x, h=1e-5):
        """Max entrywise |analytic - central finite difference| at x."""
        if h <= 0:
            raise ValueError("h must be positive")
        x = as_vector(x, dim=self.input_dim)
        J = self._linearize(x)[1]
        fd = np.zeros_like(J)
        for i in range(self.input_dim):
            step = np.zeros(self.input_dim)
            step[i] = h
            fd[:, i] = (self._linearize(x + step)[0] - self._linearize(x - step)[0]) / (2 * h)
        if J.size == 0:
            return 0.0
        return float(np.max(np.abs(J - fd)))

    def __eq__(self, other):
        return (
            isinstance(other, PolyMap)
            and self.input_dim == other.input_dim
            and self.outputs == other.outputs
        )

    def __repr__(self):
        return f"PolyMap({self.input_dim} -> {self.output_dim})"


class _TermSums:
    """Sums of terms coeff[t] * prod_k x_k**expo[t, k], term t added into bins[t].

    A power table holds 1.0 in column 0 and then x_k**d for each distinct
    (k, d) with d = expo[t, k] > 0 in some term t, sorted by k and then d, so
    its length is bounded by the number of factors, not by the exponents'
    values.  index[r] holds, for every term, the table column of its r-th
    factor with positive exponent in coordinate order, or column 0 once a
    term has run out of such factors; multiplying by that 1.0 is exact.
    """

    def __init__(self, coeff, expo, bins, size):
        t, k = np.nonzero(expo)  # term by term, in coordinate order
        factors = list(zip(k.tolist(), expo[t, k].tolist()))
        self.powers = sorted(set(factors))
        column = {f: c for c, f in enumerate(self.powers, 1)}
        rank = np.arange(t.size) - np.searchsorted(t, t)
        # at least one row, so that at() has a first factor even when no term has one
        index = np.zeros((rank.max(initial=0) + 1, len(expo)), dtype=np.intp)
        index[rank, t] = [column[f] for f in factors]
        self.index = tuple(index)
        self.coeff = coeff
        self.bins = bins
        self.size = size

    def table(self, x):
        """The power table at the point x: 1.0, then x[k]**d for each (k, d) in powers.

        A Python float power calls libm pow, as numpy's scalar power does,
        at a fraction of the cost; only a NaN base keeps its sign bit, which
        numpy's may clear.  It raises OverflowError where numpy's gives inf
        with a RuntimeWarning, so then the table takes numpy's.
        """
        xs = x.tolist()
        try:
            return np.array([1.0] + [xs[k] ** d for k, d in self.powers])
        except OverflowError:
            return np.array([1.0] + [x[k] ** d for k, d in self.powers])

    def at(self, x, terms=None, size=None):
        """The (size,) sums at the point x.

        Given terms and size, the sums of the first terms terms alone, into
        size bins; the bins of those terms must lie below size.
        """
        table = self.table(x)
        first, *rest = self.index
        vals = self.coeff[:terms] * table.take(first[:terms])
        for columns in rest:
            vals *= table.take(columns[:terms])
        size = self.size if size is None else size
        sums = np.bincount(self.bins[:terms], weights=vals, minlength=size)
        return sums.astype(float, copy=False)  # bincount gives int64 when there are no terms
