import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altproj import Monomial, PolyMap
from altproj.errors import DimensionMismatch
from altproj.polymap import _TermSums

CIRCLE = PolyMap(2, [[Monomial(1, (2, 0)), Monomial(1, (0, 2)), Monomial(-1, (0, 0))]])


def reference_eval(F, x):
    """eval as a term-by-term loop over the monomials."""
    out = np.zeros(F.output_dim)
    for j, comp in enumerate(F.outputs):
        acc = 0.0
        for m in comp:
            term = m.coeff
            for xi, e in zip(x, m.exponents):
                if e:
                    term *= xi**e
            acc += term
        out[j] = acc
    return out


def reference_jacobian(F, x):
    """jacobian as a term-by-term loop over the monomials."""
    J = np.zeros((F.output_dim, F.input_dim))
    for j, comp in enumerate(F.outputs):
        for m in comp:
            for i, e in enumerate(m.exponents):
                if e == 0:
                    continue
                term = m.coeff * e
                for k, (xk, ek) in enumerate(zip(x, m.exponents)):
                    p = ek - 1 if k == i else ek
                    if p:
                        term *= xk**p
                J[j, i] += term
    return J


def _monomials(n):
    # total degree <= 4: each draw from 0..n-1 raises that variable's exponent by one
    exponents = st.lists(st.integers(0, n - 1), max_size=4).map(
        lambda picks: tuple(picks.count(i) for i in range(n))
    )
    return st.builds(Monomial, st.floats(-10.0, 10.0), exponents)


# exact zeros, and either sign with magnitudes from 1e-3 to 1e3
_coordinates = st.one_of(
    st.just(0.0),
    st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-3.0, 3.0)).map(lambda se: se[0] * 10.0 ** se[1]),
)


@st.composite
def _maps_and_points(draw):
    n = draw(st.integers(1, 10))
    components = draw(st.lists(st.lists(_monomials(n), max_size=6), max_size=12))
    x = np.array(draw(st.lists(_coordinates, min_size=n, max_size=n)))
    return PolyMap(n, components), x


def _assert_matches_reference(F, x):
    values, J = reference_eval(F, x), reference_jacobian(F, x)
    assert np.array_equal(F.eval(x), values)
    assert np.array_equal(F.jacobian(x), J)
    fx, Jx = F._linearize(x)
    assert np.array_equal(fx, values) and np.array_equal(Jx, J)
    # eval sums the value terms alone; the same numbers in the same order
    assert np.array_equal(F.eval(x), fx)


# at least 300 maps, and the profile's count when it asks for more (thorough: 2000)
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(case=_maps_and_points())
def test_eval_and_jacobian_match_reference_loops_bitwise(case):
    _assert_matches_reference(*case)


@pytest.mark.parametrize(
    "F",
    [PolyMap.identity(1), PolyMap.identity(4), PolyMap.constant(3, [2.5, -1.0, 0.0]),
     PolyMap.constant(2, []), PolyMap.empty(1), PolyMap.empty(5)],
    ids=repr,
)
def test_special_maps_match_reference_loops(F):
    n = F.input_dim
    for x in (np.zeros(n), np.linspace(-3.0, 2.0, n), np.full(n, 1e-3)):
        _assert_matches_reference(F, x)


def test_large_exponents_cost_one_power_each():
    # the one power table holds one entry per distinct (variable, exponent) that occurs
    # in a value or derivative term, so an exponent's value does not set the work or
    # memory of a call
    F = PolyMap(2, [[Monomial(2.0, (1_000_000, 3)), Monomial(-1.0, (0, 1))], [Monomial(0.5, (1_000_000, 0))]])
    assert F._sums.powers == [(0, 999_999), (0, 1_000_000), (1, 1), (1, 2), (1, 3)]
    for x in ([1.0 + 1e-7, -0.7], [-(1.0 - 1e-7), 2.0], [0.0, 1.5]):
        _assert_matches_reference(F, np.array(x))


def reference_table(expo):
    """(powers, index) of _TermSums as np.unique over the (k, d) rows of the factors builds them."""
    t, k = np.nonzero(expo)
    pairs, column = np.unique(np.column_stack([k, expo[t, k]]), axis=0, return_inverse=True)
    rank = np.arange(t.size) - np.searchsorted(t, t)
    index = np.zeros((rank.max(initial=0) + 1, len(expo)), dtype=np.intp)
    index[rank, t] = column.reshape(-1) + 1
    return [(var, d) for var, d in pairs.tolist()], tuple(index)


@st.composite
def _exponent_arrays(draw):
    # mostly zeros and small exponents, some near the intp limit, so rows sort as integers
    terms, n = draw(st.integers(0, 30)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    expo = rng.integers(0, 4, size=(terms, n)) * (rng.random((terms, n)) < 0.5)
    huge = rng.random((terms, n)) < 0.1
    expo[huge] = np.iinfo(np.intp).max - rng.integers(0, 3, size=int(huge.sum()))
    return expo.astype(np.intp)


@given(expo=_exponent_arrays())
def test_power_table_matches_unique_rows(expo):
    sums = _TermSums(np.ones(len(expo)), expo, np.zeros(len(expo), dtype=np.intp), 1)
    powers, index = reference_table(expo)
    assert sums.powers == powers
    assert len(sums.index) == len(index)
    assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(sums.index, index))


POWER_BASES = st.floats(allow_nan=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300, 1e300, -1e300,
     1.7976931348623157e308, -1.7976931348623157e308])


@given(expo=_exponent_arrays(), data=st.data())
def test_power_table_has_the_bits_of_numpy_scalar_powers(expo, data):
    # Python-float powers where they are finite, numpy's where one overflows to inf;
    # a drawn point with extreme entries, then 50 random ones, where a route other
    # than libm pow (x * x for d = 2, say) rounds differently once in a few thousand
    n = expo.shape[1]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    points = [np.array(data.draw(st.lists(POWER_BASES, min_size=n, max_size=n)))]
    points += list(rng.standard_normal((50, n)) * np.exp(rng.uniform(-5, 5, (50, 1))))
    sums = _TermSums(np.ones(len(expo)), expo, np.zeros(len(expo), dtype=np.intp), 1)
    for x in points:
        with np.errstate(over="ignore"):
            table = sums.table(x)
            reference = np.array([1.0] + [x[k] ** d for k, d in sums.powers])
        assert table.tobytes() == reference.tobytes()


def test_exponent_too_large_for_the_arrays_is_rejected():
    with pytest.raises(ValueError, match="exponents must be at most"):
        PolyMap(1, [[Monomial(1.0, (2**70,))]])
    # read from JSON, it is rejected earlier, as an integer past int64
    with pytest.raises(ValueError, match=rf"^monomial exponents\[0\]: expected an integer, got {2**70}$"):
        PolyMap.from_json({"input_dim": 1, "outputs": [[{"coeff": 1.0, "exponents": [2**70]}]]})


def test_overflow_gives_inf_with_runtime_warning():
    F = PolyMap(2, [[Monomial(1, (3, 0)), Monomial(-2, (0, 1))]])
    x = [1e200, 0.0]
    with pytest.warns(RuntimeWarning, match="overflow"):
        values = F.eval(x)
    with pytest.warns(RuntimeWarning, match="overflow"):
        J = F.jacobian(x)
    assert np.array_equal(values, [np.inf])
    assert np.array_equal(J, [[np.inf, -2.0]])


def test_identity_eval():
    m = PolyMap.identity(2)
    np.testing.assert_allclose(m.eval([1, 2]), [1, 2])


def test_circle_eval():
    np.testing.assert_allclose(CIRCLE.eval([2, 0]), [3.0])
    np.testing.assert_allclose(CIRCLE.eval([1, 0]), [0.0])


def test_eval_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        CIRCLE.eval([1, 2, 3])


@pytest.mark.parametrize("method", ["eval", "jacobian", "check_jacobian"])
@pytest.mark.parametrize("x", [[1.0, 2.0, 3.0], [np.nan, 0.0], [0.0, -np.inf]],
                         ids=["length", "nan", "inf"])
def test_public_methods_check_the_point(method, x):
    with pytest.raises(DimensionMismatch):
        getattr(CIRCLE, method)(x)


def test_circle_jacobian():
    np.testing.assert_allclose(CIRCLE.jacobian([2, 0]), [[4.0, 0.0]])


def test_identity_jacobian():
    m = PolyMap.identity(2)
    np.testing.assert_allclose(m.jacobian([3.0, -1.0]), np.eye(2))


def test_constant_jacobian_zero():
    m = PolyMap.constant(2, [5.0, -1.0])
    np.testing.assert_allclose(m.jacobian([1.0, 1.0]), np.zeros((2, 2)))


def test_check_jacobian_linear_map():
    assert PolyMap.identity(3).check_jacobian([0.3, -0.2, 1.0], h=1e-4) <= 1e-10


def test_check_jacobian_quadratic():
    m = PolyMap(1, [[Monomial(1, (2,))]])
    assert m.check_jacobian([1.0], h=1e-4) <= 1e-7


def test_check_jacobian_constant():
    assert PolyMap.constant(2, [4.0]).check_jacobian([1.0, 2.0], h=1e-4) <= 1e-12


@pytest.mark.parametrize("h", [0.0, -1e-5, np.nan, np.inf, -np.inf])
def test_check_jacobian_needs_a_finite_positive_step(h):
    with pytest.raises(ValueError, match="finite positive"):
        PolyMap.identity(2).check_jacobian([0.3, -0.2], h=h)


def test_check_jacobian_random_points():
    rng = np.random.default_rng(23)
    cubic = PolyMap(
        3,
        [
            [Monomial(0.5, (3, 0, 0)), Monomial(-2.0, (1, 1, 0))],
            [Monomial(1.0, (0, 2, 1)), Monomial(3.0, (0, 0, 1))],
        ],
    )
    for m in (PolyMap.identity(3), cubic):
        for _ in range(100):
            x = rng.uniform(-2, 2, size=3)
            dev = m.check_jacobian(x, h=1e-5)
            scale = 1.0 + np.linalg.norm(m.jacobian(x))
            assert dev <= 1e-6 * scale


def test_determinism():
    x = [0.123456, -0.7]
    a = CIRCLE.eval(x)
    b = CIRCLE.eval(x)
    assert np.array_equal(a, b)
    assert np.array_equal(CIRCLE.jacobian(x), CIRCLE.jacobian(x))


def test_empty_block():
    m = PolyMap.empty(3)
    assert m.output_dim == 0
    assert m.eval([1, 2, 3]).shape == (0,)
    assert m.jacobian([1, 2, 3]).shape == (0, 3)


def test_json_round_trip():
    obj = CIRCLE.to_json()
    assert obj["input_dim"] == 2
    again = PolyMap.from_json(obj)
    assert again == CIRCLE
    np.testing.assert_allclose(again.eval([2, 0]), [3.0])


def test_json_missing_field():
    with pytest.raises(ValueError, match="input_dim"):
        PolyMap.from_json({"outputs": []})
