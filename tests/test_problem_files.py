"""Problem files are read by one field reader, so every file ends in a documented exit.

A bad field exits 1 with a message that names it; any other file runs to a
documented status and exit code.  The fuzz replaces each field of each
bundled problem by six bad values; the properties mutate fields of bundled
and drawn problems, and run drawn two-set problems under every scheme.
"""

import contextlib
import copy
import io
import json
import math
import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from altproj import Polyhedron, SolveOptions, set_from_json
from altproj.cli import _COMPATIBLE, bundled_problem_path, main
from altproj.errors import Infeasible

from test_invariants import ALL, _random_set

BUNDLED = ("two_lines_45deg", "two_lines_60deg", "circle_line", "parallel_lines",
           "circle_system", "parabola_inclusion")
FUZZ_VALUES = [[1], "ab", {}, None, True, [[[1]]]]
STATUS_EXIT = {"Converged": 0, "MaxIters": 2, "Diverged": 2,
               "LinearizationInfeasible": 3, "RankDeficient": 3, "LeftChart": 3}
# the error that ends a file with exit 3, not a status: a value that overflows to
# NaN/Inf mid-run (an empty polyhedron is bad input and exits 1)
RUN_ERRORS = ("error: DimensionMismatch: ",)


def bundled(name):
    return json.loads(bundled_problem_path(name).read_text())


def field_paths(obj, path=()):
    """The path of every field of a JSON value: each key of each object, at any depth."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield path + (key,)
            yield from field_paths(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from field_paths(value, path + (i,))


def at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def replaced(obj, path, value):
    obj = copy.deepcopy(obj)
    at(obj, path[:-1])[path[-1]] = value
    return obj


def solve(directory, obj, *flags):
    """(exit code, stdout, stderr) of `altproj solve` on obj, written to a file in directory.

    numpy's RuntimeWarnings, which the suite turns into errors, are ignored,
    as they are outside it: an overflow is reported by the run's exit.
    """
    path = os.path.join(directory, "problem.json")
    with open(path, "w") as fh:
        json.dump(obj, fh)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main(["solve", "--problem", path, *flags])
    return code, out.getvalue(), err.getvalue()


def json_type(value):
    if type(value) is list:
        return "numbers" if all(json_type(x) in ("number", "numbers") for x in value) else "list"
    return "number" if type(value) in (int, float) else type(value).__name__


def names_field(message, obj, path, value):
    """Whether an error message names the field at path, by its key as a word.

    A value of the field's own JSON type (a number, or a list of numbers of
    another length) may instead clash with a field it is checked against,
    and the message then names that one: an affine subspace's anchor sets
    how many columns its basis must have, so a short anchor is reported as
    a basis of the wrong width; two sets of different dimensions are named
    by the fields that hold them.  Then the holder's and the siblings' keys
    count too.
    """
    keys = [k for k in path if isinstance(k, str)]
    words = {keys[-1]}
    if json_type(value) in ("number", "numbers") and json_type(value) == json_type(at(obj, path)):
        holder = path[: max(i for i, k in enumerate(path) if isinstance(k, str))]
        words |= set(at(obj, holder)) | set(keys[-2:-1])
    return any(re.search(rf"(?<!\w){re.escape(w)}(?!\w)", message) for w in words)


def assert_documented_run(code, out, err):
    """A run that loaded ends with a documented status and its exit code."""
    if code == 3 and err.startswith(RUN_ERRORS):
        return
    assert code in (0, 2, 3), (code, err)
    status = json.loads(out)["status"]
    assert STATUS_EXIT[status] == code, (status, code)


class TestFuzz:
    """Each field of each bundled problem replaced in turn by each of six bad values."""

    @staticmethod
    def valid(base, path, value):
        # an empty options block takes the defaults; a one-entry vector replaced by [1] stays one
        if path == ("options",):
            return value == {}
        old = at(base, path)
        return value == [1] and type(old) is list and len(old) == 1 and json_type(old[0]) == "number"

    @pytest.mark.parametrize("name", BUNDLED)
    def test_every_file_exits_documented(self, name, tmp_path):
        base = bundled(name)
        base_code = solve(tmp_path, base, "--max-iters", "200")[0]
        cases = [(path, value) for path in field_paths(base) for value in FUZZ_VALUES]
        assert len(cases) == {"circle_system": 156, "parabola_inclusion": 114}.get(name, 78)
        for path, value in cases:
            code, _, err = solve(tmp_path, replaced(base, path, value), "--max-iters", "200")
            if self.valid(base, path, value):
                assert code == base_code, (path, value, err)
            else:
                assert code == 1, (path, value, code)
                assert names_field(err, base, path, value), (path, value, err)

    def test_bool_is_not_a_number(self, tmp_path):
        for name, path in (("circle_line", ("M", "radius")), ("circle_line", ("options", "gap_tol")),
                           ("circle_system", ("system", "G", "outputs", 0, 0, "coeff"))):
            code, _, err = solve(tmp_path, replaced(bundled(name), path, True))
            assert code == 1
            assert err.endswith(f"{path[-1]}: expected a number, got true\n")

    def test_outputs_must_be_a_list(self, tmp_path):
        code, _, err = solve(tmp_path, replaced(bundled("circle_system"), ("system", "P", "outputs"), {}))
        assert (code, err) == (1, "error: polynomial map outputs: expected a list, got object\n")

    @pytest.mark.parametrize("field", ["U_lower", "U_upper"])
    def test_chart_bounds_checked_at_load(self, tmp_path, field):
        # under the default scheme, which does not use them
        code, _, err = solve(tmp_path, replaced(bundled("parabola_inclusion"), (field,), [[[1]]]))
        assert (code, err) == (1, f"error: field '{field}': expected a vector, got shape (1, 1, 1)\n")
        code, _, err = solve(tmp_path, replaced(bundled("parabola_inclusion"), (field,), [0, 1]))
        assert (code, err) == (1, f"error: field '{field}': expected dimension 1, got 2\n")

    @pytest.mark.parametrize("path, value, message", [
        (("M", "radius"), 2**63, f"sphere radius: expected a number, got {2**63}"),
        (("options", "max_iters"), 2**63, f"options max_iters: expected an integer, got {2**63}"),
        (("start",), [0, -(2**70)], f"field 'start': expected a list of numbers, got {-(2**70)} in it"),
    ])
    def test_integer_past_int64_rejected(self, tmp_path, path, value, message):
        # float() of a larger integer can raise OverflowError, and numpy takes none past int64
        code, _, err = solve(tmp_path, replaced(bundled("circle_line"), path, value))
        assert (code, err) == (1, f"error: {message}\n")

    def test_one_chart_bound_alone_rejected(self, tmp_path):
        prob = bundled("parabola_inclusion")
        del prob["U_upper"]
        assert solve(tmp_path, prob)[::2] == (1, "error: problem file missing field 'U_upper'\n")

    def test_nested_object_missing_a_field_named_by_its_place(self, tmp_path):
        for path, where in ((("Q",), "field 'Q'"), (("system", "G"), "constraint system G"),
                            (("problem",), "field 'problem'")):
            name = {"Q": "circle_line", "system": "circle_system", "problem": "parabola_inclusion"}[path[0]]
            code, _, err = solve(tmp_path, replaced(bundled(name), path, {}))
            assert code == 1
            assert err.startswith(f"error: {where} missing field '")


class TestSolveOptions:
    """The file, the flags and the Python API share SolveOptions' checks."""

    @pytest.mark.parametrize("field, flag, value, message", [
        ("gap_tol", "--tol", math.nan, "gap_tol must be a finite positive number, got nan"),
        ("gap_tol", "--tol", math.inf, "gap_tol must be a finite positive number, got inf"),
        ("gap_tol", "--tol", -1e-3, "gap_tol must be a finite positive number, got -0.001"),
        ("max_iters", "--max-iters", 0, "max_iters must be an integer >= 1, got 0"),
        ("max_iters", "--max-iters", -3, "max_iters must be an integer >= 1, got -3"),
    ])
    def test_file_and_flag_share_the_check(self, tmp_path, field, flag, value, message):
        prob = bundled("two_lines_45deg")
        assert solve(tmp_path, dict(prob, options={field: value}))[::2] == (1, f"error: {message}\n")
        assert solve(tmp_path, prob, flag, str(value))[::2] == (1, f"error: {message}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SolveOptions(**{field: value})

    @pytest.mark.parametrize("field, value, what", [
        ("gap_tol", "1e-3", "a number, got string"), ("gap_tol", True, "a number, got true"),
        ("max_iters", "3", "an integer, got string"), ("max_iters", 1.7, "an integer, got 1.7"),
        ("max_iters", 1e400, "an integer, got Infinity"), ("max_iters", 3.0, "an integer, got 3.0"),
    ])
    def test_wrong_type_in_file(self, tmp_path, field, value, what):
        prob = dict(bundled("two_lines_45deg"), options={field: value})
        assert solve(tmp_path, prob)[::2] == (1, f"error: options {field}: expected {what}\n")

    @pytest.mark.parametrize("kwargs", [
        {"gap_tol": math.nan}, {"gap_tol": math.inf}, {"gap_tol": "1e-3"}, {"gap_tol": True},
        {"max_iters": 1.7}, {"max_iters": "3"}, {"max_iters": math.inf}, {"max_iters": True},
    ], ids=str)
    def test_python_api(self, kwargs):
        (field,) = kwargs
        with pytest.raises(ValueError, match=f"^{field} must be "):
            SolveOptions(**kwargs)

    def test_integral_numpy_values_accepted(self):
        opts = SolveOptions(np.float64(1e-9), np.int64(5))
        assert (opts.gap_tol, opts.max_iters) == (1e-9, 5)


class TestPolyhedronJson:
    def test_no_rows_at_all_writes_its_dimension(self):
        P = Polyhedron([], [], dim=3)
        text = '{"type": "polyhedron", "A_ineq": [], "b_ineq": [], "A_eq": [], "b_eq": [], "dim": 3}'
        assert json.dumps(P.to_json()) == text
        again = set_from_json(json.loads(text))
        assert again.ambient_dim == 3 and again.project([1.0, 2.0, 3.0]).tolist() == [1.0, 2.0, 3.0]

    def test_equality_rows_alone_say_the_width(self):
        P = Polyhedron([], [], [[1.0, 1.0]], [1.0])
        text = json.dumps(P.to_json())
        assert text == '{"type": "polyhedron", "A_ineq": [], "b_ineq": [], "A_eq": [[1.0, 1.0]], "b_eq": [1.0]}'
        assert set_from_json(json.loads(text)).ambient_dim == 2

    @pytest.mark.parametrize("holder", ["Q", "M"])
    def test_empty_polyhedron_is_bad_input(self, tmp_path, holder):
        # x <= 0 and -x <= -1: no point; the API still raises Infeasible
        empty = {"type": "polyhedron", "A_ineq": [[1.0, 0.0], [-1.0, 0.0]], "b_ineq": [0.0, -1.0]}
        obj = dict(bundled("circle_line"), **{holder: empty})
        code, _, err = solve(tmp_path, obj)
        assert (code, err) == (1, f"error: field '{holder}': polyhedron is empty\n")
        with pytest.raises(Infeasible):
            Polyhedron(empty["A_ineq"], empty["b_ineq"])

    @pytest.mark.parametrize("obj, message", [
        ({"A_ineq": [], "b_ineq": []}, "polyhedron A_ineq: expected a matrix, got shape (0,)"),
        ({"A_ineq": [[1.0, 0.0]], "b_ineq": [1.0], "dim": 3}, "polyhedron A_ineq: expected 3 cols, got 2"),
        ({"A_ineq": [], "b_ineq": [], "dim": 0}, "polyhedron dim must be at least 1"),
        ({"A_ineq": [], "b_ineq": [], "dim": 2.0}, "polyhedron dim: expected an integer, got 2.0"),
    ])
    def test_bad_dimension_rejected(self, obj, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            set_from_json(dict(obj, type="polyhedron"))


# ---------------------------------------------------------------- properties

BAD_VALUES = ["ab", True, False, None, {}, [], [1], [[[1]]], 1.7, -1, 0, 3, math.nan, math.inf,
              -math.inf, 10**6, 2**64, -(10**400)]


@st.composite
def two_set_problems(draw):
    """A two-set problem file from two random sets in R^n, n <= 6, and a random start."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Q, M = (_random_set(draw, draw(st.sampled_from(ALL)), n, rng) for _ in range(2))
    return {"kind": "two_sets", "Q": Q.to_json(), "M": M.to_json(),
            "start": (rng.standard_normal(n) * 2).tolist(),
            "options": {"gap_tol": 1e-10, "epsilon": 0.3}}


@st.composite
def mutated_problems(draw):
    """(problem, path, new value) with one field of a bundled or drawn problem mutated.

    The new value is of a wrong type, a list of another shape, or a wrong
    value; a list field may instead have one of its entries replaced.
    """
    base = draw(st.one_of(st.sampled_from(BUNDLED).map(bundled), two_set_problems()))
    path = draw(st.sampled_from(list(field_paths(base))))
    old = at(base, path)
    shapes = [old[:-1], old + old[-1:], [old]] if isinstance(old, list) and old else []
    value = draw(st.sampled_from(BAD_VALUES + shapes))
    if isinstance(old, list) and old and draw(st.booleans()):
        i = draw(st.integers(0, len(old) - 1))
        value = replaced(old, (i,), draw(st.sampled_from(["ab", True, None, [1], math.nan, {}])))
    return base, path, value


class TestProperties:
    @given(case=mutated_problems())
    def test_mutation_exits_one_naming_the_field_or_runs(self, case):
        base, path, value = case
        with tempfile.TemporaryDirectory() as tmp:
            code, out, err = solve(tmp, replaced(base, path, value), "--max-iters", "50")
        if code == 1:
            assert names_field(err, base, path, value), (path, value, err)
        else:
            assert_documented_run(code, out, err)

    @given(prob=two_set_problems(), scheme=st.sampled_from(_COMPATIBLE["two_sets"]))
    def test_valid_problem_ends_with_documented_status(self, prob, scheme):
        with tempfile.TemporaryDirectory() as tmp:
            code, out, err = solve(tmp, prob, "--scheme", scheme, "--max-iters", "50")
        assert code in (0, 2), (code, err)
        assert_documented_run(code, out, err)
