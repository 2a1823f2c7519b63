import json
from importlib import resources

import numpy as np
import pytest

from altproj import IterationTrace, set_from_json
from altproj.cli import bundled_problem_path, load_problem, main

NAN, INF = float("nan"), float("inf")
POLYHEDRON = {"type": "polyhedron", "A_ineq": [[1, 0]], "b_ineq": [1], "A_eq": [[0, 1]], "b_eq": [0]}
# (set JSON, the field its error names, test id)
NON_FINITE_FIELDS = [
    (dict(POLYHEDRON, A_ineq=[[NAN, 0]]), "polyhedron A_ineq", "A_ineq"),
    (dict(POLYHEDRON, b_ineq=[NAN]), "polyhedron b_ineq", "b_ineq"),
    (dict(POLYHEDRON, A_eq=[[0, INF]]), "polyhedron A_eq", "A_eq"),
    (dict(POLYHEDRON, b_eq=[-INF]), "polyhedron b_eq", "b_eq"),
    ({"type": "box", "lower": [NAN, 0], "upper": [1, 1]}, "box lower", "box-lower"),
    ({"type": "box", "lower": [0, 0], "upper": [1, INF]}, "box upper", "box-upper"),
    ({"type": "ball", "center": [INF, 0], "radius": 1}, "ball center", "ball-center"),
    ({"type": "ball", "center": [0, 0], "radius": NAN}, "ball radius", "ball-radius"),
    ({"type": "sphere", "center": [0, NAN], "radius": 1}, "sphere center", "sphere-center"),
    ({"type": "sphere", "center": [0, 0], "radius": INF}, "sphere radius", "sphere-radius"),
    ({"type": "affine_subspace", "anchor": [NAN, 0], "basis": [[1, 0]]}, "affine subspace anchor",
     "affine-anchor"),
    ({"type": "hyperplane", "normal": [1, INF], "offset": 0}, "hyperplane normal",
     "hyperplane-normal"),
    ({"type": "hyperplane", "normal": [1, 0], "offset": NAN}, "hyperplane offset",
     "hyperplane-offset"),
    ({"type": "halfspace", "normal": [NAN, 1], "offset": 0}, "halfspace normal",
     "halfspace-normal"),
    ({"type": "halfspace", "normal": [1, 0], "offset": -INF}, "halfspace offset",
     "halfspace-offset"),
    ({"type": "finite_point_set", "points": [[0, 0], [1, NAN]]}, "finite point set points",
     "finite-points"),
]
# (set JSON in R^2, the start of its error message, test id)
BAD_SHAPE_FIELDS = [
    ({"type": "affine_subspace", "anchor": [0, 0], "basis": [[1, 0, 0, 1]]},
     "affine subspace basis: expected 2 cols, got 4", "affine-basis-cols"),
    ({"type": "affine_subspace", "anchor": [0, 0], "basis": [1, 0]},
     "affine subspace basis: expected a matrix, got shape (2,)", "affine-basis-vector"),
    (dict(POLYHEDRON, A_eq=[[1, 0, 0, 0]], b_eq=[0, 0]), "polyhedron A_eq: expected 2 cols, got 4",
     "A_eq-cols"),
    (dict(POLYHEDRON, b_ineq=[1, 2]), "polyhedron b_ineq: expected dimension 1, got 2", "b_ineq"),
    (dict(POLYHEDRON, b_eq=[]), "polyhedron b_eq: expected dimension 1, got 0", "b_eq"),
    ({"type": "box", "lower": [0, 0], "upper": [1]}, "box upper: expected dimension 2, got 1",
     "box-upper"),
    ({"type": "ball", "center": [[0, 0]], "radius": 1},
     "ball center: expected a vector, got shape (1, 2)", "ball-center"),
    ({"type": "finite_point_set", "points": [[0, 0], [1, 1, 1]]},
     "finite point set points: expected dimension 2, got 3", "finite-points"),
]

TWO_LINES = {
    "kind": "two_sets",
    "Q": {"type": "affine_subspace", "anchor": [0, 0], "basis": [[1, 0]]},
    "M": {
        "type": "affine_subspace",
        "anchor": [0, 0],
        "basis": [[2**-0.5, 2**-0.5]],
    },
    "start": [1, 0],
}


def write_problem(tmp_path, obj, name="prob.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestSolve:
    def test_converged_exit_zero(self, tmp_path, capsys):
        path = write_problem(tmp_path, TWO_LINES)
        assert main(["solve", "--problem", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "Converged"
        assert out["rate"] == pytest.approx(0.5, abs=1e-6)

    def test_missing_field_names_it(self, tmp_path, capsys):
        bad = {k: v for k, v in TWO_LINES.items() if k != "Q"}
        path = write_problem(tmp_path, bad)
        assert main(["solve", "--problem", path]) == 1
        assert "'Q'" in capsys.readouterr().err

    def test_malformed_json_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["solve", "--problem", str(path)]) == 1
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize("data", [b"{not json", b"\xff\xfe", b"\x80"], ids=["text", "bom", "not-utf8"])
    def test_invalid_json_names_the_file(self, tmp_path, capsys, data):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        assert main(["solve", "--problem", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: not valid JSON: ")

    def test_deeply_nested_json_exit_one(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        assert main(["solve", "--problem", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: JSON nested too deeply to read\n"

    def test_nonexistent_file_exit_one(self, capsys):
        assert main(["solve", "--problem", "/nonexistent.json"]) == 1

    def test_not_converged_exit_two(self, tmp_path, capsys):
        prob = dict(TWO_LINES)
        prob["options"] = {"max_iters": 2}
        path = write_problem(tmp_path, prob)
        assert main(["solve", "--problem", path]) == 2
        assert json.loads(capsys.readouterr().out)["status"] == "MaxIters"

    def test_rank_deficient_chart_writes_trace_exit_three(self, tmp_path, capsys):
        # F(t) = (t^2, t^3) has a zero Jacobian at the start t = 0
        cusp = {"input_dim": 1, "outputs": [[{"coeff": 1, "exponents": [2]}],
                                            [{"coeff": 1, "exponents": [3]}]]}
        path = write_problem(tmp_path, {
            "kind": "inclusion",
            "problem": {"F": cusp, "Q": {"type": "hyperplane", "normal": [1, 0], "offset": 1}},
            "start": [0], "U_lower": [-10], "U_upper": [10],
        })
        tr = tmp_path / "t.csv"
        assert main(["solve", "--problem", path, "--scheme", "approximate", "--trace", str(tr)]) == 3
        assert json.loads(capsys.readouterr().out)["status"] == "RankDeficient"
        trace = IterationTrace.from_csv(tr.read_text())
        np.testing.assert_array_equal(trace.zs, [[0.0, 0.0]])
        np.testing.assert_array_equal(trace.gaps, [1.0])

    def test_left_chart_writes_trace_exit_three(self, tmp_path, capsys):
        # the third step from t = 2.4 toward y1 = 0 leaves the chart box (0.5, 2.5)
        prob = json.loads(bundled_problem_path("parabola_inclusion").read_text())
        prob["problem"]["Q"] = {"type": "hyperplane", "normal": [0, 1], "offset": 0}
        path = write_problem(tmp_path, dict(prob, start=[2.4], U_lower=[0.5], U_upper=[2.5]))
        tr = tmp_path / "t.csv"
        assert main(["solve", "--problem", path, "--scheme", "approximate", "--trace", str(tr)]) == 3
        assert json.loads(capsys.readouterr().out)["status"] == "LeftChart"
        trace = IterationTrace.from_csv(tr.read_text())
        assert len(trace.gaps) == 3
        np.testing.assert_array_equal(trace.zs[0], [2.4, 2.4 * 2.4])

    def test_negative_eps_names_it(self, tmp_path, capsys):
        path = write_problem(tmp_path, TWO_LINES)
        args = ["solve", "--problem", path, "--scheme", "inexact", "--eps", "-0.1"]
        assert main(args) == 1
        assert "epsilon" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", [-0.1, NAN, INF])
    def test_bad_eps_in_file_names_it(self, tmp_path, capsys, eps):
        path = write_problem(tmp_path, dict(TWO_LINES, options={"epsilon": eps}))
        assert main(["solve", "--problem", path]) == 1
        assert "bad options block: epsilon must be finite and nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_eps_flag_names_it(self, tmp_path, capsys, eps):
        path = write_problem(tmp_path, TWO_LINES)
        assert main(["solve", "--problem", path, "--scheme", "inexact", "--eps", eps]) == 1
        assert "bad option: epsilon must be finite" in capsys.readouterr().err

    def test_eps_flag_overrides_file(self, tmp_path, capsys):
        path = write_problem(tmp_path, dict(TWO_LINES, options={"epsilon": 0.05}))

        def trace(name, *flags):
            out = tmp_path / name
            main(["solve", "--problem", path, "--trace", str(out), *flags])
            return out.read_bytes()

        from_file = trace("a.csv", "--scheme", "inexact")
        overridden = trace("b.csv", "--scheme", "inexact", "--eps", "0")
        exact = trace("c.csv")
        capsys.readouterr()
        # eps = 0 makes the inexact run the exact one, bit for bit
        assert overridden == exact != from_file

    def test_trace_csv_deterministic(self, tmp_path, capsys):
        path = write_problem(tmp_path, TWO_LINES)
        t1 = tmp_path / "a.csv"
        t2 = tmp_path / "b.csv"
        assert main(["solve", "--problem", path, "--trace", str(t1)]) == 0
        assert main(["solve", "--problem", path, "--trace", str(t2)]) == 0
        capsys.readouterr()
        assert t1.read_bytes() == t2.read_bytes()
        header = t1.read_text().splitlines()[0]
        assert header == "k,gap,dist_Q,dist_M,z_0,z_1"

    def test_trace_round_trips(self, tmp_path, capsys):
        path = write_problem(tmp_path, TWO_LINES)
        tr = tmp_path / "t.csv"
        main(["solve", "--problem", path, "--trace", str(tr)])
        capsys.readouterr()
        trace = IterationTrace.from_csv(tr.read_text())
        assert trace.gaps[0] == pytest.approx(np.linalg.norm([0.5, -0.5]))

    def test_inexact_seeded_by_env(self, tmp_path, capsys, monkeypatch):
        prob = dict(TWO_LINES)
        prob["options"] = {"epsilon": 0.05}
        path = write_problem(tmp_path, prob)
        t1 = tmp_path / "a.csv"
        t2 = tmp_path / "b.csv"
        t3 = tmp_path / "c.csv"
        args = ["solve", "--problem", path, "--scheme", "inexact"]
        monkeypatch.setenv("ALTPROJ_SEED", "7")
        main(args + ["--trace", str(t1)])
        main(args + ["--trace", str(t2)])
        monkeypatch.setenv("ALTPROJ_SEED", "8")
        main(args + ["--trace", str(t3)])
        capsys.readouterr()
        assert t1.read_bytes() == t2.read_bytes()
        assert t1.read_bytes() != t3.read_bytes()

    @pytest.mark.parametrize("seed", ["abc", "-1", "1.5", ""])
    def test_bad_env_seed_names_it(self, tmp_path, capsys, monkeypatch, seed):
        path = write_problem(tmp_path, TWO_LINES)
        monkeypatch.setenv("ALTPROJ_SEED", seed)
        # only the inexact scheme reads the seed
        assert main(["solve", "--problem", path, "--scheme", "exact"]) == 0
        capsys.readouterr()
        assert main(["solve", "--problem", path, "--scheme", "inexact", "--eps", "0.1"]) == 1
        assert capsys.readouterr().err == f"error: ALTPROJ_SEED must be an integer >= 0, got {seed!r}\n"

    def test_non_finite_basis_names_it(self, tmp_path, capsys):
        prob = dict(TWO_LINES)
        prob["Q"] = {"type": "affine_subspace", "anchor": [0, 0], "basis": [[float("nan"), 0]]}
        path = write_problem(tmp_path, prob)
        assert main(["solve", "--problem", path]) == 1
        assert "basis contains NaN/Inf" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "Q, field", [pytest.param(q, field, id=i) for q, field, i in NON_FINITE_FIELDS]
    )
    def test_non_finite_polyhedron_names_it(self, tmp_path, capsys, Q, field):
        # every set field, not only the polyhedron's: exit 1 naming the field
        prob = dict(TWO_LINES, Q=Q)
        path = write_problem(tmp_path, prob)
        assert main(["solve", "--problem", path]) == 1
        assert f"{field} contains NaN/Inf" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "Q, message", [pytest.param(q, message, id=i) for q, message, i in BAD_SHAPE_FIELDS]
    )
    def test_wrongly_shaped_field_names_it(self, tmp_path, capsys, Q, message):
        # rejected on load, not reshaped, and exit 1 like any bad input
        path = write_problem(tmp_path, dict(TWO_LINES, Q=Q))
        assert main(["solve", "--problem", path]) == 1
        assert f"error: {message}\n" == capsys.readouterr().err

    def test_inclusion_dimension_mismatch_exit_one(self, tmp_path, capsys):
        prob = json.loads(bundled_problem_path("parabola_inclusion").read_text())
        prob["problem"]["Q"] = {"type": "hyperplane", "normal": [0, 1, 0], "offset": 0}
        path = write_problem(tmp_path, prob)
        assert main(["solve", "--problem", path]) == 1
        assert "F maps into R^2, Q lives in R^3" in capsys.readouterr().err

    def test_inclusion_output_count_mismatch_names_outputs(self, tmp_path, capsys):
        # the mutated field is F's outputs, so the message names them as well as Q
        prob = json.loads(bundled_problem_path("parabola_inclusion").read_text())
        prob["problem"]["F"]["outputs"] = prob["problem"]["F"]["outputs"][:1]
        path = write_problem(tmp_path, prob)
        assert main(["solve", "--problem", path]) == 1
        assert capsys.readouterr().err == ("error: inclusion problem Q: F maps into R^1,"
                                           " Q lives in R^2; F's outputs must match Q\n")

    @pytest.mark.parametrize(
        "name, field, value",
        [
            ("circle_line", "start", [NAN, 0]),
            ("circle_line", "start", [0, -INF]),
            ("parabola_inclusion", "start", [NAN]),
            ("parabola_inclusion", "U_lower", [-INF]),
            ("parabola_inclusion", "U_upper", [NAN]),
        ],
    )
    def test_non_finite_point_names_it(self, tmp_path, capsys, name, field, value):
        # rejected on load, before any solve; the chart bounds even under the default scheme
        prob = json.loads(bundled_problem_path(name).read_text())
        path = write_problem(tmp_path, dict(prob, **{field: value}))
        assert main(["solve", "--problem", path]) == 1
        assert f"'{field}' contains NaN/Inf" in capsys.readouterr().err

    def test_incompatible_scheme(self, tmp_path, capsys):
        path = write_problem(tmp_path, TWO_LINES)
        assert main(["solve", "--problem", path, "--scheme", "linconstr"]) == 1

    def test_summary_file_matches_stdout(self, tmp_path, capsys):
        path = write_problem(tmp_path, TWO_LINES)
        s = tmp_path / "s.json"
        main(["solve", "--problem", path, "--summary", str(s)])
        out = capsys.readouterr().out
        assert json.loads(s.read_text()) == json.loads(out)


class TestDiagnose:
    def make_trace(self, tmp_path, capsys):
        path = write_problem(tmp_path, TWO_LINES)
        tr = tmp_path / "t.csv"
        main(["solve", "--problem", path, "--trace", str(tr)])
        capsys.readouterr()
        return path, str(tr)

    def test_rate_block(self, tmp_path, capsys):
        _, tr = self.make_trace(tmp_path, capsys)
        assert main(["diagnose", "--trace", tr]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rate"]["rate"] == pytest.approx(0.5, abs=1e-6)
        assert out["rate"]["quality"] == "good"

    def test_angles_with_problem_context(self, tmp_path, capsys):
        prob, tr = self.make_trace(tmp_path, capsys)
        assert main(["diagnose", "--trace", tr, "--problem", prob]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["angles"]["min_separability"] == pytest.approx(
            np.pi / 4, abs=1e-6
        )

    def test_predict_alpha_block(self, tmp_path, capsys):
        _, tr = self.make_trace(tmp_path, capsys)
        assert main(["diagnose", "--trace", tr, "--predict-alpha",
                     str(np.pi / 4)]) == 0
        out = json.loads(capsys.readouterr().out)
        cmp = out["comparison"]
        assert cmp["predicted"] == pytest.approx(np.cos(np.pi / 4), abs=1e-9)
        assert cmp["measured"] <= cmp["predicted"] + 1e-6

    def test_short_trace_exit_one(self, tmp_path, capsys):
        tr = tmp_path / "short.csv"
        tr.write_text("k,gap,dist_Q,dist_M,z_0\n0,1,1,0,1\n")
        assert main(["diagnose", "--trace", str(tr)]) == 1
        assert "InsufficientData" in capsys.readouterr().err

    def test_missing_trace_exit_one(self, capsys):
        assert main(["diagnose", "--trace", "/nonexistent.csv"]) == 1

    @pytest.mark.parametrize("with_problem", [False, True], ids=["alone", "with-problem"])
    def test_ragged_trace_exit_one(self, tmp_path, capsys, with_problem):
        prob, tr = self.make_trace(tmp_path, capsys)
        with open(tr) as fh:
            lines = fh.read().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0]  # row 2 loses z_1
        with open(tr, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        args = ["diagnose", "--trace", tr] + (["--problem", prob] if with_problem else [])
        assert main(args) == 1
        assert "trace row 2 has 5 fields, header has 6" in capsys.readouterr().err

    def test_trace_of_other_dimension_exit_one(self, tmp_path, capsys):
        tr = tmp_path / "one_d.csv"
        rows = "".join(f"{k},{0.5**k!r},0,{0.5**k!r},{0.5**k!r}\n" for k in range(10))
        tr.write_text("k,gap,dist_Q,dist_M,z_0\n" + rows)
        with resources.as_file(bundled_problem_path("two_lines_45deg")) as prob:
            assert main(["diagnose", "--trace", str(tr), "--problem", str(prob)]) == 1
        err = capsys.readouterr().err
        assert "trace points have dimension 1, the problem's sets have dimension 2" in err


class TestBench:
    def test_full_suite_passes(self, capsys):
        assert main(["bench"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok") >= 8
        assert "FAIL" not in out

    def test_filter_and_json(self, capsys):
        assert main(["bench", "--filter", "two_lines", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {r["problem"] for r in rows} == {
            "two_lines_45deg",
            "two_lines_60deg",
        }
        assert all(r["pass"] for r in rows)


class TestBundledProblems:
    NAMES = [
        "two_lines_45deg",
        "two_lines_60deg",
        "circle_line",
        "parallel_lines",
        "circle_system",
        "parabola_inclusion",
    ]

    @pytest.mark.parametrize("name", NAMES)
    def test_loadable(self, name):
        with resources.as_file(bundled_problem_path(name)) as path:
            prob = load_problem(path)
        assert prob.start.ndim == 1

    def test_two_sets_payload_round_trips(self):
        with resources.as_file(bundled_problem_path("two_lines_45deg")) as path:
            prob = load_problem(path)
        Q, M = prob.payload
        Q2 = set_from_json(Q.to_json())
        np.testing.assert_allclose(Q2.project([3, 1]), Q.project([3, 1]))
