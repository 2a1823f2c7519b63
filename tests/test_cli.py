import json

import numpy as np
import pytest

from altproj import IterationTrace, set_from_json
from altproj.cli import bundled_problem_path, load_problem, main

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

    def test_nonexistent_file_exit_one(self, capsys):
        assert main(["solve", "--problem", "/nonexistent.json"]) == 1

    def test_not_converged_exit_two(self, tmp_path, capsys):
        prob = dict(TWO_LINES)
        prob["options"] = {"max_iters": 2}
        path = write_problem(tmp_path, prob)
        assert main(["solve", "--problem", path]) == 2
        assert json.loads(capsys.readouterr().out)["status"] == "MaxIters"

    def test_negative_eps_names_it(self, tmp_path, capsys):
        path = write_problem(tmp_path, TWO_LINES)
        args = ["solve", "--problem", path, "--scheme", "inexact", "--eps", "-0.1"]
        assert main(args) == 1
        assert "epsilon" in capsys.readouterr().err

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

    def test_non_finite_basis_names_it(self, tmp_path, capsys):
        prob = dict(TWO_LINES)
        prob["Q"] = {"type": "affine_subspace", "anchor": [0, 0], "basis": [[float("nan"), 0]]}
        path = write_problem(tmp_path, prob)
        assert main(["solve", "--problem", path]) == 1
        assert "basis contains NaN/Inf" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["A_ineq", "b_ineq"])
    def test_non_finite_polyhedron_names_it(self, tmp_path, capsys, field):
        prob = dict(TWO_LINES)
        prob["Q"] = {"type": "polyhedron", "A_ineq": [[1, 0]], "b_ineq": [1]}
        prob["Q"][field] = [[float("nan"), 0]] if field == "A_ineq" else [float("nan")]
        path = write_problem(tmp_path, prob)
        assert main(["solve", "--problem", path]) == 1
        assert f"polyhedron {field} contains NaN/Inf" in capsys.readouterr().err

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
        from importlib import resources

        with resources.as_file(bundled_problem_path(name)) as path:
            prob = load_problem(path)
        assert prob.start.ndim == 1

    def test_two_sets_payload_round_trips(self):
        from importlib import resources

        with resources.as_file(bundled_problem_path("two_lines_45deg")) as path:
            prob = load_problem(path)
        Q, M = prob.payload
        Q2 = set_from_json(Q.to_json())
        np.testing.assert_allclose(Q2.project([3, 1]), Q.project([3, 1]))
