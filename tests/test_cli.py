import json

import numpy as np
import pytest

from realcalc import liealg
from realcalc.cli import (
    main,
    parse_algebra_spec,
    parse_projective_spec,
    render_json,
)
from realcalc.fixtures import fixture_names, fixture_path

ALGEBRA_FIXTURES = {"su2.json", "abelian1.json", "ga_su4.json", "gb_su4.json", "gc_su4.json"}
PROJECTIVE_FIXTURES = {"mat2_rank1.json", "free_trivial.json", "abelian_free.json"}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


class TestFixtureFiles:
    def test_expected_set_is_bundled(self):
        assert set(fixture_names()) == ALGEBRA_FIXTURES | PROJECTIVE_FIXTURES

    @pytest.mark.parametrize("name", sorted(ALGEBRA_FIXTURES))
    def test_algebra_roundtrip_is_canonical(self, name):
        text = fixture_path(name).read_text()
        spec = parse_algebra_spec(json.loads(text))
        assert render_json(spec.canonical()) == text

    @pytest.mark.parametrize("name", sorted(PROJECTIVE_FIXTURES))
    def test_projective_roundtrip_is_canonical(self, name):
        text = fixture_path(name).read_text()
        spec = parse_projective_spec(json.loads(text))
        assert render_json(spec.canonical()) == text


class TestAnalyzeCommand:
    def test_su2_obstruction(self, capsys):
        report = run_json(capsys, "analyze", "su2.json")
        assert report["status"] == "Nonexistent"
        assert report["reason"] == "SemisimpleObstruction"
        assert report["witness"] is None

    def test_gb_no_common_eigenvector(self, capsys):
        report = run_json(capsys, "analyze", "gb_su4.json")
        assert report["reason"] == "NoCommonEigenvector"

    def test_ga_semisimple(self, capsys):
        report = run_json(capsys, "analyze", "ga_su4.json")
        assert report["reason"] == "SemisimpleObstruction"

    def test_gc_witness(self, capsys):
        report = run_json(capsys, "analyze", "gc_su4.json")
        assert report["status"] == "Exists"
        witness = report["witness"]
        assert witness["v0"] == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        assert witness["mu"] == [1.0, 0.0, 0.0, 0.0]
        assert witness["lambdas"] == [1.0, 0.0, 0.0, 0.0]
        for key in ("torsion", "metric_compatibility", "koszul"):
            assert report["residuals"][key] <= 1e-9
        assert report["residuals"]["rcc"] <= 1e-9

    def test_exit_zero_for_both_verdicts(self, capsys):
        for name in ("su2.json", "gc_su4.json"):
            code, _, _ = run(capsys, "analyze", name)
            assert code == 0


class TestLieCommand:
    def test_su2_report(self, capsys):
        report = run_json(capsys, "lie", "su2.json")
        assert report["semisimple"] is True
        assert report["solvable"] is False
        f = np.asarray(report["structure_constants"])
        assert f[2][0][1] == pytest.approx(-2.0, abs=1e-9)

    def test_gc_report(self, capsys):
        report = run_json(capsys, "lie", "gc_su4.json")
        assert report["center_dim"] == 1
        assert report["derived_dim"] == 3

    def test_abelian_report(self, capsys):
        report = run_json(capsys, "lie", "abelian1.json")
        assert report["semisimple"] is False
        assert report["solvable"] is True

    @pytest.mark.parametrize("name, spans", [("gc_su4.json", 2), ("su2.json", 1)])
    def test_derived_algebra_built_once(self, capsys, monkeypatch, name, spans):
        # the derived series starts from the [g, g] basis the report
        # already holds, so is_solvable spans only the later steps
        calls = []
        original = liealg.real_row_space

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(liealg, "real_row_space", counting)
        report = run_json(capsys, "lie", name)
        assert report["solvable"] is False
        assert len(calls) == spans


class TestProjectiveCommand:
    def test_corner_anchor_negative(self, capsys):
        report = run_json(capsys, "projective", "mat2_rank1.json")
        assert report["holds"] is False
        assert report["worst_index"] == [1, 2, 3]
        assert report["lambda_at_worst"] == [[[-1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
        assert "connection_coefficients" not in report

    def test_free_trivial_positive(self, capsys):
        report = run_json(capsys, "projective", "free_trivial.json")
        assert report["holds"] is True
        assert report["max_residual"] <= 1e-10
        assert report["koszul_residual"] <= 1e-9

    def test_abelian_block_zero_connection(self, capsys):
        report = run_json(capsys, "projective", "abelian_free.json")
        assert report["holds"] is True
        coeffs = np.asarray(report["connection_coefficients"], dtype=float)
        assert not np.any(coeffs)


class TestDeterminismAndIO:
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_reports_are_byte_identical(self, capsys, fmt):
        first = run(capsys, "analyze", "gc_su4.json", "--format", fmt)
        second = run(capsys, "analyze", "gc_su4.json", "--format", fmt)
        assert first == second
        assert first[0] == 0

    def test_output_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "analyze", "su2.json", "--format", "json", "--output", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["status"] == "Nonexistent"

    def test_explicit_path_also_resolves(self, capsys):
        path = str(fixture_path("su2.json"))
        report = run_json(capsys, "analyze", path)
        assert report["input"] == path

    def test_tol_flag_is_echoed(self, capsys):
        report = run_json(capsys, "analyze", "su2.json", "--tol", "1e-7")
        assert report["tolerance"]["rel"] == 1e-7

    def test_fixtures_listing(self, capsys):
        code, out, _ = run(capsys, "fixtures")
        assert code == 0
        listed = {line.split("\t")[0] for line in out.strip().splitlines()}
        assert listed == ALGEBRA_FIXTURES | PROJECTIVE_FIXTURES

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "realcalc.cli", "analyze", "gc_su4.json",
             "--format", "json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["status"] == "Exists"


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", "no_such_file.json")
        assert code == 1
        assert "not found" in err

    def test_json_syntax_error_reports_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"N": 2,\n  "basis": [}\n')
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 1
        assert "line 2" in err

    def test_located_field_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"N": 2, "basis": [{"name": "D", "matrix": [[0]]}]}))
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 1
        assert "basis[0].matrix" in err

    @pytest.mark.parametrize(
        "fixture, path, edit, message",
        [
            ("mat2_rank1.json", ["derivations"], "short", "derivations: expected a list of 3 matrices"),
            ("mat2_rank1.json", ["X"], "short", "X: expected a list of 3 matrices"),
            ("mat2_rank1.json", ["Y"], "short", "Y: expected a list of 3 matrices"),
            ("free_trivial.json", ["p"], "short", "p: expected 3 rows of matrices"),
            ("free_trivial.json", ["p", 0], "short", "p[0]: expected a list of 3 matrices"),
            ("mat2_rank1.json", ["derivations", 2], "1x1", "derivations[2]: expected 2 rows"),
            ("mat2_rank1.json", ["Y", 1], "1x1", "Y[1]: expected 2 rows"),
            ("free_trivial.json", ["h_inv", 2, 1], "1x1", "h_inv[2][1]: expected 2 rows"),
        ],
    )
    def test_matrix_list_errors_are_located(self, capsys, tmp_path, fixture, path, edit, message):
        # a list one matrix short, or one entry replaced by a 1 x 1 matrix
        spec = json.loads(fixture_path(fixture).read_text())
        *outer, last = path
        parent = spec
        for key in outer:
            parent = parent[key]
        parent[last] = parent[last][:-1] if edit == "short" else [[0]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        code, out, err = run(capsys, "projective", str(bad))
        assert code == 1
        assert out == ""
        assert err == f"realcalc: error: {message}\n"

    def test_boolean_dimension_rejected(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {"N": True, "basis": [{"matrix": [[[0, 1], [0, 0]], [[0, 0], [0, -1]]]}]}
            )
        )
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 1
        assert "N: expected a positive integer" in err

    def test_non_antihermitian_basis(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "N": 2,
                    "basis": [
                        {"name": "H", "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}
                    ],
                }
            )
        )
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 1
        assert "antihermitian" in err

    def test_closure_violation_names_pair(self, capsys, tmp_path):
        bad = tmp_path / "open_span.json"
        bad.write_text(
            json.dumps(
                {
                    "N": 2,
                    "basis": [
                        {"name": "D1", "matrix": [[[0, 0], [0, 1]], [[0, 1], [0, 0]]]},
                        {"name": "D2", "matrix": [[[0, 0], [1, 0]], [[-1, 0], [0, 0]]]},
                    ],
                }
            )
        )
        for command in ("lie", "analyze"):
            code, _, err = run(capsys, command, str(bad))
            assert code == 1
            assert "not closed" in err and "(0, 1)" in err

    def test_projective_closure_violation_names_derivations(self, capsys, tmp_path):
        spec = json.loads(fixture_path("mat2_rank1.json").read_text())
        spec["n"] = 2
        spec["derivations"] = [
            [[[0, 0], [0, 1]], [[0, 1], [0, 0]]],
            [[[0, 0], [1, 0]], [[-1, 0], [0, 0]]],
        ]
        spec["X"], spec["Y"] = spec["X"][:2], spec["Y"][:2]
        bad = tmp_path / "open_span.json"
        bad.write_text(json.dumps(spec))
        code, _, err = run(capsys, "projective", str(bad))
        assert code == 1
        assert err == "realcalc: error: derivations are not closed under brackets at pair (0, 1)\n"

    def test_projective_requires_one_input_form(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        spec = json.loads(fixture_path("mat2_rank1.json").read_text())
        del spec["Y"]
        bad.write_text(json.dumps(spec))
        code, _, err = run(capsys, "projective", str(bad))
        assert code == 1
        assert "exactly one" in err

    def test_zero_metric_scale_rejected(self, capsys, tmp_path):
        spec = json.loads(fixture_path("su2.json").read_text())
        spec["metric_scale"] = 0.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 1
        assert "metric_scale" in err

    def test_split_inconsistent_is_one_error_line(self, capsys, tmp_path):
        # at 1e-8 the first element's brackets fall under the absolute
        # floor, so the center and the derived algebra no longer add up
        spec = json.loads(fixture_path("ga_su4.json").read_text())
        matrix = np.array(spec["basis"][0]["matrix"], dtype=float)
        spec["basis"][0]["matrix"] = (1e-8 * matrix).tolist()
        bad = tmp_path / "ga_scaled.json"
        bad.write_text(json.dumps(spec))
        for command in ("lie", "analyze"):
            code, out, err = run(capsys, command, str(bad))
            assert code == 1
            assert out == ""
            assert err.count("\n") == 1
            assert err.startswith("realcalc: error: SplitInconsistent")
