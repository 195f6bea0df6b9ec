import json

import numpy as np
import pytest

from realcalc import cli, liealg
from realcalc.cli import (
    main,
    parse_algebra_spec,
    parse_projective_spec,
    render_json,
)
from realcalc.fixtures import fixture_names, fixture_path

from support import generic_presentation, su_basis, trivial_data

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

    @pytest.mark.parametrize("literal, shown", [("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf")])
    def test_non_finite_metric_scale_rejected(self, capsys, tmp_path, literal, shown):
        # json.load accepts these literals, so the parser has to refuse them
        spec = json.loads(fixture_path("su2.json").read_text())
        spec["metric_scale"] = "X"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec).replace('"X"', literal))
        code, out, err = run(capsys, "analyze", str(bad))
        assert (code, out) == (1, "")
        assert err == f"realcalc: error: metric_scale: must be finite, got {shown}\n"

    def test_unwritable_output_is_one_error_line(self, capsys, tmp_path):
        for target in (tmp_path / "missing" / "x.json", tmp_path):
            code, out, err = run(capsys, "analyze", "su2.json", "--output", str(target))
            assert (code, out) == (1, "")
            assert err.count("\n") == 1
            assert err.startswith(f"realcalc: error: {target}: [Errno ")

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

    @pytest.mark.parametrize("value, shown", [("inf", "inf"), ("nan", "nan"), ("-inf", "-inf")])
    def test_non_finite_tol_flag_rejected(self, capsys, value, shown):
        code, out, err = run(capsys, "analyze", "gc_su4.json", f"--tol={value}")
        assert (code, out) == (1, "")
        assert err == f"realcalc: error: --tol: Tolerance.rel must be finite, got {shown}\n"

    @pytest.mark.parametrize("key, literal, shown", [("abs", "NaN", "nan"), ("rel", "Infinity", "inf"),
                                                     ("abs", "Infinity", "inf")])
    def test_non_finite_file_tolerance_rejected(self, capsys, tmp_path, key, literal, shown):
        spec = json.loads(fixture_path("gc_su4.json").read_text())
        spec["tolerance"] = {"rel": 1e-9, "abs": 1e-12, key: "X"}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec).replace('"X"', literal))
        code, out, err = run(capsys, "analyze", str(bad))
        assert (code, out) == (1, "")
        assert err == f"realcalc: error: tolerance: Tolerance.{key} must be finite, got {shown}\n"

    @pytest.mark.parametrize(
        "fixture, path, value, message",
        [
            ("su2.json", ["basis", 0, "matrix", 0, 1], True, "basis[0].matrix[0][1]: expected a complex scalar [re, im]"),
            ("su2.json", ["basis", 1, "matrix", 1, 0], [0, False], "basis[1].matrix[1][0]: expected a complex scalar [re, im]"),
            ("su2.json", ["basis", 0, "matrix", 1, 1], [0, 1, 0], "basis[0].matrix[1][1]: expected a complex scalar [re, im]"),
            ("su2.json", ["basis", 2, "matrix", 0, 0], "0", "basis[2].matrix[0][0]: expected a complex scalar [re, im]"),
            ("su2.json", ["basis", 0, "matrix", 1], [[0, 1]], "basis[0].matrix[1]: expected 2 entries"),
            ("su2.json", ["basis", 0, "matrix", 0], 0, "basis[0].matrix[0]: expected 2 entries"),
            ("free_trivial.json", ["h", 1, 2, 0, 1], True, "h[1][2][0][1]: expected a complex scalar [re, im]"),
            ("mat2_rank1.json", ["X", 1, 0], {"re": 0}, "X[1][0]: expected 2 entries"),
        ],
    )
    def test_malformed_entries_are_located(self, capsys, tmp_path, fixture, path, value, message):
        spec = json.loads(fixture_path(fixture).read_text())
        *outer, last = path
        parent = spec
        for key in outer:
            parent = parent[key]
        parent[last] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        command = "analyze" if fixture == "su2.json" else "projective"
        code, out, err = run(capsys, command, str(bad))
        assert (code, out) == (1, "")
        assert err == f"realcalc: error: {message}\n"


def _matrices_parsed_one_entry_at_a_time(monkeypatch, parse, raw):
    with monkeypatch.context() as m:
        m.setattr(cli, "_parse_matrix", cli._parse_matrix_entries)
        return parse(raw)


def _spec_arrays(spec) -> list[np.ndarray]:
    arrays = []
    for value in vars(spec).values():
        if isinstance(value, list) and value and isinstance(value[0], np.ndarray):
            arrays += value
        elif isinstance(value, np.ndarray):
            arrays.append(value)
    return arrays


def assert_same_arrays(fast, slow):
    assert len(fast) == len(slow) > 0
    for a, b in zip(fast, slow):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


def _pairs(matrix: np.ndarray) -> list:
    return np.stack([matrix.real, matrix.imag], axis=-1).tolist()


class TestMatrixParsing:
    """Well-formed matrices are read in one array call; the result must
    equal, bit for bit, the entry-by-entry parse that locates errors."""

    @pytest.mark.parametrize("name", sorted(ALGEBRA_FIXTURES | PROJECTIVE_FIXTURES))
    def test_fixtures_parse_as_entry_by_entry(self, monkeypatch, name):
        raw = json.loads(fixture_path(name).read_text())
        parse = parse_algebra_spec if name in ALGEBRA_FIXTURES else parse_projective_spec
        fast = _spec_arrays(parse(raw))
        slow = _spec_arrays(_matrices_parsed_one_entry_at_a_time(monkeypatch, parse, raw))
        assert_same_arrays(fast, slow)

    def test_random_trivial_su3_parses_as_entry_by_entry(self, monkeypatch):
        rng = np.random.default_rng(8)
        data = trivial_data(rng, liealg.LieBasis(generic_presentation(rng, su_basis(3))))
        raw = {
            "N": data.N,
            "n": data.n,
            "derivations": [_pairs(m) for m in data.derivs.mats],
            **{key: [[_pairs(m) for m in row] for row in grid]
               for key, grid in (("p", data.p), ("h", data.h), ("h_inv", data.h_inv))},
        }
        raw = json.loads(json.dumps(raw))
        fast = _spec_arrays(parse_projective_spec(raw))
        slow = _spec_arrays(_matrices_parsed_one_entry_at_a_time(monkeypatch, parse_projective_spec, raw))
        assert_same_arrays(fast, slow)
        assert np.array_equal(fast[-1], data.h_inv)

    @pytest.mark.parametrize(
        "matrix",
        [
            [[0, 1], [-1, 0.5]],
            [[[0, 1], 2], [-0.0, [1e300, -1e-300]]],
            [[[0, -0.0], [1, 2]], [[-0.0, 0], [2**70, -(2**63)]]],
            [[float("nan"), float("inf")], [-0.0, 5e-324]],
        ],
        ids=["bare", "mixed", "pairs", "non-finite"],
    )
    def test_entry_forms_parse_as_entry_by_entry(self, matrix):
        fast = cli._parse_matrix(matrix, 2, "m")
        assert_same_arrays([fast], [cli._parse_matrix_entries(matrix, 2, "m")])
