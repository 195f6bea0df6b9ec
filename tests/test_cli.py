import contextlib
import io
import json
import math
import os
import random
import re
import stat
from itertools import takewhile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realcalc import cli, cncalc, liealg, projcalc
from realcalc.cli import (
    main,
    parse_algebra_spec,
    parse_projective_spec,
    render_json,
)
from realcalc.fixtures import fixture_names, fixture_path
from realcalc.matlin import DEFAULT_TOL, max_norm

from support import (
    block_with_center,
    conjugate,
    generic_presentation,
    python_on_blas_threads,
    random_unitary,
    su_basis,
    trivial_data,
)
from test_invariance import case_mats, presented
from test_projcalc import FORMATIONS, count_projcalc_calls

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


def count_calls(monkeypatch, *names) -> dict:
    """Live counts of LieBasis constructions, bracket builds and the named liealg functions."""
    calls = dict.fromkeys(("LieBasis", "_bracket_pairs", *names), 0)

    def counting(key, original):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(liealg.LieBasis, "__init__", counting("LieBasis", liealg.LieBasis.__init__))
    for name in calls.keys() - {"LieBasis"}:
        wrapper = counting(name, getattr(liealg, name))
        for module in (liealg, cncalc, projcalc):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    return calls


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

    def test_tiny_element_still_reports_semisimple(self, capsys, tmp_path):
        # at 1e-8 the first element's brackets fall under the absolute
        # tolerance floor; the normalized frame keeps the decision
        spec = json.loads(fixture_path("ga_su4.json").read_text())
        matrix = np.array(spec["basis"][0]["matrix"], dtype=float)
        spec["basis"][0]["matrix"] = (1e-8 * matrix).tolist()
        scaled = tmp_path / "ga_scaled.json"
        scaled.write_text(json.dumps(spec))
        report = run_json(capsys, "analyze", str(scaled))
        assert (report["status"], report["reason"]) == ("Nonexistent", "SemisimpleObstruction")
        assert report["diagnostics"]["mu_obstruction_dim"] == 0
        report = run_json(capsys, "lie", str(scaled))
        assert (report["semisimple"], report["center_dim"], report["derived_dim"]) == (True, 0, 3)

    def test_su8_center_tolerance_corners(self, capsys, tmp_path):
        # Jacobi follows from closure and is never decided on its own, at
        # either tolerance corner: a generic su(8) + center in su(9)
        # (n = 64) rounded to 10 digits leaves fit residuals near 1e-10,
        # and the same algebra in full precision at --tol 1e-13 has a
        # float round-off of 3 n (n + 2) eps above half the cut
        mats = generic_presentation(np.random.default_rng(8), block_with_center(9, 8))
        rounded, full = tmp_path / "su8c_10d.json", tmp_path / "su8c.json"
        for path, digits in ((rounded, lambda x: float(f"{x:.10g}")), (full, float)):
            basis = [{"matrix": [[[digits(z.real), digits(z.imag)] for z in row] for row in m]} for m in mats]
            path.write_text(json.dumps({"N": 9, "basis": basis}))
        code, out, err = run(capsys, "analyze", str(rounded), "--format", "json")
        assert (code, err) == (0, "")
        floats = []
        report = json.loads(out, parse_float=lambda t: floats.append(t) or float(t))
        assert [t for t in floats if repr(float(t)) != t] == []
        assert report["status"] == "Exists"
        # mu and lambdas are 1-d arrays of 64 floats, printed in bulk; the
        # text report's witness lines hold the JSON values
        code, text, err = run(capsys, "analyze", str(rounded), "--format", "text")
        assert (code, err) == (0, "")
        lines = text.splitlines()
        block = takewhile(lambda line: line.startswith("  "), lines[lines.index("witness:") + 1:])
        witness = dict(line[2:].split(": ", 1) for line in block if line[2] != " ")
        for key in ("mu", "lambdas"):
            assert len(report["witness"][key]) == 64, key
            assert json.loads(witness[key]) == report["witness"][key], key
        code, _, err = run(capsys, "lie", str(full), "--tol", "1e-13")
        assert (code, err) == (0, "")


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

    @pytest.mark.parametrize("name, runs", [("gc_su4.json", 2), ("su2.json", 1)])
    def test_derived_algebra_built_once(self, capsys, monkeypatch, name, runs):
        # one split gives [g, g], the center, solvability, the Killing
        # matrix and the structure constants: each lie and each analyze
        # call builds one basis, forms the brackets once, splits once and
        # reads the Killing form once
        calls = count_calls(monkeypatch, "levi_split_compact", "killing_form")
        for _ in range(runs):
            report = run_json(capsys, "lie", name)
            assert report["solvable"] is False
            run_json(capsys, "analyze", name)
        assert calls == dict.fromkeys(calls, 2 * runs)

    def test_jacobi_is_not_decided(self):
        # closure bounds the Jacobi defect (levi_split_compact), so no
        # check, certificate or checked-tensor marker of it is bound
        bound = set(vars(liealg)) | set(vars(liealg.LeviSplit))
        assert bound.isdisjoint({"_check_jacobi", "_jacobi_bound", "_Checked", "constants", "_fit_residuals"})


class TestProjectiveCommand:
    def test_corner_anchor_negative(self, capsys):
        report = run_json(capsys, "projective", "mat2_rank1.json")
        assert report["holds"] is False
        assert report["worst_index"] == [1, 2, 3]
        assert report["lambda_at_worst"] == [[[-1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
        assert "connection_coefficients" not in report

    # both sides of the criterion scale with the derivations, and Λ does not
    # change under h -> c h, h_inv -> h_inv / c, so neither map may change a
    # verdict: every cut is at the scale of its own terms, with no floor of 1
    @pytest.mark.parametrize("scale", [1e10, 1e-10])
    def test_scaled_corner_anchor_stays_negative(self, capsys, tmp_path, scale):
        spec = json.loads(fixture_path("mat2_rank1.json").read_text())
        spec["derivations"] = (scale * np.array(spec["derivations"])).tolist()
        scaled = tmp_path / "scaled.json"
        scaled.write_text(json.dumps(spec))
        report = run_json(capsys, "projective", str(scaled))
        assert (report["holds"], report["worst_index"]) == (False, [1, 2, 3])

    @pytest.mark.parametrize("scale", [1.0, 1e-10])
    def test_asymmetric_metric_is_refused_at_every_scale(self, capsys, tmp_path, scale):
        # free_trivial's metric times scale, with 0.1 h_00 added to h_01
        # only, so that h_01 is not h_10^*
        spec = json.loads(fixture_path("free_trivial.json").read_text())
        h = scale * np.array(spec["h"])
        h[0, 1] += 0.1 * h[0, 0]
        spec["h"], spec["h_inv"] = h.tolist(), (np.array(spec["h_inv"]) / scale).tolist()
        bad = tmp_path / "asymmetric.json"
        bad.write_text(json.dumps(spec))
        code, out, err = run(capsys, "projective", str(bad))
        assert (code, out) == (1, "")
        assert err.startswith("realcalc: error: metric symmetry h_ij = h_ji^* violated (residual ")
        assert err.count("\n") == 1

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

    @pytest.mark.parametrize("name", ["free_trivial.json", "mat2_rank1.json"])
    def test_grid_derivatives_built_once(self, capsys, monkeypatch, name):
        # [D_i, p] and [D_i, h] are built with the data, whether the
        # criterion holds or not, and every later step reads them; the
        # structure constants are read off one split
        calls = []
        original = projcalc._commutators
        monkeypatch.setattr(projcalc, "_commutators", lambda *args: calls.append(1) or original(*args))
        counts = count_calls(monkeypatch, "levi_split_compact")
        run_json(capsys, "projective", name)
        assert len(calls) == 2
        assert counts == dict.fromkeys(counts, 1)

    @pytest.mark.parametrize("name, entries", [("free_trivial.json", 5), ("mat2_rank1.json", 2)])
    def test_lambda_and_residual_formed_once(self, capsys, monkeypatch, name, entries):
        # a call reads Λ through lambda_tensor at every step (criterion,
        # report, coefficients and certificate when the criterion holds),
        # but Λ and the criterion residual are each formed once per data
        counts = count_projcalc_calls(monkeypatch, "lambda_tensor", *FORMATIONS)
        report = run_json(capsys, "projective", name)
        assert report["holds"] is (entries == 5)
        assert counts == {"lambda_tensor": entries, "_form_lambda": 1, "_criterion_residual": 1}


# a program that runs main on each argument list of its JSON argument and
# prints the exit code and the sha256 of the report on stdout, one line each
_REPORT_DIGESTS = """
import contextlib, hashlib, io, json, sys
from realcalc.cli import main
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    print(code, hashlib.sha256(out.getvalue().encode()).hexdigest())
"""


@pytest.fixture(scope="module")
def trivial_su4_spec(tmp_path_factory):
    """A spec file of trivial data over su(4), whose JSON report of about
    3 MB prints its coefficient grid in several runs of slabs."""
    rng = np.random.default_rng(44)
    data = trivial_data(rng, liealg.LieBasis(generic_presentation(rng, su_basis(4))))
    spec = cli.ProjectiveSpecFile(data.N, data.n, list(data.derivs.mats), data.p, data.h, data.h_inv,
                                  None, None, None)
    path = tmp_path_factory.mktemp("spec") / "trivial_su4.json"
    path.write_text(render_json(spec.canonical()))
    return path


class TestDeterminismAndIO:
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_reports_are_byte_identical(self, capsys, fmt):
        first = run(capsys, "analyze", "gc_su4.json", "--format", fmt)
        second = run(capsys, "analyze", "gc_su4.json", "--format", fmt)
        assert first == second
        assert first[0] == 0

    def test_reports_do_not_depend_on_the_blas_thread_count(self, tmp_path, trivial_su4_spec):
        # QR and GEMM speed tune to the BLAS thread count; a report's bytes
        # must not. A generic su(7) (n = 48) is where the split's QR runs
        # fastest on one thread, and trivial data over su(4) prints 3 MB.
        su7 = tmp_path / "su7.json"
        mats = generic_presentation(np.random.default_rng(7), su_basis(7))
        su7.write_text(json.dumps({"N": 7, "basis": [{"matrix": _pairs(m)} for m in mats]}))
        specs = {"lie": [*sorted(ALGEBRA_FIXTURES), str(su7)], "analyze": [*sorted(ALGEBRA_FIXTURES), str(su7)],
                 "projective": [*sorted(PROJECTIVE_FIXTURES), str(trivial_su4_spec)]}
        calls = [[command, spec, "--format", fmt] for command, names in specs.items() for spec in names
                 for fmt in ("json", "text")]
        digests = [python_on_blas_threads(threads, "-c", _REPORT_DIGESTS, json.dumps(calls)) for threads in (1, 2)]
        for proc in digests:
            assert (proc.returncode, proc.stderr) == (0, "")
        lines = digests[0].stdout.splitlines()
        assert len(lines) == len(set(lines)) == len(calls) and all(line.startswith("0 ") for line in lines)
        assert digests[1].stdout == digests[0].stdout

    def test_output_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "analyze", "su2.json", "--format", "json", "--output", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["status"] == "Nonexistent"

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_output_file_and_stdout_get_the_rendered_bytes(self, capsysbinary, tmp_path, trivial_su4_spec, fmt):
        # main writes the report as pieces, to a file or to stdout; both
        # get the bytes of the one text the renderer joins
        path = str(trivial_su4_spec)
        target = tmp_path / "report.out"
        assert main(["projective", path, "--format", fmt, "--output", str(target)]) == 0
        assert main(["projective", path, "--format", fmt]) == 0
        captured = capsysbinary.readouterr()
        report = cli.cmd_projective(parse_projective_spec(json.loads(trivial_su4_spec.read_text())),
                                    DEFAULT_TOL, path)
        assert report["connection_coefficients"].size > 2 * cli._SLAB_SIZE
        want = (render_json if fmt == "json" else cli.render_text)(report).encode()
        same = (target.read_bytes(), captured.out, captured.err) == (want, want, b"")
        assert same

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_render_error_writes_nothing(self, capsys, monkeypatch, tmp_path, trivial_su4_spec, fmt):
        # both renderers refuse a NaN in the coefficient grid after the
        # keys before it are printed; main names the refusal in one line,
        # and neither the file nor stdout gets any of the report
        original = cli.cmd_projective

        def with_nan(*args):
            report = original(*args)
            report["connection_coefficients"].flat[-1] = np.nan
            return report

        monkeypatch.setattr(cli, "cmd_projective", with_nan)
        target = tmp_path / "report.json"
        target.write_bytes(b"an earlier report\n")
        for output in (["--output", str(target)], []):
            code, out, err = run(capsys, "projective", str(trivial_su4_spec), "--format", fmt, *output)
            assert (code, out) == (1, "")
            assert err.startswith("realcalc: error: report: Out of range float values are not JSON compliant")
            assert err.count("\n") == 1
        assert target.read_bytes() == b"an earlier report\n"

    @pytest.mark.parametrize("first, second", [("free_trivial.json", "mat2_rank1.json"),
                                               ("mat2_rank1.json", "free_trivial.json")],
                             ids=["long-then-short", "short-then-long"])
    def test_output_is_overwritten_to_the_new_length(self, capsysbinary, tmp_path, first, second):
        # the file is written over in place and cut to the report: a short
        # report after a long one leaves no tail of the long one
        target = tmp_path / "report.json"
        for name in (first, second):
            assert main(["projective", name, "--format", "json", "--output", str(target)]) == 0
        written = target.read_bytes()
        assert main(["projective", first, "--format", "json"]) == 0
        before = capsysbinary.readouterr().out
        assert main(["projective", second, "--format", "json"]) == 0
        want = capsysbinary.readouterr().out
        assert len(before) != len(want)
        assert written == want

    def test_output_to_the_null_device(self, capsys):
        # /dev/null is not a regular file, so it is written but never cut
        assert run(capsys, "projective", "free_trivial.json", "--output", os.devnull) == (0, "", "")

    def test_output_never_opened_with_o_trunc(self, capsys, monkeypatch, tmp_path):
        # truncating to zero before the write is the cost the in-place write
        # removes; a return to open(path, "w") would skip os.open altogether
        target = tmp_path / "report.json"
        target.write_bytes(b"x" * 10_000)
        flags, os_open = [], os.open

        def recording(path, flag, *args, **kwargs):
            if os.fspath(path) == str(target):
                flags.append(flag)
            return os_open(path, flag, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording)
        assert run(capsys, "analyze", "su2.json", "--format", "json", "--output", str(target))[0] == 0
        assert len(flags) == 1 and flags[0] & os.O_TRUNC == 0
        assert json.loads(target.read_text())["status"] == "Nonexistent"

    def test_new_output_file_gets_the_mode_of_open_w(self, capsys, tmp_path):
        mask = os.umask(0o027)
        try:
            with open(tmp_path / "reference", "w"):
                pass
            assert run(capsys, "analyze", "su2.json", "--output", str(tmp_path / "report"))[0] == 0
        finally:
            os.umask(mask)
        modes = [stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("reference", "report")]
        assert modes[0] == modes[1]

    def test_failed_write_leaves_the_bytes_written(self, tmp_path):
        # a write that fails part way leaves what was written, and no byte
        # of the older, longer file after it
        target = tmp_path / "report.json"
        target.write_bytes(b"x" * 10_000)

        def failing():
            yield "written\n"
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            cli._write_over(str(target), failing())
        assert target.read_bytes() == b"written\n"

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

    def test_consecutive_calls_share_no_state(self, capsys, tmp_path):
        # one parser serves every call; no flag or subcommand of one call
        # may reach the next, and a usage error leaves it usable
        assert cli._build_parser() is cli._build_parser()
        first = run(capsys, "analyze", "gc_su4.json")
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "analyze", "gc_su4.json", "--tol", "1e-7", "--format", "json",
                           "--output", str(target))
        assert (code, out) == (0, "")
        assert json.loads(target.read_text())["tolerance"]["rel"] == 1e-7
        assert run(capsys, "fixtures")[0] == 0
        assert run(capsys, "lie", "su2.json", "--format", "json")[0] == 0
        for argv in (["analyze"], ["no-such-command"], ["analyze", "su2.json", "--format", "xml"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "usage: realcalc" in capsys.readouterr().err
        assert run(capsys, "analyze", "gc_su4.json") == first

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

    @pytest.mark.parametrize("fixture, key, size", [
        pytest.param("su2.json", "N", 10**400, id="su2.json-N"),
        pytest.param("su2.json", "N", 10**6, id="su2.json-N-10**6"),
        pytest.param("free_trivial.json", "N", 10**400, id="free_trivial.json-N"),
        pytest.param("free_trivial.json", "n", 10**400, id="free_trivial.json-n"),
    ])
    def test_dimension_too_large_for_an_array_is_located(self, capsys, tmp_path, fixture, key, size):
        # a positive dimension of 10**400 passes as an integer, but numpy
        # has no array of that shape, and one of 10**6 needs 16 TB; the
        # value is read before any array is formed, so its first list names
        # the misfit
        spec = json.loads(fixture_path(fixture).read_text())
        spec[key] = size
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        code, out, err = run(capsys, "analyze" if fixture == "su2.json" else "projective", str(bad))
        assert (code, out) == (1, "")
        assert err.startswith("realcalc: error: ") and err.count("\n") == 1

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

    @pytest.mark.parametrize("command, fixture, key", [
        ("analyze", "gc_su4.json", "basis"),
        ("projective", "free_trivial.json", "derivations"),
    ])
    def test_basis_too_large_for_its_norm(self, capsys, tmp_path, command, fixture, key):
        # an independent basis scaled to entries near 1e155: the error names
        # the first matrix, not a linear dependence
        spec = json.loads(fixture_path(fixture).read_text())
        if key == "basis":
            for entry in spec["basis"]:
                entry["matrix"] = (1e155 * np.array(entry["matrix"], dtype=float)).tolist()
        else:
            spec[key] = (1e155 * np.array(spec[key], dtype=float)).tolist()
        bad = tmp_path / "large.json"
        bad.write_text(json.dumps(spec))
        code, out, err = run(capsys, command, str(bad))
        assert (code, out) == (1, "")
        assert err == f"realcalc: error: {key}: basis matrix 0 is too large for its norm to fit a double\n"

    @pytest.mark.parametrize("scale", [1e-160, 1e-170])
    @pytest.mark.parametrize("command, fields", [
        ("lie", ("semisimple", "solvable", "center_dim", "derived_dim")),
        ("analyze", ("status", "reason", "diagnostics")),
    ], ids=["lie", "analyze"])
    def test_tiny_basis_keeps_its_verdict(self, capsys, tmp_path, command, fields, scale):
        # entries near 1e-160 give the frame matrix T entries near 1e160 and
        # norm squares that overflow; near 1e-170 the squares of the entries
        # underflow to 0. Neither may warn (pytest turns warnings into errors)
        # or change the verdict, and the structure constants scale with the
        # basis: [s D_i, s D_j] = s sum_k f^k_ij (s D_k).
        spec = json.loads(fixture_path("gc_su4.json").read_text())
        for entry in spec["basis"]:
            entry["matrix"] = (scale * np.array(entry["matrix"], dtype=float)).tolist()
        tiny = tmp_path / "tiny.json"
        tiny.write_text(json.dumps(spec))
        got = run_json(capsys, command, str(tiny))
        want = run_json(capsys, command, "gc_su4.json")
        if command == "analyze":
            for key in ("killing_singular_values", "eigenvector_residual"):
                del got["diagnostics"][key], want["diagnostics"][key]
        else:
            f, unscaled = np.asarray(got["structure_constants"]), np.asarray(want["structure_constants"])
            assert max_norm(f - scale * unscaled) <= 1e-12 * scale * max_norm(unscaled)
        assert {k: got[k] for k in fields} == {k: want[k] for k in fields}

    def test_tiny_derivations_print_no_warning(self, capsys, tmp_path):
        spec = json.loads(fixture_path("free_trivial.json").read_text())
        spec["derivations"] = (1e-160 * np.array(spec["derivations"], dtype=float)).tolist()
        tiny = tmp_path / "tiny.json"
        tiny.write_text(json.dumps(spec))
        code, out, err = run(capsys, "projective", str(tiny), "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["holds"] is run_json(capsys, "projective", "free_trivial.json")["holds"]

    def test_rescaled_cartan_presentation_is_accepted(self, capsys, tmp_path):
        # a conjugated Cartan subalgebra of su(4) scaled by 1e8, mixed and
        # rescaled per element: its user-basis structure constants are
        # round-off far above 1, whose own Jacobi residual would read as a
        # violation; they are carried from the closed frame instead, and
        # projective, on the same derivations with identity grids, agrees
        mats = presented(np.random.default_rng(12), case_mats("cartan-su4-1e8"), "all")
        n, N = len(mats), mats[0].shape[0]
        eye = [[_pairs(np.eye(N) * (a == b)) for b in range(n)] for a in range(n)]
        lie_spec, proj_spec = tmp_path / "cartan.json", tmp_path / "cartan_proj.json"
        lie_spec.write_text(json.dumps({"N": N, "basis": [
            {"name": f"D{i + 1}", "matrix": _pairs(m)} for i, m in enumerate(mats)
        ]}))
        proj_spec.write_text(json.dumps({
            "N": N, "n": n, "derivations": [_pairs(m) for m in mats], "p": eye, "h": eye, "h_inv": eye,
        }))
        reports = {}
        for command, spec in (("lie", lie_spec), ("analyze", lie_spec), ("projective", proj_spec)):
            code, out, err = run(capsys, command, str(spec), "--format", "json")
            assert (code, err) == (0, ""), command
            reports[command] = json.loads(out)
        assert reports["analyze"]["status"] == "Exists"
        assert reports["projective"]["holds"] is True

    def test_closure_violation_names_pair(self, capsys, tmp_path):
        # span{D1, D2} of su(2) is open at every scale: the residual is
        # read relative to the pair's norms, so the error does not change
        D1 = np.array([[[0, 0], [0, 1]], [[0, 1], [0, 0]]], dtype=float)
        D2 = np.array([[[0, 0], [1, 0]], [[-1, 0], [0, 0]]], dtype=float)
        bad = tmp_path / "open_span.json"
        errors = set()
        for scale in (1.0, 1e-6, 1e-12):
            basis = [{"name": name, "matrix": (scale * m).tolist()} for name, m in (("D1", D1), ("D2", D2))]
            bad.write_text(json.dumps({"N": 2, "basis": basis}))
            for command in ("lie", "analyze"):
                code, out, err = run(capsys, command, str(bad))
                assert (code, out) == (1, ""), (scale, command)
                assert err.startswith("realcalc: error: basis is not closed under brackets at pair (0, 1): ")
                errors.add(err)
        assert len(errors) == 1, errors

    @pytest.mark.parametrize("second", [
        1j * np.eye(3),
        np.diag([1j, 1j, -2j]) + 0.4 * np.diag([1, -1, 0]),
    ], ids=["u1", "hermitian_part"])
    def test_non_su_element_is_refused_at_every_scale(self, capsys, tmp_path, second):
        # a trace or a hermitian part is cut against the element's own
        # largest entry, with no absolute floor, so scaling the basis down
        # does not turn the refusal into a report or a traceback
        bad = tmp_path / "not_su.json"
        for k in range(-15, 16):
            mats = (10.0**k * np.diag([1j, -1j, 0]), 10.0**k * second)
            bad.write_text(json.dumps({"N": 3, "basis": [
                {"name": f"D{i + 1}", "matrix": _pairs(m)} for i, m in enumerate(mats)
            ]}))
            for command in ("lie", "analyze"):
                assert run(capsys, command, str(bad)) == (
                    1, "", "realcalc: error: basis: basis matrix 1 is not trace-free antihermitian\n"
                ), (k, command)

    def test_projective_closure_violation_names_derivations(self, capsys, tmp_path):
        spec = json.loads(fixture_path("mat2_rank1.json").read_text())
        spec["n"] = 2
        spec["X"], spec["Y"] = spec["X"][:2], spec["Y"][:2]
        open_span = np.array([
            [[[0, 0], [0, 1]], [[0, 1], [0, 0]]],
            [[[0, 0], [1, 0]], [[-1, 0], [0, 0]]],
        ], dtype=float)
        bad = tmp_path / "open_span.json"
        for scale in (1.0, 1e-6, 1e-12):
            spec["derivations"] = (scale * open_span).tolist()
            bad.write_text(json.dumps(spec))
            code, _, err = run(capsys, "projective", str(bad))
            assert code == 1, scale
            assert err == "realcalc: error: derivations are not closed under brackets at pair (0, 1)\n", scale

    def test_overflowing_structure_constants_are_located(self, capsys, tmp_path):
        # unit Cartan elements of su(4), conjugated, then scaled by 1e150,
        # 1e150 and 1e-150: their brackets are round-off, which the norm
        # ratio 1e450 carries past the largest double in the user basis
        units = [m / np.linalg.norm(m) for m in case_mats("cartan-su4-1e8")]
        units = conjugate(units, random_unitary(np.random.default_rng(0), 4))
        mats = [c * m for c, m in zip((1e150, 1e150, 1e-150), units)]
        n, N = len(mats), mats[0].shape[0]
        eye = [[_pairs(np.eye(N) * (a == b)) for b in range(n)] for a in range(n)]
        lie_spec, proj_spec = tmp_path / "cartan.json", tmp_path / "cartan_proj.json"
        lie_spec.write_text(json.dumps({"N": N, "basis": [
            {"name": f"D{i + 1}", "matrix": _pairs(m)} for i, m in enumerate(mats)
        ]}))
        proj = {"N": N, "n": n, "derivations": [_pairs(m) for m in mats], "p": eye, "h": eye, "h_inv": eye}
        proj_spec.write_text(json.dumps(proj))
        overflow = "structure constants overflow a double in this basis"
        assert run(capsys, "lie", str(lie_spec)) == (1, "", f"realcalc: error: basis: {overflow}\n")
        assert run(capsys, "projective", str(proj_spec)) == (1, "", f"realcalc: error: derivations: {overflow}\n")
        assert run_json(capsys, "analyze", str(lie_spec))["status"] == "Exists"

    @pytest.mark.parametrize("value", ["zeros", "BIG"])
    def test_structure_constants_are_not_accepted(self, capsys, tmp_path, value):
        # the derivations fix f; a second tensor, even all zeros on data
        # whose criterion fails, or one no double holds, is refused by name
        spec = json.loads(fixture_path("mat2_rank1.json").read_text())
        spec["structure_constants"] = [[[0.0] * 3] * 3] * 3 if value == "zeros" else "BIG"
        bad = tmp_path / "with_f.json"
        bad.write_text(json.dumps(spec).replace('"BIG"', str(10**400)))
        code, out, err = run(capsys, "projective", str(bad))
        assert (code, out) == (1, "")
        assert err == (
            "realcalc: error: structure_constants: not accepted; "
            "the structure constants are read off the derivations\n"
        )

    def test_lambda_overflow_is_located(self, capsys, tmp_path):
        # Λ does not change under h -> c h, h_inv -> h_inv / c, but at
        # c = 1e306 its term h f overflows; the invariant checks pass
        spec = json.loads(fixture_path("free_trivial.json").read_text())
        spec["h"] = (1e306 * np.array(spec["h"])).tolist()
        spec["h_inv"] = (1e-306 * np.array(spec["h_inv"])).tolist()
        spec["derivations"] = (1e2 * np.array(spec["derivations"])).tolist()
        bad = tmp_path / "big_h.json"
        bad.write_text(json.dumps(spec))
        message = "h is too large for Lambda: its terms h_jq f^q_il or [D_i, h_jl] overflow a double"
        assert run(capsys, "projective", str(bad)) == (1, "", f"realcalc: error: {message}\n")

    def test_derivative_overflow_is_located(self, capsys, tmp_path):
        # with the derivations x1e4, [D_i, h_ab] itself overflows, which
        # the data's construction rejects before Λ, with no numpy warning
        spec = json.loads(fixture_path("free_trivial.json").read_text())
        spec["h"] = (1e306 * np.array(spec["h"])).tolist()
        spec["h_inv"] = (1e-306 * np.array(spec["h_inv"])).tolist()
        spec["derivations"] = (1e4 * np.array(spec["derivations"])).tolist()
        bad = tmp_path / "big_dh.json"
        bad.write_text(json.dumps(spec))
        message = "h is too large for its derivatives: [D_i, h_ab] overflows a double"
        assert run(capsys, "projective", str(bad)) == (1, "", f"realcalc: error: {message}\n")

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("xs, ys, message", [
        # n = 1, N = 2: sum_k X_k Y^k = 1 exactly, but X^dagger X or Y Y^dagger overflows
        ([1e200], [1e-200], "X is too large for h: h_ij = X_i^dagger X_j overflows a double"),
        ([1e-200], [1e200], "Y is too large for h_inv: h^{ij} = Y^i (Y^j)^dagger overflows a double"),
        # n = 2, N = 3: X_2 = 0 keeps the sum at 1, but Y^2 X_1 overflows
        ([1e200, 0.0], [1e-200, 1e200], "X and Y are too large for p: p^k_i = Y^k X_i overflows a double"),
    ], ids=["h", "h_inv", "p"])
    def test_generator_product_overflow_is_located(self, capsys, tmp_path, xs, ys, message, fmt):
        # generators X_k = x_k 1 and Y^k = y_k 1; the spec has no h or h_inv
        n, N = len(xs), len(xs) + 1
        derivations = [np.array([[0.0, 1.0], [-1.0, 0.0]])] if n == 1 else [
            np.diag([1j, -1j, 0.0]), np.diag([0.0, 1j, -1j])]
        spec = {"N": N, "n": n, "derivations": [_pairs(d) for d in derivations],
                "X": [_pairs(x * np.eye(N)) for x in xs], "Y": [_pairs(y * np.eye(N)) for y in ys]}
        bad = tmp_path / "big_generators.json"
        bad.write_text(json.dumps(spec))
        assert run(capsys, "projective", str(bad), "--format", fmt) == (1, "", f"realcalc: error: {message}\n")

    @staticmethod
    def _rotation_spec(p, c: float = 1e200) -> dict:
        # n = 1, N = 2: D = [[0, 1], [-1, 0]], a metric with entries c
        # whose inverse relation and compatibility hold exactly for this p
        entries = lambda m: [[[float(x), 0.0] for x in row] for row in m]
        return {"N": 2, "n": 1, "derivations": [entries([[0, 1], [-1, 0]])], "p": [[entries(p)]],
                "h": [[entries([[1, c], [c, 1]])]], "h_inv": [[entries([[1, 0], [0, 0]])]]}

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_criterion_overflow_is_located(self, capsys, tmp_path, fmt):
        # p = [[1, 1e200], [0, 0]] is idempotent and passes every invariant
        # check, as do [D, p] and Λ; p [D, p] and Λ p overflow
        bad = tmp_path / "big_p.json"
        bad.write_text(json.dumps(self._rotation_spec([[1, 1e200], [0, 0]])))
        message = ("p is too large for the criterion: its terms p^k_l [D_i, p^l_j] "
                   "or Lam^k_il p^l_j overflow a double")
        assert run(capsys, "projective", str(bad), "--format", fmt) == (1, "", f"realcalc: error: {message}\n")

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_koszul_overflow_is_located(self, capsys, tmp_path, fmt):
        # at 1e150 the criterion holds and the coefficients fit a double,
        # but h (C - Λ) overflows
        bad = tmp_path / "big_ph.json"
        bad.write_text(json.dumps(self._rotation_spec([[1, 1e150], [0, 0]], 1e150)))
        message = "the Koszul check overflows a double: its terms h_ml (C^l_ij - Lam^l_ij) do"
        assert run(capsys, "projective", str(bad), "--format", fmt) == (1, "", f"realcalc: error: {message}\n")

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("command", ["lie", "analyze"])
    def test_killing_overflow_is_located(self, capsys, tmp_path, command, fmt):
        # su(2) x 5e153: every element norm fits a double, but the Killing
        # form, which scales with their squares, does not
        spec = json.loads(fixture_path("su2.json").read_text())
        for entry in spec["basis"]:
            entry["matrix"] = (5e153 * np.array(entry["matrix"])).tolist()
        bad = tmp_path / "big_su2.json"
        bad.write_text(json.dumps(spec))
        message = "basis: the Killing form overflows a double in this basis"
        assert run(capsys, command, str(bad), "--format", fmt) == (1, "", f"realcalc: error: {message}\n")

    def test_non_finite_invariant_residual_is_a_violation(self, capsys, tmp_path):
        # p.p overflows, so the idempotence residual and its cut are both inf
        bad = tmp_path / "big_p.json"
        bad.write_text(json.dumps(self._rotation_spec([[1, 1e200], [1e200, 1]])))
        message = "projection idempotence p.p = p violated (residual inf)"
        assert run(capsys, "projective", str(bad)) == (1, "", f"realcalc: error: {message}\n")

    def test_idempotence_violation_past_the_largest_scale(self, capsys, tmp_path):
        # |p| = 1.5e154: the idempotence scale |p|^2 overflows a double, but
        # the residual 1.5e304 is still compared with a finite cut
        entries = lambda m: [[[float(x), 0.0] for x in row] for row in m]
        spec = {"N": 2, "n": 1, "derivations": [entries([[0, 1], [-1, 0]])],
                "p": [[entries([[1e150, 1.5e154], [1e-10, 0]])]],
                "h": [[entries([[1, 0], [0, 1]])]], "h_inv": [[entries([[1, 0], [0, 1]])]]}
        bad = tmp_path / "big_p.json"
        bad.write_text(json.dumps(spec))
        message = "projection idempotence p.p = p violated (residual 1.500e+304)"
        assert run(capsys, "projective", str(bad)) == (1, "", f"realcalc: error: {message}\n")

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
        # the line names the error that open(path, "w") raises on the path
        for target in (tmp_path / "missing" / "x.json", tmp_path):
            with pytest.raises(OSError) as expected:
                open(target, "w")
            code, out, err = run(capsys, "analyze", "su2.json", "--output", str(target))
            assert (code, out, err) == (1, "", f"realcalc: error: {target}: {expected.value}\n")
        assert str(expected.value).startswith("[Errno 21] ")

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

    @pytest.mark.parametrize(
        "fixture, path, value, loc",
        [
            # a pair's part, a bare entry among pairs, and a matrix of bare numbers
            ("su2.json", ["basis", 0, "matrix", 0, 1, 1], "BIG", "basis[0].matrix[0][1]"),
            ("su2.json", ["basis", 1, "matrix", 1, 0], "-BIG", "basis[1].matrix[1][0]"),
            ("su2.json", ["basis", 2, "matrix"], [[0, 1], ["BIG", 0]], "basis[2].matrix[1][0]"),
            ("su2.json", ["metric_scale"], "BIG", "metric_scale"),
            ("su2.json", ["tolerance"], {"rel": "BIG"}, "tolerance.rel"),
            ("su2.json", ["tolerance"], {"abs": "-BIG"}, "tolerance.abs"),
            ("free_trivial.json", ["p", 0, 2, 1, 0, 1], "BIG", "p[0][2][1][0]"),
            ("free_trivial.json", ["h_inv", 1, 1, 0, 0], "BIG", "h_inv[1][1][0][0]"),
            ("mat2_rank1.json", ["Y", 2, 1, 1, 0], "-BIG", "Y[2][1][1]"),
        ],
    )
    def test_numbers_too_large_for_a_double_are_located(self, capsys, tmp_path, fixture, path, value, loc):
        # JSON has no bound on integer literals; 10**400 has no double
        spec = json.loads(fixture_path(fixture).read_text())
        *outer, last = path
        parent = spec
        for key in outer:
            parent = parent[key]
        parent[last] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec).replace('"BIG"', str(10**400)).replace('"-BIG"', str(-10**400)))
        command = "analyze" if fixture == "su2.json" else "projective"
        code, out, err = run(capsys, command, str(bad))
        assert (code, out) == (1, "")
        assert err == f"realcalc: error: {loc}: number too large for a double\n"

    def test_integer_literal_past_the_digit_limit(self, capsys, tmp_path):
        # interpreters with an integer digit limit refuse it while reading
        # the file; the others read it and refuse it as too large
        spec = json.loads(fixture_path("su2.json").read_text())
        spec["metric_scale"] = "BIG"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec).replace('"BIG"', "9" * 5000))
        code, out, err = run(capsys, "analyze", str(bad))
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert err.startswith(f"realcalc: error: {bad}: ") or \
            err == "realcalc: error: metric_scale: number too large for a double\n"

    def test_file_that_is_not_utf8(self, capsys, tmp_path):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"N": 2, "name": "\xff"}')
        code, out, err = run(capsys, "analyze", str(bad))
        assert (code, out) == (1, "")
        assert err.startswith(f"realcalc: error: {bad}: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1


def _pairs_to_bare(value):
    """``value`` with every [re, im] pair in it replaced by the bare number re."""
    if isinstance(value, list) and len(value) == 2 and all(type(x) in (int, float) for x in value):
        return value[0]
    return [_pairs_to_bare(v) for v in value] if isinstance(value, list) else value


def _paths(node, path=()):
    """The key path of ``node`` and of every value nested in it."""
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, (*path, key))


def mutated_call(seed: int) -> tuple[str, dict]:
    """A command and a bundled fixture it accepts, with one or two values
    replaced: by a bool, a string, a number no double holds, the list one
    entry short or long, or its [re, im] pairs in bare form. Each value is
    picked at a depth drawn first, so that the few top-level fields are
    mutated about as often as the many entries of the matrices."""
    rng = random.Random(seed)
    name = rng.choice(sorted(ALGEBRA_FIXTURES | PROJECTIVE_FIXTURES))
    command = "projective" if name in PROJECTIVE_FIXTURES else rng.choice(["lie", "analyze"])
    spec = json.loads(fixture_path(name).read_text())
    for _ in range(rng.randint(1, 2)):
        paths = list(_paths(spec))[1:]
        depth = rng.choice(sorted({len(path) for path in paths}))
        *outer, key = rng.choice([path for path in paths if len(path) == depth])
        parent = spec
        for step in outer:
            parent = parent[step]
        node = parent[key]
        misfits = [True, False, "0", 10**400, -(10**400)]
        if isinstance(node, list):
            misfits += [node[:-1], node + node[-1:], _pairs_to_bare(node)]
        parent[key] = rng.choice(misfits)
    return command, spec


@pytest.fixture(scope="module")
def mutated_spec_file(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "spec.json"


@settings(max_examples=1000, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), fmt=st.sampled_from(["json", "text"]))
def test_mutated_specs_fail_by_name_or_print_finite_reports(mutated_spec_file, seed, fmt):
    # in-process, so a traceback is an exception out of main and a numpy
    # warning is an error (pytest's filterwarnings)
    command, spec = mutated_call(seed)
    mutated_spec_file.write_text(json.dumps(spec))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(mutated_spec_file), "--format", fmt])
    out, err = out.getvalue(), err.getvalue()
    if code == 1:
        assert out == ""
        assert err.startswith("realcalc: error: ") and err.count("\n") == 1 and err.endswith("\n")
        return
    assert (code, err) == (0, "")
    if fmt == "json":
        floats = []
        keep = lambda t: floats.append(float(t))
        json.loads(out, parse_float=keep, parse_constant=keep)
        assert all(math.isfinite(x) for x in floats)
    else:
        assert re.search(r"\b(nan|inf|infinity)\b", out, re.IGNORECASE) is None


def _parsed_entry_by_entry(monkeypatch, parse, *args):
    """``parse(*args)`` with every array read by the located walk."""
    with monkeypatch.context() as m:
        m.setattr(cli, "_fast_stack", lambda value, shape: None)
        return parse(*args)


def _walks(monkeypatch) -> list:
    """Live record of the locations that the located walk visits."""
    locs, walk = [], cli._walk

    def recording(value, shape, loc):
        locs.append(loc)
        return walk(value, shape, loc)

    monkeypatch.setattr(cli, "_walk", recording)
    return locs


# list levels above the complex entries of each matrix-valued field
_MATRIX_DEPTHS = {"derivations": 3, "X": 3, "Y": 3, "p": 4, "h": 4, "h_inv": 4}


def _bare(value, depth: int):
    """``value`` with each [re, im] pair ``depth`` list levels down replaced by the bare number re + im."""
    return value[0] + value[1] if depth == 0 else [_bare(v, depth - 1) for v in value]


def _in_bare_form(raw: dict) -> dict:
    out = {key: _bare(value, _MATRIX_DEPTHS[key]) if key in _MATRIX_DEPTHS else value
           for key, value in raw.items()}
    if "basis" in raw:
        out["basis"] = [{**entry, "matrix": _bare(entry["matrix"], 2)} for entry in raw["basis"]]
    return out


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
        slow = _spec_arrays(_parsed_entry_by_entry(monkeypatch, parse, raw))
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
        slow = _spec_arrays(_parsed_entry_by_entry(monkeypatch, parse_projective_spec, raw))
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
    def test_entry_forms_parse_as_entry_by_entry(self, monkeypatch, matrix):
        fast = cli._parse_array(matrix, (2, 2), "m")
        assert_same_arrays([fast], [_parsed_entry_by_entry(monkeypatch, cli._parse_array, matrix, (2, 2), "m")])

    @pytest.mark.parametrize("form", ["pairs", "bare"])
    @pytest.mark.parametrize("name", sorted(ALGEBRA_FIXTURES | PROJECTIVE_FIXTURES))
    def test_stacks_parse_as_entry_by_entry(self, monkeypatch, name, form):
        raw = json.loads(fixture_path(name).read_text())
        raw = _in_bare_form(raw) if form == "bare" else raw
        parse = parse_algebra_spec if name in ALGEBRA_FIXTURES else parse_projective_spec
        by_entry = _spec_arrays(_parsed_entry_by_entry(monkeypatch, parse, raw))
        locs = _walks(monkeypatch)
        fast = _spec_arrays(parse(raw))
        # a stack in one entry form is read in one pass, never walked
        assert locs == []
        assert_same_arrays(fast, by_entry)

    @pytest.mark.parametrize(
        "name, field, index",
        [("su2.json", "basis", 0), ("mat2_rank1.json", "derivations", 1)],
    )
    def test_matrices_mixing_entry_forms(self, monkeypatch, name, field, index):
        # one matrix in bare form among [re, im] pairs: the stack is read
        # entry by entry (a basis, whose gather fails, a matrix at a time),
        # and each bare entry re + im is read as the real it is
        raw = json.loads(fixture_path(name).read_text())
        parse = parse_algebra_spec if field == "basis" else parse_projective_spec
        want = _spec_arrays(parse(raw))
        want[index] = (want[index].real + want[index].imag).astype(complex)
        if field == "basis":
            raw["basis"][index]["matrix"] = _bare(raw["basis"][index]["matrix"], 2)
        else:
            raw["derivations"][index] = _bare(raw["derivations"][index], 2)
        assert_same_arrays(_spec_arrays(_parsed_entry_by_entry(monkeypatch, parse, raw)), want)
        assert_same_arrays(_spec_arrays(parse(raw)), want)

    @pytest.mark.parametrize(
        "name, path, value, message",
        [
            ("su2.json", ["basis", 1, "matrix", 0, 1], True,
             "basis[1].matrix[0][1]: expected a complex scalar [re, im]"),
            ("su2.json", ["basis", 2, "matrix", 1, 0, 1], "1",
             "basis[2].matrix[1][0]: expected a complex scalar [re, im]"),
            ("su2.json", ["basis", 1, "matrix", 1], [[0, 1]], "basis[1].matrix[1]: expected 2 entries"),
            ("su2.json", ["basis", 2, "matrix", 0, 0, 0], 10**400,
             "basis[2].matrix[0][0]: number too large for a double"),
            ("free_trivial.json", ["derivations", 2, 1, 1, 1], False,
             "derivations[2][1][1]: expected a complex scalar [re, im]"),
            ("free_trivial.json", ["derivations", 1, 0, 0], "0",
             "derivations[1][0][0]: expected a complex scalar [re, im]"),
            ("free_trivial.json", ["derivations", 1, 0], [[0, 0], [0, 1], [1, 0]],
             "derivations[1][0]: expected 2 entries"),
            ("free_trivial.json", ["derivations", 0, 1, 0], -(10**400),
             "derivations[0][1][0]: number too large for a double"),
            ("free_trivial.json", ["h", 2, 1, 0, 0, 0], True,
             "h[2][1][0][0]: expected a complex scalar [re, im]"),
            ("free_trivial.json", ["h", 0, 2, 1, 1], "x", "h[0][2][1][1]: expected a complex scalar [re, im]"),
            ("free_trivial.json", ["h", 1, 0], [[[0, 0], [1, 0]]] * 3, "h[1][0]: expected 2 rows"),
            ("free_trivial.json", ["h", 1, 1, 1, 0, 1], 10**400, "h[1][1][1][0]: number too large for a double"),
        ],
        ids=[f"{field}-{kind}" for field in ("basis", "derivations", "grid")
             for kind in ("bool", "string", "ragged", "oversize")],
    )
    def test_irregular_stacks_keep_their_errors(self, name, path, value, message):
        raw = json.loads(fixture_path(name).read_text())
        *outer, last = path
        parent = raw
        for key in outer:
            parent = parent[key]
        parent[last] = value
        parse = parse_algebra_spec if name in ALGEBRA_FIXTURES else parse_projective_spec
        with pytest.raises(cli.CliError) as exc:
            parse(raw)
        assert str(exc.value) == message
