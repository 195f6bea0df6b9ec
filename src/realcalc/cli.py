"""Command-line front end: parse spec files, dispatch, emit reports.

Commands:
    realcalc lie <file>         Lie-algebraic structure report
    realcalc analyze <file>     Levi-Civita existence decision over C^N
    realcalc projective <file>  projective-module criterion
    realcalc fixtures           list bundled example files

Input files are JSON. A complex scalar is a two-element array
``[re, im]`` (a bare number is accepted and read as real); a matrix is
a row-major list of rows; grids of matrices are nested lists indexed
``[k][i]``. Indices in reports are 1-based to match the usual tensor
notation. Mathematical verdicts are data, not exit codes: the exit
status is 0 whenever the analysis ran, nonzero only for input or
processing errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .matlin import DEFAULT_TOL, Tolerance
from . import liealg, cncalc, projcalc
from .fixtures import fixture_names, fixture_path

__all__ = ["main", "CliError"]


class CliError(Exception):
    """Input or processing failure; message is printed to stderr."""


# ---------------------------------------------------------------------------
# JSON value handling


def _round12(x: float) -> float:
    """Canonical float: 12 significant digits, minus-zero normalized."""
    r = float(f"{float(x):.12g}")
    return 0.0 if r == 0.0 else r


def _complex_out(z: complex) -> list[float]:
    return [_round12(z.real), _round12(z.imag)]


def _jsonify(value):
    """Recursively convert report values to canonical JSON-ready types."""
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "c":
            value = np.stack([value.real, value.imag], axis=-1)
        if value.dtype.kind == "f":
            # _round12 entry by entry; adding 0.0 turns -0.0 into 0.0
            rounded = np.fromiter(
                (float(f"{x:.12g}") for x in value.ravel().tolist()), float, count=value.size
            )
            return (rounded.reshape(value.shape) + 0.0).tolist()
        return _jsonify(value.tolist())
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (complex, np.complexfloating)):
        return _complex_out(complex(value))
    if isinstance(value, (float, np.floating)):
        return _round12(float(value))
    return value


def _matrix_out(m: np.ndarray) -> list:
    return [[_complex_out(complex(z)) for z in row] for row in np.asarray(m)]


def _grid_out(grid: np.ndarray) -> list:
    return [[_matrix_out(m) for m in row] for row in grid]


def _parse_number(value, loc: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CliError(f"{loc}: expected a number")
    return float(value)


def _parse_complex(value, loc: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(value)
    if (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        return complex(value[0], value[1])
    raise CliError(f"{loc}: expected a complex scalar [re, im]")


def _parse_matrix(value, N: int, loc: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != N:
        raise CliError(f"{loc}: expected {N} rows")
    out = np.empty((N, N), dtype=complex)
    for r, row in enumerate(value):
        if not isinstance(row, list) or len(row) != N:
            raise CliError(f"{loc}[{r}]: expected {N} entries")
        for c, entry in enumerate(row):
            out[r, c] = _parse_complex(entry, f"{loc}[{r}][{c}]")
    return out


def _parse_tolerance(obj, loc: str) -> Optional[Tolerance]:
    if obj is None:
        return None
    if not isinstance(obj, dict):
        raise CliError(f"{loc}: expected an object with rel/abs")
    rel = _parse_number(obj.get("rel", DEFAULT_TOL.rel), f"{loc}.rel")
    absolute = _parse_number(obj.get("abs", DEFAULT_TOL.abs), f"{loc}.abs")
    try:
        return Tolerance(rel=rel, abs=absolute)
    except ValueError as exc:
        raise CliError(f"{loc}: {exc}") from exc


# ---------------------------------------------------------------------------
# Spec files


@dataclass
class AlgebraSpecFile:
    N: int
    names: list[str]
    mats: list[np.ndarray]
    metric_scale: float
    tolerance: Optional[Tolerance]

    def canonical(self) -> dict:
        out = {
            "N": self.N,
            "basis": [
                {"name": name, "matrix": _matrix_out(m)}
                for name, m in zip(self.names, self.mats)
            ],
            "metric_scale": _round12(self.metric_scale),
        }
        if self.tolerance is not None:
            out["tolerance"] = {
                "rel": _round12(self.tolerance.rel),
                "abs": _round12(self.tolerance.abs),
            }
        return out


@dataclass
class ProjectiveSpecFile:
    N: int
    n: int
    derivations: list[np.ndarray]
    structure_constants: Optional[np.ndarray]
    p: Optional[np.ndarray]
    h: Optional[np.ndarray]
    h_inv: Optional[np.ndarray]
    X: Optional[list[np.ndarray]]
    Y: Optional[list[np.ndarray]]
    tolerance: Optional[Tolerance]

    def canonical(self) -> dict:
        out: dict = {"N": self.N, "n": self.n}
        out["derivations"] = [_matrix_out(m) for m in self.derivations]
        if self.structure_constants is not None:
            out["structure_constants"] = [
                [[_round12(v) for v in row] for row in plane]
                for plane in self.structure_constants
            ]
        if self.p is not None:
            out["p"] = _grid_out(self.p)
            out["h"] = _grid_out(self.h)
            out["h_inv"] = _grid_out(self.h_inv)
        else:
            out["X"] = [_matrix_out(m) for m in self.X]
            out["Y"] = [_matrix_out(m) for m in self.Y]
        if self.tolerance is not None:
            out["tolerance"] = {
                "rel": _round12(self.tolerance.rel),
                "abs": _round12(self.tolerance.abs),
            }
        return out


def _parse_positive_int(obj: dict, key: str) -> int:
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise CliError(f"{key}: expected a positive integer")
    return value


def parse_algebra_spec(obj) -> AlgebraSpecFile:
    if not isinstance(obj, dict):
        raise CliError("top level: expected an object")
    N = _parse_positive_int(obj, "N")
    basis = obj.get("basis")
    if not isinstance(basis, list) or not basis:
        raise CliError("basis: expected a nonempty list of named matrices")
    names, mats = [], []
    for idx, entry in enumerate(basis):
        loc = f"basis[{idx}]"
        if not isinstance(entry, dict) or "matrix" not in entry:
            raise CliError(f"{loc}: expected an object with a 'matrix' field")
        name = entry.get("name", f"D{idx + 1}")
        if not isinstance(name, str):
            raise CliError(f"{loc}.name: expected a string")
        names.append(name)
        mats.append(_parse_matrix(entry["matrix"], N, f"{loc}.matrix"))
    metric_scale = _parse_number(obj.get("metric_scale", 1.0), "metric_scale")
    if metric_scale == 0.0:
        raise CliError("metric_scale: must be nonzero")
    tol = _parse_tolerance(obj.get("tolerance"), "tolerance")
    return AlgebraSpecFile(N, names, mats, metric_scale, tol)


def _parse_grid(value, n: int, N: int, loc: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != n:
        raise CliError(f"{loc}: expected {n} rows of matrices")
    out = np.empty((n, n, N, N), dtype=complex)
    for k, row in enumerate(value):
        if not isinstance(row, list) or len(row) != n:
            raise CliError(f"{loc}[{k}]: expected {n} matrices")
        for i, entry in enumerate(row):
            out[k, i] = _parse_matrix(entry, N, f"{loc}[{k}][{i}]")
    return out


def parse_projective_spec(obj) -> ProjectiveSpecFile:
    if not isinstance(obj, dict):
        raise CliError("top level: expected an object")
    N = _parse_positive_int(obj, "N")
    n = _parse_positive_int(obj, "n")
    derivs = obj.get("derivations")
    if not isinstance(derivs, list) or len(derivs) != n:
        raise CliError(f"derivations: expected a list of {n} matrices")
    derivations = [
        _parse_matrix(m, N, f"derivations[{i}]") for i, m in enumerate(derivs)
    ]
    f = None
    if "structure_constants" in obj:
        try:
            f = np.asarray(obj["structure_constants"], dtype=float)
        except (TypeError, ValueError):
            raise CliError("structure_constants: expected a real n x n x n tensor")
        if f.shape != (n, n, n):
            raise CliError(f"structure_constants: expected shape ({n}, {n}, {n})")
    grid_keys = [k for k in ("p", "h", "h_inv") if k in obj]
    gen_keys = [k for k in ("X", "Y") if k in obj]
    if grid_keys and gen_keys:
        raise CliError("give either the p/h/h_inv grids or the X/Y generators, not both")
    p = h = h_inv = X = Y = None
    if grid_keys:
        if len(grid_keys) != 3:
            raise CliError("p, h and h_inv must be given together")
        p = _parse_grid(obj["p"], n, N, "p")
        h = _parse_grid(obj["h"], n, N, "h")
        h_inv = _parse_grid(obj["h_inv"], n, N, "h_inv")
    elif len(gen_keys) == 2:
        X = [_parse_matrix(m, N, f"X[{i}]") for i, m in enumerate(_expect_list(obj["X"], n, "X"))]
        Y = [_parse_matrix(m, N, f"Y[{i}]") for i, m in enumerate(_expect_list(obj["Y"], n, "Y"))]
    else:
        raise CliError("exactly one of {p, h, h_inv} or {X, Y} must be present")
    tol = _parse_tolerance(obj.get("tolerance"), "tolerance")
    return ProjectiveSpecFile(N, n, derivations, f, p, h, h_inv, X, Y, tol)


def _expect_list(value, n: int, loc: str) -> list:
    if not isinstance(value, list) or len(value) != n:
        raise CliError(f"{loc}: expected a list of {n} matrices")
    return value


# ---------------------------------------------------------------------------
# Commands


def _effective_tol(file_tol: Optional[Tolerance], cli_rel: Optional[float]) -> Tolerance:
    tol = file_tol or DEFAULT_TOL
    if cli_rel is not None:
        try:
            tol = Tolerance(rel=cli_rel, abs=tol.abs)
        except ValueError as exc:
            raise CliError(f"--tol: {exc}") from exc
    return tol


def _tol_out(tol: Tolerance) -> dict:
    return {"rel": _round12(tol.rel), "abs": _round12(tol.abs)}


def _build_basis(spec: AlgebraSpecFile, tol: Tolerance) -> liealg.LieBasis:
    try:
        return liealg.LieBasis(spec.mats, tol)
    except ValueError as exc:
        raise CliError(f"basis: {exc}") from exc


def cmd_lie(spec: AlgebraSpecFile, tol: Tolerance, source: str) -> dict:
    basis = _build_basis(spec, tol)
    try:
        f = liealg.structure_constants(basis, tol)
    except liealg.ClosureViolation as exc:
        raise CliError(f"basis is not closed under brackets at pair {exc.pair}: {exc}") from exc
    B = liealg.killing_form(f)
    der = liealg.derived_subalgebra(f, tol)
    try:
        split = liealg.levi_split_compact(f, der, tol)
    except liealg.SplitInconsistent as exc:
        raise CliError(f"SplitInconsistent: {exc}") from exc
    return {
        "command": "lie",
        "input": source,
        "tolerance": _tol_out(tol),
        "n": basis.n,
        "N": basis.N,
        "names": list(spec.names),
        "structure_constants": _jsonify(f.f),
        "killing": _jsonify(B.B),
        "semisimple": liealg.is_semisimple(B, tol),
        "solvable": liealg.is_solvable(f, der, tol),
        "center_dim": split.radical_dim,
        "derived_dim": split.ss_dim,
        "levi_split": {
            "radical": _jsonify(split.radical_basis),
            "semisimple": _jsonify(split.ss_basis),
        },
    }


def cmd_analyze(spec: AlgebraSpecFile, tol: Tolerance, source: str) -> dict:
    basis = _build_basis(spec, tol)
    pre = cncalc.MetricPreCalculus(basis, spec.metric_scale)
    try:
        report = cncalc.decide_existence(pre, tol)
    except liealg.ClosureViolation as exc:
        raise CliError(f"basis is not closed under brackets at pair {exc.pair}: {exc}") from exc
    except cncalc.WitnessVerificationFailed as exc:
        raise CliError(f"WitnessVerificationFailed: {exc}") from exc
    except liealg.SplitInconsistent as exc:
        raise CliError(f"SplitInconsistent: {exc}") from exc
    diagnostics = dict(report.diagnostics)
    residuals = diagnostics.pop("witness_residuals", None)
    out = {
        "command": "analyze",
        "input": source,
        "tolerance": _tol_out(tol),
        "metric_scale": _round12(spec.metric_scale),
        "status": report.status,
        "reason": report.reason,
        "witness": None,
        "diagnostics": _jsonify(diagnostics),
    }
    if report.witness is not None:
        anchor, conn = report.witness
        out["witness"] = {
            "v0": [_complex_out(complex(z)) for z in anchor.v0],
            "mu": [_round12(m) for m in anchor.mu],
            "lambdas": [_round12(l) for l in conn.lambdas],
        }
        out["residuals"] = _jsonify(residuals)
    return out


def cmd_projective(spec: ProjectiveSpecFile, tol: Tolerance, source: str) -> dict:
    try:
        derivs = liealg.LieBasis(spec.derivations, tol)
    except ValueError as exc:
        raise CliError(f"derivations: {exc}") from exc
    try:
        if spec.structure_constants is not None:
            f = liealg.StructureConstants(spec.structure_constants, tol)
        else:
            f = liealg.structure_constants(derivs, tol)
    except liealg.ClosureViolation as exc:
        raise CliError(f"derivations are not closed under brackets at pair {exc.pair}") from exc
    except ValueError as exc:
        raise CliError(f"structure_constants: {exc}") from exc
    try:
        if spec.p is not None:
            data = projcalc.ProjectiveCalculusData(derivs, f, spec.p, spec.h, spec.h_inv, tol)
        else:
            data = projcalc.from_module_generators(spec.X, spec.Y, derivs, f, tol)
    except (projcalc.InvariantViolation, projcalc.NotGenerating, ValueError) as exc:
        raise CliError(str(exc)) from exc
    holds, worst, residuals = projcalc.lc_condition_check(data, tol)
    lam = projcalc.lambda_tensor(data).values
    worst_idx = np.unravel_index(int(np.argmax(residuals)), residuals.shape)
    out = {
        "command": "projective",
        "input": source,
        "tolerance": _tol_out(tol),
        "n": data.n,
        "N": data.N,
        "holds": bool(holds),
        "max_residual": _round12(worst),
        "worst_index": [int(i) + 1 for i in worst_idx],
        "residuals": _jsonify(residuals),
        "lambda_at_worst": _matrix_out(lam[worst_idx]),
    }
    if holds:
        coeffs = projcalc.lc_connection_coefficients(data, tol)
        out["connection_coefficients"] = _jsonify(coeffs)
        out["koszul_residual"] = _round12(
            projcalc.koszul_verify_projective(data, coeffs, tol)
        )
    return out


# ---------------------------------------------------------------------------
# Rendering and dispatch


_ENCODE = json.JSONEncoder(allow_nan=False).encode
_INLINE_WIDTH = 88


def _render(value, indent: int) -> tuple[Optional[str], str]:
    """``(flat, pretty)`` text of one report value at the given depth.

    ``pretty`` is the value as printed at this depth. ``flat`` is its
    one-line JSON when that may be inlined, i.e. it has at most
    _INLINE_WIDTH characters and no "{"; otherwise None, and then no
    list holding the value can be inlined either. Each value is encoded
    once, so rendering is linear in the size of the report.
    """
    if isinstance(value, dict):
        if not value:
            return None, "{}"
        pad = "  " * (indent + 1)
        inner = ",\n".join(
            pad + _ENCODE(k) + ": " + _render(v, indent + 1)[1] for k, v in value.items()
        )
        return None, "{\n" + inner + "\n" + "  " * indent + "}"
    if isinstance(value, list):
        if not any(isinstance(v, (dict, list)) for v in value):
            # a list of scalars, such as a [re, im] pair: one encoder call
            flat = _ENCODE(value)
            if len(flat) <= _INLINE_WIDTH and "{" not in flat:
                return flat, flat
        parts = [_render(v, indent + 1) for v in value]
        flats = [flat for flat, _ in parts]
        # two brackets, and ", " between items
        if None not in flats and sum(len(f) + 2 for f in flats) <= _INLINE_WIDTH:
            flat = "[" + ", ".join(flats) + "]"
            return flat, flat
        pad = "  " * (indent + 1)
        inner = ",\n".join(pad + pretty for _, pretty in parts)
        return None, "[\n" + inner + "\n" + "  " * indent + "]"
    text = _ENCODE(value)
    return (text if len(text) <= _INLINE_WIDTH and "{" not in text else None), text


def render_json(report: dict) -> str:
    """Deterministic JSON: fixed key order, short numeric lists inline."""
    return _render(report, 0)[1] + "\n"


def _render_text_lines(value, key: str, indent: int, lines: list[str]) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        lines.append(f"{pad}{key}:")
        for k, v in value.items():
            _render_text_lines(v, k, indent + 1, lines)
    elif isinstance(value, list) and any(isinstance(v, (dict,)) for v in value):
        lines.append(f"{pad}{key}:")
        for idx, v in enumerate(value):
            _render_text_lines(v, f"[{idx}]", indent + 1, lines)
    else:
        lines.append(f"{pad}{key}: {json.dumps(value)}")


def render_text(report: dict) -> str:
    lines: list[str] = []
    for k, v in report.items():
        _render_text_lines(v, k, 0, lines)
    return "\n".join(lines) + "\n"


def _resolve_input(arg: str) -> Path:
    path = Path(arg)
    if path.is_file():
        return path
    if "/" not in arg:
        try:
            return fixture_path(arg)
        except KeyError:
            pass
    raise CliError(f"input file not found: {arg}")


def _load_json(path: Path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except OSError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="realcalc",
        description="Decide, construct and verify Levi-Civita connections for real calculi.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("lie", "Lie-algebraic structure report for an algebra spec"),
        ("analyze", "Levi-Civita existence decision over C^N"),
        ("projective", "projective-module Levi-Civita criterion"),
    ]:
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("file", help="input JSON file (or bundled fixture name)")
        cmd.add_argument("--tol", type=float, default=None, metavar="REL",
                         help="relative tolerance override")
        cmd.add_argument("--format", choices=("text", "json"), default="text")
        cmd.add_argument("--output", default=None, metavar="PATH",
                         help="write the report to a file instead of stdout")
    sub.add_parser("fixtures", help="list bundled example files")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "fixtures":
            for name in fixture_names():
                print(f"{name}\t{fixture_path(name)}")
            return 0
        path = _resolve_input(args.file)
        raw = _load_json(path)
        if args.command == "lie":
            spec = parse_algebra_spec(raw)
            report = cmd_lie(spec, _effective_tol(spec.tolerance, args.tol), args.file)
        elif args.command == "analyze":
            spec = parse_algebra_spec(raw)
            report = cmd_analyze(spec, _effective_tol(spec.tolerance, args.tol), args.file)
        else:
            spec = parse_projective_spec(raw)
            report = cmd_projective(spec, _effective_tol(spec.tolerance, args.tol), args.file)
        rendered = render_json(report) if args.format == "json" else render_text(report)
        if args.output:
            Path(args.output).write_text(rendered, encoding="utf-8")
        else:
            sys.stdout.write(rendered)
        return 0
    except CliError as exc:
        print(f"realcalc: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
