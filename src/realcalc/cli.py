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

Every number in a report, and in a canonical spec file, is printed
with 12 significant digits, -0.0 as 0.0, and a complex value as
``[re, im]``; ``_jsonify`` is the one place that applies this format.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass
from itertools import chain
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


def _jsonify(value):
    """Convert a report value, recursively, to plain JSON types in the
    report number format (see the module docstring).

    Floats and complex numbers, scalar or array, are rounded to
    ``float(f"{x:.12g}") + 0.0`` per entry (a complex one as its
    ``[re, im]`` pair); ints and bools become Python ints and bools.
    A float array of _ROUND12_MIN_SIZE entries or more is rounded by
    ``_round12``'s numpy kernel, which gives the same bits: it scales
    each entry by an exact power of ten to a 12-digit integer, rounds
    that, and scales back in one correctly rounded operation. Zeros
    stay on that path; non-finite entries, |x| below about 1e-11 or
    from about 1e34 up, near-ties and exponent misses of log10 keep the
    per-entry expression, as do scalars and smaller arrays. Cost: O(m)
    numpy work for an array of m entries, plus per-entry Python work on
    the entries that fall back only.
    """
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, complex, np.number, np.ndarray)):
        value = np.asarray(value)
        if value.dtype.kind == "c":
            value = np.stack([value.real, value.imag], axis=-1)
        if value.dtype.kind != "f":
            return _jsonify(value.tolist())
        return _round12(value).tolist()
    return value


_POW10 = 10.0 ** np.arange(23)  # every power up to 1e22 is an exact double
_ROUND12_MIN_SIZE = 32  # below this the numpy pass costs more than the entries


def _round12(x: np.ndarray) -> np.ndarray:
    """``float(f"{v:.12g}") + 0.0`` for every entry v of a float array,
    bit for bit, as a float64 array of the same shape.

    With k = 11 - floor(log10|v|) and |k| <= 22, the powers 10^|k| are
    exact, so the scaled value ``prod = v * 10^k`` (a product or a
    quotient) is within half an ulp of the true product, below 2^-14
    since |prod| < 1e12. Where 1e11 <= |prod| <= 1e12 - 1 and the
    fraction of |prod| is more than 1e-3 from one half, ``rint(prod)``
    is therefore the 12-digit integer that ``.12g`` prints, and
    ``rint(prod) / 10^k`` is one correctly rounded operation on exact
    operands: the double nearest to the printed decimal, which is what
    ``float`` returns for it. Zeros give 0.0 on the same path.

    Every other entry keeps the per-entry expression: non-finite
    values, |k| > 22 (roughly 0 < |v| < 1e-11 or |v| >= 1e34), a wrong
    exponent from log10 next to a power of ten (|prod| outside the
    range) and near-ties. So do arrays of fewer than
    _ROUND12_MIN_SIZE entries, where the fixed cost of the numpy pass
    is larger.

    Cost: O(m) numpy work on m entries, plus about a microsecond of
    Python per entry that falls back.
    """
    if x.size < _ROUND12_MIN_SIZE:
        return _round12_entries(x)
    x = x.astype(float, copy=False)
    with np.errstate(all="ignore"):
        k = 11 - np.floor(np.log10(np.abs(x)))
        fast = np.abs(k) <= 22
        k = np.where(fast, k, 0).astype(np.intp)
        # one of the two is 1, so each line below is one rounded operation
        up, down = _POW10[np.maximum(k, 0)], _POW10[np.maximum(-k, 0)]
        prod = x * up / down
        mag = np.abs(prod)
        fast &= (mag >= 1e11) & (mag <= 1e12 - 1) & (np.abs(mag - np.floor(mag) - 0.5) > 1e-3)
        fast |= x == 0
        out = np.rint(prod) * down / up + 0.0
    slow = np.flatnonzero(~fast)
    if slow.size:
        out.flat[slow] = _round12_entries(x.flat[slow])
    return out


def _round12_entries(x: np.ndarray) -> np.ndarray:
    """``_round12`` one entry at a time; adding 0.0 turns -0.0 into 0.0."""
    rounded = np.fromiter((float(f"{v:.12g}") for v in x.ravel().tolist()), float, count=x.size)
    return rounded.reshape(x.shape) + 0.0


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


_REAL = {int, float}  # bool is a subclass of int, but its type is not int


def _parse_matrix(value, N: int, loc: str) -> np.ndarray:
    """The N x N complex matrix written as a list of N rows of N entries,
    every entry a complex scalar (see the module docstring).

    A matrix whose entries are all ``[re, im]`` pairs, or all bare
    numbers, with no leaf other than an int or a float, is checked by
    C-level scans and read in one ``np.array`` call. Anything else,
    including a matrix that mixes the two entry forms, goes through
    ``_parse_matrix_entries``, which also locates every error.
    """
    if type(value) is list and len(value) == N and set(map(type, value)) == {list} \
            and set(map(len, value)) == {N}:
        entries = list(chain.from_iterable(value))
        kinds = set(map(type, entries))
        if kinds == {list}:
            if set(map(len, entries)) == {2} and set(map(type, chain.from_iterable(entries))) <= _REAL:
                # each [re, im] pair is one complex128 in memory
                return np.array(value, dtype=float).view(complex).reshape(N, N)
        elif kinds <= _REAL:
            return np.array(value, dtype=complex)
    return _parse_matrix_entries(value, N, loc)


def _parse_matrix_entries(value, N: int, loc: str) -> np.ndarray:
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
            "basis": [{"name": name, "matrix": m} for name, m in zip(self.names, self.mats)],
            "metric_scale": self.metric_scale,
        }
        if self.tolerance is not None:
            out["tolerance"] = asdict(self.tolerance)
        return _jsonify(out)


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
        out = {"N": self.N, "n": self.n, "derivations": self.derivations}
        if self.structure_constants is not None:
            out["structure_constants"] = self.structure_constants
        if self.p is not None:
            out.update(p=self.p, h=self.h, h_inv=self.h_inv)
        else:
            out.update(X=self.X, Y=self.Y)
        if self.tolerance is not None:
            out["tolerance"] = asdict(self.tolerance)
        return _jsonify(out)


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
    if not math.isfinite(metric_scale):
        raise CliError(f"metric_scale: must be finite, got {metric_scale}")
    tol = _parse_tolerance(obj.get("tolerance"), "tolerance")
    return AlgebraSpecFile(N, names, mats, metric_scale, tol)


def _parse_matrices(value, count: int, N: int, loc: str) -> list[np.ndarray]:
    if not isinstance(value, list) or len(value) != count:
        raise CliError(f"{loc}: expected a list of {count} matrices")
    return [_parse_matrix(m, N, f"{loc}[{i}]") for i, m in enumerate(value)]


def _parse_grid(value, n: int, N: int, loc: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != n:
        raise CliError(f"{loc}: expected {n} rows of matrices")
    return np.array([_parse_matrices(row, n, N, f"{loc}[{k}]") for k, row in enumerate(value)])


def parse_projective_spec(obj) -> ProjectiveSpecFile:
    if not isinstance(obj, dict):
        raise CliError("top level: expected an object")
    N = _parse_positive_int(obj, "N")
    n = _parse_positive_int(obj, "n")
    derivations = _parse_matrices(obj.get("derivations"), n, N, "derivations")
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
        X = _parse_matrices(obj["X"], n, N, "X")
        Y = _parse_matrices(obj["Y"], n, N, "Y")
    else:
        raise CliError("exactly one of {p, h, h_inv} or {X, Y} must be present")
    tol = _parse_tolerance(obj.get("tolerance"), "tolerance")
    return ProjectiveSpecFile(N, n, derivations, f, p, h, h_inv, X, Y, tol)


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


def _build_basis(spec: AlgebraSpecFile, tol: Tolerance) -> liealg.LieBasis:
    try:
        return liealg.LieBasis(spec.mats, tol)
    except ValueError as exc:
        raise CliError(f"basis: {exc}") from exc


def cmd_lie(spec: AlgebraSpecFile, tol: Tolerance, source: str) -> dict:
    basis = _build_basis(spec, tol)
    f = liealg.structure_constants(basis, tol)
    B = liealg.killing_form(f)
    der = liealg.derived_subalgebra(f, tol)
    split = liealg.levi_split_compact(f, der, tol)
    return _jsonify({
        "command": "lie",
        "input": source,
        "tolerance": asdict(tol),
        "n": basis.n,
        "N": basis.N,
        "names": list(spec.names),
        "structure_constants": f.f,
        "killing": B.B,
        "semisimple": liealg.is_semisimple(B, tol),
        "solvable": liealg.is_solvable(f, der, tol),
        "center_dim": split.radical_dim,
        "derived_dim": split.ss_dim,
        "levi_split": {"radical": split.radical_basis, "semisimple": split.ss_basis},
    })


def cmd_analyze(spec: AlgebraSpecFile, tol: Tolerance, source: str) -> dict:
    basis = _build_basis(spec, tol)
    pre = cncalc.MetricPreCalculus(basis, spec.metric_scale)
    report = cncalc.decide_existence(pre, tol)
    diagnostics = dict(report.diagnostics)
    residuals = diagnostics.pop("witness_residuals", None)
    out = {
        "command": "analyze",
        "input": source,
        "tolerance": asdict(tol),
        "metric_scale": spec.metric_scale,
        "status": report.status,
        "reason": report.reason,
        "witness": None,
        "diagnostics": diagnostics,
    }
    if report.witness is not None:
        anchor, conn = report.witness
        out["witness"] = {"v0": anchor.v0, "mu": anchor.mu, "lambdas": conn.lambdas}
        out["residuals"] = residuals
    return _jsonify(out)


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
        "tolerance": asdict(tol),
        "n": data.n,
        "N": data.N,
        "holds": holds,
        "max_residual": worst,
        "worst_index": [i + 1 for i in worst_idx],
        "residuals": residuals,
        "lambda_at_worst": lam[worst_idx],
    }
    if holds:
        coeffs = projcalc.lc_connection_coefficients(data, tol)
        out["connection_coefficients"] = coeffs
        out["koszul_residual"] = projcalc.koszul_verify_projective(data, coeffs, tol)
    return _jsonify(out)


# ---------------------------------------------------------------------------
# Rendering and dispatch


_ENCODE = json.JSONEncoder(allow_nan=False).encode
_INLINE_WIDTH = 88


def _render(value, indent: int) -> tuple[Optional[str], str]:
    """``(flat, pretty)`` text of one report value at the given depth.

    ``pretty`` is the value as printed at this depth. ``flat`` is its
    one-line JSON when that may be inlined, i.e. it has at most
    _INLINE_WIDTH characters and no "{"; otherwise None, and then no
    list holding the value can be inlined either.

    Cost: a list that is not a rectangular float array is scanned for
    rectangularity once at each depth it sits below, O(report size ×
    array depth) in all; every value is encoded once, and the rest is
    linear in the report's bytes.
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
        else:
            pretty = _render_float_array(value, indent)
            if pretty is not None:
                return (pretty if len(pretty) <= _INLINE_WIDTH else None), pretty
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


def _render_float_array(value: list, indent: int) -> Optional[str]:
    """Pretty text of a rectangular nested list of finite floats,
    exactly as _render's generic path prints it; None for any other
    list. _render calls it only on lists that hold a list, so on arrays
    of depth 2 or more, such as coefficient grids.

    The floats are encoded once each, with float.__repr__ as the JSON
    encoder does, and grouped one axis at a time from the innermost
    rows up, streaming, so that no level is held in full.
    """
    level, axes = [value], []  # every list at the current depth, in order
    while True:
        k = len(level[0])
        if k == 0 or set(map(type, level)) != {list} or set(map(len, level)) != {k}:
            return None
        axes.append(k)
        if type(level[0][0]) is not list:
            break
        level = list(chain.from_iterable(level))
    texts = map(float.__repr__, chain.from_iterable(level))
    depth = indent + len(axes)
    for k in reversed(axes):
        depth -= 1
        texts = _group_texts(texts, k, depth)
    try:
        (text,) = texts
    except TypeError:  # float.__repr__ met a leaf that is not a float
        return None
    # NaN and ±inf print as "nan" and "inf": leave them to the encoder, which raises
    return None if "n" in text else text


def _group_texts(texts, k: int, indent: int):
    """Yield the text of each run of k consecutive items at the given depth.

    A run prints inline when its one-line form fits _INLINE_WIDTH. For
    float arrays that length test is the whole of _render's rule: no
    float text holds "{", and an item printed over several lines is
    longer than its own one-line form, which was already too wide.
    """
    pad, close = "\n" + "  " * (indent + 1), "\n" + "  " * indent + "]"
    for group in zip(*[iter(texts)] * k):
        if sum(map(len, group)) + 2 * k <= _INLINE_WIDTH:
            yield "[" + ", ".join(group) + "]"
        else:
            yield "[" + pad + ("," + pad).join(group) + close


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
            try:
                Path(args.output).write_text(rendered, encoding="utf-8")
            except OSError as exc:
                raise CliError(f"{args.output}: {exc}") from exc
        else:
            sys.stdout.write(rendered)
        return 0
    except CliError as exc:
        message = str(exc)
    except liealg.ClosureViolation as exc:
        message = f"basis is not closed under brackets at pair {exc.pair}: {exc}"
    except (liealg.SplitInconsistent, cncalc.WitnessVerificationFailed) as exc:
        message = f"{type(exc).__name__}: {exc}"
    print(f"realcalc: error: {message}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
