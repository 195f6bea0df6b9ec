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
``[re, im]``. There is one format and one float printer: ``_jsonify``
rounds scalars and arrays of fewer than 32 entries one entry at a time
(``_round12``), and every float array of 32 entries or more, of any
depth, is printed in bulk (``_prints_in_bulk``), rounded where it
prints in the one scale pass ``_scaled12``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import chain
from pathlib import Path
from typing import Iterable, Optional

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
    report number format (see the module docstring), except that a float
    array of 32 entries or more, of any depth (``_prints_in_bulk``),
    stays a float64 ``ndarray``, unrounded: the bulk printer rounds it
    where it prints it.

    Floats and complex numbers are rounded to
    ``float(f"{x:.12g}") + 0.0`` per entry (a complex one as its
    ``[re, im]`` pair); ints and bools become Python ints and bools.
    A float or complex scalar (np.float64 and np.complex128 too) is
    rounded by ``_round12_scalar``; other numpy scalars are read as 0-d
    arrays. A complex array becomes the float view of its ``[re, im]``
    pairs, without a copy when it is a C-contiguous complex128 array.
    A float array of fewer than 32 entries is rounded one entry at a
    time (``_round12``) and returned as its list form. Cost: about a
    microsecond of Python per entry of a small array, linear in the
    report's bytes, and nothing for a bulk array.
    """
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, float):  # np.float64 too
        return _round12_scalar(value)
    if isinstance(value, complex):  # np.complex128 too
        return [_round12_scalar(value.real), _round12_scalar(value.imag)]
    if isinstance(value, (np.number, np.ndarray)):
        value = np.asarray(value)
        if value.dtype.kind == "c":
            value = np.ascontiguousarray(value, dtype=complex).view(float).reshape(value.shape + (2,))
        elif value.dtype.kind == "f":
            value = value.astype(float, copy=False)
        else:
            return _jsonify(value.tolist())
        return value if _prints_in_bulk(value) else _round12(value).tolist()
    return value


_POW10 = 10.0 ** np.arange(23)  # every power up to 1e22 is an exact double


def _scaled12(x: np.ndarray):
    """``(fast, k, up, down, prod)`` for a float array x, under
    ``np.errstate(all="ignore")``: k = 11 - floor(log10|x|) where
    |k| <= 22 (0 elsewhere), 10^|k| as ``up`` or ``down`` (the other is
    1), and prod = x * 10^k in one rounded operation. ``fast`` is the
    test under which M = ``rint(|prod|)`` is the 12-digit integer of x's
    ``.12g`` text: |k| <= 22, 1e11 <= |prod| <= 1e12 - 1, and the
    fraction of |prod| more than 1e-3 from one half. It is False for
    zeros and non-finite entries.

    The argument: where |k| <= 22 the powers 10^|k| are exact, so prod
    (a product or a quotient) is within half an ulp of the true product,
    below 2^-14 since |prod| < 1e12. Where the fast test holds,
    ``rint(prod)`` is therefore the 12-digit integer that ``.12g``
    prints, and ``rint(prod) / 10^k`` is one correctly rounded operation
    on exact operands: the double nearest to the printed decimal, which
    is what ``float`` returns for it, i.e. ``_round12_scalar(x)``.
    Entries that fail the test are non-finite values, |k| > 22 (roughly
    0 < |x| < 1e-11 or |x| >= 1e34), a wrong exponent from log10 next to
    a power of ten (|prod| outside the range) and near-ties; those take
    ``_round12``."""
    k = 11 - np.floor(np.log10(np.abs(x)))
    fast = np.abs(k) <= 22
    k = np.where(fast, k, 0).astype(np.intp)
    up, down = _POW10[np.maximum(k, 0)], _POW10[np.maximum(-k, 0)]
    prod = x * up / down
    mag = np.abs(prod)
    fast &= (mag >= 1e11) & (mag <= 1e12 - 1) & (np.abs(mag - np.floor(mag) - 0.5) > 1e-3)
    return fast, k, up, down, prod


def _round12_scalar(v: float) -> float:
    """The report number format of one float; adding 0.0 turns -0.0 into 0.0."""
    return float(f"{v:.12g}") + 0.0


def _round12(x: np.ndarray) -> np.ndarray:
    """``_round12_scalar`` of every entry of a float array, one entry at
    a time, as a float64 array of the same shape."""
    return np.fromiter(map(_round12_scalar, x.ravel().tolist()), float, count=x.size).reshape(x.shape)


def _too_large(loc: str) -> CliError:
    # a JSON integer literal can exceed the largest double, about 1.8e308
    return CliError(f"{loc}: number too large for a double")


def _parse_number(value, loc: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CliError(f"{loc}: expected a number")
    try:
        return float(value)
    except OverflowError:
        raise _too_large(loc) from None


def _parse_complex(value, loc: str) -> complex:
    try:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return complex(value)
        if (
            isinstance(value, list)
            and len(value) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
        ):
            return complex(value[0], value[1])
    except OverflowError:
        raise _too_large(loc) from None
    raise CliError(f"{loc}: expected a complex scalar [re, im]")


_REAL = {int, float}  # bool is a subclass of int, but its type is not int


def _fast_stack(value, shape: tuple[int, ...]) -> Optional[np.ndarray]:
    """The complex array of ``shape`` written as nested lists whose leaves
    are all ``[re, im]`` pairs or all bare ints and floats; else None.

    C-level scans check the types and lengths of every nesting level and
    leave the flat list of leaves, which one ``np.fromiter`` call reads
    (``np.array`` on the nested lists would also keep state per sublist).
    None also covers mixed leaf forms and integers too large for a
    double; ``_parse_array`` then reads the array entry by entry, which
    locates every error.
    """
    level = [value]
    for size in shape:
        if set(map(type, level)) != {list} or set(map(len, level)) != {size}:
            return None
        level = list(chain.from_iterable(level))
    kinds = set(map(type, level))
    try:
        if kinds == {list}:
            if set(map(len, level)) == {2} and set(map(type, chain.from_iterable(level))) <= _REAL:
                # each [re, im] pair is one complex128 in memory
                flat = np.fromiter(chain.from_iterable(level), float, count=2 * len(level))
                return flat.view(complex).reshape(shape)
        elif kinds <= _REAL:
            return np.fromiter(level, complex, count=len(level)).reshape(shape)
    except OverflowError:
        pass
    return None


# what a list with a given number of axes left must be, by that number
_EXPECTED = (None, "{} entries", "{} rows", "a list of {} matrices", "{} rows of matrices")


def _parse_array(value, shape: tuple[int, ...], loc: str) -> np.ndarray:
    """The complex array of ``shape``, a matrix or a stack or grid of
    matrices, written as nested lists of complex scalars (see the module
    docstring): in one pass by ``_fast_stack`` when it is well formed,
    else entry by entry, naming the first misfit in row-major order. The
    array is formed only from what was read, so a declared shape that no
    array can have is a located error, not an allocation."""
    out = _fast_stack(value, shape)
    if out is None:
        out = np.array(_walk(value, shape, loc), dtype=complex).reshape(shape)
    return out


def _walk(value, shape: tuple[int, ...], loc: str) -> list[complex]:
    """The complex leaves of ``value`` in row-major order, each level's
    length checked against ``shape``."""
    if not isinstance(value, list) or len(value) != shape[0]:
        raise CliError(f"{loc}: expected " + _EXPECTED[len(shape)].format(shape[0]))
    if len(shape) == 1:
        return [_parse_complex(item, f"{loc}[{i}]") for i, item in enumerate(value)]
    return [leaf for i, item in enumerate(value) for leaf in _walk(item, shape[1:], f"{loc}[{i}]")]


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
    p: Optional[np.ndarray]
    h: Optional[np.ndarray]
    h_inv: Optional[np.ndarray]
    X: Optional[list[np.ndarray]]
    Y: Optional[list[np.ndarray]]
    tolerance: Optional[Tolerance]

    def canonical(self) -> dict:
        out = {"N": self.N, "n": self.n, "derivations": self.derivations}
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
    stack = _fast_stack([entry.get("matrix") if isinstance(entry, dict) else None for entry in basis],
                        (len(basis), N, N))
    names, mats = [], []
    for idx, entry in enumerate(basis):
        loc = f"basis[{idx}]"
        if not isinstance(entry, dict) or "matrix" not in entry:
            raise CliError(f"{loc}: expected an object with a 'matrix' field")
        name = entry.get("name", f"D{idx + 1}")
        if not isinstance(name, str):
            raise CliError(f"{loc}.name: expected a string")
        names.append(name)
        mats.append(_parse_array(entry["matrix"], (N, N), f"{loc}.matrix") if stack is None else stack[idx])
    metric_scale = _parse_number(obj.get("metric_scale", 1.0), "metric_scale")
    if metric_scale == 0.0:
        raise CliError("metric_scale: must be nonzero")
    if not math.isfinite(metric_scale):
        raise CliError(f"metric_scale: must be finite, got {metric_scale}")
    tol = _parse_tolerance(obj.get("tolerance"), "tolerance")
    return AlgebraSpecFile(N, names, mats, metric_scale, tol)


def parse_projective_spec(obj) -> ProjectiveSpecFile:
    if not isinstance(obj, dict):
        raise CliError("top level: expected an object")
    N = _parse_positive_int(obj, "N")
    n = _parse_positive_int(obj, "n")
    derivations = list(_parse_array(obj.get("derivations"), (n, N, N), "derivations"))
    if "structure_constants" in obj:
        raise CliError("structure_constants: not accepted; the structure constants are read off the derivations")
    grid_keys = [k for k in ("p", "h", "h_inv") if k in obj]
    gen_keys = [k for k in ("X", "Y") if k in obj]
    if grid_keys and gen_keys:
        raise CliError("give either the p/h/h_inv grids or the X/Y generators, not both")
    p = h = h_inv = X = Y = None
    if grid_keys:
        if len(grid_keys) != 3:
            raise CliError("p, h and h_inv must be given together")
        p, h, h_inv = (_parse_array(obj[key], (n, n, N, N), key) for key in grid_keys)
    elif len(gen_keys) == 2:
        X, Y = (list(_parse_array(obj[key], (n, N, N), key)) for key in gen_keys)
    else:
        raise CliError("exactly one of {p, h, h_inv} or {X, Y} must be present")
    tol = _parse_tolerance(obj.get("tolerance"), "tolerance")
    return ProjectiveSpecFile(N, n, derivations, p, h, h_inv, X, Y, tol)


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
    split = liealg.levi_split_compact(basis, tol)
    try:
        f = liealg.structure_constants(basis, split)
        killing = liealg.killing_form(basis, split)
    except ValueError as exc:
        raise CliError(f"basis: {exc}") from exc
    return _jsonify({
        "command": "lie",
        "input": source,
        "tolerance": asdict(tol),
        "n": basis.n,
        "N": basis.N,
        "names": list(spec.names),
        "structure_constants": f.f,
        "killing": killing,
        "semisimple": split.radical_dim == 0,
        # g is compact, so it is solvable exactly when [g, g] = 0
        "solvable": split.ss_dim == 0,
        "center_dim": split.radical_dim,
        "derived_dim": split.ss_dim,
        "levi_split": {
            "radical": basis.user_rows(split.radical_basis),
            "semisimple": basis.user_rows(split.ss_basis),
        },
    })


def cmd_analyze(spec: AlgebraSpecFile, tol: Tolerance, source: str) -> dict:
    basis = _build_basis(spec, tol)
    pre = cncalc.MetricPreCalculus(basis, spec.metric_scale)
    try:
        report = cncalc.decide_existence(pre, tol)
    except liealg.ClosureViolation:
        raise
    except ValueError as exc:  # the Killing form overflows
        raise CliError(f"basis: {exc}") from exc
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
        if spec.p is not None:
            data = projcalc.ProjectiveCalculusData(derivs, spec.p, spec.h, spec.h_inv, tol)
        else:
            data = projcalc.from_module_generators(spec.X, spec.Y, derivs, tol)
        holds, worst, residuals = projcalc.lc_condition_check(data, tol)
        if holds:
            coeffs = projcalc.lc_connection_coefficients(data, tol)
            koszul = projcalc.koszul_verify_projective(data, coeffs)
    except liealg.ClosureViolation as exc:
        raise CliError(f"derivations are not closed under brackets at pair {exc.pair}") from exc
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    lam = projcalc.lambda_tensor(data)
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
        "lambda_at_worst": lam[worst_idx].copy(),
    }
    if holds:
        out["connection_coefficients"] = coeffs
        out["koszul_residual"] = koszul
    # the report holds no view of the data, so its grids, derivatives and
    # tensors are freed before the report is printed
    del data, lam
    return _jsonify(out)


# ---------------------------------------------------------------------------
# Rendering and dispatch


# json.dumps with no NaN or infinity; an array, which only render_text's
# leaves hand it, prints as the list form of its entries rounded by _round12
_ENCODE = json.JSONEncoder(allow_nan=False, default=lambda a: _round12(a).tolist()).encode
_INLINE_WIDTH = 88


def _render(value, indent: int) -> tuple[Optional[str], list[str]]:
    """``(flat, pretty)`` text of one report value at the given depth.

    ``pretty`` is the value as printed at this depth, as a list of pieces
    whose concatenation is the text. ``flat`` is its one-line JSON when
    that may be inlined, i.e. it has at most _INLINE_WIDTH characters and
    no "{"; otherwise None, and then no list holding the value can be
    inlined either. An array that ``_prints_in_bulk`` is printed by
    ``_render_float_array``; any other array as its list form, and lists
    always by the generic path below.

    Cost: linear in the report's bytes. Every value is encoded once;
    containers extend their pieces lists with their items' pieces, so
    no text is copied into the containers around it.
    """
    if isinstance(value, np.ndarray):
        if _prints_in_bulk(value):
            pretty = _render_float_array(value, indent)
            inline = len(pretty) == 1 and len(pretty[0]) <= _INLINE_WIDTH
            return (pretty[0] if inline else None), pretty
        value = value.tolist()
    if isinstance(value, dict):
        if not value:
            return None, ["{}"]
        pad = "\n" + "  " * (indent + 1)
        pretty, sep = [], "{"
        for k, v in value.items():
            pretty.append(sep + pad + _ENCODE(k) + ": ")
            pretty += _render(v, indent + 1)[1]
            sep = ","
        pretty.append("\n" + "  " * indent + "}")
        return None, pretty
    if isinstance(value, list):
        if not any(isinstance(v, (dict, list, np.ndarray)) for v in value):
            # a list of scalars, such as a [re, im] pair: one encoder call
            flat = _ENCODE(value)
            if len(flat) <= _INLINE_WIDTH and "{" not in flat:
                return flat, [flat]
        parts = [_render(v, indent + 1) for v in value]
        flats = [flat for flat, _ in parts]
        # two brackets, and ", " between items
        if None not in flats and sum(len(f) + 2 for f in flats) <= _INLINE_WIDTH:
            flat = "[" + ", ".join(flats) + "]"
            return flat, [flat]
        pad = "\n" + "  " * (indent + 1)
        pretty, sep = [], "["
        for _, item in parts:
            pretty.append(sep + pad)
            pretty += item
            sep = ","
        pretty.append("\n" + "  " * indent + "]")
        return None, pretty
    text = _ENCODE(value)
    return (text if len(text) <= _INLINE_WIDTH and "{" not in text else None), [text]


_BULK_MIN_SIZE = 32  # below this _render's generic path is cheaper than the numpy passes
_SLAB_SIZE = 8192  # floats per bulk pass, unless one slab holds more; at least 17


def _prints_in_bulk(x: np.ndarray) -> bool:
    """Whether the renderers print the array x in bulk: a float64 array
    of _BULK_MIN_SIZE entries or more, of any depth, such as a
    coefficient grid or a witness vector. ``_jsonify`` leaves exactly
    these arrays as arrays.
    """
    return x.dtype == np.float64 and x.size >= _BULK_MIN_SIZE


def _render_float_array(x: np.ndarray, indent: int, inline: bool = False) -> list[str]:
    """Pretty text of a float array that ``_prints_in_bulk``, as pieces,
    exactly as _render's generic path prints the list form of its
    entries rounded by ``_round12``; with ``inline``, its one-line text,
    exactly as ``json.dumps`` prints that list form. The array is
    rounded here, in the pass that picks each float's format. A NaN or
    infinite entry raises ValueError, as the JSON encoder does.

    The floats are printed in bulk, a run of slabs of the outermost axis
    at a time: as many whole slabs as fit in _SLAB_SIZE floats, and at
    least one, so that the per-float temporaries never cover the whole
    array. For each run,

    1. ``_text_lengths`` gives the length of every float's JSON text,
       float.__repr__ of its rounded value, and the format and argument
       that print it, from one scale pass, forming only the texts of
       the few floats that print as literals;
    2. the one-line length of every group at every level comes from
       reshape-sums of the text lengths, and decides whether the group
       prints inline, by _render's rule: when all its items are inline
       and its one-line form fits _INLINE_WIDTH (no float text holds
       "{", and an item printed over several lines is longer than its
       own one-line form, which was already too wide);
    3. ``_printed`` prints the run with one format call.

    With ``inline``, step 2 is skipped: every group prints inline.

    Each run is one piece; the text between two runs is another. An
    array of more than one run holds more than _SLAB_SIZE floats, so it
    never prints inline in the pretty form: every float adds at least 5
    characters to its one-line form (3 for its text, as in "0.0", and 2
    for the ", " or brackets around it), and 5 * 18 > _INLINE_WIDTH.

    Cost: O(m d) for m floats in d dimensions, in numpy passes and one
    C-level format call per run, plus the texts of the floats that print
    as literals (``_text_lengths``); linear in the bytes printed.
    """
    if not np.isfinite(x).all():
        raise ValueError("Out of range float values are not JSON compliant")
    step = max(1, _SLAB_SIZE * len(x) // x.size)  # outermost slabs per run
    if step >= len(x) and not inline:
        return [_bulk_text(x, indent, True, False)]
    pad = "\n" + "  " * (indent + 1)
    first, sep, last = ("[", ", ", "]") if inline else ("[" + pad, "," + pad, "\n" + "  " * indent + "]")
    pieces = []
    for i in range(0, len(x), step):
        pieces += sep if i else first, _bulk_text(x[i:i + step], indent, False, inline)
    pieces.append(last)
    return pieces


def _bulk_text(x: np.ndarray, indent: int, whole: bool, inline: bool) -> str:
    """The text of the finite float array x at the given depth if whole;
    otherwise x is a run of slabs of a larger array, and the text is the
    slabs' texts joined as that array joins its items, without its
    brackets: over several lines, or on one line if ``inline``. Steps
    1-3 of _render_float_array.

    Cost: O(m d) numpy work for m floats in d dimensions, and one
    format call.
    """
    d, shape, flat = x.ndim, x.shape, x.ravel()
    spec, args, literals, lengths = _text_lengths(flat)
    if inline:
        return _printed(spec, args, literals, shape, np.zeros(flat.size, np.intp), indent, 1)
    # A group's one-line form adds 2 characters for each item inside it,
    # at every level, to the texts of its floats; when that fits, so does
    # each item's shorter one-line form, and the whole group is inline.
    lengths = lengths.reshape(shape)
    inline = np.zeros(shape[:-1], np.intp)  # per innermost row, its inline groups
    items = 0
    for j in reversed(range(0 if whole else 1, d)):
        lengths = lengths.sum(axis=-1)
        items = shape[j] * (items + 1)
        fits = lengths <= _INLINE_WIDTH - 2 * items
        inline += fits.reshape(fits.shape + (1,) * (d - 1 - j))
    # depth[i]: the outermost level whose group holding float i is inline (d if none)
    depth = np.repeat(d - inline.ravel(), shape[-1])
    return _printed(spec, args, literals, shape, depth, indent, 0 if whole else 1)


def _text_lengths(x: np.ndarray) -> tuple[np.ndarray, list[int], np.ndarray, np.ndarray]:
    """For a 1-d finite float array, the report text of every entry v:
    float.__repr__ (the JSON encoder's format) of its rounded value
    r = ``float(f"{v:.12g}") + 0.0``, as the format and argument that
    print it, without forming most texts. Returns ``(spec, args,
    literals, lengths)``: every entry's format, as an index into
    ``_SPECS``; the argument of each digit-family entry, in order, as a
    Python int; the text of each ``_LITERAL`` entry, in order, as an
    object array; and the length of every entry's text.

    v is rounded here, in one scale pass (``_scaled12``). Where its fast
    test holds, M = rint(|prod|) is a 12-digit integer,
    1e11 <= M <= 1e12 - 1, and r = +-M / 10^k, the double nearest to
    that decimal (see ``_scaled12``), of decimal exponent e = 11 - k.
    For e from -4 to -1, repr(r) is printed from M:

    * the digits agree. The 12-digit text of M / 10^k reads back as r,
      so repr, the shortest text that reads back as r, has at most 12
      significant digits too. Two different decimals of at most 12
      significant digits lie about 1e-12 |r| or more apart, while every
      text that reads back as a normal r lies within 2^-53 |r| of it;
      so both texts carry the same digits. r is normal, since
      |r| >= 1e-4.
    * the form. repr prints positional digits for decimal exponents
      from -4 to 15. Let z be the trailing zeros of M and M' = M / 10^z
      the digit integer, which has exactly L = 12 - z digits, the first
      one nonzero. Then repr(r) is "0.", then -e - 1 zeros, then the L
      digits of M', with "-" first for a negative r: L + 1 - e
      characters, one more for the sign. Index 4 * (r < 0) - e - 1 of
      ``_SPECS`` is the format that prints exactly that from M'. M' is
      handed to "%" as a Python int, on which "%d" is about twice as
      fast as on a float.

    Both zeros take the literal "0.0" (``_ZERO``), 3 characters and no
    argument, since -0.0 rounds to 0.0. Every other entry takes
    ``_LITERAL``, an empty format that ``_printed`` follows with the
    text repr(r), r taken from prod where the fast test holds (exponents
    from 0 up or below -4), by ``_round12`` elsewhere (near-ties,
    |k| > 22 and log10 misses). These are about 1% of a coefficient
    grid. Where the fast test holds and r is not an integer, that text
    is "%.12g" of v, and one format call prints all of these. .12g
    prints the digits of M (see ``_scaled12``) without their trailing
    zeros, and repr the same digits (as above: r is normal, since
    |k| <= 22 gives |r| >= 1e-11).
    Both print positional digits for e from 0 to 10 (a 12-digit M with
    e >= 11 is an integer) and the same exponent form, as in "1.5e-07",
    for e below -4. Only integers, whose repr ends in ".0" or has an
    exponent of 16 or more, and entries that fail the fast test are
    printed by float.__repr__ (``_repr_texts``).

    So every printed text is repr(round12(v)), the text that the JSON
    encoder gives the entry of ``_round12(x).tolist()``. Rounding is
    idempotent, so an array prints the same bytes whether or not it was
    rounded before it reached the printer.

    Cost: O(m) numpy work on m entries, plus a "%.12g" conversion per
    ``_LITERAL`` entry that is not an integer, a float.__repr__ (about
    twice that) per other ``_LITERAL`` entry, and a ``_round12_scalar``
    per entry that fails the fast test.
    """
    with np.errstate(all="ignore"):
        fast, k, up, down, prod = _scaled12(x)
    at = np.flatnonzero(fast & (k >= 12) & (k <= 15))  # e from -4 to -1
    e, neg = 11 - k[at], x[at] < 0
    digits = np.rint(np.abs(prod[at])).astype(np.int64)
    zeros = np.zeros(at.size, np.intp)  # trailing zeros of M, up to 11
    i, m = np.arange(at.size), digits
    while i.size:
        whole = m % 10 == 0
        i, m = i[whole], m[whole] // 10
        zeros[i] += 1
    spec = np.full(x.size, _LITERAL)
    spec[at] = 4 * neg - e - 1
    spec[x == 0] = _ZERO
    lengths = np.full(x.size, 3)  # "0.0", the zeros' text
    lengths[at] = 13 - zeros - e + neg
    lit = np.flatnonzero(spec == _LITERAL)
    rounded = np.rint(prod[lit]) * down[lit] / up[lit] + 0.0  # as _round12 where fast
    slow = ~fast[lit]
    rounded[slow] = _round12(x[lit[slow]])
    general = ~slow & (rounded != np.floor(rounded))  # printed by "%.12g" of v
    texts = np.empty(lit.size, object)
    texts[general] = ("%.12g," * int(general.sum()) % tuple(x[lit[general]].tolist())).split(",")[:-1]
    texts[~general] = _repr_texts(rounded[~general].tolist())
    lengths[lit] = list(map(len, texts.tolist()))
    return spec, (digits // 10 ** zeros).tolist(), texts, lengths


def _repr_texts(values: list[float]) -> list[str]:
    """float.__repr__ of each value: the bulk printer's per-float path,
    about twice the cost of a float printed by a format call."""
    return list(map(float.__repr__, values))


def _printed(spec: np.ndarray, args: list[int], literals: np.ndarray, shape: tuple[int, ...],
             depth: np.ndarray, indent: int, top: int) -> str:
    """The floats of a run of an array of ``shape``, given by each one's
    format, the digit-family arguments and the literal texts
    (``_text_lengths``), printed with the texts between and around them
    (``_separators``), given each float's inline depth: step 3 of
    _render_float_array.

    The format string is the prefix, then for each float its entry of
    ``_SPECS``, followed by its text if it is a ``_LITERAL`` float, then
    by the text after it, then the suffix. None of these texts holds "%"
    but the one conversion of a digit-family format: a float's repr has
    none. ``_separators`` keeps each text with the format of the float
    after it, so the string is one join of table entries, with the
    literal texts appended to their floats' entries (one object-array
    addition), and one C-level ``%`` call prints every float, on the
    tuple of the digit-family arguments.
    Cost: O(m d) for m floats in d dimensions.
    """
    d, specs = len(shape), len(_SPECS)
    # common[i]: the level of the innermost group holding floats i and i + 1
    common = np.full(shape, d - 1)
    for j in range(1, d):
        common[(slice(None),) * j + (0,) * (d - j)] -= 1
    common = common.ravel()[1:]
    table, prefix, suffix = _separators(d, indent, top)
    key = ((common * (d + 1) + depth[:-1]) * (d + 1) + depth[1:]) * specs + spec[1:]
    texts = np.empty(spec.size + 1, object)
    texts[0], texts[1:-1], texts[-1] = prefix[specs * depth[0] + spec[0]], table[key], suffix[depth[-1]]
    texts[:-1][spec == _LITERAL] += literals
    return "".join(texts.tolist()) % tuple(args)


_SPECS = (*(sign + "0." + "0" * z + "%d" for sign in ("", "-") for z in range(4)), "", "0.0")
"""A float's format in the bulk printer, by index (``_text_lengths``).
Index 4 * (r < 0) - e - 1 prints a rounded value r of decimal exponent
e from -4 to -1 from its digit integer, with exactly one "%"
conversion. ``_LITERAL``, empty, is followed by the float's text as a
literal, and ``_ZERO``, a literal with no conversion, prints both
zeros."""
_LITERAL, _ZERO = map(_SPECS.index, ("", "0.0"))


@lru_cache(maxsize=None)
def _separators(d: int, indent: int, top: int):
    """The format texts around the floats of a d-dimensional array at
    the given depth whose groups at levels ``top`` and below are printed
    here.

    A float's inline depth is the outermost level whose group holding it
    prints inline (d if none). The text between floats a and b, whose
    innermost common group is at level c, closes a's groups below c,
    separates the items of c, and opens b's groups below c; which of
    these break the line follows from c and the two inline depths. That
    text is followed by b's format, ``_SPECS[s]`` for b's spec index s
    (``_printed``). So, with S = len(_SPECS),
    ``table[((c * (d + 1) + depth_a) * (d + 1) + depth_b) * S + s]`` is
    that text and format, ``prefix[S * depth + s]`` opens the first
    float's groups and holds its format, and ``suffix[depth]`` closes
    the last one's. Every entry and prefix holds the one "%" conversion
    of its format, or none for ``_LITERAL`` and ``_ZERO``; the suffixes
    hold none. The tables are built on first use for each argument triple,
    never at import.

    Floats a and b share their groups at levels 0 to c, so when either
    depth is c or less, the group at that level holds both and is
    inline, and the two depths are equal. The entries of the other
    depth pairs are never read and stay None, which keeps the table at
    about 40% of its full size.
    """
    def opens(depth, low):
        return "".join("[" if j >= depth else "[\n" + "  " * (indent + j + 1) for j in range(low, d))

    def closes(depth, low):
        return "".join("]" if j >= depth else "\n" + "  " * (indent + j) + "]"
                       for j in reversed(range(low, d)))

    specs = len(_SPECS)
    table = np.empty(specs * d * (d + 1) ** 2, dtype=object)
    for c in range(d):
        for a in range(d + 1):
            comma = ", " if c >= a else ",\n" + "  " * (indent + c + 1)
            for b in range(d + 1):
                if a != b and min(a, b) <= c:
                    continue  # floats in one inline group share their depth
                key = ((c * (d + 1) + a) * (d + 1) + b) * specs
                table[key:key + specs] = [closes(a, c + 1) + comma + opens(b, c + 1) + spec for spec in _SPECS]
    table.flags.writeable = False  # shared by every call with these arguments
    prefix = tuple(opens(a, top) + spec for a in range(d + 1) for spec in _SPECS)
    return table, prefix, tuple(closes(a, top) for a in range(d + 1))


def _json_pieces(report: dict) -> list[str]:
    """``render_json``'s text as pieces."""
    pieces = _render(report, 0)[1]
    pieces.append("\n")
    return pieces


def render_json(report: dict) -> str:
    """Deterministic JSON: fixed key order, short numeric lists inline.
    A float array of 32 entries or more (``_prints_in_bulk``) prints the
    list form of its entries rounded to 12 digits (``_round12``), rounded
    as it prints; other values print as they are. The pieces that
    ``_render`` prints are joined once."""
    return "".join(_json_pieces(report))


def _render_text_lines(value, key: str, indent: int, pieces: list[str]) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        pieces.append(f"{pad}{key}:\n")
        for k, v in value.items():
            _render_text_lines(v, k, indent + 1, pieces)
    elif isinstance(value, list) and any(isinstance(v, (dict,)) for v in value):
        pieces.append(f"{pad}{key}:\n")
        for idx, v in enumerate(value):
            _render_text_lines(v, f"[{idx}]", indent + 1, pieces)
    elif isinstance(value, np.ndarray) and _prints_in_bulk(value):
        pieces.append(f"{pad}{key}: ")
        pieces += _render_float_array(value, 0, inline=True)
        pieces.append("\n")
    else:
        pieces.append(f"{pad}{key}: {_ENCODE(value)}\n")


def _text_pieces(report: dict) -> list[str]:
    """``render_text``'s text as pieces."""
    pieces: list[str] = []
    for k, v in report.items():
        _render_text_lines(v, k, 0, pieces)
    return pieces


def render_text(report: dict) -> str:
    """Indented ``key: value`` lines, each leaf as ``json.dumps`` prints
    the list form of its arrays' entries rounded to 12 digits
    (``_round12``); a float array of 32 entries or more
    (``_prints_in_bulk``) by the one bulk printer,
    ``_render_float_array`` with every group inline. A NaN or infinite
    value raises ValueError, as in ``render_json``."""
    return "".join(_text_pieces(report))


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
    except ValueError as exc:  # bytes that are not UTF-8, or an integer past the digit limit
        raise CliError(f"{path}: {exc}") from exc
    except OSError as exc:
        raise CliError(f"{path}: {exc}") from exc


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The one argument parser; ``parse_args`` leaves it unchanged, so calls share it."""
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


def _write_over(path: str, pieces: Iterable[str]) -> None:
    """Write ``pieces`` over the file at ``path`` and cut it to their length.

    On some filesystems (ext4 mounted with ``discard``) emptying a file
    costs more than writing a report, so the file is opened without
    O_TRUNC, with the mode that ``open(path, "w")`` gives under the same
    umask. After the write, even a failed one, the file is cut to the
    bytes written, so no old byte is left past them. Only a regular file
    is cut: ``ftruncate`` refuses devices such as /dev/null. The pieces
    are written one at a time, never joined.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as fh:
        try:
            fh.writelines(pieces)
        finally:
            try:
                fh.flush()
            finally:
                fd = fh.fileno()
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


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
        # every piece is printed before anything is written, so a report
        # that fails to render leaves stdout and the output file untouched;
        # the output file is then written over in place, not emptied first
        try:
            pieces = _json_pieces(report) if args.format == "json" else _text_pieces(report)
        except ValueError as exc:  # a NaN or infinite value, which neither format prints
            raise CliError(f"report: {exc}") from exc
        if args.output:
            try:
                _write_over(args.output, pieces)
            except OSError as exc:
                raise CliError(f"{args.output}: {exc}") from exc
        else:
            sys.stdout.writelines(pieces)
        return 0
    except CliError as exc:
        message = str(exc)
    except liealg.ClosureViolation as exc:
        message = f"basis is not closed under brackets at pair {exc.pair}: {exc}"
    except cncalc.WitnessVerificationFailed as exc:
        message = f"{type(exc).__name__}: {exc}"
    print(f"realcalc: error: {message}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
