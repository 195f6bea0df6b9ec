"""The JSON renderer and number formatter against the references they replaced.

There is one float printer: every float array of 32 entries or more, of
any depth, is printed in bulk and rounded where it prints, and
``_jsonify`` rounds every other number one entry at a time.
``_dump_json_literal`` encodes every list subtree at every depth and
keeps the result when it fits, reading an array as its list form, and a
float array that the renderers print in bulk as the list form of its
entries rounded to 12 digits; ``render_json`` encodes each value once
and prints those float arrays in bulk. Both must print the same bytes
for any tree. ``_text_literal`` is ``render_text`` with ``json.dumps``
applied to that list form of each leaf. ``_round12`` and
``_complex_out`` are the per-scalar conversions the commands applied
before ``_jsonify`` became the formatter of every value the bulk printer
does not print.
"""

import gc
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from realcalc import cli
from realcalc.fixtures import fixture_names, fixture_path
from realcalc.liealg import LieBasis
from realcalc.matlin import DEFAULT_TOL

from support import block_with_center, generic_presentation, su_basis, trivial_data

ALGEBRA_FIXTURES = {"su2.json", "abelian1.json", "ga_su4.json", "gb_su4.json", "gc_su4.json"}


def _lists(value, every: bool = False):
    """The tree with every array replaced by its list form, that of its
    rounded entries for an array that the renderers print in bulk, or for
    every array if ``every`` (the text encoder rounds any array)."""
    if isinstance(value, np.ndarray):
        return (_round12_reference(value) if every or cli._prints_in_bulk(value) else value).tolist()
    if isinstance(value, dict):
        return {k: _lists(v, every) for k, v in value.items()}
    if isinstance(value, list):
        return [_lists(v, every) for v in value]
    return value


def _dump_json_literal(value, indent: int) -> str:
    value = _lists(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            "  " * (indent + 1) + json.dumps(k) + ": " + _dump_json_literal(v, indent + 1)
            for k, v in value.items()
        )
        return "{\n" + inner + "\n" + "  " * indent + "}"
    if isinstance(value, list):
        flat = json.dumps(value, allow_nan=False)
        if "{" not in flat and len(flat) <= 88:
            return flat
        if not value:
            return "[]"
        inner = ",\n".join(
            "  " * (indent + 1) + _dump_json_literal(v, indent + 1) for v in value
        )
        return "[\n" + inner + "\n" + "  " * indent + "]"
    return json.dumps(value, allow_nan=False)


def _first_difference(got: str, want: str) -> str:
    """Where two texts part, named by offset instead of diffing reports of megabytes."""
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    near = slice(max(at - 30, 0), at + 30)
    return f"texts differ at offset {at}: {got[near]!r} != {want[near]!r}"


def assert_same(value):
    """render_json against _dump_json_literal."""
    got, want = cli.render_json(value), _dump_json_literal(value, 0) + "\n"
    same = got == want
    assert same, _first_difference(got, want)


def _text_literal(report: dict) -> str:
    lines = []

    def walk(value, key, indent):
        pad = "  " * indent
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            for k, v in value.items():
                walk(v, k, indent + 1)
        elif isinstance(value, list) and any(isinstance(v, dict) for v in value):
            lines.append(f"{pad}{key}:")
            for idx, v in enumerate(value):
                walk(v, f"[{idx}]", indent + 1)
        else:
            lines.append(f"{pad}{key}: {json.dumps(_lists(value, every=True))}")

    for k, v in report.items():
        walk(v, k, 0)
    return "\n".join(lines) + "\n"


def assert_same_text(report: dict):
    """render_text against _text_literal."""
    got, want = cli.render_text(report), _text_literal(report)
    same = got == want
    assert same, _first_difference(got, want)


def _fixture_reports():
    for name in sorted(fixture_names()):
        raw = json.loads(fixture_path(name).read_text())
        if name in ALGEBRA_FIXTURES:
            spec = cli.parse_algebra_spec(raw)
            yield f"lie {name}", cli.cmd_lie(spec, DEFAULT_TOL, name)
            yield f"analyze {name}", cli.cmd_analyze(spec, DEFAULT_TOL, name)
        else:
            spec = cli.parse_projective_spec(raw)
            yield f"projective {name}", cli.cmd_projective(spec, DEFAULT_TOL, name)


@pytest.mark.parametrize("label, report", list(_fixture_reports()), ids=lambda x: x if isinstance(x, str) else "")
def test_fixture_reports(label, report):
    assert_same(report)


@pytest.mark.parametrize("label, report", list(_fixture_reports()), ids=lambda x: x if isinstance(x, str) else "")
def test_fixture_text_reports(label, report):
    assert_same_text(report)


def test_generic_lie_report_arrays():
    # su(3) plus a center in su(4), n = 9: the structure constants and the
    # Killing matrix reach both renderers as arrays
    mats = generic_presentation(np.random.default_rng(39), block_with_center(4, 3))
    spec = cli.AlgebraSpecFile(4, [f"D{i + 1}" for i in range(len(mats))], mats, 1.0, None)
    report = cli.cmd_lie(spec, DEFAULT_TOL, "su3c-su4")
    assert type(report["structure_constants"]) is np.ndarray and report["structure_constants"].shape == (9, 9, 9)
    assert type(report["killing"]) is np.ndarray and report["killing"].shape == (9, 9)
    assert_same_text(report)
    assert_same(report)


def _trivial_report(k: int, seed: int) -> dict:
    """The projective report on trivial data over su(k) in a generic presentation."""
    rng = np.random.default_rng(seed)
    data = trivial_data(rng, LieBasis(generic_presentation(rng, su_basis(k))))
    spec = cli.ProjectiveSpecFile(
        data.N, data.n, list(data.derivs.mats), data.p, data.h, data.h_inv, None, None, None
    )
    return cli.cmd_projective(spec, DEFAULT_TOL, f"trivial-su{k}")


def test_trivial_su3_projective_report():
    report = _trivial_report(3, 33)
    assert "connection_coefficients" in report
    assert_same(report)


@pytest.mark.parametrize("k, seed", [(3, 33), (4, 44)])
def test_trivial_projective_text_reports(k, seed):
    # the coefficient grid reaches render_text as an array and prints in bulk
    report = _trivial_report(k, seed)
    assert type(report["connection_coefficients"]) is np.ndarray
    assert_same_text(report)


@pytest.mark.parametrize("width", [87, 88, 89])
def test_inline_width_boundary(width):
    texts = [["a" * (width - 4)], [10 ** (width - 3)], ["{" * (width - 4)]]
    for flat in texts:
        assert len(json.dumps(flat)) == width
        tree = {"top": flat, "nested": {"deeper": [flat, [flat]]}, "pair": [flat, 1]}
        assert_same(tree)
        inlined = json.dumps(flat) in cli.render_json(tree).splitlines()[1]
        assert inlined == (width <= 88 and "{" not in json.dumps(flat))


def test_empty_containers():
    assert_same({"a": [], "b": {}, "c": [[], {}], "d": [[[]]], "e": [{}]})
    assert_same([])
    assert_same({})


scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(alphabet=st.sampled_from('ab{}[] ,:"\\é'), max_size=40)
)
trees = st.recursive(
    scalars,
    lambda kids: st.lists(kids, max_size=6) | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=60,
)


@given(trees)
def test_random_trees(tree):
    assert_same(tree)


@given(st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=5), max_size=6))
def test_random_numeric_grids(grid):
    # rows of floats straddle the inline width, as report grids do
    assert_same({"grid": grid})


@pytest.mark.parametrize("dtype", [float, complex])
def test_array_rounding_matches_scalar_path(dtype):
    # a bulk array is rounded where it prints, a small one entry by entry;
    # both must print exactly as the list path does, including -0.0 becoming 0.0
    rng = np.random.default_rng(9)
    values = rng.standard_normal(400) * 10.0 ** rng.integers(-30, 30, 400)
    values[::7] = -0.0
    values[::11] = 0.0
    values[::13] = -1e-300
    values[::17] = 1.0 / 3.0
    if dtype is complex:
        # set both parts directly: x + 1j * y would turn a -0.0 real part into 0.0
        values, real = np.empty(values.shape, dtype=complex), values
        values.real, values.imag = real, rng.permutation(real)
        assert np.signbit(values.real).any() and np.signbit(values.imag).any()
    for arr in (values.reshape(4, 5, 4, 5), values[:3], values[0], values[:0]):
        arr = np.asarray(arr, dtype=dtype)
        assert_same_bits(_printed_numbers(cli._jsonify(arr)), _printed_numbers(cli._jsonify(arr.tolist())))


def _printed_numbers(value) -> np.ndarray:
    """The numbers that render_json prints for a value of _jsonify, read back."""
    return np.array(json.loads(cli.render_json(value)), dtype=float)


def _round12(x: float) -> float:
    r = float(f"{float(x):.12g}")
    return 0.0 if r == 0.0 else r


def _complex_out(z: complex) -> list[float]:
    return [_round12(z.real), _round12(z.imag)]


def _jsonify_cases():
    rng = np.random.default_rng(12)
    floats = rng.standard_normal(6) * 10.0 ** rng.integers(-20, 20, 6)
    floats[2] = -0.0
    cplx = np.empty(5, dtype=complex)
    cplx.real, cplx.imag = floats[:5], np.concatenate([[-0.0], floats[:4]])
    yield "python float", 1.0 / 3.0, _round12(1.0 / 3.0)
    yield "minus zero", -0.0, 0.0
    yield "tiny", -1e-300, _round12(-1e-300)
    yield "numpy float64", np.float64(2.0 / 3.0), _round12(2.0 / 3.0)
    yield "numpy float32", np.float32(0.1), _round12(np.float32(0.1))
    yield "0-d float array", np.array(-0.0), 0.0
    yield "0-d complex array", np.array(1.0 / 7.0 - 0.0j), _complex_out(1.0 / 7.0)
    yield "python complex", complex(-0.0, 1.0 / 3.0), [0.0, _round12(1.0 / 3.0)]
    yield "numpy complex", np.complex128(cplx[1]), _complex_out(cplx[1])
    yield "float array", floats.reshape(2, 3), [[_round12(v) for v in row] for row in floats.reshape(2, 3)]
    yield "complex array", cplx, [_complex_out(z) for z in cplx]
    yield "complex matrix", cplx[:4].reshape(2, 2), [[_complex_out(z) for z in row] for row in cplx[:4].reshape(2, 2)]
    yield "int", 7, 7
    yield "numpy int", np.intp(-3), -3
    yield "int array", np.arange(4).reshape(2, 2), [[0, 1], [2, 3]]
    yield "bool", True, True
    yield "numpy bool", np.bool_(False), False
    yield "bool array", np.array([True, False]), [True, False]
    yield "None", None, None
    yield "string", "Exists", "Exists"
    yield "tuple", (np.int64(1), 2.5, -0.0), [1, 2.5, 0.0]
    yield "nested", {"a": [np.float64(-0.0), {"b": (cplx[0],)}]}, {"a": [0.0, {"b": [_complex_out(cplx[0])]}]}


def _plain(value) -> bool:
    """Whether only built-in JSON types occur (np.float64 passes json.dumps)."""
    if type(value) is dict:
        return all(type(k) is str and _plain(v) for k, v in value.items())
    if type(value) is list:
        return all(_plain(v) for v in value)
    return type(value) in (float, int, bool, str, type(None))


@pytest.mark.parametrize("label, value, expected", list(_jsonify_cases()), ids=lambda x: x if isinstance(x, str) else "")
def test_jsonify_matches_scalar_reference(label, value, expected):
    out = cli._jsonify(value)
    assert json.dumps(out) == json.dumps(expected)
    assert _plain(out)


# The bulk printer rounds each float in its scale pass (_scaled12) and
# sends the entries its exactness argument does not cover to the
# per-entry expression (_round12). The tests compare the bits of every
# result, so that -0.0 and NaN count, or the printed text of each float.


def _round12_reference(x) -> np.ndarray:
    x = np.asarray(x)
    return np.array([float(f"{v:.12g}") + 0.0 for v in x.ravel().tolist()], dtype=float).reshape(x.shape)


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


finite_or_not = st.floats(allow_subnormal=True) | st.sampled_from(
    [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1e308, -1e308, 1e-308, -1e-308, 5e-324]
)


@given(st.lists(finite_or_not, min_size=cli._BULK_MIN_SIZE, max_size=200))
def test_random_floats_print_rounded(values):
    # a 1-d array, printed in bulk; with a NaN or an infinity, both
    # renderers refuse it
    x = np.array(values)
    assert_rounded_where_printed(x)
    finite = x[np.isfinite(x)]
    if finite.size:
        assert_printed_as_repr(finite.tolist())


def _round12_edge_values() -> np.ndarray:
    values = []
    for j in range(-13, 24):
        # exact ties (m + 0.5) and their scaled near-ties, and the
        # largest and smallest 12-digit integers scaled by 10^j
        for m in (1.0, 12345678901.0, 99999999999.0, 100000000000.0, 123456789012.0, 999999999999.0):
            values += [(m + 0.5) / 10.0 ** j, (m + 0.5) * 10.0 ** j, m / 10.0 ** j, m * 10.0 ** j]
    for j in range(-40, 40):
        p = 10.0 ** j
        values += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
    values += [1e12, 1e12 - 1, 1e12 - 0.5, 1e12 + 0.5, 1e11, 1e11 - 0.5, 1e11 + 0.5, 1e11 - 1]
    values += [1e-11, 9.99999999999e-12, 1.00000000001e-11, 3e-12, 1e-300, 5e-324, 0.0]
    values = np.array(values)
    return np.concatenate([values, -values])


def test_edge_values_print_rounded():
    x = _round12_edge_values()
    assert_printed_as_repr(x.tolist())
    assert_rounded_where_printed(x)


def test_jsonify_scalars_match_reference(monkeypatch):
    # a float or complex scalar is rounded directly, never as a 0-d array
    monkeypatch.setattr(cli, "_round12", None)
    x = _round12_edge_values()
    want = _round12_reference(x)
    for convert in (float, np.float64):
        got = [cli._jsonify(convert(v)) for v in x.tolist()]
        assert {type(v) for v in got} == {float}
        assert_same_bits(np.array(got), want)
    for convert in (complex, np.complex128):
        got = [cli._jsonify(convert(complex(re, im))) for re, im in zip(x.tolist(), x[::-1].tolist())]
        assert {type(v) for pair in got for v in pair} == {float}
        assert_same_bits(np.array(got), np.stack([want, want[::-1]], axis=-1))


def test_round12_falls_back_rarely(monkeypatch):
    # on ordinary data the bulk printer's per-entry fallback must be the
    # exception, or the rounding tests above would pass on _round12 alone
    x = np.random.default_rng(4).standard_normal(10_000) * 10.0 ** np.arange(-10, 10).repeat(500)
    want = cli.render_json({"x": _round12_reference(x)})
    fallbacks = []
    entries = cli._round12
    monkeypatch.setattr(cli, "_round12", lambda v: fallbacks.append(v.size) or entries(v))
    assert cli.render_json({"x": x}) == want
    assert sum(fallbacks) < 0.01 * x.size


@pytest.mark.parametrize("shape", [(0,), (0, 3), (), (1,), (40,), (2, 3, 2, 3, 2, 2)])
@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.complex128, np.complex64])
def test_jsonify_arrays_match_entries(shape, dtype):
    rng = np.random.default_rng(len(shape))
    size = int(np.prod(shape))
    values = rng.standard_normal(2 * size) * 10.0 ** rng.integers(-14, 14, 2 * size)
    values[::5] = -0.0
    x = values[:size].reshape(shape).astype(dtype)
    if x.dtype.kind == "c":
        x.imag = values[size:].reshape(shape)
        raw = np.stack([x.real, x.imag], axis=-1).astype(float)
    else:
        raw = x.astype(float)
    want = _round12_reference(raw)
    out = cli._jsonify(x)
    # an array that the renderer prints in bulk stays an array, unrounded,
    # and prints its rounded entries
    if cli._prints_in_bulk(want):
        assert type(out) is np.ndarray
        assert_same_bits(out, raw)
        out = _printed_numbers(out)
    else:
        assert _plain(out)
    assert_same_bits(np.asarray(out, dtype=float).reshape(want.shape), want)


# Float arrays: render_json groups the floats' texts one axis at a time
# instead of rendering each subtree, and prints a nested list of floats
# by its generic path. The properties below build the arrays from a shape
# and a pool of values whose repr runs from 3 to 24 characters, so that
# rows and blocks fall on both sides of the inline width, and render each
# array both as an ndarray and as its list form.

array_values = st.sampled_from(
    [0.0, -0.0, 1.0, -2.5, 1e300, -1e300, 1e-300, -1e-300, 0.1, -2.2250738585072014e-308]
) | st.floats(allow_nan=False, allow_infinity=False)
shapes = (st.lists(st.integers(1, 6), min_size=2, max_size=5)
          | st.lists(st.integers(1, 90), min_size=1, max_size=1))  # 1-d arrays print in bulk from 32 floats
others = st.sampled_from([0, 7, True, False, None, "x", "{", np.float64(0.5)])


def _nest(leaves: list, shape: list[int]) -> list:
    for k in reversed(shape[1:]):
        leaves = [leaves[i:i + k] for i in range(0, len(leaves), k)]
    return leaves


def _rows(array: list) -> list[list]:
    """The innermost lists of a nested list, as the same objects."""
    if array and isinstance(array[0], list):
        return [row for item in array for row in _rows(item)]
    return [array]


@st.composite
def float_arrays(draw):
    shape = draw(shapes)
    pool = draw(st.lists(array_values, min_size=1, max_size=12))
    size = int(np.prod(shape))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=size, max_size=size)
                 | st.randoms(use_true_random=False).map(
                     lambda r: [r.randrange(len(pool)) for _ in range(size)]))
    return shape, [pool[i] for i in picks]


# The shortest bulk arrays: 32 floats of 3 characters each. Their 16-float
# rows fit _INLINE_WIDTH and print inline, while the whole array, whose one
# line would hold 160 characters, never does.
SHORTEST_BULK = [([32], [0.0, 1.0] * 16), ([2, 16], [1.0, 0.0, 0.0, 1.0] * 8), ([16, 2], [0.0, 1.0] * 16)]
# A 6-dimensional grid of 8 outermost slabs, printed in runs of 4 slabs at a
# _SLAB_SIZE of 18 and of 5 at 20, whose groups fall on both sides of the width.
GRID_6D = ([8, 1, 2, 1, 1, 2], [0.0, 1.0, -2.5, 0.1, -1.23456789012e-300, -2.2250738585072014e-308,
                                -0.12345678901234, -1.23456789012e-200] * 4)


def _placed(array, depth: int):
    """The array as the value at the given indent: inside depth nested dicts."""
    tree = array
    for level in range(depth):
        tree = {f"k{level}": tree, "n": level} if level % 2 else {f"k{level}": tree}
    return tree


@example(SHORTEST_BULK[0], 0)
@example(SHORTEST_BULK[1], 1)
@example(SHORTEST_BULK[2], 3)
@given(float_arrays(), st.integers(0, 3))
def test_float_arrays_match_literal(array, depth):
    shape, leaves = array
    nested = _nest(leaves, shape)
    # small arrays are left to _render's generic path, which is cheaper there
    assert cli._prints_in_bulk(np.array(nested)) == (len(leaves) >= cli._BULK_MIN_SIZE)
    assert_same(_placed(np.array(nested), depth))
    assert_same(_placed(nested, depth))


@given(float_arrays(), st.integers(0, 3), others, st.integers(min_value=0))
def test_float_arrays_with_a_foreign_leaf(array, depth, other, where):
    shape, leaves = array
    leaves[where % len(leaves)] = other
    assert_same(_placed(_nest(leaves, shape), depth))


@given(float_arrays(), st.integers(0, 3), st.booleans(), st.integers(min_value=0))
def test_ragged_float_arrays(array, depth, grow, where):
    shape, leaves = array
    nested = _nest(leaves, shape)
    rows = _rows(nested)
    row = rows[where % len(rows)]
    if grow:
        row.append(leaves[0])
    else:
        row.pop()
    assert_same(_placed(nested, depth))


# The bulk path rounds every float to 12 digits and prints most from
# their 12-digit integers; these compare its text with float.__repr__ of
# the rounded doubles on both sides of every case its argument excludes.

repr_edges = st.sampled_from([
    0.0, -0.0, 1.0, -2.0, 3e-7, 1e11, 123456789012.0, 999999999999.0, 1e12, -1e12, 1e12 + 1.0,
    1234567890123.0, 1.5e15, 1e15, 9999999999999998.0, 1e16, 1.5e16, 2.0 ** 53, 1e22,
    1e-5, -1.5e-5, 9.99999999999e-5, 1e-4, 0.000123456789012, 1.23456789012e-4, 0.1,
    1e100, -1.5e-100, 1.23456789012e-300, 1.7976931348623157e308,
    2.2250738585072014e-308, 2.2250738585072009e-308, 2.2250738585e-313, -5e-324, 1e-320,
])
# the double nearest to m * 10**e for a 12-digit m, at every decimal exponent
# from the subnormals to 1e308
decimals = st.builds(lambda m, e: float(f"{m}e{e}"), st.integers(-(10**12) + 1, 10**12 - 1),
                     st.integers(-340, 296))
doubles = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True) | decimals | repr_edges


def assert_printed_as_repr(values, slab=cli._SLAB_SIZE):
    """Every float's format and argument or literal text, and the
    one-call printer, a run of slabs at a time, give the float.__repr__
    of the float rounded to 12 digits, and every computed length is that
    text's; returns the spec index of every float."""
    want = [float.__repr__(v) for v in _round12_reference(values).tolist()]
    spec, args, literals, lengths = cli._text_lengths(np.array(values))
    assert lengths.tolist() == list(map(len, want))
    # "%d" prints the digit integers from Python ints
    assert {type(a) for a in args} <= {int} and {type(t) for t in literals} <= {str}
    args, literals = iter(args), iter(literals)
    texts = [next(literals) if s == cli._LITERAL else cli._SPECS[s] if s == cli._ZERO else cli._SPECS[s] % next(args)
             for s in spec.tolist()]
    assert texts == want
    assert next(args, None) is None and next(literals, None) is None
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cli, "_SLAB_SIZE", slab)
        text = "".join(cli._render_float_array(np.array(values)[:, None], 0, inline=True))
    assert text[2:-2].split("], [") == want
    return spec


@given(st.lists(doubles, min_size=1, max_size=60), st.booleans(), st.sampled_from([18, 20, cli._SLAB_SIZE]))
def test_printed_floats_match_repr(values, rounded, slab):
    if rounded:
        values = [float(f"{v:.12g}") for v in values]
    assert_printed_as_repr(values, slab)


def _family_values():
    """For e = -1 ... -4 and each count of trailing zeros of a 12-digit
    integer, a few digit integers M' of 12 - zeros digits, the last one
    nonzero, and the doubles nearest to +-M' * 10^(e + 1 - digits)."""
    for e in range(-1, -5, -1):
        for zeros in range(12):
            digits = 12 - zeros
            for m in {int("987654321987"[:digits]), int("9" * digits), 10 ** (digits - 1) + (digits > 1)}:
                for sign in ("", "-"):
                    yield float(f"{sign}{m}e{e + 1 - digits}"), 4 * (sign == "-") - e - 1


def test_digit_family_is_exhaustive():
    values, family = zip(*_family_values())
    spec = assert_printed_as_repr(values)
    assert spec.tolist() == list(family)


def _log10_neighbours() -> list[tuple[float, int]]:
    """The doubles within 3 ulps of 10^-1 ... 10^-4, whose log10 can miss
    the decimal exponent, with their spec index. All round to 10^-j; the
    doubles above it scale to a 12-digit value and print from their digit
    integer, those below scale to 1e12 - 1 or more, or below 1e11, and
    print as literals."""
    out = []
    for j in range(1, 5):
        below = above = 10.0 ** -j
        for _ in range(3):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, 1.0)
            out += [(float(below), cli._LITERAL), (float(above), j - 1)]
    return out


@pytest.mark.parametrize("value, spec", [
    (0.1, 0), (0.999999999999, 0), (-0.1, 4), (0.0001, 3), (0.000999999999999, 3), (-0.0001, 7),
    (9.99999999999e-05, cli._LITERAL), (-9.99999999999e-05, cli._LITERAL), (0.5e-4, cli._LITERAL),
    (1.0, cli._LITERAL), (-1.0, cli._LITERAL), (-0.0, cli._ZERO), (0.0, cli._ZERO),
    *_log10_neighbours(),
    # raw values: more than 12 digits, a near-tie, and values that round
    # up into the next decade, inside and out of the family's exponents
    (0.12345678901234, 0), (-0.00012345678901234, 7), (0.1234567890125, cli._LITERAL),
    (0.0999999999999996, cli._LITERAL), (0.9999999999997, cli._LITERAL), (9.999999999996e-05, cli._LITERAL),
    (1.23456789012345e-05, cli._LITERAL), (1e300, cli._LITERAL), (-3e-320, cli._LITERAL),
])
def test_digit_family_edges(value, spec):
    assert assert_printed_as_repr([value]).tolist() == [spec]


def test_printed_floats_fall_back_rarely(monkeypatch):
    # on report data float.__repr__ prints almost no float (integers,
    # near-ties and log10 misses only), every other one is printed by a
    # format call, or the properties above would pass on float.__repr__
    # alone
    reprs, real = [], cli._repr_texts
    monkeypatch.setattr(cli, "_repr_texts", lambda values: reprs.extend(values) or real(values))
    x = np.random.default_rng(5).standard_normal(10_000) * 10.0 ** np.arange(-10, 10).repeat(500)
    spec = cli._text_lengths(x)[0]
    assert len(reprs) < 0.01 * x.size
    assert (spec == cli._LITERAL).sum() > 0.5 * x.size


def test_printed_floats_take_the_digit_family():
    # on raw data of the coefficient grid's magnitudes, at least 90% of the
    # floats print from their digit integers, so a silent fallback to the
    # literal texts fails here and not only in the benchmark
    x = np.random.default_rng(5).standard_normal(6_000) * 10.0 ** np.arange(-3, 0).repeat(2000)
    spec = cli._text_lengths(x)[0]
    assert (spec < cli._LITERAL).mean() >= 0.9


@pytest.mark.parametrize("d", range(1, 7))
def test_separators_hold_one_conversion_per_float(d):
    # the format string of a run is a join of these texts and the literal
    # floats' texts, and is applied to one argument per float that prints
    # from its digit integer; the depth pairs left out are those of floats
    # in one inline group, whose depths are equal
    specs = len(cli._SPECS)
    conversions = [0 if s in (cli._LITERAL, cli._ZERO) else 1 for s in range(specs)]
    for indent in (0, 1, 4):
        table, prefix, suffix = cli._separators(d, indent)
        rows = table.reshape(d, d + 1, d + 1, specs)
        for c, a, b in np.ndindex(d, d + 1, d + 1):
            if a != b and min(a, b) <= c:
                assert set(rows[c, a, b]) == {None}
            else:
                assert [text.endswith(spec) for text, spec in zip(rows[c, a, b], cli._SPECS)] == [True] * specs
                assert [text.count("%") for text in rows[c, a, b]] == conversions
        assert len(prefix) == (d + 1) * specs
        for i, text in enumerate(prefix):
            assert text.endswith(cli._SPECS[i % specs])
            assert text.count("%") == conversions[i % specs]
        assert not any("%" in text for text in suffix)


@given(float_arrays(), st.integers(0, 3), st.booleans())
def test_numpy_float_leaves_match_literal(array, depth, every):
    shape, leaves = array
    leaves = [np.float64(v) if every or i % 3 == 0 else v for i, v in enumerate(leaves)]
    nested = _nest(leaves, shape)
    assert_same(_placed(np.array(nested), depth))
    assert_same(_placed(nested, depth))


@example(GRID_6D, 0, 18)
@example(GRID_6D, 2, 20)
@given(float_arrays(), st.integers(0, 3), st.sampled_from([18, 20, 48]))
def test_float_arrays_in_slabs_match_literal(array, depth, slab):
    # small slabs split most arrays, and recurse into single slabs too large
    shape, leaves = array
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cli, "_SLAB_SIZE", slab)
        nested = _nest(leaves, shape)
        assert_same(_placed(np.array(nested), depth))
        assert_same(_placed(nested, depth))


def test_render_peak_memory():
    # the report's 111,000 floats are printed a slab at a time, so the
    # per-float texts never exist for all of them at once
    report = _trivial_report(4, 44)
    tracemalloc.start()
    try:
        text = cli.render_json(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 2_500_000
    assert peak <= 12 * 2**20


@pytest.mark.parametrize("pieces", [cli._json_pieces, cli._text_pieces], ids=["json", "text"])
def test_report_pieces_peak_memory(pieces):
    # the report is kept as pieces, one per run of slabs: beside its text
    # only one run's temporaries are live, and no text is joined
    report = _trivial_report(4, 44)
    tracemalloc.start()
    try:
        printed = pieces(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(map(len, printed)) > 1_900_000
    assert peak <= 4.5 * 2**20


def test_render_text_peak_memory():
    # text prints the bulk arrays a slab at a time too, on one line each
    report = _trivial_report(4, 44)
    tracemalloc.start()
    try:
        text = cli.render_text(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 1_900_000
    assert peak <= 8 * 2**20


@example(SHORTEST_BULK[0], 0, cli._SLAB_SIZE)
@example(SHORTEST_BULK[1], 1, cli._SLAB_SIZE)
@example(SHORTEST_BULK[2], 3, cli._SLAB_SIZE)
@example(GRID_6D, 0, 18)
@example(GRID_6D, 2, 20)
@given(float_arrays(), st.integers(0, 3), st.sampled_from([18, 20, 48, cli._SLAB_SIZE]))
def test_float_arrays_match_text_literal(array, depth, slab):
    shape, leaves = array
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cli, "_SLAB_SIZE", slab)
        nested = _nest(leaves, shape)
        for grid in (np.array(nested), nested):
            assert_same_text({"grid": _placed(grid, depth), "n": 1})


# Rounding at print time: a float array that the renderers print in bulk
# reaches them unrounded and is rounded where it prints, so the raw array
# and its rounded copy print the same bytes, those of the literal of its
# rounded list form.


def assert_rounded_where_printed(x: np.ndarray):
    rounded = cli._round12(x)
    assert cli._prints_in_bulk(x)
    if not np.isfinite(x).all():
        # one rule for both formats: a NaN or an infinity has no report text
        for render in (cli.render_json, cli.render_text):
            for value in (x, rounded):
                with pytest.raises(ValueError, match="not JSON compliant"):
                    render({"x": value})
        return
    assert cli.render_json({"x": x}) == cli.render_json({"x": rounded})
    assert_same({"x": x})
    assert cli.render_text({"x": x}) == cli.render_text({"x": rounded})
    assert_same_text({"x": x})


@given(float_arrays(), st.sampled_from([18, 20, cli._SLAB_SIZE]))
def test_raw_arrays_are_rounded_where_printed(array, slab):
    shape, leaves = array
    if len(leaves) >= cli._BULK_MIN_SIZE:
        with pytest.MonkeyPatch.context() as m:
            m.setattr(cli, "_SLAB_SIZE", slab)
            assert_rounded_where_printed(np.array(_nest(leaves, shape)))


@pytest.mark.parametrize("shape", [(-1, 2), (-1, 3, 2), (2, -1)])
@pytest.mark.parametrize("slab", [18, cli._SLAB_SIZE])
def test_edge_values_are_rounded_where_printed(shape, slab):
    # near-ties, log10 neighbours of powers of ten, integers, both zeros,
    # subnormals and |x| >= 1e34, as a raw grid
    x = np.concatenate([_round12_edge_values(), np.arange(-40.0, 40.0) * 10.0 ** np.arange(-40, 40)])
    x = x[:x.size // 6 * 6].reshape(shape)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cli, "_SLAB_SIZE", slab)
        assert_rounded_where_printed(x)


def test_non_finite_text_leaves_are_refused():
    # render_text refuses a grid with a NaN or infinite entry, as
    # render_json does: printed in bulk, as a short array or list leaf,
    # and inside a list leaf
    x = np.random.default_rng(16).standard_normal((40, 3)) / 3.0
    x[5, 1], x[17, 0], x[30, 2] = float("nan"), float("inf"), float("-inf")
    assert_rounded_where_printed(x)
    for leaf in (x[5], x[5].tolist(), [x[:2], x[17]]):
        for render in (cli.render_json, cli.render_text):
            with pytest.raises(ValueError, match="not JSON compliant"):
                render({"x": leaf})
    assert cli.render_text({"x": x[:5]}) == cli.render_text({"x": cli._round12(x[:5])})


def test_jsonify_views_a_complex_grid():
    # the [re, im] pairs of a C-contiguous complex grid are a view of it:
    # no copy, rounded or not, of the su(4) coefficient grid's size
    rng = np.random.default_rng(17)
    z = rng.standard_normal((15, 15, 15, 4, 4)) + 1j * rng.standard_normal((15, 15, 15, 4, 4))
    tracemalloc.start()
    try:
        out = cli._jsonify({"c": z})["c"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.shares_memory(out, z) and out.shape == z.shape + (2,)
    assert peak < 64 * 2**10
    assert_same_bits(out, np.stack([z.real, z.imag], axis=-1))


@pytest.mark.parametrize("dtype", [float, complex])
def test_fortran_ordered_grid_prints_the_same_bytes(dtype):
    rng = np.random.default_rng(18)
    x = rng.standard_normal((6, 5, 4, 3)) * 10.0 ** rng.integers(-6, 3, (6, 5, 4, 3))
    if dtype is complex:
        x = x + 1j * rng.permutation(x.ravel()).reshape(x.shape)
    f = np.asfortranarray(x)
    assert f.flags.f_contiguous and not f.flags.c_contiguous
    for render in (cli.render_json, cli.render_text):
        assert render(cli._jsonify({"x": f})) == render(cli._jsonify({"x": x}))
    assert_same(cli._jsonify({"x": f}))


@pytest.mark.parametrize("enabled", [True, False])
def test_jsonify_keeps_the_collector_setting(enabled):
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        cli._jsonify({"a": np.ones((4, 40)), "b": [np.zeros(3, complex), 1.5]})
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_jsonify_sets_off_no_collection():
    # a coefficient stack stays one unrounded array: no nested lists are built
    x = np.random.default_rng(15).standard_normal((15, 15, 15, 4, 4, 2))
    starts = []

    def record(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    was = gc.isenabled()
    gc.enable()
    gc.callbacks.append(record)
    try:
        out = cli._jsonify(x)
    finally:
        gc.callbacks.remove(record)
        (gc.enable if was else gc.disable)()
    assert out is x
    assert starts == []


@pytest.mark.parametrize("tree", [
    [[], []],
    [[[]], [[]]],
    [[1.0], []],
    [[], [1.0]],
    [[[1.0, 2.0]], []],
    {"a": [[], []], "b": [[[], []], [[], []]]},
])
def test_float_arrays_with_empty_lists(tree):
    assert_same(tree)


@given(float_arrays(), st.integers(0, 3), st.sampled_from([float("nan"), float("inf"), float("-inf")]),
       st.integers(min_value=0))
def test_non_finite_leaf_raises(array, depth, bad, where):
    shape, leaves = array
    leaves[where % len(leaves)] = bad
    nested = _nest(leaves, shape)
    for tree in (_placed(nested, depth), _placed(np.array(nested), depth)):
        with pytest.raises(ValueError):
            _dump_json_literal(tree, 0)
        with pytest.raises(ValueError):
            cli.render_json(tree)
        # text refuses it too
        with pytest.raises(ValueError):
            cli.render_text({"tree": tree})


def test_failing_property_prints_its_example(tmp_path):
    # under the project's warnings-as-errors setting, a failing property
    # must end in its falsifying example, not in an INTERNALERROR
    import subprocess
    import sys
    from pathlib import Path

    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 10\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
