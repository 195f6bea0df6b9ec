"""The JSON renderer and number formatter against the references they replaced.

``_dump_json_literal`` encodes every list subtree at every depth and
keeps the result when it fits; ``render_json`` encodes each value once.
Both must print the same bytes for any tree. ``_round12`` and
``_complex_out`` are the per-scalar conversions the commands applied
before ``_jsonify`` became the only formatter.
"""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from realcalc import cli
from realcalc.fixtures import fixture_names, fixture_path
from realcalc.liealg import LieBasis
from realcalc.matlin import DEFAULT_TOL

from support import generic_presentation, su_basis, trivial_data

ALGEBRA_FIXTURES = {"su2.json", "abelian1.json", "ga_su4.json", "gb_su4.json", "gc_su4.json"}


def _dump_json_literal(value, indent: int) -> str:
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


def assert_same(value):
    assert cli.render_json(value) == _dump_json_literal(value, 0) + "\n"


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


def test_trivial_su3_projective_report():
    rng = np.random.default_rng(33)
    data = trivial_data(rng, LieBasis(generic_presentation(rng, su_basis(3))))
    spec = cli.ProjectiveSpecFile(
        data.N, data.n, list(data.derivs.mats), None, data.p, data.h, data.h_inv, None, None, None
    )
    report = cli.cmd_projective(spec, DEFAULT_TOL, "trivial-su3")
    assert "connection_coefficients" in report
    assert_same(report)


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
    # arrays are rounded in one pass; the result must print exactly as the
    # entry-by-entry path does, including -0.0 becoming 0.0
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
        assert json.dumps(cli._jsonify(arr)) == json.dumps(cli._jsonify(arr.tolist()))


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


# _round12 rounds float arrays in one numpy pass and sends the entries its
# exactness argument does not cover back to the per-entry expression. The
# tests compare the bits of every result, so that -0.0 and NaN count.


def _round12_reference(x) -> np.ndarray:
    x = np.asarray(x)
    return np.array([float(f"{v:.12g}") + 0.0 for v in x.ravel().tolist()], dtype=float).reshape(x.shape)


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


finite_or_not = st.floats(allow_subnormal=True) | st.sampled_from(
    [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1e308, -1e308, 1e-308, -1e-308, 5e-324]
)


@given(st.lists(finite_or_not, min_size=cli._ROUND12_MIN_SIZE, max_size=200))
def test_round12_matches_entries_on_random_floats(values):
    x = np.array(values)
    assert_same_bits(cli._round12(x), _round12_reference(x))


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


def test_round12_matches_entries_on_edges():
    x = _round12_edge_values()
    assert_same_bits(cli._round12(x), _round12_reference(x))


def test_round12_falls_back_rarely(monkeypatch):
    # on ordinary data the fallback must be the exception, or the kernel
    # tests above would pass on the per-entry path alone
    fallbacks = []
    entries = cli._round12_entries
    monkeypatch.setattr(cli, "_round12_entries", lambda x: fallbacks.append(x.size) or entries(x))
    x = np.random.default_rng(4).standard_normal(10_000) * 10.0 ** np.arange(-10, 10).repeat(500)
    assert_same_bits(cli._round12(x), _round12_reference(x))
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
        want = _round12_reference(np.stack([x.real, x.imag], axis=-1))
    else:
        want = _round12_reference(x)
    out = cli._jsonify(x)
    assert _plain(out)
    assert_same_bits(np.array(out, dtype=float).reshape(want.shape), want)


# Rectangular float arrays: render_json groups the floats' texts one axis
# at a time instead of rendering each subtree. The properties below build
# the arrays from a shape and a pool of values whose repr runs from 3 to 24
# characters, so that rows and blocks fall on both sides of the inline width.

array_values = st.sampled_from(
    [0.0, -0.0, 1.0, -2.5, 1e300, -1e300, 1e-300, -1e-300, 0.1, -2.2250738585072014e-308]
) | st.floats(allow_nan=False, allow_infinity=False)
shapes = st.lists(st.integers(1, 6), min_size=2, max_size=5)
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


def _placed(array, depth: int):
    """The array as the value at the given indent: inside depth nested dicts."""
    tree = array
    for level in range(depth):
        tree = {f"k{level}": tree, "n": level} if level % 2 else {f"k{level}": tree}
    return tree


@given(float_arrays(), st.integers(0, 3))
def test_float_arrays_match_literal(array, depth):
    shape, leaves = array
    nested = _nest(leaves, shape)
    assert cli._render_float_array(nested, depth) is not None
    assert_same(_placed(nested, depth))


@given(float_arrays(), st.integers(0, 3), others, st.integers(min_value=0))
def test_float_arrays_with_a_foreign_leaf(array, depth, other, where):
    shape, leaves = array
    leaves[where % len(leaves)] = other
    nested = _nest(leaves, shape)
    if not isinstance(other, float):
        assert cli._render_float_array(nested, depth) is None
    assert_same(_placed(nested, depth))


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
    if len(rows) > 1:  # a single row stays rectangular
        assert cli._render_float_array(nested, depth) is None
    assert_same(_placed(nested, depth))


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
    tree = _placed(_nest(leaves, shape), depth)
    with pytest.raises(ValueError):
        _dump_json_literal(tree, 0)
    with pytest.raises(ValueError):
        cli.render_json(tree)


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
