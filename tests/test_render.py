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
