"""Verdicts do not depend on how the algebra is presented.

Derandomized properties (the profile in ``conftest.py``) over the algebra
fixtures, su(k) plus its balancing center inside su(k + 1), and Cartan
subalgebras of su(3) and su(4), conjugated and scaled by 1e8 or 1e10,
whose brackets are pure round-off of order eps |D_i| |D_j|. Unitary
conjugation, well-conditioned real mixing, rescaling every basis element
by its own factor 10^u with u in [-12, 12], and the sign and size of
``metric_scale`` must leave status and reason unchanged, and every
witness must keep its residuals under 100 times the cut. On the same
presentations the Killing matrix and the solvability read off the split
match their oracles, its frame tensor equals bit for bit the one projected
from all n^2 brackets, and an anchor map has a Levi-Civita connection over
the row module exactly when its rank-one projective calculus meets the
projective criterion.
"""

import functools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from realcalc import cli, cncalc, liealg, projcalc
from realcalc.fixtures import fixture_path
from realcalc.liealg import LieBasis, killing_form, levi_split_compact
from realcalc.matlin import DEFAULT_TOL, max_norm

from support import (
    ALGEBRA_FIXTURES,
    all_pairs_fit_norms,
    all_pairs_frame_tensor,
    block_with_center,
    conjugate,
    direct_svd_split,
    fixture_mats,
    is_solvable_by_series,
    killing_by_ad,
    mix_basis,
    projector,
    python_on_blas_threads,
    random_unitary,
    rank_one_calculus,
    su_basis,
    trivial_data,
    user_constants,
)

EXISTS = (cncalc.EXISTS, cncalc.REASON_WITNESS)
SEMISIMPLE = (cncalc.NONEXISTENT, cncalc.REASON_SEMISIMPLE)
NO_EIGENVECTOR = (cncalc.NONEXISTENT, cncalc.REASON_NO_COMMON_EIGENVECTOR)
VERDICTS = {
    "su2": SEMISIMPLE,
    "abelian1": EXISTS,
    "ga_su4": SEMISIMPLE,
    "gb_su4": NO_EIGENVECTOR,
    "gc_su4": EXISTS,
    "su2c-su3": EXISTS,
    "su3c-su4": EXISTS,
    "su4c-su5": EXISTS,
    "cartan-su3-1e8": EXISTS,
    "cartan-su3-1e10": EXISTS,
    "cartan-su4-1e8": EXISTS,
    "cartan-su4-1e10": EXISTS,
}
CENTERED = {"su2c-su3": (3, 2), "su3c-su4": (4, 3), "su4c-su5": (5, 4)}
CARTAN = {
    "cartan-su3-1e8": (3, 1e8),
    "cartan-su3-1e10": (3, 1e10),
    "cartan-su4-1e8": (4, 1e8),
    "cartan-su4-1e10": (4, 1e10),
}

names = st.sampled_from(sorted(VERDICTS))
seeds = st.integers(0, 2**32 - 1)
metric_scales = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-6.0, 6.0)).map(
    lambda pair: pair[0] * 10.0 ** pair[1]
)


def case_mats(name: str) -> list[np.ndarray]:
    assert set(ALGEBRA_FIXTURES) <= set(VERDICTS)
    if name in CENTERED:
        return block_with_center(*CENTERED[name])
    if name in CARTAN:
        N, scale = CARTAN[name]
        diagonal = [1j * np.diag(np.eye(N)[k] - np.eye(N)[k + 1]) for k in range(N - 1)]
        return conjugate([scale * D for D in diagonal], random_unitary(np.random.default_rng(N), N))
    return fixture_mats(name)


def rescaled(data, mats: list[np.ndarray]) -> list[np.ndarray]:
    exponents = data.draw(
        st.lists(st.floats(-12.0, 12.0), min_size=len(mats), max_size=len(mats)), label="exponents"
    )
    return [10.0**u * m for u, m in zip(exponents, mats)]


def verdict(mats: list[np.ndarray], metric_scale: float = 1.0) -> tuple[str, str]:
    pre = cncalc.MetricPreCalculus(LieBasis(mats), metric_scale)
    report = cncalc.decide_existence(pre)
    if report.witness is not None:
        threshold = 100.0 * DEFAULT_TOL.cut(cncalc._witness_scale(pre))
        residuals = report.diagnostics["witness_residuals"]
        assert max(residuals.values()) <= threshold, residuals
    return report.status, report.reason


class TestPresentationInvariance:
    @settings(max_examples=40, deadline=None)
    @given(name=names, seed=seeds)
    def test_unitary_conjugation(self, name, seed):
        mats = case_mats(name)
        U = random_unitary(np.random.default_rng(seed), mats[0].shape[0])
        assert verdict(conjugate(mats, U)) == VERDICTS[name]

    @settings(max_examples=40, deadline=None)
    @given(name=names, seed=seeds)
    def test_real_mixing(self, name, seed):
        mats = mix_basis(np.random.default_rng(seed), case_mats(name))
        assert verdict(mats) == VERDICTS[name]

    @settings(max_examples=80, deadline=None)
    @given(name=names, data=st.data())
    def test_per_element_rescaling(self, name, data):
        assert verdict(rescaled(data, case_mats(name))) == VERDICTS[name]

    @settings(max_examples=40, deadline=None)
    @given(name=names, metric_scale=metric_scales)
    def test_metric_scale_sign_and_size(self, name, metric_scale):
        assert verdict(case_mats(name), metric_scale) == VERDICTS[name]

    @settings(max_examples=60, deadline=None)
    @given(name=names, seed=seeds, metric_scale=metric_scales, data=st.data())
    def test_all_transformations_together(self, name, seed, metric_scale, data):
        rng = np.random.default_rng(seed)
        mats = case_mats(name)
        mats = mix_basis(rng, conjugate(mats, random_unitary(rng, mats[0].shape[0])))
        assert verdict(rescaled(data, mats), metric_scale) == VERDICTS[name]


def presented(rng: np.random.Generator, mats: list[np.ndarray], how: str) -> list[np.ndarray]:
    """``mats`` conjugated, mixed, rescaled per element by 10^u, u in [-12, 12], or all three."""
    if how in ("conjugated", "all"):
        mats = conjugate(mats, random_unitary(rng, mats[0].shape[0]))
    if how in ("mixed", "all"):
        mats = mix_basis(rng, mats)
    if how in ("rescaled", "all"):
        mats = [10.0 ** rng.uniform(-12.0, 12.0) * m for m in mats]
    return mats


ORACLE_CASES = sorted(VERDICTS)
PRESENTATIONS = ["given", "conjugated", "mixed", "rescaled", "all"]


def assert_split_matches_oracles(basis, split, label) -> None:
    """The split of ``basis`` against its references.

    Its frame tensor, from the brackets a < b, equals the one read off
    all n^2 brackets bit for bit, and so do the bracket and residual
    norms that closure reads (``_fit_norms`` on those brackets and their
    rows of the split's f_E); its columns a <= b keep even the signs of
    their zeros, which its QR reads first, in the zero row (0, 0). Its
    R-SVD against the SVD of the columns a <= b: the same rank, the
    singular values within 1e-12 of the largest, the same [g, g] and
    center projectors within 1e-10.
    """
    f = all_pairs_frame_tensor(basis.E)
    assert np.array_equal(split.f, f), label
    iu, ju = np.triu_indices(basis.n, k=1)
    fp = np.ascontiguousarray(split.f[:, iu, ju].T)
    fit = liealg._fit_norms(basis.E, liealg._bracket_pairs(basis.E)[1:], fp)
    for got, want in zip(fit, all_pairs_fit_norms(basis.E, f)):
        assert np.array_equal(got, want[iu, ju]), label
    iu, ju = np.triu_indices(basis.n)
    assert split.f[:, iu, ju].tobytes() == f[:, iu, ju].tobytes(), label
    s, ss_basis, radical_basis = direct_svd_split(split.f)
    assert split.ss_dim == ss_basis.shape[0], label
    assert max_norm(split._singular_values - s) <= 1e-12 * s[0], label
    for got, want in ((split.ss_basis, ss_basis), (split.radical_basis, radical_basis)):
        assert max_norm(projector(got, split.n) - projector(want, split.n)) <= 1e-10, label


class TestClosedForms:
    @pytest.mark.parametrize("how", PRESENTATIONS)
    @pytest.mark.parametrize("name", ORACLE_CASES)
    def test_killing_and_solvability_match_oracles(self, name, how):
        rng = np.random.default_rng(ORACLE_CASES.index(name))
        for _ in range(4):
            mats = presented(rng, case_mats(name), how)
            basis = LieBasis(mats)
            split = levi_split_compact(basis)
            # B_ij scales with |D_i| |D_j|, so both sides are compared on unit elements
            scale = np.outer(basis.norms, basis.norms)
            oracle = killing_by_ad(user_constants(basis).f) / scale
            got = killing_form(basis, split) / scale
            assert max_norm(got - oracle) <= 1e-10 * max(1.0, max_norm(oracle)), (name, how)
            # the oracle's rank decisions read user coefficients, which per-element
            # scales of 1e24 apart would sway; its unit elements span the same algebra
            units = LieBasis([m / np.linalg.norm(m) for m in mats])
            assert (split.ss_dim == 0) == is_solvable_by_series(user_constants(units)), (name, how)

    @pytest.mark.parametrize("how", PRESENTATIONS)
    @pytest.mark.parametrize("name", ORACLE_CASES)
    def test_split_matches_direct_svd(self, name, how):
        rng = np.random.default_rng(ORACLE_CASES.index(name))
        for _ in range(4):
            basis = LieBasis(presented(rng, case_mats(name), how))
            assert_split_matches_oracles(basis, levi_split_compact(basis), (name, how))


# every test that holds the split bit for bit to products formed another
# way: all_pairs_frame_tensor, all_pairs_fit_norms and the whole bracket
# gather; none of them starts a process
SPLIT_ORACLE_TESTS = [
    "tests/test_liealg.py::TestLeviSplit::test_bracket_pairs_match_full_gather",
    "tests/test_liealg.py::TestLeviSplit::test_closure_violation_matches_all_pairs_formula",
    "tests/test_liealg.py::TestSplitAgainstOracles::test_fixtures_and_random_family",
    "tests/test_invariance.py::TestClosedForms::test_split_matches_direct_svd",
]


def test_split_oracles_hold_on_one_blas_thread():
    # the bit-for-bit oracles assume that a GEMM's rows do not depend on
    # how many rows or threads it is given; the suite runs at the default
    # thread count, so the oracle tests run once more on one thread
    proc = python_on_blas_threads(1, "-m", "pytest", "-q", "-p", "no:cacheprovider", *SPLIT_ORACLE_TESTS,
                                  cwd=Path(__file__).resolve().parents[1])
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


# Presentations on which the projective criterion of the rank-one
# calculus disagrees with the row module, each with the first anchor that
# disagrees and its criterion residual against its cut at derivation index
# i, tol.cut(max(|p| |d_i p|, |Lambda^._i.| max(1, |p|), |p| |D_i| |p|)),
# as measured on numpy 2.4 and OpenBLAS. Each presentation is rescaled: its
# derivations differ in norm by up to 10^24. Lambda^k_il mixes every D_l,
# so the residual at index i can carry terms that index i's cut does not
# see, or a mu that is not zero on [g, g] stays within it. The row
# module decides on the frame; deciding the criterion in the frame, ROADMAP
# item 2's frame form, is what mends these.
PROJECTIVE_CUT_DEFECT = {
    ("cartan-su3-1e10", "rescaled"): "random mu: residual 2.2e+04 > cut 3.1e+00 at i = 0",
    ("cartan-su3-1e8", "rescaled"): "random mu: residual 7.5e-08 > cut 1.6e-10 at i = 1",
    ("cartan-su4-1e10", "rescaled"): "random mu: residual 2.6e+02 > cut 2.6e-07 at i = 1",
    ("cartan-su4-1e8", "rescaled"): "random mu: residual 7.6e+10 > cut 7.6e+01 at i = 1",
    ("gc_su4", "rescaled"): "mu + [g, g]: residual 1.2e-15 <= cut 1.0e-12 = tol.abs",
    ("su3c-su4", "rescaled"): "witness: residual 3.9e-07 > cut 5.0e-11 at i = 8",
    ("su4c-su5", "rescaled"): "witness: residual 2.9e-06 > cut 1.2e-12 at i = 15",
    ("cartan-su3-1e8", "all"): "random mu: residual 1.6e+02 > cut 6.6e-07 at i = 0",
    ("cartan-su4-1e10", "all"): "random mu: residual 3.4e+17 > cut 3.4e+08 at i = 0",
    ("cartan-su4-1e8", "all"): "random mu: residual 1.4e+16 > cut 1.4e+07 at i = 2",
    ("gc_su4", "all"): "mu + [g, g]: residual 1.5e-04 <= cut 4.6e-02 at i = 3",
    ("su2c-su3", "all"): "mu + [g, g]: residual 5.0e-14 <= cut 1.4e-12 at i = 1",
}
PROJECTIVE_CUT_REASON = "the criterion is not decided in the frame (ROADMAP item 2's frame form)"
# Presentations on which the criterion agrees with the row module, but the
# Koszul certificate of a witness is past this test's bound: its residual is
# round-off of h [D_i, p], of order eps |h| |p| |D_i|, and the bound,
# 100 tol.cut(max(1, |h| max(1, |Lambda|))), does not scale with the
# derivations. Each entry gives the first witness's residual and bound.
KOSZUL_BOUND_DEFECT = {
    ("cartan-su3-1e10", "given"): "residual 1.2e-06 > bound 1.0e-07",
    ("cartan-su4-1e10", "given"): "residual 9.2e-07 > bound 1.0e-07",
    ("cartan-su3-1e10", "conjugated"): "residual 1.2e-06 > bound 1.0e-07",
    ("cartan-su4-1e10", "conjugated"): "residual 2.3e-06 > bound 1.0e-07",
    ("cartan-su3-1e10", "mixed"): "residual 6.2e-07 > bound 1.0e-07",
    ("cartan-su4-1e10", "mixed"): "residual 6.4e-07 > bound 1.0e-07",
    ("abelian1", "all"): "residual 8.2e-05 > bound 1.0e-07",
    ("cartan-su3-1e10", "all"): "residual 1.8e+14 > bound 1.0e+07",
    ("su3c-su4", "all"): "residual 1.6e+31 > bound 3.4e+27",
    ("su4c-su5", "all"): "residual 6.2e+36 > bound 1.2e+34",
}
KOSZUL_BOUND_REASON = "the test's Koszul bound does not scale with the derivations"


def cross_setting_marks(name: str, how: str) -> list:
    if (name, how) in PROJECTIVE_CUT_DEFECT:
        reason = f"{PROJECTIVE_CUT_REASON}; {PROJECTIVE_CUT_DEFECT[name, how]}"
    elif (name, how) in KOSZUL_BOUND_DEFECT:
        reason = f"{KOSZUL_BOUND_REASON}; {KOSZUL_BOUND_DEFECT[name, how]}"
    else:
        return []
    return [pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)]


CROSS_SETTING = [
    pytest.param(name, how, id=f"{name}-{how}", marks=cross_setting_marks(name, how))
    for how in PRESENTATIONS
    for name in ORACLE_CASES
]


def cross_setting_anchors(rng, report, basis, split) -> list[tuple[str, cncalc.AnchorMap]]:
    """The witness, mu x 3, mu plus a [g, g] row, a random v0 and a random mu.

    Without a witness, one anchor with a random v0 and a random mu.
    """
    v = rng.standard_normal(basis.N) + 1j * rng.standard_normal(basis.N)
    v0, mu = v / np.linalg.norm(v), rng.standard_normal(basis.n)
    if report.witness is None:
        return [("random", cncalc.AnchorMap(v0, mu))]
    witness, _ = report.witness
    anchors = [
        ("witness", witness),
        ("mu x 3", cncalc.AnchorMap(witness.v0, 3.0 * witness.mu)),
        ("random v0", cncalc.AnchorMap(v0, witness.mu)),
        ("random mu", cncalc.AnchorMap(witness.v0, mu)),
    ]
    if split.ss_dim:
        # a [g, g] direction of the frame, as large as mu's frame form
        mu_E = basis.T @ witness.mu
        bumped = basis.T_inv @ (mu_E + np.linalg.norm(mu_E) * split.ss_basis[0])
        anchors.append(("mu + [g, g]", cncalc.AnchorMap(witness.v0, bumped)))
    return anchors


class TestRowAndProjectiveAgree:
    @pytest.mark.parametrize("name, how", CROSS_SETTING)
    def test_levi_civita_connection_matches_rank_one_criterion(self, name, how):
        rng = np.random.default_rng(ORACLE_CASES.index(name))
        for _ in range(3):
            basis = LieBasis(presented(rng, case_mats(name), how))
            pre = cncalc.MetricPreCalculus(basis)
            split = levi_split_compact(basis)
            report = cncalc.decide_existence(pre)
            for label, anchor in cross_setting_anchors(rng, report, basis, split):
                conn, _ = cncalc.levi_civita_connection(pre, split, anchor)
                data = rank_one_calculus(basis, anchor.v0, anchor.mu)
                holds, worst, _ = projcalc.lc_condition_check(data)
                assert (conn is not None) == holds, (label, worst)
                if label == "witness":
                    coeffs = projcalc.lc_connection_coefficients(data)
                    scale = max(1.0, max_norm(data.h) * max(1.0, max_norm(projcalc.lambda_tensor(data))))
                    assert projcalc.koszul_verify_projective(data, coeffs) <= 100.0 * DEFAULT_TOL.cut(scale)


PROJECTIVE_INPUTS = ["free_trivial", "abelian_free", "mat2_rank1", "trivial-su2", "trivial-su3"]


@functools.cache
def projective_input(name: str) -> tuple[np.ndarray, tuple]:
    """The derivation matrices of a projective input, and its grids
    (p, h, h_inv) or its generators (X, Y)."""
    if name.startswith("trivial-"):
        rng = np.random.default_rng(PROJECTIVE_INPUTS.index(name))
        data = trivial_data(rng, LieBasis(su_basis(int(name[-1]))))
        return np.array(data.derivs.mats), (data.p, data.h, data.h_inv)
    if name == "cartan-su3-witness":
        # su(3)'s Cartan algebra at unit scale, with the row module's witness:
        # v0 is a common eigenvector of the D_i, so d_i p and Lambda vanish
        basis = LieBasis([D / CARTAN["cartan-su3-1e8"][1] for D in case_mats("cartan-su3-1e8")])
        witness, _ = cncalc.decide_existence(cncalc.MetricPreCalculus(basis)).witness
        data = rank_one_calculus(basis, witness.v0, witness.mu)
        return np.array(basis.mats), (data.p, data.h, data.h_inv)
    spec = cli.parse_projective_spec(json.loads(fixture_path(f"{name}.json").read_text()))
    grids = (spec.p, spec.h, spec.h_inv) if spec.p is not None else (np.array(spec.X), np.array(spec.Y))
    return np.array(spec.derivations), grids


def projective_verdict(name: str, k: float, m: float) -> tuple:
    """``(holds, worst index)`` of the input with the derivations times 10^k
    and the metric h -> c h, h_inv -> h_inv / c with c = 10^m, or the
    exception type and identity that refuse it. Generators X -> sqrt(c) X,
    Y -> Y / sqrt(c) give the same p and that metric."""
    mats, grids = projective_input(name)
    derivs, c = LieBasis(10.0**k * mats), 10.0**m
    try:
        if len(grids) == 3:
            p, h, h_inv = grids
            data = projcalc.ProjectiveCalculusData(derivs, p, c * h, h_inv / c)
        else:
            X, Y = grids
            data = projcalc.from_module_generators(np.sqrt(c) * X, Y / np.sqrt(c), derivs)
        holds, _, residuals = projcalc.lc_condition_check(data)
    except ValueError as exc:
        return type(exc).__name__, getattr(exc, "identity", None)
    return holds, np.unravel_index(np.argmax(residuals), residuals.shape)


class TestProjectiveScaling:
    """Both sides of the criterion scale linearly with the derivations, and
    Lambda does not change under h -> c h, h_inv -> h_inv / c: every cut is
    at the scale of its own terms, so neither map changes a verdict."""

    # the rank-one fixture's residual is 10^k, so a cut with a floor of 1
    # passes it only for k < -9; the corners are always drawn
    @example(name="mat2_rank1", k=-10.0, m=-10.0)
    @example(name="mat2_rank1", k=-10.0, m=10.0)
    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(PROJECTIVE_INPUTS), k=st.floats(-10.0, 10.0), m=st.floats(-10.0, 10.0))
    def test_verdict_is_scale_free(self, name, k, m):
        assert projective_verdict(name, k, m) == projective_verdict(name, 0.0, 0.0)

    # on a witness the residual is round-off of p D_i p, which grows with
    # |D_i|: a cut at the criterion's sides alone, which are round-off too,
    # fails it from about 10^4 on, and 10^5 and 10^7 are always drawn. Its
    # worst index is where the round-off peaks, so only holds is compared
    @example(k=5.0, m=0.0)
    @example(k=7.0, m=0.0)
    @settings(max_examples=30, deadline=None)
    @given(k=st.floats(-10.0, 10.0), m=st.floats(-10.0, 10.0))
    def test_witness_holds_at_every_scale(self, k, m):
        assert projective_verdict("cartan-su3-witness", k, m)[0] is True

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the residual 1e-12 meets tol.abs = 1e-12, the floor of every cut; "
                              "ROADMAP item 2's frame form decides on unit-scale derivations")
    def test_rank_one_fixture_fails_at_derivations_times_1e_minus_12(self):
        assert projective_verdict("mat2_rank1", -12.0, 0.0) == (False, (0, 1, 2))
