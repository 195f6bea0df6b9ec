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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realcalc import cncalc, liealg, projcalc
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
    random_unitary,
    rank_one_calculus,
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
    rows of the split's f_E); the rows a <= b of K, which its QR reads,
    keep even the signs of their zeros. Its R-SVD against the SVD of K
    itself: the same rank, the singular values within 1e-12 of the
    largest, the same [g, g] and center projectors within 1e-10.
    """
    f = all_pairs_frame_tensor(basis.E)
    assert np.array_equal(split.f, f), label
    iu, ju = np.triu_indices(basis.n, k=1)
    fp = np.ascontiguousarray(split.f[:, iu, ju].T)
    fit = liealg._fit_norms(basis.E, liealg._bracket_pairs(basis.E, iu, ju), fp, iu, ju)
    for got, want in zip(fit, all_pairs_fit_norms(basis.E, f)):
        assert np.array_equal(got, want), label
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


# Presentations on which the projective criterion of the rank-one
# calculus disagrees with the row module. The row module decides on the
# frame; lc_condition_check compares its residual with
# tol.cut(max(1, |p|, |Lambda|)), which does not scale with the
# derivations, so round-off that grows with their norms fails witnesses
# of the scaled Cartan algebras and of rescaled presentations, and on
# gc_su4 rescaled a mu that is not zero on [g, g] passes.
PROJECTIVE_CUT_DEFECT = {(name, how) for name in CARTAN for how in PRESENTATIONS} | {
    ("abelian1", "all"),
    ("gc_su4", "rescaled"),
    ("gc_su4", "all"),
    ("su2c-su3", "all"),
    ("su3c-su4", "rescaled"),
    ("su3c-su4", "all"),
    ("su4c-su5", "rescaled"),
    ("su4c-su5", "all"),
}
PROJECTIVE_CUT_REASON = "the projective cut tol.cut(max(1, |p|, |Lambda|)) does not scale with the derivations"
CROSS_SETTING = [
    pytest.param(
        name,
        how,
        id=f"{name}-{how}",
        marks=[pytest.mark.xfail(strict=True, raises=AssertionError, reason=PROJECTIVE_CUT_REASON)]
        if (name, how) in PROJECTIVE_CUT_DEFECT
        else [],
    )
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
