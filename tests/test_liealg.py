import contextlib
import tracemalloc

import numpy as np
import pytest

from realcalc import cncalc, liealg
from realcalc.liealg import (
    ClosureViolation,
    LieBasis,
    StructureConstants,
    anchor_solution_space,
    common_left_eigenvector,
    killing_form,
    levi_split_compact,
    mu_obstruction_space,
)
from realcalc.matlin import DEFAULT_TOL, Tolerance, antihermitian_eigen, max_norm

from support import (
    ALGEBRA_FIXTURES,
    all_pairs_closure_violation,
    all_pairs_fit_norms,
    all_pairs_frame_tensor,
    block_with_center,
    center,
    derived_subalgebra,
    family_200,
    fixture_mats,
    generic_presentation,
    is_semisimple,
    is_solvable_by_series,
    killing_by_ad,
    mu_system_matrix,
    projector,
    random_subalgebra,
    su2_mats,
    su4_family,
    su_basis,
    user_constants,
)

from test_invariance import assert_split_matches_oracles

D1, D2, D3 = su2_mats()


def oracle_split(f: StructureConstants) -> liealg.LeviSplit:
    """A user-coefficient split from the oracle center and [g, g]."""
    return liealg.LeviSplit(f.f, center(f), derived_subalgebra(f))


def abelian_diag(n: int) -> LieBasis:
    """n commuting diagonal derivations inside su(n + 1)."""
    mats = []
    for k in range(n):
        d = np.zeros(n + 1, dtype=complex)
        d[k], d[k + 1] = 1j, -1j
        mats.append(np.diag(d))
    return LieBasis(mats)


class TestLieBasis:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            LieBasis([])

    def test_rejects_hermitian(self):
        with pytest.raises(ValueError):
            LieBasis([np.array([[0, 1], [1, 0]], dtype=complex)])

    def test_rejects_traceful(self):
        for traceful in (np.diag([1j, 1j]), np.eye(2)):
            with pytest.raises(ValueError):
                LieBasis([traceful])

    def test_names_the_first_failing_matrix_against_its_own_scale(self):
        # a 1e-6 antihermiticity defect is round-off beside an element of
        # norm 1e6, not beside one of norm 1; a trace is caught the same way
        off = np.array([[0, 1e-6], [0, 0]], dtype=complex)
        message = r"^basis matrix 1 is not trace-free antihermitian$"
        with pytest.raises(ValueError, match=message):
            LieBasis([1e6 * D1 + off, D2 + off, D3 + off])
        with pytest.raises(ValueError, match=message):
            LieBasis([D1, D2 + 1e-6j * np.eye(2), D3])
        assert LieBasis([1e6 * D1 + off, D2, D3]).n == 3

    def test_rejects_dependent_over_reals(self):
        with pytest.raises(ValueError):
            LieBasis([D3, 2 * D3])

    @pytest.mark.parametrize("scale", [1e155, 1e160])
    def test_names_a_matrix_whose_norm_overflows(self, scale):
        # the squares of entries near 1e155 overflow, so the norm reads inf and
        # the normalized element reads zero: independent elements must not be
        # reported as dependent
        mats = np.array(fixture_mats("gc_su4"))
        assert LieBasis(mats * 1e150).n == len(mats)
        with pytest.raises(ValueError, match=r"^basis matrix 0 is too large for its norm to fit a double$"):
            LieBasis(mats * scale)
        mats[2] *= scale
        with pytest.raises(ValueError, match=r"^basis matrix 2 is too large"):
            LieBasis(mats)

    @pytest.mark.parametrize("scale", [1e-170, 1e150])
    def test_norms_neither_overflow_nor_underflow(self, scale):
        # near 1e-170 the squares of the entries underflow to 0, near 1e150
        # the norm of a 16-entry stack still fits: both read the true norm
        mats = np.array(fixture_mats("gc_su4"))
        basis = LieBasis(mats * scale)
        want = scale * np.linalg.norm(mats, axis=(1, 2))
        assert max_norm(basis.norms / want - 1.0) <= 1e-15
        assert max_norm(basis.T @ basis.T_inv - np.eye(basis.n)) <= 1e-14
        assert max_norm(np.tensordot(basis.T, basis.mats, axes=1) - basis.E) <= 1e-14

    def test_accepts_per_element_rescaled_fixtures(self):
        # the independence test reads the normalized elements, so element
        # norms from 1e-12 to 1e12 leave it alone, and the frame stays
        # orthonormal with E = T D
        rng = np.random.default_rng(25)
        for name in ALGEBRA_FIXTURES:
            mats = np.array(fixture_mats(name))
            for _ in range(18):
                scales = 10.0 ** rng.uniform(-12.0, 12.0, size=len(mats))
                basis = LieBasis(mats * scales[:, None, None])
                eye = np.eye(basis.n)
                gram = np.tensordot(basis.E.conj(), basis.E, axes=([1, 2], [1, 2])).real
                assert max_norm(gram - eye) <= 1e-12, (name, scales)
                assert max_norm(basis.T @ basis.T_inv - eye) <= 1e-12, (name, scales)
                rebuilt = np.tensordot(basis.T, basis.mats, axes=1)
                assert max_norm(rebuilt - basis.E) <= 1e-12, (name, scales)

    def test_construction_does_not_require_closure(self):
        # span{D1, D3} is not a subalgebra; only levi_split_compact
        # reports that
        basis = LieBasis([D1, D3])
        assert basis.n == 2


class TestStructureConstants:
    def test_su2_matches_known_table(self, su2_basis, su2_f):
        f = su2_f.f
        expected = np.zeros((3, 3, 3))
        expected[2, 0, 1] = -2.0  # [D1, D2] = -2 D3
        expected[1, 0, 2] = 2.0   # [D1, D3] =  2 D2
        expected[0, 1, 2] = -2.0  # [D2, D3] = -2 D1
        expected -= expected.transpose(0, 2, 1)
        assert max_norm(f - expected) < 1e-12

    def test_abelian_single(self):
        basis = LieBasis([D3])
        assert max_norm(user_constants(basis).f) == 0.0

    def test_closure_violation_for_open_span(self):
        # [D1, D2] = -2 D3 does not lie in span{D1, D2}
        basis = LieBasis([D1, D2])
        with pytest.raises(ClosureViolation) as err:
            levi_split_compact(basis)
        assert err.value.pair == (0, 1)

    def test_bracket_reconstruction(self, su2_basis, su2_f):
        mats = su2_basis.mats
        scale = max(max_norm(m) for m in mats)
        for i in range(3):
            for j in range(3):
                direct = mats[i] @ mats[j] - mats[j] @ mats[i]
                rebuilt = np.einsum("k,kab->ab", su2_f.f[:, i, j], mats)
                assert max_norm(direct - rebuilt) <= 10 * DEFAULT_TOL.cut(scale)

    def test_validation_keeps_shape_and_finiteness(self):
        # shape and finiteness are all it checks: both producers are
        # antisymmetric by construction, and Jacobi follows from closure
        for bad in (np.zeros((2, 2)), np.zeros((2, 3, 3))):
            with pytest.raises(ValueError, match="n x n x n"):
                StructureConstants(bad)
        for entry in (np.nan, np.inf):
            f = np.zeros((2, 2, 2))
            f[1, 0, 1] = entry
            with pytest.raises(ValueError, match="finite"):
                StructureConstants(f)


def split_killing(basis: LieBasis) -> np.ndarray:
    return killing_form(basis, levi_split_compact(basis))


class TestKillingForm:
    def test_su2_is_minus_eight_identity(self, su2_basis):
        B = split_killing(su2_basis)
        assert max_norm(B + 8 * np.eye(3)) < 1e-9
        assert np.array_equal(B, B.T)

    def test_matches_adjoint_oracle(self, su2_basis, su2_f):
        assert max_norm(split_killing(su2_basis) - killing_by_ad(su2_f.f)) < 1e-12

    def test_abelian_vanishes(self):
        assert max_norm(split_killing(abelian_diag(2))) == 0.0

    @pytest.mark.parametrize("scale", [4e153, 5e153])
    def test_overflow_raises(self, scale):
        # su(2) scaled: every element norm fits a double, and B = -8 scale^2 1
        # does up to 4e153, not at 5e153
        basis = LieBasis([scale * m for m in su2_mats()])
        if scale < 5e153:
            assert np.all(np.isfinite(split_killing(basis)))
        else:
            with pytest.raises(ValueError, match="Killing form overflows a double"):
                split_killing(basis)

    def test_hand_built_split_is_refused_by_name(self, su2_basis, su2_f):
        # a split formed without levi_split_compact keeps no singular values
        with pytest.raises(ValueError, match="split from levi_split_compact"):
            liealg.killing_form(su2_basis, oracle_split(su2_f))

    def test_gc_has_one_null_direction(self, su4):
        B = split_killing(su4["gc"])
        # the central direction comes first in the gc basis
        assert max_norm(B[0, :]) < 1e-9
        assert max_norm(B[:, 0]) < 1e-9
        assert min(abs(np.linalg.eigvalsh(B[1:, 1:]))) > 1e-6


class TestSemisimple:
    # the split decides; the Killing oracle must agree
    def test_su2(self, su2_basis, su2_f):
        assert levi_split_compact(su2_basis).radical_dim == 0
        assert is_semisimple(killing_by_ad(su2_f.f))

    def test_gb_not(self, su4):
        f = user_constants(su4["gb"])
        assert levi_split_compact(su4["gb"]).radical_dim == 1
        assert not is_semisimple(killing_by_ad(f.f))

    def test_abelian_not(self):
        basis = LieBasis([D3])
        assert levi_split_compact(basis).radical_dim == 1
        assert not is_semisimple(killing_by_ad(user_constants(basis).f))


class TestMuObstruction:
    def test_su2_only_trivial(self, su2_f):
        assert mu_obstruction_space(su2_f).shape == (0, 3)

    def test_su2_system_rows(self, su2_f):
        system = mu_system_matrix(su2_f)
        assert system.shape == (9, 3)
        # rows (2,1), (3,1), (3,2) carry the explicit equations
        # 2 mu_3 = 0, -2 mu_2 = 0, 2 mu_1 = 0
        assert np.allclose(system[3], [0.0, 0.0, 2.0])
        assert np.allclose(system[6], [0.0, -2.0, 0.0])
        assert np.allclose(system[7], [2.0, 0.0, 0.0])

    def test_abelian_full(self):
        f = user_constants(abelian_diag(3))
        assert mu_obstruction_space(f).shape == (3, 3)

    def test_gc_spans_central_direction(self, su4):
        f = user_constants(su4["gc"])
        space = mu_obstruction_space(f)
        assert space.shape == (1, 4)
        assert abs(space[0] @ np.array([1.0, 0, 0, 0])) == pytest.approx(1.0)


class TestDerivedAndCenter:
    def test_su2_derived_full(self, su2_basis, su2_f):
        assert levi_split_compact(su2_basis).ss_basis.shape == (3, 3)

    def test_abelian_derived_empty(self):
        split = levi_split_compact(abelian_diag(2))
        assert split.ss_basis.shape == (0, 2)

    def test_gc_derived_is_corner_block_span(self, su4):
        der = su4["gc"].user_rows(levi_split_compact(su4["gc"]).ss_basis)
        assert der.shape == (3, 4)
        assert max_norm(der[:, 0]) < 1e-12

    def test_center_dims(self, su2_basis, su2_f, su4):
        assert levi_split_compact(su2_basis).radical_basis.shape == (0, 3)
        c = su4["gc"].user_rows(levi_split_compact(su4["gc"]).radical_basis)
        assert c.shape == (1, 4)
        assert abs(c[0, 0]) == pytest.approx(1.0)
        assert levi_split_compact(abelian_diag(2)).radical_basis.shape == (2, 2)

    def test_radical_vectors_commute(self, su4):
        basis = su4["gc"]
        fgc = user_constants(basis)
        split = levi_split_compact(basis)
        cut = 10 * DEFAULT_TOL.cut(max(1.0, max_norm(fgc.f)))
        for vec in split.radical_basis:
            assert max_norm(np.einsum("i,kij->kj", vec, split.f)) <= cut
        for vec in basis.user_rows(split.radical_basis):
            assert max_norm(np.einsum("i,kij->kj", vec, fgc.f)) <= cut


class TestLeviSplit:
    def test_gc(self, su4):
        split = levi_split_compact(su4["gc"])
        assert (split.radical_dim, split.ss_dim) == (1, 3)

    def test_su2(self, su2_basis, su2_f):
        split = levi_split_compact(su2_basis)
        assert (split.radical_dim, split.ss_dim) == (0, 3)

    def test_abelian(self):
        split = levi_split_compact(abelian_diag(2))
        assert (split.radical_dim, split.ss_dim) == (2, 0)

    def test_no_svd_gets_more_than_n_rows(self, monkeypatch):
        # K has n(n + 1)/2 = 1176 rows on su(7); only its 48 x 48 R is factored
        basis = LieBasis(generic_presentation(np.random.default_rng(7), su_basis(7)))
        rows, svd = [], np.linalg.svd

        def recording(a, *args, **kwargs):
            rows.append(np.shape(a)[0])
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        split = levi_split_compact(basis)
        assert (basis.n, split.ss_dim) == (48, 48)
        assert rows and max(rows) <= basis.n

    def test_peak_memory_is_products_and_pairs(self):
        # only the brackets a < b are formed: the products E_a E_b, one
        # (n, n, N, N) tensor, and the pairs beside them, half of one, each
        # row a's subtracted from basic slices straight into the pairs; an
        # all-pairs bracket tensor next to the products read 3.0 tensors,
        # and gathering every E_b E_a at once 2.0
        basis = LieBasis(generic_presentation(np.random.default_rng(7), su_basis(7)))
        levi_split_compact(basis)
        tracemalloc.start()
        try:
            levi_split_compact(basis)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * basis.n**2 * basis.N**2 * np.dtype(complex).itemsize

    def test_bracket_pairs_match_full_gather(self):
        # the row slices of tensordot's (a, r, b, s) layout against both
        # products gathered whole from the (a, b, r, s) view, bit for bit,
        # after the zero bracket (0, 0)
        rng = np.random.default_rng(23)
        for n in range(1, 49):
            N = int(rng.integers(2, 8))
            E = rng.standard_normal((n, N, N)) + 1j * rng.standard_normal((n, N, N))
            iu, ju = np.triu_indices(n, k=1)
            iu, ju = np.append(0, iu), np.append(0, ju)
            prod = np.tensordot(E, E, axes=([2], [1])).transpose(0, 2, 1, 3)
            assert np.array_equal(liealg._bracket_pairs(E), prod[iu, ju] - prod[ju, iu]), n

    @pytest.mark.parametrize(
        "mats",
        [su_basis(2)[-1:], su_basis(3)[-2:], su_basis(2), block_with_center(6, 5)],
        ids=["n1", "n2", "n3", "n25"],
    )
    def test_qr_reads_only_the_pair_coefficients(self, monkeypatch, mats):
        # K is the n(n - 1)/2 + 1 rows the split holds, one zero row and the
        # pairs a < b, not the n(n + 1)/2 columns a <= b of f_E
        n = len(mats)
        basis = LieBasis(generic_presentation(np.random.default_rng(n), mats))
        shapes = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda a, *args, **kw: shapes.append(np.shape(a)) or qr(a, *args, **kw))
        levi_split_compact(basis)
        assert shapes == [(n * (n - 1) // 2 + 1, n)]

    def test_frame_tensor_is_not_copied(self, monkeypatch):
        # LeviSplit freezes the fresh f_E it is handed, in its (a, b, k)
        # memory order; a copy would hold a second n^3 tensor
        given = []
        init = liealg.LeviSplit.__init__
        monkeypatch.setattr(liealg.LeviSplit, "__init__", lambda self, f, *rest: given.append(f) or init(self, f, *rest))
        split = levi_split_compact(LieBasis(generic_presentation(np.random.default_rng(7), su_basis(4))))
        assert split.f is given[0] and not split.f.flags.writeable
        assert split.f.transpose(1, 2, 0).flags.c_contiguous

    def test_closure_violation_matches_all_pairs_formula(self):
        # random subsets of su(3) .. su(6) bases in a generic presentation,
        # each element scaled by its own 10^u, u in [-6, 6]: the violated
        # pair and its residual are the all-pairs formula's, bit for bit,
        # and a closed draw passes where the all-pairs fit passes
        rng = np.random.default_rng(19)
        violated = 0
        for draw in range(60):
            full = generic_presentation(rng, su_basis(int(rng.integers(3, 7))))
            keep = np.sort(rng.choice(len(full), size=int(rng.integers(1, len(full))), replace=False))
            basis = LieBasis([10.0 ** rng.uniform(-6.0, 6.0) * full[k] for k in keep])
            f = all_pairs_frame_tensor(basis.E)
            sizes, residuals = all_pairs_fit_norms(basis.E, f)
            if np.any(residuals > DEFAULT_TOL.abs + DEFAULT_TOL.rel * np.maximum(1.0, sizes)):
                violated += 1
                with pytest.raises(ClosureViolation) as err:
                    levi_split_compact(basis)
                assert (err.value.pair, err.value.residual) == all_pairs_closure_violation(basis, f), draw
            else:
                assert np.array_equal(levi_split_compact(basis).f, f), draw
        assert violated >= 50

    @pytest.mark.parametrize("mats", [[D1, D2], su_basis(4)[1:]], ids=["su2", "su4"])
    def test_refusal_forms_the_brackets_once(self, monkeypatch, mats):
        # closure is decided on the residual matrices the split already
        # formed, and the violation is named from them
        calls = []
        pairs = liealg._bracket_pairs
        monkeypatch.setattr(liealg, "_bracket_pairs", lambda E: calls.append(len(E)) or pairs(E))
        basis = LieBasis(generic_presentation(np.random.default_rng(3), mats))
        with pytest.raises(ClosureViolation):
            levi_split_compact(basis)
        assert calls == [basis.n]

    def test_refusal_peak_memory_is_near_the_splits(self):
        # su(9) plus its center in su(10), generic, closed (n = 81) and less
        # its first element (n = 80): the refusal scatters the residuals
        # into one (n, n, N, N) tensor beside them and carries it by W, with
        # no second bracket build, all-pairs bracket tensor or f E product
        mats = generic_presentation(np.random.default_rng(7), block_with_center(10, 9))
        closed, open_span = LieBasis(mats), LieBasis(mats[1:])
        levi_split_compact(closed)
        with pytest.raises(ClosureViolation):
            levi_split_compact(open_span)
        peaks = []
        for basis in (closed, open_span):
            tracemalloc.start()
            try:
                with contextlib.suppress(ClosureViolation):
                    levi_split_compact(basis)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2.75 * peaks[0], [peak / 2**20 for peak in peaks]


class TestSplitAgainstOracles:
    """The one frame SVD against separate rank decisions on the user tensor."""

    def test_fixtures_and_random_family(self):
        cases = [(name, fixture_mats(name)) for name in ALGEBRA_FIXTURES] + list(family_200())
        for label, mats in cases:
            basis = LieBasis(mats)
            f = user_constants(basis)
            split = levi_split_compact(basis)
            n = basis.n
            der = derived_subalgebra(f)
            for rows, oracle in ((split.radical_basis, center(f)), (split.ss_basis, der)):
                got = projector(basis.user_rows(rows), n)
                assert max_norm(got - projector(oracle, n)) <= 1e-10, label
            fE = split.f
            cut = 1e-12 * max(1.0, max_norm(fE))
            assert max_norm(fE + fE.transpose(0, 2, 1)) <= cut, label
            assert max_norm(fE - fE.transpose(1, 2, 0)) <= cut, label
            assert_split_matches_oracles(basis, split, label)
            K = killing_by_ad(f.f)
            B = killing_form(basis, split)
            assert max_norm(B - K) <= 1e-10 * max(1.0, max_norm(K)), label
            assert np.array_equal(B, B.T), label
            report = cncalc.decide_existence(cncalc.MetricPreCalculus(basis))
            if report.witness is not None:
                mu = report.witness[0].mu
                assert max_norm(der @ mu) <= 1e-10 * np.linalg.norm(mu), label


class TestSolvable:
    # a compact algebra is solvable exactly when [g, g] = 0, which the split
    # reads; the derived-series oracle must agree
    def test_abelian(self):
        basis = abelian_diag(2)
        assert levi_split_compact(basis).ss_dim == 0
        assert is_solvable_by_series(user_constants(basis))

    def test_su2_not(self, su2_basis, su2_f):
        assert levi_split_compact(su2_basis).ss_dim == 3
        assert not is_solvable_by_series(su2_f)

    def test_gc_not(self, su4):
        assert levi_split_compact(su4["gc"]).ss_dim == 3
        assert not is_solvable_by_series(user_constants(su4["gc"]))

    def test_consistency_with_semisimple(self, su2_basis, su2_f):
        # a semisimple algebra is never solvable; zero constants always are
        split = levi_split_compact(su2_basis)
        assert split.radical_dim == 0 and split.ss_dim == split.n
        assert not is_solvable_by_series(su2_f)
        assert is_solvable_by_series(StructureConstants(np.zeros((3, 3, 3))))

    @pytest.mark.parametrize(
        "units, solvable",
        [
            # upper triangular 3 x 3: series of dimensions 6, 3, 1, 0
            ([(a, b) for a in range(3) for b in range(a, 3)], True),
            # x = E11 acting on y = E12, E13: [g, g] = span(y) is abelian
            ([(0, 0), (0, 1), (0, 2)], True),
            # gl(2): [g, g] = sl(2) is perfect
            ([(0, 0), (0, 1), (1, 0), (1, 1)], False),
        ],
    )
    def test_real_matrix_algebras(self, units, solvable):
        # non-compact algebras, where solvability needs the whole derived series
        mats = []
        for a, b in units:
            m = np.zeros((3, 3))
            m[a, b] = 1.0
            mats.append(m.ravel())
        basis = np.array(mats)
        brackets = [
            (x @ y - y @ x).ravel()
            for x in basis.reshape(-1, 3, 3)
            for y in basis.reshape(-1, 3, 3)
        ]
        n = len(units)
        coeffs = np.linalg.lstsq(basis.T, np.array(brackets).T, rcond=None)[0]
        f = StructureConstants(coeffs.reshape(n, n, n))
        assert is_solvable_by_series(f) is solvable


class TestCommonLeftEigenvector:
    def test_gc(self, su4):
        found = common_left_eigenvector(su4["gc"], levi_split_compact(su4["gc"]).ss_basis)
        v0, lambdas = found.v, found.lambdas
        assert np.allclose(v0, [1, 0, 0, 0], atol=1e-12)
        assert np.allclose(lambdas, [1j, 0, 0, 0], atol=1e-12)

    def test_gb_has_none(self, su4):
        assert common_left_eigenvector(su4["gb"], levi_split_compact(su4["gb"]).ss_basis) is None

    def test_single_diagonal(self):
        basis = LieBasis([D3])
        found = common_left_eigenvector(basis, levi_split_compact(basis).ss_basis)
        v0, lambdas = found.v, found.lambdas
        assert np.allclose(v0, [1, 0], atol=1e-12)
        assert lambdas[0] == pytest.approx(1j)

    def test_su2_has_none(self, su2_basis, su2_f):
        assert common_left_eigenvector(su2_basis, levi_split_compact(su2_basis).ss_basis) is None

    @pytest.mark.parametrize(
        "case, expected",
        [("su2-center-su3", 0), ("cartan-su3", 1), ("gc_su4", 4)],
    )
    def test_restricted_eigenproblems(self, monkeypatch, case, expected):
        # a line is already a joint eigenspace: su(2) plus its center in
        # su(3) leaves one, a generic Cartan subalgebra of su(3) one after
        # its first element, and gc's two-dimensional space never splits
        rng = np.random.default_rng(3)
        if case == "gc_su4":
            mats = su4_family()["gc"]
        else:
            raw = block_with_center(3, 2) if case == "su2-center-su3" else su_basis(3)[-2:]
            mats = generic_presentation(rng, raw)
        basis = LieBasis(mats)
        split = levi_split_compact(basis)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return antihermitian_eigen(*args, **kwargs)

        monkeypatch.setattr(liealg, "antihermitian_eigen", counting)
        assert common_left_eigenvector(basis, split.ss_basis) is not None
        assert len(calls) == expected, calls

    def test_eigen_residuals(self, su4):
        found = common_left_eigenvector(su4["gc"], levi_split_compact(su4["gc"]).ss_basis)
        v0, lambdas = found.v, found.lambdas
        scale = max(max_norm(m) for m in su4["gc"].mats)
        for D, lam in zip(su4["gc"].mats, lambdas):
            assert max_norm(v0 @ D - lam * v0) <= 10 * DEFAULT_TOL.cut(scale)
            assert abs(lam.real) <= 10 * DEFAULT_TOL.cut(scale)


class TestAnchorSolutionSpace:
    def test_gc_central_direction_free(self, su4):
        assert anchor_solution_space(levi_split_compact(su4["gc"])).shape == (1, 1)
        assert anchor_solution_space(oracle_split(user_constants(su4["gc"]))).shape == (1, 1)

    def test_semisimple_empty(self, su2_basis, su2_f):
        assert anchor_solution_space(levi_split_compact(su2_basis)).shape == (0, 0)

    def test_abelian_full(self):
        assert anchor_solution_space(levi_split_compact(abelian_diag(3))).shape == (3, 3)

    def test_solvable_radical_bracket_constrains_mu(self):
        # affine line algebra [e1, e2] = e2: the whole algebra is its own
        # radical and the r-system forces the e2 coefficient to vanish
        f = np.zeros((2, 2, 2))
        f[1, 0, 1], f[1, 1, 0] = 1.0, -1.0
        fc = StructureConstants(f)
        assert is_solvable_by_series(fc)
        space = anchor_solution_space(liealg.LeviSplit(f, np.eye(2), np.zeros((0, 2))))
        assert space.shape == (1, 2)
        assert abs(space[0] @ np.array([1.0, 0.0])) == pytest.approx(1.0)

    def test_semidirect_action_obstructs_all_mu(self):
        # translations and rotations: with [J_a, P_b] = eps_abc P_c the
        # s-system kills every mu, while the direct sum keeps all of R^3
        eps = np.zeros((3, 3, 3))
        for a, b, c, s in [
            (0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
            (0, 2, 1, -1), (2, 1, 0, -1), (1, 0, 2, -1),
        ]:
            eps[a, b, c] = s
        semidirect = np.zeros((6, 6, 6))
        direct = np.zeros((6, 6, 6))
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    if eps[a, b, c]:
                        semidirect[c, 3 + a, b] = eps[a, b, c]
                        semidirect[c, b, 3 + a] = -eps[a, b, c]
                        semidirect[3 + c, 3 + a, 3 + b] = eps[a, b, c]
                        direct[3 + c, 3 + a, 3 + b] = eps[a, b, c]
        for tensor, shape in ((semidirect, (0, 3)), (direct, (3, 3))):
            split = liealg.LeviSplit(StructureConstants(tensor).f, np.eye(6)[:3], np.eye(6)[3:])
            assert anchor_solution_space(split).shape == shape


class TestRandomFamilyProperties:
    def test_cartan_triple_and_structure(self):
        rng = np.random.default_rng(20240817)
        for _ in range(30):
            label, mats = random_subalgebra(rng)
            basis = LieBasis(mats)
            f = user_constants(basis)
            scale = max(1.0, max(max_norm(m) for m in mats))
            # bracket reconstruction within 10x tolerance
            direct = np.einsum("iab,jbc->ijac", basis.mats, basis.mats)
            direct = direct - direct.transpose(1, 0, 2, 3)
            rebuilt = np.einsum("kij,kab->ijab", f.f, basis.mats)
            assert max_norm(direct - rebuilt) <= 10 * DEFAULT_TOL.cut(scale * scale), label
            # Jacobi residual
            jac = (
                np.einsum("mil,ljk->mijk", f.f, f.f)
                + np.einsum("mjl,lki->mijk", f.f, f.f)
                + np.einsum("mkl,lij->mijk", f.f, f.f)
            )
            fmax = max(1.0, max_norm(f.f))
            assert max_norm(jac) <= 10 * DEFAULT_TOL.cut(fmax * fmax), label
            # the split and three independent semisimplicity oracles agree
            flags = (
                levi_split_compact(basis).radical_dim == 0,
                is_semisimple(killing_by_ad(f.f)),
                mu_obstruction_space(f).shape[0] == 0,
                center(f).shape[0] == 0,
            )
            assert len(set(flags)) == 1, (label, flags)
            report = cncalc.decide_existence(cncalc.MetricPreCalculus(basis))
            assert report.diagnostics["mu_obstruction_dim"] == mu_obstruction_space(f).shape[0], label

    def test_expected_verdicts_by_construction(self):
        rng = np.random.default_rng(5150)
        semisimple_kinds = {"full", "block", "double", "two_blocks"}
        for _ in range(30):
            label, mats = random_subalgebra(rng)
            kind = label.split("-")[0]
            basis = LieBasis(mats)
            expect = kind in semisimple_kinds
            assert (levi_split_compact(basis).radical_dim == 0) == expect, label
            assert is_semisimple(split_killing(basis)) == expect, label

    def test_common_eigenvector_matches_bruteforce(self):
        from support import eigenspace_chains, first_joint_eigenspace

        rng = np.random.default_rng(99)
        for _ in range(120):
            label, mats = random_subalgebra(rng, sizes=(2, 3, 4))
            basis = LieBasis(mats)
            fast = common_left_eigenvector(basis, levi_split_compact(basis).ss_basis)
            slow = eigenspace_chains(mats)
            followed = first_joint_eigenspace(mats)
            assert (fast is not None) == bool(slow) == (followed is not None), label
            if fast is not None:
                v0, lambdas = fast.v, fast.lambdas
                scale = max(1.0, max(max_norm(m) for m in mats))
                residual = max(
                    max_norm(v0 @ D - lam * v0) for D, lam in zip(mats, lambdas)
                )
                assert residual <= 10 * DEFAULT_TOL.cut(scale), label
                # the same residual, read off one batched product v D
                assert abs(fast.residual - residual) <= 1e-13 * scale, label
                # the search follows the first joint eigenspace only
                assert max_norm(v0 - (v0 @ followed.conj().T) @ followed) <= 1e-12, label


class TestKernelEquivalence:
    """The contraction-ordered kernels against their literal definitions."""

    def test_adapted_constants_matches_literal_einsum(self):
        rng = np.random.default_rng(8)
        basis = LieBasis(generic_presentation(rng, block_with_center(4, 3)))
        f = user_constants(basis)
        n = f.n
        assert n >= 8
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        split = liealg.LeviSplit(f.f, q[:3], q[3:] * rng.uniform(0.5, 2.0, size=(n - 3, 1)))
        S = np.vstack([split.radical_basis, split.ss_basis]).T
        literal = np.einsum("ck,kij,ia,jb->cab", np.linalg.inv(S), f.f, S, S)
        got = liealg._adapted_constants(split)
        assert got.shape == (n, n, n)
        assert max_norm(got - literal) <= 1e-12 * max(1.0, max_norm(literal))


def _jacobi_literal(f: np.ndarray) -> np.ndarray:
    """The Jacobi tensor J[m, a, b, c], summed term by term."""
    return (
        np.einsum("mal,lbc->mabc", f, f)
        + np.einsum("mbl,lca->mabc", f, f)
        + np.einsum("mcl,lab->mabc", f, f)
    )


def _moved_off(rng, mats, delta: float) -> np.ndarray:
    """``mats`` plus delta times random trace-free antihermitian matrices."""
    mats = np.array(mats)
    N = mats.shape[1]
    z = rng.standard_normal(mats.shape) + 1j * rng.standard_normal(mats.shape)
    z = z - z.conj().transpose(0, 2, 1)
    z -= np.trace(z, axis1=1, axis2=2)[:, None, None] / N * np.eye(N)
    return mats + delta * z


class TestJacobiFromClosure:
    """Jacobi of the frame tensor is fixed by what closure leaves outside the span."""

    @pytest.mark.parametrize("delta", [1e-7, 1e-5, 1e-3])
    @pytest.mark.parametrize("N", [4, 5])
    def test_defect_is_the_residual_identity(self, N, delta):
        # su(N - 1) + center moved off the algebra by delta: the brackets
        # leave residuals R_ab of order delta, and entry by entry
        # J^m_abc = -(<R_ma, R_bc> + <R_mb, R_ca> + <R_mc, R_ab>)
        rng = np.random.default_rng(N)
        mats = _moved_off(rng, generic_presentation(rng, block_with_center(N, N - 1)), delta)
        tol = Tolerance(rel=0.1)
        basis = LieBasis(mats, tol)
        f = levi_split_compact(basis, tol).f
        E = basis.E
        brackets = np.einsum("arc,bcs->abrs", E, E)
        R = brackets - brackets.transpose(1, 0, 2, 3) - np.tensordot(f, E, axes=([0], [0]))
        G = np.tensordot(R.conj(), R, axes=([2, 3], [2, 3])).real  # G[x, y, z, w] = <R_xy, R_zw>
        rhs = -(G + G.transpose(0, 2, 3, 1) + G.transpose(0, 3, 1, 2))
        J = _jacobi_literal(f)
        assert max_norm(J - rhs) <= 1e-14
        assert max_norm(J) >= 10.0 * delta * delta

    @pytest.mark.parametrize("rel", [1e-13, 1e-9, 1e-3, 0.1, 0.5])
    def test_closed_spans_pass_the_tensor_cut(self, rel):
        # the random family, each member moved off its algebra by up to ten
        # times the tolerance: every span that passes closure has a frame
        # tensor whose Jacobi defect lies below tol.cut(s^2), s = max(1, max |f|)
        tol = Tolerance(rel=rel)
        rng = np.random.default_rng(7)
        closed = opened = 0
        for label, mats in family_200():
            moved = _moved_off(rng, mats, rel * 10.0 ** rng.uniform(-2.0, 1.0))
            try:
                basis = LieBasis(moved, tol)
                f = levi_split_compact(basis, tol).f
            except ClosureViolation:
                opened += 1
                continue
            except ValueError:  # at loose tolerances LieBasis finds the basis dependent
                continue
            closed += 1
            assert max_norm(_jacobi_literal(f)) <= tol.cut(max(1.0, max_norm(f)) ** 2), label
        assert closed >= 50 and opened >= 10


class TestEigenvectorLeadEntry:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("kind", ["gc_su4", "su3_center"])
    def test_lead_entry_is_exactly_real(self, kind, seed):
        raw = su4_family()["gc"] if kind == "gc_su4" else block_with_center(4, 3)
        rng = np.random.default_rng(seed)
        basis = LieBasis(generic_presentation(rng, raw))
        v0 = common_left_eigenvector(basis, levi_split_compact(basis).ss_basis).v
        lead = int(np.argmax(np.abs(v0) > 1e-8 * np.max(np.abs(v0))))
        assert v0[lead].imag == 0.0
        assert v0[lead].real > 0.0
