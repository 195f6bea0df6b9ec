import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from realcalc.matlin import (
    DEFAULT_TOL,
    Tolerance,
    antihermitian_eigen,
    as_matrix,
    bracket,
    is_antihermitian_tracefree,
    left_nullspace,
    max_norm,
    real_nullspace,
    real_row_space,
)

from support import su2_mats, su4_family

D1, D2, D3 = su2_mats()


def complex_matrices(n: int):
    reals = arrays(np.float64, (n, n), elements=st.floats(-10, 10))
    return st.tuples(reals, reals).map(lambda ab: ab[0] + 1j * ab[1])


def antihermitian_matrices(n: int):
    return complex_matrices(n).map(lambda g: 0.5 * (g - g.conj().T))


class TestTolerance:
    def test_defaults(self):
        assert DEFAULT_TOL.rel == 1e-9
        assert DEFAULT_TOL.abs == 1e-12

    def test_cut(self):
        assert Tolerance(1e-6, 1e-9).cut(2.0) == pytest.approx(2e-6 + 1e-9)

    @pytest.mark.parametrize("rel,absolute", [
        (0.0, 0.0), (-1e-9, 0.0), (1e-9, -1.0),
        (float("inf"), 0.0), (float("nan"), 0.0), (1e-9, float("nan")), (1e-9, float("inf")),
    ])
    def test_rejects_bad_thresholds(self, rel, absolute):
        with pytest.raises(ValueError):
            Tolerance(rel, absolute)


class TestBracket:
    def test_su2_pair(self):
        # [D1, D2] = -2 D3 in the standard spin basis
        assert max_norm(bracket(D1, D2) + 2 * D3) == 0.0

    def test_identity_commutes(self):
        for a in (D1, D2, D3, D1 + 2 * D2):
            assert max_norm(bracket(np.eye(2), a)) == 0.0

    def test_self_commutator(self):
        assert max_norm(bracket(D3, D3)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            bracket(D1, np.eye(3))

    @settings(max_examples=50, deadline=None)
    @given(a=complex_matrices(3), b=complex_matrices(3))
    def test_antisymmetry_exact(self, a, b):
        assert np.array_equal(bracket(a, b), -bracket(b, a))


class TestAntihermitianTracefree:
    def test_diag_su2(self):
        assert is_antihermitian_tracefree(D3)

    def test_identity_fails_on_trace(self):
        assert not is_antihermitian_tracefree(np.eye(2))

    def test_nonzero_trace_fails(self):
        assert not is_antihermitian_tracefree(np.diag([1j, 1j]))

    def test_hermitian_fails(self):
        assert not is_antihermitian_tracefree(np.array([[0, 1], [1, 0]], dtype=complex))


class TestLeftNullspace:
    def test_invertible_gives_empty(self):
        assert left_nullspace([D3]).shape == (0, 2)

    def test_zero_matrix_gives_full(self):
        basis = left_nullspace([np.zeros((2, 2))])
        assert basis.shape == (2, 2)
        assert np.allclose(basis @ basis.conj().T, np.eye(2))

    def test_empty_family_needs_dim(self):
        with pytest.raises(ValueError):
            left_nullspace([])
        assert left_nullspace([], dim=3).shape == (3, 3)

    def test_corner_su2_blocks(self):
        # Common left nullspace of the cornered su(2) blocks is the
        # 2-dimensional coordinate subspace they annihilate.
        dpj = su4_family()["dpj"]
        basis = left_nullspace(dpj)
        assert basis.shape == (2, 4)
        e1 = np.array([1, 0, 0, 0], dtype=complex)
        # (1,0,0,0) lies in the nullspace
        proj = (e1 @ basis.conj().T) @ basis
        assert max_norm(proj - e1) < 1e-12
        for m in dpj:
            assert max_norm(basis @ m) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(a=complex_matrices(4), b=complex_matrices(4))
    def test_rows_annihilate_and_are_orthonormal(self, a, b):
        basis = left_nullspace([a, b])
        scale = max(max_norm(a), max_norm(b), 1.0)
        assert np.allclose(basis @ basis.conj().T, np.eye(basis.shape[0]), atol=1e-10)
        for m in (a, b):
            if basis.shape[0]:
                assert max_norm(basis @ m) <= 1e-8 * scale
        # dimension agrees with rank-nullity of the stacked system at
        # the same singular-value cutoff
        s = np.linalg.svd(np.hstack([a, b]), compute_uv=False)
        rank = int(np.sum(s > DEFAULT_TOL.cut(s[0] if s.size else 0.0)))
        assert basis.shape[0] == 4 - rank


class TestAntihermitianEigen:
    def test_diagonal(self):
        pairs = antihermitian_eigen(D3)
        assert len(pairs) == 2
        eigs = sorted(p[0].imag for p in pairs)
        assert eigs == pytest.approx([-1.0, 1.0])
        for lam, rows in pairs:
            assert lam.real == 0.0
            assert rows.shape == (1, 2)
            assert max_norm(rows @ D3 - lam * rows) < 1e-12

    def test_zero_matrix_single_group(self):
        pairs = antihermitian_eigen(np.zeros((2, 2)))
        assert len(pairs) == 1
        lam, rows = pairs[0]
        assert lam == 0.0
        assert rows.shape == (2, 2)

    def test_offdiagonal_hand_eigenvectors(self):
        # rows (1, 1)/sqrt(2) and (1, -1)/sqrt(2) with eigenvalues +/- i
        pairs = antihermitian_eigen(D1)
        assert sorted(p[0].imag for p in pairs) == pytest.approx([-1.0, 1.0])
        for lam, rows in pairs:
            v = rows[0]
            expect = np.array([1.0, 1.0 if lam.imag > 0 else -1.0]) / np.sqrt(2)
            overlap = abs(v @ expect.conj())
            assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_antihermitian(self):
        with pytest.raises(ValueError):
            antihermitian_eigen(np.array([[0, 1], [1, 0]], dtype=complex))

    @settings(max_examples=30, deadline=None)
    @given(a=antihermitian_matrices(4))
    def test_reconstruction_and_orthogonality(self, a):
        pairs = antihermitian_eigen(a)
        total = sum(rows.shape[0] for _, rows in pairs)
        assert total == 4
        rebuilt = np.zeros((4, 4), dtype=complex)
        all_rows = []
        for lam, rows in pairs:
            assert lam.real == 0.0
            for row in rows:
                rebuilt += lam * np.outer(row.conj(), row)
                all_rows.append(row)
        # merging replaces eigenvalues by their group mean, so the
        # reconstruction can drift by the grouping width per merged gap;
        # without merging the strict bound applies
        spectrum = np.linalg.eigvalsh(1j * a)
        width = 1e-6 * (float(spectrum[-1] - spectrum[0]) + 1.0)
        strict = 10 * DEFAULT_TOL.cut(max_norm(a)) + 1e-12
        assert max_norm(rebuilt - a) <= strict + 3 * width
        if len(pairs) == 4:
            assert max_norm(rebuilt - a) <= strict
        stack = np.array(all_rows)
        assert np.allclose(stack @ stack.conj().T, np.eye(4), atol=1e-8)


class TestRealNullspace:
    def test_single_row(self):
        basis = real_nullspace(np.array([[0.0, 0.0, 2.0]]))
        assert basis.shape == (2, 3)
        assert max_norm(basis @ np.array([0.0, 0.0, 2.0])) < 1e-12
        assert np.allclose(basis @ basis.T, np.eye(2), atol=1e-12)

    def test_su2_stacked_system_empty(self, su2_f):
        system = su2_f.f.transpose(1, 2, 0).reshape(9, 3)
        assert real_nullspace(system).shape == (0, 3)

    def test_zero_matrix_full(self):
        assert real_nullspace(np.zeros((3, 3))).shape == (3, 3)

    def test_no_rows_full(self):
        assert real_nullspace(np.zeros((0, 4))).shape == (4, 4)


def _full_svd_left_nullspace(mats):
    u, s, _ = np.linalg.svd(np.hstack(mats), full_matrices=True)
    return u[:, int(np.sum(s > DEFAULT_TOL.cut(s[0]))) :].conj().T


def _full_svd_real_nullspace(m):
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    return vh[int(np.sum(s > DEFAULT_TOL.cut(s[0]))) :]


def _low_rank(rng, rows, cols, rank, dtype=float):
    def draw(shape):
        g = rng.standard_normal(shape)
        return g + 1j * rng.standard_normal(shape) if dtype is complex else g

    return draw((rows, rank)) @ draw((rank, cols))


class TestNullspacesMatchFullSvd:
    """The thin-SVD kernels span what the full-SVD reference spans."""

    @pytest.mark.parametrize(
        "N, m, rank",
        [(5, 1, 5), (5, 1, 3), (5, 3, 5), (6, 4, 2), (4, 6, 0)],
        ids=["square", "square-deficient", "wide", "wide-deficient", "zero"],
    )
    def test_left_nullspace(self, N, m, rank):
        rng = np.random.default_rng(N * 100 + m * 10 + rank)
        stacked = _low_rank(rng, N, N * m, rank, complex) if rank else np.zeros((N, N * m))
        mats = np.split(stacked, m, axis=1)
        got = left_nullspace(mats)
        want = _full_svd_left_nullspace(mats)
        assert got.shape == want.shape == (N - rank, N)
        assert max_norm(got.conj().T @ got - want.conj().T @ want) < 1e-10

    @pytest.mark.parametrize(
        "rows, cols, rank",
        [(3, 7, 3), (3, 7, 2), (12, 5, 5), (12, 5, 3), (6, 6, 6), (6, 6, 4)],
        ids=["wide", "wide-deficient", "tall", "tall-deficient", "square", "square-deficient"],
    )
    def test_real_nullspace(self, rows, cols, rank):
        rng = np.random.default_rng(rows * 100 + cols * 10 + rank)
        m = _low_rank(rng, rows, cols, rank)
        got = real_nullspace(m)
        want = _full_svd_real_nullspace(m)
        assert got.shape == want.shape == (cols - rank, cols)
        assert max_norm(got.T @ got - want.T @ want) < 1e-10


class TestRealRowSpace:
    def test_rank_one(self):
        rows = real_row_space(np.array([[1.0, 1.0], [2.0, 2.0]]))
        assert rows.shape == (1, 2)

    def test_orthonormal(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((5, 4))
        rows = real_row_space(m)
        assert rows.shape == (4, 4)
        assert np.allclose(rows @ rows.T, np.eye(4), atol=1e-10)


class TestCoercion:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_matrix([[np.nan, 0], [0, 0]])

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            as_matrix([1, 2, 3])
