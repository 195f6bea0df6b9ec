import copy
import functools
import json
import math
import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from realcalc import cli, cncalc, projcalc
from realcalc.fixtures import fixture_path
from realcalc.liealg import (
    ClosureViolation,
    LieBasis,
    levi_split_compact,
    structure_constants,
)
from realcalc.matlin import DEFAULT_TOL, Tolerance, max_norm
from realcalc.projcalc import (
    ConditionFails,
    InvariantViolation,
    NotGenerating,
    ProjectiveCalculusData,
    from_module_generators,
    koszul_verify_projective,
    lambda_tensor,
    lc_condition_check,
    lc_connection_coefficients,
)

from support import (
    conjugate,
    generator_data,
    generic_presentation,
    random_trivial_data,
    random_unitary,
    rank_one_calculus,
    su2_mats,
    su_basis,
    trivial_data,
)

D1, D2, D3 = su2_mats()
I2 = np.eye(2, dtype=complex)
Z2 = np.zeros((2, 2), dtype=complex)
CARTAN_SU3 = LieBasis([np.diag([1j, -1j, 0]), np.diag([0, 1j, -1j])])


def eye_grid(n: int, N: int) -> np.ndarray:
    return np.einsum("ki,ab->kiab", np.eye(n), np.eye(N, dtype=complex))


@pytest.fixture(scope="module")
def corner_anchor_data(su2_basis):
    """Rank-one anchor on the free module over Mat(2): X1 = 1, X2 = X3 = 0."""
    return from_module_generators([I2, Z2, Z2], [I2, Z2, Z2], su2_basis)


class TestDataValidation:
    def test_rejects_nonidempotent_projection(self, su2_basis):
        p = eye_grid(3, 2)
        p = p.copy()
        p[0, 1] = 0.5 * I2
        with pytest.raises(InvariantViolation, match="idempotence"):
            ProjectiveCalculusData(su2_basis, p, eye_grid(3, 2), eye_grid(3, 2))

    def test_idempotence_cut_does_not_overflow(self):
        # n = 1, N = 2: |p| = 1.5e154 puts the scale |p|^2 of idempotence
        # past the largest double, and p.p - p has an entry 1.5e304, 7e-5
        # of that scale. A cut formed from the scale was inf and passed it,
        # and projection compatibility was named instead.
        basis = LieBasis([np.array([[0, 1], [-1, 0]], dtype=complex)])
        p = np.array([[[[1e150, 1.5e154], [1e-10, 0]]]], dtype=complex)
        one = np.eye(2, dtype=complex)[None, None]
        with pytest.raises(InvariantViolation) as info:
            ProjectiveCalculusData(basis, p, one, one)
        assert info.value.identity == "projection idempotence p.p = p"
        assert info.value.residual == pytest.approx(1.5e304)
        # the same p scaled to 1.5e-4 of itself is no closer to idempotent
        with pytest.raises(InvariantViolation, match="idempotence"):
            ProjectiveCalculusData(basis, p * 1e-4, one, one)

    def test_idempotence_cut_is_per_entry(self):
        # n = 1, N = 2: p.p - p = 1e195 on the diagonal, where |p| |p| is
        # 1e195 too, so the defect is all of its entries' scale, but only
        # 1e-205 of |p|^2 = 1e400, under which idempotence passed and
        # projection compatibility was named
        basis = LieBasis([np.array([[0, 1], [-1, 0]], dtype=complex)])
        p = np.array([[[[1, 1e200], [1e-5, 0]]]], dtype=complex)
        one = np.eye(2, dtype=complex)[None, None]
        with pytest.raises(InvariantViolation) as info:
            ProjectiveCalculusData(basis, p, one, one)
        assert info.value.identity == "projection idempotence p.p = p"
        assert info.value.residual == pytest.approx(1e195)

    def test_idempotence_cut_is_no_looser_than_the_whole_matrix(self):
        # n = 1, N = 5: p = u v^T with u all ones and v alternating signs is
        # idempotent with every entry of |p| |p| at 5 = 5 |p|^2; a defect of
        # 3e-9 |p|^2 is within 1e-9 (|p| |p|)_kj but past the cut at |p|^2
        basis = LieBasis([np.diag([1j, -1j, 0, 0, 0])])
        p = np.outer(np.ones(5), [1, -1, 1, -1, 1]).astype(complex)
        p[0, 0] += 3e-9
        one = np.eye(5, dtype=complex)[None, None]
        with pytest.raises(InvariantViolation, match="idempotence"):
            ProjectiveCalculusData(basis, p[None, None], one, one)

    def test_rejects_nonhermitian_metric(self, su2_basis):
        h = eye_grid(3, 2).copy()
        h[0, 0] = np.array([[1, 1j], [2j, 1]])
        with pytest.raises(InvariantViolation, match="hermiticity|symmetry"):
            ProjectiveCalculusData(su2_basis, eye_grid(3, 2), h, eye_grid(3, 2))

    def test_rejects_wrong_inverse(self, su2_basis):
        h_inv = eye_grid(3, 2) * 2.0
        with pytest.raises(InvariantViolation, match="inverse relation"):
            ProjectiveCalculusData(su2_basis, eye_grid(3, 2), eye_grid(3, 2), h_inv)

    def test_rejects_open_derivations_before_the_grids(self):
        # f is read off the derivations first: two su(2) elements bracket
        # out of their span, and the grids (here of the wrong shape) are
        # never read
        with pytest.raises(ClosureViolation) as info:
            ProjectiveCalculusData(LieBasis([D1, D2]), eye_grid(3, 2), eye_grid(3, 2), eye_grid(3, 2))
        assert info.value.pair == (0, 1)

    @pytest.mark.parametrize("name", ["free_trivial.json", "mat2_rank1.json", "abelian_free.json"])
    def test_structure_constants_are_read_off_the_derivations(self, name):
        spec = cli.parse_projective_spec(json.loads(fixture_path(name).read_text()))
        derivs = LieBasis(spec.derivations)
        if spec.p is not None:
            data = ProjectiveCalculusData(derivs, spec.p, spec.h, spec.h_inv)
        else:
            data = from_module_generators(spec.X, spec.Y, derivs)
        assert np.array_equal(data.f.f, structure_constants(derivs, levi_split_compact(derivs)).f)

    @pytest.mark.parametrize("build", [trivial_data, generator_data])
    def test_structure_constants_of_generic_data(self, build):
        rng = np.random.default_rng(2024)
        derivs = LieBasis(generic_presentation(rng, su_basis(3)))
        data = build(rng, derivs)
        assert np.array_equal(data.f.f, structure_constants(derivs, levi_split_compact(derivs)).f)

    def test_fields_cannot_be_reassigned(self, corner_anchor_data, su2_basis, su2_f):
        # validated data stays validated: no field can be swapped afterwards
        data = corner_anchor_data
        lam = lambda_tensor(data)
        for name, value in [
            ("p", eye_grid(3, 2)),
            ("h", eye_grid(3, 2)),
            ("h_inv", eye_grid(3, 2)),
            ("derivs", su2_basis),
            ("f", su2_f),
        ]:
            with pytest.raises(FrozenInstanceError):
                setattr(data, name, value)
        assert not data.p.flags.writeable and not lam.flags.writeable

    def test_value_types_compare_by_identity(self, corner_anchor_data, su2_basis, su2_f):
        # generated == and hash would read the array and dict fields
        values = [
            su2_basis,
            su2_f,
            levi_split_compact(su2_basis),
            cncalc.AnchorMap([1.0, 0.0], [1.0, 0.0, 0.0]),
            cncalc.Connection([0.5, 0.0, -0.5]),
            corner_anchor_data,
            cncalc.decide_existence(cncalc.MetricPreCalculus(su2_basis)),
        ]
        for value in values:
            twin = copy.copy(value)
            assert value == value and not value != value
            assert value != twin and not value == twin
            assert hash(value) == hash(value)
            assert len({value, twin}) == 2
        assert LieBasis(su2_mats()) != LieBasis(su2_mats())


class TestLambdaTensor:
    def test_corner_anchor_distinguished_entry(self, corner_anchor_data):
        lam = lambda_tensor(corner_anchor_data)
        assert max_norm(lam[0, 1, 2] + I2) < 1e-12

    def test_constant_metric_zero_constants(self):
        # a Cartan subalgebra has zero structure constants, and with a
        # constant metric that kills every term
        data = ProjectiveCalculusData(CARTAN_SU3, eye_grid(2, 3), eye_grid(2, 3), eye_grid(2, 3))
        assert max_norm(data.f.f) == 0.0
        assert max_norm(lambda_tensor(data)) == 0.0

    def test_abelian_block_vanishes(self, abelian_block_data):
        assert max_norm(lambda_tensor(abelian_block_data)) == 0.0

    def test_antisymmetrization_recovers_structure_constants(self):
        # on a free module the torsion-free property of the induced
        # connection reads Lam^k_ij - Lam^k_ji = f^k_ij * 1, which pins
        # the bracket terms of the formula sign by sign
        rng = np.random.default_rng(101)
        for _ in range(6):
            label, data = random_trivial_data(rng)
            lam = lambda_tensor(data)
            anti = lam - lam.transpose(0, 2, 1, 3, 4)
            expect = np.einsum("kij,ab->kijab", data.f.f, np.eye(data.N))
            scale = max(1.0, max_norm(lam))
            assert max_norm(anti - expect) <= 100 * DEFAULT_TOL.cut(scale), label

    def test_metric_compatibility_in_coefficients(self):
        # the induced connection is metric: [D_k, h_ij] equals
        # (Lam^l_ki)^dagger h_lj + h_il Lam^l_kj, pinning the derivative
        # terms of the formula
        rng = np.random.default_rng(103)
        for _ in range(6):
            label, data = random_trivial_data(rng)
            lam = lambda_tensor(data)
            mats = data.derivs.mats
            dh = np.einsum("krs,ijsc->kijrc", mats, data.h) - np.einsum(
                "ijrs,ksc->kijrc", data.h, mats
            )
            rhs = np.einsum("lkiab,ljac->kijbc", lam.conj(), data.h) + np.einsum(
                "ilab,lkjbc->kijac", data.h, lam
            )
            scale = max(1.0, max_norm(data.h) * max(1.0, max_norm(lam)))
            assert max_norm(dh - rhs) <= 100 * DEFAULT_TOL.cut(scale), label


class TestConditionCheck:
    def test_trivial_projection_always_holds(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            label, data = random_trivial_data(rng)
            holds, worst, _ = lc_condition_check(data)
            assert holds, (label, worst)
            assert worst <= 10 * DEFAULT_TOL.cut(1.0)

    def test_corner_anchor_fails_at_named_triple(self, corner_anchor_data):
        holds, worst, grid = lc_condition_check(corner_anchor_data)
        assert not holds
        assert worst == pytest.approx(1.0, abs=1e-12)
        k, i, j = np.unravel_index(np.argmax(grid), grid.shape)
        assert (k, i, j) == (0, 1, 2)

    def test_rank_one_fixture_keeps_its_tie_under_conjugation(self):
        # the residuals at (1, 2, 3) and (1, 3, 2) are the entries of
        # -Λ^1_23 and -Λ^1_32, exact negatives of each other because f is
        # exactly antisymmetric; they stay bit-equal under any unitary
        # conjugation, so the report names the first triple, (1, 2, 3)
        spec = cli.parse_projective_spec(json.loads(fixture_path("mat2_rank1.json").read_text()))
        rng = np.random.default_rng(2025)
        for _ in range(200):
            U = random_unitary(rng, spec.N)
            derivs, xs, ys = (conjugate(list(m), U) for m in (spec.derivations, spec.X, spec.Y))
            data = from_module_generators(xs, ys, LieBasis(derivs))
            holds, worst, grid = lc_condition_check(data)
            assert not holds
            assert grid[0, 1, 2] == grid[0, 2, 1] == worst
            assert np.unravel_index(np.argmax(grid), grid.shape) == (0, 1, 2)

    def test_abelian_block_holds(self, abelian_block_data):
        holds, worst, _ = lc_condition_check(abelian_block_data)
        assert holds
        assert worst == 0.0

    def test_criterion_cut_does_not_overflow(self):
        # |p| |d_i p| = 1e300 * 1e10 is past the largest double, but its cut,
        # 1e-9 of it, is not: a residual of 1e305 fails, and 1e300 passes
        data = ProjectiveCalculusData(CARTAN_SU3, eye_grid(2, 3), eye_grid(2, 3), eye_grid(2, 3))
        lc_condition_check(data)
        worst, per_index, (_, dp_i, lam_i, d_i) = data._criterion
        for residual, holds in ((1e305, False), (1e300, True)):
            data.__dict__["_criterion"] = (residual, np.full_like(per_index, residual),
                                           (1e300, np.full_like(dp_i, 1e10), 0 * lam_i, 0 * d_i))
            assert lc_condition_check(data)[0] is holds


FORMATIONS = ("_form_lambda", "_criterion_residual")


def count_projcalc_calls(monkeypatch, *names) -> dict:
    """Live counts of calls to the named one-argument projcalc functions."""
    counts = dict.fromkeys(names, 0)
    for key in counts:
        original = getattr(projcalc, key)
        monkeypatch.setattr(projcalc, key, lambda data, key=key, original=original:
                            counts.__setitem__(key, counts[key] + 1) or original(data))
    return counts


class TestCachedIntermediates:
    """Λ and the criterion residual are formed once per data and kept on it."""

    def test_formed_once_per_data(self, monkeypatch):
        rng = np.random.default_rng(17)
        data = generator_data(rng, LieBasis(generic_presentation(rng, su_basis(3))))
        counts = count_projcalc_calls(monkeypatch, *FORMATIONS)
        lam = lambda_tensor(data)
        first = lc_condition_check(data)
        assert lambda_tensor(data) is lam
        again = lc_condition_check(data)
        assert again[1:] == first[1:] and again[2] is first[2]
        assert koszul_verify_projective(data, lam) == 0.0
        assert counts == {"_form_lambda": 1, "_criterion_residual": 1}
        # the kept Λ is the one a fresh formation gives, bit for bit
        assert np.array_equal(lam, projcalc._form_lambda(data))

    def test_data_objects_share_no_cache(self, monkeypatch):
        rng = np.random.default_rng(18)
        derivs = LieBasis(generic_presentation(rng, su_basis(2)))
        a, b = trivial_data(rng, derivs), trivial_data(rng, derivs)
        counts = count_projcalc_calls(monkeypatch, *FORMATIONS)
        lam_a = lambda_tensor(a)
        lc_condition_check(a)
        assert counts == {"_form_lambda": 1, "_criterion_residual": 1}
        lam_b = lambda_tensor(b)
        _, _, res_b = lc_condition_check(b)
        assert counts == {"_form_lambda": 2, "_criterion_residual": 2}
        assert lam_b is not lam_a and not np.array_equal(lam_a, lam_b)
        assert res_b is not lc_condition_check(a)[2]

    def test_cached_arrays_are_read_only(self, corner_anchor_data):
        lam = lambda_tensor(corner_anchor_data)
        _, _, residuals = lc_condition_check(corner_anchor_data)
        for arr in (lam, residuals):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 1.0
        assert max_norm(lam[0, 1, 2] + I2) < 1e-12 and residuals[0, 1, 2] == pytest.approx(1.0)

    def test_each_tolerance_gets_its_own_verdict(self, monkeypatch, su2_basis):
        # the residual of the corner anchor is 1.0: the default tolerance
        # rejects it and an absolute cut of 2 accepts it, in either order
        loose = Tolerance(abs=2.0)
        for order in ((DEFAULT_TOL, loose, DEFAULT_TOL), (loose, DEFAULT_TOL, loose)):
            data = from_module_generators([I2, Z2, Z2], [I2, Z2, Z2], su2_basis)
            counts = count_projcalc_calls(monkeypatch, *FORMATIONS)
            verdicts = [lc_condition_check(data, tol) for tol in order]
            assert [holds for holds, _, _ in verdicts] == [tol is loose for tol in order]
            assert [worst for _, worst, _ in verdicts] == [pytest.approx(1.0)] * 3
            assert counts == {"_form_lambda": 1, "_criterion_residual": 1}
            monkeypatch.undo()
        assert lc_connection_coefficients(data, loose).shape == (3, 3, 3, 2, 2)
        with pytest.raises(ConditionFails):
            lc_connection_coefficients(data)


def rotation_data(a: float, c: float) -> ProjectiveCalculusData:
    """n = 1, N = 2: D = [[0, 1], [-1, 0]], the idempotent p = [[1, a], [0, 0]]
    and a metric with entries c, whose invariants hold exactly; at
    a = c = 1e150 the criterion holds and the coefficients fit a double."""
    grid = lambda m: np.array(m, dtype=complex)[None, None]
    return ProjectiveCalculusData(LieBasis([np.array([[0, 1], [-1, 0]], dtype=complex)]),
                                  grid([[1, a], [0, 0]]), grid([[1, c], [c, 1]]), grid([[1, 0], [0, 0]]))


class TestConnectionCoefficients:
    def test_trivial_projection_collapses_to_lambda(self):
        rng = np.random.default_rng(9)
        _, data = random_trivial_data(rng)
        coeffs = lc_connection_coefficients(data)
        assert max_norm(coeffs - lambda_tensor(data)) < 1e-12

    def test_constant_metric_zero_connection(self):
        data = ProjectiveCalculusData(CARTAN_SU3, eye_grid(2, 3), eye_grid(2, 3), eye_grid(2, 3))
        assert max_norm(lc_connection_coefficients(data)) == 0.0

    def test_abelian_block_zero_connection(self, abelian_block_data):
        assert max_norm(lc_connection_coefficients(abelian_block_data)) == 0.0

    def test_raises_when_condition_fails(self, corner_anchor_data):
        with pytest.raises(ConditionFails):
            lc_connection_coefficients(corner_anchor_data)

    def test_overflow_raises(self):
        # Λ p kept with its entry (0, 0) 1e300: times p's 1e150 it overflows
        data = rotation_data(1e150, 1e150)
        assert lc_condition_check(data)[0]
        lam_p = data._lambda_p.copy()
        lam_p[..., 0, 0] = 1e300
        data.__dict__["_lambda_p"] = lam_p
        with pytest.raises(ValueError, match="connection coefficients overflow a double"):
            lc_connection_coefficients(data)


class TestKoszulVerify:
    def test_constructed_coefficients_certify(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            _, data = random_trivial_data(rng)
            coeffs = lc_connection_coefficients(data)
            assert koszul_verify_projective(data, coeffs) <= 100 * DEFAULT_TOL.cut(
                max_norm(data.h) * max(1.0, max_norm(coeffs))
            )

    def test_abelian_block_zero(self, abelian_block_data):
        coeffs = lc_connection_coefficients(abelian_block_data)
        assert koszul_verify_projective(abelian_block_data, coeffs) == 0.0

    def test_overflow_raises(self):
        # the coefficients fit a double, but h (C - Λ) does not
        data = rotation_data(1e150, 1e150)
        coeffs = lc_connection_coefficients(data)
        assert np.all(np.isfinite(coeffs))
        with pytest.raises(ValueError, match="Koszul check overflows a double"):
            koszul_verify_projective(data, coeffs)

    def test_perturbation_is_linear(self):
        rng = np.random.default_rng(12)
        _, data = random_trivial_data(rng)
        coeffs = lc_connection_coefficients(data)
        n, N = data.n, data.N
        eps = 1e-3
        bumped = np.array(coeffs)
        l0, i0, j0, a, b = 1, 0, 1, 0, N - 1
        bumped[l0, i0, j0, a, b] += eps
        # base residual vanishes, so by linearity the perturbed residual
        # is exactly eps * max_m |column a of h[m, l0]|
        expect = eps * max(
            float(np.max(np.abs(data.h[m, l0][:, a]))) for m in range(n)
        )
        got = koszul_verify_projective(data, bumped)
        assert got == pytest.approx(expect, rel=1e-9)


class TestFromModuleGenerators:
    def test_corner_anchor_projection_support(self, su2_basis):
        data = from_module_generators([I2, Z2, Z2], [I2, Z2, Z2], su2_basis)
        assert max_norm(data.p[0, 0] - I2) < 1e-15
        mask = np.ones((3, 3), dtype=bool)
        mask[0, 0] = False
        assert max_norm(data.p[mask]) == 0.0
        assert max_norm(data.h[0, 0] - I2) == 0.0

    def test_single_generator_gives_trivial_projection(self):
        # the one-generator free case: X = Y = identity produces the
        # full (trivial) projection and the criterion holds
        data = from_module_generators([I2], [I2], LieBasis([D3]))
        assert max_norm(data.p - eye_grid(1, 2)) == 0.0
        holds, worst, _ = lc_condition_check(data)
        assert holds and worst == 0.0

    def test_not_generating(self, su2_basis):
        with pytest.raises(NotGenerating):
            from_module_generators([I2, Z2, Z2], [Z2, I2, Z2], su2_basis)

    def test_generating_cut_does_not_overflow(self):
        # X = Y = 1e200 1: sum_k X_k Y^k is inf, and a cut formed from
        # |X| |Y| was inf too and passed it
        with pytest.raises(NotGenerating, match="differs from identity by inf"):
            from_module_generators([1e200 * I2], [1e200 * I2], LieBasis([D3]))

    def test_idempotence_preserved_for_generic_generators(self, su2_basis):
        # X_i from a commuting hermitian pencil times a common unitary,
        # so every X_i^dagger X_j is hermitian (the real-metric condition);
        # the right inverse absorbs two free matrices
        rng = np.random.default_rng(13)
        for _ in range(10):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            H = 0.5 * (g + g.conj().T)
            q1 = (np.linalg.norm(H, 2) + 1.0) * np.eye(2) + H
            q2 = rng.standard_normal() * np.eye(2) + rng.standard_normal() * H
            q3 = rng.standard_normal() * np.eye(2) + rng.standard_normal() * H
            z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            V, _ = np.linalg.qr(z)
            w2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            w3 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            xs = [q1 @ V, q2 @ V, q3 @ V]
            ys = [
                V.conj().T @ np.linalg.inv(q1) @ (np.eye(2) - q2 @ w2 - q3 @ w3),
                V.conj().T @ w2,
                V.conj().T @ w3,
            ]
            data = from_module_generators(xs, ys, su2_basis)
            res = max_norm(
                np.einsum("klab,ljbc->kjac", data.p, data.p) - data.p
            )
            assert res <= 10 * DEFAULT_TOL.cut(max(1.0, max_norm(data.p) ** 2))


class TestRankOneCrossCheck:
    def test_su2_anchor_agrees_with_nonexistence(self, su2_basis):
        rng = np.random.default_rng(14)
        for _ in range(5):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            data = rank_one_calculus(su2_basis, v / np.linalg.norm(v), rng.standard_normal(3))
            holds, _, _ = lc_condition_check(data)
            assert not holds

    def test_gc_witness_agrees_with_existence(self, su4):
        pre = cncalc.MetricPreCalculus(su4["gc"], 1.0)
        report = cncalc.decide_existence(pre)
        anchor, _ = report.witness
        data = rank_one_calculus(su4["gc"], anchor.v0, anchor.mu)
        holds, worst, _ = lc_condition_check(data)
        assert holds, worst
        coeffs = lc_connection_coefficients(data)
        assert koszul_verify_projective(data, coeffs) <= 1e-9

    def test_gb_anchors_fail(self, su4):
        rng = np.random.default_rng(15)
        for _ in range(5):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            data = rank_one_calculus(su4["gb"], v / np.linalg.norm(v), rng.standard_normal(4))
            holds, _, _ = lc_condition_check(data)
            assert not holds

    def test_metric_scale_cancels(self, su4):
        v0 = np.array([1.0, 0, 0, 0])
        mu = np.array([1.0, 0, 0, 0])
        for x in (0.5, -3.0):
            data = rank_one_calculus(su4["gc"], v0, mu, metric_scale=x)
            holds, _, _ = lc_condition_check(data)
            assert holds


# ---------------------------------------------------------------------------
# Literal evaluators: each formula as one einsum, in the index order of
# the docstrings. The library contracts the same sums in another order.


def _commutators_literal(mats, grid):
    return np.einsum("irs,absc->iabrc", mats, grid) - np.einsum("abrs,isc->iabrc", grid, mats)


def _invariant_residuals_literal(p, h, h_inv):
    return [
        ("projection idempotence p.p = p", max_norm(np.einsum("klab,ljbc->kjac", p, p) - p)),
        ("metric symmetry h_ij = h_ji^*", max_norm(h - h.conj().transpose(1, 0, 3, 2))),
        ("metric hermiticity h_ij = h_ij^dagger", max_norm(h - h.conj().transpose(0, 1, 3, 2))),
        (
            "inverse conjugate symmetry (h^ij)^* = h^ji",
            max_norm(h_inv - h_inv.conj().transpose(1, 0, 3, 2)),
        ),
        (
            "inverse relation p h^{kl} h_li = p",
            max_norm(np.einsum("qkab,klbc,licd->qiad", p, h_inv, h, optimize=True) - p),
        ),
        (
            "projection compatibility p h^{ml} = h^{kl}",
            max_norm(np.einsum("kmab,mlbc->klac", p, h_inv) - h_inv),
        ),
    ]


def _invariant_factors(p, h, h_inv):
    """Per identity, in the order above, the factors of the scale at
    which its residual is compared with the literal one, each
    max(1, |grid|)."""
    pmax, hmax, imax = (max(1.0, max_norm(g)) for g in (p, h, h_inv))
    return [(pmax, pmax), (hmax,), (hmax,), (imax,), (pmax, hmax, imax), (pmax, imax)]


def _invariant_violations_literal(p, h, h_inv, tol=DEFAULT_TOL):
    """Per identity, in the order above, whether its literal residual is
    past its cut: a product identity entry by entry, at tol.cut of
    min((|A| |B| ...)_kj, max|A| max|B| ...) for its factors A, B, ...,
    a symmetry at tol.cut of its grid's largest entry."""
    def past(subscripts, factors, value):
        defect = np.einsum(subscripts, *factors, optimize=True) - value
        scale = np.einsum(subscripts, *map(np.abs, factors), optimize=True)
        cap = math.prod(map(max_norm, factors))
        return bool(np.any(np.abs(defect) > tol.abs + tol.rel * np.minimum(scale, cap)))

    literal = dict(_invariant_residuals_literal(p, h, h_inv))
    return [
        past("klab,ljbc->kjac", (p, p), p),
        literal["metric symmetry h_ij = h_ji^*"] > tol.cut(max_norm(h)),
        literal["metric hermiticity h_ij = h_ij^dagger"] > tol.cut(max_norm(h)),
        literal["inverse conjugate symmetry (h^ij)^* = h^ji"] > tol.cut(max_norm(h_inv)),
        past("qkab,klbc,licd->qiad", (p, h_inv, h), p),
        past("kmab,mlbc->klac", (p, h_inv), h_inv),
    ]


@functools.cache  # data compare by identity; each test data is read by several tests
def _lambda_literal(data):
    h, fr = data.h, data.f.f
    dh = _commutators_literal(data.derivs.mats, h)
    six = (
        dh
        + np.einsum("jilab->ijlab", dh)
        - np.einsum("lijab->ijlab", dh)
        - np.einsum("jqab,qil->ijlab", h, fr)
        - np.einsum("iqab,qjl->ijlab", h, fr)
        + np.einsum("lqab,qij->ijlab", h, fr)
    )
    return 0.5 * np.einsum("klab,ijlbc->kijac", data.h_inv, six)


def _criterion_literal(data):
    """(lhs, rhs) of p^k_l d_i(p^l_j) = Lam^k_il (delta^l_j 1 - p^l_j)."""
    p, lam = data.p, _lambda_literal(data)
    dp = _commutators_literal(data.derivs.mats, p)
    lhs = np.einsum("klab,iljbc->kijac", p, dp)
    rhs = lam - np.einsum("kilab,ljbc->kijac", lam, p)
    return lhs, rhs


def _coefficients_literal(data):
    p, lam = data.p, _lambda_literal(data)
    gam = np.einsum("limab,mkbc->likac", lam, p)
    dp = _commutators_literal(data.derivs.mats, p)
    return np.einsum("likab,kjbc->lijac", gam, p) + dp.transpose(1, 0, 2, 3, 4)


def _koszul_terms_literal(data, coeffs):
    lhs = np.einsum("mlab,lijbc->mijac", data.h, coeffs)
    rhs = np.einsum("mkab,kijbc->mijac", data.h, _lambda_literal(data))
    return lhs, rhs


REL = 1e-12


def _agree(got, want, scale):
    """Within REL of the scale of the terms the quantity is built from."""
    return max_norm(np.asarray(got) - np.asarray(want)) <= REL * max(1.0, scale)


@pytest.fixture(
    scope="module",
    params=[f"su{k}-{kind}" for k in (2, 3, 4, 5) for kind in ("trivial", "generators")] + ["mat2_rank1"],
)
def generic_data(request):
    """su(2) to su(5) in a generic presentation with two kinds of data, and
    the failing rank-one fixture. The derivations and every grid are given
    as Fortran-ordered arrays, which the data keeps, so no contraction may
    rely on C-contiguous inputs."""
    if request.param == "mat2_rank1":
        spec = cli.parse_projective_spec(json.loads(fixture_path("mat2_rank1.json").read_text()))
        data = from_module_generators(spec.X, spec.Y, LieBasis(spec.derivations))
    else:
        k, kind = request.param.split("-")
        rng = np.random.default_rng(2024)
        basis = LieBasis(generic_presentation(rng, su_basis(int(k[2:]))))
        data = (trivial_data if kind == "trivial" else generator_data)(rng, basis)
    grids = [np.asfortranarray(g) for g in (data.p, data.h, data.h_inv)]
    data = ProjectiveCalculusData(LieBasis(np.asfortranarray(data.derivs.mats)), *grids)
    assert not any(g.flags.c_contiguous for g in (data.derivs.mats, data.p, data.h, data.h_inv))
    return data


def _hermitian_block_grid(rng, n, N):
    """Random grid whose stacked nN x nN matrix is hermitian, entries <= 1."""
    g = rng.standard_normal((n * N, n * N)) + 1j * rng.standard_normal((n * N, n * N))
    big = g + g.conj().T
    return (big / np.max(np.abs(big))).reshape(n, N, n, N).transpose(0, 2, 1, 3)


class TestContractionsAgainstLiteral:
    def test_traced_peak_of_the_numerics(self):
        # trivial su(5), n = 24, N = 5: one (n, n, n, N, N) tensor is
        # 5.3 MiB; the data, the criterion, the coefficients and the
        # certificate together stay below 38 MiB (7.2 such tensors)
        rng = np.random.default_rng(44)
        d = trivial_data(rng, LieBasis(generic_presentation(rng, su_basis(5))))
        mats, grids = np.array(d.derivs.mats), [np.array(g) for g in (d.p, d.h, d.h_inv)]
        del d
        tracemalloc.start()
        try:
            data = ProjectiveCalculusData(LieBasis(mats), *grids)
            koszul_verify_projective(data, lc_connection_coefficients(data))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 38 * 2**20

    def test_commutators(self, generic_data):
        mats = generic_data.derivs.mats
        for grid in (generic_data.p, generic_data.h, generic_data.h_inv):
            want = _commutators_literal(mats, grid)
            got = projcalc._commutators(mats, grid)
            assert _agree(got, want, max_norm(mats) * max_norm(grid))

    def test_grid_derivatives(self, generic_data):
        d = generic_data
        for got, grid in ((d.dp, d.p), (d.dh, d.h)):
            assert not got.flags.writeable
            want = _commutators_literal(d.derivs.mats, grid)
            assert _agree(got, want, max_norm(d.derivs.mats) * max_norm(grid))

    def test_invariant_residuals(self, generic_data):
        rng = np.random.default_rng(5)
        d = generic_data
        grids = [np.array(d.p), np.array(d.h), np.array(d.h_inv)]
        perturbed = [g + 1e-3 * max_norm(g) * rng.standard_normal(g.shape) for g in grids]
        for p, h, h_inv in (grids, perturbed):
            got = list(projcalc._invariant_residuals(p, h, h_inv, DEFAULT_TOL))
            want = _invariant_residuals_literal(p, h, h_inv)
            assert [name for name, _, _ in got] == [name for name, _ in want]
            factors = _invariant_factors(p, h, h_inv)
            violated = _invariant_violations_literal(p, h, h_inv)
            for (_, res, within), (_, lit), f, v in zip(got, want, factors, violated):
                assert abs(res - lit) <= REL * math.prod(f)
                assert within == (not v) == (p is grids[0])

    def test_lambda_tensor(self, generic_data):
        want = _lambda_literal(generic_data)
        got = lambda_tensor(generic_data)
        d = generic_data
        scale = max_norm(d.h_inv) * max_norm(d.h) * max(max_norm(d.derivs.mats), max_norm(d.f.f))
        assert _agree(got, want, scale)

    def test_criterion_residuals(self, generic_data):
        lhs, rhs = _criterion_literal(generic_data)
        holds, worst, per_index = lc_condition_check(generic_data)
        want = np.max(np.abs(lhs - rhs), axis=(3, 4))
        scale = max(max_norm(lhs), max_norm(rhs))
        assert _agree(per_index, want, scale)
        assert worst == pytest.approx(float(np.max(want)), abs=REL * max(1.0, scale))
        # index i's cut: the largest terms of the two sides, p d_i p and
        # Λ^._i. times δ's 1 or p, and p D_i p, which p d_i p is formed from
        d, pmax = generic_data, max_norm(generic_data.p)
        dp, lam = _commutators_literal(d.derivs.mats, d.p), _lambda_literal(d)
        cut = [DEFAULT_TOL.cut(max(pmax * max_norm(dp[i]), max_norm(lam[:, i]) * max(1.0, pmax),
                                   pmax * max_norm(d.derivs.mats[i]) * pmax)) for i in range(d.n)]
        assert holds == bool(np.all(want <= np.array(cut)[:, None]))

    def test_connection_coefficients(self, generic_data, monkeypatch):
        # the assembly is compared on both kinds of data, so the guard
        # that the criterion holds is lifted
        monkeypatch.setattr(projcalc, "lc_condition_check", lambda data, tol: (True, 0.0, None))
        want = _coefficients_literal(generic_data)
        got = lc_connection_coefficients(generic_data)
        assert got.flags.c_contiguous
        d = generic_data
        scale = max_norm(_lambda_literal(d)) * max_norm(d.p) ** 2 + max_norm(want)
        assert _agree(got, want, scale)

    def test_koszul_residual(self, generic_data):
        rng = np.random.default_rng(6)
        d = generic_data
        shape = (d.n, d.n, d.n, d.N, d.N)
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for candidate in (coeffs, _lambda_literal(d)):
            lhs, rhs = _koszul_terms_literal(d, candidate)
            got = koszul_verify_projective(d, candidate)
            assert _agree(got, max_norm(lhs - rhs), max(max_norm(lhs), max_norm(rhs)))


class TestInvariantViolationNames:
    """A perturbation aimed at one identity is reported under its name."""

    @pytest.mark.parametrize(
        "target, identity",
        [
            ("p", "projection idempotence p.p = p"),
            ("h", "metric symmetry h_ij = h_ji^*"),
            ("h_hermitian", "metric hermiticity h_ij = h_ij^dagger"),
            ("h_inv", "inverse conjugate symmetry (h^ij)^* = h^ji"),
            ("h_inv_hermitian", "inverse relation p h^{kl} h_li = p"),
            ("h_inv_off_range", "projection compatibility p h^{ml} = h^{kl}"),
        ],
    )
    def test_named_identity(self, target, identity):
        rng = np.random.default_rng(7)
        basis = LieBasis(generic_presentation(rng, su_basis(3)))
        d = generator_data(rng, basis)
        n, N = d.n, d.N
        grids = {"p": np.array(d.p), "h": np.array(d.h), "h_inv": np.array(d.h_inv)}
        noise = rng.standard_normal((n, n, N, N)) + 1j * rng.standard_normal((n, n, N, N))
        herm = _hermitian_block_grid(rng, n, N)
        if target == "h_inv_off_range":
            # E = (1 - P) S (1 - P)^dagger: hermitian, and P E = 0, so only
            # p h^{ml} = h^{kl} sees it
            Q = np.eye(n * N) - projcalc._block_matrix(grids["p"])
            E = Q @ projcalc._block_matrix(herm) @ Q.conj().T
            grid = (E / max_norm(E)).reshape(n, N, n, N).transpose(0, 2, 1, 3)
        else:
            grid = herm if target.endswith("_hermitian") else noise / max_norm(noise)
        key = target.split("_hermitian")[0].split("_off_range")[0]
        grids[key] = grids[key] + 1e-3 * max(1.0, max_norm(grids[key])) * grid

        # the literal checks, in the parent's order, name the same identity
        first = next(
            (name, res)
            for (name, res), violated in zip(
                _invariant_residuals_literal(grids["p"], grids["h"], grids["h_inv"]),
                _invariant_violations_literal(grids["p"], grids["h"], grids["h_inv"]),
            )
            if violated
        )
        assert first[0] == identity
        with pytest.raises(InvariantViolation) as info:
            ProjectiveCalculusData(basis, grids["p"], grids["h"], grids["h_inv"])
        assert info.value.identity == identity
        assert info.value.residual == pytest.approx(first[1], rel=1e-9)
