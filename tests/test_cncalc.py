import numpy as np
import pytest

from realcalc import cncalc, liealg, matlin
from realcalc.cncalc import (
    EXISTS,
    NONEXISTENT,
    REASON_NO_COMMON_EIGENVECTOR,
    REASON_SEMISIMPLE,
    REASON_WITNESS,
    AnchorMap,
    Connection,
    ExistenceReport,
    MetricPreCalculus,
    decide_existence,
    koszul_residual,
    levi_civita_connection,
    metric_compat_residual,
    torsion,
)
from realcalc.liealg import (
    LieBasis,
    common_left_eigenvector,
    levi_split_compact,
)
from realcalc.matlin import DEFAULT_TOL, Tolerance, max_norm

from support import (
    block_with_center,
    conjugate,
    generic_presentation,
    oracle_existence,
    random_subalgebra,
    random_unitary,
    su2_mats,
    su_basis,
    user_constants,
)

D1, D2, D3 = su2_mats()


class TestTypes:
    def test_metric_scale_must_be_nonzero(self, su2_basis):
        with pytest.raises(ValueError):
            MetricPreCalculus(su2_basis, 0.0)

    def test_anchor_requires_unit_v0(self):
        with pytest.raises(ValueError):
            AnchorMap(np.array([2.0, 0.0]), np.array([1.0]))

    def test_anchor_requires_nonzero_mu(self):
        with pytest.raises(ValueError):
            AnchorMap(np.array([1.0, 0.0]), np.array([0.0, 0.0]))

    def test_connection_requires_finite(self):
        with pytest.raises(ValueError):
            Connection([np.inf])

    def test_report_status_witness_consistency(self):
        with pytest.raises(ValueError):
            ExistenceReport(EXISTS, REASON_WITNESS, None, {})
        anchor = AnchorMap(np.array([1.0, 0]), np.array([1.0]))
        conn = Connection([1.0])
        with pytest.raises(ValueError):
            ExistenceReport(NONEXISTENT, REASON_SEMISIMPLE, (anchor, conn), {})


def _unit_pairs(N, trials=16):
    """Fixed batch of random unit-vector pairs (u, v), as rows of U and V."""
    rng = np.random.default_rng(1729)
    us, vs = [], []
    for _ in range(trials):
        u = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        us.append(u / np.linalg.norm(u))
        vs.append(v / np.linalg.norm(v))
    return np.array(us), np.array(vs)


def _metric_compat_literal(x, mats, ts, U, V):
    """Largest entry of D_j h(u,v) - h(nabla_j u, v) - h(u, nabla_j v) per pair.

    Evaluated term by term for nabla_j v = t_j v - v D_j with any complex
    t_j and any square matrices, derivations acting by commutators and
    h(u, v) = x u^dagger v; one value per row pair of U and V.
    """
    h = x * np.einsum("ta,tb->tab", U.conj(), V)
    lhs = np.einsum("jab,tbc->jtac", mats, h) - np.einsum("tab,jbc->jtac", h, mats)
    du = np.einsum("j,ta->jta", ts, U) - np.einsum("ta,jab->jtb", U, mats)
    dv = np.einsum("j,ta->jta", ts, V) - np.einsum("ta,jab->jtb", V, mats)
    rhs = x * (
        np.einsum("jta,tb->jtab", du.conj(), V)
        + np.einsum("ta,jtb->jtab", U.conj(), dv)
    )
    return np.max(np.abs(lhs - rhs), axis=(0, 2, 3))


class TestMetricCompatibility:
    def test_imaginary_t_is_compatible(self, su2_basis):
        pre = MetricPreCalculus(su2_basis, -3.0)
        conn = Connection([0.7, -1.3, 2.9])
        assert metric_compat_residual(pre, conn) <= 1e-12 * 3.0 * 2

    def test_hermitian_part_breaks_compatibility(self, su2_basis):
        # with D_j + eps diag(1, -1) the defect is exactly
        # x (D_j + D_j^dag) u^dag v = 2 eps x diag(1, -1) u^dag v
        x, eps = -3.0, 1e-3
        basis = LieBasis(su2_basis.mats + eps * np.diag([1.0, -1.0]), Tolerance(rel=1e-2))
        conn = Connection([0.7, -1.3, 2.9])
        U, V = _unit_pairs(2)
        got = _metric_compat_literal(x, basis.mats, 1j * conn.lambdas, U, V)
        expect = [2.0 * eps * abs(x) * np.max(np.abs(np.outer(u.conj(), v))) for u, v in zip(U, V)]
        assert got == pytest.approx(expect, rel=1e-12)
        sup = metric_compat_residual(MetricPreCalculus(basis, x), conn)
        assert sup == pytest.approx(2.0 * eps * abs(x), rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_closed_form_is_the_supremum(self, seed):
        # trace-free matrices with a hermitian part, a basis only under a
        # loose tolerance, and a random connection
        rng = np.random.default_rng(seed)
        n, N = 3, 4
        raw = rng.standard_normal((n, N, N)) + 1j * rng.standard_normal((n, N, N))
        raw -= np.trace(raw, axis1=1, axis2=2)[:, None, None] * np.eye(N) / N
        anti, herm = raw - raw.conj().transpose(0, 2, 1), raw + raw.conj().transpose(0, 2, 1)
        basis = LieBasis(anti + 1e-3 * herm, Tolerance(rel=1e-1))
        conn = Connection(rng.standard_normal(n))
        x = rng.uniform(-3.0, 3.0)
        mats, ts = basis.mats, 1j * conn.lambdas
        sup = metric_compat_residual(MetricPreCalculus(basis, x), conn)
        sampled = _metric_compat_literal(x, mats, ts, *_unit_pairs(N))
        assert np.all(sampled <= sup * (1.0 + 1e-12))
        # attained at u the normalized worst row of A_j = D_j + D_j^dag and v = e_b
        A = mats + mats.conj().transpose(0, 2, 1)
        j, a = np.unravel_index(np.argmax(np.linalg.norm(A, axis=2)), (n, N))
        u = A[j, a] / np.linalg.norm(A[j, a])
        for b in range(N):
            at = _metric_compat_literal(x, mats, ts, u[None], np.eye(N)[b][None])
            assert at[0] == pytest.approx(sup, rel=1e-12)


class TestTorsion:
    def test_su2_explicit_component(self, su2_basis, su2_f):
        pre = MetricPreCalculus(su2_basis)
        anchor = AnchorMap(np.array([1.0, 0]), np.array([1.0, 0, 0]))
        conn = Connection([0.3, -0.7, 1.1])
        T = torsion(pre, conn, su2_f, anchor)
        # T_23 = -f^1_23 mu_1 v0 = 2 v0, independent of the lambdas
        assert np.allclose(T[1, 2], 2.0 * anchor.v0, atol=1e-12)

    def test_abelian_annihilating_anchor(self):
        basis = LieBasis([D3])
        f = user_constants(basis)
        pre = MetricPreCalculus(basis)
        anchor = AnchorMap(np.array([1.0, 0]), np.array([1.0]))
        conn = Connection([1.0])  # v0 D3 = i v0
        T = torsion(pre, conn, f, anchor)
        assert max_norm(T) < 1e-15

    def test_antisymmetry_exact(self, su2_basis, su2_f):
        rng = np.random.default_rng(11)
        pre = MetricPreCalculus(su2_basis)
        for _ in range(20):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            anchor = AnchorMap(v / np.linalg.norm(v), rng.standard_normal(3))
            conn = Connection(rng.standard_normal(3))
            T = torsion(pre, conn, su2_f, anchor)
            assert np.array_equal(T, -T.transpose(1, 0, 2))

    def test_matches_literal_definition(self, su2_basis, su2_f):
        # transcription cross-check against nabla_i phi_j - nabla_j phi_i
        # - phi([D_i, D_j]) evaluated entry by entry
        rng = np.random.default_rng(23)
        pre = MetricPreCalculus(su2_basis)
        for _ in range(10):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            anchor = AnchorMap(v / np.linalg.norm(v), rng.standard_normal(3))
            conn = Connection(rng.standard_normal(3))
            T = torsion(pre, conn, su2_f, anchor)
            e = [m * anchor.v0 for m in anchor.mu]

            def nabla(i, v):
                return 1j * conn.lambdas[i] * v - v @ su2_basis.mats[i]

            for i in range(3):
                for j in range(3):
                    direct = (
                        nabla(i, e[j])
                        - nabla(j, e[i])
                        - float(su2_f.f[:, i, j] @ anchor.mu) * anchor.v0
                    )
                    assert max_norm(T[i, j] - direct) < 1e-13

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_closed_form_matches_einsum(self, k):
        # generic su(k) plus its center in su(k + 1), on the witness and
        # on random anchors; the witness torsion is round-off, so the
        # bound there is absolute
        rng = np.random.default_rng(100 + k)
        basis = LieBasis(generic_presentation(rng, block_with_center(k + 1, k)))
        f = user_constants(basis)
        pre = MetricPreCalculus(basis, 1.3)
        report = decide_existence(pre)
        assert report.status == EXISTS
        cases = [report.witness]
        for _ in range(3):
            v = rng.standard_normal(k + 1) + 1j * rng.standard_normal(k + 1)
            anchor = AnchorMap(v / np.linalg.norm(v), rng.standard_normal(basis.n))
            cases.append((anchor, Connection(rng.standard_normal(basis.n))))
        for anchor, conn in cases:
            T = torsion(pre, conn, f, anchor)
            literal = _torsion_einsum(pre, conn, f, anchor)
            assert T.shape == literal.shape == (basis.n, basis.n, k + 1)
            assert max_norm(T - literal) <= 1e-12 * max(1.0, max_norm(literal))


def _torsion_einsum(pre, conn, f, anchor):
    """T[i, j] = v0 (mu_j X_i - mu_i X_j - c_ij 1) through the (n, n, N, N) tensor."""
    mats = pre.basis.mats
    mu = anchor.mu
    eye = np.eye(pre.basis.N)
    X = np.array([1j * lam * eye - D for lam, D in zip(conn.lambdas, mats)])
    c = np.einsum("kij,k->ij", f.f, mu)
    inner = (
        np.einsum("j,iab->ijab", mu, X)
        - np.einsum("i,jab->ijab", mu, X)
        - np.einsum("ij,ab->ijab", c, eye)
    )
    return np.einsum("a,ijab->ijb", anchor.v0, inner)


def _koszul_literal(pre, conn, f, anchor, norm=np.linalg.norm):
    """The Koszul residual from the identity's displayed form, one triple at a time.

    Each triple's gap LHS - RHS is an N x N matrix; the residual is the
    largest of their norms, Frobenius unless ``norm`` says otherwise.
    """
    x = pre.metric_scale
    mats = pre.basis.mats
    n = pre.basis.n
    e = [m * anchor.v0 for m in anchor.mu]

    def h(u, v):
        return x * np.outer(u.conj(), v)

    def d(idx, a):
        return mats[idx] @ a - a @ mats[idx]

    def nabla(idx, v):
        return 1j * conn.lambdas[idx] * v - v @ mats[idx]

    def phi_bracket(i, j):
        coeff = float(f.f[:, i, j] @ anchor.mu)
        return coeff * anchor.v0

    worst = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = 2.0 * h(nabla(i, e[j]), e[k])
                rhs = (
                    d(i, h(e[j], e[k]))
                    + d(j, h(e[i], e[k]))
                    - d(k, h(e[i], e[j]))
                    - h(e[i], phi_bracket(j, k))
                    + h(e[j], phi_bracket(k, i))
                    + h(e[k], phi_bracket(i, j))
                )
                worst = max(worst, float(norm(lhs - rhs)))
    return worst


class TestKoszulResidual:
    def test_gc_witness_within_tolerance(self, gc_witness):
        pre, f, anchor, conn = gc_witness
        assert koszul_residual(pre, conn, f, anchor) <= 1e-9

    @pytest.mark.parametrize("x", [1.0, 2.5, -0.75])
    def test_su2_obstruction_leaks_into_koszul(self, su2_basis, su2_f, x):
        pre = MetricPreCalculus(su2_basis, x)
        anchor = AnchorMap(np.array([1.0, 0]), np.array([1.0, 0, 0]))
        for lambdas in ([0.0, 0.0, 0.0], [0.4, -0.2, 1.5]):
            residual = koszul_residual(pre, Connection(lambdas), su2_f, anchor)
            assert residual >= 2.0 * abs(x) - 1e-9

    def test_matches_literal_sixterm_evaluation(self, su2_basis, su2_f):
        rng = np.random.default_rng(77)
        pre = MetricPreCalculus(su2_basis, -1.5)
        for _ in range(10):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            anchor = AnchorMap(v / np.linalg.norm(v), rng.standard_normal(3))
            conn = Connection(rng.standard_normal(3))
            fast = koszul_residual(pre, conn, su2_f, anchor)
            slow = _koszul_literal(pre, conn, su2_f, anchor)
            assert fast == pytest.approx(slow, rel=1e-12, abs=1e-14)
            assert cncalc._koszul_bound(pre, conn, su2_f, anchor) >= slow * (1.0 - 1e-12)

    def test_matches_literal_on_su3_center_random_anchors(self):
        # n = 9 and N = 4 keep the index roles apart, and random mu make
        # c = sum_k mu_k f^k nonzero, which central witness anchors never
        # do. On the common eigenvector with its own connection every
        # term but the three phi-bracket terms vanishes, so the residual
        # is theirs alone; elsewhere the j = k entries dominate, where
        # those terms cancel.
        rng = np.random.default_rng(78)
        basis = LieBasis(generic_presentation(rng, block_with_center(4, 3)))
        f = user_constants(basis)
        pre = MetricPreCalculus(basis, 0.8)
        v_eig, eigenvalues = common_left_eigenvector(basis, levi_split_compact(basis).ss_basis)
        cases = [(v_eig, eigenvalues.imag)] * 3
        for _ in range(3):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            cases.append((v / np.linalg.norm(v), rng.standard_normal(9)))
        for v, lambdas in cases:
            anchor = AnchorMap(v, rng.standard_normal(9))
            assert max_norm(np.einsum("kij,k->ij", f.f, anchor.mu)) > 0.1
            conn = Connection(lambdas)
            fast = koszul_residual(pre, conn, f, anchor)
            slow = _koszul_literal(pre, conn, f, anchor)
            assert fast == pytest.approx(slow, rel=1e-12, abs=1e-14)
            assert cncalc._koszul_bound(pre, conn, f, anchor) >= slow * (1.0 - 1e-12)


    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_literal_on_witnesses(self, k):
        # at a witness every gap is round-off; the closed form splits the
        # gap into orthogonal parts and must not lose it to cancellation
        rng = np.random.default_rng(79 + k)
        basis = LieBasis(generic_presentation(rng, block_with_center(k + 1, k)))
        f = user_constants(basis)
        pre = MetricPreCalculus(basis, 0.8)
        anchor, conn = decide_existence(pre).witness
        fast = koszul_residual(pre, conn, f, anchor)
        slow = _koszul_literal(pre, conn, f, anchor)
        assert fast <= 1e-14 and slow <= 1e-14
        assert fast == pytest.approx(slow, abs=1e-14)
        # the closed-form bound certifies the witness on its own
        thr = 100.0 * DEFAULT_TOL.cut(cncalc._witness_scale(pre))
        assert cncalc._koszul_bound(pre, conn, f, anchor) <= 0.5 * thr

    def test_bounds_the_largest_entry(self, su2_basis, su2_f):
        # the Frobenius norm of an N x N gap is at least its largest
        # entry, and at most N times it
        rng = np.random.default_rng(80)
        pre = MetricPreCalculus(su2_basis, 1.7)
        for _ in range(10):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            anchor = AnchorMap(v / np.linalg.norm(v), rng.standard_normal(3))
            conn = Connection(rng.standard_normal(3))
            fro = koszul_residual(pre, conn, su2_f, anchor)
            entry = _koszul_literal(pre, conn, su2_f, anchor, norm=max_norm)
            assert entry * (1.0 - 1e-12) <= fro <= 2.0 * entry * (1.0 + 1e-12)


class TestKoszulCertificate:
    def test_bound_covers_the_residual_across_scales(self, su2_basis):
        # mu and lambda entries spread over six decades make each term of
        # the triangle inequality dominate somewhere, so the bound is
        # nearly tight on some draws and must still not fall below
        rng = np.random.default_rng(83)
        bases = [su2_basis, LieBasis(block_with_center(4, 3))]
        bases.append(LieBasis(generic_presentation(rng, block_with_center(3, 2))))
        for basis in bases:
            f = user_constants(basis)
            pre = MetricPreCalculus(basis, -0.8)
            for _ in range(60):
                v = rng.standard_normal(basis.N) + 1j * rng.standard_normal(basis.N)
                mu = rng.standard_normal(basis.n) * 10.0 ** rng.uniform(-3, 3, basis.n)
                lambdas = rng.standard_normal(basis.n) * 10.0 ** rng.uniform(-3, 3, basis.n)
                anchor, conn = AnchorMap(v / np.linalg.norm(v), mu), Connection(lambdas)
                exact = koszul_residual(pre, conn, f, anchor)
                assert cncalc._koszul_bound(pre, conn, f, anchor) >= exact * (1.0 - 1e-12)

    def test_off_witness_anchor_takes_the_exact_check(self, su2_basis, su2_f):
        # su(2) is semisimple, so no anchor is a witness: the bound
        # exceeds half the cut and the exact residual decides
        rng = np.random.default_rng(81)
        pre = MetricPreCalculus(su2_basis)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        anchor = AnchorMap(v / np.linalg.norm(v), rng.standard_normal(3))
        conn = Connection(rng.standard_normal(3))
        checks = cncalc._passes_all_checks(pre, su2_f, anchor, conn, DEFAULT_TOL)
        assert checks["koszul_certificate"] == "exact"
        assert checks["koszul"] == koszul_residual(pre, conn, su2_f, anchor)
        assert not checks["ok"]

    def test_exact_loop_not_entered_at_witnesses(self, su4, monkeypatch):
        # the O(n^3 N) loop runs only when the bound cannot certify, so a
        # witness, whose Koszul gap is round-off, never enters it
        calls = []
        original = cncalc.koszul_residual

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cncalc, "koszul_residual", counting)
        rng = np.random.default_rng(82)
        bases = [su4["gc"]]
        bases += [LieBasis(generic_presentation(rng, block_with_center(k + 1, k))) for k in (2, 3, 5)]
        for basis in bases:
            report = decide_existence(MetricPreCalculus(basis, 0.8))
            assert report.diagnostics["koszul_certificate"] == "bound"
        assert calls == []


class TestDecideExistence:
    def test_su2_semisimple_obstruction(self, su2_basis):
        report = decide_existence(MetricPreCalculus(su2_basis))
        assert (report.status, report.reason) == (NONEXISTENT, REASON_SEMISIMPLE)
        assert report.witness is None

    def test_gb_no_common_eigenvector(self, su4):
        report = decide_existence(MetricPreCalculus(su4["gb"]))
        assert (report.status, report.reason) == (
            NONEXISTENT,
            REASON_NO_COMMON_EIGENVECTOR,
        )

    def test_gc_witness(self, su4):
        report = decide_existence(MetricPreCalculus(su4["gc"]))
        assert (report.status, report.reason) == (EXISTS, REASON_WITNESS)
        anchor, conn = report.witness
        assert np.allclose(anchor.v0, [1, 0, 0, 0], atol=1e-9)
        assert np.allclose(anchor.mu, [1, 0, 0, 0], atol=1e-9)
        assert np.allclose(conn.lambdas, [1, 0, 0, 0], atol=1e-9)

    def test_abelian_solvable_exists(self):
        basis = LieBasis([D3])
        report = decide_existence(MetricPreCalculus(basis))
        assert report.status == EXISTS

    def test_phase_invariance_under_conjugation(self, su4):
        rng = np.random.default_rng(21)
        for key in ("ga", "gb", "gc"):
            mats = list(su4["raw"][key])
            base = decide_existence(MetricPreCalculus(LieBasis(mats)))
            U = random_unitary(rng, 4)
            rotated = LieBasis(conjugate(mats, U))
            got = decide_existence(MetricPreCalculus(rotated))
            assert got.status == base.status, key
            if base.witness is not None:
                # the new witness lives in the rotated common eigenspace:
                # for gc that space is span{e1, e2} pushed through U
                a0, _ = base.witness
                a1, _ = got.witness
                span = np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=complex) @ U
                coeff = a1.v0 @ span.conj().T
                assert max_norm(a1.v0 - coeff @ span) < 1e-9
                assert np.linalg.norm(a0.v0) == pytest.approx(1.0)

    @pytest.mark.parametrize("x", [0.5, -2.0, 10.0])
    def test_metric_scale_invariance(self, su4, x):
        base = decide_existence(MetricPreCalculus(su4["gc"], 1.0))
        scaled = decide_existence(MetricPreCalculus(su4["gc"], x))
        assert scaled.status == base.status
        a0, c0 = base.witness
        a1, c1 = scaled.witness
        assert np.allclose(a0.v0, a1.v0)
        assert np.allclose(a0.mu, a1.mu)
        assert np.allclose(c0.lambdas, c1.lambdas)

    def test_agrees_with_bruteforce_oracle_small(self):
        rng = np.random.default_rng(314)
        for _ in range(20):
            label, mats = random_subalgebra(rng, sizes=(2, 3))
            got = decide_existence(MetricPreCalculus(LieBasis(mats))).status
            want = oracle_existence(mats)
            assert got == want, label

    def test_survives_ill_conditioned_basis_mix(self, su4):
        # mixing with condition number 1e3 leaves all three verdicts
        # intact; the anchor system rows are then pure fit noise and must
        # still read as zero against the ambient tensor scale
        rng = np.random.default_rng(33)

        def harsh_mix(mats, cond=1e3):
            n = len(mats)
            q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
            q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
            T = q1 @ np.diag(np.logspace(0, np.log10(cond), n)) @ q2
            return list(np.einsum("ai,irs->ars", T, np.array(mats)))

        for key, expect in (("ga", NONEXISTENT), ("gb", NONEXISTENT), ("gc", EXISTS)):
            mats = conjugate(su4["raw"][key], random_unitary(rng, 4))
            report = decide_existence(MetricPreCalculus(LieBasis(harsh_mix(mats))))
            assert report.status == expect, key

    def test_matches_verdict_known_by_construction(self):
        # every kind in the random family has a provable verdict: the
        # semisimple kinds obstruct, abelian and block-plus-center kinds
        # admit a witness, and the doubled su(2) with center has no
        # common eigenvector exactly when no spare coordinate remains
        def expected(kind: str, N: int):
            if kind in ("full", "block", "two_blocks", "double"):
                return (NONEXISTENT, REASON_SEMISIMPLE)
            if kind in ("cartan", "block_center"):
                return (EXISTS, REASON_WITNESS)
            if kind == "double_center":
                if N == 4:
                    return (NONEXISTENT, REASON_NO_COMMON_EIGENVECTOR)
                return (EXISTS, REASON_WITNESS)
            raise KeyError(kind)

        rng = np.random.default_rng(777)
        for _ in range(40):
            label, mats = random_subalgebra(rng)
            report = decide_existence(MetricPreCalculus(LieBasis(mats)))
            want = expected(label.split("-")[0], mats[0].shape[0])
            assert (report.status, report.reason) == want, label


class TestIntermediatesComputedOnce:
    @pytest.mark.parametrize(
        "key, reason",
        [("gc", REASON_WITNESS), ("gb", REASON_NO_COMMON_EIGENVECTOR), ("su2", REASON_SEMISIMPLE)],
    )
    def test_derived_once_and_no_mu_obstruction_solve(self, su4, su2_basis, monkeypatch, key, reason):
        # [g, g] and the center come from one split, shared by the
        # obstruction dimension, the eigenvector search and mu; mu is a
        # closed form, so no linear system is solved for it
        calls = {
            (liealg, "levi_split_compact"): 0,
            (liealg, "mu_obstruction_space"): 0,
            (liealg, "anchor_solution_space"): 0,
            (matlin, "real_nullspace"): 0,
        }
        for owner, name in calls:
            original = getattr(owner, name)

            def counting(*args, _key=(owner, name), _original=original, **kwargs):
                calls[_key] += 1
                return _original(*args, **kwargs)

            for module in (matlin, liealg, cncalc):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting)
        basis = su2_basis if key == "su2" else su4[key]
        report = decide_existence(MetricPreCalculus(basis))
        assert report.reason == reason
        assert {name: count for (_, name), count in calls.items()} == {
            "levi_split_compact": 1,
            "mu_obstruction_space": 0,
            "anchor_solution_space": 0,
            "real_nullspace": 0,
        }


def _assert_exists_under_cut(pre):
    report = decide_existence(pre)
    assert (report.status, report.reason) == (EXISTS, REASON_WITNESS)
    thr = 100.0 * DEFAULT_TOL.cut(cncalc._witness_scale(pre))
    residuals = report.diagnostics["witness_residuals"]
    assert set(residuals) == {"torsion", "rcc", "metric_compatibility", "koszul"}
    assert all(value <= thr for value in residuals.values()), residuals
    assert report.diagnostics["koszul_certificate"] == "bound"


class TestDecideExistenceAtScale:
    def test_su7_center_in_su8_exists(self):
        rng = np.random.default_rng(49)
        pre = MetricPreCalculus(LieBasis(generic_presentation(rng, block_with_center(8, 7))))
        assert pre.basis.n == 49
        _assert_exists_under_cut(pre)

    def test_su9_center_in_su10_exists(self):
        rng = np.random.default_rng(81)
        pre = MetricPreCalculus(LieBasis(generic_presentation(rng, block_with_center(10, 9))))
        assert pre.basis.n == 81
        _assert_exists_under_cut(pre)

    def test_su11_center_in_su12_exists(self):
        rng = np.random.default_rng(121)
        pre = MetricPreCalculus(LieBasis(generic_presentation(rng, block_with_center(12, 11))))
        assert pre.basis.n == 121
        _assert_exists_under_cut(pre)

    def test_doubled_su4_center_in_su8_has_no_common_eigenvector(self):
        rng = np.random.default_rng(16)
        doubled = [np.kron(np.eye(2), m) for m in su_basis(4)]
        center = 1j * np.diag([1.0] * 4 + [-1.0] * 4)
        pre = MetricPreCalculus(LieBasis(generic_presentation(rng, doubled + [center])))
        report = decide_existence(pre)
        assert (report.status, report.reason) == (NONEXISTENT, REASON_NO_COMMON_EIGENVECTOR)


class TestSemisimpleTorsionBound:
    def test_su2_lower_bound(self, su2_basis, su2_f):
        rng = np.random.default_rng(42)
        pre = MetricPreCalculus(su2_basis)
        for _ in range(50):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            mu = rng.standard_normal(3)
            anchor = AnchorMap(v / np.linalg.norm(v), mu)
            conn = Connection(rng.standard_normal(3))
            T = torsion(pre, conn, su2_f, anchor)
            pair_norms = np.linalg.norm(T, axis=2)
            bound = np.abs(np.einsum("kij,k->ij", su2_f.f, mu))
            # each |sum_k mu_k f^k_ij| is the v0 component of T_ij
            assert np.all(pair_norms >= bound - 1e-9)
            assert float(np.max(pair_norms)) > 0.0


def _rescaled_su2_center() -> LieBasis:
    """su(2) + center in su(3) with the two su(2) elements scaled by 1e10."""
    return LieBasis([m * (1e10 if i < 2 else 1.0) for i, m in enumerate(block_with_center(3, 2))])


class TestLeviCivitaConnection:
    @pytest.mark.parametrize("case", ["gc_su4", "su2c-su3-1e10"])
    def test_gives_the_witness(self, su4, case):
        # the one candidate lambda_j = Im(v0 D_j v0^dagger) is, bit for
        # bit, the common eigenvector's eigenvalues, and it passes
        basis = su4["gc"] if case == "gc_su4" else _rescaled_su2_center()
        pre = MetricPreCalculus(basis)
        split = levi_split_compact(basis)
        anchor, witness = decide_existence(pre).witness
        conn, checks = levi_civita_connection(pre, split, anchor)
        assert checks["ok"]
        assert np.array_equal(conn.lambdas, witness.lambdas)
        found = common_left_eigenvector(basis, split.ss_basis)
        assert np.array_equal(conn.lambdas, found.lambdas.imag)

    def test_rescaled_basis_is_checked_in_its_frame(self):
        # torsion and Koszul terms and their cut grow with products of
        # element norms, so the checks run on the frame form, where the
        # witness reads round-off against the unit-scale cut and a mu
        # that is not zero on [g, g] fails
        pre = MetricPreCalculus(_rescaled_su2_center())
        split = levi_split_compact(pre.basis)
        anchor, _ = decide_existence(pre).witness
        conn, checks = levi_civita_connection(pre, split, anchor)
        assert conn is not None
        frame = MetricPreCalculus(pre.basis.frame(), pre.metric_scale)
        thr = 100.0 * DEFAULT_TOL.cut(cncalc._witness_scale(frame))
        assert thr < 1e-6
        assert max(checks[key] for key in ("torsion", "metric_compatibility", "koszul")) <= thr
        bumped = AnchorMap(anchor.v0, anchor.mu + pre.basis.T_inv @ split.ss_basis[0])
        conn, checks = levi_civita_connection(pre, split, bumped)
        assert conn is None and checks["torsion"] > thr

    def test_single_diagonal(self):
        basis = LieBasis([D3])
        pre = MetricPreCalculus(basis)
        anchor = AnchorMap(np.array([1.0, 0]), np.array([1.0]))
        conn, checks = levi_civita_connection(pre, levi_split_compact(basis), anchor)
        assert checks["ok"]
        assert np.array_equal(conn.lambdas, [1.0])

    def test_random_v0_fails_rcc(self, gc_witness):
        # v0 D0 = i v0 holds only on the common eigenspace, so a random
        # v0 has no connection that annihilates it
        pre, _, witness, _ = gc_witness
        rng = np.random.default_rng(12)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        anchor = AnchorMap(v / np.linalg.norm(v), witness.mu)
        conn, checks = levi_civita_connection(pre, levi_split_compact(pre.basis), anchor)
        assert conn is None
        assert checks["rcc"] > cncalc._rcc_cut(pre.basis, DEFAULT_TOL)
        assert not checks["ok"]
