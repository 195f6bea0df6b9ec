"""Shared fixtures, random algebra generators and independent oracles.

The oracles here deliberately avoid the library's decision paths: the
Killing form is rebuilt from adjoint matrices, semisimplicity, [g, g],
the center and solvability (the derived series) come from separate
rank decisions on the user-basis tensor (carried back from the frame
split, but not decided on it), common eigenvectors are found by
enumerating eigenspace intersections of every basis matrix (no
derived-algebra reduction), and existence is decided by testing
candidate witnesses directly against the Koszul identity.
"""

from __future__ import annotations

import json
from functools import lru_cache

import numpy as np

from realcalc import cncalc, liealg
from realcalc.matlin import DEFAULT_TOL, Tolerance, as_row_vector, max_norm, real_nullspace

# ---------------------------------------------------------------------------
# Concrete algebras


def su2_mats() -> list[np.ndarray]:
    return [
        np.array([[0, 1j], [1j, 0]]),
        np.array([[0, 1], [-1, 0]], dtype=complex),
        np.array([[1j, 0], [0, -1j]]),
    ]


def su4_family() -> dict[str, list[np.ndarray]]:
    """The three su(4) subalgebras built from doubled/cornered su(2)."""
    s = su2_mats()
    Z = np.zeros((2, 2), dtype=complex)
    I2 = np.eye(2, dtype=complex)
    d0 = np.block([[1j * I2, Z], [Z, -1j * I2]])
    dj = [np.block([[m, Z], [Z, m]]) for m in s]
    dpj = [np.block([[Z, Z], [Z, m]]) for m in s]
    return {
        "ga": dpj,
        "gb": [d0] + dj,
        "gc": [d0] + dpj,
        "d0": d0,
        "dj": dj,
        "dpj": dpj,
    }


def su_basis(N: int) -> list[np.ndarray]:
    """Standard basis of su(N): pair rotations, pair phases, Cartan."""
    out = []
    for i in range(N):
        for j in range(i + 1, N):
            a = np.zeros((N, N), dtype=complex)
            a[i, j], a[j, i] = 1.0, -1.0
            out.append(a)
            b = np.zeros((N, N), dtype=complex)
            b[i, j] = b[j, i] = 1j
            out.append(b)
    for k in range(N - 1):
        c = np.zeros((N, N), dtype=complex)
        c[k, k], c[k + 1, k + 1] = 1j, -1j
        out.append(c)
    return out


ALGEBRA_FIXTURES = ("su2", "abelian1", "ga_su4", "gb_su4", "gc_su4")


def fixture_mats(name: str) -> list[np.ndarray]:
    """The basis matrices of a bundled algebra fixture, by name without '.json'."""
    from realcalc.cli import parse_algebra_spec
    from realcalc.fixtures import fixture_path

    spec = parse_algebra_spec(json.loads(fixture_path(f"{name}.json").read_text()))
    return list(spec.mats)


# ---------------------------------------------------------------------------
# Randomized closed subalgebras of su(N)


def random_unitary(rng: np.random.Generator, N: int) -> np.ndarray:
    z = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def conjugate(mats: list[np.ndarray], U: np.ndarray) -> list[np.ndarray]:
    return [U.conj().T @ D @ U for D in mats]


def mix_basis(rng: np.random.Generator, mats: list[np.ndarray]) -> list[np.ndarray]:
    """Replace the basis by a well-conditioned random real combination."""
    n = len(mats)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    scale = np.diag(rng.uniform(0.5, 2.0, size=n))
    T = q @ scale
    stack = np.array(mats)
    return list(np.einsum("ai,irs->ars", T, stack))


def _embed(mats: list[np.ndarray], N: int, offset: int) -> list[np.ndarray]:
    out = []
    k = mats[0].shape[0]
    for m in mats:
        big = np.zeros((N, N), dtype=complex)
        big[offset : offset + k, offset : offset + k] = m
        out.append(big)
    return out


def _cartan_subspace(rng: np.random.Generator, N: int, m: int) -> list[np.ndarray]:
    basis = su_basis(N)[-(N - 1) :]
    q, _ = np.linalg.qr(rng.standard_normal((N - 1, N - 1)))
    coeffs = q[:m]
    stack = np.array(basis)
    return list(np.einsum("ai,irs->ars", coeffs, stack))


def _balancing_center(N: int, offset: int, k: int) -> np.ndarray:
    """Trace-free diagonal commuting with the su(k) block at offset."""
    diag = np.full(N, -k, dtype=complex)
    diag[offset : offset + k] = N - k
    return 1j * np.diag(diag)


def generic_presentation(rng: np.random.Generator, mats: list[np.ndarray]) -> list[np.ndarray]:
    """Conjugate by a random unitary, then mix the basis over the reals."""
    return mix_basis(rng, conjugate(mats, random_unitary(rng, mats[0].shape[0])))


def block_with_center(N: int, k: int) -> list[np.ndarray]:
    """su(k) in the top corner of su(N), plus its balancing center (n = k^2)."""
    return _embed(su_basis(k), N, 0) + [_balancing_center(N, 0, k)]


def random_subalgebra(
    rng: np.random.Generator, sizes=(2, 3, 4, 5)
) -> tuple[str, list[np.ndarray]]:
    """One random closed subalgebra of su(N), N drawn from sizes.

    Kinds: the full algebra, Cartan (abelian) subspaces, corner block
    embeddings with or without a balancing center, doubled su(2)
    embeddings with or without center, and two-block direct sums. The
    result is conjugated by a random unitary and re-expressed in a
    random well-conditioned basis, so every structural computation runs
    on a generic presentation.
    """
    N = int(rng.choice(sizes))
    kinds = ["full", "cartan", "block"]
    if N >= 3:
        kinds += ["block_center"]
    if N >= 4:
        kinds += ["double", "double_center", "two_blocks"]
    kind = str(rng.choice(kinds))
    su2 = su2_mats()
    if kind == "full":
        mats = su_basis(N)
    elif kind == "cartan":
        m = int(rng.integers(1, N))
        mats = _cartan_subspace(rng, N, m)
    elif kind == "block":
        k = int(rng.integers(2, N + 1))
        offset = int(rng.integers(0, N - k + 1))
        mats = _embed(su_basis(k), N, offset)
    elif kind == "block_center":
        k = int(rng.integers(2, N))
        offset = int(rng.integers(0, N - k + 1))
        mats = _embed(su_basis(k), N, offset) + [_balancing_center(N, offset, k)]
    elif kind == "double":
        mats = [_embed([m], N, 0)[0] + _embed([m], N, 2)[0] for m in su2]
    elif kind == "double_center":
        doubled = [_embed([m], N, 0)[0] + _embed([m], N, 2)[0] for m in su2]
        diag = np.full(N, -4, dtype=complex)
        diag[:4] = N - 4
        if N == 4:
            diag = np.array([1, 1, -1, -1], dtype=complex)
        mats = doubled + [1j * np.diag(diag)]
    else:  # two_blocks
        k = 2 if N == 4 else int(rng.integers(2, N - 1))
        mats = _embed(su_basis(k), N, 0) + _embed(su_basis(N - k), N, k)
    U = random_unitary(rng, N)
    return f"{kind}-su{N}", mix_basis(rng, conjugate(mats, U))


FAMILY_SEED = 20250808


@lru_cache(maxsize=1)
def family_200() -> tuple:
    """200 random subalgebras of su(2) to su(5), the acceptance family."""
    rng = np.random.default_rng(FAMILY_SEED)
    return tuple(random_subalgebra(rng, sizes=(2, 3, 4, 5)) for _ in range(200))


def user_constants(basis: liealg.LieBasis, tol: Tolerance = DEFAULT_TOL) -> liealg.StructureConstants:
    """The bracket tensor of ``basis`` in its own coefficients, read off its split."""
    return liealg.structure_constants(basis, liealg.levi_split_compact(basis, tol))


def random_trivial_data(rng: np.random.Generator, sizes=(2, 3)):
    """Trivial projection over a random subalgebra with a random block metric."""
    label, mats = random_subalgebra(rng, sizes=sizes)
    return label, trivial_data(rng, liealg.LieBasis(mats))


def trivial_data(rng: np.random.Generator, basis: liealg.LieBasis):
    """Trivial projection over the given derivations with a random block metric.

    The metric blocks are hermitian, symmetric in their indices and made
    invertible by a diagonal shift, so the grid of inverse blocks is the
    blockwise inverse of the stacked matrix.
    """
    from realcalc import projcalc

    n, N = basis.n, basis.N
    big = np.zeros((n * N, n * N), dtype=complex)
    for i in range(n):
        for j in range(i, n):
            g = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
            block = 0.5 * (g + g.conj().T)
            big[i * N : (i + 1) * N, j * N : (j + 1) * N] = block
            big[j * N : (j + 1) * N, i * N : (i + 1) * N] = block
    big += (np.linalg.norm(big, 2) + 1.0) * np.eye(n * N)
    inv = np.linalg.inv(big)
    h = big.reshape(n, N, n, N).transpose(0, 2, 1, 3)
    h_inv = inv.reshape(n, N, n, N).transpose(0, 2, 1, 3)
    p = np.einsum("ki,ab->kiab", np.eye(n), np.eye(N, dtype=complex))
    return projcalc.ProjectiveCalculusData(basis, p, h, h_inv)


def generator_data(rng: np.random.Generator, basis: liealg.LieBasis):
    """Projective data from n random generators X_i with right inverse Y^k.

    X_i = q_i V with q_i from one commuting hermitian pencil and V unitary,
    so every block X_i^dagger X_j is hermitian; Y^2..Y^n are free and Y^1
    makes sum_k X_k Y^k = 1. The projection is proper (rank N in C^{nN})
    and the criterion generically fails.
    """
    from realcalc import projcalc

    n, N = basis.n, basis.N
    g = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    H = 0.5 * (g + g.conj().T)
    V = random_unitary(rng, N)
    qs = [(np.linalg.norm(H, 2) + 1.0) * np.eye(N) + H]
    qs += [rng.standard_normal() * np.eye(N) + rng.standard_normal() * H for _ in range(n - 1)]
    ws = [rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)) for _ in range(n - 1)]
    rest = np.eye(N) - sum(q @ w for q, w in zip(qs[1:], ws))
    xs = [q @ V for q in qs]
    ys = [V.conj().T @ np.linalg.inv(qs[0]) @ rest] + [V.conj().T @ w for w in ws]
    return projcalc.from_module_generators(xs, ys, basis)


def rank_one_calculus(
    derivs: liealg.LieBasis,
    v0,
    mu,
    metric_scale: float = 1.0,
    tol: Tolerance = DEFAULT_TOL,
):
    """Encode the row-module calculus of an anchor map as projective data.

    The generators e_i = mu_i v0 of the simple row module give the
    rank-one projection p^k_i = (mu_k mu_i / |mu|^2) P with
    P = v0^dagger v0, metric blocks h_ij = x mu_i mu_j P and inverse
    blocks h^{kl} = mu_k mu_l P / (x |mu|^4). The criterion on this data
    matches the direct existence analysis for the same anchor map.
    """
    from realcalc import projcalc

    v0 = as_row_vector(v0)
    mu = np.asarray(mu, dtype=float)
    if abs(np.linalg.norm(v0) - 1.0) > tol.cut(1.0):
        raise ValueError("v0 must have unit norm")
    x = float(metric_scale)
    if x == 0.0:
        raise ValueError("metric_scale must be nonzero")
    weight = float(mu @ mu)
    if weight <= tol.cut(1.0):
        raise ValueError("mu must not vanish")
    P = np.outer(v0.conj(), v0)
    outer_mu = np.outer(mu, mu)
    p = np.einsum("ki,ab->kiab", outer_mu / weight, P)
    h = np.einsum("ij,ab->ijab", x * outer_mu, P)
    h_inv = np.einsum("kl,ab->klab", outer_mu / (x * weight * weight), P)
    return projcalc.ProjectiveCalculusData(derivs, p, h, h_inv, tol)


# ---------------------------------------------------------------------------
# Independent oracles


def killing_by_ad(f: np.ndarray) -> np.ndarray:
    """Killing matrix from explicit adjoint matrices, tr(ad_i ad_j)."""
    n = f.shape[0]
    ads = [f[:, i, :] for i in range(n)]
    B = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            B[i, j] = np.trace(ads[i] @ ads[j]).real
    return B


def mu_system_matrix(f: liealg.StructureConstants) -> np.ndarray:
    """The stacked n^2 x n real system (i, j) -> sum_k mu_k f^k_ij.

    Row (i, j) (lexicographic, i outermost) holds the coefficients of
    the equation sum_k mu_k f^k_ij = 0.
    """
    n = f.n
    return f.f.transpose(1, 2, 0).reshape(n * n, n)


def is_semisimple(B: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Cartan's criterion: the Killing matrix ``B`` is nondegenerate."""
    s = np.linalg.svd(B, compute_uv=False)
    return bool(s[-1] > tol.cut(s[0]))


def real_row_space(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (rows) of the row space of a real matrix."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d real matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        return np.zeros((0, m.shape[1]))
    _, s, vh = np.linalg.svd(m, full_matrices=False)
    cutoff = tol.cut(s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    return vh[:rank]


def derived_subalgebra(f: liealg.StructureConstants, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal coefficient basis of the span of all brackets."""
    n = f.n
    iu, ju = np.triu_indices(n, k=1)
    vectors = f.f[:, iu, ju].T if iu.size else np.zeros((0, n))
    return real_row_space(vectors, tol)


def is_solvable_by_series(f: liealg.StructureConstants, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether the derived series of ``f`` reaches zero.

    Starts from [g, g] (:func:`derived_subalgebra`); each further step
    spans the brackets of the current subspace, one rank decision each,
    and the iteration stops when the dimension stabilizes. Holds for any
    real Lie algebra, compact or not.
    """
    span, dim = derived_subalgebra(f, tol), f.n
    while 0 < span.shape[0] < dim:
        dim = span.shape[0]
        iu, ju = np.triu_indices(dim, k=1)
        vectors = np.einsum("kij,pi,pj->pk", f.f, span[iu], span[ju])
        span = real_row_space(vectors, tol)
    return span.shape[0] == 0


def center(f: liealg.StructureConstants, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal coefficient basis of elements commuting with the algebra."""
    n = f.n
    system = f.f.transpose(0, 2, 1).reshape(n * n, n)
    return real_nullspace(system, tol)


def projector(rows: np.ndarray, n: int) -> np.ndarray:
    """Orthogonal projector of R^n onto the span of orthonormal rows."""
    return rows.T @ rows if rows.size else np.zeros((n, n))


def direct_svd_split(f: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(s, ss_basis, radical_basis)`` from the SVD of K itself, U factor included.

    ``f`` is a frame bracket tensor (``LeviSplit.f``) and K holds its
    columns a <= b as rows, n(n + 1)/2 x n; the rank cut is the split's.
    """
    iu, ju = np.triu_indices(f.shape[0])
    _, s, vh = np.linalg.svd(f[:, iu, ju].T, full_matrices=False)
    rank = int(np.sum(s > tol.cut(s[0])))
    return s, vh[:rank], vh[rank:]


def _all_pairs_brackets(E: np.ndarray) -> np.ndarray:
    """Every commutator [E_a, E_b], diagonal and b > a included, as an (n, n, N, N) tensor."""
    prod = np.tensordot(E, E, axes=([2], [1])).transpose(0, 2, 1, 3)
    return prod - prod.transpose(1, 0, 2, 3)


def all_pairs_frame_tensor(E: np.ndarray) -> np.ndarray:
    """f_E[k, a, b] = Re <E_k, [E_a, E_b]> projected from all n^2 brackets.

    The split's reference: one complex tensordot of the full bracket
    tensor, with no use of antisymmetry, so ``LeviSplit.f`` must equal
    it bit for bit.
    """
    return np.tensordot(_all_pairs_brackets(E), E.conj(), axes=([2, 3], [1, 2])).real.transpose(2, 0, 1)


def all_pairs_fit_norms(E: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(sizes, residuals)``: |[E_a, E_b]|_F and what f leaves of it, read off all n^2 brackets.

    ``f`` is :func:`all_pairs_frame_tensor`; the pairs a < b are copied
    out of the full tensor and the projection subtracted by the split's
    two real BLAS products, so both must equal bit for bit what the
    split's ``_fit_norms`` gives closure to read.
    """
    n = E.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    flat = E.reshape(n, -1)
    rest = _all_pairs_brackets(E)[iu, ju].reshape(len(iu), flat.shape[1])
    coeffs = f[:, iu, ju].T
    out = np.zeros((2, n, n))
    parts = rest.view(float)
    out[0, iu, ju] = np.einsum("pq,pq->p", parts, parts)
    rest.real -= coeffs @ np.ascontiguousarray(flat.real)
    rest.imag -= coeffs @ np.ascontiguousarray(flat.imag)
    out[1, iu, ju] = np.einsum("pq,pq->p", parts, parts)
    out = np.sqrt(out + out.transpose(0, 2, 1))
    return out[0], out[1]


def all_pairs_closure_violation(basis: liealg.LieBasis, f: np.ndarray) -> tuple[tuple[int, int], float]:
    """``(pair, residual)`` of the worst user pair i < j, from all n^2 frame brackets.

    R_ij / (|D_i| |D_j|) = sum_ab W[i, a] W[j, b] R^E_ab with
    W = T_inv / |D_i| and R^E the full bracket tensor minus its
    projection by ``f`` (:func:`all_pairs_frame_tensor`); the first
    largest pair wins, as in :class:`ClosureViolation`.
    """
    n = basis.n
    W = basis.T_inv / basis.norms[:, None]
    R_E = _all_pairs_brackets(basis.E) - np.tensordot(f, basis.E, axes=([0], [0]))
    R = np.tensordot(W, R_E, axes=([1], [0]))
    R = np.linalg.norm(np.tensordot(W, R, axes=([1], [1])).reshape(n, n, -1), axis=2)
    i, j = np.unravel_index(int(np.argmax(np.triu(R.T, k=1))), R.shape)
    return (int(i), int(j)), float(R[j, i])


def _left_eigenspaces(D: np.ndarray, tol: Tolerance) -> list[tuple[complex, np.ndarray]]:
    """Left eigenspaces of an antihermitian matrix via the hermitian solver."""
    herm = 1j * D
    herm = 0.5 * (herm + herm.conj().T)
    vals, vecs = np.linalg.eigh(herm)
    width = 1e-6 * (float(vals[-1] - vals[0]) + 1.0)
    out = []
    start = 0
    for stop in range(1, len(vals) + 1):
        if stop == len(vals) or vals[stop] - vals[stop - 1] > width:
            out.append((-1j * float(np.mean(vals[start:stop])), vecs[:, start:stop].conj().T))
            start = stop
    return out


def intersect_rowspans(A: np.ndarray, B: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal row basis of rowspan(A) & rowspan(B).

    A row x = c A lies in rowspan(B) exactly when x annihilates the
    projector complement I - B^dagger B, so the coefficient rows c form
    the left nullspace of A (I - B^dagger B). With orthonormal inputs
    the combined rows are orthonormal as well.
    """
    if A.shape[0] == 0 or B.shape[0] == 0:
        return np.zeros((0, A.shape[1]), dtype=complex)
    N = A.shape[1]
    K = A @ (np.eye(N) - B.conj().T @ B)
    u, s, _ = np.linalg.svd(K, full_matrices=True)
    cutoff = tol.cut(s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    coeff = u[:, rank:].conj().T
    return coeff @ A


def eigenspace_chains(mats: list[np.ndarray], tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
    """All maximal common eigenspaces, by direct eigenspace intersection.

    Enumerates, matrix by matrix, every chain of eigenspace choices with
    a nonzero intersection. The result is empty exactly when the family
    has no common (left) eigenvector.
    """
    N = mats[0].shape[0]
    spaces = [np.eye(N, dtype=complex)]
    for D in mats:
        eig = _left_eigenspaces(D, tol)
        refined = []
        for S in spaces:
            for _, rows in eig:
                inter = intersect_rowspans(S, rows, tol)
                if inter.shape[0] > 0:
                    refined.append(inter)
        spaces = refined
        if not spaces:
            return []
    return spaces


def first_joint_eigenspace(mats: list[np.ndarray], tol: Tolerance = DEFAULT_TOL) -> np.ndarray | None:
    """The first joint eigenspace of the unit D_i on the common left nullspace of all brackets.

    Refines every joint eigenspace, matrix by matrix in basis order, each
    split into the eigenspaces of the restriction in ascending order of
    i * eigenvalue, and returns the first of them. The restrictions'
    spectra do not depend on the basis of a subspace, so neither does the
    result. The nullspace is read off all user-basis brackets, not a
    derived basis. None when it is zero.
    """
    units = [D / np.linalg.norm(D) for D in mats]
    brackets = np.hstack([x @ y - y @ x for x in units for y in units])
    u, s, _ = np.linalg.svd(brackets, full_matrices=True)
    spaces = [u[:, int(np.sum(s > tol.cut(s[0]))) :].conj().T]
    if spaces[0].shape[0] == 0:
        return None
    for D in units:
        spaces = [rows @ S for S in spaces for _, rows in _left_eigenspaces(S @ D @ S.conj().T, tol)]
    return spaces[0]


def oracle_existence(mats: list[np.ndarray], x: float = 1.0, tol: Tolerance = DEFAULT_TOL) -> str:
    """Desk-scale existence decision by exhaustive witness testing.

    Candidates: every common eigenspace from direct intersection
    enumeration crossed with a basis of the mu solution space (solved
    from the stacked bracket system with one SVD). Each candidate is
    tested against torsion, the connection-calculus condition, metric
    compatibility and the Koszul identity; existence holds when some
    candidate passes everything.
    """
    basis = liealg.LieBasis(mats, tol)
    f = user_constants(basis, tol)
    pre = cncalc.MetricPreCalculus(basis, x)
    chains = eigenspace_chains(mats, tol)
    if not chains:
        return cncalc.NONEXISTENT
    n = basis.n
    system = f.f.transpose(1, 2, 0).reshape(n * n, n)
    _, s, vh = np.linalg.svd(system, full_matrices=True)
    cutoff = tol.cut(s[0] if s.size else 0.0)
    mu_basis = vh[int(np.sum(s > cutoff)) :]
    if mu_basis.shape[0] == 0:
        return cncalc.NONEXISTENT
    scale = max(1.0, max(float(np.max(np.abs(D))) for D in mats))
    thr = 100.0 * tol.cut(scale * max(1.0, abs(x)))
    for space in chains:
        v0 = space[0] / np.linalg.norm(space[0])
        lambdas = np.array([(v0.conj() @ (v0 @ D)).imag for D in mats])
        conn = cncalc.Connection(lambdas)
        for mu in mu_basis:
            anchor = cncalc.AnchorMap(v0, mu, tol)
            torsion_norm = float(
                np.max(np.linalg.norm(cncalc.torsion(pre, conn, f, anchor), axis=2))
            )
            if torsion_norm > thr:
                continue
            # the connection-calculus condition: nabla_j v0 = i lam_j v0 - v0 D_j = 0
            rcc = max_norm(1j * lambdas[:, None] * v0 - v0 @ basis.mats)
            if rcc > tol.cut(max(1.0, max_norm(basis.mats))):
                continue
            if cncalc.metric_compat_residual(pre, conn) > thr:
                continue
            if cncalc.koszul_residual(pre, conn, f, anchor) > thr:
                continue
            return cncalc.EXISTS
    return cncalc.NONEXISTENT
