"""Lie-algebraic analysis of real matrix Lie algebras inside su(N).

Structure constants, Killing form, semisimplicity and solvability,
the compact splitting into center plus derived subalgebra, common
left-eigenvector search, and the coefficient linear systems that
obstruct or admit metric anchor maps.

Coefficient vectors always refer to the ordered basis held by a
:class:`LieBasis`; subspaces of the coefficient space are stacks of
orthonormal rows in ``R^n``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matlin import (
    DEFAULT_TOL,
    Tolerance,
    _freeze,
    antihermitian_eigen,
    as_matrix,
    is_antihermitian_tracefree,
    left_nullspace,
    max_norm,
    real_nullspace,
    real_row_space,
)

__all__ = [
    "ClosureViolation",
    "SplitInconsistent",
    "LieBasis",
    "StructureConstants",
    "KillingForm",
    "LeviSplit",
    "structure_constants",
    "killing_form",
    "is_semisimple",
    "mu_system_matrix",
    "mu_obstruction_space",
    "derived_subalgebra",
    "center",
    "levi_split_compact",
    "is_solvable",
    "common_left_eigenvector",
    "anchor_solution_space",
]


class ClosureViolation(ValueError):
    """A bracket left the real span of the basis."""

    def __init__(self, i: int, j: int, residual: float):
        self.pair = (i, j)
        self.residual = residual
        super().__init__(
            f"bracket of basis elements ({i}, {j}) leaves the span "
            f"(least-squares residual {residual:.3e})"
        )


class SplitInconsistent(RuntimeError):
    """Center and derived subalgebra fail to decompose the algebra.

    For a basis of antihermitian matrices this signals a tolerance
    failure or invalid input, never genuine mathematics.
    """


@dataclass(frozen=True, eq=False)
class LieBasis:
    """Ordered basis D_1, ..., D_n of a real Lie algebra in su(N).

    Construction checks that every matrix is trace-free antihermitian
    and that the family is linearly independent over the reals. Closure
    under brackets is *not* checked here; :func:`structure_constants`
    raises :class:`ClosureViolation` when the span is not closed.
    """

    mats: np.ndarray

    def __init__(self, mats, tol: Tolerance = DEFAULT_TOL):
        stacked = np.array([as_matrix(m) for m in mats], dtype=complex)
        if stacked.ndim != 3 or stacked.shape[0] == 0:
            raise ValueError("a Lie basis needs at least one square matrix")
        if stacked.shape[1] != stacked.shape[2]:
            raise ValueError("basis matrices must be square")
        for idx, m in enumerate(stacked):
            if not is_antihermitian_tracefree(m, tol):
                raise ValueError(f"basis matrix {idx} is not trace-free antihermitian")
        n = stacked.shape[0]
        realified = np.hstack(
            [stacked.reshape(n, -1).real, stacked.reshape(n, -1).imag]
        )
        s = np.linalg.svd(realified, compute_uv=False)
        if int(np.sum(s > tol.cut(s[0]))) != n:
            raise ValueError("basis matrices are linearly dependent over R")
        object.__setattr__(self, "mats", _freeze(stacked))

    @property
    def n(self) -> int:
        return self.mats.shape[0]

    @property
    def N(self) -> int:
        return self.mats.shape[1]


@dataclass(frozen=True, eq=False)
class StructureConstants:
    """Bracket tensor f[k, i, j] with [D_i, D_j] = sum_k f[k, i, j] D_k.

    Construction checks antisymmetry and the Jacobi identity for every
    tensor, fitted or user-supplied. The Jacobi tensor is built one
    leading index m at a time, each slab one BLAS contraction plus two
    cyclic transposes. Cost: O(n^5) time, O(n^3) memory.
    """

    f: np.ndarray

    def __init__(self, f, tol: Tolerance = DEFAULT_TOL):
        arr = np.array(f, dtype=float)
        if arr.ndim != 3 or len(set(arr.shape)) != 1:
            raise ValueError(f"structure constants must be n x n x n, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("structure constants must be finite")
        scale = max(1.0, max_norm(arr))
        if max_norm(arr + arr.transpose(0, 2, 1)) > tol.cut(scale):
            raise ValueError("structure constants are not antisymmetric in the lower indices")
        jacobi_cut = tol.cut(scale * scale)
        for fm in arr:
            # t[i, j, k] = sum_l f[m, i, l] f[l, j, k]; the two cyclic
            # shifts of t are the other two Jacobi terms of slab m.
            t = np.tensordot(fm, arr, axes=([1], [0]))
            if max_norm(t + t.transpose(1, 2, 0) + t.transpose(2, 0, 1)) > jacobi_cut:
                raise ValueError("structure constants violate the Jacobi identity")
        object.__setattr__(self, "f", _freeze(arr))

    @property
    def n(self) -> int:
        return self.f.shape[0]


@dataclass(frozen=True, eq=False)
class KillingForm:
    """Symmetric matrix B[i, j] = tr(ad_i ad_j) in the chosen basis."""

    B: np.ndarray

    def __init__(self, B):
        arr = np.array(B, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"Killing matrix must be square, got {arr.shape}")
        if max_norm(arr - arr.T) > DEFAULT_TOL.cut(max(1.0, max_norm(arr))):
            raise ValueError("Killing matrix must be symmetric")
        object.__setattr__(self, "B", _freeze(0.5 * (arr + arr.T)))

    @property
    def n(self) -> int:
        return self.B.shape[0]


@dataclass(frozen=True, eq=False)
class LeviSplit:
    """Coefficient bases of the center and of the derived subalgebra.

    For a compact algebra these are the radical and a semisimple
    complement, and together they span the whole coefficient space.
    """

    radical_basis: np.ndarray = field()
    ss_basis: np.ndarray = field()

    def __post_init__(self):
        object.__setattr__(self, "radical_basis", _freeze(np.array(self.radical_basis, dtype=float)))
        object.__setattr__(self, "ss_basis", _freeze(np.array(self.ss_basis, dtype=float)))

    @property
    def n(self) -> int:
        return self.radical_basis.shape[1] if self.radical_basis.size else self.ss_basis.shape[1]

    @property
    def radical_dim(self) -> int:
        return self.radical_basis.shape[0]

    @property
    def ss_dim(self) -> int:
        return self.ss_basis.shape[0]


def _all_brackets(mats: np.ndarray) -> np.ndarray:
    """All pairwise commutators as an (n, n, N, N) tensor."""
    prod = np.einsum("iab,jbc->ijac", mats, mats)
    return prod - prod.transpose(1, 0, 2, 3)


def structure_constants(basis: LieBasis, tol: Tolerance = DEFAULT_TOL) -> StructureConstants:
    """Fit the bracket tensor of a basis by least squares.

    Each commutator [D_i, D_j] is decomposed over the basis in the
    realified vectorization; a pair whose residual exceeds tolerance
    raises :class:`ClosureViolation` (the first such pair in row-major
    order). Antisymmetry is exact on output (enforced by averaging the
    fitted tensor with its negated swap). Cost: O(n^2 N^3 + n^3 N^2)
    time, O(n^2 N^2) memory, plus the Jacobi check of
    :class:`StructureConstants`.
    """
    mats = basis.mats
    n = basis.n
    columns = np.hstack([mats.reshape(n, -1).real, mats.reshape(n, -1).imag]).T
    brackets = _all_brackets(mats)
    targets = np.hstack(
        [brackets.reshape(n * n, -1).real, brackets.reshape(n * n, -1).imag]
    ).T
    coeffs, _, _, _ = np.linalg.lstsq(columns, targets, rcond=None)
    residuals = np.linalg.norm(columns @ coeffs - targets, axis=0).reshape(n, n)
    scales = np.maximum(1.0, np.linalg.norm(brackets.reshape(n, n, -1), axis=2))
    open_pairs = np.argwhere(residuals > tol.abs + tol.rel * scales)
    if open_pairs.size:
        i, j = (int(x) for x in open_pairs[0])
        raise ClosureViolation(i, j, float(residuals[i, j]))
    f = coeffs.reshape(n, n, n)
    f = 0.5 * (f - f.transpose(0, 2, 1))
    return StructureConstants(f, tol)


def killing_form(f: StructureConstants) -> KillingForm:
    """Killing matrix B_ij = sum_{k,l} f^l_ik f^k_jl."""
    B = np.einsum("lik,kjl->ij", f.f, f.f)
    return KillingForm(0.5 * (B + B.T))


def is_semisimple(B: KillingForm, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Cartan's criterion: the Killing form is nondegenerate."""
    s = np.linalg.svd(B.B, compute_uv=False)
    return bool(s[-1] > tol.cut(s[0]))


def mu_system_matrix(f: StructureConstants) -> np.ndarray:
    """The stacked n^2 x n real system (i, j) -> sum_k mu_k f^k_ij.

    Row (i, j) (lexicographic, i outermost) holds the coefficients of
    the equation sum_k mu_k f^k_ij = 0.
    """
    n = f.n
    return f.f.transpose(1, 2, 0).reshape(n * n, n)


def mu_obstruction_space(f: StructureConstants, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Solutions mu of sum_k mu_k f^k_ij = 0 for all i, j (rows of the result).

    Empty exactly when the algebra is semisimple (compact case): the
    system says mu is orthogonal to every bracket coefficient vector.
    """
    return real_nullspace(mu_system_matrix(f), tol)


def derived_subalgebra(f: StructureConstants, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal coefficient basis of the span of all brackets."""
    n = f.n
    iu, ju = np.triu_indices(n, k=1)
    vectors = f.f[:, iu, ju].T if iu.size else np.zeros((0, n))
    return real_row_space(vectors, tol)


def center(f: StructureConstants, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal coefficient basis of elements commuting with the algebra."""
    n = f.n
    system = f.f.transpose(0, 2, 1).reshape(n * n, n)
    return real_nullspace(system, tol)


def levi_split_compact(f: StructureConstants, der: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> LeviSplit:
    """Split a compact algebra as center (+) ``der``, its derived subalgebra.

    The direct-sum decomposition with abelian radical is a theorem for
    subalgebras of su(N); dimensions failing to add up to n therefore
    signal a tolerance failure or invalid input.
    """
    n = f.n
    rad = center(f, tol)
    if rad.shape[0] + der.shape[0] != n:
        raise SplitInconsistent(
            f"center ({rad.shape[0]}) + derived ({der.shape[0]}) != n ({n})"
        )
    joint = np.vstack([rad, der])
    s = np.linalg.svd(joint, compute_uv=False)
    if int(np.sum(s > tol.cut(s[0]))) != n:
        raise SplitInconsistent("center and derived subalgebra are not transversal")
    return LeviSplit(rad, der)


def is_solvable(f: StructureConstants, der: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether the derived series reaches zero.

    ``der`` is the first step of the series, the orthonormal basis of
    [g, g] from :func:`derived_subalgebra`. The series is computed on
    coefficient vectors: each further step spans the brackets of the
    current subspace and the iteration stops when the dimension
    stabilizes.
    """
    span, dim = der, f.n
    while 0 < span.shape[0] < dim:
        dim = span.shape[0]
        iu, ju = np.triu_indices(dim, k=1)
        vectors = np.einsum("kij,pi,pj->pk", f.f, span[iu], span[ju])
        span = real_row_space(vectors, tol)
    return span.shape[0] == 0


def common_left_eigenvector(
    basis: LieBasis, der: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray] | None:
    """Find a unit vector v with v D_i = lam_i v for every basis matrix.

    Returns ``(v, lambdas)`` with purely imaginary ``lambdas``, or
    ``None`` when no common eigenvector exists.

    Any common eigenvector satisfies v [D_i, D_j] = 0, so the search
    restricts to W, the common left nullspace of a spanning set of the
    derived algebra. W is invariant under every D_i (because [g, [g, g]]
    lies in [g, g]) and the restricted actions commute on W (w D_i D_j -
    w D_j D_i = w [D_i, D_j] = 0), hence W is nonzero exactly when a
    common eigenvector exists, and iterated eigenspace intersection of
    the restrictions finds one.

    The spanning set is ``der``, the orthonormal coefficient basis of
    :func:`derived_subalgebra`, at most n matrices. Cost: O(n^2 N^2
    + n N^3) time, O(n N^2) memory.
    """
    mats = basis.mats
    span_mats = np.tensordot(der, mats, axes=1)
    W = left_nullspace(list(span_mats), tol, dim=basis.N)
    if W.shape[0] == 0:
        return None
    scale = max(1.0, max(max_norm(m) for m in mats))
    # Invariance of W is exact mathematics; a violation here means the
    # nullspace cutoff misjudged the rank.
    for D in mats:
        image = W @ D
        drift = max_norm(image - (image @ W.conj().T) @ W)
        if drift > 1e3 * tol.cut(scale):
            raise ArithmeticError(
                "derived-algebra nullspace is not invariant within tolerance"
            )
    subspaces = [W]
    for D in mats:
        refined = []
        for S in subspaces:
            restricted = S @ D @ S.conj().T
            for _, rows in antihermitian_eigen(restricted, tol):
                refined.append(rows @ S)
        subspaces = refined
    final = subspaces[0]
    # Deterministic representative: project the standard basis direction
    # with the largest footprint in the subspace (first index on ties),
    # then make the first nonzero entry real positive. The phase rotation
    # leaves a round-off imaginary part on that entry, so it is set
    # outright.
    proj_norms = np.linalg.norm(final, axis=0)
    best = float(np.max(proj_norms))
    k = int(np.argmax(proj_norms >= best * (1.0 - 1e-8)))
    v = final[:, k].conj() @ final
    v = v / np.linalg.norm(v)
    lead = int(np.argmax(np.abs(v) > 1e-8 * np.max(np.abs(v))))
    magnitude = abs(v[lead])
    v = v * (v[lead].conjugate() / magnitude)
    v[lead] = magnitude
    lambdas = np.array([1j * (v.conj() @ (v @ D)).imag for D in mats])
    residual = max(
        max_norm(v @ D - lam * v) for D, lam in zip(mats, lambdas)
    )
    if residual > 1e3 * tol.cut(scale):
        raise ArithmeticError("eigenspace intersection lost the eigenvector")
    return v, lambdas


def _adapted_constants(split: LeviSplit, f: StructureConstants) -> np.ndarray:
    """Bracket tensor in the split-adapted basis (radical directions first).

    Computes sum_{k,i,j} Sinv[c, k] f[k, i, j] S[i, a] S[j, b] as three
    successive contractions. Cost: O(n^4) time, O(n^3) memory.
    """
    S = np.vstack([split.radical_basis, split.ss_basis]).T
    Sinv = np.linalg.inv(S)
    fa = np.tensordot(Sinv, f.f, axes=1)  # (c, i, j)
    fa = np.tensordot(fa, S, axes=([1], [0]))  # (c, j, a)
    return np.tensordot(fa, S, axes=([1], [0]))  # (c, a, b)


def anchor_solution_space(
    split: LeviSplit, f: StructureConstants, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """Solutions mu over the radical directions of the anchor system.

    Stacks the equations sum_k mu_k r^k_ij = 0 (radical-radical
    brackets) and sum_k mu_k s^k_pq = 0 (radical-semisimple brackets),
    where r and s are the radical components of the bracket tensor in
    the split-adapted basis, and returns an orthonormal basis (rows) of
    the nullspace over R^(radical_dim). For compact algebras the system
    vanishes identically and the full space comes back.
    """
    nr = split.radical_dim
    if nr == 0:
        return np.zeros((0, 0))
    fa = _adapted_constants(split, f)
    n = f.n
    rows = []
    for i in range(nr):
        for j in range(nr):
            rows.append(fa[:nr, i, j])
    for p in range(nr):
        for q in range(nr, n):
            rows.append(fa[:nr, p, q])
    system = np.array(rows) if rows else np.zeros((0, nr))
    # The extracted rows are exact zeros for compact input, so their own
    # singular values can be pure least-squares noise; measure zero
    # against the scale of the whole adapted tensor instead.
    ambient = Tolerance(rel=tol.rel, abs=max(tol.abs, tol.rel * max_norm(fa)))
    return real_nullspace(system, ambient)
