"""Lie-algebraic analysis of real matrix Lie algebras inside su(N).

Structure constants, the compact splitting into center plus derived
subalgebra with the Killing form read off it, common left-eigenvector
search, and the coefficient linear systems that obstruct or admit
metric anchor maps.

Coefficient vectors refer to the ordered basis held by a
:class:`LieBasis` unless they are said to be frame coefficients: those
refer to its orthonormal frame E (see :class:`LieBasis`). Subspaces of
a coefficient space are stacks of orthonormal rows in ``R^n``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .matlin import (
    DEFAULT_TOL,
    Tolerance,
    _freeze,
    _scaled_norm,
    antihermitian_eigen,
    left_nullspace,
    max_norm,
    real_nullspace,
)

__all__ = [
    "ClosureViolation",
    "LieBasis",
    "StructureConstants",
    "LeviSplit",
    "CommonEigenvector",
    "structure_constants",
    "killing_form",
    "mu_obstruction_space",
    "levi_split_compact",
    "common_left_eigenvector",
    "anchor_solution_space",
]


# LieBasis rejects an element whose squared norm is not a double
_LARGEST_NORM = float(np.sqrt(np.finfo(float).max))


class ClosureViolation(ValueError):
    """[D_i, D_j] left the real span by R_ij; ``residual`` is |R_ij|_F / (|D_i|_F |D_j|_F)."""

    def __init__(self, i: int, j: int, residual: float):
        self.pair = (i, j)
        self.residual = residual
        super().__init__(
            f"bracket of basis elements ({i}, {j}) leaves the span "
            f"(least-squares residual {residual:.3e})"
        )


@dataclass(frozen=True, eq=False)
class LieBasis:
    """Ordered basis D_1, ..., D_n of a real Lie algebra in su(N).

    Construction checks that every matrix is trace-free antihermitian
    with a Frobenius norm that fits a double, and that the family is
    linearly independent over the reals. Closure under brackets is *not*
    checked here; :func:`levi_split_compact` raises
    :class:`ClosureViolation` when the span is not closed.

    It also holds a frame E = T D of its span, orthonormal for
    <A, B> = Re tr(A^dagger B): with U S V^T the thin SVD of the
    realified D_i / |D_i|, E is V^T, T = S^-1 U^T diag(1 / |D_i|) and
    ``T_inv`` = diag(|D_i|) U S. The independence test reads S, so no
    element norm sways it. ``norms`` holds each |D_i|_F, taken after
    scaling D_i by a power of two near its largest entry so that it
    neither overflows nor underflows; a norm above sqrt(max double),
    about 1.34e154, is rejected. Coefficients x have frame coefficients
    T^-T x; a linear form mu on g has mu(E) = T mu(D). Cost: O(n^2 N^2)
    time and O(n N^2) memory.
    """

    mats: np.ndarray
    E: np.ndarray
    T: np.ndarray
    T_inv: np.ndarray
    norms: np.ndarray

    def __init__(self, mats, tol: Tolerance = DEFAULT_TOL):
        stacked = np.array(mats, dtype=complex)
        if stacked.ndim != 3 or stacked.shape[0] == 0:
            raise ValueError("a Lie basis needs at least one square matrix")
        if stacked.shape[1] != stacked.shape[2]:
            raise ValueError("basis matrices must be square")
        if not np.all(np.isfinite(stacked)):
            raise ValueError("matrix entries must be finite")
        # each matrix against its own threshold
        thresholds = tol.abs + tol.rel * np.max(np.abs(stacked), axis=(1, 2), initial=0.0)
        defects = np.max(
            np.abs(stacked + stacked.conj().transpose(0, 2, 1)), axis=(1, 2), initial=0.0
        )
        traces = np.abs(np.trace(stacked, axis1=1, axis2=2))
        failing = np.flatnonzero((defects > thresholds) | (traces > thresholds))
        if failing.size:
            raise ValueError(f"basis matrix {failing[0]} is not trace-free antihermitian")
        n, N = stacked.shape[:2]
        flat = stacked.reshape(n, -1)
        with np.errstate(over="ignore"):
            norms = _scaled_norm(flat, axis=1)
        too_large = np.flatnonzero(norms > _LARGEST_NORM)
        if too_large.size:
            raise ValueError(f"basis matrix {too_large[0]} is too large for its norm to fit a double")
        if not np.all(norms > 0.0):
            raise ValueError("basis matrices are linearly dependent over R")
        realified = np.hstack([flat.real, flat.imag]) / norms[:, None]
        u, s, vh = np.linalg.svd(realified, full_matrices=False)
        if int(np.sum(s > tol.cut(s[0]))) != n:
            raise ValueError("basis matrices are linearly dependent over R")
        E = (vh[:, : N * N] + 1j * vh[:, N * N :]).reshape(n, N, N)
        object.__setattr__(self, "mats", _freeze(stacked))
        object.__setattr__(self, "E", _freeze(E))
        object.__setattr__(self, "T", _freeze((u / norms[:, None]).T / s[:, None]))
        object.__setattr__(self, "T_inv", _freeze(norms[:, None] * u * s))
        object.__setattr__(self, "norms", _freeze(norms))

    @property
    def n(self) -> int:
        return self.mats.shape[0]

    @property
    def N(self) -> int:
        return self.mats.shape[1]

    def frame(self) -> "LieBasis":
        """E as a basis of its own (T = T_inv = 1), with no second validation or SVD."""
        frame, eye = object.__new__(LieBasis), _freeze(np.eye(self.n))
        frame.__dict__.update(mats=self.E, E=self.E, T=eye, T_inv=eye, norms=_freeze(np.ones(self.n)))
        return frame

    def user_rows(self, frame_rows: np.ndarray) -> np.ndarray:
        """Orthonormal coefficient rows spanning what frame-coefficient rows span."""
        q, _ = np.linalg.qr((frame_rows @ self.T).T)
        return q.T


@dataclass(frozen=True, eq=False)
class StructureConstants:
    """Bracket tensor f[k, i, j] with [D_i, D_j] = sum_k f[k, i, j] D_k.

    Construction checks only the shape and that every entry is finite,
    and freezes the array it is given, with no copy. The package's two
    producers make f antisymmetric by construction: the split fills its
    frame tensor by antisymmetry, and ``_transport`` averages. Jacobi
    follows from closure (see :func:`levi_split_compact`), so it is not
    checked. No structure constants come from outside.
    """

    f: np.ndarray

    def __init__(self, f):
        arr = np.asarray(f, dtype=float)
        if arr.ndim != 3 or len(set(arr.shape)) != 1:
            raise ValueError(f"structure constants must be n x n x n, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("structure constants must be finite")
        object.__setattr__(self, "f", _freeze(arr))

    @property
    def n(self) -> int:
        return self.f.shape[0]


@dataclass(frozen=True, eq=False)
class LeviSplit:
    """A bracket tensor with coefficient bases of its radical and a complement.

    ``f[k, a, b]`` is the bracket tensor in some coefficients, and the
    rows of ``radical_basis`` and ``ss_basis`` are in the same
    coefficients. :func:`levi_split_compact` gives frame coefficients,
    where for a compact algebra the radical is the center, the
    complement is [g, g], and the rows of both together are an
    orthonormal basis of the coefficient space; it also keeps the
    singular values of its SVD, which :func:`killing_form` reads.
    """

    f: np.ndarray
    radical_basis: np.ndarray
    ss_basis: np.ndarray
    _singular_values: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        # no copy: the split hands over a fresh f_E in the memory order it rounds by
        for name in ("f", "radical_basis", "ss_basis"):
            object.__setattr__(self, name, _freeze(np.asarray(getattr(self, name), dtype=float)))

    @property
    def n(self) -> int:
        return self.f.shape[0]

    @property
    def radical_dim(self) -> int:
        return self.radical_basis.shape[0]

    @property
    def ss_dim(self) -> int:
        return self.ss_basis.shape[0]


@lru_cache(maxsize=32)
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, k=1)``, read-only, kept for the last 32 sizes: built afresh, they
    made the small calls of perfbench's ``row-obstructed`` workload 4% slower on 2 cores."""
    iu, ju = np.triu_indices(n, k=1)
    return _freeze(iu), _freeze(ju)


def _bracket_pairs(E: np.ndarray) -> np.ndarray:
    """The zero bracket (0, 0), then the commutators [E_a, E_b] for the n(n - 1)/2 pairs a < b.

    The result is (n(n - 1)/2 + 1, N, N), its pairs in :func:`_pair_indices`
    order. One BLAS product forms every E_a E_b, in the (a, r, b, s) order that
    tensordot writes. For each a, the products E_a E_b and E_b E_a with
    b > a are the basic slices ``prod[a, :, a+1:]`` and
    ``prod[a+1:, :, a]``, subtracted straight into the output: no bracket
    outside the pairs, such as the negation [E_b, E_a] of one inside, is
    formed, and no gather or temporary is held beside the products and
    the pairs. Cost: O(n^2 N^3) time, O(n^2 N^2) memory.
    """
    n, N = E.shape[:2]
    prod = np.tensordot(E, E, axes=([2], [1]))
    pairs = np.empty((n * (n - 1) // 2 + 1, N, N), dtype=complex)
    pairs[0] = 0.0
    for a in range(n - 1):
        row = pairs[1 + a * (2 * n - a - 1) // 2 :][: n - 1 - a]  # the pairs (a, b > a)
        np.subtract(prod[a, :, a + 1 :].transpose(1, 0, 2), prod[a + 1 :, :, a], out=row)
    return pairs


def _fit_norms(E: np.ndarray, pairs: np.ndarray, fp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(sizes, residuals)``: per pair, |[E_a, E_b]|_F and what its projection onto E leaves.

    ``pairs`` holds brackets (:func:`_bracket_pairs`) and ``fp`` their
    frame coefficients, one row per bracket; both results have one entry
    per row. The projection is subtracted as two real BLAS products, in
    place: ``pairs`` is left holding the residual matrices.
    Cost: O(n^3 N^2) time and O(n^2 N^2) memory: no copy of ``pairs``,
    one real (P, N^2) product at a time.
    """
    flat = E.reshape(E.shape[0], -1)
    rest = pairs.reshape(len(fp), flat.shape[1])
    parts = rest.view(float)
    sizes = np.sqrt(np.einsum("pq,pq->p", parts, parts))
    rest.real -= fp @ np.ascontiguousarray(flat.real)
    rest.imag -= fp @ np.ascontiguousarray(flat.imag)
    return sizes, np.sqrt(np.einsum("pq,pq->p", parts, parts))


@np.errstate(over="ignore", invalid="ignore")
def _transport(f: np.ndarray, P: np.ndarray, Q: np.ndarray) -> StructureConstants:
    """Bracket tensor ``f`` carried from a basis A to B = P A, A = Q B.

    out[k, i, j] = sum_{c,a,b} Q[c, k] P[i, a] P[j, b] f[c, a, b], summed
    over c first and averaged to exact antisymmetry. J(out) is J(f)
    carried by the same P and Q, so Jacobi holds in both bases or in
    neither; out's own residual against its largest entry would measure
    how P is conditioned, not the algebra. Its one caller is
    :func:`structure_constants`, which carries a split's frame tensor
    back to the user's basis; the witness checks read the frame tensor
    itself. An entry of out beyond the largest double raises ValueError.
    Cost: O(n^4) time, O(n^3) memory.
    """
    out = np.tensordot(np.tensordot(Q, f, axes=([0], [0])), P, axes=([1], [1]))  # (k, b, i)
    out = np.tensordot(out, P, axes=([1], [1]))
    out = 0.5 * (out - out.transpose(0, 2, 1))
    if not np.all(np.isfinite(out)):
        raise ValueError("structure constants overflow a double in this basis")
    return StructureConstants(out)


def structure_constants(basis: LieBasis, split: LeviSplit) -> StructureConstants:
    """Bracket tensor of a basis, carried back from the frame tensor of its split.

    ``split`` is ``levi_split_compact(basis)``, which formed the brackets
    and decided closure. As D = T_inv E and E = T D, f is
    ``_transport(split.f, T_inv, T)``: T meets f_E before T_inv, so tiny
    bases do not underflow. Cost: O(n^4) time, O(n^3) memory.
    """
    return _transport(split.f, basis.T_inv, basis.T)


def killing_form(basis: LieBasis, split: LeviSplit) -> np.ndarray:
    """Killing matrix B_ij = tr(ad D_i ad D_j) of ``basis``, read off its split.

    ``split`` is ``levi_split_compact(basis)``. Its tensor f_E is totally
    antisymmetric, so with M = f_E reshaped to (n, n^2) the frame
    Killing form is sum_{k,l} f^l_ak f^k_bl = -M M^T. The split's SVD
    K = U diag(s) V^T, K holding the columns (0, 0) and a < b of M as rows,
    already factors it (U is never formed): column (b, a) of M is minus
    column (a, b) and the columns (a, a) vanish, so
    M M^T = 2 K^T K = 2 V diag(s^2) V^T, where the columns of V are
    ``ss_basis`` then ``radical_basis``. D = T_inv E carries it to
    B = -G G^T with the n x n factor G = sqrt(2) T_inv V diag(s), and
    numpy forms G G^T as one symmetric rank-n update, so B is exactly
    symmetric. A B that overflows a double raises ValueError, and so does
    a split that keeps no singular values, such as one built by hand.
    Cost: O(n^3) time, O(n^2) memory.
    """
    if split._singular_values is None:
        raise ValueError("killing_form reads the singular values of a split from levi_split_compact; "
                         "this split has none")
    V = np.vstack([split.ss_basis, split.radical_basis]).T
    with np.errstate(over="ignore", invalid="ignore"):
        G = basis.T_inv @ (V * (np.sqrt(2.0) * split._singular_values))
        B = -(G @ G.T)
    if not np.all(np.isfinite(B)):
        raise ValueError("the Killing form overflows a double in this basis")
    return B


def mu_obstruction_space(f: StructureConstants, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Solutions mu of sum_k mu_k f^k_ij = 0 for all i, j (rows of the result).

    Empty exactly when the algebra is semisimple (compact case): the
    system says mu is orthogonal to every bracket coefficient vector.
    """
    return real_nullspace(f.f.transpose(1, 2, 0).reshape(f.n * f.n, f.n), tol)


def _closure_violation(basis: LieBasis, f: np.ndarray) -> ClosureViolation:
    """The user pair i < j whose bracket leaves the span the most, relative to |D_i| |D_j|.

    Runs only once closure has failed. A fresh :func:`_bracket_pairs` and
    its negation fill the antisymmetric (n, n, N, N) bracket tensor, whose
    residuals against the frame tensor ``f`` are carried to the user basis
    as R_ij / (|D_i| |D_j|) = sum_ab W[i, a] W[j, b] R^E_ab. The first
    largest pair wins. Cost: O(n^2 N^3 + n^3 N^2) time, O(n^2 N^2) memory.
    """
    n = basis.n
    iu, ju = _pair_indices(n)
    pairs = _bracket_pairs(basis.E)[1:]
    brackets = np.zeros((n, n) + pairs.shape[1:], dtype=complex)
    brackets[iu, ju] = pairs
    brackets[ju, iu] = -pairs
    W = basis.T_inv / basis.norms[:, None]
    R = np.tensordot(W, brackets - np.tensordot(f, basis.E, axes=([0], [0])), axes=([1], [0]))
    R = np.linalg.norm(np.tensordot(W, R, axes=([1], [1])).reshape(n, n, -1), axis=2)
    i, j = np.unravel_index(int(np.argmax(np.triu(R.T, k=1))), R.shape)
    return ClosureViolation(int(i), int(j), float(R[j, i]))


def levi_split_compact(basis: LieBasis, tol: Tolerance = DEFAULT_TOL) -> LeviSplit:
    """Split a compact algebra as center (+) [g, g] by one R-SVD, in frame coefficients.

    Builds f_E[k, a, b] = <E_k, [E_a, E_b]> on the frame E of ``basis``,
    the only brackets formed, and those only for a < b: their projections
    fill f_E by antisymmetry. The span is closed when no residual norm
    r^E_ab exceeds tol.abs + tol.rel * max(1, |[E_a, E_b]|), a cut free of
    the norms of the D_i; else :class:`ClosureViolation` names the user
    pair i < j with the largest |R_ij| / (|D_i| |D_j|), first on ties.
    The inner product is ad-invariant on su(N), so f_E is totally
    antisymmetric and the frame Killing form is -M M^T for M = f_E
    reshaped to (n, n^2), whose columns are all brackets. The SVD reads
    the columns (0, 0) and a < b: the same span, since column (b, a) is
    minus column (a, b) and the columns (a, a) vanish, with singular
    values over sqrt(2). It is an R-SVD (Golub and Van Loan, Matrix
    Computations, 5.4): one QR of the (n(n - 1)/2 + 1) x n coefficient
    matrix K of the brackets the split formed, then the SVD of its n x n
    R, with the singular values and right singular vectors of K (no U).
    Its rank r is the only rank decision about g: g is semisimple
    exactly when r = n, the first r left singular vectors are an
    orthonormal basis of [g, g], and the other n - r span the center,
    its orthogonal complement (<z, [x, y]> = <[z, x], y> vanishes for
    all x, y exactly when z is central). The singular values are kept
    for :func:`killing_form`.

    Jacobi follows from closure and is not checked. Matrix brackets obey
    it exactly, and f_E projects orthogonally, so the part
    R_ab = [E_a, E_b] - sum_k f^k_ab E_k left outside the span is
    orthogonal to every E_k. Ad-invariance then turns the Jacobi tensor
    J^m_abc = sum_l (f^m_al f^l_bc + f^m_bl f^l_ca + f^m_cl f^l_ab) into

        J^m_abc = -(<R_ma, R_bc> + <R_mb, R_ca> + <R_mc, R_ab>).

    Closure bounds every |R_ab| by its cut c = tol.abs + tol.rel *
    max(1, |[E_a, E_b]|) <= tol.abs + sqrt(2) tol.rel, as
    |[A, B]|_F <= sqrt(2) |A|_F |B|_F (Boettcher and Wenzel 2008), so
    |J| <= 3 c^2. With tol.abs = 0 that is at most the zero cut
    tol.cut(s^2), s = max(1, max |f|), of a bracket tensor whenever
    tol.rel <= 1/6; the default tol.abs moves that limit by about 1e-12.
    Cost: O(n^2 N^3 + n^3 N^2 + n^4) time, the n^3 N^2 term the BLAS
    projection onto E and its subtraction and the n^4 term the QR,
    O(n^2 N^2 + n^3) memory: the n^2 products E_a E_b and the n(n - 1)/2
    brackets a < b, and no tensor of all n^2 brackets (that is formed
    only to name a :class:`ClosureViolation`).
    """
    n, E = basis.n, basis.E
    iu, ju = _pair_indices(n)
    # the zero bracket (0, 0) first: its coefficients are the diagonal of f_E,
    # with the signs gemm gives their zeros, and K's first n rows the columns
    # (0, b) of f_E, which set the signs of the QR's R; at n = 2 the product
    # has two rows, where one row would go to gemv, which rounds unlike gemm
    pairs = _bracket_pairs(E)
    # summing the trailing axes of pairs spares tensordot a copy of it
    fp = np.ascontiguousarray(np.tensordot(pairs, E.conj(), axes=([1, 2], [1, 2])).real)
    sizes, residuals = _fit_norms(E, pairs[1:], fp[1:])
    del pairs  # the residual matrices now, which nothing reads
    # f_E sits in (a, b, k) memory order, whose strides the rounding of the
    # BLAS products downstream follows
    f = np.empty((n, n, n))
    f[iu, ju] = fp[1:]
    f[ju, iu] = -fp[1:]
    diagonal = np.arange(n)
    f[diagonal, diagonal] = fp[0]
    f = f.transpose(2, 0, 1)
    if np.any(residuals > tol.abs + tol.rel * np.maximum(1.0, sizes)):
        raise _closure_violation(basis, f)
    # K is fp; the right singular vectors of K are the left ones of M
    _, s, vh = np.linalg.svd(np.linalg.qr(fp, mode="r"), full_matrices=False)
    rank = int(np.sum(s > tol.cut(s[0])))
    return LeviSplit(f, vh[rank:], vh[:rank], _freeze(s))


@dataclass(frozen=True, eq=False)
class CommonEigenvector:
    """A unit row vector v with v D_i = lambdas_i v; it unpacks as ``(v, lambdas)``.

    ``residual`` is max_i |v D_i - lambdas_i v|, the largest entry.
    """

    v: np.ndarray
    lambdas: np.ndarray
    residual: float

    def __iter__(self):
        return iter((self.v, self.lambdas))


def common_left_eigenvector(
    basis: LieBasis, der: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> Optional[CommonEigenvector]:
    """Find a unit vector v with v D_i = lam_i v for every basis matrix.

    Returns a :class:`CommonEigenvector`, which unpacks as
    ``(v, lambdas)`` with purely imaginary ``lambdas``, or ``None`` when
    no common eigenvector exists.

    Any common eigenvector satisfies v [D_i, D_j] = 0, so the search
    restricts to W, the common left nullspace of a spanning set of the
    derived algebra. W is invariant under every D_i (because [g, [g, g]]
    lies in [g, g]) and the restricted actions commute on W (w D_i D_j -
    w D_j D_i = w [D_i, D_j] = 0), hence W is nonzero exactly when a
    common eigenvector exists. The search follows one joint eigenspace S
    from W: each D_i in basis order cuts S to the first eigenspace of its
    restriction, at most n eigenproblems and none once S is a line.

    The spanning set is ``der``, an orthonormal frame-coefficient basis
    of [g, g] (``LeviSplit.ss_basis``), so its matrices are orthonormal.
    The checks and the eigenspaces use D_i / |D_i|, whose spectra
    keep their order under any element norm. The lambdas, the final
    check and ``residual`` are read off one batched product v D. Cost:
    O(n^2 N^2 + n N^3) time, O(n N^2) memory.
    """
    mats, norms = basis.mats, basis.norms
    units = mats / norms[:, None, None]
    W = left_nullspace(np.tensordot(der, basis.E, axes=1), tol)
    if W.shape[0] == 0:
        return None
    cut = 1e3 * tol.cut(1.0)
    # Invariance of W is exact mathematics; a violation here means the
    # nullspace cutoff misjudged the rank.
    image = W @ units
    if max_norm(image - (image @ W.conj().T) @ W) > cut:
        raise ArithmeticError("derived-algebra nullspace is not invariant within tolerance")
    final = W
    for D in units:
        if final.shape[0] == 1:
            break
        final = antihermitian_eigen(final @ D @ final.conj().T, tol)[0][1] @ final
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
    images = v @ mats
    lambdas = 1j * (images @ v.conj()).imag
    residuals = np.max(np.abs(images - lambdas[:, None] * v), axis=1)
    if np.max(residuals / norms) > cut:
        raise ArithmeticError("joint eigenspace search lost the eigenvector")
    return CommonEigenvector(v, lambdas, float(np.max(residuals)))


def _adapted_constants(split: LeviSplit) -> np.ndarray:
    """Bracket tensor in the split-adapted basis (radical directions first).

    Computes sum_{k,i,j} Sinv[c, k] f[k, i, j] S[i, a] S[j, b] as three
    successive contractions. Cost: O(n^4) time, O(n^3) memory.
    """
    S = np.vstack([split.radical_basis, split.ss_basis]).T
    Sinv = np.linalg.inv(S)
    fa = np.tensordot(Sinv, split.f, axes=1)  # (c, i, j)
    fa = np.tensordot(fa, S, axes=([1], [0]))  # (c, j, a)
    return np.tensordot(fa, S, axes=([1], [0]))  # (c, a, b)


def anchor_solution_space(split: LeviSplit, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
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
    fa = _adapted_constants(split)
    n = split.n
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
