"""Levi-Civita criterion for projective modules given by coefficients.

A finitely generated projective module with generators e_1, ..., e_n is
described here through matrix-valued data over the free module of rank
n: projection coefficients p^k_i, metric components h_ij and inverse
components h^kl, with derivations acting as commutators with the
matrices of a :class:`~realcalc.liealg.LieBasis`. The structure
constants f are not an input: ad is injective on su(N), so the
derivations fix them, and they are read off the derivations' split.
The criterion

    p^k_l d_i(p^l_j) = Lam^k_il (delta^l_j 1 - p^l_j)

decides whether the calculus is pseudo-Riemannian, and on success the
connection coefficients are assembled and certified against the
coefficient form of the Koszul identity.

Every check has one cut rule: a defect passes when it is within ``tol``
of the scale of its own terms, ``tol.cut(scale)``, and no scale has a
floor of 1. The criterion and the defining identities are homogeneous
in the derivations and in the metric, and so is every scale. A product
identity (p p = p, p h^{kl} h_li = p, p h^{ml} = h^{kl},
sum_k X_k Y^k = 1) is cut entry by entry at the same product in
absolute values (:func:`_within_product_cut`), a symmetry at its grid's
largest entry, and the criterion at each derivation index i at the
largest terms of its two sides and of p d_i(p), whose terms p D_i p are
the scale of its round-off where d_i(p) itself is round-off, as on a
common eigenvector of the D_i. The rule has two limits: every cut is at
least ``tol.abs``, so a residual that small passes whatever its terms;
and Λ^k_il mixes every derivation, so on a presentation whose D_i
differ in norm by many orders the residual at index i can carry terms
that index i's cut does not see. Deciding the criterion in the frame
of the derivations, as the row module does, would lift both.

Grids of matrices are numpy arrays of shape (n, n, N, N); the first two
axes are the coefficient indices in the order they carry in the
formulas (p[k, i], h[i, j], h_inv[k, l]).

Every contraction over a generator index and a matrix index is one GEMM
of block matrices. A grid g is the (nN) x (nN) matrix whose (k, l) block
is g[k, l] (:func:`_block_matrix`); an (n, n, n, N, N) tensor t[x, y, z]
in the stacked layout of :func:`_stacked` is an (nN) x (n^2 N) block
matrix with rows (x, a) and, reshaped, an (n N n) x (nN) one with
columns (z, c), and a product with a block matrix comes back in that
layout, so Λ, Λ p and the products read each other without a copy. A
call whose criterion holds does five such products, each O(n^4 N^3)
time and O(n^3 N^2) memory: H^-1 times the bracketed sum for Λ, P dP
and Λ P for the criterion, (Λ P) P for the coefficients and H (C - Λ)
for the Koszul check. The derivatives [D_i, p] and [D_i, h] take two
O(n^3 N^3) GEMMs each.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .matlin import DEFAULT_TOL, Tolerance, _freeze, as_matrix, max_norm
from .liealg import LieBasis, StructureConstants, levi_split_compact, structure_constants

__all__ = [
    "InvariantViolation",
    "NotGenerating",
    "ConditionFails",
    "ProjectiveCalculusData",
    "lambda_tensor",
    "lc_condition_check",
    "lc_connection_coefficients",
    "koszul_verify_projective",
    "from_module_generators",
]


class InvariantViolation(ValueError):
    """Input data breaks one of the defining identities."""

    def __init__(self, identity: str, residual: float):
        self.identity = identity
        self.residual = residual
        super().__init__(f"{identity} violated (residual {residual:.3e})")


class NotGenerating(ValueError):
    """The candidate generators admit no right inverse."""


class ConditionFails(RuntimeError):
    """Connection coefficients requested although the criterion fails."""


def _grid(value, n: int, N: int, name: str) -> np.ndarray:
    arr = np.array(value, dtype=complex)
    if arr.shape != (n, n, N, N):
        raise ValueError(f"{name} must have shape ({n}, {n}, {N}, {N}), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} entries must be finite")
    return arr


@np.errstate(over="ignore", invalid="ignore")
def _commutators(mats: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """d_i applied to every grid entry: out[i, a, b] = [D_i, grid[a, b]].

    Two GEMMs: the stacked D (nN x N) times the grid laid out as
    (N x n^2 N), and the grid (n^2 N x N) times D laid out as (N x nN).
    Their difference is written once, into a C-contiguous array, so each
    N x N block is contiguous for the index permutations of Λ's bracketed
    sum. An entry that overflows comes back non-finite, without a
    warning. O(n^3 N^3) time, O(n^3 N^2) memory.
    """
    n, N = grid.shape[0], grid.shape[2]
    left = mats.reshape(n * N, N) @ grid.transpose(2, 0, 1, 3).reshape(N, -1)  # axes (i, r, a, b, c)
    right = grid.reshape(-1, N) @ mats.transpose(1, 0, 2).reshape(N, -1)  # axes (a, b, r, i, c)
    out = np.empty((n, n, n, N, N), dtype=complex)
    right = right.reshape(n, n, N, n, N).transpose(3, 0, 1, 2, 4)
    return np.subtract(_unstacked(left, n, N), right, out=out)


def _block_matrix(grid: np.ndarray) -> np.ndarray:
    """The (n N) x (n N) matrix whose (k, l) block is grid[k, l].

    Grid products sum_l g[k, l] g'[l, j] are then block matrix products.
    """
    n, N = grid.shape[0], grid.shape[2]
    return grid.transpose(0, 2, 1, 3).reshape(n * N, n * N)


def _stacked(t: np.ndarray) -> np.ndarray:
    """t[x, y, z][a, c] of an (n, n, n, N, N) array, as axes (x, a, y, z, c).

    Reshaped to (nN, n^2 N) it is the block matrix with rows (x, a);
    reshaped to (n N n, nN), the one with columns (z, c). For a view of a
    C-contiguous array in this layout, such as the results of
    :func:`_block_times` and :func:`_times_block`, both reshapes copy
    nothing.
    """
    return t.transpose(0, 3, 1, 2, 4)


def _unstacked(out: np.ndarray, n: int, N: int) -> np.ndarray:
    """The (n, n, n, N, N) view of a result laid out as :func:`_stacked`."""
    return out.reshape(n, N, n, n, N).transpose(0, 2, 3, 1, 4)


def _block_times(G: np.ndarray, t: np.ndarray) -> np.ndarray:
    """out[x, y, z] = sum_l G[x, l] t[l, y, z] for a block matrix G.

    One GEMM, (nN x nN) times (nN x n^2 N): O(n^4 N^3) time, O(n^3 N^2) memory.
    """
    n, N = t.shape[0], t.shape[3]
    return _unstacked(G @ _stacked(t).reshape(n * N, -1), n, N)


def _times_block(t: np.ndarray, G: np.ndarray) -> np.ndarray:
    """out[x, y, z] = sum_l t[x, y, l] G[l, z] for a block matrix G.

    One GEMM, (n N n x nN) times (nN x nN): O(n^4 N^3) time, O(n^3 N^2) memory.
    """
    n, N = t.shape[0], t.shape[3]
    return _unstacked(_stacked(t).reshape(-1, n * N) @ G, n, N)


def _invariant_residuals(p: np.ndarray, h: np.ndarray, h_inv: np.ndarray, tol: Tolerance):
    """Yield ``(identity, residual, within)`` for each defining identity:
    the residual is the largest entry of its defect, and ``within`` says
    whether the defect is within its cut under ``tol``.

    A product identity is cut entry by entry (:func:`_within_product_cut`),
    a symmetry at tol.cut of its grid's largest entry. The identities are
    checked in this order, so a caller that stops at the first violation
    reports the same one. The grid products, and those of their absolute
    values, are block matrix products: O(n^3 N^3) time, O(n^2 N^2) memory.
    """
    P, H, Hi = _block_matrix(p), _block_matrix(h), _block_matrix(h_inv)
    defect = P @ P - P
    yield "projection idempotence p.p = p", max_norm(defect), _within_product_cut(defect, (P, P), tol)
    hcut, icut = tol.cut(max_norm(h)), tol.cut(max_norm(h_inv))
    res = max_norm(h - h.conj().transpose(1, 0, 3, 2))
    yield "metric symmetry h_ij = h_ji^*", res, res <= hcut
    res = max_norm(h - h.conj().transpose(0, 1, 3, 2))
    yield "metric hermiticity h_ij = h_ij^dagger", res, res <= hcut
    res = max_norm(h_inv - h_inv.conj().transpose(1, 0, 3, 2))
    yield "inverse conjugate symmetry (h^ij)^* = h^ji", res, res <= icut
    PHi = P @ Hi
    defect = PHi @ H - P
    yield "inverse relation p h^{kl} h_li = p", max_norm(defect), _within_product_cut(defect, (P, Hi, H), tol)
    defect = PHi - Hi
    yield "projection compatibility p h^{ml} = h^{kl}", max_norm(defect), _within_product_cut(defect, (P, Hi), tol)


@np.errstate(over="ignore")
def _within_product_cut(defect: np.ndarray, factors: tuple[np.ndarray, ...], tol: Tolerance) -> bool:
    """Whether every entry of ``defect``, the defect of an identity whose
    terms are the matrix product A B or A B C of ``factors``, is within
    the scale of its own terms:

        |defect_kj| <= tol.cut(min((|A| |B| ...)_kj, max|A| max|B| ...)).

    (|A| |B| ...)_kj bounds the rounding of entry kj's sums, so a matrix
    that mixes large and small entries is held to the terms of each
    entry; the product of the largest entries stays a ceiling, so no
    entry's cut is looser than one cut for the whole matrix. Each factor
    is divided by a power of two within a factor 2 of its largest entry,
    so the real GEMMs cannot overflow, and the cut is multiplied back by
    ``np.ldexp``: it is inf only where it is past the largest double,
    which every finite defect is within and a non-finite one is not.
    O((nN)^3) time, O((nN)^2) memory.
    """
    scale, cap, exponent = None, 1.0, 0
    for factor in factors:
        a = np.abs(factor)
        e = int(np.frexp(a.max(initial=0.0))[1]) - 1
        a = np.ldexp(a, -e)
        scale = a if scale is None else scale @ a
        cap *= a.max(initial=0.0)
        exponent += e
    cut = tol.abs + np.ldexp(tol.rel * np.minimum(scale, cap), exponent)
    return bool(np.all(np.abs(defect) <= np.minimum(cut, np.finfo(float).max)))


@dataclass(frozen=True, eq=False)
class ProjectiveCalculusData:
    """Validated projection/metric/derivation data for the criterion.

    ``f`` is read off the derivations' split before the grids are read;
    a span that is not closed raises :class:`~realcalc.liealg.ClosureViolation`,
    any other failure to form f a ValueError that begins ``derivations:``.
    Then it checks, each within tolerance: idempotence of p, hermiticity
    and index symmetry of the metric blocks, conjugate symmetry of the
    inverse blocks, the defining inverse relation in coefficient form,
    and compatibility of the inverse with the projection. Each is cut at
    the scale of its own terms, with no floor of 1 (the module
    docstring): the three product identities entry by entry, the three
    symmetries at their grid's largest entry, so h -> c h,
    h_inv -> h_inv / c keeps every verdict until a residual meets
    ``tol.abs``. A
    residual that is not finite violates its identity whatever the
    tolerance. The checks are block matrix products: O(n^3 N^3) time,
    O(n^2 N^2) memory.

    Known limit: the checks see the round-off with which the grids were
    formed. Data carried to other generators e'_i = sum_k A_ki e_k by a
    real matrix A, p' = A^-1 p A, h' = A^T h A and
    h_inv' = A^-1 h_inv A^-T, holds round-off of about eps cond(A) that
    the terms of its entries do not bound. Near cond(A) = 1e12 such a
    presentation raises :class:`InvariantViolation` at idempotence, as
    ``free_trivial``'s p = 1 does from about 1e6 on; a p of rank one in
    the generators, as ``abelian_free``'s, stays within its cut. The
    error is named, and no verdict is given on data the checks cannot
    tell from a non-projection.

    The derivatives of the grids, dp[i, k, j] = [D_i, p^k_j] and
    dh[i, a, b] = [D_i, h_ab], are built here once, two GEMMs each, as
    C-contiguous arrays, and read by the criterion, Λ and the
    coefficients: O(n^3 N^3) time, O(n^3 N^2) memory. A derivative that
    overflows a double raises ValueError.

    Λ, the criterion residual and the product Λ p are formed on first
    read, through :func:`lambda_tensor` and :func:`lc_condition_check`,
    and kept on the data: their O(n^4 N^3) GEMMs are paid once per data,
    however often the criterion, the coefficients and the certificate
    read them.
    """

    derivs: LieBasis
    f: StructureConstants
    p: np.ndarray
    h: np.ndarray
    h_inv: np.ndarray
    dp: np.ndarray
    dh: np.ndarray

    def __init__(self, derivs: LieBasis, p, h, h_inv, tol: Tolerance = DEFAULT_TOL):
        n, N = derivs.n, derivs.N
        split = levi_split_compact(derivs, tol)
        try:
            f = structure_constants(derivs, split)
        except ValueError as exc:
            raise ValueError(f"derivations: {exc}") from exc
        p = _grid(p, n, N, "p")
        h = _grid(h, n, N, "h")
        h_inv = _grid(h_inv, n, N, "h_inv")

        with np.errstate(over="ignore", invalid="ignore"):
            for identity, res, within in _invariant_residuals(p, h, h_inv, tol):
                if not (np.isfinite(res) and within):
                    raise InvariantViolation(identity, res)

        object.__setattr__(self, "derivs", derivs)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "p", _freeze(p))
        object.__setattr__(self, "h", _freeze(h))
        object.__setattr__(self, "h_inv", _freeze(h_inv))
        for name, grid, entry in (("p", p, "p^k_j"), ("h", h, "h_ab")):
            derivative = _commutators(derivs.mats, grid)
            if not np.all(np.isfinite(derivative)):
                raise ValueError(f"{name} is too large for its derivatives: [D_i, {entry}] overflows a double")
            object.__setattr__(self, "d" + name, _freeze(derivative))

    @property
    def n(self) -> int:
        return self.derivs.n

    @property
    def N(self) -> int:
        return self.derivs.N

    @cached_property
    def _lambda(self) -> np.ndarray:
        return _form_lambda(self)

    @cached_property
    def _lambda_p(self) -> np.ndarray:
        # Lam^k_il p^l_j: a term of the criterion and, when it holds, the
        # projected free-module connection that the coefficients start from
        return _freeze(_times_block(self._lambda, _block_matrix(self.p)))

    @cached_property
    def _criterion(self) -> tuple[float, np.ndarray, tuple]:
        return _criterion_residual(self)


def lambda_tensor(data: ProjectiveCalculusData) -> np.ndarray:
    """Lam^k_ij = 1/2 h^{kl} (d_i h_jl + d_j h_il - d_l h_ij
    - h_jq f^q_il - h_iq f^q_jl + h_lq f^q_ij).

    Returns the read-only (n, n, n, N, N) array Lam[k, i, j], each entry
    an N x N matrix. It is formed on the first call for the data, by one
    GEMM, in O(n^4 N^3) time and O(n^3 N^2) memory, and kept on it; later calls
    return the same array. A term that overflows a double raises
    ValueError, even if Λ fits.
    """
    return data._lambda


@np.errstate(over="ignore", invalid="ignore")
def _form_lambda(data: ProjectiveCalculusData) -> np.ndarray:
    """Λ of :func:`lambda_tensor`: 1/2 H^-1 times the bracketed sum laid
    out as (nN x n^2 N), one GEMM of O(n^4 N^3) time. The sum itself is
    O(n^4 N^2) time. O(n^3 N^2) memory.
    """
    n, N, h, dh = data.n, data.N, data.h, data.dh
    # hf[x, y, z] = h_xq f^q_yz; terms[i, j, l] is the bracketed sum, taken
    # over dh's contiguous N x N blocks and then copied once into six, the
    # stacked block matrix with rows (l, b)
    hf = np.tensordot(h, data.f.f, axes=([1], [0])).transpose(0, 3, 4, 1, 2)
    terms = (dh + dh.transpose(1, 0, 2, 3, 4) - dh.transpose(1, 2, 0, 3, 4)
             - hf.transpose(1, 0, 2, 3, 4) - hf + hf.transpose(1, 2, 0, 3, 4))
    six = np.empty((n, N, n, n, N), dtype=complex)
    six.transpose(2, 3, 0, 1, 4)[...] = terms
    del terms, hf  # the product below runs beside dp, dh and six only
    values = _block_matrix(data.h_inv) @ six.reshape(n * N, -1)
    if not np.all(np.isfinite(values)):
        raise ValueError("h is too large for Lambda: its terms h_jq f^q_il or [D_i, h_jl] overflow a double")
    values *= 0.5
    return _freeze(_unstacked(values, n, N))


def lc_condition_check(
    data: ProjectiveCalculusData, tol: Tolerance = DEFAULT_TOL
) -> tuple[bool, float, np.ndarray]:
    """Evaluate the pseudo-Riemannian criterion.

    Returns ``(holds, max_residual, residuals)`` where residuals[k, i, j]
    is the largest entry magnitude of

        sum_l p^k_l [D_i, p^l_j] - sum_l Lam^k_il (delta^l_j 1 - p^l_j)

    so failures localize to their index triple; the grid is read-only.
    The residual does not depend on ``tol``: it is formed on the first
    check of the data, by two GEMMs, in O(n^4 N^3) time and O(n^3 N^2)
    memory, and kept on it, so a later check, under any tolerance, only
    compares. A residual that overflows a double raises ValueError.
    """
    lambda_tensor(data)  # Λ is formed, or its overflow raised, under lambda_tensor's name
    worst, per_index, (pmax, dp_i, lam_i, d_i) = data._criterion
    with np.errstate(over="ignore"):  # tol.rel multiplies first, so a cut is inf only past the largest double
        cut = tol.abs + np.maximum.reduce([tol.rel * pmax * dp_i, tol.rel * lam_i * max(1.0, pmax),
                                           tol.rel * d_i * pmax * pmax])
    return bool(np.all(per_index <= cut[:, None])), worst, per_index


@np.errstate(over="ignore", invalid="ignore")
def _criterion_residual(data: ProjectiveCalculusData) -> tuple[float, np.ndarray, tuple]:
    """``(max_residual, residuals, terms)`` of :func:`lc_condition_check`.

    ``terms`` = (|p|, |d_i p|, |Λ^._i.|, |D_i|), the largest entry
    magnitudes at each derivation index i. The residuals at index i are
    cut at tol.cut(max(|p| |d_i p|, |Λ^._i.| max(1, |p|), |p| |D_i| |p|)):
    the largest terms of the criterion's two sides, where the 1 is δ's
    entry, not a floor, and of p D_i p and p p D_i, which p d_i(p) is
    formed from. On a common eigenvector of the D_i, d_i p and Λ are
    round-off, and only the last shows the scale of the residual. Each
    product is, like the residual, of degree 1 in the derivations and of
    degree 0 under h -> c h, h^-1 -> h^-1 / c. The two
    sums are the GEMMs P dP and Λ P: O(n^4 N^3) time, O(n^3 N^2) memory;
    dp enters P dP as one copy laid out as its block matrix with rows
    (l, b). The per-index maxima reduce the contiguous (k, a, i, j, c)
    layout, over a and then over c.
    """
    p, lam = data.p, data._lambda
    residual = _block_times(_block_matrix(p), data.dp.transpose(1, 0, 2, 3, 4))
    residual -= lam - data._lambda_p
    per_index = np.abs(_stacked(residual)).max(axis=1).max(axis=-1)
    worst = float(np.max(per_index)) if per_index.size else 0.0
    if not np.isfinite(worst):
        raise ValueError("p is too large for the criterion: its terms p^k_l [D_i, p^l_j] "
                         "or Lam^k_il p^l_j overflow a double")
    n = data.n
    terms = (max_norm(p), np.abs(data.dp.reshape(n, -1)).max(axis=1),
             np.abs(lam).max(axis=(0, 2, 3, 4)), np.abs(data.derivs.mats.reshape(n, -1)).max(axis=1))
    return worst, _freeze(per_index), terms


def lc_connection_coefficients(
    data: ProjectiveCalculusData, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """Connection coefficients C^l_ij with nabla_i e_j = e_l C^l_ij.

    Only defined when the criterion holds; assembled from the projected
    free-module connection Gam^l_ik = Lam^l_im p^m_k, the product that
    the criterion keeps on the data, as C^l_ij = Gam^l_ik p^k_j + [D_i, p^l_j].
    One GEMM: O(n^4 N^3) time, O(n^3 N^2) memory. The result is a
    C-contiguous (n, n, n, N, N) array; an overflow raises ValueError.
    """
    holds, worst, _ = lc_condition_check(data, tol)
    if not holds:
        raise ConditionFails(
            f"criterion fails (max residual {worst:.3e}); no Levi-Civita connection"
        )
    lambda_tensor(data)  # every step that reads Λ enters it once; this one reads Λ p
    # the sum is written C-contiguous in (l, i, j, a, c), the order in
    # which a report reads the coefficients
    coeffs = np.empty(data.dp.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        gam_p = _times_block(data._lambda_p, _block_matrix(data.p))
        np.add(gam_p, data.dp.transpose(1, 0, 2, 3, 4), out=coeffs)
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("the connection coefficients overflow a double: their terms Lam p p or [D, p] do")
    return coeffs


def koszul_verify_projective(data: ProjectiveCalculusData, coeffs) -> float:
    """Coefficient form of the Koszul identity for candidate coefficients.

    Returns the largest entry of sum_l h_ml C^l_ij - sum_k h_mk Lam^k_ij
    over (m, i, j); a value within tolerance certifies the Levi-Civita
    property of the connection the coefficients define. Both sums share
    h, so C - Lam is formed once, in the stacked layout, and for each i
    one (nN x nN) GEMM multiplies H with its block matrix over (l, j):
    O(n^4 N^3) time and O(n^3 N^2) memory, with only one i's product held
    at a time. A residual that overflows a double raises ValueError.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    n, N = data.n, data.N
    if coeffs.shape != (n, n, n, N, N):
        raise ValueError(f"coefficients must have shape ({n}, {n}, {n}, {N}, {N})")
    lam, H = lambda_tensor(data), _block_matrix(data.h)
    diff = _unstacked(np.empty((n * N, n, n * N), dtype=complex), n, N)
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(coeffs, lam, out=diff)
        columns = _stacked(diff).reshape(n * N, n, n * N)  # columns[:, i] is C_i - Lam_i
        worst = float(np.max([max_norm(H @ columns[:, i]) for i in range(n)]))  # np.max keeps a NaN
    if not np.isfinite(worst):
        raise ValueError("the Koszul check overflows a double: its terms h_ml (C^l_ij - Lam^l_ij) do")
    return worst


def from_module_generators(X, Y, derivs: LieBasis, tol: Tolerance = DEFAULT_TOL) -> ProjectiveCalculusData:
    """Build the coefficient data from generators X_i with right inverse Y^k.

    Requires sum_k X_k Y^k = 1, cut entry by entry against sum_k |X_k| |Y^k|
    like the product identities of :class:`ProjectiveCalculusData`; then
    p^k_i = Y^k X_i, h_ij = X_i^dagger X_j and h^{ij} = Y^i (Y^j)^dagger,
    all validated before returning. The generators are checked before f
    is read off the derivations; a product that overflows a double raises
    ValueError naming the generators it is formed from.
    """
    n, N = derivs.n, derivs.N
    Xs = np.array([as_matrix(x) for x in X])
    Ys = np.array([as_matrix(y) for y in Y])
    if Xs.shape != (n, N, N) or Ys.shape != (n, N, N):
        raise ValueError(f"expected {n} generator matrices of size {N}")
    # the block row [X_1 ... X_n] times the block column [Y^1; ...; Y^n]
    row, column = Xs.transpose(1, 0, 2).reshape(N, n * N), Ys.reshape(n * N, N)
    with np.errstate(over="ignore", invalid="ignore"):
        defect = row @ column - np.eye(N)
    if not _within_product_cut(defect, (row, column), tol):
        raise NotGenerating(f"sum_k X_k Y^k differs from identity by {max_norm(defect):.3e}")
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.einsum("kab,ibc->kiac", Ys, Xs)
        h = np.einsum("iba,jbc->ijac", Xs.conj(), Xs)
        h_inv = np.einsum("iab,jcb->ijac", Ys, Ys.conj())
    for grid, cause in ((p, "X and Y are too large for p: p^k_i = Y^k X_i"),
                        (h, "X is too large for h: h_ij = X_i^dagger X_j"),
                        (h_inv, "Y is too large for h_inv: h^{ij} = Y^i (Y^j)^dagger")):
        if not np.all(np.isfinite(grid)):
            raise ValueError(f"{cause} overflows a double")
    return ProjectiveCalculusData(derivs, p, h, h_inv, tol)
