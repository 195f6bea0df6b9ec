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

Grids of matrices are numpy arrays of shape (n, n, N, N); the first two
axes are the coefficient indices in the order they carry in the
formulas (p[k, i], h[i, j], h_inv[k, l]).
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

    An entry that overflows comes back non-finite, without a warning.
    Two broadcast matrix products: O(n^3 N^3) time, O(n^3 N^2) memory.
    """
    m = mats[:, None, None]
    return m @ grid - grid @ m


def _block_matrix(grid: np.ndarray) -> np.ndarray:
    """The (n N) x (n N) matrix whose (k, l) block is grid[k, l].

    Grid products sum_l g[k, l] g'[l, j] are then block matrix products.
    """
    n, N = grid.shape[0], grid.shape[2]
    return grid.transpose(0, 2, 1, 3).reshape(n * N, n * N)


def _invariant_residuals(p: np.ndarray, h: np.ndarray, h_inv: np.ndarray):
    """Yield ``(identity, residual, scale)`` for each defining identity.

    The identities are checked in this order, so a caller that stops at
    the first violation reports the same one. The three grid products
    are block matrix products: O(n^3 N^3) time, O(n^2 N^2) memory.
    """
    pmax = max(1.0, max_norm(p))
    hmax = max(1.0, max_norm(h))
    imax = max(1.0, max_norm(h_inv))
    P, H, Hi = _block_matrix(p), _block_matrix(h), _block_matrix(h_inv)

    yield "projection idempotence p.p = p", max_norm(P @ P - P), pmax * pmax
    res = max_norm(h - h.conj().transpose(1, 0, 3, 2))
    yield "metric symmetry h_ij = h_ji^*", res, hmax
    res = max_norm(h - h.conj().transpose(0, 1, 3, 2))
    yield "metric hermiticity h_ij = h_ij^dagger", res, hmax
    res = max_norm(h_inv - h_inv.conj().transpose(1, 0, 3, 2))
    yield "inverse conjugate symmetry (h^ij)^* = h^ji", res, imax
    PHi = P @ Hi
    yield "inverse relation p h^{kl} h_li = p", max_norm(PHi @ H - P), pmax * hmax * imax
    yield "projection compatibility p h^{ml} = h^{kl}", max_norm(PHi - Hi), pmax * imax


@dataclass(frozen=True, eq=False)
class ProjectiveCalculusData:
    """Validated projection/metric/derivation data for the criterion.

    ``f`` is read off the derivations' split before the grids are read;
    a span that is not closed raises :class:`~realcalc.liealg.ClosureViolation`,
    any other failure to form f a ValueError that begins ``derivations:``.
    Then it checks, each within tolerance: idempotence of p, hermiticity and
    index symmetry of the metric blocks, conjugate symmetry of the
    inverse blocks, the defining inverse relation in coefficient form,
    and compatibility of the inverse with the projection. The checks are
    block matrix products: O(n^3 N^3) time, O(n^2 N^2) memory.

    The derivatives of the grids, dp[i, k, j] = [D_i, p^k_j] and
    dh[i, a, b] = [D_i, h_ab], are built here once and read by the
    criterion, Λ and the coefficients: O(n^3 N^3) time, O(n^3 N^2) memory.
    A derivative that overflows a double raises ValueError.

    Λ and the criterion residual are formed on first read, through
    :func:`lambda_tensor` and :func:`lc_condition_check`, and kept on the
    data: their O(n^4 N^3) contractions are paid once per data, however
    often the criterion, the coefficients and the certificate read them.
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
            f = structure_constants(derivs, split, tol)
        except ValueError as exc:
            raise ValueError(f"derivations: {exc}") from exc
        p = _grid(p, n, N, "p")
        h = _grid(h, n, N, "h")
        h_inv = _grid(h_inv, n, N, "h_inv")

        for identity, res, scale in _invariant_residuals(p, h, h_inv):
            if res > tol.cut(scale):
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
    def _criterion(self) -> tuple[float, np.ndarray, float]:
        return _criterion_residual(self)


def _times_grid(t: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """out[x, y, j] = sum_l t[x, y, l] grid[l, j] for an (n, n, n, N, N) t.

    One tensordot over (l, b): O(n^4 N^3) time, O(n^3 N^2) memory.
    """
    return np.tensordot(t, grid, axes=([2, 4], [0, 2])).transpose(0, 1, 3, 2, 4)


def lambda_tensor(data: ProjectiveCalculusData) -> np.ndarray:
    """Lam^k_ij = 1/2 h^{kl} (d_i h_jl + d_j h_il - d_l h_ij
    - h_jq f^q_il - h_iq f^q_jl + h_lq f^q_ij).

    Returns the read-only (n, n, n, N, N) array Lam[k, i, j], each entry
    an N x N matrix. It is formed on the first call for the data, in
    O(n^4 N^3) time and O(n^3 N^2) memory, and kept on it; later calls
    return the same array. A term that overflows a double raises
    ValueError, even if Λ fits.
    """
    return data._lambda


@np.errstate(over="ignore", invalid="ignore")
def _form_lambda(data: ProjectiveCalculusData) -> np.ndarray:
    """Λ of :func:`lambda_tensor`. The bracketed sum is O(n^4 N^2) time;
    the contraction with h^{kl} over (l, b) is one tensordot, O(n^4 N^3)
    time. O(n^3 N^2) memory.
    """
    h, dh = data.h, data.dh
    # hf[x, y, z] = h_xq f^q_yz; six[i, j, l] is the bracketed sum
    hf = np.tensordot(h, data.f.f, axes=([1], [0])).transpose(0, 3, 4, 1, 2)
    six = (
        dh
        + dh.transpose(1, 0, 2, 3, 4)
        - dh.transpose(1, 2, 0, 3, 4)
        - hf.transpose(1, 0, 2, 3, 4)
        - hf
        + hf.transpose(1, 2, 0, 3, 4)
    )
    values = np.tensordot(data.h_inv, six, axes=([1, 3], [2, 3]))
    if not np.all(np.isfinite(values)):
        raise ValueError("h is too large for Lambda: its terms h_jq f^q_il or [D_i, h_jl] overflow a double")
    return _freeze(0.5 * values.transpose(0, 2, 3, 1, 4))


def lc_condition_check(
    data: ProjectiveCalculusData, tol: Tolerance = DEFAULT_TOL
) -> tuple[bool, float, np.ndarray]:
    """Evaluate the pseudo-Riemannian criterion.

    Returns ``(holds, max_residual, residuals)`` where residuals[k, i, j]
    is the largest entry magnitude of

        sum_l p^k_l [D_i, p^l_j] - sum_l Lam^k_il (delta^l_j 1 - p^l_j)

    so failures localize to their index triple; the grid is read-only.
    The residual does not depend on ``tol``: it is formed on the first
    check of the data, in O(n^4 N^3) time and O(n^3 N^2) memory, and
    kept on it, so a later check, under any tolerance, only compares.
    """
    lambda_tensor(data)  # Λ is formed, or its overflow raised, under lambda_tensor's name
    worst, per_index, scale = data._criterion
    return worst <= tol.cut(scale), worst, per_index


def _criterion_residual(data: ProjectiveCalculusData) -> tuple[float, np.ndarray, float]:
    """``(max_residual, residuals, scale)`` of :func:`lc_condition_check`,
    with scale = max(1, |p|, |Λ|). Both sums are tensordots over (l, b):
    O(n^4 N^3) time, O(n^3 N^2) memory.
    """
    p, lam = data.p, data._lambda
    lhs = np.tensordot(p, data.dp, axes=([1, 3], [1, 3])).transpose(0, 2, 3, 1, 4)
    residual = lhs - (lam - _times_grid(lam, p))
    per_index = np.max(np.abs(residual), axis=(3, 4))
    worst = float(np.max(per_index)) if per_index.size else 0.0
    return worst, _freeze(per_index), max(1.0, max_norm(p), max_norm(lam))


def lc_connection_coefficients(
    data: ProjectiveCalculusData, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """Connection coefficients C^l_ij with nabla_i e_j = e_l C^l_ij.

    Only defined when the criterion holds; assembled from the projected
    free-module connection Gam^l_ik = Lam^l_im p^m_k as
    C^l_ij = Gam^l_ik p^k_j + [D_i, p^l_j]. Two tensordots over (m, b):
    O(n^4 N^3) time, O(n^3 N^2) memory.
    """
    holds, worst, _ = lc_condition_check(data, tol)
    if not holds:
        raise ConditionFails(
            f"criterion fails (max residual {worst:.3e}); no Levi-Civita connection"
        )
    p = data.p
    gam = _times_grid(lambda_tensor(data), p)
    return _times_grid(gam, p) + data.dp.transpose(1, 0, 2, 3, 4)


def koszul_verify_projective(data: ProjectiveCalculusData, coeffs) -> float:
    """Coefficient form of the Koszul identity for candidate coefficients.

    Returns the largest entry of sum_l h_ml C^l_ij - sum_k h_mk Lam^k_ij
    over (m, i, j); a value within tolerance certifies the Levi-Civita
    property of the connection the coefficients define. Both sums share
    h, so one tensordot of h with C - Lam over (l, b): O(n^4 N^3) time,
    O(n^3 N^2) memory.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    n, N = data.n, data.N
    if coeffs.shape != (n, n, n, N, N):
        raise ValueError(f"coefficients must have shape ({n}, {n}, {n}, {N}, {N})")
    lam = lambda_tensor(data)
    return float(max_norm(np.tensordot(data.h, coeffs - lam, axes=([1, 3], [0, 3]))))


def from_module_generators(X, Y, derivs: LieBasis, tol: Tolerance = DEFAULT_TOL) -> ProjectiveCalculusData:
    """Build the coefficient data from generators X_i with right inverse Y^k.

    Requires sum_k X_k Y^k = 1; then p^k_i = Y^k X_i, h_ij = X_i^dagger X_j
    and h^{ij} = Y^i (Y^j)^dagger, all validated before returning. The
    generators are checked before f is read off the derivations.
    """
    n, N = derivs.n, derivs.N
    Xs = np.array([as_matrix(x) for x in X])
    Ys = np.array([as_matrix(y) for y in Y])
    if Xs.shape != (n, N, N) or Ys.shape != (n, N, N):
        raise ValueError(f"expected {n} generator matrices of size {N}")
    total = np.einsum("kab,kbc->ac", Xs, Ys)
    scale = max(1.0, max_norm(Xs) * max_norm(Ys))
    res = max_norm(total - np.eye(N))
    if res > tol.cut(scale):
        raise NotGenerating(f"sum_k X_k Y^k differs from identity by {res:.3e}")
    p = np.einsum("kab,ibc->kiac", Ys, Xs)
    h = np.einsum("iba,jbc->ijac", Xs.conj(), Xs)
    h_inv = np.einsum("iab,jcb->ijac", Ys, Ys.conj())
    return ProjectiveCalculusData(derivs, p, h, h_inv, tol)
