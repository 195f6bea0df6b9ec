"""Levi-Civita criterion for projective modules given by coefficients.

A finitely generated projective module with generators e_1, ..., e_n is
described here through matrix-valued data over the free module of rank
n: projection coefficients p^k_i, metric components h_ij and inverse
components h^kl, with derivations acting as commutators with the
matrices of a :class:`~realcalc.liealg.LieBasis`. The criterion

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

import numpy as np

from .matlin import DEFAULT_TOL, Tolerance, _freeze, as_matrix, as_row_vector, max_norm
from .liealg import LieBasis, StructureConstants

__all__ = [
    "InvariantViolation",
    "NotGenerating",
    "ConditionFails",
    "ProjectiveCalculusData",
    "LambdaTensor",
    "lambda_tensor",
    "lc_condition_check",
    "lc_connection_coefficients",
    "koszul_verify_projective",
    "from_module_generators",
    "rank_one_calculus",
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


def _commutators(mats: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """d_i applied to every grid entry: out[i, a, b] = [D_i, grid[a, b]].

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


@dataclass(frozen=True)
class ProjectiveCalculusData:
    """Validated projection/metric/derivation data for the criterion.

    Checks, each within tolerance: idempotence of p, hermiticity and
    index symmetry of the metric blocks, conjugate symmetry of the
    inverse blocks, the defining inverse relation in coefficient form,
    and compatibility of the inverse with the projection. The checks are
    block matrix products: O(n^3 N^3) time, O(n^2 N^2) memory.
    """

    derivs: LieBasis
    f: StructureConstants
    p: np.ndarray
    h: np.ndarray
    h_inv: np.ndarray

    def __init__(self, derivs: LieBasis, f: StructureConstants, p, h, h_inv,
                 tol: Tolerance = DEFAULT_TOL):
        n, N = derivs.n, derivs.N
        if f.n != n:
            raise ValueError("structure constants and derivations disagree on n")
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

    @property
    def n(self) -> int:
        return self.derivs.n

    @property
    def N(self) -> int:
        return self.derivs.N


@dataclass(frozen=True)
class LambdaTensor:
    """Christoffel-like coefficients Lam[k, i, j], each an N x N matrix."""

    values: np.ndarray

    def __init__(self, values: np.ndarray):
        values = np.asarray(values, dtype=complex)
        if values.ndim != 5 or not (values.shape[0] == values.shape[1] == values.shape[2]):
            raise ValueError(f"expected shape (n, n, n, N, N), got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("tensor entries must be finite")
        object.__setattr__(self, "values", _freeze(values))

    @property
    def n(self) -> int:
        return self.values.shape[0]


def _times_grid(t: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """out[x, y, j] = sum_l t[x, y, l] grid[l, j] for an (n, n, n, N, N) t.

    One tensordot over (l, b): O(n^4 N^3) time, O(n^3 N^2) memory.
    """
    return np.tensordot(t, grid, axes=([2, 4], [0, 2])).transpose(0, 1, 3, 2, 4)


def lambda_tensor(data: ProjectiveCalculusData) -> LambdaTensor:
    """Assemble Lam^k_ij = 1/2 h^{kl} (d_i h_jl + d_j h_il - d_l h_ij
    - h_jq f^q_il - h_iq f^q_jl + h_lq f^q_ij).

    The bracketed sum is O(n^4 N^2) time; the contraction with h^{kl}
    over (l, b) is one tensordot, O(n^4 N^3) time. O(n^3 N^2) memory.
    """
    h = data.h
    dh = _commutators(data.derivs.mats, h)
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
    return LambdaTensor(0.5 * values.transpose(0, 2, 3, 1, 4))


def lc_condition_check(
    data: ProjectiveCalculusData, tol: Tolerance = DEFAULT_TOL
) -> tuple[bool, float, np.ndarray]:
    """Evaluate the pseudo-Riemannian criterion.

    Returns ``(holds, max_residual, residuals)`` where residuals[k, i, j]
    is the largest entry magnitude of

        sum_l p^k_l [D_i, p^l_j] - sum_l Lam^k_il (delta^l_j 1 - p^l_j)

    so failures localize to their index triple. Both sums are tensordots
    over (l, b): O(n^4 N^3) time, O(n^3 N^2) memory.
    """
    p = data.p
    lam = lambda_tensor(data).values
    dp = _commutators(data.derivs.mats, p)
    lhs = np.tensordot(p, dp, axes=([1, 3], [1, 3])).transpose(0, 2, 3, 1, 4)
    residual = lhs - (lam - _times_grid(lam, p))
    per_index = np.max(np.abs(residual), axis=(3, 4))
    worst = float(np.max(per_index)) if per_index.size else 0.0
    scale = max(1.0, max_norm(p), max_norm(lam))
    return worst <= tol.cut(scale), worst, per_index


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
    gam = _times_grid(lambda_tensor(data).values, p)
    dp = _commutators(data.derivs.mats, p)
    return _times_grid(gam, p) + dp.transpose(1, 0, 2, 3, 4)


def koszul_verify_projective(
    data: ProjectiveCalculusData, coeffs, tol: Tolerance = DEFAULT_TOL
) -> float:
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
    lam = lambda_tensor(data).values
    return float(max_norm(np.tensordot(data.h, coeffs - lam, axes=([1, 3], [0, 3]))))


def from_module_generators(
    X, Y, derivs: LieBasis, f: StructureConstants, tol: Tolerance = DEFAULT_TOL
) -> ProjectiveCalculusData:
    """Build the coefficient data from generators X_i with right inverse Y^k.

    Requires sum_k X_k Y^k = 1; then p^k_i = Y^k X_i, h_ij = X_i^dagger X_j
    and h^{ij} = Y^i (Y^j)^dagger, all validated before returning.
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
    return ProjectiveCalculusData(derivs, f, p, h, h_inv, tol)


def rank_one_calculus(
    derivs: LieBasis,
    f: StructureConstants,
    v0,
    mu,
    metric_scale: float = 1.0,
    tol: Tolerance = DEFAULT_TOL,
) -> ProjectiveCalculusData:
    """Encode the row-module calculus of an anchor map as projective data.

    The generators e_i = mu_i v0 of the simple row module give the
    rank-one projection p^k_i = (mu_k mu_i / |mu|^2) P with
    P = v0^dagger v0, metric blocks h_ij = x mu_i mu_j P and inverse
    blocks h^{kl} = mu_k mu_l P / (x |mu|^4). The criterion on this data
    matches the direct existence analysis for the same anchor map.
    """
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
    return ProjectiveCalculusData(derivs, f, p, h, h_inv, tol)
