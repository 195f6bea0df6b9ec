"""Real metric calculi over C^N for the full matrix algebra.

The module carries the metric h(u, v) = x * u^dagger v, anchor maps of
the collinear form phi(D_j) = mu_j * v0, and connections
nabla_j v = i*lam_j v - v D_j. It evaluates torsion, metric
compatibility and the Koszul identity, finds the one Levi-Civita
connection an anchor map can have (:func:`levi_civita_connection`), and
decides Levi-Civita existence with an explicit witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .matlin import DEFAULT_TOL, Tolerance, _freeze, _scaled_norm, as_row_vector, max_norm
from .liealg import (
    LieBasis,
    LeviSplit,
    StructureConstants,
    _constants_array,
    common_left_eigenvector,
    killing_form,
    levi_split_compact,
)

__all__ = [
    "EXISTS",
    "NONEXISTENT",
    "REASON_SEMISIMPLE",
    "REASON_NO_COMMON_EIGENVECTOR",
    "REASON_WITNESS",
    "WitnessVerificationFailed",
    "MetricPreCalculus",
    "AnchorMap",
    "Connection",
    "ExistenceReport",
    "metric_compat_residual",
    "torsion",
    "koszul_residual",
    "levi_civita_connection",
    "decide_existence",
]

EXISTS = "Exists"
NONEXISTENT = "Nonexistent"
REASON_SEMISIMPLE = "SemisimpleObstruction"
REASON_NO_COMMON_EIGENVECTOR = "NoCommonEigenvector"
REASON_WITNESS = "Witness"


class WitnessVerificationFailed(RuntimeError):
    """A constructed witness failed re-verification.

    Signals numerical breakdown (rank/tolerance misjudgement), not
    mathematical nonexistence.
    """


@dataclass(frozen=True)
class MetricPreCalculus:
    """The data (Mat(N), g, C^N) with metric h(u, v) = x * u^dagger v."""

    basis: LieBasis
    metric_scale: float = 1.0

    def __post_init__(self):
        x = float(self.metric_scale)
        if x == 0.0 or not np.isfinite(x):
            raise ValueError("metric_scale must be a nonzero finite real")
        object.__setattr__(self, "metric_scale", x)


@dataclass(frozen=True, eq=False)
class AnchorMap:
    """Collinear anchor data: phi(D_j) = mu_j * v0 with unit v0, real mu."""

    v0: np.ndarray
    mu: np.ndarray

    def __init__(self, v0, mu, tol: Tolerance = DEFAULT_TOL):
        v0, mu = _anchor_arrays(v0, mu, tol)
        object.__setattr__(self, "v0", _freeze(v0))
        object.__setattr__(self, "mu", _freeze(mu))


def _anchor_arrays(v0, mu, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """``(v0, mu)`` as new arrays, checked as :class:`AnchorMap` checks them."""
    v0 = as_row_vector(v0)
    mu = np.array(mu, dtype=float)
    if mu.ndim != 1:
        raise ValueError("mu must be a flat list of reals")
    if not np.all(np.isfinite(mu)):
        raise ValueError("mu entries must be finite")
    if abs(np.linalg.norm(v0) - 1.0) > tol.cut(1.0):
        raise ValueError("v0 must have unit norm")
    if max_norm(mu) <= tol.cut(1.0):
        raise ValueError("at least one mu entry must be nonzero")
    return v0, mu


@dataclass(frozen=True, eq=False)
class Connection:
    """Metric connection nabla_j v = i*lam_j v - v D_j (lambdas real)."""

    lambdas: np.ndarray

    def __init__(self, lambdas):
        object.__setattr__(self, "lambdas", _freeze(_lambdas_array(lambdas)))


def _lambdas_array(lambdas) -> np.ndarray:
    """``lambdas`` as a new array, checked as :class:`Connection` checks it."""
    arr = np.array(lambdas, dtype=float)
    if arr.ndim != 1:
        raise ValueError("lambdas must be a flat list of reals")
    if not np.all(np.isfinite(arr)):
        raise ValueError("lambdas must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class ExistenceReport:
    """Outcome of the existence decision, with witness or obstruction."""

    status: str
    reason: str
    witness: Optional[tuple[AnchorMap, Connection]]
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.status not in (EXISTS, NONEXISTENT):
            raise ValueError(f"unknown status {self.status!r}")
        if (self.status == EXISTS) != (self.witness is not None):
            raise ValueError("status and witness presence disagree")


def metric_compat_residual(pre: MetricPreCalculus, conn: Connection) -> float:
    """Supremum over unit u, v of D_j h(u,v) - h(nabla_j u, v) - h(u, nabla_j v).

    With t_j = i lam_j and derivations acting by commutators, the defect is
    x ([D_j, u^dag v] - (t_j^* - D_j^dag) u^dag v - u^dag v (t_j - D_j))
    = x A_j u^dag v with A_j = D_j + D_j^dag - 2 Re(t_j) 1. Entry (a, b) is
    x (A_j[a] . u^*) v_b, largest at u = A_j[a] / |A_j[a]| and v = e_b, so
    the supremum is |x| max_j max_a |A_j[a]|: the basis' antihermiticity
    defect, since Re t_j = 0. Cost: O(n N^2) time and memory.
    """
    return _metric_compat(pre.basis.mats, pre.metric_scale)


def _metric_compat(mats: np.ndarray, x: float) -> float:
    """:func:`metric_compat_residual` of the basis ``mats`` at metric scale x."""
    A = mats + mats.conj().transpose(0, 2, 1)
    return abs(x) * float(np.max(np.linalg.norm(A, axis=2)))


def _factors(mats: np.ndarray, f: np.ndarray, v0: np.ndarray, mu: np.ndarray, lambdas: np.ndarray):
    """``(b, w, c)``, the factors the torsion, rcc and Koszul checks share.

    b[j] = v0 D_j; w[j] = nabla_j v0 = v0 X_j = i*lam_j v0 - b[j], shape
    (n, N); and c_ij = sum_k f^k_ij mu_k, an n x n matrix. Cost: O(n^3 +
    n N^2) time, O(n^2 + n N) memory.
    """
    b = v0 @ mats
    return b, 1j * lambdas[:, None] * v0[None, :] - b, np.tensordot(mu, f, axes=1)


def torsion(
    pre: MetricPreCalculus,
    conn: Connection,
    f: StructureConstants,
    anchor: AnchorMap,
) -> np.ndarray:
    """Torsion vectors T[i, j] = v0 (mu_j X_i - mu_i X_j - sum_k f^k_ij mu_k).

    With w_i = v0 X_i and c_ij = sum_k f^k_ij mu_k this is
    T[i, j] = mu_j w_i - mu_i w_j - c_ij v0. Result has shape (n, n, N)
    and is exactly antisymmetric in (i, j). Cost: O(n^3 + n^2 N + n N^2)
    time, O(n^2 N + n N) memory beside f.
    """
    _, w, c = _factors(pre.basis.mats, f.f, anchor.v0, anchor.mu, conn.lambdas)
    return _torsion(anchor.mu, anchor.v0, w, c)


def _torsion(mu: np.ndarray, v0: np.ndarray, w: np.ndarray, c: np.ndarray) -> np.ndarray:
    """:func:`torsion` from the factors of ``_factors``."""
    return mu[None, :, None] * w[:, None, :] - mu[:, None, None] * w[None, :, :] - c[:, :, None] * v0


# The rows i of phi[i, jk] that the Koszul checks form at a time: each
# (rows, n^2) float array of a block stays within this many bytes, with one
# row at the least. Calls up to n = 64 are one block.
_BLOCK_BYTES = 2 << 20


def _row_blocks(n: int):
    """Consecutive slices of range(n), each within the ``_BLOCK_BYTES`` of its (rows, n^2) arrays."""
    step = max(1, _BLOCK_BYTES // (8 * n * n))
    return (slice(i, i + step) for i in range(0, n, step))


def _phi_rows(mu: np.ndarray, c: np.ndarray, rows: slice) -> np.ndarray:
    """phi[i, jk] = -mu_i c_jk + mu_j c_ki + mu_k c_ij for the rows i in ``rows``, shape (rows, n^2)."""
    phi = -np.multiply.outer(mu[rows], c) + mu[:, None] * c.T[rows, None, :] + c[rows, :, None] * mu
    return phi.reshape(len(phi), -1)


class _KoszulParts(NamedTuple):
    """The factors of every Koszul gap's orthogonal split (:func:`koszul_residual`).

    For the triple (i, j, k), jk the flat index j n + k, nu = |v0|^2 and
    phi from ``_phi_rows``,

        X_perp = mu_j mu_k p_perp[i] - mu_i A_perp[:, jk],
        Z = mu_j mu_k b_z[i] + mu_i B_z[:, jk] - phi[i, jk] v0.
    """

    x: float
    mu: np.ndarray
    v0: np.ndarray
    c: np.ndarray
    nu: float
    p_perp: np.ndarray
    A_perp: np.ndarray
    b_z: np.ndarray
    B_z: np.ndarray


def _pair_terms(mu: np.ndarray, a: np.ndarray) -> np.ndarray:
    """M[:, jk] = mu_j a_k - mu_k a_j for the rows a_j of ``a``, shape (N, n^2)."""
    t = mu[None, :, None] * a.T[:, None, :]
    return (t - t.transpose(0, 2, 1)).reshape(a.shape[1], -1)


def _koszul_parts(mats, x, v0, mu, b, w, c) -> _KoszulParts:
    """The ``_KoszulParts`` of a connection, from the factors of ``_factors``.

    A_perp and B_z are the only (N, n^2) arrays; phi is left to
    ``_phi_rows``. Cost: O(n^2 N + n N^2) time and memory.
    """
    nu = float(np.vdot(v0, v0).real)
    # nabla_i e_j = mu_j w_i with w_i the connection applied to v0;
    # X = mu_j mu_k p_i - mu_i A_jk - phi_ijk conj(v0) and
    # Y = mu_j mu_k b_i + mu_i B_jk, with A_jk = mu_j a_k - mu_k a_j
    a = mats @ v0.conj()
    p = 2.0 * w.conj() - a
    # alpha = outer(p_v, mumu) - outer(mu, A_v) - phi, folded into the parts
    A_perp = _pair_terms(mu, a)
    A_v = (v0 @ A_perp) / nu
    A_perp -= np.outer(v0.conj(), A_v)
    B_z = _pair_terms(mu, b)
    B_z -= np.outer(v0, A_v)
    p_v = (p @ v0) / nu
    return _KoszulParts(x, mu, v0, c, nu, p - np.outer(p_v, v0.conj()), A_perp, b + np.outer(p_v, v0), B_z)


def _parts_of(pre: MetricPreCalculus, conn: Connection, f: StructureConstants, anchor: AnchorMap):
    """The ``_KoszulParts`` of the arguments of :func:`koszul_residual`."""
    b, w, c = _factors(pre.basis.mats, f.f, anchor.v0, anchor.mu, conn.lambdas)
    return _koszul_parts(pre.basis.mats, pre.metric_scale, anchor.v0, anchor.mu, b, w, c)


def koszul_residual(
    pre: MetricPreCalculus,
    conn: Connection,
    f: StructureConstants,
    anchor: AnchorMap,
) -> float:
    """Largest Frobenius norm of the six-term Koszul gap over all triples.

    With e_i = mu_i v0 and derivations acting as commutators, the gap of
    triple (i, j, k) is the N x N matrix LHS - RHS of

        2 h(nabla_i e_j, e_k) = d_i h(e_j, e_k) + d_j h(e_i, e_k)
            - d_k h(e_i, e_j) - h(e_i, phi([D_j, D_k]))
            + h(e_j, phi([D_k, D_i])) + h(e_k, phi([D_i, D_j])),

    and the result is |x| times the largest |gap_ijk|_F, an upper bound
    on its largest entry. Every term is a column times v0 or conj(v0)
    times a row: with P = conj(v0) (x) v0, d_j P = (D_j conj(v0)) (x) v0
    - conj(v0) (x) (v0 D_j), the LHS is conj(w_i) (x) v0 and the
    phi-bracket terms are multiples of P. So gap_ijk = X (x) v0 +
    conj(v0) (x) Y with X, Y in C^N. Splitting X = alpha conj(v0) + X_perp
    with alpha = X . v0 / |v0|^2 makes the two parts orthogonal:
    |gap_ijk|_F^2 = |v0|^2 (|X_perp|^2 + |Z|^2), Z = Y + alpha v0, and the
    phi-bracket terms enter through alpha alone (``_KoszulParts``). Both
    norms are summed one vector component at a time on (rows, n^2)
    arrays, a block of rows i at a time (``_row_blocks``), with no
    cancelling Gram expansion, so a witness reads round-off. Cost:
    O(n^3 N + n N^2) time, O(n^2 N + n N^2) memory beside f: at n = 121
    (N = 12), 0.24 s and 15 MiB above entry on 2 cores.
    """
    return _koszul_exact(_parts_of(pre, conn, f, anchor))


def _koszul_exact(parts: _KoszulParts) -> float:
    """:func:`koszul_residual` from its parts."""
    mu, v0, nu = parts.mu, parts.v0, parts.nu
    mumu = np.outer(mu, mu).ravel()
    peak = 0.0
    for rows in _row_blocks(len(mu)):
        phi = _phi_rows(mu, parts.c, rows)
        total = np.zeros(phi.shape)
        part = np.empty(phi.shape)
        for s in range(len(v0)):
            # X_perp = p_perp (x) mumu - mu (x) A_perp and
            # Z = b_z (x) mumu + mu (x) B_z - v0_s phi at component s, one
            # real or imaginary part at a time, each a rank-2 BLAS product
            for col, row, shift in ((parts.p_perp[rows, s], -parts.A_perp[s], 0.0),
                                    (parts.b_z[rows, s], parts.B_z[s], -v0[s])):
                for take in (np.real, np.imag):
                    np.matmul(np.stack([take(col), mu[rows]], axis=1), np.stack([mumu, take(row)]), out=part)
                    if shift:
                        part += take(shift) * phi
                    total += np.square(part, out=part)
        peak = max(peak, float(np.max(total)))
    return abs(parts.x) * float(np.sqrt(nu * peak))


def _bound_of(parts: _KoszulParts) -> float:
    """An upper bound on :func:`koszul_residual`, free of its triple loop, from its parts.

    :func:`koszul_residual` splits every gap orthogonally, |gap_ijk|_F^2 =
    nu (|X_perp|^2 + |Z|^2) with nu = |v0|^2 and X_perp, Z as in
    ``_KoszulParts``, so the residual is |x| sqrt(nu) times
    max_ijk sqrt(|X_perp|^2 + |Z|^2). With
    m = max |mu|^2, at least every |mu_j mu_k|, a = max_jk |A_perp[:, jk]|
    and b = max_jk |B_z[:, jk]|, the triangle inequality gives, for
    every j and k,

        |X_perp| <= |p_perp[i]| m + |mu_i| a,
        |Z| <= |b_z[i]| m + |mu_i| b + sqrt(nu) max_jk |phi[i, jk]|,

    so the residual is at most |x| sqrt(nu) max_i sqrt(X_i^2 + Z_i^2),
    X_i and Z_i the two right-hand sides. At a witness every factor is
    round-off: v0 is a common eigenvector with the connection's own
    eigenvalues, which makes p_perp, A_perp, b_z and B_z vanish, and mu
    is zero on [g, g], which makes phi vanish. Both are computed from
    the same factors, so the bound can fall below the computed residual
    only by the round-off of the norms, a few ulps relative, which the
    half-cut margin of ``_passes_all_checks`` absorbs. phi's row maxima
    are read a block of rows at a time (``_row_blocks``). Cost:
    O(n^2 N + n^3 + n N^2) time, O(n^2 N + n N^2) memory beside f.
    """
    mu = np.abs(parts.mu)
    m = float(np.max(mu)) ** 2
    a = float(np.max(np.linalg.norm(parts.A_perp, axis=0)))
    b = float(np.max(np.linalg.norm(parts.B_z, axis=0)))
    root = float(np.sqrt(parts.nu))
    phi = [np.max(np.abs(_phi_rows(parts.mu, parts.c, rows)), axis=1) for rows in _row_blocks(len(mu))]
    X = np.linalg.norm(parts.p_perp, axis=1) * m + mu * a
    Z = np.linalg.norm(parts.b_z, axis=1) * m + mu * b + root * np.concatenate(phi)
    return abs(parts.x) * root * float(np.max(np.hypot(X, Z)))


def _witness_cuts(mats: np.ndarray, x: float, tol: Tolerance) -> tuple[float, float]:
    """``(thr, rcc_cut)``: thr = 100 tol.cut(max(1, max|D|) max(1, |x|)) and
    rcc_cut = tol.cut(max(1, max|D|)), max|D| the largest entry of ``mats``."""
    scale = max(1.0, max_norm(mats))
    return 100.0 * tol.cut(scale * max(1.0, abs(x))), tol.cut(scale)


def _passes_all_checks(
    mats: np.ndarray,
    x: float,
    f: np.ndarray,
    v0: np.ndarray,
    mu: np.ndarray,
    lambdas: np.ndarray,
    tol: Tolerance,
) -> dict:
    """Residuals of the four Levi-Civita checks plus an overall verdict.

    The connection nabla_j v = i*lam_j v - v D_j, with D_j the basis
    ``mats``, is checked with anchor phi(D_j) = mu_j v0 against the
    bracket tensor ``f`` at metric scale x, in one pass: the factors of
    ``_factors`` and ``_KoszulParts`` are formed once and every check
    reads them. Each residual passes at or below thr of
    ``_witness_cuts``, rcc below its own cut. The Koszul check is
    certified by the bound of ``_bound_of`` when it is at most
    thr / 2, the other half being the margin for its round-off; otherwise
    the exact O(n^3 N) residual of :func:`koszul_residual` decides.
    Either way the verdict is the exact residual's. ``koszul`` holds the
    value that decided and ``koszul_certificate`` says which, ``"bound"``
    or ``"exact"``. Cost: O(n^2 N + n^3 + n N^2) time with the bound,
    O(n^3 N + n N^2) without; O(n^2 N + n N^2) memory beside f either
    way (measured in :func:`levi_civita_connection`).
    """
    thr, rcc_cut = _witness_cuts(mats, x, tol)
    b, w, c = _factors(mats, f, v0, mu, lambdas)
    # the largest Euclidean norm of a torsion vector T[i, j]
    t_norm = float(np.max(np.linalg.norm(_torsion(mu, v0, w, c), axis=2)))
    rcc_res = float(max_norm(w))
    mc = _metric_compat(mats, x)
    parts = _koszul_parts(mats, x, v0, mu, b, w, c)
    kz, certificate = _bound_of(parts), "bound"
    if kz > 0.5 * thr:
        kz, certificate = _koszul_exact(parts), "exact"
    return {
        "torsion": t_norm,
        "rcc": rcc_res,
        "metric_compatibility": mc,
        "koszul": kz,
        "koszul_certificate": certificate,
        "ok": bool(rcc_res <= rcc_cut and t_norm <= thr and mc <= thr and kz <= thr),
    }


def levi_civita_connection(
    pre: MetricPreCalculus,
    split: LeviSplit,
    anchor: AnchorMap,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[Optional[Connection], dict]:
    """The Levi-Civita connection of ``anchor``, or ``None``, with the checks that decided.

    The real-connection-calculus condition nabla_j v0 = 0 reads
    v0 D_j = i lam_j v0, so lam_j = Im(v0 D_j v0^dagger) for unit v0 is
    the only candidate: an anchor map has at most one Levi-Civita
    connection, and no second one needs comparing. The four checks run
    on the candidate's frame form, against the frame tensor ``split.f``
    of ``split = levi_split_compact(pre.basis)``, which obeys Jacobi
    because the split found the span closed. The checks are multilinear
    in the derivations and homogeneous in mu, so a connection passes them
    exactly when its frame form does: the frame E with mu_E = T mu
    scaled to unit norm and lambda_E = T lambda. There round-off does
    not grow with the norms of the D_i, and the cut does not grow with
    products of them. The frame form's arrays go to
    ``_passes_all_checks`` as they are, checked as the constructors of
    its bracket tensor, anchor and connection would check them. Returns
    the connection when ``checks["ok"]`` holds, else ``None``, and the
    checks of ``_passes_all_checks``. Cost: O(n N^2) for lambda, plus
    O(n^2 N + n^3 + n N^2) time when the Koszul bound certifies and
    O(n^3 N + n N^2) when the exact Koszul check decides, in
    O(n^2 N + n N^2) memory beside f_E either way. On su(k) plus a
    center in su(k + 1), generic, at its witness (2 cores, numpy 2.4):
    19 MiB above entry at n = 169 (N = 14), where f_E is 37 MiB, and
    71 MiB in 0.34 to 0.41 s at n = 289 (N = 18), where f_E is 184 MiB.
    """
    basis = pre.basis
    conn = Connection(((anchor.v0 @ basis.mats) @ anchor.v0.conj()).imag)
    mu_E = basis.T @ anchor.mu
    f = _constants_array(split.f)
    v0, mu = _anchor_arrays(anchor.v0, mu_E / _scaled_norm(mu_E), tol)
    lambdas = _lambdas_array(basis.T @ conn.lambdas)
    checks = _passes_all_checks(basis.E, pre.metric_scale, f, v0, mu, lambdas, tol)
    return (conn if checks["ok"] else None), checks


def decide_existence(pre: MetricPreCalculus, tol: Tolerance = DEFAULT_TOL) -> ExistenceReport:
    """Decide whether some metric anchor map admits a Levi-Civita connection.

    The criterion: existence holds exactly when the algebra is not
    semisimple and its matrices share a common (left) eigenvector. On
    the positive branch a witness is constructed -- v0 from the common
    eigenvector with connection coefficients from its eigenvalues, mu
    supported on the abelian part -- and re-verified against all four
    checks before being reported.

    Rank and zero decisions, in order:

    1. closure of the frame brackets, by a cut free of the D_i's norms.
       Jacobi is no decision of its own: closure bounds the frame
       tensor's Jacobi defect by 3 c^2, c its cut, which is below that
       tensor's zero cut for tol.rel up to 1/6
       (:func:`levi_split_compact`). In a sweep at tol.rel 0.1, 0.2
       and 0.5, the 552 perturbed spans of the random test family that
       passed closure read at most 0.093 of that zero cut, past 1/6
       too; at tol.rel >= 1 :class:`LieBasis` rejects every basis, as
       no singular value exceeds tol.rel times the largest;
    2. frame rank: the basis is independent (decided when the
       :class:`LieBasis` was built, on its normalized elements);
    3. the rank r of M, the frame's bracket tensor as an n x n^2 matrix:
       one SVD gives semisimplicity (r = n, the semisimple exit), [g, g]
       and the center, and mu_obstruction_dim = n - r;
    4. the common left nullspace of [g, g] (the no-common-eigenvector
       exit);
    5. eigenvalue grouping in the eigenspace intersection;
    6. the witness residuals against 100 times the cutoff, the Koszul
       residual certified by its O(n^2 N + n^3) bound when that bound is
       at most half of it, by the exact O(n^3 N) check otherwise.

    mu needs no solve: every bracket lies in [g, g], so the anchor
    system vanishes and any mu that is zero on [g, g] admits a
    connection. For the first center direction z of the split, mu is 1
    on z's unit coefficient vector in the user's basis and 0 on z's
    orthogonal complement, its largest entry made positive. The
    Killing singular values are reported, not decided on; the Killing
    matrix is read off the split (:func:`killing_form`).

    The witness connection is the one that
    :func:`levi_civita_connection` finds for the anchor and checks in
    its frame form against the frame tensor of the split; its lambda is
    the common eigenvector's. The reported Koszul residual is the value that
    decided: the bound of ``_bound_of`` or the largest per-triple
    Frobenius norm of :func:`koszul_residual`, both upper bounds on the
    largest gap entry; ``diagnostics["koszul_certificate"]`` says which,
    ``"bound"`` or ``"exact"``, on Exists reports. Cost:
    O(n^2 N^3 + n^3 N^2 + n^4) time (the frame brackets, their BLAS
    projection onto E and the split SVD; the Killing form is O(n^3), the
    Koszul bound O(n^2 N + n^3)), O(n^3 + n^2 N^2) memory.
    """
    basis = pre.basis
    split = levi_split_compact(basis, tol)
    diagnostics = {
        "killing_singular_values": np.linalg.svd(killing_form(basis, split), compute_uv=False).tolist(),
        "mu_obstruction_dim": split.radical_dim,
    }
    if split.radical_dim == 0:
        diagnostics["semisimple"] = True
        return ExistenceReport(NONEXISTENT, REASON_SEMISIMPLE, None, diagnostics)
    diagnostics["semisimple"] = False
    found = common_left_eigenvector(basis, split.ss_basis, tol)
    if found is None:
        diagnostics["common_eigenvector"] = False
        return ExistenceReport(
            NONEXISTENT, REASON_NO_COMMON_EIGENVECTOR, None, diagnostics
        )
    diagnostics["common_eigenvector"] = True
    diagnostics["eigenvector_residual"] = found.residual
    # mu_E = c z with c = |T^T z|, the norm of z's user coefficients
    z = split.radical_basis[0]
    mu = basis.T_inv @ z * _scaled_norm(z @ basis.T)
    lead = int(np.argmax(np.abs(mu) >= np.max(np.abs(mu)) * (1.0 - 1e-8)))
    if mu[lead] < 0:
        mu = -mu
    anchor = AnchorMap(found.v, mu, tol)
    conn, checks = levi_civita_connection(pre, split, anchor, tol)
    diagnostics["witness_residuals"] = {
        key: checks[key] for key in ("torsion", "metric_compatibility", "koszul", "rcc")
    }
    diagnostics["koszul_certificate"] = checks["koszul_certificate"]
    if conn is None:
        raise WitnessVerificationFailed(
            f"constructed witness failed verification: {diagnostics['witness_residuals']}"
        )
    return ExistenceReport(EXISTS, REASON_WITNESS, (anchor, conn), diagnostics)
