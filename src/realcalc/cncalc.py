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
from typing import Optional

import numpy as np

from .matlin import DEFAULT_TOL, Tolerance, _freeze, _scaled_norm, as_row_vector, max_norm
from .liealg import (
    LieBasis,
    LeviSplit,
    StructureConstants,
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
        object.__setattr__(self, "v0", _freeze(v0))
        object.__setattr__(self, "mu", _freeze(mu))


@dataclass(frozen=True, eq=False)
class Connection:
    """Metric connection nabla_j v = i*lam_j v - v D_j (lambdas real)."""

    lambdas: np.ndarray

    def __init__(self, lambdas):
        arr = np.array(lambdas, dtype=float)
        if arr.ndim != 1:
            raise ValueError("lambdas must be a flat list of reals")
        if not np.all(np.isfinite(arr)):
            raise ValueError("lambdas must be finite")
        object.__setattr__(self, "lambdas", _freeze(arr))


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
    A = pre.basis.mats + pre.basis.mats.conj().transpose(0, 2, 1)
    return abs(pre.metric_scale) * float(np.max(np.linalg.norm(A, axis=2)))


def _connection_on_v0(conn: Connection, basis: LieBasis, anchor: AnchorMap) -> np.ndarray:
    """w[j] = nabla_j v0 = v0 X_j = i*lam_j v0 - v0 D_j, shape (n, N)."""
    v0 = anchor.v0
    return 1j * conn.lambdas[:, None] * v0[None, :] - v0 @ basis.mats


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
    time, O(n^2 N) memory.
    """
    mu = anchor.mu
    w = _connection_on_v0(conn, pre.basis, anchor)
    c = np.tensordot(mu, f.f, axes=1)
    return (
        mu[None, :, None] * w[:, None, :]
        - mu[:, None, None] * w[None, :, :]
        - c[:, :, None] * anchor.v0
    )


def _rcc_residual(conn: Connection, basis: LieBasis, anchor: AnchorMap) -> float:
    """Largest entry of i*lam_j v0 - v0 D_j over j."""
    return float(max_norm(_connection_on_v0(conn, basis, anchor)))


def _rcc_cut(basis: LieBasis, tol: Tolerance) -> float:
    return tol.cut(max(1.0, max_norm(basis.mats)))


def _koszul_parts(
    pre: MetricPreCalculus,
    conn: Connection,
    f: StructureConstants,
    anchor: AnchorMap,
) -> tuple[np.ndarray, ...]:
    """The factors of every Koszul gap's orthogonal split (:func:`koszul_residual`).

    Returns ``(p_perp, A_perp, b_z, B_z, phi, nu)`` with nu = |v0|^2, such
    that for the triple (i, j, k), jk the flat index j n + k,

        X_perp = mu_j mu_k p_perp[i] - mu_i A_perp[:, jk],
        Z = mu_j mu_k b_z[i] + mu_i B_z[:, jk] - phi[i, jk] v0.

    Cost: O(n^2 N + n^3 + n N^2) time and memory.
    """
    mats = pre.basis.mats
    mu = anchor.mu
    v0 = anchor.v0
    n, N = len(mu), len(v0)
    nu = float(np.vdot(v0, v0).real)
    # nabla_i e_j = mu_j w_i with w_i the connection applied to v0
    w = _connection_on_v0(conn, pre.basis, anchor)
    a = mats @ v0.conj()
    b = v0 @ mats
    c = np.tensordot(mu, f.f, axes=1)
    # X = mu_j mu_k p_i - mu_i A_jk - phi_ijk conj(v0) and
    # Y = mu_j mu_k b_i + mu_i B_jk, with A_jk = mu_j a_k - mu_k a_j
    p = 2.0 * w.conj() - a
    t = mu[None, :, None] * a.T[:, None, :]
    A = (t - t.transpose(0, 2, 1)).reshape(N, n * n)
    t = mu[None, :, None] * b.T[:, None, :]
    B = (t - t.transpose(0, 2, 1)).reshape(N, n * n)
    phi = -np.multiply.outer(mu, c) + mu[:, None] * c.T[:, None, :] + c[:, :, None] * mu
    phi = phi.reshape(n, n * n)
    # alpha = outer(p_v, mumu) - outer(mu, A_v) - phi, folded into the parts
    p_v = (p @ v0) / nu
    A_v = (v0 @ A) / nu
    p_perp = p - np.outer(p_v, v0.conj())
    A_perp = A - np.outer(v0.conj(), A_v)
    b_z = b + np.outer(p_v, v0)
    B_z = B - np.outer(v0, A_v)
    return p_perp, A_perp, b_z, B_z, phi, nu


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
    phi-bracket terms enter through alpha alone (``_koszul_parts``). Both
    norms are summed one vector component at a time on (n, n^2) arrays,
    with no cancelling Gram expansion, so a witness reads round-off.
    Cost: O(n^3 N + n N^2) time, O(n^3 + n^2 N) memory.
    """
    mu = anchor.mu
    v0 = anchor.v0
    n, N = len(mu), len(v0)
    p_perp, A_perp, b_z, B_z, phi, nu = _koszul_parts(pre, conn, f, anchor)
    mumu = np.outer(mu, mu).ravel()
    total = np.zeros((n, n * n))
    part = np.empty((n, n * n))
    for s in range(N):
        # X_perp = p_perp (x) mumu - mu (x) A_perp and
        # Z = b_z (x) mumu + mu (x) B_z - v0_s phi at component s, one
        # real or imaginary part at a time, each a rank-2 BLAS product
        for col, row, shift in ((p_perp[:, s], -A_perp[s], 0.0), (b_z[:, s], B_z[s], -v0[s])):
            for take in (np.real, np.imag):
                np.matmul(np.stack([take(col), mu], axis=1), np.stack([mumu, take(row)]), out=part)
                if shift:
                    part += take(shift) * phi
                total += np.square(part, out=part)
    return abs(pre.metric_scale) * float(np.sqrt(nu * np.max(total)))


def _koszul_bound(
    pre: MetricPreCalculus,
    conn: Connection,
    f: StructureConstants,
    anchor: AnchorMap,
) -> float:
    """An upper bound on :func:`koszul_residual`, free of its triple loop.

    :func:`koszul_residual` splits every gap orthogonally, |gap_ijk|_F^2 =
    nu (|X_perp|^2 + |Z|^2) with nu = |v0|^2 and X_perp, Z as in
    ``_koszul_parts``, so the residual is |x| sqrt(nu) times
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
    half-cut margin of ``_passes_all_checks`` absorbs. Cost:
    O(n^2 N + n^3 + n N^2) time and memory, that of ``_koszul_parts``.
    """
    mu = np.abs(anchor.mu)
    p_perp, A_perp, b_z, B_z, phi, nu = _koszul_parts(pre, conn, f, anchor)
    m = float(np.max(mu)) ** 2
    a = float(np.max(np.linalg.norm(A_perp, axis=0)))
    b = float(np.max(np.linalg.norm(B_z, axis=0)))
    root = float(np.sqrt(nu))
    X = np.linalg.norm(p_perp, axis=1) * m + mu * a
    Z = np.linalg.norm(b_z, axis=1) * m + mu * b + root * np.max(np.abs(phi), axis=1)
    return abs(pre.metric_scale) * root * float(np.max(np.hypot(X, Z)))


def _witness_scale(pre: MetricPreCalculus) -> float:
    return max(1.0, max_norm(pre.basis.mats)) * max(1.0, abs(pre.metric_scale))


def _passes_all_checks(
    pre: MetricPreCalculus,
    f: StructureConstants,
    anchor: AnchorMap,
    conn: Connection,
    tol: Tolerance,
) -> dict:
    """Residuals of the four Levi-Civita checks plus an overall verdict.

    Each residual passes at or below thr = 100 tol.cut(``_witness_scale``),
    rcc below its own cut. The Koszul check is certified by
    ``_koszul_bound`` when the bound is at most thr / 2, the other half
    being the margin for its round-off; otherwise the exact O(n^3 N)
    :func:`koszul_residual` decides. Either way the verdict is the exact
    residual's. ``koszul`` holds the value that decided and
    ``koszul_certificate`` says which, ``"bound"`` or ``"exact"``. Cost:
    O(n^2 N + n^3 + n N^2) with the bound, O(n^3 N + n N^2) without.
    """
    thr = 100.0 * tol.cut(_witness_scale(pre))
    # the largest Euclidean norm of a torsion vector T[i, j]
    t_norm = float(np.max(np.linalg.norm(torsion(pre, conn, f, anchor), axis=2)))
    rcc_res = _rcc_residual(conn, pre.basis, anchor)
    mc = metric_compat_residual(pre, conn)
    kz, certificate = _koszul_bound(pre, conn, f, anchor), "bound"
    if kz > 0.5 * thr:
        kz, certificate = koszul_residual(pre, conn, f, anchor), "exact"
    return {
        "torsion": t_norm,
        "rcc": rcc_res,
        "metric_compatibility": mc,
        "koszul": kz,
        "koszul_certificate": certificate,
        "ok": bool(rcc_res <= _rcc_cut(pre.basis, tol) and t_norm <= thr and mc <= thr and kz <= thr),
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
    products of them. Returns the connection when ``checks["ok"]`` holds,
    else ``None``, and the checks of ``_passes_all_checks``. Cost:
    O(n N^2) for lambda, plus O(n^2 N + n^3 + n N^2) when the Koszul
    bound certifies and O(n^3 N + n N^2) when the exact Koszul check
    decides.
    """
    basis = pre.basis
    conn = Connection(((anchor.v0 @ basis.mats) @ anchor.v0.conj()).imag)
    mu_E = basis.T @ anchor.mu
    checks = _passes_all_checks(
        MetricPreCalculus(basis.frame(), pre.metric_scale),
        StructureConstants(split.f),
        AnchorMap(anchor.v0, mu_E / _scaled_norm(mu_E), tol),
        Connection(basis.T @ conn.lambdas),
        tol,
    )
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
    decided: the bound of ``_koszul_bound`` or the largest per-triple
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
