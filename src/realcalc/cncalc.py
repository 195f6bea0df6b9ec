"""Real metric calculi over C^N for the full matrix algebra.

The module carries the metric h(u, v) = x * u^dagger v, anchor maps of
the collinear form phi(D_j) = mu_j * v0, and connections
nabla_j v = i*lam_j v - v D_j. It verifies torsion, metric
compatibility, the real-connection-calculus condition and the Koszul
identity, and decides Levi-Civita existence with an explicit witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .matlin import DEFAULT_TOL, Tolerance, _freeze, as_row_vector, max_norm
from .liealg import (
    LieBasis,
    StructureConstants,
    anchor_solution_space,
    common_left_eigenvector,
    derived_subalgebra,
    killing_form,
    levi_split_compact,
    structure_constants,
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
    "is_metric_anchor",
    "apply_connection",
    "metric_compat_residual",
    "torsion",
    "rcc_check",
    "koszul_residual",
    "decide_existence",
    "verify_uniqueness",
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


def is_metric_anchor(
    pre: MetricPreCalculus, phi, tol: Tolerance = DEFAULT_TOL
) -> Optional[AnchorMap]:
    """Recognize a metric anchor map among candidate images phi(D_j).

    Returns the normalized (v0, mu) when every phi_j is a *real*
    multiple of one unit vector and not all of them vanish; absence
    means the family is not a metric anchor map. Hermiticity of
    h(phi_i, phi_j) = x mu_i mu_j v0^dagger v0 then holds automatically.
    """
    vectors = [as_row_vector(p) for p in phi]
    if len(vectors) != pre.basis.n:
        raise ValueError(f"expected {pre.basis.n} images, got {len(vectors)}")
    norms = [np.linalg.norm(v) for v in vectors]
    scale = max(norms)
    if scale <= tol.cut(1.0):
        return None
    ref = vectors[int(np.argmax(norms))]
    v0 = ref / np.linalg.norm(ref)
    mu = np.empty(len(vectors))
    for j, vec in enumerate(vectors):
        coeff = vec @ v0.conj()
        if max_norm(vec - coeff * v0) > tol.cut(scale):
            return None
        if abs(coeff.imag) > tol.cut(scale):
            return None
        mu[j] = coeff.real
    return AnchorMap(v0, mu, tol)


def apply_connection(conn: Connection, basis: LieBasis, j: int, v) -> np.ndarray:
    """Evaluate nabla_j v = i*lam_j v - v D_j."""
    if not 0 <= j < basis.n:
        raise IndexError(f"derivation index {j} out of range for n={basis.n}")
    v = as_row_vector(v)
    return 1j * conn.lambdas[j] * v - v @ basis.mats[j]


def _metric_compat_supremum(x: float, mats: np.ndarray, ts: np.ndarray) -> float:
    """The closed form of :func:`metric_compat_residual` for any complex t_j.

    A test hook: the connection type only admits imaginary t_j. Cost:
    O(n N^2) time and memory.
    """
    ts = np.asarray(ts, dtype=complex)
    A = mats + mats.conj().transpose(0, 2, 1)
    A -= 2.0 * ts.real[:, None, None] * np.eye(mats.shape[1])
    return abs(x) * float(np.max(np.linalg.norm(A, axis=2)))


def metric_compat_residual(pre: MetricPreCalculus, conn: Connection) -> float:
    """Supremum over unit u, v of D_j h(u,v) - h(nabla_j u, v) - h(u, nabla_j v).

    With t_j = i lam_j and derivations acting by commutators, the defect is
    x ([D_j, u^dag v] - (t_j^* - D_j^dag) u^dag v - u^dag v (t_j - D_j))
    = x A_j u^dag v with A_j = D_j + D_j^dag - 2 Re(t_j) 1. Entry (a, b) is
    x (A_j[a] . u^*) v_b, largest at u = A_j[a] / |A_j[a]| and v = e_b, so
    the supremum is |x| max_j max_a |A_j[a]|: the basis' antihermiticity
    defect, since Re t_j = 0.
    """
    return _metric_compat_supremum(pre.metric_scale, pre.basis.mats, 1j * conn.lambdas)


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


def rcc_check(
    conn: Connection,
    basis: LieBasis,
    anchor: AnchorMap,
    tol: Tolerance = DEFAULT_TOL,
) -> bool:
    """Real-connection-calculus condition: nabla annihilates v0.

    Equivalently v0 is a common left eigenvector with eigenvalues
    i*lam_j.
    """
    return _rcc_residual(conn, basis, anchor) <= _rcc_cut(basis, tol)


def koszul_residual(
    pre: MetricPreCalculus,
    conn: Connection,
    f: StructureConstants,
    anchor: AnchorMap,
) -> float:
    """Worst violation of the six-term Koszul identity over all triples.

    Evaluates, with e_i = mu_i v0 and derivations acting as commutators,

        2 h(nabla_i e_j, e_k) = d_i h(e_j, e_k) + d_j h(e_i, e_k)
            - d_k h(e_i, e_j) - h(e_i, phi([D_j, D_k]))
            + h(e_j, phi([D_k, D_i])) + h(e_k, phi([D_i, D_j]))

    and returns the largest entry of LHS - RHS over (i, j, k) and the
    matrix entries (a, b). The (j, k, a, b) entries are formed one i at a
    time by broadcasting. Cost: O(n^3 N^2) time, O(n^2 N^2) memory.
    """
    x = pre.metric_scale
    mats = pre.basis.mats
    mu = anchor.mu
    v0 = anchor.v0
    P = np.outer(v0.conj(), v0)
    dP = mats @ P - P @ mats
    # nabla_i e_j = mu_j w_i with w_i the connection applied to v0
    w = _connection_on_v0(conn, pre.basis, anchor)
    c = np.tensordot(mu, f.f, axes=1)
    mumu = np.outer(mu, mu)[:, :, None, None]
    # mu_i times this is the second plus the third term on the right
    dP_jk = mu[None, :, None, None] * dP[:, None] - mu[:, None, None, None] * dP[None, :]
    worst = 0.0
    for i in range(len(mu)):
        # LHS minus the first term on the right share the factor mu_j mu_k
        gap = mumu * (2.0 * np.outer(w[i].conj(), v0) - dP[i])
        gap -= mu[i] * dP_jk
        # the three phi-bracket terms, all multiples of P
        phi_terms = -mu[i] * c + np.outer(mu, c[:, i]) + np.outer(c[i], mu)
        gap -= phi_terms[:, :, None, None] * P
        worst = max(worst, max_norm(gap))
    return abs(x) * worst


def _witness_scale(pre: MetricPreCalculus) -> float:
    return max(1.0, max(max_norm(D) for D in pre.basis.mats)) * max(
        1.0, abs(pre.metric_scale)
    )


def _passes_all_checks(
    pre: MetricPreCalculus,
    f: StructureConstants,
    anchor: AnchorMap,
    conn: Connection,
    tol: Tolerance,
) -> dict:
    """Residuals of the four Levi-Civita checks plus an overall verdict."""
    thr = 100.0 * tol.cut(_witness_scale(pre))
    # the largest Euclidean norm of a torsion vector T[i, j]
    t_norm = float(np.max(np.linalg.norm(torsion(pre, conn, f, anchor), axis=2)))
    rcc_res = _rcc_residual(conn, pre.basis, anchor)
    mc = metric_compat_residual(pre, conn)
    kz = koszul_residual(pre, conn, f, anchor)
    return {
        "torsion": t_norm,
        "rcc": rcc_res,
        "metric_compatibility": mc,
        "koszul": kz,
        "ok": bool(rcc_res <= _rcc_cut(pre.basis, tol) and t_norm <= thr and mc <= thr and kz <= thr),
    }


def decide_existence(pre: MetricPreCalculus, tol: Tolerance = DEFAULT_TOL) -> ExistenceReport:
    """Decide whether some metric anchor map admits a Levi-Civita connection.

    The criterion: existence holds exactly when the algebra is not
    semisimple and its matrices share a common (left) eigenvector. On
    the positive branch a witness is constructed -- v0 from the common
    eigenvector with connection coefficients from its eigenvalues, mu
    supported on the abelian part -- and re-verified against all four
    checks before being reported.

    Rank and zero decisions, in the order they run: bracket closure and
    Jacobi; the rank of [g, g], built once (mu_obstruction_dim = n -
    dim [g, g], since mu solves sum_k mu_k f^k_ij = 0 exactly when it is
    orthogonal to every bracket vector); Killing nondegeneracy (the
    semisimple exit); the common left nullspace of [g, g] and its
    eigenvalue grouping (the no-common-eigenvector exit); the center
    rank; the anchor nullspace; the witness residuals against 100 times
    the cutoff. Cost: O(n^5 + n^3 N^2 + n^2 N^3) time (Jacobi check,
    Koszul check, bracket fit), O(n^3 + n^2 N^2) memory.
    """
    basis = pre.basis
    f = structure_constants(basis, tol)
    B = killing_form(f)
    svals = np.linalg.svd(B.B, compute_uv=False)
    der = derived_subalgebra(f, tol)
    diagnostics = {
        "killing_singular_values": [float(s) for s in svals],
        "mu_obstruction_dim": f.n - der.shape[0],
    }
    # Cartan's criterion, as in liealg.is_semisimple, on the values above
    if svals[-1] > tol.cut(svals[0]):
        diagnostics["semisimple"] = True
        return ExistenceReport(NONEXISTENT, REASON_SEMISIMPLE, None, diagnostics)
    diagnostics["semisimple"] = False
    found = common_left_eigenvector(basis, der, tol)
    if found is None:
        diagnostics["common_eigenvector"] = False
        return ExistenceReport(
            NONEXISTENT, REASON_NO_COMMON_EIGENVECTOR, None, diagnostics
        )
    v0, eigenvalues = found
    diagnostics["common_eigenvector"] = True
    diagnostics["eigenvector_residual"] = float(
        max(
            max_norm(v0 @ D - lam * v0)
            for D, lam in zip(basis.mats, eigenvalues)
        )
    )
    split = levi_split_compact(f, der, tol)
    mu_space = anchor_solution_space(split, f, tol)
    if mu_space.shape[0] == 0:
        raise WitnessVerificationFailed(
            "no admissible mu despite a nontrivial radical; tolerance breakdown"
        )
    # First basis vector of the solution space, pushed back to the
    # original basis coordinates and sign-normalized for reproducibility.
    S = np.vstack([split.radical_basis, split.ss_basis]).T
    mu_adapted = mu_space[0] / np.linalg.norm(mu_space[0])
    mu = mu_adapted @ np.linalg.inv(S)[: split.radical_dim, :]
    lead = int(np.argmax(np.abs(mu) >= np.max(np.abs(mu)) * (1.0 - 1e-8)))
    if mu[lead] < 0:
        mu = -mu
    anchor = AnchorMap(v0, mu, tol)
    conn = Connection(eigenvalues.imag)
    checks = _passes_all_checks(pre, f, anchor, conn, tol)
    diagnostics["witness_residuals"] = {
        "torsion": checks["torsion"],
        "metric_compatibility": checks["metric_compatibility"],
        "koszul": checks["koszul"],
        "rcc": checks["rcc"],
    }
    if not checks["ok"]:
        raise WitnessVerificationFailed(
            f"constructed witness failed verification: {diagnostics['witness_residuals']}"
        )
    return ExistenceReport(EXISTS, REASON_WITNESS, (anchor, conn), diagnostics)


def verify_uniqueness(
    pre: MetricPreCalculus,
    f: StructureConstants,
    anchor: AnchorMap,
    conn1: Connection,
    conn2: Connection,
    tol: Tolerance = DEFAULT_TOL,
) -> bool:
    """Check that two fully verified connections coincide.

    Vacuously true when either connection fails the Levi-Civita checks
    for the given anchor; false only on a genuine uniqueness violation,
    which would falsify the at-most-one theorem and is treated as a
    fatal diagnostic by callers.
    """
    ok1 = _passes_all_checks(pre, f, anchor, conn1, tol)["ok"]
    ok2 = _passes_all_checks(pre, f, anchor, conn2, tol)["ok"]
    if not (ok1 and ok2):
        return True
    return bool(max_norm(conn1.lambdas - conn2.lambdas) <= tol.cut(1.0 + max_norm(conn1.lambdas)))
