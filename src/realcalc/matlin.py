"""Dense complex linear-algebra kernel for small matrices.

All values are plain numpy arrays: square complex matrices (2-d) and
row vectors (1-d). Module elements are rows acted on by *right*
multiplication (``v @ a``), so every eigenproblem in this package is a
left eigenproblem (``v @ a == lam * v``) and every basis returned here
is a stack of orthonormal rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "as_matrix",
    "as_row_vector",
    "max_norm",
    "bracket",
    "is_antihermitian_tracefree",
    "left_nullspace",
    "antihermitian_eigen",
    "real_nullspace",
    "real_row_space",
]


@dataclass(frozen=True)
class Tolerance:
    """Relative/absolute threshold pair for all rank and zero decisions.

    A quantity of magnitude ``m``, measured on a problem of scale ``s``,
    counts as zero when ``m <= abs + rel * s``.
    """

    rel: float = 1e-9
    abs: float = 1e-12

    def __post_init__(self):
        # NaN fails every comparison and an infinite threshold makes every
        # rank zero, so both would surface later as a verdict on the input
        for name, value in (("rel", self.rel), ("abs", self.abs)):
            if not math.isfinite(value):
                raise ValueError(f"Tolerance.{name} must be finite, got {value}")
        if not self.rel > 0:
            raise ValueError("Tolerance.rel must be positive")
        if self.abs < 0:
            raise ValueError("Tolerance.abs must be nonnegative")

    def cut(self, scale: float) -> float:
        """Threshold below which a value of the given scale is zero."""
        return self.abs + self.rel * float(scale)


DEFAULT_TOL = Tolerance()

# Eigenvalues closer than this fraction of (spectral diameter + 1) merge
# into a single eigenspace; over-splitting starves the eigenspace
# intersections performed downstream.
EIGEN_GROUP_REL = 1e-6


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex array with finite entries."""
    arr = np.array(a, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    return arr


def as_row_vector(v) -> np.ndarray:
    """Coerce to a 1-d complex array with finite entries."""
    arr = np.array(v, dtype=complex)
    if arr.ndim != 1:
        raise ValueError(f"expected a row vector, got array of shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector entries must be finite")
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def max_norm(a) -> float:
    """Largest entry magnitude; zero for empty arrays."""
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def _require_square(a: np.ndarray, name: str = "matrix") -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")


def bracket(a, b) -> np.ndarray:
    """Commutator ``a @ b - b @ a`` of two square matrices."""
    a = as_matrix(a)
    b = as_matrix(b)
    _require_square(a)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def is_antihermitian_tracefree(a, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether ``a + a^dagger`` and ``tr a`` both vanish within tolerance."""
    a = as_matrix(a)
    _require_square(a)
    thr = tol.cut(max_norm(a))
    return max_norm(a + a.conj().T) <= thr and abs(np.trace(a)) <= thr


def left_nullspace(mats, tol: Tolerance = DEFAULT_TOL, dim: int | None = None) -> np.ndarray:
    """Orthonormal basis of ``{v : v @ M = 0 for every M in mats}``.

    The basis is returned as rows of a (m, N) array. Works via one thin
    SVD of the horizontally stacked N x N*m system; singular values
    below ``rel * s_max + abs`` count as zero. Only U is read, and it is
    N x N because m >= 1. Cost: O(m N^3) time, O(m N^2) memory (the
    stack itself). An empty input list yields the full space, in which
    case ``dim`` must supply N.
    """
    mats = [as_matrix(m) for m in mats]
    if not mats:
        if dim is None:
            raise ValueError("dim is required to take the nullspace of an empty family")
        return np.eye(dim, dtype=complex)
    n = mats[0].shape[0]
    for m in mats:
        _require_square(m)
        if m.shape[0] != n:
            raise ValueError("all matrices must share one dimension")
    stacked = np.hstack(mats)
    u, s, _ = np.linalg.svd(stacked, full_matrices=False)
    cutoff = tol.cut(s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    # v @ stacked = 0 exactly when v is spanned by the trailing left
    # singular directions; conjugation turns columns into row vectors.
    return u[:, rank:].conj().T


def antihermitian_eigen(a, tol: Tolerance = DEFAULT_TOL) -> list[tuple[complex, np.ndarray]]:
    """Left eigenpairs of an antihermitian matrix, grouped by eigenvalue.

    Returns a list of ``(eigenvalue, eigenspace)`` pairs where each
    eigenvalue is purely imaginary (real part snapped to zero) and each
    eigenspace is a stack of orthonormal rows satisfying
    ``row @ a == eigenvalue * row``. Eigenspace dimensions sum to N.

    Solves the hermitian problem for ``i*a`` and maps the real spectrum
    back by ``-i``; nearby eigenvalues merge into one eigenspace.
    """
    a = as_matrix(a)
    _require_square(a)
    if max_norm(a + a.conj().T) > tol.cut(max_norm(a)):
        raise ValueError("matrix is not antihermitian within tolerance")
    herm = 1j * a
    herm = 0.5 * (herm + herm.conj().T)
    vals, vecs = np.linalg.eigh(herm)
    # a w = -i m w for eigh pairs (m, w); the conjugate transpose of a
    # right eigenvector is a left eigenvector with the same (imaginary)
    # eigenvalue.
    width = EIGEN_GROUP_REL * (float(vals[-1] - vals[0]) + 1.0)
    groups: list[tuple[complex, np.ndarray]] = []
    start = 0
    for stop in range(1, len(vals) + 1):
        if stop == len(vals) or vals[stop] - vals[stop - 1] > width:
            mean = float(np.mean(vals[start:stop]))
            rows = vecs[:, start:stop].conj().T
            groups.append((-1j * mean, rows))
            start = stop
    return groups


def real_nullspace(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (rows) of the right nullspace of a real matrix.

    For an r x c matrix with r >= c the thin SVD already holds all c
    right singular vectors; only a wide matrix (r < c) needs the full
    c x c factor. Cost: O(r c^2) time, O(r c + c^2) memory.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d real matrix, got shape {m.shape}")
    rows, cols = m.shape
    if rows == 0:
        return np.eye(cols)
    _, s, vh = np.linalg.svd(m, full_matrices=rows < cols)
    cutoff = tol.cut(s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    return vh[rank:]


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
