"""Seeded spec generator with known answers, independent of realcalc.

Every spec file is written from numpy arrays built here; the known
answer comes from how the input was constructed, never from running the
library. Algebras are given in a *generic presentation*: conjugated by
a seeded random unitary and re-expressed in a well-conditioned random
real basis (scales 0.5 to 2).

A workload is a fixed mix of *kinds*, one per input the workload lists.
Each kind belongs to the small or the large class, is called once per
cycle of the mix, and has ``POOL`` seeded instances that the cycles
visit in turn. No record of user traffic exists to weight the kinds by,
so every listed input counts the same.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Seeded instances per kind: repeated calls on one input are not all the
# benchmark sees, yet the files stay few enough to write quickly.
POOL = 3

EXISTS = ("Exists", "Witness")
SEMISIMPLE = ("Nonexistent", "SemisimpleObstruction")
NO_EIGENVECTOR = ("Nonexistent", "NoCommonEigenvector")


@dataclass(frozen=True)
class Kind:
    name: str
    klass: str  # "small" or "large"
    build: Callable  # (rng, repository root) -> (spec dict, known answer dict)


# ---------------------------------------------------------------------------
# Algebras


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


def embed(mats: list[np.ndarray], N: int, offset: int) -> list[np.ndarray]:
    k = mats[0].shape[0]
    out = []
    for m in mats:
        big = np.zeros((N, N), dtype=complex)
        big[offset : offset + k, offset : offset + k] = m
        out.append(big)
    return out


def block_with_center(k: int, N: int) -> list[np.ndarray]:
    """su(k) in the leading block of su(N) plus the balancing center."""
    diag = np.full(N, -k, dtype=complex)
    diag[:k] = N - k
    return embed(su_basis(k), N, 0) + [1j * np.diag(diag)]


def doubled_with_center(k: int) -> list[np.ndarray]:
    """su(k) acting diagonally on C^k (+) C^k, plus diag(i, ..., -i, ...)."""
    mats = [a + b for a, b in zip(embed(su_basis(k), 2 * k, 0), embed(su_basis(k), 2 * k, k))]
    diag = np.concatenate([np.ones(k), -np.ones(k)]).astype(complex)
    return mats + [1j * np.diag(diag)]


def random_unitary(rng: np.random.Generator, N: int) -> np.ndarray:
    z = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def mixing(rng: np.random.Generator, n: int) -> np.ndarray:
    """Well-conditioned random real basis change with scales in [0.5, 2]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q @ np.diag(rng.uniform(0.5, 2.0, size=n))


def generic(rng: np.random.Generator, mats: list[np.ndarray]):
    """(U, T, mixed stack): D'_a = sum_i T[a, i] U^dagger D_i U."""
    stack = np.array(mats)
    U = random_unitary(rng, stack.shape[1])
    T = mixing(rng, stack.shape[0])
    conj = np.einsum("ba,ibc,cd->iad", U.conj(), stack, U)
    return U, T, np.einsum("ai,irs->ars", T, conj)


# ---------------------------------------------------------------------------
# JSON encoding


def cplx(z) -> list[float]:
    return [float(z.real), float(z.imag)]


def matrix_out(m: np.ndarray) -> list:
    return [[cplx(z) for z in row] for row in m]


def grid_out(grid: np.ndarray) -> list:
    return [[matrix_out(m) for m in row] for row in grid]


def matrix_in(rows) -> np.ndarray:
    return np.array([[complex(*z) if isinstance(z, list) else complex(z) for z in row] for row in rows])


def algebra_spec(stack: np.ndarray, metric_scale: float = 1.0) -> dict:
    return {
        "N": int(stack.shape[1]),
        "basis": [{"name": f"D{i + 1}", "matrix": matrix_out(m)} for i, m in enumerate(stack)],
        "metric_scale": metric_scale,
    }


def fixture(root: Path, name: str) -> dict:
    with open(root / "src" / "realcalc" / "fixtures" / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Kinds: row module (analyze)


def row_kind(mats_fn, answer):
    def build(rng, root):
        _, _, stack = generic(rng, mats_fn(root))
        return algebra_spec(stack), {"status": answer[0], "reason": answer[1]}

    return build


def fixture_mats(name: str):
    def mats(root):
        return [matrix_in(e["matrix"]) for e in fixture(root, name)["basis"]]

    return mats


# ---------------------------------------------------------------------------
# Kinds: projective


def trivial_data(rng: np.random.Generator, stack: np.ndarray) -> dict:
    """Trivial projection over the given derivations with a random block metric.

    The blocks are hermitian and symmetric in their indices and a
    diagonal shift makes the stacked matrix positive definite, so the
    inverse blocks are the blockwise inverse. p^k_i = delta^k_i 1 makes
    both sides of the criterion vanish, so it holds for every metric.
    """
    n, N = stack.shape[0], stack.shape[1]
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
    return {
        "N": N,
        "n": n,
        "derivations": [matrix_out(m) for m in stack],
        "p": grid_out(p),
        "h": grid_out(h),
        "h_inv": grid_out(h_inv),
    }


def trivial_kind(k: int):
    def build(rng, root):
        _, _, stack = generic(rng, su_basis(k))
        return trivial_data(rng, stack), {"holds": True}

    return build


def grid_fixture_kind(name: str):
    """A p/h/h_inv fixture whose criterion holds, in a generic presentation.

    The generators e_i and the derivations D_i share one index, so both
    change together: D'_a = T_ai D_i and e'_a = T_ai e_i. Then p is a
    (1,1)-tensor, h is covariant and h_inv contravariant in that index,
    and every matrix is conjugated by the same unitary. The criterion
    is covariant under this change, so the fixture's verdict carries over.
    """

    def build(rng, root):
        raw = fixture(root, name)
        U, T, stack = generic(rng, [matrix_in(m) for m in raw["derivations"]])
        S = np.linalg.inv(T)

        def grid(key):
            g = np.array([[matrix_in(m) for m in row] for row in raw[key]])
            return np.einsum("ba,klbc,cd->klad", U.conj(), g, U)

        spec = {
            "N": raw["N"],
            "n": raw["n"],
            "derivations": [matrix_out(m) for m in stack],
            "p": grid_out(np.einsum("ai,kirs,kb->bars", T, grid("p"), S)),
            "h": grid_out(np.einsum("ia,jb,abrs->ijrs", T, T, grid("h"))),
            "h_inv": grid_out(np.einsum("ck,dl,cdrs->klrs", S, S, grid("h_inv"))),
        }
        return spec, {"holds": True}

    return build


def mat2_rank1(rng, root):
    """The corner-anchor example under a random unitary conjugation only.

    Its known answer names an index triple, so the derivation basis is
    kept. Conjugating every matrix by one unitary conjugates each residual
    matrix; the two failing triples (1,2,3) and (1,3,2) keep equal
    residuals, and the report names the first.
    """
    raw = fixture(root, "mat2_rank1")
    U = random_unitary(rng, raw["N"])
    conj = lambda m: U.conj().T @ matrix_in(m) @ U
    spec = {
        "N": raw["N"],
        "n": raw["n"],
        "derivations": [matrix_out(conj(m)) for m in raw["derivations"]],
        "X": [matrix_out(conj(m)) for m in raw["X"]],
        "Y": [matrix_out(conj(m)) for m in raw["Y"]],
    }
    return spec, {"holds": False, "worst_index": [1, 2, 3]}


# ---------------------------------------------------------------------------
# Workloads


WORKLOADS: dict[str, dict] = {
    "row-exists": {
        "command": "analyze",
        "format": "text",
        "kinds": [
            Kind("su2c-su3", "small", row_kind(lambda r: block_with_center(2, 3), EXISTS)),
            Kind("su3c-su4", "small", row_kind(lambda r: block_with_center(3, 4), EXISTS)),
            Kind("gc_su4", "small", row_kind(fixture_mats("gc_su4"), EXISTS)),
            Kind("abelian1", "small", row_kind(fixture_mats("abelian1"), EXISTS)),
            Kind("su5c-su6", "large", row_kind(lambda r: block_with_center(5, 6), EXISTS)),
        ],
    },
    "row-obstructed": {
        "command": "analyze",
        "format": "text",
        "kinds": [
            Kind("su3", "small", row_kind(lambda r: su_basis(3), SEMISIMPLE)),
            Kind("su4", "small", row_kind(lambda r: su_basis(4), SEMISIMPLE)),
            Kind("su2", "small", row_kind(fixture_mats("su2"), SEMISIMPLE)),
            Kind("ga_su4", "small", row_kind(fixture_mats("ga_su4"), SEMISIMPLE)),
            Kind("gb_su4", "small", row_kind(fixture_mats("gb_su4"), NO_EIGENVECTOR)),
            Kind("su7", "large", row_kind(lambda r: su_basis(7), SEMISIMPLE)),
            Kind("dbl-su5c-su10", "large", row_kind(lambda r: doubled_with_center(5), NO_EIGENVECTOR)),
        ],
    },
    "proj-trivial": {
        "command": "projective",
        "format": "json",
        "kinds": [
            Kind("mat2_rank1", "small", mat2_rank1),
            Kind("free_trivial", "small", grid_fixture_kind("free_trivial")),
            Kind("abelian_free", "small", grid_fixture_kind("abelian_free")),
            Kind("trivial-su2", "small", trivial_kind(2)),
            Kind("trivial-su3", "small", trivial_kind(3)),
            Kind("trivial-su4", "large", trivial_kind(4)),
        ],
    },
}


def write_specs(workload: str, seed: int, root: Path, out: Path) -> dict:
    """Write every spec of a workload and return its manifest.

    The manifest lists, per kind, the files of its pool with their known
    answers, plus a sha256 over all spec bytes so that repeated set-ups
    can be checked for determinism.
    """
    wl = WORKLOADS[workload]
    out.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    kinds = []
    for index, kind in enumerate(wl["kinds"]):
        rng = np.random.default_rng([seed, index])
        files = []
        for copy in range(POOL):
            spec, answer = kind.build(rng, root)
            path = out / f"{kind.name}-{copy}.json"
            text = json.dumps(spec)
            path.write_text(text, encoding="utf-8")
            digest.update(text.encode())
            files.append({"path": str(path), "answer": answer})
        kinds.append({"name": kind.name, "class": kind.klass, "files": files})
    manifest = {
        "workload": workload,
        "seed": seed,
        "command": wl["command"],
        "format": wl["format"],
        "kinds": kinds,
        "spec_sha256": digest.hexdigest(),
    }
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return manifest
