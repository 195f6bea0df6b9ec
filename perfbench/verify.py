"""Check each report against the known answer of its generated input."""

from __future__ import annotations

import json

import numpy as np

# The library's default tolerance, which sets the Koszul cut.
REL, ABS = 1e-9, 1e-12
# Reports print floats to 12 significant digits, far inside this limit.
EIGEN_LIMIT = 1e-8


def parse_text(text: str) -> dict:
    """Read the ``key: json`` lines of a text report into nested dicts."""
    root: dict = {}
    stack = [(-1, root)]
    for line in text.splitlines():
        stripped = line.lstrip(" ")
        depth = (len(line) - len(stripped)) // 2
        while stack[-1][0] >= depth:
            stack.pop()
        key, sep, rest = stripped.partition(": ")
        if sep:
            stack[-1][1][key] = json.loads(rest)
        else:
            child: dict = {}
            stack[-1][1][key.rstrip(":")] = child
            stack.append((depth, child))
    return root


def load_basis(path: str) -> np.ndarray:
    """Basis matrices of an algebra spec file, as one complex stack."""
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return np.array([[[complex(*z) for z in row] for row in e["matrix"]] for e in spec["basis"]])


def eigen_residual(mats: np.ndarray, v: np.ndarray, lambdas) -> float:
    """max_j |v D_j - i lam_j v| for a reported witness."""
    lam = np.asarray(lambdas, dtype=float)
    return float(np.max(np.abs(np.einsum("a,jab->jb", v, mats) - 1j * lam[:, None] * v[None, :])))


def check_analyze(text: str, answer: dict, mats: np.ndarray | None) -> str | None:
    """None when the report matches; otherwise why it does not."""
    report = parse_text(text)
    got = (report.get("status"), report.get("reason"))
    if got != (answer["status"], answer["reason"]):
        return f"verdict {got} != {(answer['status'], answer['reason'])}"
    if answer["status"] == "Exists":
        witness = report.get("witness")
        if not isinstance(witness, dict):
            return "Exists without a witness"
        v = np.array([complex(*z) for z in witness["v0"]])
        if abs(np.linalg.norm(v) - 1.0) > EIGEN_LIMIT:
            return "witness v0 is not a unit vector"
        scale = max(1.0, float(np.max(np.abs(mats))))
        res = eigen_residual(mats, v, witness["lambdas"])
        if res > EIGEN_LIMIT * scale:
            return f"v0 D_j != i lam_j v0 (residual {res:.3e})"
    return None


def check_projective(text: str, answer: dict) -> str | None:
    report = json.loads(text)
    if report.get("holds") is not answer["holds"]:
        return f"holds {report.get('holds')} != {answer['holds']}"
    if "worst_index" in answer and report.get("worst_index") != answer["worst_index"]:
        return f"worst_index {report.get('worst_index')} != {answer['worst_index']}"
    if answer["holds"]:
        coeffs = np.asarray(report["connection_coefficients"], dtype=float)
        cut = ABS + REL * max(1.0, float(np.max(np.abs(coeffs))))
        if not report["koszul_residual"] <= 100.0 * cut:
            return f"koszul_residual {report['koszul_residual']} above 100x cut {cut:.3e}"
    return None
