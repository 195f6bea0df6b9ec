"""Every public function of the library is used by the library or measured.

A function in a layer's ``__all__`` that no module of ``src/realcalc``
refers to, and that the benchmark's ``per_layer`` block does not trace,
is a helper that only tests call; such helpers belong in
``tests/support.py``.
"""

import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "realcalc").glob("*.py"))


def public_functions(tree: ast.Module) -> set[str]:
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in exported
    }


def referenced_names(tree: ast.Module) -> set[str]:
    """Every name read as a variable or an attribute, definitions and imports excluded."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def benchmarked() -> set[tuple[str, str]]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {tuple(metric["name"].split(".")[:2]) for metric in bench["per_layer"]}


def test_every_public_function_is_used_or_benchmarked():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    used = set().union(*(referenced_names(tree) for tree in trees.values()))
    traced = benchmarked()
    unused = sorted(
        f"{layer}.{name}"
        for layer, tree in trees.items()
        for name in public_functions(tree)
        if name not in used and (layer, name) not in traced
    )
    assert unused == []
