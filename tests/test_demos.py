"""The demos read only names the package provides.

Each ``demos/*.py`` is parsed, not run: every dotted name the demo reads
through a ``meyers_lab`` import (``ml.kernel_column``,
``ml.Polygon.unit_square``, ``reference.torsion_value``) and every
``from meyers_lab... import`` must resolve, so a rename in the package
cannot leave a demo broken.
"""
import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _dotted(node: ast.AST) -> list[str] | None:
    """['ml', 'Polygon', 'unit_square'] for a pure name/attribute chain."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return None if head is None else head + [node.attr]
    return None


def _package_reads(tree: ast.Module) -> set[str]:
    """Dotted meyers_lab names the demo imports or reads."""
    aliases, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                if name.name.split(".")[0] == "meyers_lab":
                    aliases[name.asname or name.name] = name.name
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "meyers_lab":
            for name in node.names:
                aliases[name.asname or name.name] = f"{node.module}.{name.name}"
                reads.add(aliases[name.asname or name.name])
    for node in ast.walk(tree):
        chain = _dotted(node) if isinstance(node, ast.Attribute) else None
        if chain and chain[0] in aliases:
            reads.add(".".join([aliases[chain[0]], *chain[1:]]))
    return reads


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:  # a submodule not yet imported
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            return False
    return True


def test_demos_exist():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_names_resolve(path):
    reads = _package_reads(ast.parse(path.read_text(encoding="utf-8")))
    assert reads, f"{path.name} reads nothing from meyers_lab"
    missing = sorted(name for name in reads if not _resolves(name))
    assert not missing, f"{path.name} reads {missing}"
