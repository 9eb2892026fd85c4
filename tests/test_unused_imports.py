"""No module CI lints imports a name it never uses (ruff's ``F401``).

CI runs ``ruff check src tests benchmarks examples tools``; ruff is not
needed to run this.  The check parses each file with :mod:`ast`: an
import is used when its bound name is read anywhere in the module, listed
in ``__all__``, or named in a string annotation.  Re-exports in
``src/repro/**/__init__.py`` (ruff's per-file ignore) and lines carrying
``# noqa`` are exempt, and so is ``from __future__``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LINTED = ("src", "tests", "benchmarks", "examples", "tools")


def _annotation_names(node):
    """Names read by the string annotations inside *node*."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                tree = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            yield from (n.id for n in ast.walk(tree) if isinstance(n, ast.Name))


def unused_imports(path):
    """``line: name`` of every import in *path* whose name goes unused."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    imported = []  # (line, bound name, as written)
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, bound, alias.name))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used.update(_annotation_names(node.returns))
        elif isinstance(node, ast.AnnAssign):
            used.update(_annotation_names(node.annotation))
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                used.update(
                    c.value for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)
                )
    return [f"{line}: {written}" for line, bound, written in imported if bound not in used]


def linted_files():
    for top in LINTED:
        for path in sorted((ROOT / top).rglob("*.py")):
            relative = path.relative_to(ROOT)
            if relative.parts[0] == "src" and path.name == "__init__.py":
                continue
            yield relative, path


def test_no_linted_module_imports_a_name_it_never_uses():
    found = [
        f"{relative}:{hit}" for relative, path in linted_files() for hit in unused_imports(path)
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import List, Optional  # noqa: F401\n"
        "from typing import Dict, Tuple\n"
        "__all__ = ['Tuple']\n"
        "def f(x: 'Dict[str, int]') -> None:\n"
        "    return sys.argv\n"
    )
    assert unused_imports(module) == ["2: os"]
