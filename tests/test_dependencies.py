"""The package declares exactly what it imports.

Static: reads ``src/repro`` and ``pyproject.toml``, imports nothing.
Every absolute ``import`` / ``from ... import`` under ``src/repro``, at
any depth (a function's deferred import too), names a top-level module.
Take away ``repro`` itself and the standard library, and what is left
must equal ``[project] dependencies``, both ways: a declared package
nothing imports is dead weight in every install, and an imported one
nobody declared breaks the first install that lacks it.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"


def _declared() -> set:
    """The distribution names in ``[project] dependencies``.

    Read with a regex: Python 3.10, one of the supported versions, has
    no ``tomllib``.
    """
    text = (REPO / "pyproject.toml").read_text()
    project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    listed = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project, re.M | re.S)
    assert listed, "no dependencies list under [project]"
    return {
        re.match(r"[A-Za-z0-9._-]+", spec).group(0).lower().replace("-", "_")
        for spec in re.findall(r"\"([^\"]+)\"", listed.group(1))
    }


def _required_roots(node: ast.AST, optional: bool = False):
    """Top-level names of the absolute imports the module cannot run
    without.  An import inside a ``try`` that catches ``ImportError`` is
    optional: ``repro.digests`` probes interpreter built-ins that way,
    and they are not all in ``sys.stdlib_module_names`` (3.11's lacks
    ``_sha2``, 3.12's ``_sha256``)."""
    if isinstance(node, ast.Try):
        guarded = optional or any(
            isinstance(name, ast.Name)
            and name.id in ("ImportError", "ModuleNotFoundError")
            for handler in node.handlers if handler.type is not None
            for name in ast.walk(handler.type))
        for child in node.body:
            yield from _required_roots(child, guarded)
        for child in [*node.handlers, *node.orelse, *node.finalbody]:
            yield from _required_roots(child, optional)
        return
    if not optional:
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]
    for child in ast.iter_child_nodes(node):
        yield from _required_roots(child, optional)


def _third_party_imports() -> dict:
    """Top-level third-party name -> the modules under src/ importing it."""
    found: dict = {}
    for path in sorted(SRC.rglob("*.py")):
        for root in _required_roots(ast.parse(path.read_text())):
            if root != "repro" and root not in sys.stdlib_module_names:
                found.setdefault(root, set()).add(
                    path.relative_to(REPO / "src").as_posix())
    return found


def test_declared_dependencies_are_exactly_the_imported_ones():
    imported = _third_party_imports()
    declared = _declared()
    assert sorted(declared - set(imported)) == [], "declared, never imported"
    assert {root: sorted(where) for root, where in imported.items()
            if root not in declared} == {}, "imported, never declared"


def test_numpy_is_the_one_runtime_dependency():
    # The floor is 2.0: numpy 1.x imports numpy.ma with numpy itself,
    # which tests/test_import_closure.py forbids a serve/evaluate run.
    assert _declared() == {"numpy"}
    assert re.search(r'^dependencies = \["numpy>=2\.0"\]$',
                     (REPO / "pyproject.toml").read_text(), re.M)

