"""Every name a module of the package imports is used in it.

The modules are parsed with `ast`; `__init__.py` is left out, as its imports
are the package's public API, which `__all__` lists in full and which must
resolve name by name.
"""

import ast
from pathlib import Path

import fpkit

SRC = Path(__file__).resolve().parent.parent / "src" / "fpkit"


def unused_imports(source: str) -> list[str]:
    """The names that source imports (from __future__ aside) and never reads."""
    tree = ast.parse(source)
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                if getattr(node, "module", None) != "__future__" for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_every_module_uses_every_name_it_imports():
    unused = {path.name: names for path in sorted(SRC.glob("*.py"))
              if path.name != "__init__.py" and (names := unused_imports(path.read_text()))}
    assert unused == {}


def test_public_api_resolves_and_is_listed_in_full():
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    missing = [name for name in fpkit.__all__ if not hasattr(fpkit, name)]
    assert missing == []
    assert sorted(imported - set(fpkit.__all__)) == []
