"""Every name a module of the package imports is used in it.

The modules are parsed with `ast`; `__init__.py` is left out, as its imports
are the package's public API.
"""

import ast
from pathlib import Path

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
