"""Only `config` raises config errors.

A config error (ValidationError, exit 2) raised once a run has started would
leave its output directory behind. So every check that refuses a config is
made in config.validate_command_config, before any output exists, and no
other module of the package constructs a ValidationError. The modules are
parsed with `ast`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fpkit"


def constructs_validation_error(source: str) -> bool:
    """Whether source calls ValidationError(...), by bare name or as an attribute."""
    return any(isinstance(node, ast.Call)
               and "ValidationError" in (getattr(node.func, "id", None),
                                         getattr(node.func, "attr", None))
               for node in ast.walk(ast.parse(source)))


def test_only_config_constructs_validation_errors():
    assert [path.name for path in sorted(SRC.glob("*.py"))
            if constructs_validation_error(path.read_text())] == ["config.py"]
