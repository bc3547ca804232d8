"""The code-line count of tools/code_lines.py."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a trailing comment

# a comment on its own line


def f(a,
      b):
    """Function docstring."""
    return (a +
            b)


class C:
    """Class docstring."""

    x = """a string that is not a docstring,
    over two lines"""
'''


def test_docstrings_comments_and_blank_lines_are_left_out():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    # import; def and its continued line; return and its continued line; class;
    # and both lines of the assigned string
    assert tool.code_lines(SNIPPET) == 8
