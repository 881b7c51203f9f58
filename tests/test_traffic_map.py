"""tools/traffic_map.py counts the lines that ROADMAP aim 2 measures.

On a small module written out below: docstring_lines and code_lines are
pinned exactly (module, class and function docstrings, comments and blank
lines are out, and a continued expression counts once per line).  For
executable_lines, which follows CPython's line tables, only the docstrings'
exclusion and each statement's first line are asserted.  No trace is run.
"""

import ast
import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "traffic_map", Path(__file__).resolve().parent.parent / "tools" / "traffic_map.py")
traffic_map = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(traffic_map)

SOURCE = '''"""Module docstring,
on two lines."""

import math  # a comment after code

# a comment line


class Box:
    """Class docstring."""

    size = 1

    def area(self, scale):
        """Function docstring,
        also on two lines."""
        total = (self.size
                 * scale)
        return math.sqrt(total)


def ratio(a, b):
    return {"a": a,
            "b": b}
'''

DOCSTRING_LINES = {1, 2, 10, 15, 16}
CODE_LINES = {4, 9, 12, 14, 17, 18, 19, 22, 23, 24}
STATEMENT_FIRST_LINES = {4, 9, 12, 14, 17, 19, 22, 23}


def test_docstring_lines_are_the_module_class_and_function_docstrings():
    assert traffic_map.docstring_lines(ast.parse(SOURCE)) == DOCSTRING_LINES


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    assert traffic_map.code_lines(SOURCE) == len(CODE_LINES)


def test_executable_lines_hold_every_statement_and_no_docstring():
    lines = traffic_map.executable_lines(SOURCE, "box.py")
    assert not lines & DOCSTRING_LINES
    assert STATEMENT_FIRST_LINES <= lines
