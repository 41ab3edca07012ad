"""The code-line counter skips docstrings, comments and blank lines, and nothing else."""
import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SOURCE = '''"""A module docstring
over two lines."""
import math  # a comment


# a comment alone
class Shape:
    """A class docstring."""

    sides = 4

    def area(self, side):
        """A function docstring."""
        text = """a string that is
        no docstring"""
        return (side
                * side)
'''


def test_code_lines_count_statements_only():
    spec = importlib.util.spec_from_file_location("code_lines_tool", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    # import, class, sides, def, the string's two lines, return's two lines
    assert tool.code_lines(SOURCE) == 8
    assert tool.code_lines("") == 0
