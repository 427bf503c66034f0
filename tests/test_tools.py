"""tools/code_lines.py, the code-line count that each change reports."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import code_lines  # noqa: E402


def test_docstrings_comments_and_blank_lines_count_nothing(tmp_path):
    path = tmp_path / "empty.py"
    path.write_text('"""A module docstring\n\nover lines."""\n\n# a comment\n\n    # another\n')
    assert code_lines.code_lines(path) == 0


def test_code_lines_count_each_line_of_a_statement_and_no_docstring(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        '"""Doc."""\n'
        "import os  # a comment after code\n"
        "\n"
        "def f(a,\n"
        "      b):\n"
        '    """Doc\n'
        '    of f."""\n'
        '    s = """not a\n'
        '    docstring"""\n'
        "    return s\n"
        "\n"
        "class C:\n"
        '    "doc"\n'
        "    x = 1\n")
    # import, the two lines of def, the two of s, return, class, x
    assert code_lines.code_lines(path) == 8
