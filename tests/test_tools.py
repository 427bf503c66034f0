"""tools/code_lines.py, the code-line count that each change reports."""

import subprocess
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


def test_base_prints_each_module_at_the_revision_now_and_the_difference(tmp_path, capsys):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
                        "-c", "commit.gpgsign=false", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text('"""Doc."""\nx = 1\ny = 2\n')
    (pkg / "gone.py").write_text("z = 3\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "first")
    (pkg / "a.py").write_text('"""Doc."""\nx = 1\n')
    (pkg / "gone.py").unlink()
    (pkg / "new.py").write_text("def f():\n    return 1\n")
    git("add", "-A")
    git("commit", "-q", "-m", "second")
    (pkg / "a.py").write_text("x = 1\ny = 2\nz = 3\n")  # the working tree counts as now
    code_lines.main([str(pkg), "--base", "HEAD~1"])
    assert capsys.readouterr().out.splitlines() == [
        "module          base   now  diff",
        "a                  2     3    +1",
        "gone               1     0    -1",
        "new                0     2    +2",
        "total              3     5    +2",
    ]
    code_lines.main([str(pkg), "--base", "HEAD"])
    assert capsys.readouterr().out.splitlines()[-1] == "total              3     5    +2"
