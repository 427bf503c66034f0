"""Print the code lines of each module of the polygam package, and their total.

A code line holds at least one token of code. Blank lines, comment lines and
the lines of docstrings (the leading string of a module, class or function)
are not counted; a statement that spans several lines counts each of them.

    python3 tools/code_lines.py [package directory]

The directory defaults to `src/polygam` beside this script's folder. Uses
only the standard library; the library and its tests do not import it.
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in the tree."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                out.update(range(body[0].lineno, body[0].end_lineno + 1))
    return out


def code_lines(path) -> int:
    """The code lines of one Python source file."""
    source = pathlib.Path(path).read_bytes()
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv=None) -> None:
    argv = sys.argv[1:] if argv is None else argv
    root = pathlib.Path(argv[0]) if argv else (
        pathlib.Path(__file__).resolve().parent.parent / "src" / "polygam")
    counts = {p.stem: code_lines(p) for p in sorted(root.glob("*.py"))}
    for name, n in counts.items():
        print(f"{name:14s} {n:5d}")
    print(f"{'total':14s} {sum(counts.values()):5d}")


if __name__ == "__main__":
    main()
