"""Print the code lines of each module of the polygam package, and their total.

A code line holds at least one token of code. Blank lines, comment lines and
the lines of docstrings (the leading string of a module, class or function)
are not counted; a statement that spans several lines counts each of them.

    python3 tools/code_lines.py [package directory] [--base REV]

The directory defaults to `src/polygam` beside this script's folder. With
`--base REV` each module's line shows its code lines at the git revision
REV (read with `git show`), its code lines now and the difference, so the
net count a change reports takes one command; a module missing on one
side counts 0 there. Uses only the standard library and git; the library
and its tests do not import it.
"""

from __future__ import annotations

import argparse
import ast
import io
import pathlib
import subprocess
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
    return source_code_lines(pathlib.Path(path).read_bytes())


def source_code_lines(source: bytes) -> int:
    """The code lines of one Python source text."""
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def base_counts(root: pathlib.Path, rev: str) -> dict[str, int]:
    """The code lines of each module of the package directory at git revision rev."""
    def git(*args) -> bytes:
        return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True).stdout

    names = git("ls-tree", "--name-only", rev, "./").decode().split("\n")  # this folder's own
    return {n.removesuffix(".py"): source_code_lines(git("show", f"{rev}:./{n}"))
            for n in sorted(names) if n.endswith(".py")}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("package", nargs="?", type=pathlib.Path,
                    default=pathlib.Path(__file__).resolve().parent.parent / "src" / "polygam")
    ap.add_argument("--base", metavar="REV", help="also count at this git revision")
    args = ap.parse_args(argv)
    counts = {p.stem: code_lines(p) for p in sorted(args.package.glob("*.py"))}
    if args.base is None:
        for name, n in counts.items():
            print(f"{name:14s} {n:5d}")
        print(f"{'total':14s} {sum(counts.values()):5d}")
        return
    base = base_counts(args.package, args.base)
    rows = [(name, base.get(name, 0), counts.get(name, 0)) for name in sorted({*base, *counts})]
    rows.append(("total", sum(b for _, b, _ in rows), sum(n for _, _, n in rows)))
    print(f"{'module':14s} {'base':>5s} {'now':>5s} {'diff':>5s}")
    for name, b, n in rows:
        print(f"{name:14s} {b:5d} {n:5d} {n - b:+5d}")


if __name__ == "__main__":
    main()
