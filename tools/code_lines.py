"""Count the lines of each module of a package: total lines, and code lines.

A code line is non-blank and lies outside comments and docstrings (the
first string statement of a module, class or function body).  Run from the
repository root:

    python tools/code_lines.py            # the modules of src/chnsopt
    python tools/code_lines.py DIR_OR_FILE ...
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    lines = source.splitlines()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code = {n for n in code - docstrings if lines[n - 1].strip()}
    return len(lines), len(code)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    roots = [Path(a) for a in args] or [Path(__file__).resolve().parent.parent / "src" / "chnsopt"]
    paths = sorted(p for r in roots for p in ([r] if r.is_file() else r.rglob("*.py")))
    total = code = 0
    print(f"{'module':<24} {'lines':>7} {'code':>7}")
    for path in paths:
        t, c = count(path.read_text(encoding="utf-8"))
        total, code = total + t, code + c
        print(f"{path.name:<24} {t:>7} {c:>7}")
    print(f"{'total':<24} {total:>7,} {code:>7,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
