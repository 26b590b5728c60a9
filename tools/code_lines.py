"""Count total lines and code lines of each ``src/qmoments/*.py`` module.

Code lines are the lines spanned by ast statements and expressions, minus
docstrings, blank lines and comment-only lines.  Run from the repository
root:

    python tools/code_lines.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qmoments"


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(total lines, code lines) of one source file."""
    text = path.read_text(encoding="utf-8")
    source = text.splitlines()
    tree = ast.parse(text, filename=str(path))
    spanned: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.stmt, ast.expr)):
            spanned.update(range(node.lineno, node.end_lineno + 1))
    spanned -= _docstring_lines(tree)
    code = {
        n
        for n in spanned
        if source[n - 1].strip() and not source[n - 1].strip().startswith("#")
    }
    return len(source), len(code)


def main() -> int:
    total = code = 0
    print(f"{'module':<20} {'lines':>6} {'code':>6}")
    for path in sorted(PACKAGE.glob("*.py")):
        lines, code_lines = count(path)
        total += lines
        code += code_lines
        print(f"{path.name:<20} {lines:>6} {code_lines:>6}")
    print(f"{'total':<20} {total:>6} {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
