"""Every demo script runs to completion against the installed package."""

import ast
import io
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    _run(demo)


def test_suites_demo_output_reproduces():
    # The demo writes a report with wall-clock durations; what it prints
    # must not depend on them.
    demo = ROOT / "demos" / "05_verification_suites.py"
    assert _run(demo) == _run(demo)


def _library_tour():
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1]
    return tour.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_tour_runs():
    # The README's library tour names public functions; running it keeps the
    # docs from going stale when one is renamed or deleted.
    code = _library_tour()
    exec(compile(code, "README.md (library tour)", "exec"), {})


# A comment that opens with a literal value, up to an optional colon:
# True, False, or p/r numbers in tuples and lists.
_LITERAL = re.compile(r"((?:True|False|[-\d/(), \[\]])+)(:.*)?")


def _render(value):
    """A value as the tour writes it: p/r numbers, tuples and lists."""
    if isinstance(value, (tuple, list)):
        inner = ", ".join(map(_render, value))
        return f"({inner})" if isinstance(value, tuple) else f"[{inner}]"
    return str(value)


def test_readme_library_tour_values():
    # Every expression line of the tour whose comment is a literal value
    # evaluates to that value.
    code = _library_tour()
    comments = {
        token.start[0]: token.string.lstrip("# ")
        for token in tokenize.generate_tokens(io.StringIO(code).readline)
        if token.type == tokenize.COMMENT
    }
    namespace = {}
    checked = []
    for node in ast.parse(code).body:
        literal = _LITERAL.fullmatch(comments.get(node.end_lineno, ""))
        if isinstance(node, ast.Expr) and literal:
            expression = compile(ast.Expression(node.value), "README.md", "eval")
            got = eval(expression, namespace)
            assert _render(got) == literal[1].strip(), ast.unparse(node)
            checked.append(node.end_lineno)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert len(checked) == 8
