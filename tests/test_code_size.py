"""The package's code size is pinned, as the call budget and the tape size
are: ``src/so2frames/*.py`` holds at most ``PINNED`` logical lines.

A logical line carries a token other than a comment and lies outside every
docstring; blank lines, comments and docstrings are free.  A change that
removes code lowers the pin to the new count.  A change that adds code
raises it and says so, with the new count, in CHANGES.md.
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "so2frames"
PINNED = 2479

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def logical_lines(path) -> int:
    """The lines of ``path`` that carry a token other than a comment,
    outside the module's, classes' and functions' docstrings."""
    source = Path(path).read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def test_counter_skips_comments_docstrings_and_blanks(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text('"""Module\ndocstring."""\n\n# a comment\ndef f(x):  # trailing\n'
                    '    """Doc."""\n    return (x +\n            1)\n')
    assert logical_lines(path) == 3


def test_package_within_pinned_size():
    total = sum(logical_lines(path) for path in sorted(PACKAGE.glob("*.py")))
    assert total <= PINNED, f"{total} logical lines, pinned at {PINNED}"
