"""Print the raw and code lines of each package module; pytest does not collect it.

A code line holds a token of a statement: blank lines, comment lines and the
lines of docstrings (the leading string of a module, class or function) are
not counted.  One row per module, then the totals, so a design change can
state its net count the same way on either side of it:

    python tests/code_lines.py                  # src/tropmean of this checkout
    python tests/code_lines.py path/to/tropmean # another copy of the package

The script only reports; it exits 0 whatever the counts.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tropmean"

SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(raw lines, code lines) of one Python file."""
    text = path.read_text(encoding="utf-8")
    docs = _docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIPPED:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docs)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    print(f"{'module':<16}{'raw':>7}{'code':>7}")
    raw_total = code_total = 0
    for path in sorted(package.glob("*.py")):
        raw, code = count(path)
        raw_total += raw
        code_total += code
        print(f"{path.name:<16}{raw:>7}{code:>7}")
    print(f"{'total':<16}{raw_total:>7}{code_total:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
