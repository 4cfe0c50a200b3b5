"""Count the lines of the engine's source.

Prints two numbers for the Python files under a directory (default
``src/repro``): every line, and the code-only lines — those holding a
token that is not a comment, with blank lines and docstrings (any
statement that is a bare string) left out.

    python scripts/loc.py [directory]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

#: tokens that never make a line code
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count(source: str) -> tuple:
    """``(lines, code-only lines)`` of one file's text."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            docstrings.update(range(node.lineno, node.end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


def main(argv) -> int:
    root = Path(argv[0] if argv else "src/repro")
    lines = code = 0
    for path in sorted(root.rglob("*.py")):
        total, only = count(path.read_text(encoding="utf-8"))
        lines += total
        code += only
    print(f"{root}: {lines} lines, {code} code-only")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
