"""Count the code lines of Python sources, without comments, docstrings or blank lines.

Run as ``python tests/code_lines.py src/toricvol`` (a directory or single
files).  A line counts when it holds a token other than a comment, a
newline or an indent; the lines of every module, class and function
docstring are left out.  Prints one line per file and the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source, filename=str(path))))


def main(arguments) -> None:
    paths = []
    for argument in arguments or ["src/toricvol"]:
        path = Path(argument)
        paths += sorted(path.glob("*.py")) if path.is_dir() else [path]
    total = 0
    for path in paths:
        count = code_lines(path)
        total += count
        print(f"{path.name} {count}")
    print(f"total {total}")


if __name__ == "__main__":
    main(sys.argv[1:])
