"""Print the size of each Python file named on the command line, in lines:
its total, its docstring lines and its code lines, then the sums.

Docstring lines are those of module, class and function docstrings. Code
lines are the rest, less blank lines and lines holding only a comment.
Standard library only; run as

    python tests/package_size.py src/gcnsim/*.py
"""

import ast
import sys

DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def line_split(source: str) -> tuple[int, int, int]:
    """(total, docstring, code) lines of one module's source."""
    doc = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                doc.update(range(first.lineno, first.end_lineno + 1))
    lines = source.splitlines()
    code = sum(1 for n, line in enumerate(lines, start=1)
               if n not in doc and line.strip()
               and not line.lstrip().startswith("#"))
    return len(lines), len(doc), code


def main(paths: list[str]) -> None:
    sums = [0, 0, 0]
    print(f"{'total':>7} {'doc':>7} {'code':>7}  file")
    for path in paths:
        with open(path, encoding="utf-8") as f:
            split = line_split(f.read())
        sums = [s + n for s, n in zip(sums, split)]
        print(*(f"{n:7d}" for n in split), "", path)
    print(*(f"{n:7d}" for n in sums), "", "total")


if __name__ == "__main__":
    main(sys.argv[1:])
