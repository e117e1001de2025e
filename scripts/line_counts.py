"""Count the lines of each module in src/canonflow by kind.

Every line is exactly one of: docstring (inside the string of a module,
class or function docstring, as ``ast`` locates it), blank, comment (its
first non-blank character is ``#``) or code (everything else, so a line of
code with a trailing comment is code).  One row is printed per module, then
the total, whose ``lines`` column equals ``wc -l src/canonflow/*.py``.  An
optional argument names another package directory, such as the
src/canonflow of a second checkout:

    python3 scripts/line_counts.py [DIR]

Standard library only.
"""

import ast
import glob
import os
import sys

KINDS = ("docstring", "blank", "comment", "code")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "canonflow")


def docstring_lines(tree):
    """The 1-based line numbers spanned by every docstring in the tree."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path):
    """{kind: lines} for one file, plus its total under "lines"."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    docs = docstring_lines(ast.parse(text, path))
    counts = dict.fromkeys(KINDS, 0)
    lines = text.splitlines()
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if number in docs:
            counts["docstring"] += 1
        elif not stripped:
            counts["blank"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    counts["lines"] = len(lines)
    return counts


def main(directory=SRC):
    columns = ("lines",) + KINDS
    print(f"{'module':<16}" + "".join(f"{c:>11}" for c in columns))
    total = dict.fromkeys(columns, 0)
    for path in sorted(glob.glob(os.path.join(directory, "*.py"))):
        counts = count(path)
        for c in columns:
            total[c] += counts[c]
        print(f"{os.path.basename(path):<16}"
              + "".join(f"{counts[c]:>11}" for c in columns))
    print(f"{'total':<16}" + "".join(f"{total[c]:>11}" for c in columns))
    return total


if __name__ == "__main__":
    main(*sys.argv[1:])
