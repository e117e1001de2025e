"""Print every statement of src/canonflow that the test suite does not execute.

The suite runs in this interpreter under a ``sys.settrace`` line tracer
(standard library only; no coverage package is needed).  A statement counts
as executable when the compiler emitted code for one of its own lines (so
docstrings and elided ``pass`` statements are not listed), and as executed
when a line event fired on one of them; a compound statement's own lines are
its header, up to its first nested statement.  One line is printed per
unexecuted statement, ``module.py:line  source``, then a count; the exit
code is pytest's.  Code reached only inside a subprocess (the tests'
``python -c`` cold-start scripts and their runs of ``scripts/csv_hashes.py``)
is not traced and is listed.  Extra arguments go to pytest:

    OPENBLAS_NUM_THREADS=1 python3 scripts/unexecuted.py [PYTEST ARGS]

With no arguments the whole of tests/ runs, about three times slower than
without the tracer.
"""

import ast
import glob
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "canonflow")


def code_lines(code):
    """Line numbers the compiler emitted code for, nested code objects included."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def statements(tree):
    """(first line, header lines) of every statement in the tree."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        nested = [child.lineno for child in ast.iter_child_nodes(node)
                  if isinstance(child, ast.stmt)]
        last = min(nested) - 1 if nested else node.end_lineno
        out.append((node.lineno, range(node.lineno, max(last, node.lineno) + 1)))
    return out


def main(argv):
    import pytest

    hits = {}

    def local(frame, event, _):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, _):
        name = frame.f_code.co_filename
        if not name.startswith(SRC):
            return None
        hits.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, os.path.dirname(SRC))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              *(argv or [os.path.join(ROOT, "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            source = fh.read()
        lines = source.splitlines()
        emitted = code_lines(compile(source, path, "exec"))
        seen = hits.get(path, set())
        for first, header in sorted(statements(ast.parse(source))):
            own = emitted.intersection(header)
            if own and not own & seen:
                missed += 1
                print(f"{os.path.basename(path)}:{first}  {lines[first - 1].strip()}")
    print(f"{missed} unexecuted statements")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
