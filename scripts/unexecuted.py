"""List every statement of ``src/vistrack`` that the tier-1 tests never
execute.

The script runs pytest in this interpreter under ``sys.settrace`` and
records each line of the package that runs. A statement counts as run
when any line of its own text runs: a simple statement's lines, or a
compound statement's header (its decorators, ``def``, ``if``, ``for``
... up to its body). Docstrings and the bodies of ``if TYPE_CHECKING:``
blocks are not statements here, since no interpreter runs them; a
``try:`` line is left out too, as it runs no code of its own.

Each statement that never ran is printed as ``path:line: text``. The
script exits 1 if one of them is not in ``ALLOWED``, or if an entry of
``ALLOWED`` names no statement that never ran (so the list stays
exact), and with pytest's own status if a test fails.

Usage:
    PYTHONPATH=src python scripts/unexecuted.py -q --hypothesis-seed=0
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vistrack"

# (file, statement text) -> why no tier-1 test runs it
ALLOWED = {
    ("__init__.py", 'return importlib.import_module(f".{name}", __name__)'): (
        "a submodule looked up before its import; in one test process an earlier test has always imported it"
    ),
}


def _is_docstring(node: ast.stmt) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)


def _is_type_checking(node: ast.stmt) -> bool:
    return isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"


def statements(source: str) -> list[tuple[int, range]]:
    """(first line, the lines of its own text) of each statement of
    ``source`` that an interpreter can run."""
    out = []

    def visit(body: list) -> None:
        for k, node in enumerate(body):
            if k == 0 and _is_docstring(node):
                continue
            if _is_type_checking(node):
                visit(node.orelse)
                continue
            children = [getattr(node, name, []) for name in ("body", "orelse", "finalbody")]
            children += [h.body for h in getattr(node, "handlers", [])]
            children += [c.body for c in getattr(node, "cases", [])]
            children = [c for c in children if c and isinstance(c[0], ast.stmt)]
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            if not children:
                out.append((first, range(first, node.end_lineno + 1)))
            elif not isinstance(node, ast.Try):
                out.append((first, range(first, node.body[0].lineno)))
            for child in children:
                visit(child)

    visit(ast.parse(source).body)
    return out


def main(argv: list[str]) -> int:
    ran: dict[str, set[int]] = {}

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(str(PACKAGE)):
            return None
        lines = ran.setdefault(filename, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        lines.add(frame.f_lineno)
        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status != 0:
        print(f"pytest exited {status}; no statement list", file=sys.stderr)
        return int(status)

    unexpected, seen = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        lines = ran.get(str(path), set())
        for first, own in statements(source):
            if lines.intersection(own):
                continue
            key = (path.name, text[first - 1].strip())
            where = f"{path.relative_to(ROOT)}:{first}: {key[1]}"
            if key in ALLOWED:
                seen.add(key)
                print(f"{where}  (allowed: {ALLOWED[key]})")
            else:
                unexpected.append(where)
                print(where)
    stale = sorted(set(ALLOWED) - seen)
    for name, line in stale:
        print(f"allowed but run or gone: {name}: {line}", file=sys.stderr)
    if unexpected:
        print(f"{len(unexpected)} statement(s) that no test runs", file=sys.stderr)
    return 1 if unexpected or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
