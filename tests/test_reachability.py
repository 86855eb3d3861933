"""No helper that only tests call.

Every top-level function and class in src/layerlr, and every method that is
not a dunder, must be named somewhere the program can reach it: in src/
outside __init__.py, or in benchmarks/*.py, on a line that is not a def or
class line of that name (an override is no caller).
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "layerlr"

EXEMPT = {
    # Criterion 2's independent oracle for backprop: tests and gradcheck
    # compare against it by design.
    "finite_difference_gradient",
}


def definitions():
    """(name, file) of every top-level function and class in the package,
    and of every non-dunder method of those classes."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield node.name, path
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not (
                            item.name.startswith("__") and item.name.endswith("__")):
                        yield item.name, path


def test_every_definition_is_named_outside_tests():
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((ROOT / "benchmarks").glob("*.py"))
    text = "\n".join(p.read_text() for p in sources)
    unreached = []
    for name, path in definitions():
        if name in EXEMPT:
            continue
        uses = re.compile(rf"^(?!\s*(?:def|class)\s+{name}\b).*\b{name}\b", re.MULTILINE)
        if not uses.search(text):
            unreached.append(f"{path.name}: {name}")
    assert not unreached, f"defined but named only by tests: {unreached}"
