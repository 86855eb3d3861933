"""No helper that only tests call.

Every top-level function and class in src/layerlr, and every method that is
not a dunder, must be named somewhere the program can reach it: in the code
of src/ outside __init__.py, or of benchmarks/*.py. A name in a comment or a
string is no caller, and neither is the name a def or class statement
defines (an override is no caller).
"""

import ast
import io
import tokenize
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


def code_names(path):
    """Every name token in the file's code: comments and strings are not
    code, and a name right after `def` or `class` is being defined."""
    names = set()
    previous = None
    for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
        if tok.type == tokenize.NAME and previous not in ("def", "class"):
            names.add(tok.string)
        previous = tok.string
    return names


def test_every_definition_is_named_outside_tests():
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((ROOT / "benchmarks").glob("*.py"))
    used = set().union(*(code_names(p) for p in sources))
    unreached = [f"{path.name}: {name}" for name, path in definitions()
                 if name not in EXEMPT and name not in used]
    assert not unreached, f"defined but named only by tests: {unreached}"
