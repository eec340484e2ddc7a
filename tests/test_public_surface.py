"""Every public name of the package is used by the system, not only by tests.

A public module-level function or class, or a public method, of
``src/symfd`` must be referenced by name somewhere other than its own
definition: in ``src/symfd``, in the benchmark's non-test modules
(``bench/*.py``) or in the acceptance tests.  A name that only unit tests
call is either the independent oracle of a test, and belongs in
``tests/_helpers.py``, or dead code.

The package decides that a difference vanishes by one rule, written in
``errors.py``: no other module names its tolerance ``DEGENERACY_TOL``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "symfd"


def _users():
    bench = [p for p in sorted((ROOT / "bench").glob("*.py")) if not p.name.startswith("test_")]
    return sorted(PACKAGE.glob("*.py")) + bench + [ROOT / "tests" / "test_acceptance.py"]


class _References(ast.NodeVisitor):
    """Names and attribute names read anywhere, except inside a definition
    of the same name."""

    def __init__(self):
        self.names = set()
        self._enclosing = []

    def _definition(self, node):
        self._enclosing.append(node.name)
        self.generic_visit(node)
        self._enclosing.pop()

    visit_FunctionDef = visit_ClassDef = _definition

    def _use(self, name):
        if name not in self._enclosing:
            self.names.add(name)

    def visit_Name(self, node):
        self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node):
        self._use(node.name)


def _public_definitions(tree, module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{module}.{node.name}.{item.name}", item.name


def test_every_public_name_is_referenced_outside_unit_tests():
    refs = _References()
    for path in _users():
        refs.visit(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    unused = [qualified for path in sorted(PACKAGE.glob("*.py"))
              for qualified, name in _public_definitions(
                  ast.parse(path.read_text(encoding="utf-8"), str(path)), path.stem)
              if name not in refs.names]
    assert unused == [], f"public names nothing but unit tests call: {unused}"


def test_only_the_errors_module_names_the_degeneracy_tolerance():
    namers = []
    for path in sorted(PACKAGE.glob("*.py")):
        refs = _References()
        refs.visit(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if path.name != "errors.py" and "DEGENERACY_TOL" in refs.names:
            namers.append(path.name)
    assert namers == [], f"modules that test vanishing by their own rule: {namers}"
