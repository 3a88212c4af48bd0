"""Names in the package and its tests that nothing uses.

Fails on three things:

* a module-level import that its module never references, in a module of
  ``src/hopfexact`` or of ``tests``; a name kept on purpose, such as a
  re-export, carries ``# noqa: F401`` on its line;
* an error class of ``errors.py`` that no ``raise`` in the package names;
* a top-level function, class or assigned name, or a method, of the
  package, other than a dunder, whose name is read by no name, attribute,
  import or string constant of any Python file under ``src/``, ``tests/``,
  ``perfbench/`` or ``.github/``; the assignment that binds a name does not
  count as a use of it.

Run it from the repository root: ``python3 .github/check_dead_names.py``.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path("src/hopfexact")
TESTS = Path("tests")
USERS = ("src", "tests", "perfbench", ".github")
NOQA = "# noqa: F401"


def unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    problems = []
    for stmt in tree.body:
        if (not isinstance(stmt, (ast.Import, ast.ImportFrom))
                or getattr(stmt, "module", None) == "__future__"):
            continue
        for alias in stmt.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound in used or NOQA in lines[alias.lineno - 1]:
                continue
            problems.append(f"{path}:{alias.lineno}: '{bound}' is imported "
                            "but never used")
    return problems


def _raised_name(node: ast.Raise):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    if isinstance(exc, ast.Name):
        return exc.id
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return None


def unraised_errors(paths: list[Path]) -> list[str]:
    raised = set()
    for path in paths:
        raised |= {_raised_name(node) for node in ast.walk(ast.parse(
            path.read_text())) if isinstance(node, ast.Raise) and node.exc}
    errors = PACKAGE / "errors.py"
    return [f"{errors}:{cls.lineno}: '{cls.name}' is never raised"
            for cls in ast.parse(errors.read_text()).body
            if isinstance(cls, ast.ClassDef) and cls.name not in raised]


def _used_names(tree: ast.AST) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def _bound_names(node: ast.stmt) -> list[str]:
    """The names that a top-level statement or a method binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)]


def _definitions(tree: ast.Module):
    """``(line, name)`` of the top-level functions, classes and assigned
    names and of the methods of top-level classes, dunders left out."""
    for stmt in tree.body:
        nodes = [stmt]
        if isinstance(stmt, ast.ClassDef):
            nodes += [n for n in stmt.body if isinstance(
                n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in nodes:
            for name in _bound_names(node):
                if not (name.startswith("__") and name.endswith("__")):
                    yield node.lineno, name


def unused_definitions(paths: list[Path]) -> list[str]:
    used = set()
    for root in USERS:
        for path in Path(root).rglob("*.py"):
            used |= _used_names(ast.parse(path.read_text()))
    return [f"{path}:{line}: '{name}' is never used"
            for path in paths
            for line, name in _definitions(ast.parse(path.read_text()))
            if name not in used]


def main() -> int:
    paths = sorted(PACKAGE.glob("*.py"))
    problems = [p for path in paths + sorted(TESTS.glob("*.py"))
                for p in unused_imports(path)]
    problems += unraised_errors(paths)
    problems += unused_definitions(paths)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
