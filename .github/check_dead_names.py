"""Names in the package and its tests that nothing uses.

Fails on three things:

* a module-level import that its module never references, in a module of
  ``src/hopfexact`` or of ``tests``; an import in a module-level
  ``if TYPE_CHECKING:`` block counts as module-level, and a name kept on
  purpose, such as a re-export, carries ``# noqa: F401`` on its line;
* an error class of ``errors.py`` that no ``raise`` in the package names;
* a top-level function, class or assigned name, or a method, of the
  package, other than a dunder, whose name is read by no name, attribute,
  import or string constant of any Python file under ``src/``, ``tests/``,
  ``perfbench/`` or ``.github/``; the assignment that binds a name does not
  count as a use of it;
* a cross-reference in a docstring of the package (``:func:``, ``:class:``,
  ``:meth:``, ``:data:``, ``:exc:`` or ``:mod:``, with or without ``~``)
  whose target does not exist.  A target under ``hopfexact.`` names its
  module; a bare one, such as ``Algebra.multiply``, is looked up among the
  names that the docstring's module defines or imports at module level
  (``if TYPE_CHECKING:`` included), and a name imported from another
  module of the package is followed there.  A
  target under a standard-library module, such as ``fractions.Fraction``,
  is left alone.

Run it from the repository root: ``python3 .github/check_dead_names.py``.
"""

import ast
import re
import sys
from pathlib import Path

PACKAGE = Path("src/hopfexact")
TESTS = Path("tests")
USERS = ("src", "tests", "perfbench", ".github")
NOQA = "# noqa: F401"


def _module_imports(tree: ast.Module):
    """The import statements at module level, and in a module-level
    ``if TYPE_CHECKING:`` block."""
    for stmt in tree.body:
        if isinstance(stmt, ast.If) and "TYPE_CHECKING" in {
                getattr(stmt.test, "id", None),
                getattr(stmt.test, "attr", None)}:
            yield from _module_imports(stmt)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            yield stmt


def unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    problems = []
    for stmt in _module_imports(tree):
        if getattr(stmt, "module", None) == "__future__":
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


XREF = re.compile(r":(func|class|meth|data|exc|mod):`~?([\w.]+)`")


def _module_names(tree: ast.Module):
    """The top-level names of a module, each class with the names its body
    binds and every other name with None, and the names that its
    module-level imports bind, each with ``(module, name)`` of its source;
    the module is relative to the package, or None outside it."""
    tops = {}
    for stmt in tree.body:
        members = None
        if isinstance(stmt, ast.ClassDef):
            members = {name for node in stmt.body
                       for name in _bound_names(node)}
        for name in _bound_names(stmt):
            tops[name] = members
    imported = {}
    for node in _module_imports(tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module if node.level else None
            for alias in node.names:
                imported[alias.asname or alias.name] = (source, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = (
                    None, alias.name)
    return tops, imported


def _resolves(index: dict, module: str, parts: list[str]) -> bool:
    """Does ``parts`` name a definition in ``module`` or, followed through
    its imports, in another module of the package?"""
    tops, imported = index[module]
    head, rest = parts[0], parts[1:]
    if head in tops:
        return not rest or (tops[head] is not None and len(rest) == 1
                            and rest[0] in tops[head])
    if head in imported:
        source, name = imported[head]
        return source not in index or _resolves(index, source, [name] + rest)
    return False


def _docstrings(tree: ast.Module):
    """``(line, text)`` of the module's docstrings, its own and those of
    its classes and functions."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                yield first.lineno, first.value.value


def stale_references(paths: list[Path]) -> list[str]:
    trees = {path: ast.parse(path.read_text()) for path in paths}
    index = {path.stem: _module_names(tree) for path, tree in trees.items()}
    problems = []
    for path, tree in trees.items():
        for line, text in _docstrings(tree):
            for match in XREF.finditer(text):
                role, target = match.groups()
                parts = target.split(".")
                if parts[0] == "hopfexact":
                    module, parts = (parts[1] if len(parts) > 1 else None,
                                     parts[2:])
                    ok = module in index and (
                        not parts if role == "mod"
                        else bool(parts) and _resolves(index, module, parts))
                elif parts[0] in sys.stdlib_module_names:
                    continue
                else:
                    ok = (len(parts) == 1 and parts[0] in index
                          if role == "mod"
                          else _resolves(index, path.stem, parts))
                if not ok:
                    at = line + text[:match.start()].count("\n")
                    problems.append(f"{path}:{at}: '{match.group(0)}' names "
                                    "nothing in the package")
    return problems


def main() -> int:
    paths = sorted(PACKAGE.glob("*.py"))
    problems = [p for path in paths + sorted(TESTS.glob("*.py"))
                for p in unused_imports(path)]
    problems += unraised_errors(paths)
    problems += unused_definitions(paths)
    problems += stale_references(paths)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
