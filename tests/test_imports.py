"""The package imports in one direction.

Every import of ``src/hopfexact`` is made at module level, and the imports
among its modules form no cycle, so the modules stack in one order.  An
import under ``if TYPE_CHECKING:`` is never run, so it is left out.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hopfexact"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def _package_imports(stmt: ast.stmt) -> set:
    """The modules of the package that a module-level statement imports."""
    if isinstance(stmt, ast.ImportFrom):
        if stmt.level:
            return {stmt.module or alias.name for alias in stmt.names}
        if stmt.module == "hopfexact":
            return {alias.name for alias in stmt.names}
        if (stmt.module or "").startswith("hopfexact."):
            return {stmt.module.split(".")[1]}
    if isinstance(stmt, ast.Import):
        return {alias.name.split(".")[1] for alias in stmt.names
                if alias.name.startswith("hopfexact.")}
    return set()


def _is_type_checking(node: ast.AST) -> bool:
    return isinstance(node, ast.If) and ast.unparse(node.test) in (
        "TYPE_CHECKING", "typing.TYPE_CHECKING")


def _run_imports(node: ast.AST):
    """The import statements that run when the module is imported: all but
    those in a function body or under ``if TYPE_CHECKING:``."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        yield node
    elif _is_type_checking(node):
        for stmt in node.orelse:
            yield from _run_imports(stmt)
    elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
        for child in ast.iter_child_nodes(node):
            yield from _run_imports(child)


def _graph() -> dict:
    """Each module with the package modules it imports when it runs."""
    return {m: set().union(*map(_package_imports, _run_imports(_tree(m))))
            for m in MODULES}


def _cycle(graph: dict):
    """A list of modules that import each other in a ring, or None."""
    done, path = set(), []

    def visit(m):
        if m in path:
            return path[path.index(m):] + [m]
        if m in done:
            return None
        path.append(m)
        for n in sorted(graph[m]):
            found = visit(n)
            if found:
                return found
        path.pop()
        done.add(m)
        return None

    return next(filter(None, map(visit, sorted(graph))), None)


def test_no_module_imports_inside_a_function():
    local = [f"{m}.py:{node.lineno}"
             for m in MODULES
             for fn in ast.walk(_tree(m))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert local == []


def test_the_module_level_imports_form_no_cycle():
    graph = _graph()
    assert set().union(*graph.values()) <= set(MODULES)
    assert _cycle(graph) is None


def test_the_cycle_check_finds_a_ring():
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert _cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) is None


def test_a_comodule_names_the_hopf_algebra_only_for_type_checking():
    tree = _tree("comodule")
    assert "hopf" not in _graph()["comodule"]
    (guarded,) = filter(_is_type_checking, tree.body)
    assert set().union(*map(_package_imports, guarded.body)) == {"hopf"}
