"""Static checks of the package source with the standard-library ``ast``.

No linter ships with the project, so its checks are written here: every
import of a module is used, every exported name resolves, both the strings of
a module's ``__all__`` and the names the package ``__init__`` imports from its
modules, the solver reads every ``SolveConfig`` field, and every module of the
package and of the tests parses as Python 3.10.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "impactdp"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _tree(stem: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{stem}.py").read_text(encoding="utf-8"))


def _imports(nodes) -> dict[str, int]:
    """Names bound by the import statements among ``nodes``, with their lines."""
    bound = {}
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    return bound


def _bindings(module: ast.Module) -> set[str]:
    """Names bound at module level: definitions, assignments and imports."""
    names = set(_imports(module.body))
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _exports(module: ast.Module) -> list[str]:
    for node in module.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


@pytest.mark.parametrize("stem", MODULES)
def test_every_import_is_used(stem):
    module = _tree(stem)
    used = {node.id for node in ast.walk(module) if isinstance(node, ast.Name)}
    used.update(_exports(module))
    unused = sorted(f"{name} (line {line})" for name, line in _imports(ast.walk(module)).items() if name not in used)
    assert not unused, f"{stem}.py imports names it never uses: {', '.join(unused)}"


@pytest.mark.parametrize("stem", MODULES)
def test_every_name_in_all_resolves(stem):
    module = _tree(stem)
    missing = sorted(set(_exports(module)) - _bindings(module))
    assert not missing, f"{stem}.__all__ names what {stem}.py never binds: {', '.join(missing)}"


def test_every_package_export_resolves():
    missing = []
    for node in _tree("__init__").body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            bound = _bindings(_tree(node.module))
            missing += [f"{node.module}.{a.name}" for a in node.names if a.name not in bound]
    assert not missing, f"impactdp/__init__.py imports names that do not exist: {', '.join(missing)}"


def test_every_solve_config_field_is_read():
    # a field that only its own validation and the report echo read is a dead
    # knob: it changes the report and nothing else
    module = _tree("solver")
    config = next(n for n in module.body if isinstance(n, ast.ClassDef) and n.name == "SolveConfig")
    fields = [n.target.id for n in config.body if isinstance(n, ast.AnnAssign)]
    skipped = {id(n) for n in config.body if isinstance(n, ast.FunctionDef) and n.name in ("__post_init__", "echo")}

    def reads(node):
        if id(node) in skipped:
            return set()
        found = {node.attr} if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) else set()
        for child in ast.iter_child_nodes(node):
            found |= reads(child)
        return found

    unread = sorted(set(fields) - reads(module))
    assert fields
    assert not unread, f"SolveConfig fields that solver.py never reads: {', '.join(unread)}"


def test_every_module_parses_as_python_3_10():
    """``pyproject.toml`` admits Python 3.10, so no module may need newer grammar.

    ``feature_version`` makes ``ast`` reject the 3.11-only grammar it knows
    of, such as ``except*``; it is best effort, and it does not see calls to
    library functions or modules that 3.10 lacks.
    """
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert PACKAGE / "solver.py" in paths and Path(__file__).resolve() in paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
