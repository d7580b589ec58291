"""Static checks of the package source, by the standard library's ``ast``:
no module imports a name it does not use, no private module-level name or
method is left without a reference in the package, and the closed-form
modules import nothing from the solver."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "starspec"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))


def parse(name: str) -> ast.Module:
    return ast.parse((PACKAGE / name).read_text(), filename=name)


def exported(tree: ast.Module) -> set[str]:
    """The strings of a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def loaded(tree: ast.Module) -> set[str]:
    """Every name read in the module and every attribute read on anything."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    tree = parse(module)
    used = loaded(tree) | exported(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [a.asname or a.name for a in node.names]
        else:
            continue
        unused += [name for name in bound if name not in used]
    assert unused == []


def private_definitions(tree: ast.Module):
    """(name, kind) of every private module-level name and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if is_private(node.name):
                yield node.name, "name"
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and is_private(item.name):
                        yield f"{node.name}.{item.name}", "method"
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and is_private(target.id):
                    yield target.id, "name"


@pytest.mark.parametrize("module", MODULES)
def test_no_unreferenced_private_names(module):
    referenced = set()
    for name in MODULES:
        tree = parse(name)
        referenced |= loaded(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                referenced |= {a.name for a in node.names}
    unreferenced = [
        name for name, kind in private_definitions(parse(module))
        if name.split(".")[-1] not in referenced
    ]
    assert unreferenced == []


#: the closed-form modules, and the solver modules they must not import
FORMULA_MODULES = ["bounds.py", "errors.py", "geometry.py"]
SOLVER_MODULES = {"spectral", "discretization", "optimizer", "cli"}


def imported_modules(tree: ast.Module) -> set[str]:
    """The package modules a module imports, relatively or absolutely."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = (node.module or "").removeprefix("starspec").lstrip(".")
            names |= {base} if base else {a.name for a in node.names}
    return {name.removeprefix("starspec.") for name in names}


@pytest.mark.parametrize("module", FORMULA_MODULES)
def test_formulas_import_no_solver(module):
    assert imported_modules(parse(module)) & SOLVER_MODULES == set()
