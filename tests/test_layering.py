"""Module layering of the package: no module reaches into another's
private names, the two computation paths stay independent of each other,
and the public API resolves."""

import ast
from pathlib import Path

import wmpinv

SRC = Path(wmpinv.__file__).parent
PATHS = {"greville", "poly_greville"}


def relative_imports(path):
    """(module, name) for every ``from .module import name`` in the file;
    ``from . import name`` gives module ''."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        (node.module or "", alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    ]


def test_no_module_imports_a_private_name_of_another():
    private = [
        (path.name, module, name)
        for path in sorted(SRC.glob("*.py"))
        for module, name in relative_imports(path)
        if name.startswith("_")
    ]
    assert private == []


def test_the_two_paths_do_not_import_each_other():
    for own in PATHS:
        imported = {
            module or name for module, name in relative_imports(SRC / f"{own}.py")
        }
        assert not imported & (PATHS - {own}), own


def test_every_public_name_resolves():
    missing = [name for name in wmpinv.__all__ if not hasattr(wmpinv, name)]
    assert missing == []


def test_no_module_caches_calls_with_functools():
    # a memo lives inside one matrix operation and dies with it
    caches = {"cache", "lru_cache"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = {alias.name for alias in node.names}
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "functools"
            ):
                names = {node.attr}
            else:
                continue
            found += [(path.name, name) for name in sorted(names & caches)]
    assert found == []
