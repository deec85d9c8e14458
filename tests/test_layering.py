"""Module layering of the package: no module reaches into another's
private names or imports a name it never uses, the two computation paths
stay independent of each other, the CLI takes its paths from the path
table, and the public API resolves."""

import argparse
import ast
from pathlib import Path

import wmpinv
from wmpinv import verify
from wmpinv.cli import build_parser

SRC = Path(wmpinv.__file__).parent
PATH_MODULES = {"greville", "poly_greville"}


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


def unused_imports(path):
    """Names the file imports (``from __future__`` aside) and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_no_module_imports_a_name_it_never_uses():
    # the package's re-exports are read through ``__all__``
    unused = {
        (path.name, name)
        for path in sorted(SRC.glob("*.py"))
        for name in unused_imports(path)
        if not (path.name == "__init__.py" and name in wmpinv.__all__)
    }
    assert unused == set()


def test_the_two_paths_do_not_import_each_other():
    for own in PATH_MODULES:
        imported = {
            module or name for module, name in relative_imports(SRC / f"{own}.py")
        }
        assert not imported & (PATH_MODULES - {own}), own


def test_the_penrose_checker_does_not_import_the_kernel():
    # it decides the identities on packed integers, not through ``conv``
    imported = {name for _, name in relative_imports(SRC / "verify.py")}
    assert "conv" not in imported


def test_the_rational_path_does_not_import_the_kernel():
    # it shares the codec, pack and digits, with the coefficient path, but
    # forms its packed numerators itself, not through ``conv``
    for own in ("matrices", "greville"):
        imported = {name for _, name in relative_imports(SRC / f"{own}.py")}
        assert "conv" not in imported, own


def test_the_cli_imports_no_path_module():
    # the choice of path is written once, in verify.PATHS
    imported = {module for module, _ in relative_imports(SRC / "cli.py")}
    assert imported & PATH_MODULES == set()


def test_the_cli_offers_the_paths_of_the_path_table():
    parsers = next(
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    offered = {}
    for command in ("compute", "invert"):
        (path,) = [a for a in parsers[command]._actions if a.dest == "path"]
        assert path.default == "rational"
        offered[command] = path.choices
    assert offered == {"compute": (*verify.PATHS, "both"), "invert": tuple(verify.PATHS)}


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
