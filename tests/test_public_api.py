"""Every public name of a plap module has a caller in the program.

A name in the `__all__` of `plap.mesh`, `functional`, `nehari`,
`optimizer`, `verify` or `cli` must be read somewhere in `src/plap` or
`scripts/` outside its own definition.  Reference code that only the
tests call lives in `tests/conftest.py` instead.  The scripts import no
underscore name from `plap`.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("mesh", "functional", "nehari", "optimizer", "verify", "cli")
SOURCES = [*sorted((ROOT / "src" / "plap").glob("*.py")),
           *sorted((ROOT / "scripts").glob("*.py"))]
TREES = {path: ast.parse(path.read_text()) for path in SOURCES}


def _dotted(node) -> str | None:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def _local_name(tree, module: str, name: str, home: bool) -> str | None:
    """The name under which `tree` binds plap.<module>.<name>, if any."""
    if home:
        return name
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom)
                and node.module in (module, f"plap.{module}")):
            for alias in node.names:
                if alias.name == name:
                    return alias.asname or name
    return None


def _reads(module: str, name: str) -> int:
    """Reads of plap.<module>.<name> in the program sources, the body of
    its own top-level definition excluded."""
    count = 0
    for path, tree in TREES.items():
        home = path.parent.name == "plap" and path.stem == module
        local = _local_name(tree, module, name, home)
        body = [node for node in tree.body
                if not (home and getattr(node, "name", None) == name)]
        for node in (sub for top in body for sub in ast.walk(top)):
            if (isinstance(node, ast.Name) and node.id == local
                    and isinstance(node.ctx, ast.Load)):
                count += 1
            elif (isinstance(node, ast.Attribute)
                    and _dotted(node) == f"plap.{module}.{name}"):
                count += 1
    return count


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_has_a_caller(module):
    public = importlib.import_module(f"plap.{module}").__all__
    unread = [name for name in public if _reads(module, name) == 0]
    assert not unread, f"plap.{module} exports names nothing reads: {unread}"


def _private_imports(tree) -> list[str]:
    """Underscore names, or modules on an underscore path, that `tree`
    imports from plap."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules, names = [alias.name for alias in node.names], []
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
            names = [alias.name for alias in node.names]
        else:
            continue
        for module in modules:
            if module.split(".")[0] != "plap":
                continue
            if any(part.startswith("_") for part in module.split(".")):
                found.append(module)
            found += [f"{module}.{name}" for name in names
                      if name.startswith("_")]
    return found


@pytest.mark.parametrize("path", sorted((ROOT / "scripts").glob("*.py")),
                         ids=lambda path: path.name)
def test_scripts_import_no_private_name(path):
    private = _private_imports(TREES[path])
    assert not private, f"{path.name} imports private names: {private}"
