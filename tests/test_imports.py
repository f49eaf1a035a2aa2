"""Source hygiene: every name a module of the package imports is used, every
private module-level name is read, and no module imports ``dataclasses``."""

import ast
from pathlib import Path

import pytest

import ellf

MODULES = sorted(path for path in Path(ellf.__file__).parent.rglob("*.py")
                 if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the import statements of ``source`` that no other
    statement reads. A ``from __future__`` import binds no name."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_every_module_of_the_package_is_checked():
    assert {path.name for path in MODULES} >= {"asm.py", "isa.py", "lifter.py", "meta.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_import_left_behind_is_found():
    source = "from .isa import MemRef, SymbolRef\n\ndef f(op):\n    return MemRef()\n"
    assert unused_imports(source) == ["line 1: SymbolRef"]


def private_names(source: str) -> set[str]:
    """The ``_name``s that the top-level statements of ``source`` define."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(name.id for target in targets for name in ast.walk(target)
                         if isinstance(name, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def read_names(source: str) -> set[str]:
    return {node.id for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each private module-level name of ``sources``
    that no module of ``sources`` reads."""
    read = set().union(*map(read_names, sources.values()))
    return sorted(f"{module}.{name}" for module, source in sources.items()
                  for name in private_names(source) - read)


def test_every_private_module_level_name_is_read_by_the_package():
    sources = {path.stem: path.read_text() for path in Path(ellf.__file__).parent.rglob("*.py")}
    assert unread_private_names(sources) == []


def test_a_helper_left_behind_is_found():
    sources = {"isa": "_USED = 1\n_LEFT, _OTHER = 2, 3\ndef _helper():\n    return _USED\n"
                      "class _Kept:\n    pass\n",
               "asm": "from .isa import _OTHER, _Kept\n\nx = _OTHER, _Kept\n"}
    assert unread_private_names(sources) == ["isa._LEFT", "isa._helper"]


def imported_modules(source: str) -> set[str]:
    """The top-level names of the modules ``source`` imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module.partition(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(Path(ellf.__file__).parent.rglob("*.py")),
                         ids=lambda path: path.name)
def test_no_module_imports_dataclasses(path):
    # Defining a dataclass generates and compiles its methods at import,
    # which every command pays for at start-up; records are NamedTuples.
    assert "dataclasses" not in imported_modules(path.read_text())


def test_a_dataclasses_import_is_found():
    assert "dataclasses" in imported_modules("from dataclasses import dataclass\n")
    assert "dataclasses" in imported_modules("import dataclasses as dc\n")
