"""Every global name the package's code loads is bound at import time, every
name a module imports is used there, and every public name is called by the
code that runs, not only by tests.

Python resolves a global only when the line runs, so a typo in a rarely taken
path surfaces as a ``NameError`` in the middle of a run. This check compiles
each module's source, walks all its code objects and looks up every
``LOAD_GLOBAL``/``LOAD_NAME`` operand in the imported module's namespace and
in ``builtins``.
"""
import ast
import builtins
import dis
import importlib
import pathlib
import pkgutil
import types

import pytest

import iktrack

MODULES = sorted(info.name for info in pkgutil.iter_modules(iktrack.__path__))


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def unbound_globals(source: str, filename: str, namespace) -> list[tuple[str, str]]:
    """(code object name, global name) for each load of a name that is bound
    neither in ``namespace`` nor in ``builtins``.

    ``LOAD_NAME`` in a class body also resolves names that body itself
    assigned, so those count as bound for that code object.
    """
    missing = []
    for code in _code_objects(compile(source, filename, "exec")):
        instructions = list(dis.get_instructions(code))
        local = {i.argval for i in instructions if i.opname == "STORE_NAME"}
        for ins in instructions:
            if ins.opname not in ("LOAD_GLOBAL", "LOAD_NAME"):
                continue
            name = ins.argval
            if ins.opname == "LOAD_NAME" and name in local:
                continue
            if name not in namespace and not hasattr(builtins, name):
                missing.append((code.co_name, name))
    return missing


def test_checker_reports_an_unbound_global():
    source = "import os\n\ndef f():\n    return os.sep, len(''), _missing(1)\n"
    assert unbound_globals(source, "<test>", {"os": object()}) == [("f", "_missing")]


def test_checker_accepts_class_body_names():
    source = "class C:\n    a = 1\n    b = a + 1\n"
    assert unbound_globals(source, "<test>", {"C": object()}) == []


@pytest.mark.parametrize("name", MODULES)
def test_module_globals_are_bound(name):
    module = importlib.import_module(f"iktrack.{name}")
    with open(module.__file__, encoding="utf-8") as f:
        source = f.read()
    assert unbound_globals(source, module.__file__, vars(module)) == []


def unused_imports(source: str, filename: str) -> list[str]:
    """Each name an import statement in ``source`` binds that no code there
    loads; a ``__future__`` import binds no name."""
    tree = ast.parse(source, filename)
    imported = [alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names]
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in loaded]


def test_checker_reports_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from json import dumps, loads\n\n"
              "def f() -> np.ndarray:\n    return os.sep, loads\n")
    assert unused_imports(source, "<test>") == ["dumps"]


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_are_used(name):
    path = pathlib.Path(importlib.import_module(f"iktrack.{name}").__file__)
    assert unused_imports(path.read_text(encoding="utf-8"), str(path)) == []


def test_exports_are_bound():
    assert [name for name in iktrack.__all__ if not hasattr(iktrack, name)] == []


ROOT = pathlib.Path(__file__).resolve().parents[1]

# public names that only tests call, each with the reason it stays
ORACLES = (
    ("Rotation.about_axis", "perfbench's tests build rotations with it"),
)


def pipeline_files():
    """The package's modules, the tools and the benchmark, without tests."""
    package = [p for p in (ROOT / "src" / "iktrack").glob("*.py") if p.name != "__init__.py"]
    bench = [p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")]
    return sorted(package + list((ROOT / "tools").glob("*.py")) + bench)


# the benchmark's own modules: a function one of them defines under a public
# name of the package does not use that name
BENCH_MODULES = {"refkin", "checks", "speed", "tracing", "bench"}


def used_names(paths) -> set[str]:
    """Every identifier that the files load or store as a name or read as an
    attribute, except an attribute read on one of ``BENCH_MODULES``."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and not (
                    isinstance(node.value, ast.Name) and node.value.id in BENCH_MODULES):
                names.add(node.attr)
    return names


def public_api():
    """(qualified name, name) of each ``iktrack.__all__`` entry, and of each
    public method or property of an exported class that is not an exception."""
    for name in iktrack.__all__:
        if name.startswith("__"):
            continue
        yield name, name
        obj = getattr(iktrack, name)
        if isinstance(obj, type) and not issubclass(obj, BaseException):
            for member, value in vars(obj).items():
                if not member.startswith("_") and isinstance(
                        value, (types.FunctionType, classmethod, staticmethod, property)):
                    yield f"{name}.{member}", member


def test_every_public_name_is_called_outside_the_tests():
    used = used_names(pipeline_files())
    exempt = {name for name, _ in ORACLES}
    api = list(public_api())
    assert [qual for qual, name in api if qual not in exempt and name not in used] == []
    # an exemption names a public name that still needs it
    assert sorted(exempt - {qual for qual, name in api if name not in used}) == []
