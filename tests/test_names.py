"""Every global name the package's code loads is bound at import time.

Python resolves a global only when the line runs, so a typo in a rarely taken
path surfaces as a ``NameError`` in the middle of a run. This check compiles
each module's source, walks all its code objects and looks up every
``LOAD_GLOBAL``/``LOAD_NAME`` operand in the imported module's namespace and
in ``builtins``.
"""
import builtins
import dis
import importlib
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


def test_exports_are_bound():
    assert [name for name in iktrack.__all__ if not hasattr(iktrack, name)] == []
