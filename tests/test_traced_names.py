"""The benchmark's tracer looks library functions up by name.

``perfbench/tracing.py`` wraps every function listed in its ``TRACED``
table; a rename in ``wavedof`` would make a traced benchmark run fail.
This test reads that table, without changing anything under
``perfbench/``, and checks each name against the library.
"""

import importlib
import importlib.util
import pathlib
import sys

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist(monkeypatch):
    # tracing.py imports its sibling as ``oracles``, a name the tests'
    # own oracle module also uses.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, "oracles", _load("oracles"))
    traced = _load("tracing").TRACED
    missing = [f"{mod}.{fn}" for mod, funcs in traced.items() for fn in funcs
               if not callable(getattr(importlib.import_module(f"wavedof.{mod}"),
                                       fn, None))]
    assert sum(len(funcs) for funcs in traced.values()) > 0
    assert missing == []
