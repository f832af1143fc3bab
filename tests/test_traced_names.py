"""The benchmark's tracer looks library functions up by name.

``perfbench/tracing.py`` wraps every function listed in its ``TRACED``
table, and its work counters read some of their arguments by parameter
name; a rename in ``wavedof`` of either would make a traced benchmark
run fail. These tests read that table, without changing anything under
``perfbench/``, and check each name against the library. The benchmark's
workloads and tracer also read the per-point arrays of a space-time
grid, which the grid builds on request; the last test checks that a
grid from ``build_grid`` still has every attribute they read.
"""

import importlib
import importlib.util
import inspect
import pathlib
import re
import sys

from wavedof import Dimension, PhysicalConfig, build_grid

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: parameters each work counter of ``TRACED`` reads from the bound arguments
COUNTER_ARGUMENTS = {
    "bounds.exact_mode_sum": {"cfg"},
    "modes.enumerate_modes": set(),
    "modes.field_values": {"pws", "positions"},
    "modes.mode_matrix": {"modes", "grid"},
    "rankcheck.build_grid": {"dim", "resolution"},
    "rankcheck.eigen_spectrum": {"matrix"},
}


def _traced(monkeypatch) -> dict:
    # tracing.py imports its sibling as ``oracles``, a name the tests'
    # own oracle module also uses.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, "oracles", _load("oracles"))
    return _load("tracing").TRACED


def test_traced_functions_exist(monkeypatch):
    traced = _traced(monkeypatch)
    missing = [f"{mod}.{fn}" for mod, funcs in traced.items() for fn in funcs
               if not callable(getattr(importlib.import_module(f"wavedof.{mod}"),
                                       fn, None))]
    assert sum(len(funcs) for funcs in traced.values()) > 0
    assert missing == []


def test_traced_counter_arguments_exist(monkeypatch):
    counted = {f"{mod}.{fn}": getattr(importlib.import_module(f"wavedof.{mod}"), fn)
               for mod, funcs in _traced(monkeypatch).items()
               for fn, count in funcs.items() if count}
    assert set(counted) == set(COUNTER_ARGUMENTS)
    missing = {name: sorted(COUNTER_ARGUMENTS[name]
                            - set(inspect.signature(fn).parameters))
               for name, fn in counted.items()}
    assert all(not names for names in missing.values()), missing


def test_grid_exposes_what_the_benchmark_reads():
    text = "\n".join(p.read_text(encoding="utf-8")
                     for p in sorted(PERFBENCH.glob("*.py")))
    read = set(re.findall(r'(?:(?<![\w.])grid|\["grid"\])\.([a-z_]+)', text))
    assert {"points", "times", "weights"} <= read and "len(grid)" in text
    g = build_grid(Dimension.THREE_D, PhysicalConfig(R=1.0, W=1.0, T=1.0, f0=2.0, c=1.0),
                   (2, 3, 4))
    n = 2 * 3 * 6 * 4
    assert sorted(name for name in read if not hasattr(g, name)) == []
    assert len(g) == n
    assert (g.points.shape, g.times.shape, g.weights.shape) == ((n, 3), (n,), (n,))
