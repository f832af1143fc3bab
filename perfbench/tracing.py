"""Per-layer tracing installed from outside the library.

A traced run replaces each public function listed in ``TRACED`` with a
wrapper, under every name in the five ``wavedof`` modules that refers to
it. That reaches each call site at the name its caller looks up:
``modes`` calls ``specfun.X``, ``rankcheck`` and ``cli`` import functions
by name, and ``truncation_error`` imports ``jacobi_anger_values`` at call
time. Wrappers return the wrapped result unchanged.

Each wrapped call records a span: name, start, end, parent span and
iteration id, plus a work count computed from the call's arguments and,
in a memory pass, the peak memory ``tracemalloc`` saw during the span.
Spans stay in memory; ``layer_metrics`` reduces them once the run ends.
"""

import functools
import inspect
import statistics
import time
import tracemalloc

import oracles

MB = 1024.0 * 1024.0


def _bins(a, result):
    cfg = a["cfg"]
    return oracles.bin_count(cfg.W, cfg.T, cfg.f0)


def _phases(a, result):
    return len(a["positions"]) * len(a["pws"])


def _matrix_bytes(a, result):
    return len(a["grid"].weights) * len(a["modes"]) * 16


def _grid_points(a, result):
    n_r, n_ang, n_t = a["resolution"]
    if a["dim"].value == "2d":
        return n_r * n_ang * n_t
    return n_r * n_ang * 2 * n_ang * n_t


def _order(a, result):
    return len(a["matrix"])


#: module -> {function: work count (bound arguments, result) -> int, or None}
TRACED = {
    "specfun": {"bessel_J": None, "spherical_bessel_j": None,
                "norm_assoc_legendre_table": None},
    "bounds": {"bound_report": None, "exact_mode_sum": _bins,
               "frequency_bins": None},
    "modes": {"enumerate_modes": lambda a, result: len(result),
              "synthesize_field": None, "field_values": _phases,
              "mode_matrix": _matrix_bytes, "project_field": None,
              "jacobi_anger_values": None},
    "rankcheck": {"build_grid": _grid_points, "gram_of_modes": None,
                  "ensemble_spectrum": None, "eigen_spectrum": _order,
                  "truncation_error": None},
    "cli": {"evaluate_sweep": None, "verify_report": None},
}

#: (metric, unit, span, reduction within one iteration)
LAYER_METRICS = (
    ("cli.evaluate_sweep.self_s", "s", "cli.evaluate_sweep", "self_s"),
    ("cli.verify_report.self_s", "s", "cli.verify_report", "self_s"),
    ("bounds.bound_report.calls", "count", "bounds.bound_report", "calls"),
    ("bounds.bound_report.s", "s", "bounds.bound_report", "s"),
    ("bounds.exact_mode_sum.calls", "count", "bounds.exact_mode_sum", "calls"),
    ("bounds.exact_mode_sum.s", "s", "bounds.exact_mode_sum", "s"),
    ("bounds.exact_mode_sum.bins", "count", "bounds.exact_mode_sum", "work"),
    ("bounds.frequency_bins.s", "s", "bounds.frequency_bins", "s"),
    ("modes.field_values.calls", "count", "modes.field_values", "calls"),
    ("modes.field_values.s", "s", "modes.field_values", "s"),
    ("modes.field_values.phases", "count", "modes.field_values", "work"),
    ("modes.mode_matrix.calls", "count", "modes.mode_matrix", "calls"),
    ("modes.mode_matrix.s", "s", "modes.mode_matrix", "s"),
    ("modes.mode_matrix.bytes", "B", "modes.mode_matrix", "work"),
    ("modes.enumerate_modes.s", "s", "modes.enumerate_modes", "s"),
    ("modes.enumerate_modes.modes", "count", "modes.enumerate_modes", "work"),
    ("modes.synthesize_field.s", "s", "modes.synthesize_field", "s"),
    ("modes.project_field.self_s", "s", "modes.project_field", "self_s"),
    ("modes.jacobi_anger_values.self_s", "s", "modes.jacobi_anger_values", "self_s"),
    ("rankcheck.gram_of_modes.self_s", "s", "rankcheck.gram_of_modes", "self_s"),
    ("rankcheck.gram_of_modes.peak_mb", "MB", "rankcheck.gram_of_modes", "peak_mb"),
    ("rankcheck.ensemble_spectrum.self_s", "s", "rankcheck.ensemble_spectrum", "self_s"),
    ("rankcheck.ensemble_spectrum.peak_mb", "MB", "rankcheck.ensemble_spectrum", "peak_mb"),
    ("rankcheck.build_grid.s", "s", "rankcheck.build_grid", "s"),
    ("rankcheck.grid_points", "count", "rankcheck.build_grid", "work"),
    ("rankcheck.eigen_spectrum.s", "s", "rankcheck.eigen_spectrum", "s"),
    ("rankcheck.eigen_spectrum.order", "count", "rankcheck.eigen_spectrum", "work_max"),
    ("rankcheck.truncation_error.self_s", "s", "rankcheck.truncation_error", "self_s"),
    ("specfun.bessel_J.calls", "count", "specfun.bessel_J", "calls"),
    ("specfun.bessel_J.s", "s", "specfun.bessel_J", "s"),
    ("specfun.spherical_bessel_j.calls", "count", "specfun.spherical_bessel_j", "calls"),
    ("specfun.spherical_bessel_j.s", "s", "specfun.spherical_bessel_j", "s"),
    ("specfun.norm_assoc_legendre_table.s", "s", "specfun.norm_assoc_legendre_table", "s"),
)

#: spans whose peak traced memory is recorded, in a separate memory pass
PEAK_SPANS = ("rankcheck.gram_of_modes", "rankcheck.ensemble_spectrum")

# span record fields
NAME, START, END, PARENT, ITER, WORK, PEAK = range(7)


class Tracer:
    """Span recorder; records only while ``iteration`` is not None.

    With ``memory`` set, ``tracemalloc`` runs inside each span named in
    PEAK_SPANS and the span records its peak. ``tracemalloc`` slows
    pure-Python code several times over (scalar Bessel loops most), so a
    memory pass is kept apart from the pass whose times are reported.
    """

    def __init__(self, modules: dict, memory: bool = False):
        self.modules = modules
        self.memory = memory
        self.spans = []
        self.iteration = None
        self._open = []      # indices of open spans, innermost last
        self._patched = []   # (module, attribute, original)

    def install(self) -> None:
        for mod_name, funcs in TRACED.items():
            home = self.modules[mod_name]
            for fname, count in funcs.items():
                orig = getattr(home, fname)
                wrapper = self._wrap(f"{mod_name}.{fname}", orig, count)
                for mod in self.modules.values():
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._patched.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def _wrap(self, name, fn, count):
        sig = inspect.signature(fn) if count else None
        peak = self.memory and name in PEAK_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.iteration is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self._open[-1] if self._open else None,
                    self.iteration, 0, 0]
            self._open.append(len(self.spans))
            self.spans.append(span)
            if peak:
                tracemalloc.start()
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self._open.pop()
                if peak:
                    span[PEAK] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if count:
                span[WORK] = count(sig.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper


def _per_iteration(spans: list, iterations: int) -> list:
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            child_time[s[PARENT]] += s[END] - s[START]
    per_iter = [dict() for _ in range(iterations)]
    for idx, s in enumerate(spans):
        acc = per_iter[s[ITER]].setdefault(s[NAME], {
            "calls": 0, "s": 0.0, "self_s": 0.0, "work": 0, "work_max": 0,
            "peak_mb": 0.0})
        dur = s[END] - s[START]
        acc["calls"] += 1
        acc["s"] += dur
        acc["self_s"] += dur - child_time[idx]
        acc["work"] += s[WORK]
        acc["work_max"] = max(acc["work_max"], s[WORK])
        acc["peak_mb"] = max(acc["peak_mb"], s[PEAK] / MB)
    return per_iter


def layer_metrics(timing: Tracer, iterations: int, memory: Tracer,
                  memory_iterations: int) -> dict:
    """Median over iterations of each per-iteration layer total.

    Peaks come from the memory pass, everything else from the timing
    pass. A layer that never ran in the workload reports 0.
    """
    timed = _per_iteration(timing.spans, iterations)
    peaks = _per_iteration(memory.spans, memory_iterations)
    out = {}
    for metric, unit, span, kind in LAYER_METRICS:
        vals = [it.get(span, {}).get(kind, 0)
                for it in (peaks if kind == "peak_mb" else timed)]
        out[metric] = {"value": statistics.median(vals) if vals else 0,
                       "unit": unit}
    return out
