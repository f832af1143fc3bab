"""Command-line surface: bound reports, sweeps, mode tables, verification.

Subcommands
-----------
bounds   print every bound for one configuration (table or JSON)
sweep    evaluate bound quantities over a 2-axis parameter grid -> CSV
modes    dump the enumerated mode table -> CSV
verify   quadrature Gram + ensemble covariance rank experiment -> JSON
figure   canned sweeps (fig3 | fig4 | fig5) reproducing the survey plots

Exit codes: 0 success; 2 configuration error (violated invariant, malformed
number, axis or config file, rejected argv: a flag value of the wrong type,
an invalid choice, an unknown flag or no subcommand; overflowing count,
quadrature weights beyond the float range, unopenable file); 3 mode cap
exceeded (also by the frequency bins alone, or by a sweep's cells); 4 grid
resolution below minimum. Each of these prints one line to stderr.

File formats: CSV is UTF-8 with LF line endings, ``# key = value``
metadata lines, then a header row; numbers carry 12 significant digits
and integers are written bare. Mode tables and spectrum exports are
written row by row as each row is formed; a sweep CSV is formed whole.
JSON reports use a stable key order. The optional SVG heatmap maps cell
values linearly onto a blue-to-red ramp between the grid min and max.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .bounds import (DEFAULT_MODE_CAP, QUANTITIES, ConfigError, Dimension,
                     ModeCapError, PhysicalConfig, _lattice_count, bin_degrees,
                     bound_report, bound_values, check_cap, exact_mode_sum)
from .modes import _bin_orders, enumerate_modes, synthesize_field
from .rankcheck import (RankPolicy, ResolutionError, SpectrumReport,
                        build_grid, ensemble_spectrum, gram_spectrum)

PRNG_NAME = "numpy-pcg64"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAP = 3
EXIT_RESOLUTION = 4

SWEEP_PARAMS = ("R", "W", "T", "F0")
CONFIG_KEYS = (*SWEEP_PARAMS, "c", "seed")   # of a --config file, and their flags

FIGURE_PRESETS = {
    # fixed parameters from the survey captions; axis spans chosen to
    # cover the qualitative regimes (ranges are not printed there).
    "fig3": {"fixed": {"T": 5e-4, "F0": 2.4e9},
             "axis1": ("R", 0.01, 10.0, 13, "log"),
             "axis2": ("W", 1e3, 1e8, 11, "log")},
    "fig4": {"fixed": {"T": 1e-6, "F0": 2.4e6},
             "axis1": ("W", 1e3, 5e4, 9, "log"),
             "axis2": ("R", 1e-3, 1.0, 9, "log")},
    "fig5": {"fixed": {"W": 1e3, "F0": 2.4e9},
             "axis1": ("T", 0.0, 1e-3, 11, "linear"),
             "axis2": ("R", 0.0, 1.0, 11, "linear")},
}
FIGURE_QUANTITIES = ("thm2", "d_2wt", "d_space3d")


@dataclass(frozen=True)
class Axis:
    name: str
    lo: float
    hi: float
    count: int
    scale: str

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.logspace(math.log10(self.lo), math.log10(self.hi), self.count)
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class SweepSpec:
    axis1: Axis
    axis2: Axis
    fixed: dict
    quantities: tuple


def fmt_num(x) -> str:
    """12-significant-digit text form; integral values print bare."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    xf = float(x)
    if math.isfinite(xf) and xf == int(xf) and abs(xf) < 1e15:
        return str(int(xf))
    return format(xf, ".12g")


def _round12(x: float) -> float:
    return float(format(float(x), ".12g"))


def _rounded(values: dict) -> dict:
    """``values`` with every float rounded to 12 significant digits."""
    return {k: _round12(v) if isinstance(v, float) else v
            for k, v in values.items()}


def _csv_lines(meta: dict, header: str, rows):
    """``# key = value`` lines, a header row, then one :func:`fmt_num` row
    per item of ``rows``: each line, LF included, is formed as it is read."""
    yield from [f"# {k} = {v}\n" for k, v in meta.items()] + [header + "\n"]
    yield from (",".join(map(fmt_num, row)) + "\n" for row in rows)


def _write_text(path: str, pieces) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(pieces)


def run_metadata(seed=None, extra: dict | None = None) -> dict:
    now = _dt.datetime.now(_dt.timezone.utc)
    meta = {"tool": "wavedof", "version": __version__,
            "generated": now.strftime("%Y-%m-%dT%H:%M:%SZ"), "prng": PRNG_NAME}
    if seed is not None:
        meta["seed"] = int(seed)
    if extra:
        meta.update(extra)
    return meta


def _number(text: str, what: str, kind=float):
    try:
        return kind(text)
    except (ValueError, OverflowError) as exc:
        expects = "an integer" if kind is int else "a number"
        raise ConfigError(f"{what} expects {expects}, got {text!r}") from exc


def _read_assignments(items, names, taken=()) -> dict:
    """``{name: number}`` from ``(where, "name = value")`` items, ``where``
    prefixing any error. Each name is one of ``names``, given once and not
    one of ``taken``; ``seed`` is read as an int, every other name as a float."""
    out: dict = {}
    for where, text in items:
        if "=" not in text:
            raise ConfigError(f"{where}: expected 'name = value', got {text!r}")
        name, value = (s.strip() for s in text.split("=", 1))
        if name not in names:
            raise ConfigError(f"{where}: unknown name {name!r}")
        if name in out or name in taken:
            raise ConfigError(f"{where}: {name!r} is already set")
        out[name] = _number(value, f"{where}: {name}", int if name == "seed" else float)
    return out


# ---------------------------------------------------------------------------
# configuration flags

def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--R", type=float, default=None, help="region radius in meters")
    p.add_argument("--W", type=float, default=None, help="half bandwidth in Hz")
    p.add_argument("--T", type=float, default=None, help="observation time in seconds")
    p.add_argument("--F0", type=float, default=None, help="center frequency in Hz")
    p.add_argument("--c", type=float, default=None, help="wave speed in m/s (default 3e8)")
    p.add_argument("--config", type=str, default=None,
                   help="plain key = value file; flags override it")


def _read_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    items = ((f"{path}:{lineno}", raw.split("#", 1)[0].strip())
             for lineno, raw in enumerate(lines, 1))
    return _read_assignments(((where, text) for where, text in items if text),
                             CONFIG_KEYS)


def _config_from_args(args) -> tuple[PhysicalConfig, int]:
    """The configuration and seed: flags over the ``--config`` file (read
    once) over the defaults (seed 0, c of PhysicalConfig.from_params)."""
    base = {"seed": 0}
    if args.config:
        base.update(_read_config_file(args.config))
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            base[key] = flag
    missing = [k for k in SWEEP_PARAMS if k not in base]
    if missing:
        raise ConfigError(f"missing required parameters: {', '.join(missing)}")
    return PhysicalConfig.from_params(base), base["seed"]


def _dim_from_args(args) -> Dimension:
    if args.two_sided and args.dim == "3d":
        raise ConfigError("--two-sided applies to --dim 2d only")
    return Dimension(args.dim)


# ---------------------------------------------------------------------------
# bounds

def cmd_bounds(args) -> int:
    report = bound_report(_config_from_args(args)[0])
    if args.json:
        doc = {"metadata": run_metadata(), "bounds": _rounded(report.as_dict())}
        print(json.dumps(doc, indent=2))
    else:
        for key, val in report.as_dict().items():
            print(f"{key:12s} {fmt_num(val)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweeps

def _parse_axis(text: str) -> Axis:
    parts = text.split(":")
    if len(parts) != 5:
        raise ConfigError(f"axis must be name:min:max:count:scale, got {text!r}")
    name, lo, hi, count, scale = parts
    if name not in SWEEP_PARAMS:
        raise ConfigError(f"axis parameter must be one of {SWEEP_PARAMS}, got {name!r}")
    if scale not in ("linear", "log"):
        raise ConfigError(f"axis scale must be linear or log, got {scale!r}")
    lo, hi, count = (_number(lo, "axis min"), _number(hi, "axis max"),
                     _number(count, "axis count", int))
    if not -math.inf < lo < hi < math.inf:
        raise ConfigError(f"axis needs finite min < max, got {lo}, {hi}")
    if count < 2:
        raise ConfigError(f"axis needs count >= 2, got {count}")
    if scale == "log" and lo <= 0:
        raise ConfigError("log axis needs min > 0")
    return Axis(name, lo, hi, count, scale)


def _sweep_spec_from_args(args) -> SweepSpec:
    a1 = _parse_axis(args.axis1)
    a2 = _parse_axis(args.axis2)
    if a1.name == a2.name:
        raise ConfigError("axis parameters must be distinct")
    check_cap(a1.count * a2.count, "sweep cells")
    fixed = _read_assignments((("--fixed", item) for item in args.fixed or []),
                              (*SWEEP_PARAMS, "c"), taken=(a1.name, a2.name))
    quantities = tuple(args.quantities.split(","))
    for i, q in enumerate(quantities):
        if q not in QUANTITIES:
            raise ConfigError(f"unknown quantity {q!r}; choose from {tuple(QUANTITIES)}")
        if q in quantities[:i]:
            raise ConfigError(f"--quantities names {q!r} twice")
    missing = set(SWEEP_PARAMS) - {a1.name, a2.name} - set(fixed)
    if missing:
        raise ConfigError(f"missing --fixed values for: {', '.join(sorted(missing))}")
    return SweepSpec(a1, a2, fixed, quantities)


def evaluate_sweep(spec: SweepSpec) -> list[list]:
    """Row-major evaluation over axis1 x axis2; deterministic order. Each
    cell evaluates only the requested quantities."""
    rows = []
    for v1 in spec.axis1.values():
        for v2 in spec.axis2.values():
            cfg = PhysicalConfig.from_params(
                {**spec.fixed, spec.axis1.name: v1, spec.axis2.name: v2})
            rows.append([v1, v2, *bound_values(cfg, spec.quantities)])
    return rows


def render_sweep_csv(meta: dict, spec: SweepSpec, rows: list[list]) -> str:
    axes = {tag: f"{ax.name}:{fmt_num(ax.lo)}:{fmt_num(ax.hi)}:{ax.count}:{ax.scale}"
            for tag, ax in (("axis1", spec.axis1), ("axis2", spec.axis2))}
    fixed = {f"fixed {key}": fmt_num(spec.fixed[key]) for key in sorted(spec.fixed)}
    return "".join(_csv_lines({**meta, **axes, **fixed},
                              "axis1,axis2," + ",".join(spec.quantities), rows))


def _parse_cell(text: str):
    # Integral cells are exact counts, which pass 2^53 and the float range.
    try:
        return int(text)
    except ValueError:
        return float(text)


def parse_sweep_csv(text: str) -> tuple[dict, SweepSpec, list[list]]:
    """Inverse of :func:`render_sweep_csv`; re-rendering is byte-identical."""
    meta: dict = {}
    axes: dict = {}
    fixed: dict = {}
    header = None
    rows: list[list] = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, val = (s.strip() for s in line[2:].split("=", 1))
            if key in ("axis1", "axis2"):
                axes[key] = _parse_axis(val)
            elif key.startswith("fixed "):
                fixed[key.split()[1]] = float(val)
            else:
                meta[key] = val
        elif header is None:
            header = line.split(",")
        else:
            rows.append([_parse_cell(v) for v in line.split(",")])
    if header is None or "axis1" not in axes or "axis2" not in axes:
        raise ValueError("not a sweep CSV")
    spec = SweepSpec(axes["axis1"], axes["axis2"], fixed, tuple(header[2:]))
    return meta, spec, rows


def _color(frac: float) -> str:
    # linear blue -> red ramp
    r = int(round(255 * frac))
    b = int(round(255 * (1.0 - frac)))
    return f"#{r:02x}40{b:02x}"


def _color_coordinates(values: list) -> tuple[np.ndarray, str]:
    """Values as floats to color by, and the scale they are on.

    Linear while every value fits a float. An exact count past the float
    range (about 1e308) switches the whole map to log10, which
    ``math.log10`` takes from a Python int of any size; values <= 0 have
    no log and come back as nan.
    """
    try:
        return np.array(values, dtype=float), "linear"
    except OverflowError:
        return np.array([math.log10(v) if v > 0 else math.nan
                         for v in values]), "log10"


def render_sweep_svg(spec: SweepSpec, rows: list[list], quantity: str) -> str:
    """Heatmap of one quantity; color is linear between grid min and max.

    Counts too large for a float are colored by log10 instead, and cells
    without a finite coordinate are gray.
    """
    qi = 2 + list(spec.quantities).index(quantity)
    n1, n2 = spec.axis1.count, spec.axis2.count
    coords, scale = _color_coordinates([r[qi] for r in rows])
    vals = coords.reshape(n1, n2)
    finite = vals[np.isfinite(vals)]
    lo, hi = (float(finite.min()), float(finite.max())) if finite.size else (0.0, 0.0)
    span = hi - lo if hi > lo else 1.0
    cell, margin = 14, 40
    width, height = margin + n2 * cell + 10, margin + n1 * cell + 10
    meta = run_metadata()
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}">',
             "<!-- " + " ".join(f"{k}={v}" for k, v in meta.items()) + " -->",
             f'<text x="4" y="14" font-size="11">{quantity}: '
             f'{fmt_num(lo)} (blue) to {fmt_num(hi)} (red), {scale}</text>',
             f'<text x="4" y="28" font-size="11">rows: {spec.axis1.name}, '
             f'cols: {spec.axis2.name}</text>']
    for i1 in range(n1):
        for i2 in range(n2):
            v = vals[i1, i2]
            # an overflowed closed form (inf) or a value without a log
            fill = _color((v - lo) / span) if math.isfinite(v) else "#808080"
            parts.append(f'<rect x="{margin + i2 * cell}" y="{margin + i1 * cell}" '
                         f'width="{cell}" height="{cell}" fill="{fill}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_sweep(args, preset: str | None = None) -> int:
    if preset is None:
        spec = _sweep_spec_from_args(args)
    else:
        conf = FIGURE_PRESETS[preset]
        spec = SweepSpec(Axis(*conf["axis1"]), Axis(*conf["axis2"]),
                         dict(conf["fixed"]), FIGURE_QUANTITIES)
    rows = evaluate_sweep(spec)
    meta = run_metadata(extra={"kind": f"sweep:{preset or 'custom'}"})
    _write_text(args.output, [render_sweep_csv(meta, spec, rows)])
    if args.svg:
        _write_text(args.svg, [render_sweep_svg(spec, rows, spec.quantities[0])])
    print(f"wrote {len(rows)} rows to {args.output}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# mode table

def cmd_modes(args) -> int:
    """Write the (i, n, m, f, k) rows of ``enumerate_modes`` bin by bin: each
    :func:`~wavedof.bounds.bin_degrees` bin's ``_bin_orders`` at its f and
    ``cfg.wavenumber(f)``, one row at a time, once the count passes ``--cap``."""
    if args.cap < 1:
        raise ConfigError(f"--cap must be >= 1, got {args.cap}")
    cfg = _config_from_args(args)[0]
    dim = _dim_from_args(args)
    bins, freqs, degrees = bin_degrees(cfg)
    count = _lattice_count(dim, map(int, degrees), args.two_sided)
    check_cap(count, "modes", args.cap)
    meta = run_metadata(extra={"kind": "modes", "dim": dim.value})
    rows = ((i, n, m, f, k)
            for i, f, degree in zip(map(int, bins), map(float, freqs), degrees)
            for k in (cfg.wavenumber(f),)
            for n, m in _bin_orders(dim, int(degree), args.two_sided))
    _write_text(args.output, _csv_lines(meta, "i,n,m,f_hz,k_rad_per_m", rows))
    print(f"{count} modes")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification

def _spectrum_doc(spec: SpectrumReport) -> dict:
    return {"eigenvalues": [_round12(v) for v in spec.eigenvalues],
            "trace": _round12(spec.trace),
            "rank_threshold": spec.rank_threshold,
            "rank_energy": spec.rank_energy,
            "epsilon": spec.epsilon, "eta": spec.eta}


def write_spectrum_csv(path: str, part: dict, meta: dict) -> None:
    """A report's ``gram`` or ``ensemble`` block as CSV: index, its rounded
    eigenvalue and cumsum / total (zeros when the total is 0)."""
    evals = np.array(part["eigenvalues"])
    total = float(np.sum(evals))
    fractions = np.cumsum(evals) / total if total else np.zeros_like(evals)
    rows = ((idx, ev, _round12(cf)) for idx, (ev, cf) in
            enumerate(zip(part["eigenvalues"], fractions)))
    _write_text(path, _csv_lines(meta, "index,eigenvalue,cumulative_fraction", rows))


def verify_report(cfg: PhysicalConfig, dim: Dimension, *, waves: int,
                  fields: int, seed: int, resolution: tuple,
                  policy: RankPolicy, two_sided: bool = False) -> dict:
    """Run the full rank experiment and assemble the JSON document.

    The Gram spectrum is taken channel by channel
    (:func:`~wavedof.rankcheck.gram_spectrum`). Every ratio divides a
    rank by ``exact_mode_sum(dim, cfg, two_sided)``, the number of modes
    the Gram is built from. Raises :class:`ModeCapError` before
    allocating when the grid points (:func:`~wavedof.rankcheck.build_grid`
    checks them), the Gram entries (modes^2), the ensemble's time-factor
    entries or its dual's entries (fields^2) fail
    :func:`~wavedof.bounds.check_cap`. The channel spectrum forms no
    M x M Gram past a few dozen modes, but the pre-flight still counts
    its modes^2 entries, so the exit code and the cap a mode set meets do
    not depend on how the Gram splits.
    """
    exact = exact_mode_sum(dim, cfg, two_sided)
    grid = build_grid(dim, cfg, resolution)
    for what, size in (("Gram entries", exact ** 2),
                       ("ensemble time-factor entries", fields * waves * resolution[2]),
                       ("ensemble dual entries", fields ** 2)):
        check_cap(size, what)
    modes = enumerate_modes(dim, cfg, two_sided=two_sided)
    gram_spec = gram_spectrum(modes, grid, cfg, policy)
    ensemble = [synthesize_field(dim, cfg, waves, seed + 1000 * j)
                for j in range(fields)]
    ens_spec = ensemble_spectrum(ensemble, grid, policy)
    bounds = _rounded(bound_report(cfg).as_dict())
    return {
        "metadata": run_metadata(seed=seed, extra={
            "kind": "verify", "dim": dim.value,
            "config": cfg.params(),
            "waves": waves, "fields": fields,
            "resolution": list(resolution),
            "two_sided": two_sided,
            "policy": {"epsilon": policy.epsilon, "eta": policy.eta}}),
        "bounds": bounds,
        "gram": {"modes": len(modes), **_spectrum_doc(gram_spec)},
        "ensemble": {"fields": fields, **_spectrum_doc(ens_spec)},
        "ratios": {
            "gram_rank_threshold_over_exact": _round12(gram_spec.rank_threshold / exact),
            "gram_rank_energy_over_exact": _round12(gram_spec.rank_energy / exact),
            "ensemble_rank_threshold_over_exact": _round12(ens_spec.rank_threshold / exact),
            "ensemble_rank_energy_over_exact": _round12(ens_spec.rank_energy / exact),
        },
    }


def _parse_resolution(text: str) -> tuple:
    resolution = tuple(_number(s, "--resolution", int) for s in text.split(","))
    if len(resolution) != 3 or min(resolution) < 1:
        raise ConfigError("--resolution expects three positive integers "
                          f"n_radial,n_angular,n_time, got {text!r}")
    return resolution


def cmd_verify(args) -> int:
    cfg, seed = _config_from_args(args)
    dim = _dim_from_args(args)
    resolution = _parse_resolution(args.resolution)
    policy = RankPolicy(epsilon=args.epsilon, eta=args.eta)
    for name, value, least in (("--fields", args.fields, 1),
                               ("--waves", args.waves, 1), ("--seed", seed, 0)):
        if value < least:
            raise ConfigError(f"{name} must be >= {least}, got {value}")
    doc = verify_report(cfg, dim, waves=args.waves, fields=args.fields,
                        seed=seed, resolution=resolution, policy=policy,
                        two_sided=args.two_sided)
    text = json.dumps(doc, indent=2)
    if args.output:
        _write_text(args.output, [text, "\n"])
        print(f"wrote report to {args.output}")
    else:
        print(text)
    for kind, path in (("gram", args.gram_spectrum_csv),
                       ("ensemble", args.ensemble_spectrum_csv)):
        if path:
            write_spectrum_csv(path, doc[kind], {**doc["metadata"], "spectrum": kind})
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point

class _Parser(argparse.ArgumentParser):
    """Raises a rejected argv as a :class:`ConfigError`, so ``main`` reports
    it like any other malformed input; subparsers inherit the class."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="wavedof",
                description="space-time-frequency DoF bounds "
                            "and numerical verification")
    sub = p.add_subparsers(dest="command", required=True)

    pb = sub.add_parser("bounds", help="print all bounds for one configuration")
    _add_config_flags(pb)
    pb.add_argument("--json", action="store_true")
    pb.set_defaults(func=cmd_bounds)

    ps = sub.add_parser("sweep", help="two-axis parameter sweep -> CSV")
    ps.add_argument("--axis1", required=True, help="name:min:max:count:scale")
    ps.add_argument("--axis2", required=True, help="name:min:max:count:scale")
    ps.add_argument("--fixed", action="append", metavar="NAME=VALUE")
    ps.add_argument("--quantities", default="thm2,d_2wt")
    ps.add_argument("-o", "--output", required=True)
    ps.add_argument("--svg", default=None, help="also write an SVG heatmap")
    ps.set_defaults(func=cmd_sweep)

    pf = sub.add_parser("figure", help="preset sweeps fig3 | fig4 | fig5")
    pf.add_argument("name", choices=sorted(FIGURE_PRESETS))
    pf.add_argument("-o", "--output", required=True)
    pf.add_argument("--svg", default=None)
    pf.set_defaults(func=lambda args: cmd_sweep(args, preset=args.name))

    pm = sub.add_parser("modes", help="dump the enumerated mode table -> CSV")
    _add_config_flags(pm)
    pm.add_argument("--dim", choices=("2d", "3d"), default="3d")
    pm.add_argument("--two-sided", action="store_true",
                    help="2D only: use orders -N..N instead of 0..N")
    pm.add_argument("--cap", type=int, default=DEFAULT_MODE_CAP,
                    help=f"mode cap; it can lower the default {DEFAULT_MODE_CAP}, "
                         "never raise it")
    pm.add_argument("-o", "--output", required=True)
    pm.set_defaults(func=cmd_modes)

    pv = sub.add_parser("verify", help="rank experiment -> JSON report")
    _add_config_flags(pv)
    pv.add_argument("--dim", choices=("2d", "3d"), default="2d")
    pv.add_argument("--waves", type=int, default=64)
    pv.add_argument("--fields", type=int, default=128)
    pv.add_argument("--seed", type=int, default=None)
    pv.add_argument("--resolution", default="8,24,32",
                    help="n_radial,n_angular,n_time")
    pv.add_argument("--epsilon", type=float, default=RankPolicy.epsilon)
    pv.add_argument("--eta", type=float, default=RankPolicy.eta)
    pv.add_argument("--two-sided", action="store_true")
    pv.add_argument("-o", "--output", default=None)
    pv.add_argument("--gram-spectrum-csv", default=None)
    pv.add_argument("--ensemble-spectrum-csv", default=None)
    pv.set_defaults(func=cmd_verify)

    return p


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads every argv with: :func:`build_parser`,
    built on first use and then kept, since parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ModeCapError as exc:
        print(f"mode cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ResolutionError as exc:
        print(f"resolution too low: {exc}", file=sys.stderr)
        return EXIT_RESOLUTION


def entry() -> None:
    raise SystemExit(main())
