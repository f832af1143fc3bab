"""Command surface: flags, exit codes, file formats, reproducibility."""

import contextlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wavedof
from wavedof import (Dimension, PhysicalConfig, RankPolicy, bound_report,
                     build_grid, cli)
from wavedof.bounds import DEFAULT_MODE_CAP
from wavedof.cli import (EXIT_CAP, EXIT_CONFIG, EXIT_OK, EXIT_RESOLUTION,
                         FIGURE_PRESETS, fmt_num, main, parse_sweep_csv,
                         render_sweep_csv)

from oracles import mode_table_rows

E_PI = math.e * math.pi

NARROW_FLAGS = ["--R", "0.1", "--W", "0.01", "--T", "0.3", "--F0", "10",
                "--c", "1", "--dim", "2d", "--resolution", "8,24,22",
                "--fields", "48", "--waves", "32"]


def test_main_builds_parser_once(monkeypatch, capsys):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    flags = ["--W", "1", "--T", "1", "--F0", "10"]
    assert main(["bounds", "--R", "abc", *flags]) == EXIT_CONFIG
    assert main(["bounds", "--R", "1", *flags]) == EXIT_OK
    assert len(built) == 1
    assert capsys.readouterr().err.startswith("configuration error: ")


def test_fmt_num():
    assert fmt_num(3) == "3"
    assert fmt_num(365.0) == "365"
    assert fmt_num(2.4e9) == "2400000000"
    assert fmt_num(1.0 / 3.0) == "0.333333333333"
    # idempotent under parse -> format
    for v in (0.1234567890123456, 9.87e-21, 4.0, 1e15 + 1):
        once = fmt_num(v)
        assert fmt_num(float(once)) == once


def test_bounds_reduced_at_zero_radius(capsys):
    assert main(["bounds", "--R", "0", "--W", "3", "--T", "1", "--F0", "10"]) == EXIT_OK
    out = capsys.readouterr().out
    row = [ln for ln in out.splitlines() if ln.startswith("thm2")][0]
    assert row.split()[1] == "14"


def test_bounds_narrowband_spatial(capsys):
    assert main(["bounds", "--R", "0.125", "--W", "0", "--T", "0",
                 "--F0", "2.4e9"]) == EXIT_OK
    out = capsys.readouterr().out
    row = [ln for ln in out.splitlines() if ln.startswith("d_space3d")][0]
    assert row.split()[1] == "100"


def test_bounds_json(capsys):
    assert main(["bounds", "--R", "0.125", "--W", "1e6", "--T", "5e-4",
                 "--F0", "2.4e9", "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["bounds"]["d_space3d"] == 100
    assert doc["metadata"]["tool"] == "wavedof"


def test_bounds_invariant_violation(capsys):
    rc = main(["bounds", "--W", "5", "--F0", "1", "--R", "1", "--T", "1"])
    assert rc == EXIT_CONFIG
    assert "band edge below zero" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_bounds_rejects_non_finite(value, capsys):
    rc = main(["bounds", "--R", value, "--W", "1", "--T", "1", "--F0", "10"])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: R must be finite")
    assert "Traceback" not in err


@pytest.mark.parametrize("flags, code, message", [
    # 2e9 + 1 frequency bins: refused before the bins are allocated
    (["--R", "1", "--W", "1e9", "--T", "1", "--F0", "1e9"], EXIT_CAP,
     "mode cap exceeded: 2000000001 frequency bins"),
    # e pi R f / c overflows the float range
    (["--R", "1e300", "--W", "1", "--T", "1", "--F0", "1e300"], EXIT_CONFIG,
     "configuration error: a count overflows the float range"),
    (["--R", "1e300", "--W", "1", "--T", "0", "--F0", "1e300"], EXIT_CONFIG,
     "configuration error: a count overflows the float range"),
], ids=["bins-over-cap", "overflow", "overflow-T0"])
def test_bounds_rejects_lattice_out_of_range(flags, code, message, capsys):
    assert main(["bounds", *flags]) == code
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert err.count("\n") == 1 and "Traceback" not in err


def test_bounds_exact_beyond_int64(capsys):
    assert main(["bounds", "--R", "1e20", "--W", "5e5", "--T", "1e-2",
                 "--F0", "1e9"]) == EXIT_OK
    rows = dict(ln.split() for ln in capsys.readouterr().out.splitlines())
    assert rows["exact2d"] == "28468627320319443675916049"
    assert rows["exact3d"] == "81038177087822031058275904537151593057286629137"


def test_config_file_precedence(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("R = 0\nW = 3\nT = 1\nF0 = 10\n")
    assert main(["bounds", "--config", str(conf)]) == EXIT_OK
    out = capsys.readouterr().out
    assert [ln for ln in out.splitlines() if ln.startswith("thm2")][0].split()[1] == "14"
    # flag overrides file
    assert main(["bounds", "--config", str(conf), "--W", "0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert [ln for ln in out.splitlines() if ln.startswith("d_2wt")][0].split()[1] == "1"


def test_verify_config_file_read_once(tmp_path, monkeypatch):
    conf = tmp_path / "run.conf"
    conf.write_text("R = 0.1\nW = 0.01\nT = 0.3\nF0 = 10\nc = 1\nseed = 5\n")
    reads = []
    read = cli._read_config_file
    monkeypatch.setattr(cli, "_read_config_file",
                        lambda path: reads.append(path) or read(path))
    out = tmp_path / "v.json"
    argv = ["verify", "--config", str(conf), "--dim", "2d", "--resolution",
            "4,24,21", "--fields", "2", "--waves", "2", "-o", str(out)]
    for extra, seed in (([], 5), (["--seed", "7"], 7), (["--R", "0.05"], 5)):
        assert main(argv + extra) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["metadata"]["seed"] == seed
        assert doc["metadata"]["config"]["R"] == (0.05 if "--R" in extra else 0.1)
    assert reads == [str(conf)] * 3


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("R = 1\nbogus = 2\n")
    assert main(["bounds", "--config", str(conf)]) == EXIT_CONFIG


def test_sweep_degenerate_grid(tmp_path):
    out = tmp_path / "s.csv"
    rc = main(["sweep", "--axis1", "R:0.1:1:2:linear", "--axis2", "W:10:100:2:log",
               "--fixed", "T=1", "--fixed", "F0=1000",
               "--quantities", "thm2,d_2wt", "-o", str(out)])
    assert rc == EXIT_OK
    lines = out.read_text().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0] == "axis1,axis2,thm2,d_2wt"
    assert len(data) == 1 + 4


def test_sweep_closed_form_past_bin_cap(tmp_path):
    # The W = 1e8 cells have 2e8 + 1 frequency bins, past the mode cap;
    # a thm2-only sweep never counts them.
    out = tmp_path / "s.csv"
    rc = main(["sweep", "--axis1", "W:1e6:1e8:2:log", "--axis2", "R:0.1:1:2:linear",
               "--fixed", "T=1", "--fixed", "F0=1e9", "--quantities", "thm2",
               "-o", str(out)])
    assert rc == EXIT_OK
    cells = [row[2] for row in parse_sweep_csv(out.read_text())[2]]
    assert len(cells) == 4 and all(math.isfinite(v) and v > 0 for v in cells)


def test_python_dash_m(tmp_path):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "wavedof", "bounds", "--R", "0.125",
                           "--W", "1e6", "--T", "5e-4", "--F0", "2.4e9"],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == EXIT_OK, proc.stderr
    rows = dict(ln.split() for ln in proc.stdout.splitlines())
    assert rows["exact3d"] == str(bound_report(
        PhysicalConfig(R=0.125, W=1e6, T=5e-4, f0=2.4e9)).exact3d)
    # a malformed flag: one line and exit 2, no usage text
    proc = subprocess.run([sys.executable, "-m", "wavedof", "bounds", "--R", "abc"],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr == ("configuration error: argument --R: "
                           "invalid float value: 'abc'\n")
    assert proc.stdout == ""


def test_runs_import_no_numpy_ma(tmp_path):
    """numpy.ma takes about 15 ms to import, and np.unique imports it on
    its first call on an integer array (the hash path, without an
    inverse), so a library path that called it would put that into
    every run's set-up. A 2D and a 3D verify and a projection, in a
    fresh interpreter, import none of it."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    code = textwrap.dedent("""
        import math, sys
        from wavedof import (Dimension, PhysicalConfig, build_grid, cli,
                             enumerate_modes, project_field, synthesize_field)
        from wavedof.modes import field_values
        assert cli.main(["verify", "--R", "0.1", "--W", "0.01", "--T", "0.3",
                         "--F0", "10", "--c", "1", "--dim", "2d",
                         "--resolution", "8,24,21", "--fields", "4", "--waves", "8",
                         "-o", "v2.json"]) == 0
        cfg = PhysicalConfig(R=0.5 / (math.e * math.pi), W=1.0, T=1.0, f0=2.0, c=1.0)
        assert cli.main(["verify", "--R", repr(cfg.R), "--W", "1", "--T", "1",
                         "--F0", "2", "--c", "1", "--dim", "3d",
                         "--resolution", "4,5,20", "--fields", "2", "--waves", "4",
                         "-o", "v3.json"]) == 0
        grid = build_grid(Dimension.THREE_D, cfg, (4, 5, 20))
        pws = synthesize_field(Dimension.THREE_D, cfg, 4, seed=1)
        project_field(field_values(pws, grid.points, grid.times),
                      enumerate_modes(Dimension.THREE_D, cfg), grid, cfg)
        assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_help_exits_zero(capsys):
    for argv in (["-h"], ["verify", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: wavedof")


def test_sweep_csv_roundtrip(tmp_path):
    out = tmp_path / "fig5.csv"
    assert main(["figure", "fig5", "-o", str(out)]) == EXIT_OK
    text = out.read_text()
    meta, spec, rows = parse_sweep_csv(text)
    assert render_sweep_csv(meta, spec, rows) == text


def test_parse_sweep_csv_rejects_other_text():
    for text in ("", "a,b,c\n1,2,3\n", "# axis1 = R:0.1:1:2:linear\naxis1,axis2\n"):
        with pytest.raises(ValueError, match="^not a sweep CSV$"):
            parse_sweep_csv(text)


@pytest.mark.parametrize("argv", [
    # exact3d past 2^53 (about 8e46 to 1e49)
    ["--axis1", "R:1e20:1e21:2:log", "--axis2", "W:5e5:6e5:2:linear",
     "--fixed", "T=1e-2", "--fixed", "F0=1e9", "--quantities", "exact3d"],
    # exact3d past 1e308 beside thm2 overflowing to inf
    ["--axis1", "R:1e150:1e163:2:log", "--axis2", "W:0.1:0.4:2:linear",
     "--fixed", "T=1", "--fixed", "F0=1", "--quantities", "exact3d,thm2"],
], ids=["past-2^53", "past-1e308"])
def test_sweep_csv_roundtrip_exact_counts(argv, tmp_path):
    out = tmp_path / "s.csv"
    assert main(["sweep", *argv, "-o", str(out)]) == EXIT_OK
    text = out.read_text()
    meta, spec, rows = parse_sweep_csv(text)
    assert render_sweep_csv(meta, spec, rows) == text
    counts = [row[2] for row in rows]
    assert all(type(n) is int and n > 2**53 for n in counts)
    assert [str(n) for n in counts] == [ln.split(",")[2]
                                        for ln in text.splitlines()[-4:]]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sweep_overflow_quiet(tmp_path, capsys):
    # thm2 overflows the float range at R = 1e163; the cell reads inf,
    # and nothing but the row count reaches stderr or stdout.
    out = tmp_path / "s.csv"
    argv = ["sweep", "--axis1", "R:1e150:1e163:2:log", "--axis2",
            "W:0.1:0.4:2:linear", "--fixed", "T=1", "--fixed", "F0=1",
            "--quantities", "thm2", "-o", str(out)]
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == f"wrote 4 rows to {out}\n"
    cells = [ln.split(",")[2] for ln in out.read_text().splitlines()[-4:]]
    assert cells == ["8.18943880447e+284", "9.74521609714e+284", "inf", "inf"]


def test_sweep_rejects_bad_axis(tmp_path):
    out = tmp_path / "s.csv"
    rc = main(["sweep", "--axis1", "R:1:0.1:2:linear", "--axis2", "W:1:2:2:linear",
               "--fixed", "T=1", "--fixed", "F0=10", "-o", str(out)])
    assert rc == EXIT_CONFIG
    rc = main(["sweep", "--axis1", "R:0.1:1:2:linear", "--axis2", "R:1:2:2:linear",
               "--fixed", "T=1", "--fixed", "F0=10", "-o", str(out)])
    assert rc == EXIT_CONFIG
    rc = main(["sweep", "--axis1", "R:0.1:1:2:linear", "--axis2", "W:1:2:2:linear",
               "--fixed", "T=1", "-o", str(out)])
    assert rc == EXIT_CONFIG  # F0 missing


@pytest.mark.parametrize("axes", [
    # 10^10 cells: the row list would grow without bound.
    ["--axis1", "R:1:2:100000:linear", "--axis2", "W:1:2:100000:linear"],
    # one axis of 10^9 values: its linspace alone would be 8 GB.
    ["--axis1", "R:1:2:1000000000:linear", "--axis2", "W:1:2:2:linear"],
], ids=["cells", "axis"])
def test_sweep_over_cap_exits_before_allocating(axes, tmp_path, capsys):
    out = tmp_path / "s.csv"
    tracemalloc.start()
    try:
        rc = main(["sweep", *axes, "--fixed", "T=1", "--fixed", "F0=10",
                   "-o", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert rc == EXIT_CAP
    assert err.startswith("mode cap exceeded:") and "sweep cells" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert peak < 1 << 20
    assert not out.exists()


SWEEP_FLAGS = ["--axis1", "R:0.1:1:2:linear", "--axis2", "W:10:100:2:log",
               "--fixed", "T=1", "--fixed", "F0=1000"]


@pytest.mark.parametrize("case", [
    "axis-count", "fixed-value", "fixed-axis", "fixed-twice", "quantities-twice",
    "missing-config", "config-value", "output-dir", "verify-config-value",
    "verify-config-seed", "modes-two-sided-3d", "config-key-twice", "modes-cap-zero",
    "modes-cap-negative", "flag-number", "flag-int", "flag-choice", "unknown-flag",
    "no-command", "figure-name", "config-seed-fraction", "config-seed-float",
    "axis-fields", "axis-name", "axis-scale", "axis-log-min", "quantities-unknown"])
def test_malformed_input_exits_config(case, tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("R = abc\nW = 1\nT = 1\nF0 = 10\n")
    seed_conf = tmp_path / "seed.conf"
    seed_conf.write_text("R = 0.1\nW = 0.01\nT = 0.3\nF0 = 10\nc = 1\nseed = -1\n")
    twice_conf = tmp_path / "twice.conf"
    twice_conf.write_text("R = 0.1\nW = 1\nT = 1\nF0 = 10\nR = 0.2\n")
    # seed is a strict int in a file as in the --seed flag
    for name, seed in (("fraction", "7.9"), ("float", "7.0")):
        (tmp_path / f"seed-{name}.conf").write_text(
            f"R = 0.1\nW = 0.01\nT = 0.3\nF0 = 10\nc = 1\nseed = {seed}\n")
    modes_flags = ["modes", "--R", "0.1", "--W", "1", "--T", "1", "--F0", "10"]
    out = str(tmp_path / "s.csv")
    argv = {
        "axis-count": ["sweep", "--axis1", "R:0.1:1:abc:linear", *SWEEP_FLAGS[2:],
                       "-o", out],
        "fixed-value": ["sweep", *SWEEP_FLAGS, "--fixed", "c=abc", "-o", out],
        "fixed-axis": ["sweep", *SWEEP_FLAGS, "--fixed", "R=5", "-o", out],
        "fixed-twice": ["sweep", *SWEEP_FLAGS, "--fixed", "F0=2000", "-o", out],
        "quantities-twice": ["sweep", *SWEEP_FLAGS, "--quantities", "thm2,thm2",
                             "-o", out],
        "missing-config": ["bounds", "--config", str(tmp_path / "missing.conf")],
        "config-value": ["bounds", "--config", str(conf)],
        "output-dir": ["sweep", *SWEEP_FLAGS,
                       "-o", str(tmp_path / "missing" / "x.csv")],
        "verify-config-value": ["verify", "--config", str(conf), "-o", out],
        "verify-config-seed": ["verify", "--config", str(seed_conf), "-o", out],
        "modes-two-sided-3d": [*modes_flags, "--dim", "3d", "--two-sided", "-o", out],
        "config-key-twice": ["bounds", "--config", str(twice_conf)],
        "modes-cap-zero": [*modes_flags, "--cap", "0", "-o", out],
        "modes-cap-negative": [*modes_flags, "--cap", "-5", "-o", out],
        "flag-number": ["bounds", "--R", "abc", "--W", "1", "--T", "1", "--F0", "10"],
        "flag-int": ["verify", *VERIFY_CONFIG, "--fields", "abc", "-o", out],
        "flag-choice": [*modes_flags, "--dim", "4d", "-o", out],
        "unknown-flag": [*modes_flags, "--bogus", "1", "-o", out],
        "no-command": [],
        "figure-name": ["figure", "fig9", "-o", out],
        "config-seed-fraction": ["verify", "--config",
                                 str(tmp_path / "seed-fraction.conf"), "-o", out],
        "config-seed-float": ["verify", "--config",
                              str(tmp_path / "seed-float.conf"), "-o", out],
        "axis-fields": ["sweep", "--axis1", "R:0.1:1:2", *SWEEP_FLAGS[2:], "-o", out],
        "axis-name": ["sweep", "--axis1", "Q:0.1:1:2:linear", *SWEEP_FLAGS[2:],
                      "-o", out],
        "axis-scale": ["sweep", "--axis1", "R:0.1:1:2:cubic", *SWEEP_FLAGS[2:],
                       "-o", out],
        "axis-log-min": ["sweep", "--axis1", "R:0:1:2:log", *SWEEP_FLAGS[2:],
                         "-o", out],
        "quantities-unknown": ["sweep", *SWEEP_FLAGS, "--quantities", "thm2,thm9",
                               "-o", out],
    }[case]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not os.path.exists(out)


NUMBER = st.sampled_from(["0", "0.5", "1", "10", "2.4e9", "1e300", "-1",
                          "nan", "inf", "abc"])


# Sweep quantity lists: valid ones, and ones with a repeated or unknown name.
QUANTITY_LISTS = st.sampled_from(["thm2,exact2d,exact3d", "d_2wt", "thm1,asym3d",
                                  "thm2,thm2", "exact2d,thm1,exact2d", "thm3",
                                  "thm2,", ""])
COUNT = st.sampled_from(["1", "2", "5", "12"])
BAD_COUNT = st.sampled_from(["0", "-3", "abc", "1,2"])
DIM = st.sampled_from(["2d", "3d", "2d", "3d", "4d"])   # 4d is no choice of --dim
# A valid config whose Gram needs only n_angular >= 3 and n_time >= 14.
VERIFY_CONFIG = ["--R", "0.1", "--W", "0.5", "--T", "1", "--F0", "1", "--c", "1"]
# A small single-frequency verify run, for radii near either end of the
# float range.
EXTREME = ["--W", "0", "--T", "1", "--fields", "2", "--waves", "2",
           "--resolution", "4,8,60"]


@st.composite
def cli_argv(draw):
    """argv for bounds, sweep, modes or verify over a small set of good and
    bad tokens. A verify grid has at most 12 x 12 x 24 x 24 = 82,944 points."""
    names = draw(st.permutations(["R", "W", "T", "F0"]))
    command = draw(st.sampled_from(["bounds", "sweep", "modes", "verify"]))
    # about one draw in five ends in a flag no command has
    stray = draw(st.sampled_from([[], [], [], [], ["--bogus", "1"]]))
    if command == "sweep":
        argv = ["sweep", "--quantities", draw(QUANTITY_LISTS)]
        for flag, name in (("--axis1", names[0]), ("--axis2", names[1])):
            count = draw(st.sampled_from(["1", "2", "3", "abc"]))
            scale = draw(st.sampled_from(["linear", "log"]))
            argv += [flag, f"{name}:{draw(NUMBER)}:{draw(NUMBER)}:{count}:{scale}"]
        for name in names[2:]:
            argv += ["--fixed", f"{name}={draw(NUMBER)}"]
        return argv + stray
    argv = [command]
    if command == "verify" and draw(st.booleans()):
        argv += VERIFY_CONFIG
    else:
        for name in names:
            argv += [f"--{name}", draw(NUMBER)]
    if command in ("modes", "verify") and draw(st.booleans()):
        argv += ["--two-sided"]   # 2D only: exit 2 with --dim 3d
    if command == "modes":
        argv += ["--dim", draw(DIM), "--cap", "1000"]
    if command == "verify":
        # n_radial, n_angular, n_time, fields, waves; about half the draws
        # put a bad token in one of them.
        counts = [draw(COUNT), draw(COUNT), draw(st.sampled_from(["2", "24"])),
                  draw(COUNT), draw(COUNT)]
        spoil = draw(st.integers(-len(counts), len(counts) - 1))
        if spoil >= 0:
            counts[spoil] = draw(BAD_COUNT)
        argv += ["--dim", draw(DIM),
                 "--resolution", ",".join(counts[:3]),
                 "--fields", counts[3], "--waves", counts[4]]
    return argv + stray


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(argv=cli_argv(), svg=st.booleans())
@example(argv=["sweep", "--quantities", "thm2,exact2d,exact3d",
               "--axis1", "R:10:1e300:2:log", "--axis2", "W:0.5:1:2:linear",
               "--fixed", "T=1", "--fixed", "F0=10"], svg=True)
@example(argv=["verify", "--R", "1", "--W", "1", "--T", "1", "--F0", "10",
               "--c", "1", "--dim", "3d", "--resolution", "200,200,200",
               "--fields", "2", "--waves", "2"], svg=False)
# Huge radii: quadrature weights, Gram entries or the ensemble's norms
# near the top of the float range.
@example(argv=["verify", "--R", "1e154", "--c", "1e159", "--dim", "2d", "--F0", "10",
               *EXTREME], svg=False)
@example(argv=["verify", "--R", "1e150", "--c", "1e155", "--dim", "3d", "--F0", "10",
               *EXTREME], svg=False)
@example(argv=["verify", "--R", "1e153", "--c", "1e158", "--dim", "2d", "--F0", "10",
               *EXTREME], svg=False)
# One frequency: the ensemble's time basis has one column.
@example(argv=["verify", "--R", "0.1", "--W", "0", "--T", "0.3", "--F0", "10",
               "--c", "1", "--dim", "2d", "--resolution", "8,24,21",
               "--fields", "8", "--waves", "8"], svg=False)
def test_cli_fuzz_exits_cleanly(argv, svg):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        if argv[0] != "bounds":
            argv = argv + ["-o", f"{tmp}/out.csv"]
        if argv[0] == "sweep" and svg:
            argv = argv + ["--svg", f"{tmp}/out.svg"]
        code = main(argv)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_CAP, EXIT_RESOLUTION), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == EXIT_CONFIG:
        assert err.getvalue().startswith("configuration error:")
        assert err.getvalue().count("\n") == 1, err.getvalue()


CONFIG_VALUE = st.sampled_from(["0", "0.5", "1", "10", "2.4e9", "1e300", "1e400",
                                "-1", "nan", "inf", "abc", ""])
CONFIG_LINE = st.one_of(
    st.builds(lambda key, value, note: f"{key} = {value}{note}".encode(),
              st.sampled_from(["R", "W", "T", "F0", "c", "seed", "bogus"]),
              CONFIG_VALUE, st.sampled_from(["", "  # note"])),
    st.sampled_from([b"R 1", b"# comment", b"", b"=", b"T = 1 = 2", b"\x00",
                     b"F0 = 1\x00", b"W = \xff", b"\xef\xbb\xbfR = 1"]),
    st.binary(max_size=12))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(lines=st.lists(CONFIG_LINE, max_size=8),
       command=st.sampled_from(["bounds", "modes"]))
@example(lines=[b"R = 1\xff"], command="bounds")
def test_config_file_fuzz_exits_cleanly(lines, command):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        path = f"{tmp}/run.conf"
        with open(path, "wb") as fh:
            fh.write(b"\n".join(lines))
        argv = [command, "--config", path]
        if command == "modes":
            argv += ["--cap", "1000", "-o", f"{tmp}/out.csv"]
        code = main(argv)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_CAP, EXIT_RESOLUTION), (lines, code)
    assert "Traceback" not in err.getvalue()
    if code == EXIT_CONFIG:
        assert err.getvalue().startswith("configuration error:")
        assert err.getvalue().count("\n") == 1, err.getvalue()


def test_sweep_deterministic(tmp_path):
    args = ["sweep", "--axis1", "R:0.01:1:5:log", "--axis2", "W:1e3:1e6:5:log",
            "--fixed", "T=5e-4", "--fixed", "F0=2.4e9",
            "--quantities", "thm2,exact3d"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["-o", str(a)]) == EXIT_OK
    assert main(args + ["-o", str(b)]) == EXIT_OK

    def numeric_part(path):
        return [ln for ln in path.read_text().splitlines()
                if not ln.startswith("#")]

    assert numeric_part(a) == numeric_part(b)


def test_figure_presets_and_svg(tmp_path, monkeypatch):
    # The presets write closed forms and single-frequency counts only, so
    # no cell counts the lattice.
    def refuse(*args, **kwargs):
        raise AssertionError("exact_mode_sum called")

    monkeypatch.setattr("wavedof.bounds.exact_mode_sum", refuse)
    for name, preset in FIGURE_PRESETS.items():
        out = tmp_path / f"{name}.csv"
        svg = tmp_path / f"{name}.svg"
        assert main(["figure", name, "-o", str(out), "--svg", str(svg)]) == EXIT_OK
        _, spec, rows = parse_sweep_csv(out.read_text())
        assert len(rows) == spec.axis1.count * spec.axis2.count
        body = svg.read_text()
        assert body.startswith("<svg") and "linear" in body


def test_sweep_svg_beyond_float_range(tmp_path):
    # exact3d passes 1e308 here: the map switches to log10 of the counts.
    # The closed form thm2 overflows to inf at R = 1e163: those cells are
    # gray.
    out, svg = tmp_path / "s.csv", tmp_path / "s.svg"
    argv = ["sweep", "--axis1", "R:1e150:1e163:2:log", "--axis2",
            "W:0.1:0.4:2:linear", "--fixed", "T=1", "--fixed", "F0=1",
            "--svg", str(svg), "-o", str(out)]
    assert main(argv + ["--quantities", "exact3d,thm2"]) == EXIT_OK
    counts = [row[2] for row in parse_sweep_csv(out.read_text())[2]]
    body = svg.read_text()
    lo, hi = math.log10(min(counts)), math.log10(max(counts))
    assert hi > 308
    assert f"{fmt_num(lo)} (blue) to {fmt_num(hi)} (red), log10" in body
    assert body.count("<rect") == 4 and "#808080" not in body
    assert main(argv + ["--quantities", "thm2,exact3d"]) == EXIT_OK
    body = svg.read_text()
    assert "linear" in body and body.count('fill="#808080"') == 2


def test_modes_csv_calibration(tmp_path, capsys):
    out = tmp_path / "m.csv"
    rc = main(["modes", "--R", str(1.0 / E_PI), "--W", "1", "--T", "1",
               "--F0", "10", "--c", "1", "--dim", "3d", "-o", str(out)])
    assert rc == EXIT_OK
    assert "365 modes" in capsys.readouterr().out
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert lines[0] == "i,n,m,f_hz,k_rad_per_m"
    assert len(lines) == 1 + 365
    first = lines[1].split(",")
    assert first[0] == "9" and first[1] == "0" and first[2] == "0"
    assert float(first[3]) == 9.0
    assert float(first[4]) == pytest.approx(2 * math.pi * 9.0, rel=1e-12)


def test_modes_csv_2d_and_point_region(tmp_path, capsys):
    out = tmp_path / "m2.csv"
    rc = main(["modes", "--R", str(1.0 / E_PI), "--W", "1", "--T", "1",
               "--F0", "10", "--c", "1", "--dim", "2d", "-o", str(out)])
    assert rc == EXIT_OK
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert len(lines) == 1 + 33
    out0 = tmp_path / "m0.csv"
    rc = main(["modes", "--R", "0", "--W", "2", "--T", "1", "--F0", "10",
               "--c", "1", "--dim", "3d", "-o", str(out0)])
    assert rc == EXIT_OK
    rows = [ln.split(",") for ln in out0.read_text().splitlines()
            if not ln.startswith("#")][1:]
    assert all(r[1] == "0" and r[2] == "0" for r in rows)


@pytest.mark.parametrize("flags, dim3, two_sided", [
    (["--R", str(1.0 / E_PI), "--W", "1", "--T", "1", "--F0", "10"], True, False),
    (["--R", str(1.0 / E_PI), "--W", "1", "--T", "1", "--F0", "10"], False, False),
    # no i/T in the band: the stand-in bin at F0, orders -9..9
    (["--R", "0.1", "--W", "0.001", "--T", "0.2", "--F0", "10.5"], False, True),
    (["--R", "0", "--W", "2", "--T", "1", "--F0", "10"], True, False),
], ids=["cal-3d", "cal-2d", "stand-in-2d-two-sided", "point-3d"])
def test_modes_csv_rows_match_oracle(flags, dim3, two_sided, tmp_path, capsys):
    out = tmp_path / "m.csv"
    argv = ["modes", *flags, "--c", "1", "--dim", "3d" if dim3 else "2d",
            *(["--two-sided"] if two_sided else []), "-o", str(out)]
    assert main(argv) == EXIT_OK
    want = mode_table_rows(dim3, *map(float, flags[1::2]), 1.0, two_sided)
    assert capsys.readouterr().out == f"{len(want)} modes\n"
    lines = out.read_text().splitlines()
    rows = [ln.split(",") for ln in lines[lines.index("i,n,m,f_hz,k_rad_per_m") + 1:]]
    assert [tuple(map(int, r[:3])) for r in rows] == [w[:3] for w in want]
    np.testing.assert_allclose([[float(v) for v in r[3:]] for r in rows],
                               [w[3:] for w in want], rtol=1e-11, atol=0)


def test_modes_table_is_written_row_by_row(tmp_path):
    # One bin of degree 257: 66,564 modes, never held at once.
    out = tmp_path / "m.csv"
    tracemalloc.start()
    try:
        rc = main(["modes", "--R", "1", "--W", "0", "--T", "1", "--F0", "30",
                   "--c", "1", "--dim", "3d", "-o", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == EXIT_OK
    assert peak < 1 << 20
    assert out.read_text().splitlines()[-1] == "30,257,257,30,188.495559215"


def test_modes_cap_defaults_to_the_mode_cap():
    args = cli.build_parser().parse_args(["modes", "-o", "m.csv"])
    assert args.cap == DEFAULT_MODE_CAP


def test_verify_rank_defaults_are_the_rank_policy():
    args = cli.build_parser().parse_args(["verify"])
    assert (args.epsilon, args.eta) == (RankPolicy().epsilon, RankPolicy().eta)


def test_modes_cap_cannot_raise_the_mode_cap(tmp_path, capsys):
    # 291,760,561 modes, under the --cap given but past the mode cap: the
    # command exits before it lists a mode.
    out = tmp_path / "m.csv"
    tracemalloc.start()
    try:
        rc = main(["modes", "--R", "100", "--W", "0", "--T", "1", "--F0", "20",
                   "--c", "1", "--dim", "3d", "--cap", "100000000000",
                   "-o", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert rc == EXIT_CAP
    assert err == ("mode cap exceeded: 291760561 modes exceed the cap of "
                   "10000000\n")
    assert peak < 1 << 20
    assert not out.exists()


def test_modes_cap_exit_code(tmp_path, capsys):
    out = tmp_path / "m.csv"
    rc = main(["modes", "--R", str(1.0 / E_PI), "--W", "1", "--T", "1",
               "--F0", "10", "--c", "1", "--dim", "3d", "--cap", "10",
               "-o", str(out)])
    assert rc == EXIT_CAP


def test_verify_report_contents(tmp_path):
    out = tmp_path / "v.json"
    rc = main(["verify", *NARROW_FLAGS, "--seed", "7", "-o", str(out)])
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["metadata"]["seed"] == 7
    assert doc["metadata"]["prng"] == "numpy-pcg64"
    assert doc["gram"]["modes"] == 10
    assert doc["gram"]["rank_threshold"] == 10
    # The spectra's reconstruction residuals are not written.
    spectrum = {"eigenvalues", "trace", "rank_threshold", "rank_energy", "epsilon", "eta"}
    assert set(doc["gram"]) == {"modes", *spectrum}
    assert set(doc["ensemble"]) == {"fields", *spectrum}
    assert doc["bounds"]["d_space2d"] == 10
    assert 0 < doc["ensemble"]["rank_energy"] <= 48
    assert doc["ratios"]["gram_rank_threshold_over_exact"] == 1.0


def test_verify_determinism(tmp_path):
    out1, out2 = tmp_path / "v1.json", tmp_path / "v2.json"
    assert main(["verify", *NARROW_FLAGS, "--seed", "3", "-o", str(out1)]) == EXIT_OK
    assert main(["verify", *NARROW_FLAGS, "--seed", "3", "-o", str(out2)]) == EXIT_OK
    d1 = json.loads(out1.read_text())
    d2 = json.loads(out2.read_text())
    d1["metadata"].pop("generated")
    d2["metadata"].pop("generated")
    assert d1 == d2


def test_verify_without_output_prints_report(tmp_path, capsys):
    out = tmp_path / "v.json"
    argv = ["verify", *NARROW_FLAGS, "--seed", "3"]
    assert main([*argv, "-o", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    printed, written = json.loads(captured.out), json.loads(out.read_text())
    for doc in (printed, written):
        doc["metadata"].pop("generated")
    assert printed == written


def test_verify_single_field_rank_one(tmp_path):
    out = tmp_path / "v.json"
    rc = main(["verify", *NARROW_FLAGS[:-4], "--fields", "1", "--waves", "1",
               "--seed", "5", "-o", str(out)])
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["ensemble"]["rank_energy"] == 1
    assert doc["ensemble"]["rank_threshold"] == 1


def test_verify_resolution_exit_code(tmp_path, capsys):
    rc = main(["verify", "--R", "0.1", "--W", "0.01", "--T", "0.3", "--F0", "10",
               "--c", "1", "--dim", "2d", "--resolution", "8,24,10",
               "-o", str(tmp_path / "v.json")])
    assert rc == EXIT_RESOLUTION
    assert "need n_time" in capsys.readouterr().err


def test_verify_two_sided_gram(tmp_path):
    out = tmp_path / "v.json"
    rc = main(["verify", *NARROW_FLAGS, "--seed", "6", "--two-sided",
               "-o", str(out)])
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["metadata"]["two_sided"] is True
    assert doc["gram"]["modes"] == 19  # 2N+1 with N = 9
    assert doc["gram"]["rank_threshold"] == 19
    # The ratios divide by the two-sided count; the bounds keep the
    # one-sided one.
    assert doc["bounds"]["exact2d"] == 10
    assert doc["ratios"]["gram_rank_threshold_over_exact"] == 1.0
    assert doc["ratios"]["ensemble_rank_energy_over_exact"] == round(
        doc["ensemble"]["rank_energy"] / 19, 12)


def test_verify_policy_flag(tmp_path):
    out = tmp_path / "v.json"
    rc = main(["verify", *NARROW_FLAGS, "--seed", "4", "--epsilon", "1e-6",
               "--eta", "0.9", "-o", str(out)])
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["metadata"]["policy"] == {"epsilon": 1e-6, "eta": 0.9}
    assert (doc["gram"]["epsilon"], doc["gram"]["eta"]) == (1e-6, 0.9)


def test_verify_spectrum_csv_export(tmp_path):
    out = tmp_path / "v.json"
    gcsv = tmp_path / "g.csv"
    ecsv = tmp_path / "e.csv"
    rc = main(["verify", *NARROW_FLAGS, "--seed", "2", "-o", str(out),
               "--gram-spectrum-csv", str(gcsv),
               "--ensemble-spectrum-csv", str(ecsv)])
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    for kind, path in (("gram", gcsv), ("ensemble", ecsv)):
        lines = [ln for ln in path.read_text().splitlines()
                 if not ln.startswith("#")]
        assert lines[0] == "index,eigenvalue,cumulative_fraction"
        assert [float(ln.split(",")[1]) for ln in lines[1:]] == doc[kind]["eigenvalues"]
        fractions = [float(ln.split(",")[2]) for ln in lines[1:]]
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [
    ["--fields", "0"], ["--waves", "0"], ["--seed", "-1"],
    ["--resolution", "0,24,21"], ["--resolution", "a,b,c"],
    ["--epsilon", "2"], ["--eta", "2"], ["--R", "0"], ["--two-sided", "--dim", "3d"],
    # Same kR and T as R = 1e-100, c = 1e-95, which gives gram ranks 2
    # (2D) and 4 (3D), but the quadrature weights R^d underflow.
    ["--R", "1e-153", "--c", "1e-148", *EXTREME],
    ["--R", "1e-150", "--c", "1e-145", "--dim", "3d", *EXTREME],
    # Gram entries (2D) and quadrature weights (3D) beyond the float range.
    ["--R", "1e154", "--c", "1e159", *EXTREME],
    ["--R", "1e150", "--c", "1e155", "--dim", "3d", *EXTREME],
    # Subnormal windows: the time nodes round off the symmetric axis (5e-324,
    # 1e-310), or the ensemble's covariance is subnormal (1e-320).
    *(["--T", T, "--resolution", "8,24,21", "--fields", "2", "--waves", "3"]
      for T in ("5e-324", "1e-320", "1e-310")),
], ids=lambda bad: " ".join(bad[:4]))
def test_verify_rejects_bad_arguments(bad, tmp_path, capsys):
    rc = main(["verify", *NARROW_FLAGS, *bad, "-o", str(tmp_path / "v.json")])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert err.startswith("configuration error:")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "v.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_near_float_range(tmp_path):
    # The ensemble trace is 7.4e306, so the Frobenius norms of the dual
    # overflow; its reconstruction check is made on the dual over its
    # largest entry.
    out = tmp_path / "v.json"
    assert main(["verify", *NARROW_FLAGS, "--R", "1e153", "--c", "1e158", *EXTREME,
                 "-o", str(out)]) == EXIT_OK
    ens = json.loads(out.read_text())["ensemble"]
    assert 1e306 < ens["trace"] < 1e308


@pytest.mark.parametrize("flags, what", [
    # 3.2e9 grid points: the points array alone would be 71.5 GiB.
    (["--R", "1", "--W", "1", "--T", "1", "--F0", "10", "--c", "1", "--dim", "3d",
      "--resolution", "200,200,200", "--fields", "2", "--waves", "2"], "grid points"),
    # 171,949 modes: a 2.96e10-entry (440 GiB) Gram.
    (["--R", "1", "--W", "10", "--T", "10", "--F0", "100", "--c", "1", "--dim", "2d",
      "--resolution", "2,2,2"], "Gram entries"),
    # 200,000 fields x 64 waves x 200 time nodes: a 41 GB time factor.
    ([*NARROW_FLAGS[:10], "--dim", "2d", "--resolution", "8,24,200",
      "--fields", "200000"], "ensemble time-factor entries"),
    # 60,000 one-wave fields: a 1.3e6-entry time factor, but a 57.6 GB
    # (fields x fields) dual.
    ([*NARROW_FLAGS[:14], "--fields", "60000", "--waves", "1"],
     "ensemble dual entries"),
], ids=["grid", "gram", "time-factor", "dual"])
def test_verify_over_cap_exits_before_allocating(flags, what, tmp_path, capsys):
    tracemalloc.start()
    try:
        rc = main(["verify", *flags, "-o", str(tmp_path / "v.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert rc == EXIT_CAP
    assert err.startswith("mode cap exceeded:") and what in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert peak < 1 << 20
    assert not (tmp_path / "v.json").exists()


@pytest.mark.parametrize("flags, message", [
    ([*NARROW_FLAGS[:12], "--resolution", "8,5,21"],
     "grid resolution (8, 5, 21) below minimum: "
     "need n_time >= 21 and n_angular >= 19"),
    (["--R", str(1.0 / E_PI), "--W", "1", "--T", "1", "--F0", "10", "--c", "1",
      "--dim", "3d", "--resolution", "12,5,52", "--fields", "4", "--waves", "16"],
     "grid resolution (12, 5, 52) below minimum: "
     "need n_time >= 52 and n_angular >= 23"),
], ids=["2d", "3d"])
def test_verify_resolution_message_reports_argv_counts(flags, message, tmp_path,
                                                       capsys):
    rc = main(["verify", *flags, "-o", str(tmp_path / "v.json")])
    assert rc == EXIT_RESOLUTION
    assert capsys.readouterr().err == f"resolution too low: {message}\n"
    assert not (tmp_path / "v.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_subnormal_bessel_arguments(tmp_path):
    # kR = 2 pi 10 1e-15 / 1e300 is subnormal: the Bessel tables take the
    # series limit there.
    out = tmp_path / "v.json"
    rc = main(["verify", "--R", "1e-15", "--W", "1", "--T", "1", "--F0", "10",
               "--c", "1e300", "--dim", "2d", "--fields", "2", "--waves", "2",
               "--resolution", "8,24,60", "-o", str(out)])
    assert rc == EXIT_OK
    doc = json.loads(out.read_text(), parse_constant=pytest.fail)
    assert (doc["gram"]["rank_threshold"], doc["gram"]["rank_energy"]) == (3, 3)


def test_readme_flags_are_cli_options():
    subparsers = cli.build_parser()._subparsers._group_actions[0].choices
    options = {opt for sub in subparsers.values() for opt in sub._option_string_actions}
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    flags = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", text))
    assert flags - options - {"--no-build-isolation"} == set()  # a pip flag


def test_readme_overview_names_exist():
    # Every name in the "Library overview" rows is a library attribute, a
    # grid axis key, the package, or a math symbol such as J_n.
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Library overview")[1]
    rows = [ln for ln in section.split("\n## ")[0].splitlines()
            if ln.startswith("| `wavedof")]
    names = {re.match(r"[A-Za-z_][\w.]*", tok).group()
             for row in rows for tok in re.findall(r"`([^`]+)`", row)}
    modules = [wavedof, *(getattr(wavedof, m) for m in
                          ("specfun", "bounds", "modes", "rankcheck", "cli"))]
    axes = build_grid(Dimension.THREE_D, PhysicalConfig(R=1.0, W=1.0, T=1.0, f0=2.0,
                                                        c=1.0), (2, 3, 4)).axes

    def resolves(root, path: list) -> bool:
        # Walk a dotted name such as PhysicalConfig.from_params attribute
        # by attribute; every part must exist.
        for part in path:
            if not hasattr(root, part):
                return False
            root = getattr(root, part)
        return True

    def known(name: str) -> bool:
        path = name.split(".")
        roots = [types.SimpleNamespace(wavedof=wavedof), *modules]
        return (any(resolves(root, path) for root in roots) or name in axes
                or re.fullmatch(r"[A-Za-z]_[a-z]", name) is not None)

    assert len(rows) == 5
    assert sorted(name for name in names if not known(name)) == []
