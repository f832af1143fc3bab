"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``. Criterion 8's first
clause brackets the narrowband ensemble energy rank between the counts
that bound it: the one-sided 2D count (``m = 0..N``, what the bounds
enumerate) below and the two-sided count (``m = -N..N``, the channels a
physical field excites) above. See README, "Empirical rank and the
counts that bound it".
"""

import json
import math

import numpy as np
import pytest

from wavedof import (Dimension, PhysicalConfig, RankPolicy, WaveVector,
                     bound_report, build_grid, closed_form_bound,
                     diagonal_normalize, dof_time_band,
                     eigen_spectrum, ensemble_spectrum, enumerate_modes,
                     exact_mode_sum, gram_of_modes, synthesize_field,
                     truncation_degree, truncation_error)
from wavedof.cli import FIGURE_PRESETS, Axis, main, parse_sweep_csv
from wavedof.modes import project_field
from wavedof.specfun import (Angle, legendre_p, norm_assoc_legendre_table,
                             sph_harm, spherical_bessel_j)

from oracles import brute_force_mode_count

E_PI = math.e * math.pi
TWO_D, THREE_D = Dimension.TWO_D, Dimension.THREE_D


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} [{name}]: {status}{tail}")


def test_criterion_1_limit_identities():
    ok = True
    detail = ""
    for T in np.linspace(0.1, 5.0, 5):
        for W in np.linspace(0.0, 8.0, 5):
            cfg = PhysicalConfig(R=0.0, W=W, T=T, f0=10.0 + W, c=1.0)
            got = closed_form_bound(THREE_D, cfg)
            want = 13.0 * T * W / 3.0 + 1.0
            if abs(got - want) > 1e-12 * want:
                ok, detail = False, f"R=0 limit off at T={T}, W={W}"
    for W in np.linspace(0.0, 8.0, 5):
        for R in (0.0, 0.3, 2.0):
            cfg = PhysicalConfig(R=R, W=W, T=0.0, f0=10.0 + W, c=1.0)
            got = closed_form_bound(THREE_D, cfg)
            want = ((cfg.f0 - W) * E_PI * R / cfg.c + 1.0) ** 2
            if abs(got - want) > 1e-12 * want:
                ok, detail = False, f"T=0 limit off at R={R}, W={W}"
    _report(1, "limit identities", ok, detail)
    assert ok, detail


def test_criterion_2_exact_sum_oracle_equivalence():
    rng = np.random.default_rng(2024)
    ok = True
    detail = ""
    for trial in range(200):
        cfg = PhysicalConfig(R=rng.uniform(0.0, 2.0) / E_PI,
                             W=rng.uniform(0.0, 4.0),
                             T=rng.uniform(0.1, 2.5),
                             f0=rng.uniform(4.0, 16.0), c=1.0)
        if (cfg.f0 - cfg.W) * cfg.T > math.floor((cfg.f0 + cfg.W) * cfg.T):
            continue  # empty-window configs use the narrowband convention
        ref = brute_force_mode_count(True, cfg.R, cfg.W, cfg.T, cfg.f0, cfg.c)
        if exact_mode_sum(THREE_D, cfg) != ref:
            ok, detail = False, f"mismatch at trial {trial}"
            break
    cal = PhysicalConfig(R=1.0 / E_PI, W=1.0, T=1.0, f0=10.0, c=1.0)
    big = PhysicalConfig(R=1.0 / E_PI, W=10.0, T=10.0, f0=100.0, c=1.0)
    if exact_mode_sum(THREE_D, cal) != 365:
        ok, detail = False, "365 calibration failed"
    if exact_mode_sum(THREE_D, big) != 2_075_381:
        ok, detail = False, "2,075,381 calibration failed"
    if brute_force_mode_count(True, big.R, big.W, big.T, big.f0, big.c) != 2_075_381:
        ok, detail = False, "brute-force oracle disagrees at calibration"
    _report(2, "exact-sum oracle equivalence", ok, detail)
    assert ok, detail


def test_criterion_3_integral_grouping():
    ok = True
    detail = ""
    for q, f0, w in [(1, 10.0, 1.0), (2, 11.0, 1.0), (5, 15.0, 5.0),
                     (10, 100.0, 10.0)]:
        cfg = PhysicalConfig(R=1.0 / (E_PI * q), W=w, T=1.0, f0=f0, c=1.0)
        exact = exact_mode_sum(THREE_D, cfg)
        closed = closed_form_bound(THREE_D, cfg)
        if abs(closed - exact) > 1e-9 * exact:
            ok, detail = False, f"q={q}: closed {closed} vs exact {exact}"
    _report(3, "integral-grouping exactness", ok, detail)
    assert ok, detail


def test_criterion_4_asymptotic_convergence():
    caps = {1: 0.85, 10: 0.08, 100: 0.008}
    devs = {}
    for s in (1, 10, 100):
        cfg = PhysicalConfig(R=s * 1.0 / E_PI, W=1.0, T=float(s), f0=10.0, c=1.0)
        thm2 = closed_form_bound(THREE_D, cfg)
        asym = 2 * cfg.T * cfg.W * (cfg.W**2 / 3 + cfg.f0**2) * (E_PI * cfg.R) ** 2
        devs[s] = abs(thm2 / asym - 1.0)
    ok = all(devs[s] <= caps[s] for s in devs) and devs[1] > devs[10] > devs[100]
    _report(4, "asymptotic convergence", ok,
            f"devs={ {s: round(d, 5) for s, d in devs.items()} }")
    assert ok, devs


def test_criterion_5_figure_regimes(tmp_path):
    ok = True
    details = []

    # Fig 5: R = 0 column of the emitted sweep equals dof_time_band exactly.
    out = tmp_path / "fig5.csv"
    assert main(["figure", "fig5", "-o", str(out)]) == 0
    _, spec, rows = parse_sweep_csv(out.read_text())
    q_d2wt = 2 + list(spec.quantities).index("d_2wt")
    w_fixed = spec.fixed["W"]
    checked = 0
    for row in rows:
        if row[1] == 0.0:  # axis2 is R
            checked += 1
            if int(row[q_d2wt]) != dof_time_band(w_fixed, row[0]):
                ok = False
                details.append(f"fig5 R=0 mismatch at T={row[0]}")
    if checked != spec.axis1.count:
        ok = False
        details.append("fig5 grid lacks the R=0 column")

    # Fig 4: bound tracks (time-band + narrowband space) within 15%.
    conf = FIGURE_PRESETS["fig4"]
    t4, f04 = conf["fixed"]["T"], conf["fixed"]["F0"]
    worst = 0.0
    for w in Axis(*conf["axis1"]).values():
        for r in Axis(*conf["axis2"]).values():
            cfg = PhysicalConfig(R=r, W=w, T=t4, f0=f04)
            thm2 = closed_form_bound(THREE_D, cfg)
            approx = 2 * w * t4 + (E_PI * r * f04 / cfg.c + 1.0) ** 2
            worst = max(worst, abs(thm2 - approx) / thm2)
    if worst > 0.15:
        ok = False
        details.append(f"fig4 worst deviation {worst:.3f} > 0.15")

    # Fig 3: super-linear radius growth at W = 1e6.
    conf = FIGURE_PRESETS["fig3"]
    t3, f03 = conf["fixed"]["T"], conf["fixed"]["F0"]
    num = closed_form_bound(THREE_D, PhysicalConfig(R=1.0, W=1e6, T=t3, f0=f03))
    den = closed_form_bound(THREE_D, PhysicalConfig(R=0.5, W=1e6, T=t3, f0=f03))
    if num / den < 3.5:
        ok = False
        details.append(f"fig3 ratio {num / den:.3f} < 3.5")

    _report(5, "figure regimes", ok,
            "; ".join(details) if details else f"fig4 worst {worst:.3f}, "
                                               f"fig3 ratio {num / den:.3f}")
    assert ok, details


def test_criterion_6_mode_count_consistency():
    rng = np.random.default_rng(66)
    ok = True
    detail = ""
    for trial in range(200):
        cfg = PhysicalConfig(R=rng.uniform(0.0, 2.0) / E_PI,
                             W=rng.uniform(0.0, 3.0),
                             T=rng.uniform(0.1, 2.0),
                             f0=rng.uniform(4.0, 14.0), c=1.0)
        for dim in (TWO_D, THREE_D):
            if len(enumerate_modes(dim, cfg)) != exact_mode_sum(dim, cfg):
                ok, detail = False, f"trial {trial}, dim {dim.value}"
    _report(6, "mode-count consistency", ok, detail)
    assert ok, detail


def test_criterion_7_truncation_property():
    ok = True
    rows = []
    direction = (0.6, -0.64, 0.48)
    for kR in (2.0, 5.0, 10.0):
        wv = WaveVector.from_frequency(kR / (2 * math.pi), direction, 1.0)
        n = truncation_degree(1.0, kR)
        e_n = truncation_error(wv, 1.0, n)
        e_n5 = truncation_error(wv, 1.0, n + 5)
        rows.append(f"kR={kR}: err(N={n})={e_n:.2e}, err(N+5)={e_n5:.2e}")
        if e_n > 0.1 or e_n5 > e_n / 100:
            ok = False
    _report(7, "truncation property", ok, "; ".join(rows))
    assert ok, rows


# --- criterion 8 fixtures --------------------------------------------------
# The narrowband energy rank (clause a) is bracketed by the one-sided and
# two-sided 2D counts. The continuum kernel puts it at about 1.4x the
# one-sided and 0.7x the two-sided count for every kR >= 5 (README).

NARROW = PhysicalConfig(R=0.1, W=0.01, T=0.3, f0=10.0, c=1.0)
CAL_2D = PhysicalConfig(R=1.0 / E_PI, W=1.0, T=1.0, f0=10.0, c=1.0)
FIELDS, WAVES, SEED = 128, 64, 20260810


def _ensemble_energy_rank(cfg: PhysicalConfig, resolution) -> int:
    grid = build_grid(TWO_D, cfg, resolution)
    fields = [synthesize_field(TWO_D, cfg, WAVES, seed=SEED + 1000 * j)
              for j in range(FIELDS)]
    return ensemble_spectrum(fields, grid).rank_energy


def _time_nodes(cfg: PhysicalConfig) -> int:
    return math.ceil(4 * (cfg.f0 + cfg.W) * cfg.T + 8)


def test_criterion_8_empirical_rank():
    failures = []

    # (a) narrowband energy rank between the one- and two-sided 2D counts
    rank = _ensemble_energy_rank(NARROW, (8, 24, _time_nodes(NARROW)))
    lo = exact_mode_sum(TWO_D, NARROW)
    hi = exact_mode_sum(TWO_D, NARROW, two_sided=True)
    if not lo <= rank <= hi:
        failures.append(f"narrowband energy-rank {rank} outside [{lo}, {hi}] "
                        f"between the one- and two-sided 2D counts "
                        f"(rank/one-sided {rank / lo:.2f})")

    # (b) monotone nondecreasing rank along 3-point ladders in R, W, T
    ladders = {
        "R": [PhysicalConfig(R=r, W=0.01, T=0.3, f0=10.0, c=1.0)
              for r in (0.05, 0.1, 0.15)],
        "W": [PhysicalConfig(R=0.1, W=w, T=1.0, f0=10.0, c=1.0)
              for w in (0.01, 0.5, 1.0)],
        "T": [PhysicalConfig(R=0.1, W=1.0, T=t, f0=10.0, c=1.0)
              for t in (0.25, 0.6, 1.2)],
    }
    ladder_ranks = {}
    for axis, cfgs in ladders.items():
        ranks = [_ensemble_energy_rank(c, (8, 24, _time_nodes(c))) for c in cfgs]
        ladder_ranks[axis] = ranks
        if not (ranks[0] <= ranks[1] <= ranks[2]):
            failures.append(f"{axis}-ladder ranks {ranks} not nondecreasing")

    # (c) gram threshold-rank equals the enumerated count exactly
    grid = build_grid(TWO_D, CAL_2D, (8, 24, 52))
    modes = enumerate_modes(TWO_D, CAL_2D)
    gram = diagonal_normalize(gram_of_modes(modes, grid, CAL_2D))
    spec = eigen_spectrum(gram, RankPolicy(epsilon=1e-6))
    if spec.rank_threshold != len(modes):
        failures.append(f"gram threshold-rank {spec.rank_threshold} != {len(modes)}")

    ok = not failures
    _report(8, "empirical rank", ok,
            "; ".join(failures) if failures
            else f"narrowband rank {rank} in [{lo}, {hi}] "
                 f"(rank/one-sided {rank / lo:.2f}), ladders {ladder_ranks}, "
                 f"gram {spec.rank_threshold}/{len(modes)}")
    assert ok, failures


def test_criterion_9_special_function_suite():
    ok = True
    details = []

    # recurrence residuals
    worst = 0.0
    for n in range(1, 101):
        for x in (0.05, 0.7, 3.0, 21.0, 90.0, 300.0):
            jm = spherical_bessel_j(n - 1, x)
            jc = spherical_bessel_j(n, x)
            jp = spherical_bessel_j(n + 1, x)
            lhs = (2 * n + 1) * jc / x
            scale = max(abs(lhs), abs(jm), abs(jp))
            if scale > 1e-280:
                worst = max(worst, abs(lhs - jm - jp) / scale)
    if worst > 1e-10:
        ok = False
        details.append(f"recurrence residual {worst:.2e}")

    # quadrature orthonormality, n <= 30
    n_max = 30
    from numpy.polynomial.legendre import leggauss

    mu, wmu = leggauss(n_max + 1)
    n_phi = 2 * n_max + 1
    phi = 2 * math.pi * np.arange(n_phi) / n_phi
    table = norm_assoc_legendre_table(n_max, mu)
    pairs = [(n, m) for n in range(n_max + 1) for m in range(-n, n + 1)]
    Y = np.empty((len(pairs), (n_max + 1) * n_phi), dtype=complex)
    for row, (n, m) in enumerate(pairs):
        pm = table[n, abs(m)]
        if m < 0 and m % 2:
            pm = -pm
        Y[row] = (pm[:, None] * np.exp(1j * m * phi)[None, :]).ravel()
    w = (wmu[:, None] * np.full(n_phi, 2 * math.pi / n_phi)[None, :]).ravel()
    G = (Y * w) @ Y.conj().T
    off = np.max(np.abs(G - np.diag(np.diag(G))))
    if off > 1e-8:
        ok = False
        details.append(f"orthonormality off-diagonal {off:.2e}")

    # addition theorem, n <= 20, 100 random pairs
    rng = np.random.default_rng(99)
    worst_add = 0.0
    for _ in range(100):
        t1, p1 = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        t2, p2 = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        n = int(rng.integers(0, 21))
        cos_g = (math.sin(t1) * math.sin(t2) * math.cos(p1 - p2)
                 + math.cos(t1) * math.cos(t2))
        lhs = sum(sph_harm(n, m, Angle(t1, p1))
                  * sph_harm(n, m, Angle(t2, p2)).conjugate()
                  for m in range(-n, n + 1))
        rhs = (2 * n + 1) / (4 * math.pi) * legendre_p(n, cos_g)
        worst_add = max(worst_add, abs(lhs - rhs))
    if worst_add > 1e-10:
        ok = False
        details.append(f"addition theorem residual {worst_add:.2e}")

    _report(9, "special-function suite", ok,
            "; ".join(details) if details
            else f"recurrence {worst:.1e}, gram off-diag {off:.1e}, "
                 f"addition {worst_add:.1e}")
    assert ok, details


def test_criterion_10_verify_determinism(tmp_path):
    flags = ["verify", "--R", "0.1", "--W", "0.01", "--T", "0.3", "--F0", "10",
             "--c", "1", "--dim", "2d", "--seed", "11",
             "--resolution", "8,24,22", "--fields", "48", "--waves", "32"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(flags + ["-o", str(out1)]) == 0
    assert main(flags + ["-o", str(out2)]) == 0
    d1 = json.loads(out1.read_text())
    d2 = json.loads(out2.read_text())
    d1["metadata"].pop("generated")
    d2["metadata"].pop("generated")
    ok = d1 == d2
    _report(10, "verify determinism", ok)
    assert ok


def test_criterion_11_gram_rank_at_3d_calibration(tmp_path):
    # The paper's 3D calibration point: thm2 = exact3d = 365 modes.
    out = tmp_path / "cal3d.json"
    rc = main(["verify", "--dim", "3d", "--R", repr(1.0 / E_PI), "--W", "1",
               "--T", "1", "--F0", "10", "--c", "1",
               "--resolution", "12,23,52", "--fields", "4", "--waves", "16",
               "-o", str(out)])
    got = None
    if rc == 0:
        doc = json.loads(out.read_text())
        got = (doc["gram"]["modes"], doc["gram"]["rank_threshold"],
               doc["bounds"]["exact3d"])
    ok = got == (365, 365, 365)
    _report(11, "3D gram rank at calibration", ok,
            f"exit {rc}, modes/rank/exact3d {got}")
    assert rc == 0
    assert ok, got


def _plane_wave_samples(grid, wv):
    return np.exp(1j * (wv.k * (grid.points @ np.asarray(wv.k_hat))
                        + 2 * math.pi * wv.f * grid.times))


def test_criterion_12_projection_at_3d_calibration():
    # 365 modes on the 12,23,52 grid (660,192 points): in-band plane waves
    # lie in the span of the modes, an out-of-band one does not.
    cal = PhysicalConfig(R=1.0 / E_PI, W=1.0, T=1.0, f0=10.0, c=1.0)
    grid = build_grid(THREE_D, cal, (12, 23, 52))
    modes = enumerate_modes(THREE_D, cal)
    rng = np.random.default_rng(12)
    in_band = []
    for _ in range(5):
        wv = WaveVector.from_frequency(int(rng.integers(9, 12)) / cal.T,
                                       rng.normal(size=3), cal.c)
        in_band.append(project_field(_plane_wave_samples(grid, wv), modes,
                                     grid, cal).residual)
    wv = WaveVector.from_frequency(2 * (cal.f0 + cal.W), (0.0, 0.0, 1.0), cal.c)
    out_band = project_field(_plane_wave_samples(grid, wv), modes, grid,
                             cal).residual
    ok = (len(modes), len(grid)) == (365, 660_192) \
        and max(in_band) <= 0.02 and out_band >= 0.2
    _report(12, "3D projection at calibration", ok,
            f"in-band residuals {max(in_band):.4f} max, out-of-band {out_band:.3f}")
    assert ok, (len(modes), len(grid), in_band, out_band)
