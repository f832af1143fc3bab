"""Closed-form bounds, exact sums, and their cross-checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavedof import (ConfigError, Dimension, PhysicalConfig, asymptotic_dof_3d,
                     average_mode_density_3d, bound_report, closed_form_bound,
                     dof_space, dof_time_band, exact_mode_sum, frequency_bins,
                     truncation_degree)

from oracles import brute_force_mode_count, snap

E_PI = math.e * math.pi
TWO_D, THREE_D = Dimension.TWO_D, Dimension.THREE_D


def natural(R, W, T, f0):
    return PhysicalConfig(R=R, W=W, T=T, f0=f0, c=1.0)


CAL_3D = natural(1.0 / E_PI, 1.0, 1.0, 10.0)          # 365 modes
CAL_3D_BIG = natural(1.0 / E_PI, 10.0, 10.0, 100.0)   # 2,075,381 modes


def test_config_invariants():
    with pytest.raises(ConfigError):
        PhysicalConfig(R=-1, W=0, T=0, f0=1)
    with pytest.raises(ConfigError):
        PhysicalConfig(R=1, W=-1, T=0, f0=1)
    with pytest.raises(ConfigError):
        PhysicalConfig(R=1, W=0, T=-1, f0=1)
    with pytest.raises(ConfigError):
        PhysicalConfig(R=1, W=0, T=0, f0=1, c=0)
    with pytest.raises(ConfigError):
        PhysicalConfig(R=1, W=5, T=1, f0=1)  # band edge below zero
    for field in ("R", "W", "T", "f0", "c"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError):
                PhysicalConfig(**{"R": 1, "W": 0, "T": 1, "f0": 1, "c": 1, field: bad})


def test_dof_time_band():
    assert dof_time_band(1000, 0.001) == 3
    assert dof_time_band(0, 123.0) == 1
    assert dof_time_band(1000, 0.0005) == 2


def test_dof_space():
    assert dof_space(THREE_D, 2.4e9, 0.125, 3e8) == 100
    assert dof_space(THREE_D, 7.7e9, 0.0) == 1
    assert dof_space(TWO_D, 2.4e9, 0.125, 3e8) == 10


def test_truncation_degree():
    k = 2.0
    assert truncation_degree(1.0, k) == 3              # ceil(e)
    assert truncation_degree(0.0, 55.0) == 0
    assert truncation_degree(2.0, 5.0) == 14           # ceil(5e)


def test_exact_mode_sum_calibration():
    assert exact_mode_sum(THREE_D, CAL_3D) == 365
    assert exact_mode_sum(TWO_D, CAL_3D) == 33
    assert exact_mode_sum(THREE_D, CAL_3D_BIG) == 2_075_381


def test_exact_mode_sum_rejects_zero_time():
    with pytest.raises(ConfigError):
        exact_mode_sum(THREE_D, natural(1.0, 0.0, 0.0, 5.0))


def test_exact_mode_sum_empty_bin_range():
    # no integer in [(f0-W)T, (f0+W)T] -> single narrowband term at f0
    cfg = natural(1.0 / E_PI, 0.001, 0.2, 10.5)
    assert exact_mode_sum(THREE_D, cfg) == (11 + 1) ** 2
    assert exact_mode_sum(TWO_D, cfg) == 12
    bins = frequency_bins(cfg)
    assert len(bins) == 1 and bins[0].f == 10.5


def test_frequency_bins_beyond_int64():
    # bin indices near 1e19 exceed int64; they stay exact, consecutive ints
    cfg = PhysicalConfig(R=1e-12, W=5000.0, T=1.0, f0=1e19)
    bins = frequency_bins(cfg)
    lo, hi = int((cfg.f0 - cfg.W) * cfg.T), int((cfg.f0 + cfg.W) * cfg.T)
    assert [b.i for b in bins] == list(range(lo, hi + 1))
    assert all(type(b.i) is int and b.f == float(b.i) for b in bins)
    assert exact_mode_sum(TWO_D, cfg) == 2 * len(bins)  # N(i) = 1 throughout


def test_exact_mode_sum_against_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(40):
        cfg = natural(rng.uniform(0, 2) / E_PI, rng.uniform(0, 4),
                      rng.uniform(0.1, 3), rng.uniform(4, 20))
        for dim, dim3 in ((THREE_D, True), (TWO_D, False)):
            ref = brute_force_mode_count(dim3, cfg.R, cfg.W, cfg.T, cfg.f0, cfg.c)
            if (cfg.f0 - cfg.W) * cfg.T > math.floor((cfg.f0 + cfg.W) * cfg.T):
                continue  # empty-range convention differs from the raw loop
            assert exact_mode_sum(dim, cfg) == ref


def test_exact_mode_sum_vectorized_path_matches_loop():
    # exact_mode_sum against a per-bin loop in Python ints that applies the
    # documented snap literally: round, keep the rounded value within
    # 1e-9 * max(1, |v|), else take the ceiling. The second and third
    # configs have 10,001 bins and totals beyond the int64 range (the
    # third in 2D too). Degrees of the third reach 3e21, where one float
    # ulp exceeds 1, so v is formed as the library forms it,
    # (e pi R / c) * i / T.
    for cfg, pinned in (
            (natural(0.3 / E_PI, 1500.0, 1.0, 2000.0), None),
            (PhysicalConfig(R=1e7, W=5e5, T=1e-2, f0=1e9),
             (2846862744188, 810381777798852280300)),
            (PhysicalConfig(R=1e20, W=5e5, T=1e-2, f0=1e9),
             (28468627320319443675916049,
              81038177087822031058275904537151593057286629137))):
        lo, hi = math.ceil((cfg.f0 - cfg.W) * cfg.T), math.floor((cfg.f0 + cfg.W) * cfg.T)
        a = math.e * math.pi * cfg.R / cfg.c
        ref3 = ref2 = 0
        for i in range(lo, hi + 1):
            n = snap(a * i / cfg.T, math.ceil)
            ref3 += (n + 1) ** 2
            ref2 += n + 1
        assert exact_mode_sum(THREE_D, cfg) == ref3
        assert exact_mode_sum(TWO_D, cfg) == ref2
        if pinned:
            assert (ref2, ref3) == pinned


def test_closed_form_3d_calibration():
    assert closed_form_bound(THREE_D, CAL_3D) == pytest.approx(365.0, rel=1e-12)
    assert closed_form_bound(THREE_D, CAL_3D_BIG) == pytest.approx(2_075_381.0, rel=1e-12)


def test_closed_form_3d_limits():
    cfg = PhysicalConfig(R=0.0, W=3.0, T=1.0, f0=10.0)
    assert closed_form_bound(THREE_D, cfg) == pytest.approx(14.0, rel=1e-12)
    cfg = natural(2.0, 1.5, 0.0, 8.0)
    a = E_PI * cfg.R
    assert closed_form_bound(THREE_D, cfg) == ((cfg.f0 - cfg.W) * a + 1.0) ** 2


def test_closed_form_2d_shape():
    cfg = natural(0.5, 2.0, 3.0, 9.0)
    a = E_PI * cfg.R
    expect = 4 * cfg.W * cfg.T + 1 + 2 * a * cfg.f0 + 2 * a * cfg.T * cfg.W**2
    assert closed_form_bound(TWO_D, cfg) == pytest.approx(expect, rel=1e-14)


def test_integral_grouping_exactness():
    # closed form == exact sum whenever cT/(e pi R) = q divides both
    # (f0 - W) T and 2 W T
    for q, f0, w in [(1, 10.0, 1.0), (2, 11.0, 1.0), (5, 15.0, 5.0), (10, 100.0, 10.0)]:
        cfg = natural(1.0 / (E_PI * q), w, 1.0, f0)
        exact = exact_mode_sum(THREE_D, cfg)
        closed = closed_form_bound(THREE_D, cfg)
        assert abs(closed - exact) <= 1e-9 * exact, (q, exact, closed)


def test_asymptotic_dof():
    cfg = CAL_3D
    assert asymptotic_dof_3d(cfg) == pytest.approx(2 * (1.0 / 3.0 + 100.0), rel=1e-12)
    assert asymptotic_dof_3d(natural(1.0, 0.0, 5.0, 3.0)) == 0.0
    big = natural(100.0 / E_PI, 1.0, 100.0, 10.0)
    ratio = closed_form_bound(THREE_D, big) / asymptotic_dof_3d(big)
    assert asymptotic_dof_3d(big) == pytest.approx(2.00667e8, rel=1e-3)
    assert ratio == pytest.approx(1.007, abs=5e-4)


def test_average_mode_density():
    assert average_mode_density_3d(CAL_3D) == pytest.approx(101.0, rel=1e-12)
    assert average_mode_density_3d(PhysicalConfig(R=0, W=1, T=1, f0=10)) == 0.0


def test_density_times_band_tracks_asymptote():
    # 2WT * density and the asymptote differ only in the W^2 coefficient
    # (1 vs 1/3), so their ratio stays within [2/3, 1] ... [1, 3/2].
    for cfg in (CAL_3D, natural(0.7, 3.0, 2.0, 12.0), natural(2.0, 5.0, 0.5, 6.0)):
        prod = 2 * cfg.W * cfg.T * average_mode_density_3d(cfg)
        asym = asymptotic_dof_3d(cfg)
        if asym == 0:
            continue
        assert 1.0 <= prod / asym <= 1.5


def test_bound_report_fields():
    rep = bound_report(PhysicalConfig(R=0.125, W=1e6, T=5e-4, f0=2.4e9))
    d = rep.as_dict()
    for key in ("d_2wt", "d_space2d", "d_space3d", "thm1", "thm2", "exact2d",
                "exact3d", "asym3d", "avg_density", "n0"):
        assert key in d
        assert d[key] >= 0
    assert isinstance(rep.exact2d, int) and isinstance(rep.exact3d, int)
    assert rep.d_space3d == 100
    assert rep.n0 == pytest.approx((2.4e9 - 1e6) * E_PI * 0.125 / 3e8, rel=1e-12)


def test_bound_report_degenerate_configs():
    rep = bound_report(PhysicalConfig(R=0.0, W=3.0, T=1.0, f0=10.0))
    assert rep.thm2 == pytest.approx(13.0 * 1 * 3 / 3 + 1, rel=1e-12)
    assert rep.d_space3d == 1
    rep = bound_report(natural(2.0, 0.0, 0.0, 8.0))
    assert rep.d_2wt == 1
    assert rep.thm2 == pytest.approx((8.0 * E_PI * 2.0 + 1) ** 2, rel=1e-12)
    # T = 0 falls back to the single-frequency spatial counts
    assert rep.exact3d == dof_space(THREE_D, 8.0, 2.0, 1.0)
    assert rep.exact2d == dof_space(TWO_D, 8.0, 2.0, 1.0)


params = st.floats(min_value=0.01, max_value=50.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(r1=params, r2=params, w=params, t=params, f_extra=params)
def test_bounds_monotone_in_radius(r1, r2, w, t, f_extra):
    lo, hi = sorted((r1, r2))
    f0 = w + f_extra
    c1, c2 = natural(lo, w, t, f0), natural(hi, w, t, f0)
    for dim in (TWO_D, THREE_D):
        assert closed_form_bound(dim, c1) <= closed_form_bound(dim, c2) * (1 + 1e-12)
        assert exact_mode_sum(dim, c1) <= exact_mode_sum(dim, c2)
    assert asymptotic_dof_3d(c1) <= asymptotic_dof_3d(c2)
    assert average_mode_density_3d(c1) <= average_mode_density_3d(c2)


@settings(max_examples=60, deadline=None)
@given(r=params, w=params, t1=params, t2=params, f_extra=params)
def test_closed_forms_monotone_in_time(r, w, t1, t2, f_extra):
    lo, hi = sorted((t1, t2))
    f0 = w + f_extra
    c1, c2 = natural(r, w, lo, f0), natural(r, w, hi, f0)
    for dim in (TWO_D, THREE_D):
        assert closed_form_bound(dim, c1) <= closed_form_bound(dim, c2) * (1 + 1e-12)
    assert dof_time_band(w, lo) <= dof_time_band(w, hi)


@settings(max_examples=60, deadline=None)
@given(r=params, w1=params, w2=params, t=params, f_extra=params)
def test_exact_sums_monotone_in_bandwidth(r, w1, w2, t, f_extra):
    # widening the band only adds bins (both configs non-degenerate)
    lo, hi = sorted((w1, w2))
    f0 = hi + f_extra
    c1, c2 = natural(r, lo, t, f0), natural(r, hi, t, f0)
    if (f0 - lo) * t > math.floor((f0 + lo) * t):
        return  # empty window at the smaller bandwidth: convention differs
    for dim in (TWO_D, THREE_D):
        assert exact_mode_sum(dim, c1) <= exact_mode_sum(dim, c2)


@settings(max_examples=60, deadline=None)
@given(r=params, w1=params, w2=params, t=st.floats(min_value=0.5, max_value=50),
       f_extra=params)
def test_closed_forms_monotone_in_bandwidth_away_from_degeneracy(r, w1, w2, t, f_extra):
    # 2WT >= 1 keeps the TW part of the 3D bound in charge
    lo, hi = sorted((w1, w2))
    if 2 * lo * t < 1.0:
        return
    f0 = hi + f_extra
    c1, c2 = natural(r, lo, t, f0), natural(r, hi, t, f0)
    assert closed_form_bound(TWO_D, c1) <= closed_form_bound(TWO_D, c2) * (1 + 1e-12)
    assert closed_form_bound(THREE_D, c1) <= closed_form_bound(THREE_D, c2) * (1 + 1e-12)


@settings(max_examples=60, deadline=None)
@given(r=params, w=params, t=params, f1=params, f2=params)
def test_closed_forms_monotone_in_center_frequency(r, w, t, f1, f2):
    lo, hi = sorted((f1, f2))
    c1, c2 = natural(r, w, t, w + lo), natural(r, w, t, w + hi)
    for dim in (TWO_D, THREE_D):
        assert closed_form_bound(dim, c1) <= closed_form_bound(dim, c2) * (1 + 1e-12)
