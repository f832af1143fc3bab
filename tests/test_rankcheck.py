"""Quadrature grids, Gram/covariance spectra, effective ranks."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from wavedof import (Dimension, PhysicalConfig, RankPolicy, ResolutionError,
                     SpaceTimeGrid, WaveVector, build_grid, diagonal_normalize,
                     effective_rank, eigen_spectrum, ensemble_spectrum,
                     enumerate_modes, gram_of_modes, synthesize_field,
                     truncation_degree, truncation_error)
from wavedof import cli, rankcheck
from wavedof.bounds import ConfigError, ModeCapError
from wavedof.modes import (ModeIndex, PlaneWaveSet, field_values, mode_matrix,
                           project_field)
from wavedof.specfun import cos_sin

from oracles import (charpoly_eigenvalues, complex_band_time_basis, dense_gram,
                     eager_grid_arrays, ensemble_covariance, lift_time_coordinates,
                     lommel_tail_reference, pointwise_field_rows,
                     pointwise_truncation_error)

E_PI = math.e * math.pi
TWO_D, THREE_D = Dimension.TWO_D, Dimension.THREE_D

CAL_2D = PhysicalConfig(R=1.0 / E_PI, W=1.0, T=1.0, f0=10.0, c=1.0)
NARROW_2D = PhysicalConfig(R=0.1, W=0.01, T=0.3, f0=10.0, c=1.0)
HALF_CAL_3D = PhysicalConfig(R=0.5 / E_PI, W=1.0, T=1.0, f0=10.0, c=1.0)
CAL_3D = PhysicalConfig(R=1.0 / E_PI, W=1.0, T=1.0, f0=10.0, c=1.0)
# No i/T in [F0 - W, F0 + W]: one stand-in bin, i = 2, at F0 = 10.5 Hz.
STAND_IN = PhysicalConfig(R=1.0 / E_PI, W=0.001, T=0.2, f0=10.5, c=1.0)
WIDE_2D = PhysicalConfig(R=0.1, W=5.0, T=1.0, f0=10.0, c=1.0)
PER_POINT = ("points", "times", "weights")


def test_grid_weight_sum_3d():
    cfg = PhysicalConfig(R=1.0, W=0.0, T=1.0, f0=1.0, c=1.0)
    g = build_grid(THREE_D, cfg, (6, 8, 10))
    assert np.sum(g.weights) == pytest.approx(4 * math.pi / 3, rel=1e-10)
    assert np.all(g.weights > 0)


def test_grid_weight_sum_2d():
    g = build_grid(TWO_D, CAL_2D, (8, 24, 52))
    assert np.sum(g.weights) == pytest.approx(math.pi * CAL_2D.R**2 * CAL_2D.T,
                                              rel=1e-10)


def test_grid_integrates_y10_square():
    from wavedof import sph_harm, Angle

    cfg = PhysicalConfig(R=1.0, W=0.0, T=1.0, f0=1.0, c=1.0)
    g = build_grid(THREE_D, cfg, (4, 4, 2))
    vals = np.array([abs(sph_harm(1, 0, Angle(math.acos(p[2] / np.linalg.norm(p)),
                                              math.atan2(p[1], p[0]))))**2
                     for p in g.points])
    # angular integral of |Y_1^0|^2 is 1; radial x time contribute R^3/3 * T
    total = float(np.sum(g.weights * vals))
    assert total == pytest.approx(1.0 / 3.0, rel=1e-8)


def test_grid_integrates_full_period_sinusoid_to_zero():
    g = build_grid(TWO_D, CAL_2D, (2, 2, 16))
    vals = np.exp(2j * math.pi * g.times / CAL_2D.T)
    total = np.sum(g.weights * vals) / np.sum(g.weights)
    assert abs(total) <= 1e-10


@pytest.mark.parametrize("dim, res", [(TWO_D, (8, 24, 21)), (THREE_D, (5, 9, 20))])
def test_grid_rules_cached_bit_identical(dim, res, monkeypatch):
    x, w = rankcheck._gauss_legendre(res[2])
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 0.0
    cached = [build_grid(dim, HALF_CAL_3D, res) for _ in range(2)]
    monkeypatch.setattr(rankcheck, "_gauss_legendre", leggauss)
    fresh = build_grid(dim, HALF_CAL_3D, res)
    for g in cached:
        for name in ("points", "times", "weights"):
            assert getattr(g, name).tobytes() == getattr(fresh, name).tobytes()
        assert g.axes.keys() == fresh.axes.keys()
        for key, val in fresh.axes.items():
            assert g.axes[key].tobytes() == val.tobytes(), key


@pytest.mark.parametrize("dim, res", [
    (TWO_D, (8, 24, 21)), (TWO_D, (8, 25, 21)), (THREE_D, (5, 9, 20)),
    (TWO_D, (1, 1, 50)), (THREE_D, (1, 1, 50)), (THREE_D, (3, 4, 1)),
], ids=["2d-even", "2d-odd", "3d", "2d-one-node-space", "3d-one-node-space",
        "3d-one-time-node"])
def test_grid_arrays_match_eager_oracle(dim, res):
    g = build_grid(dim, HALF_CAL_3D, res)
    assert not any(name in vars(g) for name in PER_POINT)
    want = eager_grid_arrays(g)
    assert len(g) == len(want[2])
    for name, arr in zip(PER_POINT, want):
        got = getattr(g, name)
        assert got.shape == arr.shape and got.tobytes() == arr.tobytes(), name
        assert getattr(g, name) is got  # built once, then kept


def test_library_paths_build_no_per_point_arrays(monkeypatch):
    grids = []

    def recording_build_grid(*args):
        grids.append(rankcheck.build_grid(*args))
        return grids[-1]

    monkeypatch.setattr(cli, "build_grid", recording_build_grid)
    cli.verify_report(NARROW_2D, TWO_D, waves=8, fields=6, seed=3,
                      resolution=(8, 24, 21), policy=RankPolicy())
    sampler = build_grid(TWO_D, CAL_2D, (8, 24, 52))
    samples = field_values(synthesize_field(TWO_D, CAL_2D, 8, seed=2),
                           sampler.points, sampler.times)
    grids.append(build_grid(TWO_D, CAL_2D, (8, 24, 52)))
    project_field(samples, enumerate_modes(TWO_D, CAL_2D), grids[-1], CAL_2D)
    assert len(grids) == 2
    for g in grids:
        assert [name for name in PER_POINT if name in vars(g)] == []


def _traced_peak(fn, *args, **kwargs) -> int:
    """Peak bytes traced by tracemalloc during one call, above the start."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_axes_only_memory_at_365_modes():
    # The 3D calibration point: 12 x 23 x 46 spatial nodes x 52 times,
    # 660,192 points. The per-point arrays alone would take 26 MB.
    assert _traced_peak(build_grid, THREE_D, CAL_3D, (12, 23, 52)) < 1 << 20
    peak = _traced_peak(cli.verify_report, CAL_3D, THREE_D, waves=16, fields=4,
                        seed=1, resolution=(12, 23, 52), policy=RankPolicy())
    assert peak < 16 << 20


def test_build_grid_over_cap_raises_before_allocating():
    # 200 x 200 x 400 spatial nodes x 200 times: 3.2e9 points, whose
    # axes alone would take 137 MiB. build_grid checks its own size.
    cfg = PhysicalConfig(R=1.0, W=1.0, T=1.0, f0=10.0, c=1.0)
    tracemalloc.start()
    try:
        with pytest.raises(ModeCapError,
                           match="^3200000000 grid points exceed the cap of 10000000$"):
            build_grid(THREE_D, cfg, (200, 200, 200))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("dim, resolution", [
    (TWO_D, (8, 24, 3)), (TWO_D, (3, 7, 2)), (THREE_D, (5, 9, 3)),
])
def test_space_points_are_radii_times_directions(dim, resolution):
    g = build_grid(dim, HALF_CAL_3D, resolution)
    r, d = g.axes["r_nodes"], g.axes["directions"]
    n_phi = len(g.axes["phi_nodes"])
    assert d.shape == (n_phi * (resolution[1] if dim is THREE_D else 1),
                       2 if dim is TWO_D else 3)
    assert np.max(np.abs(np.linalg.norm(d, axis=1) - 1.0)) <= 1e-15
    want = np.concatenate([ri * d for ri in r])
    assert rankcheck._node_coordinates(r, d).tobytes() == want.tobytes()
    assert g.points.tobytes() == np.repeat(want, resolution[2], axis=0).tobytes()


@pytest.mark.parametrize("dim, resolution", [
    (TWO_D, (8, 24, 3)), (TWO_D, (3, 7, 2)), (THREE_D, (5, 9, 3)),
])
def test_grid_axes_hold_no_node_coordinates(dim, resolution):
    axes = build_grid(dim, HALF_CAL_3D, resolution).axes
    n_space = len(axes["space_weights"])
    assert [k for k, v in axes.items() if v.ndim == 2 and len(v) == n_space] == []


def test_grid_rejects_zero_measure():
    with pytest.raises(ConfigError):
        build_grid(TWO_D, PhysicalConfig(R=0.0, W=0, T=1, f0=1, c=1), (2, 2, 2))
    with pytest.raises(ConfigError):
        build_grid(TWO_D, PhysicalConfig(R=1.0, W=0, T=0, f0=1, c=1), (2, 2, 2))
    with pytest.raises(ConfigError):
        build_grid(TWO_D, CAL_2D, (0, 2, 2))


def test_grid_is_its_axes():
    assert [f.name for f in dataclasses.fields(SpaceTimeGrid)] == ["axes"]


@pytest.mark.parametrize("kwargs", [{"eta": 2.0}, {"epsilon": 1.0}])
def test_rank_policy_rejects_out_of_range(kwargs):
    with pytest.raises(ConfigError):
        RankPolicy(**kwargs)


def test_gram_single_mode():
    g = build_grid(TWO_D, CAL_2D, (8, 24, 52))
    modes = [ModeIndex(10, 0, 0, TWO_D)]
    gram = gram_of_modes(modes, g, CAL_2D)
    assert gram.shape == (1, 1)
    assert gram[0, 0].real > 0
    assert gram[0, 0].imag == 0


def test_gram_exactly_hermitian():
    g = build_grid(TWO_D, CAL_2D, (8, 24, 52))
    modes = enumerate_modes(TWO_D, CAL_2D)
    gram = gram_of_modes(modes, g, CAL_2D)
    assert np.max(np.abs(gram - gram.conj().T)) == 0.0


@pytest.mark.parametrize("dim, cfg, two_sided, resolution, count", [
    (TWO_D, CAL_2D, False, (8, 24, 52), 33),
    (TWO_D, CAL_2D, True, (8, 24, 52), 63),
    (THREE_D, HALF_CAL_3D, False, (8, 13, 52), 121),
    (TWO_D, STAND_IN, True, (8, 31, 20), 23),
    (TWO_D, CAL_2D, True, (8, 25, 52), 63),
    (TWO_D, WIDE_2D, True, (12, 40, 70), 209),
], ids=["cal2d-one-sided", "cal2d-two-sided", "3d-121-modes", "stand-in-bin",
        "cal2d-two-sided-odd-azimuths", "wide-band-11-bins"])
def test_factored_gram_matches_dense_oracle(dim, cfg, two_sided, resolution,
                                            count):
    """Every mode set of ``enumerate_modes`` has a real Gram on these grids,
    so it is assembled and diagonalized as a float64 matrix, within 1e-13
    of the complex dense oracle and with its eigenvalues."""
    g = build_grid(dim, cfg, resolution)
    modes = enumerate_modes(dim, cfg, two_sided=two_sided)
    assert len(modes) == count
    dense = dense_gram(modes, g, cfg)
    gram = gram_of_modes(modes, g, cfg)
    assert gram.dtype == np.float64
    assert np.max(np.abs(gram - dense)) <= 1e-13 * np.max(np.abs(dense))
    _assert_spectrum_matches_dense(gram, dense)


def _assert_spectrum_matches_dense(gram, dense):
    got = eigen_spectrum(diagonal_normalize(gram)).eigenvalues
    want = np.linalg.eigvalsh(diagonal_normalize(dense))[::-1]
    assert np.max(np.abs(got - want)) <= 1e-13 * want[0]


def test_gram_mixing_stand_in_and_lattice_bins_stays_complex():
    """The stand-in bin 2 (2.1 cycles over T) and bin 3 (3 cycles) differ
    by 0.9 cycles, so their time Gram e^{0.9 i pi} x (a real sum) is not
    real: a hand-built set mixing them keeps the complex Hermitian Gram."""
    g = build_grid(TWO_D, STAND_IN, (8, 31, 20))
    modes = [ModeIndex(i, 0, m, TWO_D) for i in (2, 3) for m in range(-3, 4)]
    dense = dense_gram(modes, g, STAND_IN)
    gram = gram_of_modes(modes, g, STAND_IN)
    assert gram.dtype == np.complex128
    assert np.max(np.abs(gram.imag)) > 1e-3 * np.max(np.abs(gram))
    assert np.max(np.abs(gram - dense)) <= 1e-13 * np.max(np.abs(dense))
    _assert_spectrum_matches_dense(gram, dense)


@pytest.mark.parametrize("dim, cfg, resolution", [
    (TWO_D, NARROW_2D, (8, 24, 21)),
    (TWO_D, NARROW_2D, (8, 25, 21)),
    (THREE_D, HALF_CAL_3D, (5, 9, 20)),
], ids=["narrow2d", "narrow2d-unpaired", "3d"])
def test_separable_field_rows_match_pointwise(dim, cfg, resolution,
                                              monkeypatch):
    # Small blocks, so the dual comes from many blocks, the last one
    # short; fields of 16 and 13 waves exercise the padding.
    monkeypatch.setattr(rankcheck, "_BLOCK_ENTRIES", 1500)
    g = build_grid(dim, cfg, resolution)
    fields = [synthesize_field(dim, cfg, 16 - 3 * (j % 2), seed=40 + j)
              for j in range(5)]
    rows = pointwise_field_rows(fields, g)
    want = rows @ rows.conj().T
    got = sum(y @ y.conj().T for y in rankcheck._weighted_field_blocks(fields, g))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    spec = ensemble_spectrum(fields, g)
    assert np.allclose(spec.eigenvalues,
                       np.linalg.eigvalsh(want / len(fields))[::-1],
                       rtol=0, atol=1e-12 * spec.trace)


@pytest.mark.parametrize("entries", [128, 6000],
                         ids=["one-node-one-field", "short-last-block-and-chunk"])
@pytest.mark.parametrize("dim, cfg, resolution", [
    (TWO_D, NARROW_2D, (8, 24, 21)),
    (TWO_D, NARROW_2D, (8, 25, 21)),
    (THREE_D, HALF_CAL_3D, (5, 9, 20)),
], ids=["narrow2d", "narrow2d-unpaired", "3d"])
def test_ensemble_block_edges(dim, cfg, resolution, entries, monkeypatch):
    # 13 fields of 16 and 13 waves. At 128 entries every node block holds
    # one node and every chunk one field; at 6000 the last node block is
    # short, and so is the last field chunk of each block.
    monkeypatch.setattr(rankcheck, "_BLOCK_ENTRIES", entries)
    chunks = []

    def recording_cos_sin(theta, out=None):
        if theta.ndim == 3:  # a chunk's space phases, (nodes, fields, waves)
            chunks.append(theta.shape[:2])
        return cos_sin(theta, out=out)

    monkeypatch.setattr(rankcheck, "cos_sin", recording_cos_sin)
    g = build_grid(dim, cfg, resolution)
    fields = [synthesize_field(dim, cfg, 16 - 3 * (j % 2), seed=40 + j)
              for j in range(13)]
    rows = pointwise_field_rows(fields, g)
    want = rows @ rows.conj().T
    got = sum(y @ y.conj().T for y in rankcheck._weighted_field_blocks(fields, g))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    if entries == 128:
        assert set(chunks) == {(1, 1)}
    else:
        (first_nodes, first_fields), (last_nodes, last_fields) = chunks[0], chunks[-1]
        assert last_nodes < first_nodes and last_fields < first_fields


@pytest.mark.parametrize("dim, cfg, resolution, fields, waves", [
    (TWO_D, NARROW_2D, (8, 24, 21), 128, 64),
    (THREE_D, HALF_CAL_3D, (8, 13, 52), 4, 16),
], ids=["verify2d", "verify3d"])
def test_ensemble_cos_sin_on_contiguous_arrays(dim, cfg, resolution, fields, waves,
                                               monkeypatch):
    # numpy runs each ufunc of cos_sin 1.3 to 4.7 times slower on strided views.
    arrays = []

    def recording_cos_sin(theta, out=None):
        arrays.extend([theta, *(out or ())])
        return cos_sin(theta, out=out)

    monkeypatch.setattr(rankcheck, "cos_sin", recording_cos_sin)
    g = build_grid(dim, cfg, resolution)
    ensemble_spectrum([synthesize_field(dim, cfg, waves, seed=1 + 1000 * j)
                       for j in range(fields)], g)
    assert arrays and all(a.flags.c_contiguous for a in arrays)


@pytest.mark.parametrize("dim, resolution", [
    (TWO_D, (4, 8, 5)), (TWO_D, (4, 9, 5)), (THREE_D, (3, 4, 5)),
], ids=["2d", "2d-unpaired", "3d"])
def test_ensemble_dual_at_large_phases(dim, resolution):
    # kR ~ 500 and 2 pi f T ~ 500: space and time phases of a few hundred
    # radians, against one exponential per (point, wave) in the oracle.
    cfg = PhysicalConfig(R=1.0, W=2.0, T=1.0, f0=80.0, c=1.0)
    g = build_grid(dim, cfg, resolution)
    fields = [synthesize_field(dim, cfg, 12, seed=70 + j) for j in range(6)]
    rows = pointwise_field_rows(fields, g)
    want = rows @ rows.conj().T
    got = sum(y @ y.conj().T for y in rankcheck._weighted_field_blocks(fields, g))
    trace = float(np.real(np.trace(want)))
    assert np.max(np.abs(got - want)) <= 1e-12 * trace
    spec = ensemble_spectrum(fields, g)
    assert np.allclose(spec.eigenvalues,
                       np.linalg.eigvalsh(want / len(fields))[::-1],
                       rtol=0, atol=1e-12 * spec.trace)


BASIS_CASES = pytest.mark.parametrize("dim, cfg, resolution, waves, columns", [
    (TWO_D, NARROW_2D, (8, 24, 21), 64, (1, 6)),
    (THREE_D, HALF_CAL_3D, (8, 13, 52), 16, (1, 17)),
    # The grid of test_ensemble_dual_at_large_phases: all 5 time nodes.
    (TWO_D, PhysicalConfig(R=1.0, W=2.0, T=1.0, f0=80.0, c=1.0), (4, 8, 5), 12,
     (5, 5)),
    (TWO_D, PhysicalConfig(R=0.1, W=0.0, T=0.3, f0=10.0, c=1.0), (8, 24, 21), 64,
     (1, 1)),
], ids=["narrow2d", "verify3d", "large-phases", "single-frequency"])


@BASIS_CASES
def test_band_time_basis(dim, cfg, resolution, waves, columns):
    g = build_grid(dim, cfg, resolution)
    fields = [synthesize_field(dim, cfg, waves, seed=1 + 1000 * j) for j in range(4)]
    q = rankcheck._band_time_basis(fields, g)
    assert q.shape[0] == resolution[2]
    assert columns[0] <= q.shape[1] <= columns[1]
    assert np.max(np.abs(q.conj().T @ q - np.eye(q.shape[1]))) <= 1e-14
    # The weighted time function of any in-band frequency lies in the span.
    freqs = np.concatenate([pws.frequencies for pws in fields])
    f = np.random.default_rng(3).uniform(freqs.min(), freqs.max(), 200)
    t, wt = g.axes["t_nodes"], g.axes["t_weights"]
    y = np.exp(2j * np.pi * np.outer(f, t)) * np.sqrt(wt)
    residual = np.linalg.norm(y - (y @ q) @ q.conj().T, axis=1)
    assert np.max(residual / np.linalg.norm(y, axis=1)) <= 1e-13


@BASIS_CASES
def test_band_time_basis_is_centred_real_and_parity_split(dim, cfg, resolution,
                                                          waves, columns):
    # Q = e^{-2 pi i f_c tau} B with B real and each column even or odd in
    # tau = t - t_c, which is exactly odd on the symmetric time nodes.
    g = build_grid(dim, cfg, resolution)
    fields = [synthesize_field(dim, cfg, waves, seed=1 + 1000 * j) for j in range(4)]
    q = rankcheck._band_time_basis(fields, g)
    centre = rankcheck._band_time_halves(fields, g)[0]
    t = g.axes["t_nodes"]
    tau = (t - t[::-1]) / 2.0
    b = q * np.exp(2j * np.pi * centre * tau)[:, None]
    assert np.max(np.abs(b.imag)) <= 1e-15
    b = b.real
    parity = np.minimum(np.max(np.abs(b - b[::-1]), axis=0),
                        np.max(np.abs(b + b[::-1]), axis=0))
    assert np.max(parity) <= 1e-15


@pytest.mark.parametrize("dim, cfg, resolution, fields, waves", [
    (TWO_D, NARROW_2D, (8, 24, 21), 128, 64),
    (TWO_D, NARROW_2D, (8, 25, 20), 128, 64),
    (THREE_D, HALF_CAL_3D, (8, 13, 52), 4, 16),
    (TWO_D, PhysicalConfig(R=0.1, W=0.0, T=0.3, f0=10.0, c=1.0), (8, 24, 21), 16, 8),
], ids=["narrow2d", "even-times-odd-azimuths", "verify3d", "single-frequency"])
def test_ensemble_matches_complex_basis_reference(dim, cfg, resolution, fields,
                                                  waves, monkeypatch):
    # The same ensemble with each wave's time coordinates taken in the
    # complex-SVD basis through the real lift, as first written.
    g = build_grid(dim, cfg, resolution)
    ens = [synthesize_field(dim, cfg, waves, seed=1 + 1000 * j) for j in range(fields)]
    got = ensemble_spectrum(ens, g)
    monkeypatch.setattr(rankcheck, "_band_time_coordinates", lift_time_coordinates)
    want = ensemble_spectrum(ens, g)
    assert got.eigenvalues.shape == want.eigenvalues.shape
    assert np.max(np.abs(got.eigenvalues - want.eigenvalues)) <= 1e-15 * want.trace
    assert (got.rank_threshold, got.rank_energy) == (want.rank_threshold,
                                                     want.rank_energy)
    assert round(got.trace, 12) == round(want.trace, 12)
    assert (rankcheck._band_time_basis(ens, g).shape
            == complex_band_time_basis(ens, g).shape)


def test_ensemble_rejects_an_asymmetric_time_axis():
    # The centred time basis needs the symmetric axis of build_grid; a
    # hand-made grid without it fails instead of giving a wrong spectrum.
    g = build_grid(TWO_D, NARROW_2D, (4, 8, 21))
    fields = [synthesize_field(TWO_D, NARROW_2D, 8, seed=j) for j in range(3)]
    for key, warp in (("t_nodes", lambda t: t ** 1.3),
                      ("t_weights", lambda w: w * np.linspace(1.0, 1.1, len(w)))):
        axes = dict(g.axes, **{key: warp(g.axes[key])})
        with pytest.raises(ValueError, match="time axis symmetric"):
            ensemble_spectrum(fields, SpaceTimeGrid(axes))


def test_ensemble_rejects_non_finite_time_phases():
    # 2 pi f t overflows at f = T = 1e300: a clean error, not a failed SVD.
    # One frequency leaves the basis's phases at 0, so the wave's phase at
    # the window's centre overflows; with a second frequency at 0 the
    # basis's sampled phases overflow first.
    cfg = PhysicalConfig(R=1.0, W=0.0, T=1e300, f0=1e300, c=1.0)
    g = build_grid(TWO_D, cfg, (2, 4, 3))
    pws = PlaneWaveSet(directions=np.array([[1.0, 0.0]]),
                       frequencies=np.array([1e300]),
                       amplitudes=np.array([1.0 + 0.0j]), c=1.0)
    with pytest.raises(ConfigError):
        ensemble_spectrum([pws], g)
    pair = PlaneWaveSet(directions=np.array([[1.0, 0.0], [0.0, 1.0]]),
                        frequencies=np.array([0.0, 1e300]),
                        amplitudes=np.array([1.0 + 0.0j, 1.0 + 0.0j]), c=1.0)
    with pytest.raises(ConfigError, match="time phases"):
        ensemble_spectrum([pair], g)


@pytest.mark.parametrize("dim, cfg, resolution, fields, waves, bound", [
    # Measured 3.88 MiB (the ensemble before the time basis: 5.82 MiB).
    (TWO_D, NARROW_2D, (8, 24, 21), 128, 64, 4.5),
    # Measured 2.64 MiB (before: 4.46 MiB).
    (THREE_D, HALF_CAL_3D, (8, 13, 52), 4, 16, 3.25),
], ids=["verify2d", "verify3d"])
def test_ensemble_memory(dim, cfg, resolution, fields, waves, bound):
    g = build_grid(dim, cfg, resolution)
    ens = [synthesize_field(dim, cfg, waves, seed=1 + 1000 * j) for j in range(fields)]
    assert _traced_peak(ensemble_spectrum, ens, g) <= bound * (1 << 20)


def test_ensemble_memory_over_a_long_window():
    # 410 time nodes: the time factor is formed by chunks of fields, so no
    # (128 x 64 x 410) complex array (43 MB) is held. Measured 3.88 MiB
    # with the two real half-node SVDs of the time basis (13.4 MiB with
    # one complex SVD over every node, 52.9 MiB with the whole factor).
    cfg = PhysicalConfig(R=0.1, W=0.01, T=10.0, f0=10.0, c=1.0)
    g = build_grid(TWO_D, cfg, (8, 24, 410))
    ens = [synthesize_field(TWO_D, cfg, 64, seed=1 + 1000 * j) for j in range(128)]
    assert _traced_peak(ensemble_spectrum, ens, g) <= 5 * (1 << 20)


def test_truncation_error_memory():
    # The expand 3D point kR = 20, N = 33: one Bessel column of 95 orders.
    # Measured 9.2 KiB (the folded ball quadrature on (24, 34): 2.53 MiB).
    wv = WaveVector.from_frequency(20.0 / (2 * math.pi), (0.6, -0.64, 0.48), 1.0)
    assert _traced_peak(truncation_error, wv, 1.0, 33, (24, 34)) <= 3.0 * (1 << 20)


@pytest.mark.parametrize("dim, resolution", [
    (TWO_D, (8, 24, 3)), (THREE_D, (5, 9, 3)), (THREE_D, (12, 23, 3)),
])
def test_antipodal_pairs(dim, resolution):
    g = build_grid(dim, HALF_CAL_3D, resolution)
    r, d = g.axes["r_nodes"], g.axes["directions"]
    kept, w_kept, folded = rankcheck._antipodal_fold(g.axes)
    assert folded
    # Each kept direction is one of the grid's, and its partner is the
    # direction nearest to its negative.
    nodes = np.array([np.flatnonzero((d == x).all(axis=1))[0] for x in kept])
    partners = np.argmin(np.linalg.norm(d[None, :, :] + kept[:, None, :], axis=2),
                         axis=1)
    assert np.array_equal(np.sort(np.concatenate([nodes, partners])),
                          np.arange(len(d)))
    # The direction pairs at every radius are the spatial node pairs.
    space = np.stack([ri * d for ri in r])
    assert (np.max(np.abs(space[:, partners] + space[:, nodes]))
            <= 1e-15 * HALF_CAL_3D.R)
    w = g.weights.reshape(len(r), len(d), -1)
    assert w[:, partners].tobytes() == w[:, nodes].tobytes()
    w_space = g.axes["space_weights"].reshape(len(r), -1)
    assert w_kept.tobytes() == (2.0 * w_space[:, nodes]).tobytes()


def test_odd_azimuth_count_has_no_antipodes():
    axes = build_grid(TWO_D, NARROW_2D, (8, 25, 3)).axes
    directions, w, folded = rankcheck._antipodal_fold(axes)
    assert not folded
    assert directions is axes["directions"]
    assert w.tobytes() == axes["space_weights"].tobytes() and w.shape == (8, 25)


def test_gram_resolution_preconditions():
    g = build_grid(TWO_D, CAL_2D, (8, 24, 20))  # n_time below 4(F0+W)T+8 = 52
    modes = enumerate_modes(TWO_D, CAL_2D)
    with pytest.raises(ResolutionError):
        gram_of_modes(modes, g, CAL_2D)
    g = build_grid(TWO_D, CAL_2D, (8, 10, 52))  # n_angular below 2*11+1
    with pytest.raises(ResolutionError):
        gram_of_modes(modes, g, CAL_2D)


GRAM_MIN_EIGENVALUE = 0.5  # calibration: observed ~1.0 for the counted set


def test_gram_normalized_is_well_conditioned_at_calibration():
    g = build_grid(TWO_D, CAL_2D, (8, 24, 52))
    modes = enumerate_modes(TWO_D, CAL_2D)
    gram = diagonal_normalize(gram_of_modes(modes, g, CAL_2D))
    spec = eigen_spectrum(gram, RankPolicy(epsilon=1e-6))
    assert spec.eigenvalues[-1] >= GRAM_MIN_EIGENVALUE
    assert spec.rank_threshold == len(modes)
    assert spec.rank_energy == len(modes)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diagonal_normalize_rejects_nonpositive():
    with pytest.raises(ConfigError):
        diagonal_normalize(np.array([[1.0, 0.0], [0.0, 0.0]]))
    # 1/sqrt(1e-320) = 1e160 is finite; the scale entry 1e320 is not.
    with pytest.raises(ConfigError):
        diagonal_normalize(np.diag([1.0, 1e-320]))


def test_ensemble_covariance_rank_one():
    cfg = PhysicalConfig(R=0.1, W=0.0, T=0.2, f0=5.0, c=1.0)
    g = build_grid(TWO_D, cfg, (3, 6, 4))
    pws = synthesize_field(TWO_D, cfg, 1, seed=5)
    cov = ensemble_covariance([pws], g)
    assert cov.shape == (len(g), len(g))
    spec = eigen_spectrum(cov)
    assert spec.eigenvalues[1] <= 1e-10 * spec.eigenvalues[0]


def test_ensemble_dual_route_matches_covariance():
    cfg = NARROW_2D
    g = build_grid(TWO_D, cfg, (3, 8, 5))
    fields = [synthesize_field(TWO_D, cfg, 8, seed=100 + j) for j in range(6)]
    direct = eigen_spectrum(ensemble_covariance(fields, g))
    dual = ensemble_spectrum(fields, g)
    k = len(fields)
    assert np.allclose(direct.eigenvalues[:k], dual.eigenvalues, rtol=1e-9,
                       atol=1e-12 * direct.trace)
    assert np.max(np.abs(direct.eigenvalues[k:])) <= 1e-10 * direct.trace
    assert direct.trace == pytest.approx(dual.trace, rel=1e-10)
    assert (direct.rank_threshold, direct.rank_energy) == \
        (dual.rank_threshold, dual.rank_energy)


def test_ensemble_saturation_under_doubling():
    g = build_grid(TWO_D, NARROW_2D, (8, 20, 22))
    half = [synthesize_field(TWO_D, NARROW_2D, 48, seed=1 + 7 * j) for j in range(64)]
    full = half + [synthesize_field(TWO_D, NARROW_2D, 48, seed=9000 + 7 * j)
                   for j in range(64)]
    r1 = ensemble_spectrum(half, g).rank_energy
    r2 = ensemble_spectrum(full, g).rank_energy
    assert abs(r2 - r1) <= max(1, round(0.05 * r1))


def _empty_modes_gram():
    return gram_of_modes([], build_grid(TWO_D, CAL_2D, (8, 24, 52)), CAL_2D)


def _empty_modes_projection():
    g = build_grid(TWO_D, CAL_2D, (4, 8, 6))
    return project_field(np.ones(len(g), dtype=complex), [], g, CAL_2D)


@pytest.mark.parametrize("call, message", [
    (_empty_modes_gram, "modes must be nonempty"),
    (_empty_modes_projection, "modes must be nonempty"),
    (lambda: eigen_spectrum(np.zeros((0, 0))), "matrix must be nonempty"),
], ids=["gram", "projection", "spectrum"])
def test_empty_inputs_fail_with_one_message(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_eigen_spectrum_identity():
    spec = eigen_spectrum(np.eye(5))
    assert np.allclose(spec.eigenvalues, 1.0)
    assert spec.trace == pytest.approx(5.0, rel=1e-12)
    assert spec.rank_threshold == 5 and spec.rank_energy == 5


def test_eigen_spectrum_similarity_invariance():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, _ = np.linalg.qr(x)
    m = q @ np.diag([3.0, 2.0, 1.0]).astype(complex) @ q.conj().T
    m = (m + m.conj().T) / 2
    spec = eigen_spectrum(m)
    assert np.allclose(spec.eigenvalues, [3.0, 2.0, 1.0], atol=1e-10)


def test_eigen_spectrum_matches_charpoly_oracle():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = x @ x.conj().T
    m = (m + m.conj().T) / 2
    spec = eigen_spectrum(m)
    ref = charpoly_eigenvalues(m)
    assert np.allclose(spec.eigenvalues, ref, rtol=1e-8, atol=1e-8 * spec.trace)


def test_eigen_spectrum_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eigen_spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        eigen_spectrum(np.zeros((2, 3)))
    # NaN passes the Hermitian defect test, whose comparison is then False.
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError):
            eigen_spectrum(np.array([[1.0, bad], [bad, 1.0]]))


@pytest.mark.parametrize("scale", [1e-300, 1e300])
def test_eigen_spectrum_checks_at_any_finite_scale(scale, monkeypatch):
    # The Frobenius norm of a 1e300-scale matrix overflows; the checks,
    # made on the matrix over its largest entry, still see a bad
    # decomposition.
    m = scale * np.array([[2.0, 1.0], [1.0, 2.0]])
    spec = eigen_spectrum(m)
    assert np.allclose(spec.eigenvalues, [3.0 * scale, scale], rtol=1e-14, atol=0)
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: (eigh(a)[0], np.eye(2)))
    with pytest.raises(RuntimeError):
        eigen_spectrum(m)


def test_eigen_spectrum_rejects_overflowing_eigenvalues():
    # Finite entries, but the eigenvalue 2e308 is not.
    with pytest.raises(ConfigError):
        eigen_spectrum(np.full((2, 2), 1e308))


def test_eigen_spectrum_reconstruction_contract():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(20, 20))
    m = (x + x.T) / 2
    spec = eigen_spectrum(m)
    assert np.all(np.diff(spec.eigenvalues) <= 1e-12)
    assert spec.trace == pytest.approx(float(np.trace(m)), rel=1e-10)


def test_eigen_spectrum_of_the_verify3d_gram_is_plain_eigh():
    # The real Gram of the 3D benchmark point, 121 modes: the spectrum is
    # eigh's, bit for bit, with the checks on transposed views.
    g = build_grid(THREE_D, HALF_CAL_3D, (8, 13, 52))
    gram = gram_of_modes(enumerate_modes(THREE_D, HALF_CAL_3D), g, HALF_CAL_3D)
    assert gram.dtype == np.float64 and gram.shape == (121, 121)
    spec = eigen_spectrum(gram)
    want = np.linalg.eigh(gram)[0][::-1]
    assert spec.eigenvalues.tobytes() == want.tobytes()
    assert spec.trace == float(np.sum(want))
    assert (spec.rank_threshold, spec.rank_energy) == effective_rank(want)


def test_effective_rank_examples():
    policy = RankPolicy(epsilon=1e-3, eta=0.99)
    assert effective_rank(np.array([1.0, 1e-6]), policy)[0] == 1
    rank_t, rank_e = effective_rank(np.full(7, 1.0), policy)
    assert rank_e == 7
    rank_t, rank_e = effective_rank(np.array([0.5, 0.3, 0.15, 0.05]),
                                    RankPolicy(epsilon=1e-3, eta=0.9))
    assert rank_e == 3
    with pytest.raises(ValueError):
        effective_rank(np.array([]), policy)
    with pytest.raises(ValueError):
        RankPolicy(epsilon=0.0)
    with pytest.raises(ValueError):
        RankPolicy(eta=1.0)


def test_effective_rank_never_exceeds_dimension():
    g = build_grid(TWO_D, NARROW_2D, (4, 8, 6))
    fields = [synthesize_field(TWO_D, NARROW_2D, 8, seed=j) for j in range(5)]
    spec = ensemble_spectrum(fields, g)
    assert spec.rank_threshold <= len(fields)
    assert spec.rank_energy <= len(fields)
    assert np.min(spec.eigenvalues) >= -1e-10 * spec.trace


def test_truncation_error_zero_wavenumber():
    wv = WaveVector.from_frequency(0.0, (0, 0, 1.0), 1.0)
    assert truncation_error(wv, 1.0, 0) <= 1e-14


# pinned by calibration runs (acceptance re-checks these at tolerance)
TRUNC_AT_DEGREE = {2.0: 0.024, 5.0: 0.011, 10.0: 0.0022}


def test_truncation_error_at_truncation_degree():
    c = 1.0
    for kR, pinned in TRUNC_AT_DEGREE.items():
        wv = WaveVector.from_frequency(kR / (2 * math.pi), (0.6, -0.64, 0.48), c)
        n = truncation_degree(1.0, kR)
        err = truncation_error(wv, 1.0, n)
        assert err <= pinned * 1.05, (kR, err)


def test_truncation_error_tail_factor():
    wv = WaveVector.from_frequency(5.0 / (2 * math.pi), (0, 0, 1.0), 1.0)
    e7 = truncation_error(wv, 1.0, 7)
    e12 = truncation_error(wv, 1.0, 12)
    assert e12 <= e7 / 100


def test_truncation_error_2d():
    wv = WaveVector.from_frequency(5.0 / (2 * math.pi), (1.0, 0.0), 1.0)
    n = truncation_degree(1.0, 5.0)
    assert truncation_error(wv, 1.0, n) <= 0.1
    assert truncation_error(wv, 1.0, n + 8) <= truncation_error(wv, 1.0, n) / 100


@pytest.mark.parametrize("dim, kR", [(TWO_D, 10.0), (TWO_D, 20.0), (TWO_D, 40.0),
                                     (THREE_D, 10.0), (THREE_D, 20.0)])
def test_truncation_error_matches_pointwise_oracle(dim, kR):
    # The benchmark's expand cases, against a dense quadrature on rules
    # that resolve the integrand: 4(N+5) azimuths in 2D, 2n+12 polar
    # nodes in 3D. Measured: at most 4e-17 absolute above the
    # quadrature's rounding floor, and 6e-15 at that floor (N = n + 20).
    rng = np.random.default_rng(int(kR))
    n = truncation_degree(1.0, kR)
    res = (24, 4 * (n + 5)) if dim is TWO_D else (24, 2 * n + 12)
    for _ in range(2):
        wv = WaveVector.from_frequency(kR / (2 * math.pi),
                                       rng.normal(size=2 if dim is TWO_D else 3), 1.0)
        for N in (n, n + 5, n + 20):
            want = pointwise_truncation_error(wv, 1.0, N, res)
            assert abs(truncation_error(wv, 1.0, N) - want) <= 1e-10 * want + 1e-14, N


@pytest.mark.parametrize("dim", [TWO_D, THREE_D])
def test_truncation_error_matches_lommel_tail_oracle(dim):
    direction = (1.0, 0.0) if dim is TWO_D else (0.0, 0.0, 1.0)
    for kR in (1e-3, 2.0, 10.0, 40.0):
        n = truncation_degree(1.0, kR)
        wv = WaveVector.from_frequency(kR / (2 * math.pi), direction, 1.0)
        for N in sorted({N for N in (0, n - 5, n, n + 5, n + 20) if N >= 0}):
            want = lommel_tail_reference(dim, kR, N)
            assert abs(truncation_error(wv, 1.0, N) - want) <= 1e-12 * want, (kR, N)


@pytest.mark.parametrize("dim", [TWO_D, THREE_D])
def test_truncation_error_is_direction_free(dim):
    rng = np.random.default_rng(3)
    n = truncation_degree(1.0, 20.0)
    waves = [WaveVector.from_frequency(20.0 / (2 * math.pi),
                                       rng.normal(size=2 if dim is TWO_D else 3), 1.0)
             for _ in range(5)]
    for N in (0, n, n + 5):
        assert len({truncation_error(wv, 1.0, N).hex() for wv in waves}) == 1, N


@pytest.mark.parametrize("f, N", [(1e7 / (2 * math.pi), 0), (1.0, 10**8)],
                         ids=["huge-kR", "huge-N"])
def test_truncation_error_cap(f, N):
    wv = WaveVector.from_frequency(f, (0.0, 0.0, 1.0), 1.0)
    tracemalloc.start()
    try:
        with pytest.raises(ModeCapError):
            truncation_error(wv, 1.0, N)
        assert tracemalloc.get_traced_memory()[1] < 1 << 16
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("radius, f, N, error", [
    (0.0, 1.0, 3, ConfigError), (-1.0, 1.0, 3, ConfigError),
    (math.inf, 1.0, 3, ConfigError), (math.nan, 1.0, 3, ConfigError),
    (1.0, math.inf, 3, ConfigError), (1e300, 1e10, 3, ConfigError),
    (1.0, 1.0, -1, ValueError)])
def test_truncation_error_rejects_bad_arguments(radius, f, N, error):
    wv = WaveVector.from_frequency(f, (0.0, 1.0), 1.0)
    with pytest.raises(error):
        truncation_error(wv, radius, N)


def test_ball_grid_measures():
    cfg = PhysicalConfig(R=2.0, W=0.0, T=1.0, f0=1.0)
    w = build_grid(THREE_D, cfg, (10, 10, 1)).axes["space_weights"]
    assert np.sum(w) == pytest.approx(4 * math.pi / 3 * 8.0, rel=1e-10)
    cfg = PhysicalConfig(R=0.5, W=0.0, T=1.0, f0=1.0)
    w = build_grid(TWO_D, cfg, (10, 12, 1)).axes["space_weights"]
    assert np.sum(w) == pytest.approx(math.pi * 0.25, rel=1e-10)


def test_rank_grid_independence():
    """Doubling every grid resolution moves reported ranks by at most 1."""
    fields = [synthesize_field(TWO_D, NARROW_2D, 48, seed=11 + 3 * j)
              for j in range(96)]
    base = build_grid(TWO_D, NARROW_2D, (8, 20, 22))
    fine = build_grid(TWO_D, NARROW_2D, (16, 40, 44))
    s1 = ensemble_spectrum(fields, base)
    s2 = ensemble_spectrum(fields, fine)
    assert abs(s1.rank_energy - s2.rank_energy) <= 1
    assert abs(s1.rank_threshold - s2.rank_threshold) <= 1
    modes = enumerate_modes(TWO_D, CAL_2D)
    g1 = build_grid(TWO_D, CAL_2D, (8, 24, 52))
    g2 = build_grid(TWO_D, CAL_2D, (16, 48, 104))
    policy = RankPolicy(epsilon=1e-6)
    r1 = eigen_spectrum(diagonal_normalize(gram_of_modes(modes, g1, CAL_2D)), policy)
    r2 = eigen_spectrum(diagonal_normalize(gram_of_modes(modes, g2, CAL_2D)), policy)
    assert abs(r1.rank_threshold - r2.rank_threshold) <= 1
    assert abs(r1.rank_energy - r2.rank_energy) <= 1
