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
                     enumerate_modes, gram_of_modes, gram_readout,
                     synthesize_field, truncation_degree, truncation_error)
from wavedof import cli, rankcheck
from wavedof import modes as modes_module
from wavedof.bounds import DEFAULT_MODE_CAP, ConfigError, ModeCapError, bin_degrees
from wavedof.modes import (ModeIndex, PlaneWaveSet, field_values, mode_matrix,
                           project_field, weighted_gram)
from wavedof.specfun import cos_sin

from oracles import (ENSEMBLE_ROUTES, band_time_basis, charpoly_eigenvalues,
                     complex_band_time_basis, dense_gram, each_ensemble_route,
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


def _warped(grid, key, warp):
    return dict(grid.axes, **{key: warp(grid.axes[key])})


@pytest.mark.parametrize("dim, key, warp, message", [
    (TWO_D, "t_nodes", lambda t: t ** 1.3, "the grid needs a time axis symmetric"),
    (TWO_D, "t_weights", lambda w: w * np.linspace(1.0, 1.1, len(w)),
     "the grid needs a time axis symmetric"),
    (TWO_D, "space_weights", lambda w: np.concatenate([w, w]),
     r"grid space_weights have shape \(384,\), not \(192,\)"),
    (TWO_D, "r_weights", lambda w: w[:-1],
     r"grid r_weights have shape \(7,\), not \(8,\)"),
    (TWO_D, "directions", lambda d: d[:-1],
     r"grid directions have shape \(23, 2\), not \(24, 2\)"),
    (THREE_D, "mu_nodes", lambda mu: mu[1:],
     r"grid mu_weights have shape \(4,\), not \(3,\)"),
    (THREE_D, "directions", lambda d: d[:, :2],
     r"grid directions have shape \(32, 2\), not \(32, 3\)"),
], ids=["t-nodes-warped", "t-weights-warped", "space-weights-doubled",
        "r-weights-short", "directions-short", "mu-nodes-short", "directions-2d-in-3d"])
def test_grid_contract_refuses_a_broken_layout(dim, key, warp, message):
    # CAL_2D's (8, 24, 52) grid, or a small 3D one (4 mu x 8 phi nodes).
    resolution = (8, 24, 52) if dim is TWO_D else (2, 4, 6)
    with pytest.raises(ConfigError, match=f"^{message}"):
        SpaceTimeGrid(_warped(build_grid(dim, CAL_2D, resolution), key, warp))


def test_grid_contract_refuses_before_any_reader_runs(monkeypatch):
    # The t_nodes**1.3 grid once gave a real Gram 7.3% off dense_gram at
    # CAL_2D; no reader of its axes now sees it.
    g = build_grid(TWO_D, CAL_2D, (8, 24, 52))
    axes = _warped(g, "t_nodes", lambda t: t ** 1.3)
    modes = enumerate_modes(TWO_D, CAL_2D)
    fields = [synthesize_field(TWO_D, CAL_2D, 4, seed=j) for j in range(2)]

    def unreached(*args, **kwargs):
        raise AssertionError("a reader ran on a grid that breaks the contract")

    monkeypatch.setattr(rankcheck, "weighted_gram", unreached)
    monkeypatch.setattr(rankcheck, "_weighted_field_blocks", unreached)
    monkeypatch.setattr(rankcheck, "_pair_dual", unreached)
    monkeypatch.setattr(modes_module, "weighted_gram", unreached)
    for call in (lambda: gram_of_modes(modes, SpaceTimeGrid(axes), CAL_2D),
                 lambda: project_field(np.zeros(len(g)), modes, SpaceTimeGrid(axes),
                                       CAL_2D),
                 lambda: ensemble_spectrum(fields, SpaceTimeGrid(axes))):
        with pytest.raises(ConfigError, match="time axis symmetric"):
            call()


def test_grid_contract_holds_for_build_grid_at_any_scale():
    # build_grid raises if its grid breaks the contract: 12 windows from
    # 1e-300 to 1e300 s, 12 time-node counts from 1 to 400.
    counts = (1, 2, 3, 4, 5, 21, 52, 99, 128, 255, 333, 400)
    for T in np.logspace(-300, 300, 12):
        cfg = PhysicalConfig(R=1.0, W=0.0, T=float(T), f0=1.0, c=1.0)
        for n_t in counts:
            build_grid(THREE_D if n_t % 2 else TWO_D, cfg, (1, 2, n_t))


def test_build_grid_keeps_the_real_gram_at_any_scale():
    # Bins 0 and 1 differ by one whole cycle over T; build_grid centres
    # its time axis on T/2 to within eps T for these 12 windows from
    # 1e-300 to 1e300 s and 12 node counts, so their Gram stays real.
    modes = [ModeIndex(0, 0, 0, TWO_D), ModeIndex(1, 0, 1, TWO_D)]
    for T in np.logspace(-300, 300, 12):
        cfg = PhysicalConfig(R=1.0, W=0.0, T=float(T), f0=1.0 / T, c=1.0 / T)
        for n_t in (1, 2, 3, 4, 5, 21, 52, 99, 128, 255, 333, 400):
            gram = weighted_gram(modes, build_grid(TWO_D, cfg, (1, 3, n_t)), cfg)[1]
            assert gram.dtype == np.float64, (T, n_t)


def test_gram_on_a_time_axis_not_centred_on_half_the_window():
    """The build_grid time axis times 0.7 is symmetric about 0.35 T, so it
    keeps the grid contract, but a time Gram about that centre is not
    real even for lattice bins: the Gram takes the complex path and
    matches dense_gram, where the real one was 24.6% of its largest
    entry off."""
    g = build_grid(TWO_D, CAL_2D, (8, 24, 52))
    grid = SpaceTimeGrid(dict(g.axes, t_nodes=0.7 * g.axes["t_nodes"],
                              t_weights=0.7 * g.axes["t_weights"]))
    modes = enumerate_modes(TWO_D, CAL_2D)
    dense = dense_gram(modes, grid, CAL_2D)
    gram = gram_of_modes(modes, grid, CAL_2D)
    assert gram.dtype == np.complex128
    assert np.max(np.abs(gram.imag)) > 1e-3 * np.max(np.abs(gram))
    assert np.max(np.abs(gram - dense)) <= 1e-13 * np.max(np.abs(dense))
    _assert_spectrum_matches_dense(gram, dense)


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
    got = rankcheck._blocked_dual(rankcheck._wave_stack(fields, g), g)
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
    got = rankcheck._blocked_dual(rankcheck._wave_stack(fields, g), g)
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
    got = rankcheck._blocked_dual(rankcheck._wave_stack(fields, g), g)
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
    q = band_time_basis(fields, g)
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
    q = band_time_basis(fields, g)
    centre = rankcheck._band_time_halves(rankcheck._wave_stack(fields, g), g)[0]
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
    # complex-SVD basis through the real lift, as first written. Only the
    # blocked route reads the time basis, so it is called directly: the
    # verify3d ensemble would take the pair route.
    g = build_grid(dim, cfg, resolution)
    ens = [synthesize_field(dim, cfg, waves, seed=1 + 1000 * j) for j in range(fields)]
    got = _route_spectrum("blocked", ens, g)
    # The oracle's (fields, waves, 2L) (re, im) pairs, as the library's
    # (fields, 2L, waves) rows: real parts, then imaginary parts.
    lifted = lift_time_coordinates(ens, g)
    lifted = np.concatenate([lifted[..., 0::2], lifted[..., 1::2]], axis=-1)
    monkeypatch.setattr(rankcheck, "_band_time_coordinates",
                        lambda stack, grid: lifted.transpose(0, 2, 1))
    want = _route_spectrum("blocked", ens, g)
    assert got.eigenvalues.shape == want.eigenvalues.shape
    assert np.max(np.abs(got.eigenvalues - want.eigenvalues)) <= 1e-15 * want.trace
    assert (got.rank_threshold, got.rank_energy) == (want.rank_threshold,
                                                     want.rank_energy)
    assert round(got.trace, 12) == round(want.trace, 12)
    assert (band_time_basis(ens, g).shape
            == complex_band_time_basis(ens, g).shape)


def test_ensemble_rejects_an_asymmetric_time_axis(monkeypatch):
    # Both routes need the symmetric axis of build_grid; a hand-made grid
    # without it fails instead of giving a wrong spectrum.
    g = build_grid(TWO_D, NARROW_2D, (4, 8, 21))
    fields = [synthesize_field(TWO_D, NARROW_2D, 8, seed=j) for j in range(3)]
    for _ in each_ensemble_route(monkeypatch):
        for key, warp in (("t_nodes", lambda t: t ** 1.3),
                          ("t_weights", lambda w: w * np.linspace(1.0, 1.1, len(w)))):
            axes = dict(g.axes, **{key: warp(g.axes[key])})
            with pytest.raises(ValueError, match="time axis symmetric"):
                ensemble_spectrum(fields, SpaceTimeGrid(axes))


def test_ensemble_rejects_a_subnormal_covariance(monkeypatch):
    # At T = 1e-320 the grid keeps its symmetric time axis, but the dual
    # falls to subnormal entries of two or three digits, on either route.
    cfg = dataclasses.replace(NARROW_2D, T=1e-320)
    g = build_grid(TWO_D, cfg, (8, 24, 21))
    fields = [synthesize_field(TWO_D, cfg, 3, seed=j) for j in range(2)]
    for _ in each_ensemble_route(monkeypatch):
        with pytest.raises(ConfigError, match="covariance falls below the normal"):
            ensemble_spectrum(fields, g)


def test_ensemble_rejects_non_finite_time_phases(monkeypatch):
    # 2 pi f t overflows at f = T = 1e300: a clean error, not a failed SVD,
    # on either route. One frequency leaves the basis's phases at 0, so the
    # wave's phase at the window's centre overflows; with a second
    # frequency at 0 the basis's sampled phases overflow first (the pair
    # route has no basis, and its phase at the centre overflows).
    cfg = PhysicalConfig(R=1.0, W=0.0, T=1e300, f0=1e300, c=1.0)
    g = build_grid(TWO_D, cfg, (2, 4, 3))
    pws = PlaneWaveSet(directions=np.array([[1.0, 0.0]]),
                       frequencies=np.array([1e300]),
                       amplitudes=np.array([1.0 + 0.0j]), c=1.0)
    pair = PlaneWaveSet(directions=np.array([[1.0, 0.0], [0.0, 1.0]]),
                        frequencies=np.array([0.0, 1e300]),
                        amplitudes=np.array([1.0 + 0.0j, 1.0 + 0.0j]), c=1.0)
    for _ in each_ensemble_route(monkeypatch):
        for fields in ([pws], [pair]):
            with pytest.raises(ConfigError, match="^time phases of the ensemble"):
                ensemble_spectrum(fields, g)


@pytest.mark.parametrize("dim, cfg, resolution, fields, waves, bound", [
    # Measured 3.88 MiB (the ensemble before the time basis: 5.82 MiB).
    (TWO_D, NARROW_2D, (8, 24, 21), 128, 64, 4.5),
    # Measured 1.16 MiB on the pair route (the blocked route: 2.64 MiB,
    # and 4.46 MiB before the time basis).
    (THREE_D, HALF_CAL_3D, (8, 13, 52), 4, 16, 3.25),
    # The largest pair-route shape, F W = 256, on a grid without
    # antipodes: measured 2.64 MiB.
    (TWO_D, NARROW_2D, (8, 25, 21), 128, 2, 3.25),
], ids=["verify2d", "verify3d", "pair-route-largest"])
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


def _route_spectrum(route, fields, grid):
    """ensemble_spectrum's readout of one private route's dual."""
    stack = rankcheck._wave_stack(fields, grid)
    dual = getattr(rankcheck, ENSEMBLE_ROUTES[route])(stack, grid) / len(fields)
    return eigen_spectrum(rankcheck._mirror_upper(dual))


SINGLE_FREQUENCY = PhysicalConfig(R=0.1, W=0.0, T=0.3, f0=10.0, c=1.0)
# Folded 3D and even-azimuth 2D grids, an odd azimuth count (no
# antipodes), and a single frequency (W = 0); fields of unequal wave
# counts exercise the padding.
PAIR_GRIDS = pytest.mark.parametrize("dim, cfg, resolution", [
    (THREE_D, HALF_CAL_3D, (3, 4, 5)),
    (TWO_D, NARROW_2D, (3, 8, 5)),
    (TWO_D, NARROW_2D, (3, 9, 5)),
    (TWO_D, SINGLE_FREQUENCY, (3, 9, 5)),
], ids=["3d", "2d-even", "2d-odd", "2d-single-frequency"])


@PAIR_GRIDS
@pytest.mark.parametrize("waves, pair", [((4, 3, 4), True), ((128, 100), False)],
                         ids=["pair-side", "blocked-side"])
def test_ensemble_routes_match_dense_covariance(dim, cfg, resolution, waves, pair):
    # On these grids of 12 to 48 kept spatial nodes and 5 time nodes the
    # blocked route's fixed cost dominates: 3 fields of up to 4 waves
    # take the pair route, and 2 fields of up to 128 waves (F W = 256,
    # the pair route's cap) the blocked one: one shape on each side.
    g = build_grid(dim, cfg, resolution)
    fields = [synthesize_field(dim, cfg, w, seed=60 + j) for j, w in enumerate(waves)]
    assert rankcheck._pair_route_is_cheaper(rankcheck._wave_stack(fields, g), g) is pair
    direct = eigen_spectrum(ensemble_covariance(fields, g))
    dual = ensemble_spectrum(fields, g)
    k = len(fields)
    assert (np.max(np.abs(direct.eigenvalues[:k] - dual.eigenvalues))
            <= 1e-12 * direct.trace)
    assert direct.trace == pytest.approx(dual.trace, rel=1e-12)
    assert (direct.rank_threshold, direct.rank_energy) == \
        (dual.rank_threshold, dual.rank_energy)


@PAIR_GRIDS
def test_ensemble_of_mixed_speeds_and_wave_counts(dim, cfg, resolution, monkeypatch):
    # The stack keeps each field's own wave speed and pads its waves to the
    # longest field; either route matches the dense covariance.
    g = build_grid(dim, cfg, resolution)
    speeds, waves = (1.0, 0.5, 2.0, 1.25), (5, 2, 7, 1)
    fields = [synthesize_field(dim, dataclasses.replace(cfg, c=c), w, seed=80 + j)
              for j, (c, w) in enumerate(zip(speeds, waves))]
    stack = rankcheck._wave_stack(fields, g)
    assert stack.c.tolist() == list(speeds) and stack.counts.tolist() == list(waves)
    assert stack.amplitudes.shape == (len(fields), max(waves))
    direct = eigen_spectrum(ensemble_covariance(fields, g))
    for _ in each_ensemble_route(monkeypatch):
        dual = ensemble_spectrum(fields, g)
        assert (np.max(np.abs(direct.eigenvalues[:len(fields)] - dual.eigenvalues))
                <= 1e-13 * direct.trace)
        assert (direct.rank_threshold, direct.rank_energy) == \
            (dual.rank_threshold, dual.rank_energy)


@pytest.mark.parametrize("dim, cfg, resolution, waves", [
    (THREE_D, HALF_CAL_3D, (8, 13, 52), (16, 16, 16, 16)),
    (THREE_D, HALF_CAL_3D, (5, 9, 20), (16, 13, 16, 9)),
    (TWO_D, NARROW_2D, (8, 24, 21), (8, 5, 8, 8)),
    (TWO_D, NARROW_2D, (8, 25, 21), (8, 5, 8, 8)),
    (TWO_D, SINGLE_FREQUENCY, (8, 25, 21), (8, 8, 3)),
], ids=["verify3d", "3d-padded", "2d-even", "2d-odd", "2d-single-frequency"])
def test_pair_route_matches_blocked_route(dim, cfg, resolution, waves):
    g = build_grid(dim, cfg, resolution)
    for seed in (1, 2, 3):
        fields = [synthesize_field(dim, cfg, w, seed=seed + 1000 * j)
                  for j, w in enumerate(waves)]
        pair = _route_spectrum("pair", fields, g)
        blocked = _route_spectrum("blocked", fields, g)
        assert (np.max(np.abs(pair.eigenvalues - blocked.eigenvalues))
                <= 1e-15 * blocked.trace)
        assert (pair.rank_threshold, pair.rank_energy) == \
            (blocked.rank_threshold, blocked.rank_energy)


@pytest.mark.parametrize("dim, cfg, resolution, fields, waves, pair", [
    (TWO_D, NARROW_2D, (8, 24, 21), 128, 64, False),
    (THREE_D, HALF_CAL_3D, (8, 13, 52), 4, 16, True),
    # F W = 256, the most the pair route takes.
    (THREE_D, HALF_CAL_3D, (8, 13, 52), 128, 2, True),
    (THREE_D, HALF_CAL_3D, (8, 13, 52), 16, 16, False),
    # F W = 512: kernels past half of _BLOCK_ENTRIES.
    (THREE_D, HALF_CAL_3D, (8, 13, 52), 128, 4, False),
    # The measured sweep: the pair route was the faster on each of these,
    # the blocked route on the last two of each dimension.
    (TWO_D, NARROW_2D, (8, 24, 21), 1, 64, True),
    (TWO_D, NARROW_2D, (8, 24, 21), 16, 8, True),
    (TWO_D, NARROW_2D, (8, 24, 21), 4, 16, True),
    (TWO_D, NARROW_2D, (8, 24, 21), 128, 2, True),
    (TWO_D, NARROW_2D, (8, 24, 21), 32, 8, False),
    (TWO_D, NARROW_2D, (8, 24, 21), 4, 64, False),
    (THREE_D, HALF_CAL_3D, (8, 13, 52), 1, 64, True),
    (THREE_D, HALF_CAL_3D, (8, 13, 52), 16, 8, True),
    (THREE_D, HALF_CAL_3D, (8, 13, 52), 4, 32, False),
    (THREE_D, HALF_CAL_3D, (8, 13, 52), 128, 64, False),
], ids=["verify2d", "verify3d", "3d-128x2", "3d-16x16", "3d-128x4",
        "2d-1x64", "2d-16x8", "2d-4x16", "2d-128x2", "2d-32x8", "2d-4x64",
        "3d-1x64", "3d-16x8", "3d-4x32", "3d-128x64"])
def test_ensemble_route_selection(dim, cfg, resolution, fields, waves, pair):
    g = build_grid(dim, cfg, resolution)
    ens = [synthesize_field(dim, cfg, waves, seed=1 + j) for j in range(fields)]
    assert rankcheck._pair_route_is_cheaper(rankcheck._wave_stack(ens, g), g) is pair


@pytest.mark.parametrize("resolution", [(3, 8, 5), (3, 9, 5)], ids=["even", "odd"])
@pytest.mark.parametrize("fields, waves", [(1, 64), (16, 8), (4, 16)],
                         ids=["1x64", "16x8", "4x16"])
def test_rerouted_shapes_match_dense_covariance(resolution, fields, waves):
    # The shapes the fixed cost moved to the pair route, at NARROW on grids
    # small enough for the (points x points) covariance.
    g = build_grid(TWO_D, NARROW_2D, resolution)
    ens = [synthesize_field(TWO_D, NARROW_2D, waves, seed=70 + j) for j in range(fields)]
    assert rankcheck._pair_route_is_cheaper(rankcheck._wave_stack(ens, g), g)
    direct = eigen_spectrum(ensemble_covariance(ens, g))
    dual = ensemble_spectrum(ens, g)
    assert (np.max(np.abs(direct.eigenvalues[:fields] - dual.eigenvalues))
            <= 1e-12 * direct.trace)
    assert direct.trace == pytest.approx(dual.trace, rel=1e-12)
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
    # Non-finite entries are refused before the Hermitian defect test.
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


def test_eigen_spectrum_at_a_subnormal_scale():
    # A complex divide by the subnormal peak would overflow to inf and NaN,
    # which both checks must fail: the non-Hermitian complex matrix is
    # refused as its real twin is (eigh reads one triangle only).
    for dtype in (float, complex):
        m = np.array([[1e-320, 1e-320], [0.0, 1e-320]], dtype=dtype)
        with pytest.raises(RuntimeError, match="failed to reconstruct"):
            eigen_spectrum(m)
    # A Hermitian one gives its spectrum (warnings are errors here).
    spec = eigen_spectrum(np.array([[1e-320, 4e-321j], [-4e-321j, 1e-320]]))
    assert spec.eigenvalues.tolist() == [1.4e-320, 6e-321]


@pytest.mark.parametrize("matrix, spectrum", [
    (np.array([[1, 2j], [-2j, 1]], dtype=np.complex64), [3.0, -1.0]),
    (np.array([[2, 1], [1, 2]], dtype=np.float32), [3.0, 1.0]),
], ids=["complex64", "float32"])
def test_eigen_spectrum_of_single_precision(matrix, spectrum):
    # eigh runs in double precision, so the 1e-8 reconstruction check
    # holds and the spectrum is that of the float64 matrix.
    spec = eigen_spectrum(matrix)
    want = eigen_spectrum(matrix.astype(complex if matrix.dtype.kind == "c" else float))
    assert spec.eigenvalues.dtype == np.float64
    assert spec.eigenvalues.tobytes() == want.eigenvalues.tobytes()
    assert np.allclose(spec.eigenvalues, spectrum, rtol=0, atol=1e-15)
    assert (spec.trace, spec.rank_threshold, spec.rank_energy) == (
        want.trace, want.rank_threshold, want.rank_energy)


def test_eigen_spectrum_fails_a_nan_reconstruction(monkeypatch):
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a: (eigh(a)[0], np.full((2, 2), math.nan)))
    with pytest.raises(RuntimeError, match="failed to reconstruct"):
        eigen_spectrum(np.eye(2))


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
    assert 0.0 < spec.residual <= 1e-13


def test_checked_eigh_of_a_stack():
    # One call over a stack: each matrix's eigenvalues as eigh gives them
    # alone, the largest residual, and a check that fails on any matrix.
    rng = np.random.default_rng(8)
    x = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    stack = rankcheck._mirror_upper(x)
    assert np.array_equal(stack, stack.conj().swapaxes(1, 2))
    evals, residual = rankcheck._checked_eigh(stack)
    for lam, m in zip(evals, stack):
        assert np.allclose(lam, np.linalg.eigh(m)[0], rtol=0, atol=1e-14)
        assert residual >= eigen_spectrum(m).residual
    assert 0.0 < residual <= 1e-13
    stack[1, 0, 3] += 1.0
    with pytest.raises(ValueError, match="^matrix is not Hermitian within 1e-10$"):
        rankcheck._checked_eigh(stack)


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


# The band F0 +- W reaches 0 Hz: the lowest bin has k = 0.
K_ZERO = PhysicalConfig(R=0.2, W=2.0, T=1.0, f0=2.0, c=1.0)


def _by_channel(modes):
    """The modes grouped by angular channel, (n, m) in 3D and m in 2D,
    each channel's bins in order."""
    return sorted(modes, key=lambda md: (md.n, md.m, md.i))


#: the enumerated modes in their own order, and grouped by channel
MODE_ORDERS = pytest.mark.parametrize("order", [list, _by_channel],
                                      ids=["default", "channels"])


@pytest.mark.parametrize("dim, cfg, resolution, two_sided", [
    (THREE_D, HALF_CAL_3D, (8, 13, 52), False),
    (THREE_D, CAL_3D, (12, 23, 52), False),
    (TWO_D, NARROW_2D, (8, 24, 21), False),
    (TWO_D, NARROW_2D, (8, 24, 21), True),
    (TWO_D, CAL_2D, (8, 24, 52), True),
    (TWO_D, STAND_IN, (8, 31, 20), True),
    (TWO_D, K_ZERO, (16, 20, 30), False),
    (THREE_D, K_ZERO, (16, 20, 30), False),
], ids=["verify3d", "cal3d", "narrow", "narrow-two-sided", "cal2d-two-sided",
        "stand-in", "k-zero-2d", "k-zero-3d"])
@MODE_ORDERS
def test_gram_spectrum_matches_dense_spectrum(dim, cfg, resolution, two_sided, order):
    # verify's gram block as written: eigenvalues and trace to 12 digits,
    # and the ranks, from the closed form and from the dense normalized
    # Gram's eigendecomposition.
    g = build_grid(dim, cfg, resolution)
    modes = order(enumerate_modes(dim, cfg, two_sided=two_sided))
    want = eigen_spectrum(diagonal_normalize(gram_of_modes(modes, g, cfg)))
    got, defect = gram_readout(modes, g, cfg)
    assert cli._spectrum_doc(got) == cli._spectrum_doc(want)
    assert got.trace == len(modes) and 0.0 <= defect < 1e-3


@MODE_ORDERS
@pytest.mark.parametrize("dim, cfg, resolution, hand_set, error, message", [
    (TWO_D, CAL_2D, (8, 24, 52), [], ValueError, "modes must be nonempty"),
    (TWO_D, CAL_2D, (8, 24, 20), None, ResolutionError, "grid resolution"),
    (TWO_D, CAL_2D, (8, 10, 52), None, ResolutionError, "grid resolution"),
    (TWO_D, PhysicalConfig(R=1e154, W=0.0, T=1.0, f0=10.0, c=1e159), (4, 8, 60), None,
     ConfigError, "Gram entries leave the float range"),
    (TWO_D, PhysicalConfig(R=1e-153, W=0.0, T=1.0, f0=10.0, c=1e-148), (4, 8, 60), None,
     ConfigError, "Gram diagonal cannot be normalized"),
    (THREE_D, PhysicalConfig(R=1e-150, W=0.0, T=1.0, f0=10.0, c=1e-145), (4, 8, 60), None,
     ConfigError, "Gram diagonal cannot be normalized"),
], ids=["empty", "few-times", "few-angles", "overflow", "underflow-2d", "underflow-3d"])
def test_gram_spectrum_fails_as_the_dense_path(dim, cfg, resolution, hand_set, error,
                                               message, order):
    g = build_grid(dim, cfg, resolution)
    modes = order(enumerate_modes(dim, cfg) if hand_set is None else hand_set)
    with pytest.raises(error, match=f"^{message}") as dense:
        eigen_spectrum(diagonal_normalize(gram_of_modes(modes, g, cfg)))
    with pytest.raises(error) as readout:
        gram_readout(modes, g, cfg)
    assert str(readout.value) == str(dense.value)


@pytest.mark.parametrize("dim, cfg, resolution, defect", [
    (TWO_D, NARROW_2D, (8, 24, 21), 5.3e-7),
    (THREE_D, HALF_CAL_3D, (8, 13, 52), 1.8e-9),
    (TWO_D, CAL_2D, (8, 24, 52), 1.2e-4),
    (THREE_D, CAL_3D, (12, 23, 52), 7.8e-11),
], ids=["narrow", "verify3d", "cal2d", "cal3d"])
def test_gram_diagonal_defect_falls_with_radial_nodes(dim, cfg, resolution, defect):
    # The radial rule's error on the Gram diagonal, the one quadrature
    # error that is not rounding: as measured at verify's resolution, and
    # at rounding by 16 radial nodes.
    modes = enumerate_modes(dim, cfg)
    got = [gram_readout(modes, build_grid(dim, cfg, (n_r, *resolution[1:])), cfg)[1]
           for n_r in (resolution[0], 16)]
    assert defect / 2 <= got[0] <= 2 * defect
    assert got[1] <= 1e-14


def test_gram_spectrum_memory_at_365_modes():
    # The dense path holds several 365 x 365 matrices (5.1 MiB traced);
    # the readout holds the distinct factor columns and two diagonals
    # (0.12 MiB).
    g = build_grid(THREE_D, CAL_3D, (12, 23, 52))
    modes = enumerate_modes(THREE_D, CAL_3D)
    dense = _traced_peak(lambda: eigen_spectrum(diagonal_normalize(
        gram_of_modes(modes, g, CAL_3D))))
    readout = _traced_peak(gram_readout, modes, g, CAL_3D)
    assert readout < dense / 2 and readout < 0.5 * (1 << 20)


def test_gram_readout_past_the_dense_cap(monkeypatch):
    # 3,249 modes in one stand-in bin: a dense Gram would hold
    # M^2 = 1.06e7 entries, past the cap, while the readout holds the
    # distinct factor columns and takes no eigendecomposition.
    def unreached(*args):
        raise AssertionError("the Gram readout takes no eigh")

    monkeypatch.setattr(np.linalg, "eigh", unreached)
    cfg = PhysicalConfig(R=1.0 / E_PI, W=0.0, T=0.1, f0=56.0, c=1.0)
    modes = enumerate_modes(THREE_D, cfg)
    assert len(modes) == 3249 and len(modes) ** 2 > DEFAULT_MODE_CAP
    g = build_grid(THREE_D, cfg, (12, 113, 31))
    out = []
    peak = _traced_peak(lambda: out.append(gram_readout(modes, g, cfg)))
    spec, defect = out[0]
    assert spec.rank_threshold == len(modes) == spec.trace
    assert (spec.rank_threshold, spec.rank_energy) == effective_rank(np.ones(len(modes)))
    # 12 radial nodes do not resolve j_n(k r)^2 up to kR = 41 (0.57).
    assert 0.1 < defect < 1.0
    assert peak < 16 * (1 << 20)


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
