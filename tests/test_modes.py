"""Mode enumeration, evaluation, plane waves, synthesis and projection."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from wavedof import (ConfigError, Dimension, ModeCapError, PhysicalConfig,
                     WaveVector, build_grid, draw_ensemble, enumerate_modes,
                     evaluate_mode,
                     exact_mode_sum, gram_of_modes, jacobi_anger_partial,
                     mode_wavenumber, plane_wave, project_field, synthesize_field,
                     truncation_degree)
from wavedof.modes import (ModeIndex, PlaneWaveSet, ProjectionRankError,
                           _distinct_rows, _distinct_values, _factor_columns,
                           field_values, jacobi_anger_values, mode_factors,
                           mode_matrix, weighted_gram)
from wavedof.specfun import bessel_table, cos_sin

from oracles import (dense_gram, dense_projection, distinct_rows_reference,
                     jacobi_anger_scalar, per_mode_factors, scalar_mode_value,
                     synthesize_field_reference)

E_PI = math.e * math.pi
TWO_D, THREE_D = Dimension.TWO_D, Dimension.THREE_D

CAL_3D = PhysicalConfig(R=1.0 / E_PI, W=1.0, T=1.0, f0=10.0, c=1.0)
HALF_CAL_3D = PhysicalConfig(R=0.5 / E_PI, W=1.0, T=1.0, f0=10.0, c=1.0)
CAL_2D = CAL_3D
GRID_2D = build_grid(TWO_D, CAL_2D, (8, 24, 52))
# No i/T in [F0 - W, F0 + W]: one stand-in bin, i = 2, at F0 = 10.5 Hz.
STAND_IN = PhysicalConfig(R=1.0 / E_PI, W=0.001, T=0.2, f0=10.5, c=1.0)

#: (dim, cfg, modes, resolution) of the factored-path tests: a hand-built
#: set last, mixing the stand-in bin 2 with bin 3, whose bins and orders
#: m repeat out of order
FACTORED_SETS = [
    (TWO_D, CAL_2D, enumerate_modes(TWO_D, CAL_2D), (8, 24, 52)),
    (TWO_D, CAL_2D, enumerate_modes(TWO_D, CAL_2D, two_sided=True), (8, 24, 52)),
    (THREE_D, HALF_CAL_3D, enumerate_modes(THREE_D, HALF_CAL_3D), (5, 8, 20)),
    (TWO_D, STAND_IN, enumerate_modes(TWO_D, STAND_IN, two_sided=True), (8, 31, 20)),
    (TWO_D, STAND_IN, [ModeIndex(i, 0, m, TWO_D) for i, m in
                       [(3, 2), (2, -1), (3, -3), (2, 2), (3, 0), (2, 0), (2, 3),
                        (3, 1), (2, 1), (3, -2)]], (8, 31, 20)),
]
FACTORED_IDS = ["2d-one-sided", "2d-two-sided", "3d-121-modes", "stand-in-bin",
                "mixed-bins"]


def test_enumerate_counts_match_exact_sums():
    assert len(enumerate_modes(THREE_D, CAL_3D)) == 365
    assert len(enumerate_modes(TWO_D, CAL_2D)) == 33
    rng = np.random.default_rng(8)
    configs = [PhysicalConfig(R=rng.uniform(0, 2) / E_PI, W=rng.uniform(0, 3),
                              T=rng.uniform(0.1, 2.5), f0=rng.uniform(3, 15), c=1.0)
               for _ in range(25)]
    # no integer in (F0 - W) T .. (F0 + W) T: one stand-in bin at F0
    configs.append(PhysicalConfig(R=1.0 / E_PI, W=0.001, T=0.2, f0=10.5, c=1.0))
    for cfg in configs:
        for dim in (TWO_D, THREE_D):
            assert len(enumerate_modes(dim, cfg)) == exact_mode_sum(dim, cfg)
        two = enumerate_modes(TWO_D, cfg, two_sided=True)
        assert len(two) == exact_mode_sum(TWO_D, cfg, two_sided=True)
    assert len(enumerate_modes(THREE_D, configs[-1])) == 12 ** 2


def test_enumerate_point_region():
    cfg = PhysicalConfig(R=0.0, W=2.0, T=1.0, f0=10.0, c=1.0)
    modes = enumerate_modes(THREE_D, cfg)
    assert len(modes) == 5  # one (0, 0) mode per bin
    assert all(md.n == 0 and md.m == 0 for md in modes)


def test_enumerate_ordering_and_invariants():
    modes = enumerate_modes(THREE_D, CAL_3D)
    assert modes == sorted(modes, key=lambda md: (md.i, md.n, md.m))
    for md in modes:
        f, k = mode_wavenumber(md.i, CAL_3D)
        assert abs(md.m) <= md.n <= truncation_degree(CAL_3D.R, k)


def test_enumerate_two_sided_2d():
    one = enumerate_modes(TWO_D, CAL_2D)
    two = enumerate_modes(TWO_D, CAL_2D, two_sided=True)
    assert len(one) == 33
    assert len(two) == 2 * 33 - 3  # 2N+1 per bin over bins with N = 9, 10, 11
    assert exact_mode_sum(TWO_D, CAL_2D, two_sided=True) == len(two)


def test_enumerate_cap():
    # One bin of degree 3169: 3170^2 = 10,048,900 modes, just past the cap
    # (F0 = 370 gives 9,991,921).
    cfg = PhysicalConfig(R=1.0, W=0.0, T=1.0, f0=371.0, c=1.0)
    with pytest.raises(ModeCapError) as exc:
        enumerate_modes(THREE_D, cfg)
    assert str(exc.value) == "10048900 modes exceed the cap of 10000000"


def test_enumerate_cap_cannot_be_raised():
    # 291,760,561 modes: enumerate_modes takes no cap, so the count is
    # refused at DEFAULT_MODE_CAP before any index is listed.
    cfg = PhysicalConfig(R=100.0, W=0.0, T=1.0, f0=20.0, c=1.0)
    tracemalloc.start()
    try:
        with pytest.raises(ModeCapError) as exc:
            enumerate_modes(THREE_D, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "291760561 modes exceed the cap of 10000000"
    assert peak < 1 << 20


@pytest.mark.parametrize("mode_dim, grid_dim", [(THREE_D, TWO_D), (TWO_D, THREE_D)],
                         ids=["3d-modes-2d-grid", "2d-modes-3d-grid"])
def test_modes_and_grid_must_share_dimension(mode_dim, grid_dim):
    # Both grids pass check_gram_resolution for either mode set, so only the
    # dimension check stands between them and a meaningless Gram.
    cfg = PhysicalConfig(R=0.5 / E_PI, W=1.0, T=1.0, f0=2.0, c=1.0)
    modes = enumerate_modes(mode_dim, cfg, two_sided=mode_dim is TWO_D)
    grid = build_grid(grid_dim, cfg, (8, 24, 20) if grid_dim is TWO_D else (4, 8, 20))
    samples = np.zeros(len(grid), dtype=complex)
    for run in (lambda: gram_of_modes(modes, grid, cfg),
                lambda: project_field(samples, modes, grid, cfg),
                lambda: mode_matrix(modes, grid, cfg)):
        with pytest.raises(ValueError, match="^modes and grid differ in dimension$"):
            run()


def test_mode_wavenumber():
    f, k = mode_wavenumber(10, PhysicalConfig(R=1, W=1, T=1.0, f0=10, c=1.0))
    assert f == 10.0 and k == pytest.approx(2 * math.pi * 10, rel=1e-14)
    f, k = mode_wavenumber(0, CAL_3D)
    assert f == 0.0 and k == 0.0
    f, k = mode_wavenumber(2400, PhysicalConfig(R=1, W=1e9, T=1e-6, f0=2.4e9))
    assert f == pytest.approx(2.4e9, rel=1e-14)
    assert k == pytest.approx(50.265, rel=1e-4)


def test_stand_in_bin_evaluated_at_center_frequency():
    """No i/T lies in [F0 - W, F0 + W]: the one stand-in bin i = 2 takes its
    degree 11 at F0 = 10.5 Hz, and its modes are evaluated there too, not at
    i/T = 10 Hz, where the truncation degree is 10."""
    cfg = PhysicalConfig(R=1.0 / E_PI, W=0.001, T=0.2, f0=10.5, c=1.0)
    assert mode_wavenumber(2, cfg) == (10.5, 2 * math.pi * 10.5)
    k = mode_wavenumber(2, cfg)[1]
    assert truncation_degree(cfg.R, k) == 11
    assert truncation_degree(cfg.R, 2 * math.pi * 10.0) == 10
    rng = np.random.default_rng(47)
    for dim in (TWO_D, THREE_D):
        modes = enumerate_modes(dim, cfg, two_sided=dim is TWO_D)
        assert {md.i for md in modes} == {2}
        assert max(abs(md.m) for md in modes) == 11
        d = 2 if dim is TWO_D else 3
        for md in modes[::3] + modes[-2:]:
            p = rng.normal(size=d)
            p *= rng.uniform(0.05, 1.0) * cfg.R / np.linalg.norm(p)
            t = rng.uniform(0, cfg.T)
            want = scalar_mode_value(md, p, t, cfg)
            got = evaluate_mode(md, p, t, cfg)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), md
        # The time factor runs at F0: over T it turns by 2 pi F0 T = 4.2 pi.
        md = modes[0]
        p = np.full(d, 0.1 * cfg.R)
        ratio = evaluate_mode(md, p, cfg.T, cfg) / evaluate_mode(md, p, 0.0, cfg)
        assert ratio == pytest.approx(cmath.exp(2j * math.pi * 10.5 * cfg.T), abs=1e-12)


@pytest.mark.parametrize("dim, cfg, res, two_sided, n_bins", [
    (THREE_D, HALF_CAL_3D, (8, 13, 52), False, 3),
    (TWO_D, PhysicalConfig(R=0.1, W=5.0, T=1.0, f0=10.0, c=1.0), (12, 40, 70), True, 11),
    (TWO_D, PhysicalConfig(R=1.0 / E_PI, W=0.001, T=0.2, f0=10.5, c=1.0),
     (8, 24, 16), True, 1),
], ids=["3d", "2d-two-sided-11-bins", "2d-stand-in-bin"])
def test_mode_factors_radial_matches_per_bin_tables(dim, cfg, res, two_sided, n_bins):
    """The radial factors come from one Bessel table over every bin's
    k r, whose downward recurrence starts above the largest k r and the
    highest order of the whole set; one table per bin, up to the bin's own
    highest order, agrees to 1e-13 relative, floored at 1e-10 of the
    column's largest value."""
    modes = enumerate_modes(dim, cfg, two_sided=two_sided)
    bins = sorted({md.i for md in modes})
    assert len(bins) == n_bins
    axes = build_grid(dim, cfg, res).axes
    r = axes["r_nodes"]
    got = mode_factors(modes, axes, cfg)["r"]
    spherical = dim is THREE_D
    order = np.array([md.n if spherical else abs(md.m) for md in modes])
    want = np.empty_like(got)
    for i in bins:
        sel = np.array([md.i == i for md in modes])
        _, k = mode_wavenumber(i, cfg)
        table = bessel_table(int(order[sel].max()), k * r, spherical=spherical)
        want[:, sel] = table[order[sel]].T
    floor = 1e-10 * np.max(np.abs(want), axis=0)
    err = np.abs(got - want) / np.maximum(np.abs(want), floor)
    assert err.max() <= 1e-13, err.max()


@pytest.mark.parametrize("dim, cfg, modes, res", FACTORED_SETS, ids=FACTORED_IDS)
def test_mode_factors_gather_matches_per_mode_columns(dim, cfg, modes, res):
    """Each axis factor is evaluated once per distinct column (one time
    column per bin) and gathered per mode; the gather is bit-identical
    to evaluating every mode's own column."""
    axes = build_grid(dim, cfg, res).axes
    got, want = mode_factors(modes, axes, cfg), per_mode_factors(modes, axes, cfg)
    assert list(got) == list(want)
    for axis in want:
        assert got[axis].shape == want[axis].shape, axis
        assert got[axis].tobytes() == want[axis].tobytes(), axis
    columns, (_, _, cycles) = _factor_columns(modes, axes, cfg)
    assert columns["t"][0].shape[1] == len(cycles) == len({md.i for md in modes})
    assert columns["phi"][0].shape[1] == len({md.m for md in modes})


@pytest.mark.parametrize("dim, cfg, modes, res", FACTORED_SETS, ids=FACTORED_IDS)
def test_factored_gram_and_projection_match_dense_oracles(dim, cfg, modes, res):
    grid = build_grid(dim, cfg, res)
    dense = dense_gram(modes, grid, cfg)
    gram = weighted_gram(modes, grid, cfg)[1]
    assert np.max(np.abs(gram - dense)) <= 1e-13 * np.max(np.abs(dense))
    samples = field_values(synthesize_field(dim, cfg, 16, seed=3), grid.points,
                           grid.times)
    got = project_field(samples, modes, grid, cfg)
    coeffs, residual = dense_projection(samples, modes, grid, cfg)
    assert np.max(np.abs(got.coefficients - coeffs)) <= 1e-10 * np.max(np.abs(coeffs))
    assert abs(got.residual - residual) <= 1e-10


def test_project_memory_forms_no_space_by_modes_array():
    """At the 3D benchmark point (121 modes, 8,13,52: 140,608 points)
    the projection's largest arrays are point-sized: the fit and the
    weights' square roots, or those roots and the weighted samples;
    it peaks at 4.1 MiB. Joining the spatial factors into (spatial nodes
    x modes), as it once did, peaked at 10.9 MiB."""
    grid = build_grid(THREE_D, HALF_CAL_3D, (8, 13, 52))
    modes = enumerate_modes(THREE_D, HALF_CAL_3D)
    samples = field_values(synthesize_field(THREE_D, HALF_CAL_3D, 8, seed=2),
                           grid.points, grid.times)
    project_field(samples, modes, grid, HALF_CAL_3D)
    tracemalloc.start()
    try:
        project_field(samples, modes, grid, HALF_CAL_3D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 16 * len(grid), peak


def test_evaluate_mode_at_center():
    md = ModeIndex(10, 0, 0, THREE_D)
    v = evaluate_mode(md, (0.0, 0.0, 0.0), 0.0, CAL_3D)
    assert v == pytest.approx(1.0 / math.sqrt(4 * math.pi) / math.sqrt(CAL_3D.T), rel=1e-12)
    assert evaluate_mode(ModeIndex(10, 3, 1, THREE_D), (0, 0, 0), 0.0, CAL_3D) == 0.0
    md2 = ModeIndex(10, 0, 0, TWO_D)
    assert evaluate_mode(md2, (0.0, 0.0), 0.0, CAL_2D) == pytest.approx(
        1.0 / math.sqrt(CAL_2D.T), rel=1e-12)


def test_evaluate_mode_time_phase():
    md = ModeIndex(10, 2, -1, THREE_D)
    pos = (0.05, -0.03, 0.04)
    v0 = evaluate_mode(md, pos, 0.2, CAL_3D)
    dt = 0.037
    v1 = evaluate_mode(md, pos, 0.2 + dt, CAL_3D)
    rot = cmath.exp(2j * math.pi * md.i * dt / CAL_3D.T)
    assert v1 == pytest.approx(v0 * rot, rel=1e-12)
    # bin frequencies are integer multiples of 1/T: endpoints agree
    assert evaluate_mode(md, pos, 0.0, CAL_3D) == pytest.approx(
        evaluate_mode(md, pos, CAL_3D.T, CAL_3D), rel=1e-12)


def test_evaluate_mode_against_independent_formula():
    """Recompute through scipy's special functions at random points."""
    from scipy.special import spherical_jn
    try:
        from scipy.special import sph_harm_y

        def ylm(n, m, theta, phi):
            return sph_harm_y(n, m, theta, phi)
    except ImportError:  # older scipy
        from scipy.special import sph_harm

        def ylm(n, m, theta, phi):
            return sph_harm(m, n, phi, theta)

    rng = np.random.default_rng(14)
    modes = enumerate_modes(THREE_D, CAL_3D)
    for _ in range(100):
        md = modes[rng.integers(0, len(modes))]
        r = rng.uniform(1e-4, CAL_3D.R)
        theta = rng.uniform(0, math.pi)
        phi = rng.uniform(0, 2 * math.pi)
        t = rng.uniform(0, CAL_3D.T)
        pos = (r * math.sin(theta) * math.cos(phi),
               r * math.sin(theta) * math.sin(phi),
               r * math.cos(theta))
        f, k = mode_wavenumber(md.i, CAL_3D)
        ref = (spherical_jn(md.n, k * r) * ylm(md.n, md.m, theta, phi)
               * cmath.exp(2j * math.pi * md.i * t / CAL_3D.T) / math.sqrt(CAL_3D.T))
        got = evaluate_mode(md, pos, t, CAL_3D)
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), md


def test_evaluate_mode_rejects_outside():
    md = ModeIndex(10, 0, 0, THREE_D)
    with pytest.raises(ValueError):
        evaluate_mode(md, (CAL_3D.R * 1.01, 0, 0), 0.0, CAL_3D)
    with pytest.raises(ValueError):
        evaluate_mode(md, (0.01, 0, 0), CAL_3D.T * 1.01, CAL_3D)


def test_mode_matrix_matches_scalar_evaluation():
    modes = enumerate_modes(TWO_D, CAL_2D)[:7]
    A = mode_matrix(modes, GRID_2D, CAL_2D)
    rng = np.random.default_rng(2)
    for _ in range(20):
        s = int(rng.integers(0, len(GRID_2D)))
        j = int(rng.integers(0, len(modes)))
        ref = scalar_mode_value(modes[j], GRID_2D.points[s], GRID_2D.times[s],
                                CAL_2D)
        assert abs(A[s, j] - ref) <= 1e-12 * max(1.0, abs(ref))
    # 3D: modes from all three bins, negative odd orders included
    grid3 = build_grid(THREE_D, CAL_3D, (4, 12, 6))
    modes3 = [md for md in enumerate_modes(THREE_D, CAL_3D)
              if (md.n, md.m) in {(0, 0), (3, -3), (5, -1), (8, 2), (9, -7),
                                  (10, 4), (11, -5)}]
    assert {md.i for md in modes3} == {9, 10, 11}
    A3 = mode_matrix(modes3, grid3, CAL_3D)
    for s in rng.integers(0, len(grid3), 8):
        for j, md in enumerate(modes3):
            ref = scalar_mode_value(md, grid3.points[s], grid3.times[s], CAL_3D)
            assert abs(A3[s, j] - ref) <= 1e-12 * max(1.0, abs(ref)), md


def test_two_sided_2d_modes_match_scipy():
    """evaluate_mode and mode_matrix against scipy's jv(m, k r) e^{i m theta},
    whose negative orders carry J_{-m} = (-1)^m J_m independently."""
    from scipy.special import jv

    modes = enumerate_modes(TWO_D, CAL_2D, two_sided=True)
    assert {md.m for md in modes} >= {-11, -9, -1}

    def ref(md, pos, t):
        k = mode_wavenumber(md.i, CAL_2D)[1]
        theta = math.atan2(pos[1], pos[0])
        return (jv(md.m, k * math.hypot(*pos)) * cmath.exp(1j * md.m * theta)
                * cmath.exp(2j * math.pi * md.i * t / CAL_2D.T) / math.sqrt(CAL_2D.T))

    A = mode_matrix(modes, GRID_2D, CAL_2D)
    rng = np.random.default_rng(21)
    for s in rng.integers(0, len(GRID_2D), 6):
        for j, md in enumerate(modes):
            want = ref(md, GRID_2D.points[s], GRID_2D.times[s])
            assert abs(A[s, j] - want) <= 1e-12 * max(1.0, abs(want)), md
    for _ in range(60):
        md = modes[rng.integers(0, len(modes))]
        r, theta = rng.uniform(0, CAL_2D.R), rng.uniform(-math.pi, math.pi)
        pos, t = (r * math.cos(theta), r * math.sin(theta)), rng.uniform(0, CAL_2D.T)
        want = ref(md, pos, t)
        got = evaluate_mode(md, pos, t, CAL_2D)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), md


def test_plane_wave_basics():
    wv = WaveVector.from_frequency(0.0, (0, 0, 1.0), 1.0)
    assert plane_wave(wv, (0.3, 0.2, -0.5), 1.7) == 1.0
    wv = WaveVector.from_frequency(1.0, (0, 0, 1.0), 1.0)
    # k z = pi at z = pi/k
    z = math.pi / wv.k
    assert plane_wave(wv, (0.0, 0.0, z), 0.0) == pytest.approx(-1.0, rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_wave_vector_rejects_degenerate_direction():
    # A NaN norm must fail the unit check; a zero or non-finite direction
    # is rejected before it is divided by its norm.
    with pytest.raises(ValueError, match="unit vector"):
        WaveVector(k_hat=(math.nan, math.nan), f=1.0, k=1.0)
    for direction in ((0, 0), (0.0, 0.0, 0.0), (math.nan, 1.0), (math.inf, 0.0)):
        with pytest.raises(ValueError, match="finite, non-zero norm"):
            WaveVector.from_frequency(1.0, direction, 1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_wave_vector_direction_of_any_finite_scale():
    # A finite, non-zero direction whose squared norm leaves the float
    # range is rescaled by its largest entry before it is normalized;
    # every other direction keeps d / norm(d), bit for bit.
    s = math.sqrt(0.5)
    for direction, want in (((1e200, 0.0), (1.0, 0.0)), ((1e-200, 0.0), (1.0, 0.0)),
                            ((0.0, -1e300, 1e300), (0.0, -s, s)),
                            ((5e-324, -5e-324), (s, -s)),
                            ((3e-170, 0.0, 4e-170), (0.6, 0.0, 0.8))):
        k_hat = WaveVector.from_frequency(1.0, direction, 1.0).k_hat
        assert k_hat == pytest.approx(want, rel=1e-15, abs=0.0), direction
    rng = np.random.default_rng(6)
    for d in [rng.normal(size=n) for n in (2, 3) for _ in range(50)]:
        assert WaveVector.from_frequency(1.0, d, 1.0).k_hat == tuple(d / np.linalg.norm(d))


def test_distinct_rows_match_plain_lexsort():
    """Runs of equal consecutive rows are sorted as one row; the distinct
    rows and the inverse index are those of one lexsort over every row."""
    rng = np.random.default_rng(12)
    g3 = build_grid(THREE_D, HALF_CAL_3D, (3, 4, 6))
    scattered = rng.integers(0, 4, size=(300, 3)).astype(float)
    scattered[rng.random(300) < 0.1] = -0.0
    cases = [GRID_2D.points, g3.points, GRID_2D.times[:, None],
             GRID_2D.points[rng.permutation(len(GRID_2D))],
             np.repeat(scattered, rng.integers(1, 4, 300), axis=0),
             scattered, rng.normal(size=(50, 2)), np.zeros((0, 2)),
             np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [math.nan, 1.0],
                       [math.nan, 1.0]])]
    for a in cases:
        got, want = _distinct_rows(a), distinct_rows_reference(a)
        assert got[0].tobytes() == want[0].tobytes() and got[0].shape == want[0].shape
        assert np.array_equal(got[1], want[1])


def test_distinct_values_match_plain_lexsort():
    """field_values finds its distinct times by one stable sort, with the
    output of one lexsort over the one-column rows: in grid order,
    shuffled, with 0.0 and -0.0 (the first of them in the input is
    kept), a single time and none."""
    rng = np.random.default_rng(13)
    t = GRID_2D.times
    signed = rng.choice([0.0, -0.0, 0.5, -0.5], 200)
    cases = [t, t[rng.permutation(len(t))], signed, -signed, np.array([-0.0, 0.0]),
             np.array([0.0, -0.0]), np.array([0.25]), np.zeros(0)]
    for a in cases:
        got, want = _distinct_values(a), distinct_rows_reference(a[:, None])
        assert got[0].tobytes() == want[0][:, 0].tobytes()
        assert got[0].shape == want[0][:, 0].shape
        assert np.array_equal(got[1], want[1])


def _plane_wave_sum(pws, points, times):
    wvs = pws.wavevectors()
    return np.array([sum(a * plane_wave(wv, x, t) for a, wv in zip(pws.amplitudes, wvs))
                     for x, t in zip(points, times)])


def test_field_values_matches_plane_wave_sum():
    rng = np.random.default_rng(17)
    cases = []
    for dim, cfg, res in ((TWO_D, CAL_2D, (4, 8, 10)),
                          (THREE_D, HALF_CAL_3D, (3, 4, 6))):
        g = build_grid(dim, cfg, res)
        pws = synthesize_field(dim, cfg, 24, seed=5)
        shuffled = rng.permutation(len(g))
        repeated = rng.integers(0, len(g), 2 * len(g))
        cases += [(pws, g.points, g.times, True),
                  (pws, g.points[shuffled], g.times[shuffled], True),
                  (pws, g.points[repeated], g.times[repeated], True)]
        d = g.points.shape[1]
        for n, tabled in ((16, True), (64, False)):
            # Scattered: every position and every time distinct, so the
            # distinct-position x distinct-time table has n^2 entries;
            # 16^2 fits in 16 x 24 (points x waves), 64^2 does not.
            pts = rng.uniform(-cfg.R, cfg.R, (n, d)) / math.sqrt(d)
            cases.append((pws, pts, rng.uniform(0, cfg.T, n), tabled))
    for pws, pts, ts, tabled in cases:
        # which branch field_values takes
        n_pos, n_t = len(np.unique(pts, axis=0)), len(np.unique(ts))
        assert (n_pos * n_t <= len(pts) * len(pws)) == tabled
        want = _plane_wave_sum(pws, pts, ts)
        got = field_values(pws, pts, ts)
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # 2,000 scattered points: the table would hold 2,000^2 entries (64 MB);
    # the per-point branch stays within a few points x waves arrays.
    pws = synthesize_field(TWO_D, CAL_2D, 8, seed=6)
    pts, ts = rng.uniform(-0.1, 0.1, (2000, 2)), rng.uniform(0.0, 1.0, 2000)
    tracemalloc.start()
    try:
        field_values(pws, pts, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 16 * len(pts) * len(pws)


@pytest.mark.parametrize("dim", [TWO_D, THREE_D], ids=["2d", "3d"])
def test_field_values_at_large_phases(dim):
    """Phases up to 1e5 rad on both branches, against the scalar sum.

    Axis-aligned directions make k (khat . x) one rounding of k x, the
    same in field_values and plane_wave, so the two differ only in their
    exponentials and in how space and time phases combine. The table
    branch multiplies exp(j k khat . x) by exp(2j pi f t), which differs
    from one exponential of the rounded sum, so its points carry a time
    phase or a space phase, never both; the per-point branch adds the two
    phases as plane_wave does."""
    rng = np.random.default_rng(23)
    d = 3 if dim is THREE_D else 2
    n_w, big = 24, 1e5
    axes = np.vstack([np.eye(d), -np.eye(d)])
    pws = PlaneWaveSet(directions=axes[rng.integers(0, 2 * d, n_w)],
                       frequencies=rng.uniform(0.5, 1.0, n_w) * big / (2 * math.pi),
                       amplitudes=rng.standard_normal(n_w) + 1j * rng.standard_normal(n_w),
                       c=1.0)
    n = 20
    on_axis = np.zeros((n, d))
    on_axis[:, 0] = rng.uniform(-1.0, 1.0, n)
    table_pts = np.vstack([on_axis, np.zeros((n, d))])
    table_ts = np.concatenate([np.zeros(n), rng.uniform(0.0, 1.0, n)])
    scattered = rng.uniform(-1.0, 1.0, (4 * n_w, d)) / math.sqrt(d)
    cases = [(table_pts, table_ts, True),
             (scattered, rng.uniform(0.0, 1.0, 4 * n_w), False)]
    for pts, ts, tabled in cases:
        n_pos, n_t = len(np.unique(pts, axis=0)), len(np.unique(ts))
        assert (n_pos * n_t <= len(pts) * n_w) == tabled
        k = 2.0 * math.pi * pws.frequencies / pws.c
        phase = np.abs(pts @ pws.directions.T) * k + 2.0 * math.pi * np.outer(ts, pws.frequencies)
        assert phase.max() >= 0.4 * big
        want = _plane_wave_sum(pws, pts, ts)
        got = field_values(pws, pts, ts)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), tabled


def test_plane_wave_satisfies_wave_equation():
    """Finite-difference Laplacian minus (1/c^2) d^2/dt^2 stays small."""
    c = 1.0
    wv = WaveVector.from_frequency(3.0, (0.4, -0.3, 0.8660254037844386), c)
    rng = np.random.default_rng(5)
    h = 1e-4 / wv.k
    for _ in range(10):
        p = rng.uniform(-0.02, 0.02, 3)
        t = rng.uniform(0.1, 0.5)
        lap = sum(plane_wave(wv, p + dv, t) + plane_wave(wv, p - dv, t)
                  - 2 * plane_wave(wv, p, t)
                  for dv in (np.array([h, 0, 0]), np.array([0, h, 0]),
                             np.array([0, 0, h]))) / h**2
        ht = h / (c * wv.k) * wv.k  # same step in ct units
        dtt = (plane_wave(wv, p, t + ht) + plane_wave(wv, p, t - ht)
               - 2 * plane_wave(wv, p, t)) / ht**2 / c**2
        resid = abs(lap - dtt)
        assert resid <= 1e-4 * wv.k**2, resid


def test_mode_satisfies_wave_equation():
    rng = np.random.default_rng(21)
    modes3 = enumerate_modes(THREE_D, CAL_3D)
    modes2 = enumerate_modes(TWO_D, CAL_2D)
    for dim, modes, cfg in ((THREE_D, modes3, CAL_3D), (TWO_D, modes2, CAL_2D)):
        for _ in range(6):
            md = modes[rng.integers(0, len(modes))]
            _, k = mode_wavenumber(md.i, cfg)
            h = 1e-3 / k
            d = 3 if dim is THREE_D else 2
            p = rng.uniform(-cfg.R / 4, cfg.R / 4, d)
            t = rng.uniform(0.3, 0.7) * cfg.T

            def val(q, tq):
                return evaluate_mode(md, q, tq, cfg)

            lap = sum(val(p + dv, t) + val(p - dv, t) - 2 * val(p, t)
                      for dv in np.eye(d) * h) / h**2
            dtt = (val(p, t + h / cfg.c) + val(p, t - h / cfg.c)
                   - 2 * val(p, t)) / (h / cfg.c) ** 2 / cfg.c**2
            scale = k**2 * max(abs(val(p, t)), 1e-6)
            assert abs(lap - dtt) <= 1e-4 * scale, (md, abs(lap - dtt) / scale)


def test_jacobi_anger_trivial_and_center():
    wv = WaveVector.from_frequency(0.0, (0, 0, 1.0), 1.0)
    assert jacobi_anger_partial(wv, (0.1, 0.0, 0.0), 0) == pytest.approx(1.0, rel=1e-12)
    wv = WaveVector.from_frequency(2.0, (0, 1.0, 0), 1.0)
    assert jacobi_anger_partial(wv, (0.0, 0.0, 0.0), 4) == pytest.approx(1.0, rel=1e-12)


def test_jacobi_anger_matches_plane_wave_at_truncation():
    rng = np.random.default_rng(11)
    c = 1.0
    for kR, tol in ((5.0, 0.1),):
        R = 1.0
        f = kR / (2 * math.pi) * c
        N = truncation_degree(R, kR)
        assert N == 7
        for _ in range(5):
            d = rng.normal(size=3)
            wv = WaveVector.from_frequency(f, d, c)
            p = rng.normal(size=3)
            p = p / np.linalg.norm(p) * rng.uniform(0.2, 1.0) * R
            exact = plane_wave(wv, p, 0.0)
            approx = jacobi_anger_partial(wv, p, N)
            assert abs(exact - approx) <= tol


def test_jacobi_anger_tail_decays():
    rng = np.random.default_rng(19)
    R, c = 1.0, 1.0
    kR = 5.0
    f = kR / (2 * math.pi) * c
    N = truncation_degree(R, kR)
    for _ in range(100):
        d = rng.normal(size=3)
        wv = WaveVector.from_frequency(f, d, c)
        p = rng.normal(size=3)
        p = p / np.linalg.norm(p) * rng.uniform(0.1, 1.0) * R
        exact = plane_wave(wv, p, 0.0)
        e_n = abs(exact - jacobi_anger_partial(wv, p, N))
        e_n1 = abs(exact - jacobi_anger_partial(wv, p, N + 1))
        assert e_n1 <= e_n + 1e-13


def test_jacobi_anger_2d():
    rng = np.random.default_rng(23)
    for _ in range(5):
        wv = WaveVector.from_frequency(1.5, rng.normal(size=2), 1.0)
        p = rng.uniform(-0.3, 0.3, 2)
        exact = plane_wave(wv, p, 0.0)
        approx = jacobi_anger_partial(wv, p, 25)
        assert abs(exact - approx) <= 1e-10


def test_jacobi_anger_vectorized_matches_scalar():
    rng = np.random.default_rng(31)
    wv3 = WaveVector.from_frequency(2.0, rng.normal(size=3), 1.0)
    pts3 = rng.uniform(-0.4, 0.4, (12, 3))
    vec = jacobi_anger_values(wv3, pts3, 9)
    for j, p in enumerate(pts3):
        assert abs(vec[j] - jacobi_anger_partial(wv3, p, 9)) <= 1e-12
    wv2 = WaveVector.from_frequency(2.0, rng.normal(size=2), 1.0)
    pts2 = rng.uniform(-0.4, 0.4, (12, 2))
    vec2 = jacobi_anger_values(wv2, pts2, 9)
    for j, p in enumerate(pts2):
        assert abs(vec2[j] - jacobi_anger_partial(wv2, p, 9)) <= 1e-12


def test_jacobi_anger_addition_theorem_route():
    """Independent evaluation through Legendre polynomials."""
    from wavedof import legendre_p, spherical_bessel_j

    rng = np.random.default_rng(37)
    wv = WaveVector.from_frequency(2.0, rng.normal(size=3), 1.0)
    kh = np.asarray(wv.k_hat)
    for _ in range(10):
        p = rng.uniform(-0.5, 0.5, 3)
        r = np.linalg.norm(p)
        cos_g = float(p @ kh) / r
        n_top = 9
        ref = sum((1j**n) * (2 * n + 1) * spherical_bessel_j(n, wv.k * r)
                  * legendre_p(n, cos_g) for n in range(n_top + 1))
        got = jacobi_anger_partial(wv, p, n_top)
        assert abs(got - ref) <= 1e-11


@pytest.mark.parametrize("dim", [TWO_D, THREE_D], ids=["2d", "3d"])
def test_jacobi_anger_values_match_scalar_oracle(dim):
    rng = np.random.default_rng(41)
    d = 2 if dim is TWO_D else 3
    wv = WaveVector.from_frequency(3.0, rng.normal(size=d), 1.0)
    pts = rng.uniform(-0.5, 0.5, (30, d))
    pts[0] = 0.0
    pts[1] = pts[2]  # a repeated radius
    got = jacobi_anger_values(wv, pts, 20)
    want = np.array([jacobi_anger_scalar(wv, p, 20) for p in pts])
    assert np.max(np.abs(got - want)) <= 1e-12


def test_jacobi_anger_2d_angular_table_matches_libm_cos():
    """The 2D angular table cos(m dtheta) comes from cos_sin; it stays within
    5e-16 of libm cos up to order 80, along the wave and against it too."""
    rng = np.random.default_rng(43)
    n = np.arange(81)
    for _ in range(5):
        wv = WaveVector.from_frequency(40.0 / (2 * math.pi), rng.normal(size=2), 1.0)
        phi = np.concatenate([rng.uniform(0, 2 * math.pi, 200),
                              2 * math.pi * np.arange(340) / 340])
        u = np.concatenate([np.stack([np.cos(phi), np.sin(phi)], axis=1),
                            [wv.k_hat, np.negative(wv.k_hat)]])
        dtheta = np.arctan2(u[:, 1], u[:, 0]) - math.atan2(wv.k_hat[1], wv.k_hat[0])
        angular = cos_sin(np.outer(n, dtheta))[0]
        assert np.max(np.abs(angular - np.cos(np.outer(n, dtheta)))) <= 5e-16


def test_synthesize_deterministic():
    a = synthesize_field(THREE_D, CAL_3D, 16, seed=42)
    b = synthesize_field(THREE_D, CAL_3D, 16, seed=42)
    assert np.array_equal(a.directions, b.directions)
    assert np.array_equal(a.frequencies, b.frequencies)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    c = synthesize_field(THREE_D, CAL_3D, 16, seed=43)
    assert not np.array_equal(a.amplitudes, c.amplitudes)


@pytest.mark.parametrize("waves", [1, 2, 64, 257])
@pytest.mark.parametrize("dim, cfg", [(TWO_D, CAL_2D), (THREE_D, CAL_3D)],
                         ids=["2d", "3d"])
def test_synthesize_field_keeps_the_seeded_stream(dim, cfg, waves):
    # The draws are those of the documented default_rng sequence, bit for
    # bit, so every seeded report stays as it was.
    for seed in range(200):
        got = synthesize_field(dim, cfg, waves, seed)
        want = synthesize_field_reference(dim, cfg, waves, seed)
        for key in ("directions", "frequencies", "amplitudes"):
            assert np.array_equal(getattr(got, key), getattr(want, key)), (key, seed)


#: seed lists of the draw kernel: verify's layout seed + 1000 j (from
#: seeds 1 and 2^32 + 5), seeds past 2^32 and 2^64, and a repeated seed
KERNEL_SEEDS = [range(1, 1 + 1000 * 7, 1000),
                range(2**32 + 5, 2**32 + 5 + 1000 * 3, 1000),
                [0, 2**40 + 7, 2**64 + 3, 5, 5]]


@pytest.mark.parametrize("waves", [1, 2, 64, 257])
@pytest.mark.parametrize("dim, cfg", [(TWO_D, CAL_2D), (THREE_D, CAL_3D)],
                         ids=["2d", "3d"])
def test_draw_ensemble_rows_keep_the_seeded_stream(dim, cfg, waves):
    # Row j of the stack is what default_rng(seeds[j]) draws in the
    # documented order, bit for bit, so verify's reports stay as they were.
    for seeds in KERNEL_SEEDS:
        stack = draw_ensemble(dim, cfg, waves, seeds)
        d = 3 if dim is THREE_D else 2
        assert stack.directions.shape == (len(seeds), waves, d)
        assert stack.c.tolist() == [cfg.c] * len(seeds)
        assert stack.counts.tolist() == [waves] * len(seeds)
        assert stack.band == (stack.frequencies.min(), stack.frequencies.max())
        for j, seed in enumerate(seeds):
            want = synthesize_field_reference(dim, cfg, waves, seed)
            for key in ("directions", "frequencies", "amplitudes"):
                assert np.array_equal(getattr(stack, key)[j], getattr(want, key)), \
                    (key, seed)


def test_synthesize_narrowband_and_band_limits():
    cfg = PhysicalConfig(R=1.0, W=0.0, T=1.0, f0=7.0, c=1.0)
    pws = synthesize_field(TWO_D, cfg, 32, seed=1)
    assert np.all(pws.frequencies == 7.0)
    pws = synthesize_field(TWO_D, CAL_2D, 64, seed=2)
    assert np.all(pws.frequencies >= CAL_2D.f0 - CAL_2D.W)
    assert np.all(pws.frequencies <= CAL_2D.f0 + CAL_2D.W)
    assert np.allclose(np.linalg.norm(pws.directions, axis=1), 1.0, atol=1e-12)


def test_synthesize_isotropy():
    pws = synthesize_field(THREE_D, CAL_3D, 100_000, seed=9)
    mean = pws.directions.mean(axis=0)
    assert np.linalg.norm(mean) <= 0.02


def test_synthesize_wavevectors_roundtrip():
    pws = synthesize_field(TWO_D, CAL_2D, 4, seed=3)
    wvs = pws.wavevectors()
    assert len(wvs) == 4
    assert wvs[0].k == pytest.approx(2 * math.pi * pws.frequencies[0] / CAL_2D.c)


def test_project_single_mode_indicator():
    modes = enumerate_modes(TWO_D, CAL_2D)
    target = 12
    A = mode_matrix(modes, GRID_2D, CAL_2D)
    samples = A[:, target]
    coeff = project_field(samples, modes, GRID_2D, CAL_2D)
    assert coeff.residual <= 1e-8
    mask = np.ones(len(modes), bool)
    mask[target] = False
    assert abs(coeff.coefficients[target] - 1.0) <= 1e-8
    assert np.max(np.abs(coeff.coefficients[mask])) <= 1e-8


def test_project_idempotent():
    modes = enumerate_modes(TWO_D, CAL_2D, two_sided=True)
    pws = synthesize_field(TWO_D, CAL_2D, 8, seed=77)
    samples = field_values(pws, GRID_2D.points, GRID_2D.times)
    first = project_field(samples, modes, GRID_2D, CAL_2D)
    recon = mode_matrix(modes, GRID_2D, CAL_2D) @ first.coefficients
    second = project_field(recon, modes, GRID_2D, CAL_2D)
    assert np.max(np.abs(first.coefficients - second.coefficients)) <= 1e-10
    assert second.residual <= 1e-10


IN_BAND_RESIDUAL = 0.02  # pinned by calibration runs at the 2D config


def test_project_in_band_plane_waves():
    modes = enumerate_modes(TWO_D, CAL_2D, two_sided=True)
    rng = np.random.default_rng(5)
    for _ in range(5):
        i = int(rng.integers(9, 12))
        theta = rng.uniform(0, 2 * math.pi)
        wv = WaveVector.from_frequency(i / CAL_2D.T,
                                       (math.cos(theta), math.sin(theta)), CAL_2D.c)
        kh = np.asarray(wv.k_hat)
        samples = np.exp(1j * (wv.k * (GRID_2D.points @ kh)
                               + 2 * math.pi * wv.f * GRID_2D.times))
        coeff = project_field(samples, modes, GRID_2D, CAL_2D)
        assert coeff.residual <= IN_BAND_RESIDUAL


def test_project_out_of_band_control():
    modes = enumerate_modes(TWO_D, CAL_2D, two_sided=True)
    f = 2 * (CAL_2D.f0 + CAL_2D.W)
    wv = WaveVector.from_frequency(f, (1.0, 0.0), CAL_2D.c)
    kh = np.asarray(wv.k_hat)
    samples = np.exp(1j * (wv.k * (GRID_2D.points @ kh)
                           + 2 * math.pi * f * GRID_2D.times))
    coeff = project_field(samples, modes, GRID_2D, CAL_2D)
    assert coeff.residual >= 10 * IN_BAND_RESIDUAL


def test_project_rejects_rank_deficiency():
    modes = enumerate_modes(TWO_D, CAL_2D)[:5]
    doubled = modes + [modes[0]]
    samples = mode_matrix(modes, GRID_2D, CAL_2D)[:, 0]
    with pytest.raises(ProjectionRankError):
        project_field(samples, doubled, GRID_2D, CAL_2D)


@pytest.mark.parametrize("dim, cfg, two_sided, grid", [
    (TWO_D, CAL_2D, False, GRID_2D),
    (TWO_D, CAL_2D, True, GRID_2D),
    (THREE_D, HALF_CAL_3D, False, build_grid(THREE_D, HALF_CAL_3D, (5, 8, 20))),
], ids=["2d-one-sided", "2d-two-sided", "3d-121-modes"])
def test_project_matches_dense_oracle(dim, cfg, two_sided, grid):
    modes = enumerate_modes(dim, cfg, two_sided=two_sided)
    for seed in (3, 4):
        pws = synthesize_field(dim, cfg, 16, seed=seed)
        samples = field_values(pws, grid.points, grid.times)
        got = project_field(samples, modes, grid, cfg)
        coeffs, residual = dense_projection(samples, modes, grid, cfg)
        assert (np.max(np.abs(got.coefficients - coeffs))
                <= 1e-10 * np.max(np.abs(coeffs)))
        assert abs(got.residual - residual) <= 1e-10


def test_project_mixed_bins_matches_dense_oracle():
    """A hand-built set mixing the stand-in bin 2 (2.1 cycles over T) with
    bin 3 has a complex normal matrix (``weighted_gram`` finds it not
    real); the projection still matches the dense least-squares fit."""
    cfg = PhysicalConfig(R=1.0 / E_PI, W=0.001, T=0.2, f0=10.5, c=1.0)
    grid = build_grid(TWO_D, cfg, (8, 31, 20))
    modes = [ModeIndex(i, 0, m, TWO_D) for i in (2, 3) for m in range(-3, 4)]
    assert weighted_gram(modes, grid, cfg)[1].dtype == complex
    assert all(weighted_gram(half, grid, cfg)[1].dtype == float
               for half in (modes[:7], modes[7:]))
    pws = synthesize_field(TWO_D, cfg, 16, seed=3)
    samples = field_values(pws, grid.points, grid.times)
    got = project_field(samples, modes, grid, cfg)
    coeffs, residual = dense_projection(samples, modes, grid, cfg)
    assert np.max(np.abs(got.coefficients - coeffs)) <= 1e-10 * np.max(np.abs(coeffs))
    assert abs(got.residual - residual) <= 1e-10


def test_project_rejects_duplicate_and_zero_norm_modes():
    modes = enumerate_modes(TWO_D, CAL_2D, two_sided=True)
    samples = field_values(synthesize_field(TWO_D, CAL_2D, 4, seed=1),
                           GRID_2D.points, GRID_2D.times)
    with pytest.raises(ProjectionRankError):
        project_field(samples, modes + [modes[7]], GRID_2D, CAL_2D)
    # One polar node, at mu = 0, where P_1^0 vanishes: mode (10, 1, 0) is
    # zero at every grid point.
    grid = build_grid(THREE_D, CAL_3D, (2, 1, 8))
    zero = [ModeIndex(10, 0, 0, THREE_D), ModeIndex(10, 1, 0, THREE_D)]
    with pytest.raises(ProjectionRankError, match="zero norm"):
        project_field(np.ones(len(grid)), zero, grid, CAL_3D)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_project_rejects_non_finite_samples(bad):
    """One non-finite sample is rejected before any work, where the fit
    used to report residual 0.0 with NaN coefficients."""
    modes = enumerate_modes(TWO_D, CAL_2D, two_sided=True)
    samples = np.ones(len(GRID_2D), dtype=complex)
    samples[5] = bad
    with pytest.raises(ValueError, match="samples must be finite"):
        project_field(samples, modes, GRID_2D, CAL_2D)


@pytest.mark.parametrize("dim, radius, resolution", [
    (THREE_D, 1e-104, (6, 8, 52)),
    (TWO_D, 1e-156, (6, 24, 52)),
], ids=["3d", "2d"])
def test_project_rejects_normal_matrix_past_float_range(dim, radius, resolution):
    """At these radii the normal matrix's diagonal is subnormal, so its
    unit-diagonal scaling overflows; the projection raises the same
    ConfigError as ``verify``'s Gram (``diagonal_normalize``) instead of
    returning NaN coefficients or failing inside eigh. Warnings are
    errors in this suite, so none may be printed on the way."""
    cfg = PhysicalConfig(R=radius, W=1.0, T=1.0, f0=10.0, c=40 * radius)
    modes = enumerate_modes(dim, cfg)
    grid = build_grid(dim, cfg, resolution)
    with pytest.raises(ConfigError, match="^Gram diagonal cannot be normalized"):
        project_field(np.ones(len(grid), dtype=complex), modes, grid, cfg)
