"""Every library entry point rejects malformed input with one exception.

Each case calls one function with one bad argument and pins the
exception type and the start of its message, so a case fails if the
check is removed or another check fires first.
"""

import math

import numpy as np
import pytest

from wavedof import (Dimension, PhysicalConfig, RankPolicy, WaveVector,
                     assoc_legendre, build_grid, dof_space, dof_time_band,
                     draw_ensemble, effective_rank, ensemble_spectrum, enumerate_modes,
                     evaluate_mode, legendre_p, mode_wavenumber,
                     norm_assoc_legendre, project_field, synthesize_field,
                     truncation_degree)
from wavedof.bounds import ConfigError, bound_values
from wavedof.modes import (ModeIndex, PlaneWaveSet, field_values,
                           jacobi_anger_partial, jacobi_anger_values)
from wavedof.specfun import norm_assoc_legendre_table

from oracles import each_ensemble_route

TWO_D = Dimension.TWO_D
CAL_2D = PhysicalConfig(R=1.0 / (math.e * math.pi), W=1.0, T=1.0, f0=10.0, c=1.0)
SMALL_GRID = build_grid(TWO_D, CAL_2D, (2, 3, 2))


SHAPES = r"directions must have shape \(n, 2 or 3\), frequencies and amplitudes"
POINT_SHAPES = r"positions must have shape \(P, 2\) or \(P, 3\) and times \(P,\), got "


def _plane_waves(**change):
    args = dict(directions=np.array([[1.0, 0.0]]), frequencies=np.array([1.0]),
                amplitudes=np.array([1.0 + 0.0j]), c=1.0)
    return PlaneWaveSet(**{**args, **change})


def _drawn_stack(row=None, dim=TWO_D):
    """A drawn 2 x 3 ensemble, its wave (1, 2) given the direction ``row``."""
    stack = draw_ensemble(dim, CAL_2D, 3, [1, 2])
    if row is not None:
        stack.directions[1, 2] = row
    return stack


REJECTIONS = {
    # bounds
    "dof_time_band-negative": (lambda: dof_time_band(-1.0, 1.0),
                               ConfigError, "W and T must be >= 0"),
    "dof_space-negative": (lambda: dof_space(TWO_D, 1.0, -1.0),
                           ConfigError, "f and R must be >= 0"),
    "truncation_degree-negative": (lambda: truncation_degree(1.0, -1.0),
                                   ConfigError, "R and k must be >= 0"),
    "bound_values-overflow": (
        lambda: bound_values(PhysicalConfig(R=1.0, W=1e200, T=1.0, f0=1e200),
                             ["avg_density"]),
        ConfigError, "a closed-form bound overflows"),
    # modes
    "WaveVector-4-components": (lambda: WaveVector((0.5, 0.5, 0.5, 0.5), 1.0, 1.0),
                                ValueError, "k_hat must have 2 or 3 components"),
    "PlaneWaveSet-empty": (lambda: _plane_waves(directions=np.empty((0, 2))),
                           ValueError, "a plane-wave set must be nonempty"),
    "PlaneWaveSet-c-zero": (lambda: _plane_waves(c=0.0),
                            ConfigError, "wave speed must lie in"),
    "PlaneWaveSet-c-inf": (lambda: _plane_waves(c=math.inf),
                           ConfigError, "wave speed must lie in"),
    "PlaneWaveSet-c-nan": (lambda: _plane_waves(c=math.nan),
                           ConfigError, "wave speed must lie in"),
    "PlaneWaveSet-4-columns": (lambda: _plane_waves(directions=np.ones((1, 4))),
                               ValueError, SHAPES),
    "PlaneWaveSet-1d-directions": (lambda: _plane_waves(directions=np.ones(2)),
                                   ValueError, SHAPES),
    "PlaneWaveSet-frequencies-length": (
        lambda: _plane_waves(frequencies=np.array([1.0, 2.0])),
        ValueError, SHAPES),
    "PlaneWaveSet-amplitudes-length": (
        lambda: _plane_waves(amplitudes=np.array([], dtype=complex)),
        ValueError, SHAPES),
    "field_values-k-overflow": (
        lambda: field_values(_plane_waves(frequencies=np.array([10.0]), c=1e-307),
                             np.array([[0.5, 0.0]]), np.array([0.1])),
        ConfigError, "phases of the plane-wave set leave the float range"),
    "field_values-phase-overflow": (
        lambda: field_values(_plane_waves(c=1e-307),
                             np.array([[100.0, 0.0]]), np.array([0.1])),
        ConfigError, "phases of the plane-wave set leave the float range"),
    "field_values-scattered-overflow": (
        lambda: field_values(_plane_waves(frequencies=np.array([10.0]), c=1e-307),
                             np.array([[0.5, 0.0], [0.25, 0.0], [0.1, 0.0]]),
                             np.array([0.1, 0.2, 0.3])),
        ConfigError, "phases of the plane-wave set leave the float range"),
    "field_values-direction-length": (
        lambda: field_values(_plane_waves(directions=np.array([[2.0, 0.0]])),
                             np.array([[0.25, 0.0]]), np.array([0.0])),
        ValueError, "plane-wave directions must be unit vectors, got squared norm 4"),
    "field_values-direction-zero": (
        lambda: field_values(_plane_waves(directions=np.zeros((1, 2))),
                             np.array([[0.25, 0.0]]), np.array([0.0])),
        ValueError, "plane-wave directions must be unit vectors, got squared norm 0"),
    "field_values-direction-nan": (
        lambda: field_values(_plane_waves(directions=np.array([[math.nan, 0.0]])),
                             np.array([[0.25, 0.0]]), np.array([0.0])),
        ValueError, "plane-wave directions must be unit vectors, got squared norm nan"),
    "field_values-direction-dimension": (
        lambda: field_values(_plane_waves(directions=np.array([[1.0, 0.0, 0.0]])),
                             np.array([[0.25, 0.0]]), np.array([0.0])),
        ValueError, "plane-wave directions have 3 components, the sample points 2"),
    "field_values-position-nan": (
        lambda: field_values(_plane_waves(), np.array([[math.nan, 0.0]]),
                             np.array([0.0])),
        ValueError, "sample positions and times must be finite"),
    "field_values-time-inf": (
        lambda: field_values(_plane_waves(), np.array([[0.25, 0.0]]),
                             np.array([math.inf])),
        ValueError, "sample positions and times must be finite"),
    "field_values-positions-1d": (
        lambda: field_values(_plane_waves(), np.array([0.25, 0.0]), np.array([0.0])),
        ValueError, POINT_SHAPES + r"\(2,\) and \(1,\)"),
    "field_values-times-length": (
        lambda: field_values(_plane_waves(), np.zeros((2, 2)), np.zeros(3)),
        ValueError, POINT_SHAPES + r"\(2, 2\) and \(3,\)"),
    "field_values-times-column": (
        lambda: field_values(_plane_waves(), np.zeros((2, 2)), np.zeros((2, 1))),
        ValueError, POINT_SHAPES + r"\(2, 2\) and \(2, 1\)"),
    "mode_wavenumber-T-zero": (
        lambda: mode_wavenumber(1, PhysicalConfig(R=1.0, W=0.0, T=0.0, f0=1.0)),
        ConfigError, "mode_wavenumber requires T > 0"),
    "evaluate_mode-position-length": (
        lambda: evaluate_mode(ModeIndex(10, 0, 0, TWO_D), (0.01, 0.0, 0.0), 0.5, CAL_2D),
        ValueError, "position must have 2 components"),
    "jacobi_anger-negative-N": (
        lambda: jacobi_anger_values(WaveVector.from_frequency(1.0, (1.0, 0.0), 1.0),
                                    np.zeros((1, 2)), -1),
        ValueError, "N must be >= 0"),
    "jacobi_anger-3-components-on-a-2d-wave": (
        lambda: jacobi_anger_partial(WaveVector.from_frequency(1.0, (1.0, 0.0), 1.0),
                                     (0.3, 0.1, 0.5), 4),
        ValueError, r"points of a 2D wave must have shape \(P, 2\), got \(1, 3\)"),
    "jacobi_anger-1-component": (
        lambda: jacobi_anger_partial(WaveVector.from_frequency(1.0, (1.0, 0.0), 1.0),
                                     (0.3,), 4),
        ValueError, r"points of a 2D wave must have shape \(P, 2\), got \(1, 1\)"),
    "jacobi_anger-2-components-on-a-3d-wave": (
        lambda: jacobi_anger_values(
            WaveVector.from_frequency(1.0, (0.0, 0.0, 1.0), 1.0), np.zeros((4, 2)), 4),
        ValueError, r"points of a 3D wave must have shape \(P, 3\), got \(4, 2\)"),
    "synthesize_field-no-waves": (lambda: synthesize_field(TWO_D, CAL_2D, 0, seed=1),
                                  ValueError, "num_waves must be >= 1"),
    "draw_ensemble-no-waves": (lambda: draw_ensemble(TWO_D, CAL_2D, 0, [1]),
                               ValueError, "num_waves must be >= 1"),
    "draw_ensemble-no-seeds": (lambda: draw_ensemble(TWO_D, CAL_2D, 4, []),
                               ValueError, "an ensemble needs at least one seed"),
    "project_field-misaligned": (
        lambda: project_field(np.zeros(len(SMALL_GRID) + 1),
                              enumerate_modes(TWO_D, CAL_2D), SMALL_GRID, CAL_2D),
        ValueError, "samples must align with grid points"),
    "project_field-more-modes-than-points": (
        lambda: project_field(np.zeros(len(SMALL_GRID)),
                              enumerate_modes(TWO_D, CAL_2D)[:13], SMALL_GRID, CAL_2D),
        ValueError, "more modes than grid points"),
    # rankcheck
    "ensemble_spectrum-empty": (lambda: ensemble_spectrum([], SMALL_GRID),
                                ValueError, "ensemble must be nonempty"),
    "ensemble_spectrum-direction-length": (
        lambda: ensemble_spectrum(
            [_plane_waves(), _plane_waves(directions=np.array([[0.6, 0.6]]))],
            SMALL_GRID),
        ValueError, "plane-wave directions must be unit vectors, got squared norm 0.72"),
    "ensemble_spectrum-direction-dimension": (
        lambda: ensemble_spectrum([_plane_waves(directions=np.array([[0.0, 0.0, 1.0]]))],
                                  SMALL_GRID),
        ValueError, "plane-wave directions have 3 components, the sample points 2"),
    # One set of each dimension: each set's width is checked as the stack is
    # built, before the rows of both are joined.
    "ensemble_spectrum-mixed-dimensions": (
        lambda: ensemble_spectrum(
            [_plane_waves(), _plane_waves(directions=np.array([[0.0, 0.0, 1.0]]))],
            SMALL_GRID),
        ValueError, "plane-wave directions have 3 components, the sample points 2"),
    # A drawn stack's rows are checked as a list's are, with the same errors.
    "ensemble_spectrum-stack-direction-length": (
        lambda: ensemble_spectrum(_drawn_stack([0.6, 0.6]), SMALL_GRID),
        ValueError, "plane-wave directions must be unit vectors, got squared norm 0.72"),
    "ensemble_spectrum-stack-direction-nan": (
        lambda: ensemble_spectrum(_drawn_stack([math.nan, 0.0]), SMALL_GRID),
        ValueError, "plane-wave directions must be unit vectors, got squared norm nan"),
    "ensemble_spectrum-stack-direction-dimension": (
        lambda: ensemble_spectrum(_drawn_stack(dim=Dimension.THREE_D), SMALL_GRID),
        ValueError, "plane-wave directions have 3 components, the sample points 2"),
    "ensemble_spectrum-k-overflow": (
        lambda: ensemble_spectrum(
            [_plane_waves(frequencies=np.array([10.0]), c=1e-307)], SMALL_GRID),
        ConfigError, "phases of the plane-wave set leave the float range"),
    "effective_rank-nan": (lambda: effective_rank([1.0, math.nan]),
                           ValueError, "spectrum must be finite"),
    "effective_rank-inf": (lambda: effective_rank([math.inf, 1.0]),
                           ValueError, "spectrum must be finite"),
    # specfun
    "legendre_p-negative-degree": (lambda: legendre_p(-1, 0.5),
                                   ValueError, "degree must be >= 0"),
    "assoc_legendre-negative-degree": (lambda: assoc_legendre(-1, 0, 0.5),
                                       ValueError, "degree must be >= 0"),
    "assoc_legendre-order-above-degree": (lambda: assoc_legendre(2, -3, 0.5),
                                          ValueError, r"\|m\| must be <= n"),
    "norm_assoc_legendre-negative-degree": (lambda: norm_assoc_legendre(-1, 0, 0.5),
                                            ValueError, "need 0 <= m <= n"),
    "norm_assoc_legendre-order-above-degree": (lambda: norm_assoc_legendre(2, 3, 0.5),
                                               ValueError, "need 0 <= m <= n"),
    "norm_assoc_legendre_table-outside": (
        lambda: norm_assoc_legendre_table(3, [0.5, 1.5]),
        ValueError, r"arguments must lie in \[-1, 1\]"),
}


@pytest.mark.parametrize("case", list(REJECTIONS))
def test_library_rejects_malformed_input(case, monkeypatch):
    call, error, message = REJECTIONS[case]
    # An ensemble is rejected alike on either route to its dual.
    routes = each_ensemble_route(monkeypatch) if case.startswith("ensemble") else [None]
    for _ in routes:
        with pytest.raises(error, match=f"^{message}"):
            call()


def test_effective_rank_of_nonpositive_spectrum():
    # lambda_max <= 0: nothing counts, whatever the policy
    assert effective_rank([0.0, -1.0], RankPolicy()) == (0, 0)
    assert effective_rank([-2.0]) == (0, 0)
