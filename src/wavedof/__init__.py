"""wavedof: space-time-frequency degrees-of-freedom bounds for wave fields.

Counts the orthogonal signals observable in a ball of radius R over a
band F0 +/- W for a time T, enumerates the underlying wave-mode basis,
and verifies the counts numerically through quadrature Gram matrices
and eigen-spectrum effective ranks.
"""

__version__ = "0.1.0"

from .bounds import (BoundReport, ConfigError, Dimension, ModeCapError,
                     PhysicalConfig, asymptotic_dof_3d, average_mode_density_3d,
                     bound_report, closed_form_bound, dof_space, dof_time_band,
                     exact_mode_sum, frequency_bins, truncation_degree)
from .modes import (CoefficientVector, ModeIndex, PlaneWaveSet, WaveStack,
                    WaveVector, draw_ensemble, enumerate_modes, evaluate_mode,
                    jacobi_anger_partial, mode_wavenumber, plane_wave,
                    project_field, synthesize_field)
from .rankcheck import (RankPolicy, ResolutionError, SpaceTimeGrid,
                        SpectrumReport, build_grid, diagonal_normalize,
                        effective_rank, eigen_spectrum, ensemble_spectrum,
                        gram_of_modes, gram_readout, truncation_error)
from .specfun import (Angle, assoc_legendre, bessel_J, legendre_p,
                      norm_assoc_legendre, sph_harm, spherical_bessel_j)

__all__ = [
    "Angle", "BoundReport", "CoefficientVector", "ConfigError", "Dimension",
    "ModeCapError", "ModeIndex", "PhysicalConfig", "PlaneWaveSet",
    "RankPolicy", "ResolutionError", "SpaceTimeGrid", "SpectrumReport",
    "WaveStack", "WaveVector", "assoc_legendre", "asymptotic_dof_3d",
    "average_mode_density_3d", "bessel_J", "bound_report", "build_grid",
    "closed_form_bound", "diagonal_normalize", "dof_space", "dof_time_band",
    "draw_ensemble",
    "effective_rank", "eigen_spectrum", "ensemble_spectrum", "enumerate_modes",
    "evaluate_mode", "exact_mode_sum", "frequency_bins", "gram_of_modes",
    "gram_readout", "jacobi_anger_partial", "legendre_p", "mode_wavenumber",
    "norm_assoc_legendre", "plane_wave", "project_field", "sph_harm",
    "spherical_bessel_j", "synthesize_field", "truncation_degree",
    "truncation_error",
]
