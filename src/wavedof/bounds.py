"""Closed-form degrees-of-freedom bounds and exact discrete mode sums.

Every quantity is a pure function of a :class:`PhysicalConfig`, the
constraint tuple (R, W, T, F0, c): observation ball radius, half
bandwidth, observation time, center frequency and wave speed. The
closed forms are reproduced verbatim; the exact sums count the discrete
space-frequency lattice directly, so the two can be compared.

Ceilinged quantities snap values within a 1e-9 relative distance of an
integer before rounding up, which keeps counts exact when products such
as e*pi*R/c * f are integral up to floating-point noise. Lattice counts
stay exact beyond int64. :class:`ConfigError` (CLI exit 2) also flags a
count that overflows the float range; :class:`ModeCapError` (exit 3) a
lattice with more frequency bins than DEFAULT_MODE_CAP.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

SPEED_OF_LIGHT = 3e8

_SNAP = 1e-9

DEFAULT_MODE_CAP = 10_000_000


class ConfigError(ValueError):
    """A physical configuration violates its invariants."""


class ModeCapError(RuntimeError):
    """Requested enumeration exceeds the configured mode cap."""


class Dimension(enum.Enum):
    """Spatial dimensionality of the observation region."""

    TWO_D = "2d"
    THREE_D = "3d"


def _snap(v, rounding):
    """Elementwise ``rounding`` (np.ceil or np.floor) to integral floats,
    after snapping values within _SNAP (relative) of an integer onto it."""
    v = np.asarray(v, dtype=float)
    if not np.isfinite(v).all():
        raise ConfigError("a count overflows the float range")
    r = np.rint(v)  # half to even, as round()
    return np.where(np.abs(v - r) <= _SNAP * np.maximum(1.0, np.abs(v)), r, rounding(v))


def iceil(v: float) -> int:
    """Ceiling with a relative snap to nearby integers."""
    return int(_snap(v, np.ceil))


def ifloor(v: float) -> int:
    """Floor with a relative snap to nearby integers."""
    return int(_snap(v, np.floor))


@dataclass(frozen=True)
class PhysicalConfig:
    """Observation constraints: ball radius R (m), half bandwidth W (Hz),
    time T (s), center frequency F0 (Hz) and wave speed c (m/s).

    The band [F0 - W, F0 + W] must not extend below zero frequency.
    """

    R: float
    W: float
    T: float
    f0: float
    c: float = SPEED_OF_LIGHT

    def __post_init__(self):
        for name in ("R", "W", "T", "f0", "c"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.R < 0:
            raise ConfigError(f"radius must be >= 0, got {self.R}")
        if self.W < 0:
            raise ConfigError(f"half bandwidth must be >= 0, got {self.W}")
        if self.T < 0:
            raise ConfigError(f"observation time must be >= 0, got {self.T}")
        if self.c <= 0:
            raise ConfigError(f"wave speed must be > 0, got {self.c}")
        if self.f0 < self.W:
            raise ConfigError(
                f"band edge below zero: F0={self.f0} < W={self.W}"
            )

    @property
    def space_factor(self) -> float:
        """The recurring spatial scale e*pi*R/c (seconds)."""
        return math.e * math.pi * self.R / self.c

    def wavenumber(self, f: float) -> float:
        """Scalar wave-number 2*pi*f/c in rad/m."""
        return 2.0 * math.pi * f / self.c


class FrequencyBin(NamedTuple):
    """One discrete frequency bin: index i, frequency f = i/T, and the
    spatial truncation degree at that frequency."""

    i: int
    f: float
    degree: int


def dof_time_band(W: float, T: float) -> int:
    """Time-bandwidth signal count ceil(2WT) + 1."""
    if W < 0 or T < 0:
        raise ConfigError("W and T must be >= 0")
    return iceil(2.0 * W * T) + 1


def dof_space(dim: Dimension, f: float, R: float, c: float = SPEED_OF_LIGHT) -> int:
    """Single-frequency spatial mode count over a ball of radius R."""
    if f < 0 or R < 0:
        raise ConfigError("f and R must be >= 0")
    return _lattice_count(dim, [iceil(math.e * math.pi * f * R / c)])


def truncation_degree(R: float, k: float) -> int:
    """Largest harmonic degree observable at wave-number k: ceil(e*k*R/2)."""
    if R < 0 or k < 0:
        raise ConfigError("R and k must be >= 0")
    return iceil(math.e * k * R / 2.0)


def _lattice_count(dim: Dimension, degrees, two_sided: bool = False) -> int:
    """Modes over bins of the given integer degrees N, in Python ints:
    (N+1)^2 per bin in 3D; N+1 per bin in 2D, or 2N+1 with ``two_sided``."""
    if dim is Dimension.THREE_D:
        return sum((n + 1) ** 2 for n in degrees)
    return sum(2 * n + 1 if two_sided else n + 1 for n in degrees)


def bin_degrees(cfg: PhysicalConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arrays (i, f, degree) of the frequency bins i/T covering the band:
    indices (Python ints beyond int64), frequencies, and degrees
    N(i) = ceil(e*pi*R*f/c) as integral floats, exact; read with ``int()``.

    Bins are the integers i with F0 - W <= i/T <= F0 + W. When no
    integer falls inside the band (possible only for 2WT < 1), a single
    stand-in bin at the center frequency is returned with i = round(F0*T)
    so that narrowband configurations keep their single-frequency count.
    Each bin holds a mode, so more than DEFAULT_MODE_CAP bins raise
    :class:`ModeCapError` before anything is allocated.
    """
    if cfg.T <= 0:
        raise ConfigError("frequency bins require T > 0")
    lo = iceil((cfg.f0 - cfg.W) * cfg.T)
    hi = ifloor((cfg.f0 + cfg.W) * cfg.T)
    if hi - lo >= DEFAULT_MODE_CAP:
        raise ModeCapError(f"{hi - lo + 1} frequency bins exceed the mode cap "
                           f"of {DEFAULT_MODE_CAP}")
    a = cfg.space_factor
    if lo > hi:
        i, f, v = np.array([round(cfg.f0 * cfg.T)]), np.array([cfg.f0]), [a * cfg.f0]
    else:
        i = np.arange(lo, hi + 1, dtype=np.int64 if hi < 2**63 else object)
        x = i.astype(float)
        with np.errstate(over="ignore"):  # _snap rejects the overflow
            f, v = x / cfg.T, a * x / cfg.T
    return i, f, _snap(v, np.ceil)


def frequency_bins(cfg: PhysicalConfig) -> list[FrequencyBin]:
    """List view of :func:`bin_degrees`: one :class:`FrequencyBin` per bin."""
    return [FrequencyBin(i, f, int(n))
            for i, f, n in zip(*(a.tolist() for a in bin_degrees(cfg)))]


def exact_mode_sum(dim: Dimension, cfg: PhysicalConfig) -> int:
    """Exact lattice count: (N(i)+1)^2 in 3D, or N(i)+1 in 2D, summed over
    :func:`bin_degrees` in Python ints. Rejects T <= 0; use dof_space there."""
    return _lattice_count(dim, [int(d) for d in bin_degrees(cfg)[2].tolist()])


def closed_form_bound(dim: Dimension, cfg: PhysicalConfig) -> float:
    """Closed-form DoF bound for the full space-time-frequency constraint.

    3D:  TW[(2W^2/3 + 2 F0^2)(e pi R/c)^2 + 6 e pi R F0/c + 13/3]
         + ((F0 - W) e pi R/c + 1)^2
    2D:  4WT + 1 + 2 e pi R F0/c + 2 e pi R T W^2/c
    """
    a = cfg.space_factor
    if dim is Dimension.THREE_D:
        return (
            cfg.T * cfg.W * ((2.0 * cfg.W**2 / 3.0 + 2.0 * cfg.f0**2) * a * a
                             + 6.0 * a * cfg.f0 + 13.0 / 3.0)
            + ((cfg.f0 - cfg.W) * a + 1.0) ** 2
        )
    return 4.0 * cfg.W * cfg.T + 1.0 + 2.0 * a * cfg.f0 + 2.0 * a * cfg.T * cfg.W**2


def asymptotic_dof_3d(cfg: PhysicalConfig) -> float:
    """Large-constraint approximation 2TW(W^2/3 + F0^2)(e pi R/c)^2."""
    a = cfg.space_factor
    return 2.0 * cfg.T * cfg.W * (cfg.W**2 / 3.0 + cfg.f0**2) * a * a


def average_mode_density_3d(cfg: PhysicalConfig) -> float:
    """Band-averaged spatial mode count per Hz: (F0^2 + W^2)(e pi R/c)^2."""
    a = cfg.space_factor
    return (cfg.f0**2 + cfg.W**2) * a * a


@dataclass(frozen=True)
class BoundReport:
    """All bound values for one configuration.

    ``exact2d``/``exact3d`` hold the exact lattice counts for T > 0 and
    fall back to the single-frequency spatial counts at T = 0.
    ``n0`` is the lattice offset (F0 - W) e pi R / c.
    """

    config: PhysicalConfig
    d_2wt: int
    d_space2d: int
    d_space3d: int
    thm1: float
    thm2: float
    exact2d: int
    exact3d: int
    asym3d: float
    avg_density: float
    n0: float

    _FIELDS = ("d_2wt", "d_space2d", "d_space3d", "thm1", "thm2",
               "exact2d", "exact3d", "asym3d", "avg_density", "n0")

    def as_dict(self) -> dict:
        out = {"R": self.config.R, "W": self.config.W, "T": self.config.T,
               "F0": self.config.f0, "c": self.config.c}
        for name in self._FIELDS:
            out[name] = getattr(self, name)
        return out


@np.errstate(over="ignore", invalid="ignore")
def bound_report(cfg: PhysicalConfig) -> BoundReport:
    """Evaluate every bound for one configuration.

    A closed form past the float range reads inf, or raises
    :class:`ConfigError` where Python's float ``**`` overflows; a count
    past it raises ConfigError. That overflow is handled here, so numpy's
    overflow warnings are silenced.
    """
    space2d = dof_space(Dimension.TWO_D, cfg.f0, cfg.R, cfg.c)
    space3d = dof_space(Dimension.THREE_D, cfg.f0, cfg.R, cfg.c)
    if cfg.T > 0:
        exact2d = exact_mode_sum(Dimension.TWO_D, cfg)
        exact3d = exact_mode_sum(Dimension.THREE_D, cfg)
    else:
        exact2d, exact3d = space2d, space3d
    try:
        return BoundReport(
            config=cfg,
            d_2wt=dof_time_band(cfg.W, cfg.T),
            d_space2d=space2d,
            d_space3d=space3d,
            thm1=closed_form_bound(Dimension.TWO_D, cfg),
            thm2=closed_form_bound(Dimension.THREE_D, cfg),
            exact2d=exact2d,
            exact3d=exact3d,
            asym3d=asymptotic_dof_3d(cfg),
            avg_density=average_mode_density_3d(cfg),
            n0=(cfg.f0 - cfg.W) * cfg.space_factor,
        )
    except OverflowError as exc:  # float ** overflows; float * gives inf
        raise ConfigError("a closed-form bound overflows the float range") from exc
