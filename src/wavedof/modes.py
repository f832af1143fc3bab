"""Enumeration and evaluation of the space-time-frequency mode basis.

A mode is indexed by (i, n, m): frequency bin i (frequency i/T), degree
n and order m. In 3D the spatial factor is j_n(k r) Y_n^m(rhat); in 2D
it is J_m(k r) e^{i m theta} with n fixed at 0. The time factor is
exp(+2j pi i t / T) / sqrt(T), so bin frequencies are exact integer
multiples of 1/T. The one exception is the stand-in bin of a band that
holds no multiple of 1/T: its modes are evaluated at the center
frequency F0, where :func:`~wavedof.bounds.bin_degrees` takes its degree.

The default 2D order range is m = 0..N(i), matching the counted set;
``two_sided=True`` switches to the full circular-harmonic range
m = -N(i)..N(i), which is what a physical field actually excites.

On a tensor-product grid each mode is a product of one factor per axis
(radial, polar in 3D, azimuthal, time), and each factor depends on part
of the mode's index only: the radial one on its (order, bin), the polar
one on (n, |m|), the azimuthal one on m and the time one on its bin.
:func:`_factor_columns` evaluates each axis once per distinct column
and gives each mode its column's index; it is the only code that
evaluates a mode, and :func:`mode_factors` gathers its per-mode columns
from it. The radial factors come from one Bessel table for the whole
mode set, over every bin's wave-number times every radial node.
:func:`weighted_gram` returns the distinct columns with their Gram,
formed one axis at a time over the distinct columns and read at every
pair of modes, and alone decides whether that Gram is real;
``rankcheck`` and :func:`project_field` both read it.
:func:`gram_diagonals` gives its diagonal alone, one weighted squared
norm per distinct column and axis, with the same norms from Lommel's
integral, for ``rankcheck.gram_readout``. The projection
contracts its samples over t against one column per bin and
synthesizes its residual bin by bin, so it forms no (spatial nodes x
modes) array. :func:`mode_matrix` joins the per-mode factors, column by
column, into the dense (points x modes) matrix, and
:func:`evaluate_mode` is that join on the one-node grid through its
point. :func:`diagonal_normalize` alone scales a Gram, for ``verify``
and the projection alike.

The Jacobi-Anger partial sum of a plane wave is likewise one radial
table times one angular table (:func:`jacobi_anger_values`). The
ball-averaged ``rankcheck.truncation_error`` needs no partial sum: it is
a closed-form tail sum of Lommel terms.

A plane-wave field factors the same way: each wave is a space factor
times a time factor, so :func:`field_values` evaluates one table over
the distinct positions x distinct times of its sample points (one
lexsort of the runs of equal consecutive positions, one sort of the
times) and reads every point from it. On a tensor-product grid that
takes one exponential per (spatial node, wave) and per (time node,
wave), not per (point, wave). Point sets far from a product, such as
scattered points, whose table would outgrow points x waves, fall back
to one exponential per (point, wave).

Every array exponential here, in :func:`field_values` and in the
azimuthal and time factors of :func:`_factor_columns`, is
:func:`~wavedof.specfun.cis`, the library's one e^{i theta} kernel, and
the 2D angular table cos(m dtheta) of :func:`jacobi_anger_values` is its
real part from :func:`~wavedof.specfun.cos_sin`; only the scalar
:func:`plane_wave` keeps ``cmath.exp``, as the independent single-point
reference.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import specfun
from .bounds import (ConfigError, Dimension, PhysicalConfig, _band_edges,
                     _lattice_count, bin_degrees, check_cap)


class ProjectionRankError(RuntimeError):
    """The projection normal system is rank deficient (grid under-resolved)."""


class ModeIndex(NamedTuple):
    """Identity of one basis function."""

    i: int
    n: int
    m: int
    dim: Dimension


@dataclass(frozen=True)
class WaveVector:
    """Propagation direction, frequency and scalar wave-number.

    ``k_hat`` must be a unit vector (2 or 3 components); ``k`` must equal
    2*pi*f/c for the wave speed in use.
    """

    k_hat: tuple
    f: float
    k: float

    def __post_init__(self):
        kh = np.asarray(self.k_hat, dtype=float)
        if kh.shape not in ((2,), (3,)):
            raise ValueError("k_hat must have 2 or 3 components")
        if not abs(np.linalg.norm(kh) - 1.0) <= 1e-12:   # NaN fails too
            raise ValueError("k_hat must be a unit vector")
        object.__setattr__(self, "k_hat", tuple(kh))

    @classmethod
    def from_frequency(cls, f: float, direction, c: float) -> "WaveVector":
        d = np.asarray(direction, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            norm = np.linalg.norm(d)
            if norm == 0.0 or norm == math.inf:
                # d . d left the float range; a finite, non-zero d is
                # rescaled by its largest entry first.
                peak = np.max(np.abs(d), initial=0.0)
                if 0.0 < peak < math.inf:
                    d = d / peak
                    norm = np.linalg.norm(d)
        if not 0.0 < norm < math.inf:
            raise ValueError(f"direction must have a finite, non-zero norm, got {norm}")
        d = d / norm
        return cls(k_hat=tuple(d), f=f, k=2.0 * math.pi * f / c)

    @property
    def dim(self) -> Dimension:
        return Dimension.TWO_D if len(self.k_hat) == 2 else Dimension.THREE_D


@dataclass(frozen=True)
class PlaneWaveSet:
    """A superposition of plane waves at wave speed ``c``.

    ``directions`` has shape (n, 2 or 3) with unit rows, ``frequencies``
    and ``amplitudes`` shape (n,). :func:`synthesize_field` draws one
    from a seed, which the ``verify`` report records with its generator.
    Raises ValueError for an empty set or other shapes, and
    :class:`ConfigError` unless 0 < c < inf. The rows are checked by the
    readers, :func:`field_values` and ``rankcheck.ensemble_spectrum``,
    once per call over every set they read, not here: an ensemble builds
    many sets.
    """

    directions: np.ndarray
    frequencies: np.ndarray
    amplitudes: np.ndarray
    c: float

    def __post_init__(self):
        if len(self.directions) == 0:
            raise ValueError("a plane-wave set must be nonempty")
        if not 0.0 < self.c < math.inf:
            raise ConfigError(f"wave speed must lie in (0, inf), got {self.c}")
        n, *d = np.shape(self.directions)
        if d not in ([2], [3]) or {len(self.frequencies), len(self.amplitudes)} != {n}:
            raise ValueError("directions must have shape (n, 2 or 3), frequencies "
                             "and amplitudes shape (n,)")

    def __len__(self) -> int:
        return len(self.amplitudes)

    def wavevectors(self) -> list[WaveVector]:
        return [WaveVector.from_frequency(f, d, self.c)
                for f, d in zip(self.frequencies, self.directions)]


@dataclass(frozen=True)
class CoefficientVector:
    """Least-squares expansion coefficients plus the relative L2 remainder."""

    coefficients: np.ndarray
    residual: float


def _bin_orders(dim: Dimension, degree: int, two_sided: bool = False):
    """One bin's (n, m) pairs in table order: n = 0..N, m = -n..n in 3D;
    n = 0, m = 0..N in 2D (m = -N..N with ``two_sided``)."""
    if dim is Dimension.THREE_D:
        return ((n, m) for n in range(degree + 1) for m in range(-n, n + 1))
    return ((0, m) for m in range(-degree if two_sided else 0, degree + 1))


def enumerate_modes(dim: Dimension, cfg: PhysicalConfig, *,
                    two_sided: bool = False) -> list[ModeIndex]:
    """All mode indices, ordered by (i, n, m): each bin in its :func:`_bin_orders`.

    Raises :class:`ModeCapError` (:func:`~wavedof.bounds.check_cap`) when
    the count exceeds the cap, before any index is listed.
    """
    bins, _, degrees = bin_degrees(cfg)
    check_cap(_lattice_count(dim, map(int, degrees), two_sided), "modes")
    return [ModeIndex(i, n, m, dim) for i, degree in zip(bins.tolist(), degrees)
            for n, m in _bin_orders(dim, int(degree), two_sided)]


def mode_wavenumber(i: int, cfg: PhysicalConfig) -> tuple[float, float]:
    """Frequency f = i/T of bin i and its wave-number ``cfg.wavenumber(f)``.

    The stand-in bin i = round(F0*T) of a band that holds no i/T
    (:func:`~wavedof.bounds.bin_degrees`) sits at the center frequency,
    where its degree is taken: f = F0.
    """
    if cfg.T <= 0:
        raise ConfigError("mode_wavenumber requires T > 0")
    lo, hi = _band_edges(cfg)
    f = cfg.f0 if lo > hi and i == round(cfg.f0 * cfg.T) else i / cfg.T
    return f, cfg.wavenumber(f)


def _bin_columns(modes: Sequence[ModeIndex],
                 cfg: PhysicalConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(col, k, cycles) of a mode set: each mode's index among its distinct
    bins, in order of first appearance, and each bin's wave-number and
    cycles f*T over the window (:func:`mode_wavenumber`): the integer i,
    or F0*T for a stand-in bin. Bins are numbered from a dict: np.unique's
    first call imports numpy.ma (~20 ms)."""
    column: dict = {}                    # bin -> its index among the bins
    col = np.array([column.setdefault(md.i, len(column)) for md in modes],
                   dtype=np.intp)
    k, cycles = np.empty(len(column)), np.empty(len(column))
    for i, j in column.items():
        f, k[j] = mode_wavenumber(i, cfg)
        cycles[j] = i if f == i / cfg.T else f * cfg.T
    return col, k, cycles


def evaluate_mode(index: ModeIndex, position, t: float,
                  cfg: PhysicalConfig) -> complex:
    """Value of one basis function at a point of the observation region:
    the :func:`mode_matrix` join of its :func:`mode_factors` on the
    one-node grid through (position, t)."""
    pos = np.asarray(position, dtype=float)
    want = 3 if index.dim is Dimension.THREE_D else 2
    if pos.shape != (want,):
        raise ValueError(f"position must have {want} components")
    r = float(np.linalg.norm(pos))
    if r > cfg.R * (1.0 + 1e-9) + 1e-300:
        raise ValueError(f"position norm {r} outside region of radius {cfg.R}")
    if not (-1e-9 * cfg.T <= t <= cfg.T * (1.0 + 1e-9)):
        raise ValueError(f"time {t} outside observation window [0, {cfg.T}]")
    axes = {"r_nodes": np.array([r])}
    if want == 3:
        # At r = 0 only n = 0 survives (j_n(0) = 0 otherwise), and P_0 = 1.
        axes["mu_nodes"] = np.array([pos[2] / r if r > 0 else 1.0])
    axes.update(phi_nodes=np.array([math.atan2(pos[1], pos[0])]),
                t_nodes=np.array([t]))
    factors = mode_factors([index], axes, cfg).values()
    return complex(_join_columns(np.ones((1, 1), dtype=complex), factors)[0, 0])


def plane_wave(wv: WaveVector, position, t: float) -> complex:
    """exp(j(k . r + c k t)), written with the exact phase k(khat.r) + 2 pi f t."""
    pos = np.asarray(position, dtype=float)
    phase = wv.k * float(pos @ np.asarray(wv.k_hat)) + 2.0 * math.pi * wv.f * t
    return cmath.exp(1j * phase)


def jacobi_anger_partial(wv: WaveVector, position, N: int) -> complex:
    """Degree-N partial sum of the harmonic expansion of exp(j k . r).

    3D: 4 pi sum_{n<=N} j^n j_n(k r) sum_m Y_n^m(rhat) conj(Y_n^m(khat)).
    2D: sum_{|m|<=N} j^m J_m(k r) e^{j m (theta_r - theta_k)}.
    One point of :func:`jacobi_anger_values`.
    """
    pts = np.asarray(position, dtype=float)[None]
    return complex(jacobi_anger_values(wv, pts, N)[0])


#: j^n for n mod 4, exact (numpy's complex power is not)
_J_POWERS = np.array([1, 1j, -1, -1j])


def jacobi_anger_values(wv: WaveVector, points: np.ndarray, N: int) -> np.ndarray:
    """Degree-N partial sum of :func:`jacobi_anger_partial` at every row of
    ``points``: one radial row per distinct radius r times one angular
    column per point.

    The radial row holds j^n (2n+1) j_n(k r) in 3D, where the addition
    theorem folds the m-sum into (2n+1) P_n(rhat . khat), and
    j^m eps_m J_m(k r) in 2D, where the +m and -m terms fold into
    eps_m cos(m dtheta) (eps_0 = 1, eps_m = 2). The angular column holds
    P_n(rhat . khat) or cos(m dtheta), the latter from
    :func:`~wavedof.specfun.cos_sin`. Raises ValueError for N < 0, or
    unless ``points`` has shape (P, 2) for a 2D wave, (P, 3) for a 3D one.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    pts = np.asarray(points, dtype=float)
    d = len(wv.k_hat)
    if pts.ndim != 2 or pts.shape[1] != d:
        raise ValueError(f"points of a {d}D wave must have shape (P, {d}), "
                         f"got {pts.shape}")
    r = np.linalg.norm(pts, axis=-1)
    r_uni, r_inv = _distinct_values(r)
    # At r = 0 only the n = 0 radial entry is nonzero, and its angular
    # entry is 1 whatever the direction.
    u = pts / np.where(r > 0, r, 1.0)[:, None]
    n = np.arange(N + 1)
    spherical = wv.dim is Dimension.THREE_D
    weight = _J_POWERS[n % 4] * ((2 * n + 1) if spherical else np.minimum(n, 1) + 1)
    radial = specfun.bessel_table(N, wv.k * r_uni, spherical=spherical).T * weight
    if spherical:
        cos_g = np.clip(u @ np.asarray(wv.k_hat), -1.0, 1.0)
        angular = specfun.legendre_table(N, cos_g)
    else:
        dtheta = np.arctan2(u[:, 1], u[:, 0]) - math.atan2(wv.k_hat[1], wv.k_hat[0])
        angular = specfun.cos_sin(np.outer(n, dtheta))[0]
    return np.einsum("pn,np->p", radial[r_inv], angular)


def synthesize_field(dim: Dimension, cfg: PhysicalConfig, num_waves: int,
                     seed: int) -> PlaneWaveSet:
    """Random band-limited superposition of plane waves.

    Directions are isotropic (normalized Gaussian vectors), frequencies
    uniform over [F0 - W, F0 + W], amplitudes unit-variance complex
    Gaussian. The draw order is fixed, so a seed pins the whole set: it
    is that of ``rng = np.random.default_rng(seed)`` drawing
    ``rng.normal(size=(n, d))`` (each row divided by its
    ``np.linalg.norm``), ``rng.uniform(F0 - W, F0 + W, n)`` and two
    ``rng.standard_normal(n)``, the real and the imaginary parts, whose
    sum is divided by sqrt 2. The draws here are the same, bit for bit,
    from fewer numpy calls: one ``standard_normal(2n)`` holds both parts,
    and numpy's complex divide by a real multiplies each part by its
    inverse.
    """
    if num_waves < 1:
        raise ValueError("num_waves must be >= 1")
    d = 3 if dim is Dimension.THREE_D else 2
    rng = np.random.Generator(np.random.PCG64(seed))
    dirs = rng.standard_normal((num_waves, d))
    # np.linalg.norm's sum of squares, without its copies.
    norm = np.add.reduce(dirs * dirs, axis=1)
    dirs /= np.sqrt(norm, out=norm)[:, None]
    freqs = rng.uniform(cfg.f0 - cfg.W, cfg.f0 + cfg.W, num_waves)
    parts = rng.standard_normal(2 * num_waves)
    parts *= 1.0 / math.sqrt(2.0)
    amps = np.empty(num_waves, dtype=complex)
    amps.real, amps.imag = parts[:num_waves], parts[num_waves:]
    return PlaneWaveSet(directions=dirs, frequencies=freqs, amplitudes=amps,
                        c=cfg.c)


def _check_width(directions: np.ndarray, dim: int) -> None:
    """Raise ValueError unless ``directions`` has ``dim`` columns."""
    if directions.shape[1] != dim:
        raise ValueError(f"plane-wave directions have {directions.shape[1]} "
                         f"components, the sample points {dim}")


def _check_directions(directions: np.ndarray, dim: int) -> None:
    """Raise ValueError unless ``directions`` has ``dim`` columns and every
    row is a unit vector, |d.d - 1| <= 2e-12; the readers of plane-wave
    sets call it once per call, on all their rows at once."""
    _check_width(directions, dim)
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.einsum("ij,ij->i", directions, directions)
    bad = ~(np.abs(sq - 1.0) <= 2e-12)   # NaN is bad too
    if bad.any():
        raise ValueError("plane-wave directions must be unit vectors, got "
                         f"squared norm {float(sq[bad][0])}")


def _run_starts(a: np.ndarray) -> np.ndarray:
    """True at each row of the 2-D ``a`` that differs from the row before."""
    # One != per column, OR-ed: np.any over the (rows x columns) result
    # of a row-wise != is several times slower.
    start = np.zeros(len(a), dtype=bool)
    start[:1] = True
    for j in range(a.shape[1]):
        start[1:] |= a[1:, j] != a[:-1, j]
    return start


def _distinct_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct rows of the 2-D ``a`` in sorted order, inverse index), from
    one lexsort and its run boundaries; ``a == distinct[inverse]``.

    Runs of equal consecutive rows enter the sort as one row each: a
    grid's ``points`` repeat every spatial node once per time node."""
    start = _run_starts(a)
    runs = a[start]
    order = np.lexsort(runs.T[::-1])
    s = runs[order]
    first = _run_starts(s)
    inverse = np.empty(len(runs), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return s[first], inverse[np.cumsum(start) - 1]


def _distinct_values(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct values of the 1-D ``a`` in sorted order, inverse index),
    from one stable sort; ``a == distinct[inverse]``. Of equal values,
    such as 0.0 and -0.0, the first in ``a`` is kept, as
    :func:`_distinct_rows` keeps it for a one-column ``a``."""
    order = np.argsort(a, kind="stable")
    s = a[order]
    first = np.empty(len(a), dtype=bool)
    first[:1] = True
    np.not_equal(s[1:], s[:-1], out=first[1:])
    distinct = s[first]
    del s
    rank = np.cumsum(first)
    rank -= 1
    inverse = np.empty_like(order)
    inverse[order] = rank
    return distinct, inverse


def field_values(pws: PlaneWaveSet, positions: np.ndarray,
                 times: np.ndarray) -> np.ndarray:
    """Evaluate a plane-wave set at sample points (vectorized).

    Wave w at (x, t) is a space factor exp(j k_w khat_w . x) times a time
    factor a_w exp(2j pi f_w t). Over the distinct positions U and the
    distinct times V the field is the table S @ Tm, with S (len(U) x
    waves) and Tm (waves x len(V)), read at each point's (position,
    time) pair: len(U) + len(V) exponentials per wave instead of one per
    point. When that table would hold more entries than points x waves
    (positions and times far from a product set, e.g. scattered
    points), each point takes one exponential per wave instead, so no
    array exceeds points x waves either way. Raises ValueError unless
    positions have shape (P, 2) or (P, 3) and times (P,), for a
    non-finite position or time, or a direction row of another dimension
    than the positions or not of unit length, and :class:`ConfigError`
    when a wave-number or a phase leaves the float range.
    """
    pos = np.asarray(positions, dtype=float)
    t = np.asarray(times, dtype=float)
    if pos.ndim != 2 or pos.shape[1] not in (2, 3) or t.shape != pos.shape[:1]:
        raise ValueError("positions must have shape (P, 2) or (P, 3) and times (P,), "
                         f"got {pos.shape} and {t.shape}")
    if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(t))):
        raise ValueError("sample positions and times must be finite")
    _check_directions(pws.directions, pos.shape[-1])
    u, s_inv = _distinct_rows(pos)
    tu, t_inv = _distinct_values(t)
    scattered = len(u) * len(tu) > len(pos) * len(pws)
    with np.errstate(over="ignore", invalid="ignore"):
        k = 2.0 * math.pi * pws.frequencies / pws.c
        omega = 2.0 * math.pi * pws.frequencies
        phases = ([(pos @ pws.directions.T) * k + omega * t[:, None]] if scattered
                  else [(u @ pws.directions.T) * k, omega[:, None] * tu])
    if not all(np.all(np.isfinite(p)) for p in phases):
        raise ConfigError("phases of the plane-wave set leave the float range")
    factors = [specfun.cis(p) for p in phases]
    if scattered:
        return factors[0] @ pws.amplitudes
    table = factors[0] @ (pws.amplitudes[:, None] * factors[1])
    del phases, factors
    # Each point's flat index into the table, written over s_inv.
    s_inv *= len(tu)
    s_inv += t_inv
    return table.ravel()[s_inv]


def _factor_columns(modes: Sequence[ModeIndex], axes: dict,
                    cfg: PhysicalConfig) -> tuple[dict, np.ndarray]:
    """(factors, cycles): the factors of :func:`mode_factors` over their
    distinct columns, {axis: (columns, index)}, with mode j's factor on the
    axis in column index[j] of columns (nodes x D), and the cycles f*T of
    the bins, one per time column (:func:`_bin_columns`). A radial column
    is one (order, bin), a polar one (n, |m|), an azimuthal one m and a
    time one a bin, so each is evaluated once however many modes share
    it. Raises
    ValueError when ``modes`` is empty or a mode's ``dim`` is not the
    grid's."""
    if len(modes) == 0:
        raise ValueError("modes must be nonempty")
    spherical = "mu_nodes" in axes
    if {md.dim for md in modes} - {Dimension.THREE_D if spherical else Dimension.TWO_D}:
        raise ValueError("modes and grid differ in dimension")
    m = np.array([md.m for md in modes])
    order = np.array([md.n for md in modes]) if spherical else np.abs(m)
    top = int(order.max())
    # One radial table for the whole mode set, over k r for every bin's
    # wave-number k and radial node r, up to the highest order; each
    # (order, bin) reads its order's row at its bin's columns.
    col, k, cycles = _bin_columns(modes, cfg)
    r = axes["r_nodes"]
    table = specfun.bessel_table(top, np.multiply.outer(k, r).ravel(),
                                 spherical=spherical)
    pair, index = _distinct_values(order * len(k) + col)
    rows = np.add.outer(np.arange(len(r)), pair % len(k) * len(r))
    out = {"r": (table[pair // len(k), rows], index)}
    if spherical:
        plm = specfun.norm_assoc_legendre_table(top, axes["mu_nodes"])
        pair, index = _distinct_values(order * (top + 1) + np.abs(m))
        out["mu"] = plm[pair // (top + 1), pair % (top + 1)].T, index
    m_col, index = _distinct_values(m)
    sign = np.where((m_col < 0) & (m_col % 2 == 1), -1.0, 1.0)
    out["phi"] = specfun.cis(np.outer(axes["phi_nodes"], m_col)) * sign, index
    phase = np.outer(axes["t_nodes"], 2.0 * math.pi * cycles) / cfg.T
    out["t"] = specfun.cis(phase) / math.sqrt(cfg.T), col
    return out, cycles


def mode_factors(modes: Sequence[ModeIndex], axes: dict,
                 cfg: PhysicalConfig) -> dict:
    """Per-axis factors of every mode on a tensor-product grid.

    ``axes`` holds the grid's ``<axis>_nodes``; a ``mu_nodes`` axis makes
    the modes 3D. Returns {"r": (n_r, M), "mu": (n_mu, M) in 3D only,
    "phi": (n_phi, M), "t": (n_t, M)}, in the grid's axis order. Mode j
    at the grid node (r, [mu], phi, t) is the product of column j of each
    factor: the Bessel radial factor, the orthonormal Legendre factor,
    e^{i m phi} (negated for odd negative m) and exp(2j pi f t) / sqrt(T),
    with the bin's frequency f and wave-number from :func:`mode_wavenumber`.
    Each column is read from the distinct columns of
    :func:`_factor_columns`, the only code that evaluates a mode. Raises
    ValueError when ``modes`` is empty or a mode's ``dim`` is not the
    grid's.
    """
    return {axis: f[:, index]
            for axis, (f, index) in _factor_columns(modes, axes, cfg)[0].items()}


def _join_columns(u: np.ndarray, factors) -> np.ndarray:
    """Multiply the (rows x M) ``u`` by each (nodes x M) factor in turn,
    column by column: row (a, b) of the result is u[a] * factor[b], so
    the rows come out in the factors' index order, the last fastest."""
    for f in factors:
        u = (u[:, None, :] * f[None]).reshape(len(u) * len(f), u.shape[1])
    return u


def mode_matrix(modes: Sequence[ModeIndex], grid, cfg: PhysicalConfig) -> np.ndarray:
    """Matrix of mode values over grid points, shape (points, modes).

    Column j is the outer product of the per-axis factors of mode j
    (:func:`mode_factors`), raveled in the grid's point order.
    """
    factors = mode_factors(modes, grid.axes, cfg).values()
    return _join_columns(np.ones((1, len(modes)), dtype=complex), factors)


def _check_gram_entries(a: np.ndarray) -> None:
    """Raise :class:`ConfigError` unless every entry is finite."""
    if not np.isfinite(a).all():
        raise ConfigError("Gram entries leave the float range; the quadrature "
                          "weights of the region are too large")


def weighted_gram(modes: Sequence[ModeIndex], grid,
                  cfg: PhysicalConfig) -> tuple[dict, np.ndarray]:
    """(columns, G): the distinct factor columns of ``modes``
    (:func:`_factor_columns`) on the axes of a ``rankcheck.SpaceTimeGrid``,
    and their Gram G[p, q] = sum_s w_s mode_p(s) conj(mode_q(s)).

    Modes, points and weights are all products over the axes, so the sum
    factors: G is the elementwise product of one weighted Gram per axis,
    and no (points x modes) matrix is formed. Each axis Gram is formed
    over the axis's D distinct columns (D x D) and read at every pair of
    modes' columns. G is real, decided exactly, when the time axis is
    centred on T/2 (t_0 + t_last within 4 eps T of T, as on every
    ``build_grid`` grid) and the cycles f*T (:func:`_factor_columns`) of
    every pair of the modes' bins differ by an integer; it is then the
    float64 product of the axis Grams' real parts, and complex
    otherwise. The radial and polar Grams sum products of real Bessel
    and Legendre factors. The azimuthal one is sign_p sign_q
    (2 pi / n_phi) sum_j e^{i (m_p - m_q) 2 pi j / n_phi}: 2 pi when
    n_phi divides m_p - m_q, else 0. The time nodes and weights are
    symmetric about their centre t_c (the grid contract, which
    ``SpaceTimeGrid`` checks when built), so the time one is
    e^{2i pi (c_p - c_q) t_c / T} times a sum of cos(2 pi (c_p - c_q) x / T)
    over the nodes x = t - t_c: real when t_c = T/2 and c_p - c_q is an
    integer. Lattice bins have c = i, and a stand-in bin is the only
    bin of its band, so every mode set of :func:`enumerate_modes` has a
    real Gram on a ``build_grid`` grid; a hand-built set mixing a
    stand-in bin with other bins, or a time axis centred elsewhere, does
    not. Raises :class:`ConfigError` when an entry leaves the float
    range.
    """
    columns, cycles = _factor_columns(modes, grid.axes, cfg)
    t = grid.axes["t_nodes"]
    frac = np.modf(cycles)[0]
    real = bool(abs(t[0] + t[-1] - cfg.T) <= 4.0 * np.finfo(float).eps * cfg.T
                and (frac == frac[:1]).all())
    g = np.ones((len(modes),) * 2, dtype=float if real else complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for axis, (f, index) in columns.items():
            a = (f * grid.axes[f"{axis}_weights"][:, None]).T @ (
                f.conj() if f.dtype.kind == "c" else f)
            g *= (a.real if real else a)[index][:, index]
    _check_gram_entries(g)
    return columns, g


def gram_diagonals(modes: Sequence[ModeIndex], grid,
                   cfg: PhysicalConfig) -> tuple[np.ndarray, np.ndarray]:
    """(quadrature, closed): each mode's squared norm on a
    ``rankcheck.SpaceTimeGrid``, the diagonal of :func:`weighted_gram`
    with no M x M array, and its exact value over the ball and window;
    both in units of R^d, so neither leaves the float range.

    The quadrature norm is the product over the axes of its columns'
    weighted squared norms, one per distinct column (O(nodes x distinct
    columns)), checked as :func:`weighted_gram` and
    :func:`diagonal_normalize` check theirs, with their ConfigErrors. In
    closed form the time factor has unit norm, the angular one 2 pi
    (e^{i m phi}) or 1 (Y_n^m), and Lommel's integral gives the radial
    one, R^d / 2 (Z_n^2 - Z_{n-1} Z_{n+1})(k R) with Z = J_|m| in 2D and
    j_n in 3D (:func:`~wavedof.specfun._lommel_table`; R^d / d at k = 0).
    Raises ValueError when ``modes`` is empty or a mode's ``dim`` is not
    the grid's.
    """
    columns, _ = _factor_columns(modes, grid.axes, cfg)
    quad = np.ones(len(modes))
    with np.errstate(over="ignore", invalid="ignore"):
        for axis, (f, index) in columns.items():
            w = grid.axes[f"{axis}_weights"]
            quad *= np.einsum("n,nd,nd->d", w, f, f.conj()).real[index]
    _check_gram_entries(quad)
    _unit_scale(quad)
    spherical = "mu_nodes" in grid.axes
    for _ in range(3 if spherical else 2):
        quad /= cfg.R
    order = np.array([md.n if spherical else abs(md.m) for md in modes])
    col, k, _ = _bin_columns(modes, cfg)
    lommel = specfun._lommel_table(int(order.max()), k * cfg.R, spherical=spherical)
    return quad, (0.5 if spherical else math.pi) * lommel[order, col]


def _unit_scale(d: np.ndarray) -> np.ndarray:
    """1/sqrt(d), the scale of :func:`diagonal_normalize` for the Gram
    diagonal d. Raises its :class:`ConfigError` unless every d > 0 and
    every product of two scales is finite."""
    if (d > 0).all():
        s = 1.0 / np.sqrt(d)
        top = float(s.max())
        if math.isfinite(top * top):
            return s
    raise ConfigError(f"Gram diagonal cannot be normalized (least entry "
                      f"{d.min():.3g}); the quadrature weights may leave "
                      "the float range")


def diagonal_normalize(g: np.ndarray) -> np.ndarray:
    """Scale a Gram matrix to unit diagonal (scale-free independence test).

    ``verify`` and :func:`project_field` both scale with it. Raises
    :class:`ConfigError` unless the diagonal d is positive and every
    1/sqrt(d_p d_q) is finite, which fails when the quadrature weights of
    the region leave the float range.
    """
    s = _unit_scale(np.real(np.diag(g)))
    return g * np.outer(s, s)


#: least eigenvalue ratio of the diagonal-normalized normal matrix that
#: :func:`project_field` accepts
_RCOND = 1e-10


def project_field(samples: np.ndarray, modes: Sequence[ModeIndex], grid,
                  cfg: PhysicalConfig) -> CoefficientVector:
    """Weighted least-squares projection of sampled field values onto modes.

    ``samples`` must align with ``grid`` points and there must be at
    least as many points as modes. With A the (points x modes) matrix
    of mode values and W the weights, the normal system
    (A^H W A) c = A^H W y is solved axis by axis: A^H W A is the
    conjugate of :func:`weighted_gram`, A^H W y is contracted over t
    against each bin's one time column, then over phi bin by bin, then
    mu (3D), then r. The residual synthesizes A c the other way round:
    the r [and mu] factors joined per mode, summed over phi into one
    (spatial nodes) column per bin, and that times the bins' time
    columns. So neither A nor any (spatial nodes x modes) array is
    formed. When the normal matrix is real, which :func:`weighted_gram`
    decides, its eigenvectors are real and act on the complex right-hand
    side directly. Raises ValueError for
    non-finite samples, :class:`ConfigError` from
    :func:`diagonal_normalize`, and :class:`ProjectionRankError` when a
    mode has no weight on the grid, or when the diagonal-normalized
    normal matrix has an eigenvalue ratio lambda_min / lambda_max below
    ``_RCOND`` (1e-10).
    """
    y = np.asarray(samples, dtype=complex)
    if y.shape != (len(grid),):
        raise ValueError("samples must align with grid points")
    if not np.all(np.isfinite(y)):
        raise ValueError("samples must be finite")
    if len(modes) > len(y):
        raise ValueError("more modes than grid points")
    columns, normal = weighted_gram(modes, grid, cfg)
    normal = normal.conj()
    diag = np.real(np.diag(normal))
    if np.any(diag <= 0):
        raise ProjectionRankError(
            f"mode {modes[int(np.argmin(diag))]} has zero norm on the grid")
    lam, vec = np.linalg.eigh(diagonal_normalize(normal))
    if lam[0] < _RCOND * lam[-1]:
        raise ProjectionRankError(
            f"normalized Gram eigenvalue ratio {lam[0] / lam[-1]:.1e} < {_RCOND:g}; "
            "modes dependent or grid under-resolved")
    ax = grid.axes
    t_cols, t_index = columns.pop("t")
    e_cols, e_index = columns.pop("phi")
    outer = {a: f[:, index] for a, (f, index) in columns.items()}   # r, [mu]
    # The modes of each bin d = 0..D_t-1, in order.
    by_bin = np.argsort(t_index, kind="stable")
    bins = np.split(by_bin, np.flatnonzero(np.diff(t_index[by_bin])) + 1)
    n_phi = len(e_cols)
    # b = A^H W y: t against the D_t bin columns, phi bin by bin, then
    # each outer axis in turn.
    yt = (t_cols.conj() * ax["t_weights"][:, None]).T @ y.reshape(-1, len(t_cols)).T
    we = e_cols.conj() * ax["phi_weights"][:, None]
    b = np.empty((yt.shape[1] // n_phi, len(modes)), dtype=complex)
    for d, sel in enumerate(bins):
        b[:, sel] = yt[d].reshape(-1, n_phi) @ we[:, e_index[sel]]
    for a in reversed(list(outer)):
        wa = outer[a].conj() * ax[f"{a}_weights"][:, None]
        b = np.einsum("anj,nj->aj", b.reshape(-1, *wa.shape), wa)
    s = 1.0 / np.sqrt(diag)             # back from unit-diagonal coordinates
    coeffs = s * (vec @ ((vec.conj().T @ (s * b[0])) / lam))
    # A c: the outer factors joined per mode, summed over phi into one
    # spatial column per bin, then times the bins' time columns.
    u = _join_columns(coeffs[None, :], outer.values())
    v = np.empty((t_cols.shape[1], len(u) * n_phi), dtype=complex)
    for d, sel in enumerate(bins):
        v[d] = (u[:, sel] @ e_cols[:, e_index[sel]].T).ravel()
    sw = np.sqrt(np.multiply.outer(ax["space_weights"], ax["t_weights"]))
    y = y.reshape(sw.shape)
    denom = np.linalg.norm(y * sw)
    fit = v.T @ t_cols.T
    fit -= y
    fit *= sw
    resid = np.linalg.norm(fit)
    return CoefficientVector(coefficients=coeffs,
                             residual=float(resid / denom) if denom > 0 else 0.0)
