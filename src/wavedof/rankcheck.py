"""Numerical verification of mode counts via quadrature and eigen-spectra.

Builds Gauss-Legendre product grids over ball x time, assembles Gram
matrices and ensemble covariance spectra, and reduces Hermitian spectra
to two effective-rank readouts. The normalized Gram of the modes of
``enumerate_modes`` is the identity in closed form on these grids, so
:func:`gram_readout`, which ``verify`` reads, takes its ranks from M
unit eigenvalues with no M x M array or ``eigh`` and checks the
quadrature's diagonal against Lommel's norms; :func:`gram_of_modes`
assembles the dense Gram, its oracle. The ensemble dual is complex
Hermitian, and every eigendecomposition here is the one checked
``eigh`` of :func:`eigen_spectrum`. The grid is a
tensor product (r x [mu] x phi x t), laid out by :func:`build_grid`
alone and held as its axes only: per-axis nodes and weights, the unit
``directions`` of the angular nodes, and the weights of the spatial
nodes (radii x directions), whose layout every reader assumes and
:class:`SpaceTimeGrid` alone checks. Node coordinates and per-point
arrays are formed only where read. Every mode and every plane wave is a
product over the same axes, and so is each weight, so the Gram matrix
and the ensemble are assembled axis by axis: the Gram matrix is
the elementwise product of one small weighted Gram per axis, and each
ensemble field is a (spatial nodes x waves) by (waves x time nodes)
matrix product. The ensemble is read as one
:class:`~wavedof.modes.WaveStack`: directions (F, W, d), frequencies and
amplitudes (F, W), every field zero-padded to the longest, with each
field's wave speed and wave count, so no reader walks the fields.
``verify`` draws it whole (:func:`~wavedof.modes.draw_ensemble`, each
seed straight into its rows); a list of plane-wave sets is stacked once
per call (:func:`_wave_stack`). Either way its direction rows are
checked once per call, all together. The ensemble's dual has two routes, both
reading the stack, chosen from its shape alone
(:func:`_pair_route_is_cheaper`): F fields, the longest of W
waves, n_x kept spatial nodes, n_t time nodes. For few waves in all,
n_x (F W)^2 < n_x 2 F (F + W) n_t + ``_BLOCKED_FIXED`` with F W <= 256,
it is summed over pairs of waves
(:func:`_pair_dual`): the grid's quadratures K_s and K_t of the
plane-wave correlation e^{i (k_w - k_v).x} e^{2 pi i (f_w - f_v) t}
(Kennedy, Sadeghi, Abhayapala & Jones, IEEE TSP 55(6), 2007), each the
symmetric product of one cos and sin table over runs of nodes, with no
time basis; verify3d (4 x 16) takes it. Otherwise (verify2d, 128 x 64)
the fields are blocked as follows. When the azimuth count is even,
every spatial node x has its antipode -x on the grid with the same
weight, and a field at -x is
the one at x with its space phases conjugated; so the ensemble takes one
cos and sin pair per (antipodal node pair, wave) and never forms the two
fields; the pairs come from one fold, :func:`_antipodal_fold`. In 2D
with an odd azimuth count it takes cos + i sin per (node, wave). The
time factor of every field, with the square roots of the time weights
folded in, is carried in the band's time basis: L
orthonormal columns Q spanning sqrt(w_t) e^{2 pi i f t} for every f
between the fields' lowest and highest frequency. Over a window T a
band of width 2W needs only about 2WT + O(log 1/eps) such functions
(5 of 21 time nodes at NARROW, 16 of 52 at the 3D benchmark point),
while the time grid follows the carrier. Each weighted field row y lies
in span(Q) up to rounding, and with P = I - Q Q^H,
Y Q Q^H Y^H = Y Y^H - (Y P)(Y P)^H, so the dual moves by about
(n_t eps)^2 of its trace. When the time nodes cannot be compressed, Q
has all n_t columns and is a unitary rotation. The time nodes are
symmetric about the window's centre t_c (every grid is: the
:class:`SpaceTimeGrid` contract), so with tau = t - t_c and the
band's centre f_c, Q is e^{-2 pi i f_c tau} times real columns, each
even or odd in tau: two small real SVDs over the nodes with tau >= 0
find them (:func:`_band_time_halves`), and each wave's coordinates in
Q are real products over those nodes times one phase per wave
(:func:`_band_time_coordinates`), formed a chunk of fields at a time,
so neither Q nor a (fields x waves x time nodes) array is formed. The
field Gram is summed block by block: a block is a run of spatial nodes
for every field, its phases taken a chunk of fields at a time as one
product of the nodes with every wave vector side by side, and the
spatial weights scale the columns of its product. Each block holds the
real and the imaginary parts of its columns apart, so the Hermitian
dual is summed in real arithmetic (:func:`_blocked_dual`): its real part
one symmetric product of the block's real view, its imaginary part one
product of the imaginary and the real parts, antisymmetrized. Every
pair comes from :func:`~wavedof.specfun.cos_sin`, always on contiguous
arrays, and a block's temporaries stay within ``_BLOCK_ENTRIES``
complex entries (2 MB). No (points x modes), (points x waves) or
(points x points) array is formed. The harmonic truncation error needs no grid: it is a
closed-form tail sum of Lommel terms (:func:`truncation_error`).
The readouts are:

* threshold rank: eigenvalues >= epsilon * lambda_max,
* energy rank: smallest leading set capturing an eta fraction of the trace.

Both policies are configuration-exposed through :class:`RankPolicy`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .bounds import ConfigError, Dimension, PhysicalConfig, check_cap
from .modes import (ModeIndex, PlaneWaveSet, WaveStack,
                    diagonal_normalize,  # re-exported
                    _check_directions, _check_width, gram_diagonals,
                    weighted_gram)
from .specfun import _lommel_table, _miller_start, cos_sin


class ResolutionError(RuntimeError):
    """Grid resolution below the documented minimum for the request."""


@dataclass(frozen=True)
class RankPolicy:
    """Effective-rank thresholds: relative eigenvalue cut and energy fraction.

    Raises :class:`ConfigError` unless both lie in (0, 1).
    """

    epsilon: float = 1e-3
    eta: float = 0.99

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not 0.0 < self.eta < 1.0:
            raise ConfigError(f"eta must lie in (0, 1), got {self.eta}")


@dataclass(frozen=True)
class SpectrumReport:
    """Descending Hermitian eigenvalues plus effective-rank readouts, and
    the relative reconstruction residual of the checked
    eigendecomposition behind them (:func:`eigen_spectrum`). The
    ``verify`` report writes the ensemble's, all but the residual."""

    eigenvalues: np.ndarray
    trace: float
    rank_threshold: int
    rank_energy: int
    epsilon: float
    eta: float
    residual: float = 0.0


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Tensor-product quadrature over (ball of radius R) x [0, T], held
    as its axes only.

    The grid is a product over the axes r, mu (3D only), phi and t, with
    points in that index order and t fastest. ``axes`` keeps each axis's
    ``<axis>_nodes`` and as many ``<axis>_weights``, the unit
    ``directions`` of the ([mu] x) phi angular nodes, dim components each,
    and the weights ``space_weights`` (the product of the r, [mu] and phi
    weights) of the spatial nodes r x directions; it holds no node
    coordinates. Its time axis is symmetric about its centre: the weights
    are bit-equal under reversal and t + reversed(t) is constant to 4 eps
    of the largest node. That is the grid contract: every library path
    reads the axes and assumes it, and it is checked here once
    (:class:`ConfigError` otherwise). The real Gram
    (:func:`~wavedof.modes.weighted_gram`) and the ensemble's centred time
    basis rest on the symmetry; :func:`build_grid` keeps it for any T in
    the normal float range. The axes alone say the dimension (a
    ``mu_nodes`` axis is 3D) and the resolution (the node counts of r, mu
    or else phi, and t). The per-point arrays ``points`` (P, 2 or 3) in
    meters, ``times`` (P,) in seconds and ``weights`` (P,), the full
    measure (volume x time), are built only on request and then kept.
    """

    axes: dict = field(repr=False)

    def __post_init__(self):
        ax = self.axes
        angular = ("mu", "phi") if "mu_nodes" in ax else ("phi",)
        n_dir = math.prod(len(ax[f"{a}_nodes"]) for a in angular)
        shapes = {f"{a}_weights": (len(ax[f"{a}_nodes"]),) for a in ("r", *angular, "t")}
        shapes.update(directions=(n_dir, len(angular) + 1),
                      space_weights=(len(ax["r_nodes"]) * n_dir,))
        for key, shape in shapes.items():
            if np.shape(ax[key]) != shape:
                raise ConfigError(f"grid {key} have shape {np.shape(ax[key])}, "
                                  f"not {shape}")
        t, wt = ax["t_nodes"], ax["t_weights"]
        if not (np.array_equal(wt, wt[::-1])
                and np.ptp(t + t[::-1]) <= 4.0 * np.finfo(float).eps * np.abs(t).max()):
            raise ConfigError("the grid needs a time axis symmetric about its "
                              "centre, to 4 eps of its largest node; build_grid "
                              "lays one out for any T in the normal float range")

    @functools.cached_property
    def points(self) -> np.ndarray:
        space = _node_coordinates(self.axes["r_nodes"], self.axes["directions"])
        return np.repeat(space, len(self.axes["t_nodes"]), axis=0)

    @functools.cached_property
    def times(self) -> np.ndarray:
        return np.tile(self.axes["t_nodes"], len(self.axes["space_weights"]))

    @functools.cached_property
    def weights(self) -> np.ndarray:
        return (self.axes["space_weights"][:, None]
                * self.axes["t_weights"][None, :]).ravel()

    def __len__(self) -> int:
        return len(self.axes["space_weights"]) * len(self.axes["t_nodes"])


@functools.lru_cache(maxsize=16)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1], computed once
    per n and shared, so both arrays are read-only."""
    x, w = leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def build_grid(dim: Dimension, cfg: PhysicalConfig,
               resolution: tuple) -> SpaceTimeGrid:
    """Gauss-Legendre product grid over the disc (2D) or ball (3D) of
    radius R and the time window [0, T], ``resolution`` (n_radial,
    n_angular, n_time) nodes.

    Radial weights carry r (2D) or r^2 (3D). In 3D the angular nodes are
    n_angular Gauss-Legendre mu = cos(theta) crossed with 2 n_angular
    uniform azimuths; in 2D n_angular uniform azimuths. The axes hold each
    axis's nodes and weights, the unit ``directions`` (angular nodes, 2
    or 3) in ([mu], phi) order, phi fastest, and ``space_weights`` of the
    spatial nodes r x directions, whose coordinates are not formed.
    Raises :class:`ConfigError` for a count below 1, R <= 0 or T <= 0,
    or a spatial weight past the float range, and
    :class:`~wavedof.bounds.ModeCapError` when its points exceed the cap,
    before it allocates anything.
    """
    n_r, n_ang, n_t = resolution
    if n_t < 1 or cfg.T <= 0:
        raise ConfigError("grids need n_time >= 1 and T > 0")
    if min(n_r, n_ang) < 1:
        raise ConfigError("resolution counts must be >= 1")
    if cfg.R <= 0:
        raise ConfigError("radius must be > 0")
    n_phi = n_ang if dim is Dimension.TWO_D else 2 * n_ang
    check_cap(n_r * (n_ang if dim is Dimension.THREE_D else 1) * n_phi * n_t,
              "grid points")
    xr, wxr = _gauss_legendre(n_r)
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    wphi = np.full(n_phi, 2.0 * math.pi / n_phi)
    with np.errstate(over="ignore", invalid="ignore"):
        r = cfg.R * (xr + 1.0) / 2.0
        wr = wxr * cfg.R / 2.0 * r
        if dim is Dimension.TWO_D:
            w = wr[:, None] * wphi[None, :]
        else:
            mu, wmu = _gauss_legendre(n_ang)
            wr = wr * r
            w = wr[:, None, None] * wmu[None, :, None] * wphi[None, None, :]
    if not np.all(np.isfinite(w)):
        raise ConfigError(f"quadrature weights of a region of radius {cfg.R:.3g} "
                          "leave the float range")
    axes = {"r_nodes": r, "r_weights": wr}
    if dim is Dimension.TWO_D:
        directions = (np.cos(phi), np.sin(phi))
    else:
        axes.update(mu_nodes=mu, mu_weights=wmu)
        rho = np.sqrt(1.0 - mu**2)[:, None]
        directions = (rho * np.cos(phi), rho * np.sin(phi), np.repeat(mu, n_phi))
    xt, wxt = _gauss_legendre(n_t)
    axes.update(phi_nodes=phi, phi_weights=wphi, space_weights=w.ravel(),
                directions=np.stack([c.ravel() for c in directions], axis=-1),
                t_nodes=cfg.T * (xt + 1.0) / 2.0, t_weights=wxt * cfg.T / 2.0)
    return SpaceTimeGrid(axes)


def _node_coordinates(r: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """(nodes, 2 or 3) coordinates of the spatial nodes r x directions,
    radius slowest, as ordered by :func:`build_grid`."""
    return (r[:, None, None] * directions).reshape(-1, directions.shape[1])


def _has_antipodes(axes: dict) -> bool:
    """Whether every direction of the grid has its antipode: the azimuth
    count is even (see :func:`_antipodal_fold`)."""
    return len(axes["phi_nodes"]) % 2 == 0


def _antipodal_fold(axes: dict) -> tuple[np.ndarray, np.ndarray, bool]:
    """(directions, weights, folded): the unit directions the ensemble's
    sum over the ball quadrature of :func:`build_grid` needs,
    their (radii x directions) weights, and whether the fold applied.
    In the library only :func:`_weighted_field_blocks` reads it.

    When the azimuth count is even (always in 3D, and in 2D for even
    n_angular), every direction d has its antipode -d: phi <-> phi + pi,
    and in 3D (mu, phi) <-> (-mu, phi + pi). Gauss-Legendre mu nodes and
    weights are symmetric, so partners have bit-identical weights, and the
    spatial node pairs are these direction pairs at every radius. Then
    only the directions with phi < pi are kept, each weight doubled.
    Otherwise every direction is returned with its own weight.
    """
    n_phi = len(axes["phi_nodes"])
    directions = axes["directions"]
    w = axes["space_weights"].reshape(len(axes["r_nodes"]), -1)
    if not _has_antipodes(axes):
        return directions, w, False
    keep = np.arange(len(directions)).reshape(-1, n_phi)[:, :n_phi // 2].ravel()
    return directions[keep], 2.0 * w[:, keep], True


def check_gram_resolution(modes: Sequence[ModeIndex], grid: SpaceTimeGrid,
                          cfg: PhysicalConfig) -> None:
    """Enforce the sampling minimums for Gram assembly.

    Time must oversample the highest band frequency (>= 4(F0+W)T + 8
    nodes) and the angular count must exceed twice the highest degree or
    order present (none in an empty set). The grid's (n_radial,
    n_angular, n_time) are its node counts of r, mu (3D) or phi (2D),
    and t.
    """
    n_t_min = 4.0 * (cfg.f0 + cfg.W) * cfg.T + 8.0
    max_deg = max((md.n if md.dim is Dimension.THREE_D else abs(md.m)
                   for md in modes), default=0)
    n_ang_min = 2 * max_deg + 1
    angular = "mu" if "mu_nodes" in grid.axes else "phi"
    counts = tuple(len(grid.axes[f"{a}_nodes"]) for a in ("r", angular, "t"))
    if counts[2] < n_t_min or counts[1] < n_ang_min:
        raise ResolutionError(
            f"grid resolution {counts} below minimum: "
            f"need n_time >= {math.ceil(n_t_min)} and n_angular >= {n_ang_min}")


def _mirror_upper(g: np.ndarray) -> np.ndarray:
    # Exact Hermitian symmetry (symmetry for a real g): strict upper
    # triangle mirrored, real diagonal.
    strict = np.triu(g, 1)
    out = strict + (strict.conj() if g.dtype.kind == "c" else strict).T
    np.fill_diagonal(out, g.diagonal().real)
    return out


def gram_of_modes(modes: Sequence[ModeIndex], grid: SpaceTimeGrid,
                  cfg: PhysicalConfig) -> np.ndarray:
    """Weighted Gram matrix G[p, q] = sum_s w_s mode_p(s) conj(mode_q(s)).

    The factored :func:`~wavedof.modes.weighted_gram`, after the grid
    passes :func:`check_gram_resolution`, made exactly Hermitian. It is a
    real symmetric float64 matrix whenever ``weighted_gram`` finds the
    Gram real by construction, which holds for every mode set of
    ``enumerate_modes``, and complex otherwise. ``verify`` forms none:
    it reads :func:`gram_readout`, whose spectrum matches that of this
    Gram, normalized.
    """
    check_gram_resolution(modes, grid, cfg)
    return _mirror_upper(weighted_gram(modes, grid, cfg)[1])


#: complex entries (2 MB) that bound an ensemble block: its real output
#: takes half, and each chunk's cos and sin of phases an eighth
_BLOCK_ENTRIES = 1 << 17


def _half_time_axis(grid: SpaceTimeGrid) -> tuple[float, np.ndarray, np.ndarray]:
    """(t_c, tau, rows): the centre t_c of the window, the h = ceil(n_t / 2)
    offsets tau = t - t_c >= 0 of the time nodes at or after it, and
    sqrt(mu w_t) at those nodes, mu = 2 for a node and its mirror, 1 at
    the centre node of an odd n_t.

    The grid's time nodes and weights are symmetric about t_c (the
    :class:`SpaceTimeGrid` contract), so tau, formed as half the
    difference of each node and its mirror, is exactly odd, and a sum
    over every node of w_t times a function even in tau is the sum over
    these nodes with rows**2 as weights."""
    t, wt = grid.axes["t_nodes"], grid.axes["t_weights"]
    n_t = len(t)
    tau = ((t - t[::-1]) / 2.0)[n_t // 2:]
    mu = np.full(len(tau), 2.0)
    mu[:n_t % 2] = 1.0
    return (t[0] + t[-1]) / 2.0, tau, np.sqrt(mu * wt[n_t // 2:])


def _wave_stack(fields: Sequence[PlaneWaveSet], grid: SpaceTimeGrid) -> WaveStack:
    """The :class:`~wavedof.modes.WaveStack` of a nonempty list of
    plane-wave sets on ``grid``.

    Raises ValueError when a set's directions have another number of
    components than the grid's, checked set by set as the stack is built,
    or when a direction row is not of unit length, checked once over every
    row (:func:`~wavedof.modes._check_directions`)."""
    dim = grid.axes["directions"].shape[1]
    for pws in fields:
        _check_width(pws.directions, dim)
    counts = np.array([len(pws) for pws in fields])
    flat = [np.concatenate([getattr(pws, key) for pws in fields])
            for key in ("directions", "frequencies", "amplitudes")]
    _check_directions(flat[0], dim)
    n_f, n_w = len(fields), int(counts.max())
    if counts.min() == n_w:
        padded = [a.reshape(n_f, n_w, *a.shape[1:]) for a in flat]
    else:
        valid = np.arange(n_w) < counts[:, None]
        padded = []
        for a in flat:
            padded.append(np.zeros((n_f, n_w, *a.shape[1:]), dtype=a.dtype))
            padded[-1][valid] = a
    c = np.array([pws.c for pws in fields])
    return WaveStack(*padded, c, counts, (float(flat[1].min()), float(flat[1].max())))


def _centred_waves(stack: WaveStack, t_c: float) -> tuple[np.ndarray, np.ndarray]:
    """(delta, amps), (fields, waves) each: delta = 2 pi (f - f_c), with
    the band's centre f_c, and a e^{2 pi i f t_c}, so that
    a e^{2 pi i f t} = amps e^{2 pi i f_c tau} e^{i delta tau} with
    tau = t - t_c. Padded waves keep amplitude 0. Raises
    :class:`ConfigError` when a phase 2 pi f t_c leaves the float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        delta = 2.0 * math.pi * (stack.frequencies - stack.centre)
        at_centre = 2.0 * math.pi * stack.frequencies * t_c
    if not np.all(np.isfinite(at_centre)):
        raise ConfigError("time phases of the ensemble leave the float range")
    c, s = cos_sin(at_centre, out=(at_centre, np.empty_like(at_centre)))
    return delta, stack.amplitudes * (c + 1j * s)


def _wave_vectors(stack: WaveStack, grid: SpaceTimeGrid) -> np.ndarray:
    """(dim, fields x waves) wave vectors 2 pi f / c times each wave's
    direction, every field's waves side by side (padded waves have k = 0).
    Raises :class:`ConfigError` when a phase k.x on the grid may leave the
    float range."""
    n_f, n_w, dim = stack.directions.shape
    kvec = np.empty((dim, n_f, n_w))
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(stack.directions.transpose(2, 0, 1),
                    2.0 * math.pi * stack.frequencies / stack.c[:, None], out=kvec)
    # Unit directions make dim max|k_i| max r a bound on every |k.x|.
    phase_bound = dim * float(np.abs(kvec).max()) * float(grid.axes["r_nodes"].max())
    if not phase_bound < math.inf:
        raise ConfigError("phases of the plane-wave set leave the float range")
    return kvec.reshape(dim, -1)


def _band_time_halves(stack: WaveStack, grid: SpaceTimeGrid):
    """(f_c, t_c, tau, even, odd): the band's time basis, centred and split
    by parity, on the h = ceil(n_t / 2) time nodes at or after the centre
    t_c of the window.

    The grid's time nodes and weights are symmetric about t_c (the
    :class:`SpaceTimeGrid` contract), so tau = t - t_c, formed as half the
    difference of each node and its mirror, is exactly odd; ``tau`` holds
    its h values >= 0, of mirror multiplicity mu = 2, or 1 at the centre
    node of an odd n_t.
    With the band's centre f_c = (f_lo + f_hi) / 2 of the fields' lowest
    and highest frequency (``stack.band``) and delta = f - f_c,
    e^{2 pi i f t} = e^{2 pi i f t_c} e^{2 pi i f_c tau} e^{2 pi i delta tau},
    and over delta in [-D, D], D = (f_hi - f_lo) / 2, the last factor spans
    what the even cos(2 pi delta tau) and the odd sin(2 pi delta tau) span.
    Even and odd vectors are orthogonal under the symmetric weights and are
    fixed by their values at tau >= 0, where rows scaled by sqrt(mu w_t)
    keep the inner product of all n_t nodes. So each part is one real
    (n_t + 8 x h) SVD, sampled at the n_t + 8 positive ones of the
    m = 2 n_t + 16 Chebyshev points of [-D, D]; a pair +-delta spans what
    cos and sin at delta span. ``even`` (h x L_e) and ``odd`` (h x L_o)
    keep the right singular vectors whose singular values exceed
    s_0 n_t eps, s_0 the largest of either part, as columns, their rows
    scaled by sqrt(mu w_t).

    As a function of delta, e^{2 pi i delta tau} on [-D, D] has the
    Chebyshev coefficients i^k J_k(2 pi D tau), which fall off
    super-exponentially past k = 2 pi D |tau| <= pi (f_hi - f_lo) T / 2
    <= pi W T, so the degree-(m - 1) interpolant through the samples
    matches every delta in the band to rounding. At the Gram minimum
    n_t >= 4(F0 + W)T + 8 (see :func:`check_gram_resolution`),
    m >= 8WT + 32 is well past that degree. On coarser time grids the
    parts have full or nearly full rank. Raises :class:`ConfigError` when
    a sampled phase leaves the float range.
    """
    t_c, tau, rows = _half_time_axis(grid)
    n_t = len(grid.axes["t_nodes"])
    lo, hi = stack.band
    half = (hi - lo) / 2.0
    m = 2 * n_t + 16
    delta = half * np.cos(math.pi * (np.arange(m // 2) + 0.5) / m)
    with np.errstate(over="ignore", invalid="ignore"):
        phase = np.multiply.outer(2.0 * math.pi * delta, tau)
    if not np.all(np.isfinite(phase)):
        raise ConfigError("time phases of the ensemble leave the float range")
    parts = [np.linalg.svd(p * rows, full_matrices=False)[1:]
             for p in cos_sin(phase, out=(phase, np.empty_like(phase)))]
    cut = max(s[0] for s, _ in parts) * n_t * np.finfo(float).eps
    even, odd = (vh[s > cut].T * rows[:, None] for s, vh in parts)
    return stack.centre, t_c, tau, even, odd


def _band_time_coordinates(stack: WaveStack, grid: SpaceTimeGrid) -> np.ndarray:
    """(fields, 2L, waves) reals: each wave's coordinates a sqrt(w_t) e^{iwt} Q
    in the band's time basis Q, the e^{-2 pi i f_c tau} [even, odd] columns
    that the parts of :func:`_band_time_halves` stand for on every node:
    their L real parts, then their L imaginary parts, as rows.

    With t = t_c + tau and the parts A_e and A_o of
    :func:`_band_time_halves`, the coordinates are
    g [cos(2 pi delta tau) A_e, i sin(2 pi delta tau) A_o] with
    g = a e^{iw t_c} and delta = f - f_c (:func:`_centred_waves`): real
    products over the h nodes tau >= 0, each times the real and the
    imaginary part of one factor per wave. They are formed a chunk of
    fields at a time, so no (fields x waves x time nodes) array is
    formed. Raises :class:`ConfigError` when a phase w t_c, or a sampled
    phase of the basis, leaves the float range.
    """
    _, t_c, tau, even, odd = _band_time_halves(stack, grid)
    delta, amps = _centred_waves(stack, t_c)
    (n_f, n_w), n_h = delta.shape, len(tau)
    n_e, n_b = even.shape[1], even.shape[1] + odd.shape[1]
    coords = np.empty((n_f, 2 * n_b, n_w))
    per = max(1, _BLOCK_ENTRIES // (8 * n_w * n_h))
    for a in range(0, n_f, per):
        g = amps[a:a + per, :, None]
        c = np.multiply.outer(delta[a:a + per], tau).reshape(-1, n_h)
        c, s = cos_sin(c, out=(c, np.empty_like(c)))
        c = (c @ even).reshape(*g.shape[:2], n_e)
        s = (s @ odd).reshape(*g.shape[:2], n_b - n_e)
        chunk = coords[a:a + per].transpose(0, 2, 1)
        np.multiply(c, g.real, out=chunk[..., :n_e])
        np.multiply(s, -g.imag, out=chunk[..., n_e:n_b])
        np.multiply(c, g.imag, out=chunk[..., n_b:n_b + n_e])
        np.multiply(s, g.real, out=chunk[..., n_b + n_e:])
    return coords


def _weighted_field_blocks(stack: WaveStack, grid: SpaceTimeGrid):
    """Yield blocks (fields, 2, K) of reals, the real parts [:, 0] and the
    imaginary parts [:, 1] of K columns Y, whose Y Y^H sum to Xw Xw^H, the
    ensemble's field-Gram dual, where Xw has the rows sqrt(w_s) x_f(s), up
    to terms second order in rounding.

    A plane wave is a space factor times a time factor, and the weight
    w_s = w_x w_t is one too, so over a run of spatial nodes a field is
    (nodes x waves) (waves x time nodes), with the amplitudes and
    sqrt(w_t) folded into the time factor Tm once. Each row y of Tm lies
    in the span of the band's time basis Q (L <= n_t columns), so Tm is
    carried as its coordinates Tm Q (:func:`_band_time_coordinates`). With
    P = I - Q Q^H, Y Q Q^H Y^H = Y Y^H - (Y P)(Y P)^H, and Y P is at the
    rounding floor, about n_t eps of Y, so the dual moves by about
    (n_t eps)^2 of its trace. With p = cos(k.x) Tm Q and q = sin(k.x) Tm Q,
    the field is p + i q at x and p - i q at -x, and the pair adds
    2 (p p^H + q q^H) to the dual. So on a grid with antipodes (see
    :func:`_antipodal_fold`) a block is sqrt(2 w_x) [p, q] over one node
    of each pair; otherwise it is sqrt(w_x) (p + i q) over every node.

    A block is a run of nodes for every field, its (fields x 2L x 2 nodes)
    reals within half of ``_BLOCK_ENTRIES`` complex entries, each field's
    L real-part rows, then its L imaginary-part rows, over the run's p
    columns, then its q columns. Its phases k.x are taken a chunk of
    fields at a time, one product of the nodes with the side-by-side wave
    vectors into a fresh contiguous (nodes, fields, waves) array, and the
    chunk's cos and sin (one :func:`~wavedof.specfun.cos_sin`, both arrays
    contiguous) take an eighth of ``_BLOCK_ENTRIES``. One batched product
    each for cos and sin multiplies the time coordinates by them, read
    through the transposed (fields, waves, nodes) views, and writes the
    block's p and q columns, which are then scaled by the spatial factor.
    """
    in_time = _band_time_coordinates(stack, grid)
    kvec = _wave_vectors(stack, grid)
    directions, w, folded = _antipodal_fold(grid.axes)
    space = _node_coordinates(grid.axes["r_nodes"], directions)
    sw = np.sqrt(w.ravel())
    n_f, n_b, n_w = in_time.shape[0], in_time.shape[1] // 2, in_time.shape[2]
    step = max(1, _BLOCK_ENTRIES // (4 * n_f * n_b))
    per = max(1, _BLOCK_ENTRIES // (8 * n_w * step))
    for lo in range(0, len(space), step):
        x = space[lo:lo + step]
        n = len(x)
        pq = np.empty((n_f, 2 * n_b, 2 * n))
        for a in range(0, n_f, per):
            c = (x @ kvec[:, a * n_w:(a + per) * n_w]).reshape(n, -1, n_w)
            c, s = cos_sin(c, out=(c, np.empty_like(c)))
            np.matmul(in_time[a:a + per], c.transpose(1, 2, 0), out=pq[a:a + per, :, :n])
            np.matmul(in_time[a:a + per], s.transpose(1, 2, 0), out=pq[a:a + per, :, n:])
        run_sw = sw[lo:lo + step]
        pq *= np.concatenate([run_sw, run_sw])
        if not folded:
            # p + i q: real part p_re - q_im, imaginary part p_im + q_re.
            y = np.empty((n_f, 2 * n_b, n))
            np.subtract(pq[:, :n_b, :n], pq[:, n_b:, n:], out=y[:, :n_b])
            np.add(pq[:, n_b:, :n], pq[:, :n_b, n:], out=y[:, n_b:])
            pq = y
        yield pq.reshape(n_f, 2, -1)


def _blocked_dual(stack: WaveStack, grid: SpaceTimeGrid) -> np.ndarray:
    """The ensemble's (fields x fields) dual Xw Xw^H, summed in real
    arithmetic over the blocks of :func:`_weighted_field_blocks`, so no
    (fields x points) array is formed. With a block's real parts R and
    imaginary parts I, Y Y^H = (R R^T + I I^T) + i (I R^T - R I^T): the
    real part is one symmetric product of the block's real view [R, I],
    and the imaginary part A - A^T, A the sum of the products I R^T."""
    n_f = len(stack.c)
    real, odd = np.zeros((n_f, n_f)), np.zeros((n_f, n_f))
    for block in _weighted_field_blocks(stack, grid):
        parts = block.reshape(n_f, -1)
        real += parts @ parts.T
        odd += block[:, 1] @ block[:, 0].T
    dual = np.empty((n_f, n_f), dtype=complex)
    dual.real = real
    np.subtract(odd, odd.T, out=dual.imag)
    return dual


def _cos_sin_gram(nodes: np.ndarray, vectors: np.ndarray, root_w: np.ndarray,
                  cross: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """(G, A): the weighted Gram of the cos and sin tables of the phases
    k.x, over the rows x of ``nodes`` (n x d) with weights root_w**2 and
    the columns k of ``vectors`` (d x K). G[a, b] is
    sum_x w (cos k_a.x cos k_b.x + sin k_a.x sin k_b.x), the real part of
    sum_x w e^{i (k_a - k_b).x}; with ``cross``, A[a, b] is
    sum_x w sin k_a.x cos k_b.x, so that A - A^T is its imaginary part
    (else A is None).

    The tables are taken over runs of nodes, each run's cos and sin side by
    side in one (2, run, K) array within a quarter of ``_BLOCK_ENTRIES``
    complex entries, and G gathers Z^T Z, Z the run's table as one
    (2 run x K) matrix: one symmetric product per run."""
    n_k = vectors.shape[1]
    step = max(1, _BLOCK_ENTRIES // (4 * n_k))
    gram = np.zeros((n_k, n_k))
    odd = np.zeros((n_k, n_k)) if cross else None
    for lo in range(0, len(nodes), step):
        x = nodes[lo:lo + step]
        cs = np.empty((2, len(x), n_k))
        np.matmul(x, vectors, out=cs[0])
        cos_sin(cs[0], out=(cs[0], cs[1]))
        cs *= root_w[lo:lo + step, None]
        z = cs.reshape(-1, n_k)
        gram += z.T @ z
        if cross:
            odd += cs[1].T @ cs[0]
    return gram, odd


def _pair_dual(stack: WaveStack, grid: SpaceTimeGrid) -> np.ndarray:
    """The ensemble's (fields x fields) dual Xw Xw^H through the wave-pair
    quadrature kernel, with no time basis.

    Field f is sum_{w in f} a_w e^{i k_w.x} e^{2 pi i f_w t}, and the grid's
    weight is w_x w_t, so the dual is
    D[f, g] = sum_{w in f, v in g} a_w conj(a_v) K_s(w, v) K_t(w, v), with
    K_s(w, v) = sum_x w_x e^{i (k_w - k_v).x} and
    K_t(w, v) = sum_t w_t e^{2 pi i (f_w - f_v) t}: the grid's quadratures
    of the plane-wave correlation. With t = t_c + tau and the band's centre
    f_c (see :func:`_centred_waves`), a_w e^{2 pi i f_w t} is
    amps_w e^{2 pi i f_c tau} e^{i delta_w tau}; the middle factor cancels
    in each pair, and on the symmetric time axis (:func:`_half_time_axis`)
    the rest of K_t is real: sum_tau w_t cos((delta_w - delta_v) tau) over
    the nodes tau >= 0. On a grid with antipodes (:func:`_antipodal_fold`)
    K_s is real as well, a sum over one node of each pair; otherwise it
    has the imaginary part A - A^T of :func:`_cos_sin_gram`. Both kernels
    are (fields x waves) square, over the stack's zero-padded waves, and
    D sums amps_w (K_s K_t)(w, v) conj(amps_v) over each pair of fields'
    blocks of waves. Raises :class:`ConfigError` when a time phase or a
    space phase leaves the float range.
    """
    t_c, tau, rows = _half_time_axis(grid)
    delta, amps = _centred_waves(stack, t_c)
    with np.errstate(over="ignore", invalid="ignore"):
        time_bound = float(np.abs(delta).max()) * float(tau[-1])
    if not time_bound < math.inf:
        raise ConfigError("time phases of the ensemble leave the float range")
    kvec = _wave_vectors(stack, grid)
    directions, w, folded = _antipodal_fold(grid.axes)
    space = _node_coordinates(grid.axes["r_nodes"], directions)
    kernel, odd = _cos_sin_gram(space, kvec, np.sqrt(w.ravel()), not folded)
    if not folded:
        kernel = kernel + 1j * (odd - odd.T)
    kernel *= _cos_sin_gram(tau[:, None], delta.reshape(1, -1), rows, False)[0]
    n_f, n_w = amps.shape
    by_field = np.einsum("kgv,gv->kg", kernel.reshape(-1, n_f, n_w), amps.conj())
    return np.einsum("fwg,fw->fg", by_field.reshape(n_f, n_w, n_f), amps)


#: the blocked route's fixed cost (two SVDs and about 150 numpy calls),
#: in (spatial node x kernel entry) multiply-adds of the pair route
_BLOCKED_FIXED = 1 << 19


def _pair_route_is_cheaper(stack: WaveStack, grid: SpaceTimeGrid) -> bool:
    """Whether :func:`_pair_dual` suits this ensemble's shape: F fields,
    the longest of W waves, on n_x kept spatial nodes (half the nodes on
    a grid with antipodes, see :func:`_antipodal_fold`) and n_t time
    nodes.

    Per spatial node the pair route takes about (F W)^2 multiply-adds, one
    symmetric product of its cos and sin rows; the blocked route about
    4 F L (W + 2 F), the fields' time coordinates and their dual over the
    band's L time functions, plus a fixed cost, ``_BLOCKED_FIXED`` in
    all. L is not known before the basis is found, so n_t / 2 stands for
    it: the pair route is taken when
    n_x (F W)^2 < n_x 2 F (F + W) n_t + ``_BLOCKED_FIXED``, and only
    while its (F W)^2 kernels fit in half of ``_BLOCK_ENTRIES``
    (F W <= 256). The fixed cost was fitted to both routes' times over
    shapes from 1 x 64 to 128 x 64 in 2D and 3D."""
    n_f, n_w = stack.amplitudes.shape
    n_k = n_f * n_w
    ax = grid.axes
    n_x = len(ax["space_weights"]) // (2 if _has_antipodes(ax) else 1)
    blocked = n_x * 2 * n_f * (n_f + n_w) * len(ax["t_nodes"]) + _BLOCKED_FIXED
    return 2 * n_k ** 2 <= _BLOCK_ENTRIES and n_x * n_k ** 2 < blocked


def ensemble_spectrum(fields: Sequence[PlaneWaveSet] | WaveStack,
                      grid: SpaceTimeGrid,
                      policy: RankPolicy = RankPolicy()) -> SpectrumReport:
    """Spectrum of the ensemble covariance, computed through its dual.

    The covariance is the (points x points) matrix
    C[s, s'] = (1/F) sum_f sqrt(w_s) x_f(s) conj(x_f(s')) sqrt(w_s').
    The F x F matrix (1/F) Xw Xw^H shares every nonzero eigenvalue and
    the trace with it, so rank readouts are identical while the
    eigenproblem stays small. The ensemble is read as one
    :class:`~wavedof.modes.WaveStack`: the one
    :func:`~wavedof.modes.draw_ensemble` draws, whose direction rows are
    checked here, all at once, or a list of plane-wave sets, stacked once
    (:func:`_wave_stack`). The dual is summed from it by one of two
    routes, chosen from the ensemble's shape (:func:`_pair_route_is_cheaper`):
    the wave-pair kernel (:func:`_pair_dual`) for few waves in all, the
    blocked fields in the band's time basis (:func:`_blocked_dual`)
    otherwise. Both rest on the symmetric time axis of the
    :class:`SpaceTimeGrid` contract. Raises ValueError for an empty
    ensemble, directions with another number of components than the
    grid's, or a direction row not of unit length, and
    :class:`ConfigError` when a phase leaves the float range or the
    dual's largest entry is subnormal (a window T near the float
    minimum).
    """
    if isinstance(fields, WaveStack):
        stack = fields
        dim = grid.axes["directions"].shape[1]
        _check_directions(stack.directions.reshape(-1, stack.directions.shape[-1]), dim)
    elif len(fields) == 0:
        raise ValueError("ensemble must be nonempty")
    else:
        stack = _wave_stack(fields, grid)
    route = _pair_dual if _pair_route_is_cheaper(stack, grid) else _blocked_dual
    dual = route(stack, grid)
    dual /= len(stack.c)
    # The largest entry of a PSD matrix is on its diagonal.
    if 0.0 < np.max(dual.diagonal().real) < np.finfo(float).tiny:
        raise ConfigError("the ensemble's covariance falls below the normal "
                          "float range, where its eigenvalues keep few digits")
    return eigen_spectrum(_mirror_upper(dual), policy)


def gram_readout(modes: Sequence[ModeIndex], grid: SpaceTimeGrid,
                 cfg: PhysicalConfig,
                 policy: RankPolicy = RankPolicy()) -> tuple[int, int, float]:
    """(rank_threshold, rank_energy, defect) of the diagonal-normalized
    Gram of a mode set of ``enumerate_modes`` on a :func:`build_grid`
    grid, with no M x M array and no ``eigh``.

    Those modes are orthogonal in closed form: angular channels (Kennedy,
    Sadeghi, Abhayapala & Jones, IEEE TSP 55(6), 2007), which the uniform
    phi and Gauss mu rules keep apart, and lattice time bins, whose
    products the time rule sums to sinc(i - i') = 0 (a stand-in bin is
    alone in its band). So the normalized Gram is I_M to rounding, and
    the ranks are :func:`effective_rank` of its M eigenvalues 1. The
    radial rule's error on the diagonal is not rounding: ``defect`` is
    max_p |G_quad,pp - G_closed,pp| / max_p G_closed,pp
    (:func:`~wavedof.modes.gram_diagonals`). A hand-built mode set or
    grid need not be orthogonal: its spectrum is
    ``eigen_spectrum(diagonal_normalize(gram_of_modes(...)))``, which
    raises the same ValueError (empty set), :class:`ResolutionError` and
    :class:`ConfigError` (a norm out of the float range) as this.
    """
    check_gram_resolution(modes, grid, cfg)
    quad, closed = gram_diagonals(modes, grid, cfg)
    defect = float(np.max(np.abs(quad - closed)) / np.max(closed))
    return (*effective_rank(np.ones(len(modes)), policy), defect)


def eigen_spectrum(matrix: np.ndarray,
                   policy: RankPolicy = RankPolicy()) -> SpectrumReport:
    """Descending eigenvalues and rank readouts of a Hermitian matrix,
    complex or real symmetric; a real one is diagonalized in real
    arithmetic.

    Rejects empty or non-square matrices (ValueError). A matrix of
    another dtype, single precision included, is first cast to
    complex128 (complex) or float64 (otherwise), so ``eigh`` runs in
    double precision and the 1e-8 check can hold. Then rejects a matrix
    with a non-finite entry or eigenvalue (:class:`ConfigError`) or a
    Hermitian defect above 1e-10 times the largest entry or 1, whichever
    is larger (ValueError), and checks that the eigendecomposition
    reconstructs the matrix to 1e-8 relative in Frobenius norm
    (RuntimeError otherwise), which ``residual`` reports. Both checks are
    made on the matrix divided by its largest entry, so they hold at any
    finite scale.
    """
    m = np.asarray(matrix)
    m = m.astype(complex if np.iscomplexobj(m) else float, copy=False)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if m.size == 0:
        raise ValueError("matrix must be nonempty")
    peak = float(np.max(np.abs(m)))
    if not math.isfinite(peak):
        raise ConfigError("matrix has entries beyond the float range")
    # Both checks run on m / peak, whose entries are at most 1 in modulus,
    # so no difference or norm can overflow; a complex m is divided part by
    # part, since numpy's complex divide multiplies by 1 / peak, which
    # overflows at a subnormal peak. NaN fails both checks.
    scale = peak or 1.0
    complex_m = m.dtype.kind == "c"
    unit = np.empty(m.shape, dtype=m.dtype)
    if complex_m:
        np.divide(m.real, scale, out=unit.real)
        np.divide(m.imag, scale, out=unit.imag)
    else:
        np.divide(m, scale, out=unit)
    # One difference array: the Hermitian defect, then the reconstruction
    # error.
    diff = np.empty_like(unit)
    np.conjugate(unit.T, out=diff)
    np.subtract(unit, diff, out=diff)
    if not (float(np.max(np.abs(diff))) <= 1e-10 * max(1.0, peak) / scale):
        raise ValueError("matrix is not Hermitian within 1e-10")
    evals, evecs = np.linalg.eigh(m)
    if not np.all(np.isfinite(evals)):
        raise ConfigError("eigenvalues beyond the float range")
    scaled = evecs * (evals / scale)
    if complex_m:
        np.conjugate(evecs, out=evecs)
    np.matmul(scaled, evecs.T, out=diff)
    diff -= unit
    # Squared Frobenius norms of the real views; a zero matrix reconstructs
    # as zero, and NaN fails the check.
    usq, rsq = (np.einsum("ij,ij->", x, x) for x in (unit.view(float), diff.view(float)))
    residual = float(np.sqrt(rsq / max(usq, np.finfo(float).tiny)))
    if not residual <= 1e-8:
        raise RuntimeError("eigendecomposition failed to reconstruct input")
    evals = evals[::-1].copy()
    rank_t, rank_e = effective_rank(evals, policy)
    return SpectrumReport(eigenvalues=evals, trace=float(np.sum(evals)),
                          rank_threshold=rank_t, rank_energy=rank_e,
                          epsilon=policy.epsilon, eta=policy.eta,
                          residual=residual)


def effective_rank(evals, policy: RankPolicy = RankPolicy()) -> tuple[int, int]:
    """(threshold rank, energy rank) of a descending eigenvalue array.

    Raises ValueError for an empty or non-finite spectrum."""
    evals = np.asarray(evals, dtype=float)
    if evals.size == 0:
        raise ValueError("empty spectrum")
    if not np.all(np.isfinite(evals)):
        raise ValueError("spectrum must be finite")
    lam_max = evals[0]
    if lam_max <= 0:
        return 0, 0
    rank_t = int(np.sum(evals >= policy.epsilon * lam_max))
    pos = np.clip(evals, 0.0, None)
    total = float(np.sum(pos))
    cum = np.cumsum(pos)
    rank_e = int(np.searchsorted(cum, policy.eta * total) + 1)
    return rank_t, min(rank_e, evals.size)


def truncation_error(wv, radius: float, N: int,
                     resolution: tuple = (24, 24)) -> float:
    """Ball-averaged relative L2 error of the degree-N harmonic partial sum
    against the plane-wave spatial factor exp(j k . r).

    The angular harmonics are orthogonal, and Lommel's integral (Watson
    5.11; DLMF 10.22(ii)) gives each one's radial part over the ball, so
    the squared error is the tail sum over orders n > N of
    c_n (Z_n^2 - Z_{n-1} Z_{n+1})(kR): Z = J and c_n = 2 in 2D, Z = j and
    c_n = 3 (2n + 1) / 2 in 3D, with kR = |k| R. It does not depend on
    the wave's direction. The sum runs to the Miller start of order N + 1
    at kR (:func:`~wavedof.specfun._miller_start`), past which the
    orders no longer count, over one column of Lommel terms
    (:func:`~wavedof.specfun._lommel_table`, which the closed-form mode
    norms read too), and is clamped at 0 before the square root.

    ``resolution`` is accepted and ignored, since no quadrature is
    taken; it stays for callers that still pass it. Raises ValueError
    for N < 0, :class:`ConfigError` unless 0 < radius < inf and kR is
    finite, and :class:`~wavedof.bounds.ModeCapError`
    (:func:`~wavedof.bounds.check_cap`) when the tail's orders exceed
    the cap, before any table is allocated.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    if not 0.0 < radius < math.inf:
        raise ConfigError(f"radius must lie in (0, inf), got {radius}")
    x = abs(wv.k * radius)
    if not math.isfinite(x):
        raise ConfigError(f"kR must be finite, got {x}")
    top = _miller_start(N + 1, x)
    check_cap(top + 2, "orders of the truncation tail")
    spherical = wv.dim is Dimension.THREE_D
    tail = _lommel_table(top, x, spherical=spherical)[N + 1:, 0]
    n = np.arange(N + 1, top + 1)
    c = 1.5 * (2 * n + 1) if spherical else 2.0
    return math.sqrt(max(float(np.sum(c * tail)), 0.0))
