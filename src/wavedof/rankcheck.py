"""Numerical verification of mode counts via quadrature and eigen-spectra.

Builds Gauss-Legendre product grids over ball x time, assembles Gram
matrices and ensemble covariance spectra, and reduces Hermitian spectra
to two effective-rank readouts. The Gram of the modes is real on these
grids for every mode set that ``enumerate_modes`` returns
(:func:`~wavedof.modes.weighted_gram` decides it), so it is
assembled, normalized (:func:`~wavedof.modes.diagonal_normalize`) and
diagonalized as a real symmetric matrix; the ensemble dual stays
complex. The grid is a tensor product (r x [mu] x phi x t), laid out by
:func:`build_grid` alone and held as its axes only: per-axis nodes and
weights, the unit ``directions`` of the angular nodes, and the weights
of the spatial nodes (radii x directions). Node coordinates and
per-point arrays are formed only where read. Every mode and every plane
wave is a product over the same axes, and so is each weight, so the Gram
matrix and the ensemble are assembled axis by axis: the Gram matrix is
the elementwise product of one small weighted Gram per axis, and each
ensemble field is a (spatial nodes x waves) by (waves x time nodes)
matrix product. When the azimuth count is even, every spatial node x has
its antipode -x on the grid with the same weight, and a field at -x is
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
symmetric about the window's centre t_c, so with tau = t - t_c and the
band's centre f_c, Q is e^{-2 pi i f_c tau} times real columns, each
even or odd in tau: two small real SVDs over the nodes with tau >= 0
find them (:func:`_band_time_halves`), and each wave's coordinates in
Q are real products over those nodes times one phase per wave
(:func:`_band_time_coordinates`), formed a chunk of fields at a time,
so neither Q nor a (fields x waves x time nodes) array is formed. The
field Gram is summed block by block: a block is a run of spatial nodes
for every field, its phases taken a chunk of fields at a time as one
product of the nodes with every wave vector side by side, and the
spatial weights scale the rows of its product. Every pair comes from
:func:`~wavedof.specfun.cos_sin`, always on contiguous arrays, and a
block's temporaries stay within ``_BLOCK_ENTRIES`` complex entries
(2 MB). No (points x modes), (points x waves) or (points x points)
array is formed. The harmonic truncation error needs no grid: it is a
closed-form tail sum over one Bessel column (:func:`truncation_error`).
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
from .modes import (ModeIndex, PlaneWaveSet, diagonal_normalize,  # re-exported
                    _check_directions, weighted_gram)
from .specfun import _miller_start, bessel_table, cos_sin


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
    """Descending Hermitian eigenvalues plus effective-rank readouts."""

    eigenvalues: np.ndarray
    trace: float
    rank_threshold: int
    rank_energy: int
    epsilon: float
    eta: float


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Tensor-product quadrature over (ball of radius R) x [0, T], held
    as its axes only.

    The grid is a product over the axes r, mu (3D only), phi and t, with
    points in that index order and t fastest. ``axes`` keeps each axis's
    ``<axis>_nodes`` and ``<axis>_weights``, the unit ``directions`` of
    the angular nodes and the weights ``space_weights`` (the product of
    the r, [mu] and phi weights) of the spatial nodes r x directions,
    and every library path reads these; it holds no node coordinates.
    The axes alone say the dimension (a ``mu_nodes`` axis is 3D) and the
    resolution (the node counts of r, mu or else phi, and t).
    The per-point arrays ``points`` (P, 2 or 3) in meters, ``times``
    (P,) in seconds and ``weights`` (P,), the full measure (volume x
    time), are built only on request and then kept.
    """

    axes: dict = field(repr=False)

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
    if n_phi % 2:
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
    return strict + strict.conj().T + np.diag(np.real(np.diag(g)))


def gram_of_modes(modes: Sequence[ModeIndex], grid: SpaceTimeGrid,
                  cfg: PhysicalConfig) -> np.ndarray:
    """Weighted Gram matrix G[p, q] = sum_s w_s mode_p(s) conj(mode_q(s)).

    The factored :func:`~wavedof.modes.weighted_gram`, after the grid
    passes :func:`check_gram_resolution`, made exactly Hermitian. It is a
    real symmetric float64 matrix whenever ``weighted_gram`` finds the
    Gram real by construction, which holds for every mode set of
    ``enumerate_modes``, and complex otherwise.
    """
    check_gram_resolution(modes, grid, cfg)
    return _mirror_upper(weighted_gram(modes, grid.axes, cfg)[1])


#: complex entries (2 MB) that bound an ensemble block: its real output
#: takes half, and each chunk's cos and sin of phases an eighth
_BLOCK_ENTRIES = 1 << 17


def _band_time_halves(fields: Sequence[PlaneWaveSet], grid: SpaceTimeGrid):
    """(centre, tau, mu, even, odd): the band's time basis, centred and split
    by parity, on the h = ceil(n_t / 2) time nodes at or after the centre
    t_c of the window.

    The Gauss-Legendre time nodes and weights of :func:`build_grid` are
    exactly symmetric about t_c, so tau = t - t_c, formed as half the
    difference of each node and its mirror, is exactly odd; ``tau`` holds
    its h values >= 0 and ``mu`` their mirror multiplicity, 2, or 1 at
    the centre node of an odd n_t.
    With the band's centre f_c = (f_lo + f_hi) / 2 of the fields' lowest
    and highest frequency and delta = f - f_c,
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
    s_0 n_t eps, s_0 the largest of either part, as columns.

    As a function of delta, e^{2 pi i delta tau} on [-D, D] has the
    Chebyshev coefficients i^k J_k(2 pi D tau), which fall off
    super-exponentially past k = 2 pi D |tau| <= pi (f_hi - f_lo) T / 2
    <= pi W T, so the degree-(m - 1) interpolant through the samples
    matches every delta in the band to rounding. At the Gram minimum
    n_t >= 4(F0 + W)T + 8 (see :func:`check_gram_resolution`),
    m >= 8WT + 32 is well past that degree. On coarser time grids the
    parts have full or nearly full rank. Raises :class:`ConfigError` when
    a sampled phase leaves the float range, and ValueError for a time axis
    whose weights are not symmetric or whose nodes are not symmetric to
    rounding (4 eps of the largest node), which only a hand-made grid has.
    """
    t, wt = grid.axes["t_nodes"], grid.axes["t_weights"]
    n_t = len(t)
    if not (np.array_equal(wt, wt[::-1])
            and np.ptp(t + t[::-1]) <= 4.0 * np.finfo(float).eps * np.abs(t).max()):
        raise ValueError("the ensemble needs a time axis symmetric about its "
                         "centre, as build_grid lays it out")
    tau = ((t - t[::-1]) / 2.0)[n_t // 2:]
    mu = np.full(len(tau), 2.0)
    mu[:n_t % 2] = 1.0
    freqs = np.concatenate([pws.frequencies for pws in fields])
    lo, hi = float(freqs.min()), float(freqs.max())
    half = (hi - lo) / 2.0
    m = 2 * n_t + 16
    delta = half * np.cos(math.pi * (np.arange(m // 2) + 0.5) / m)
    with np.errstate(over="ignore", invalid="ignore"):
        phase = np.multiply.outer(2.0 * math.pi * delta, tau)
    if not np.all(np.isfinite(phase)):
        raise ConfigError("time phases of the ensemble leave the float range")
    rows = np.sqrt(mu * wt[n_t // 2:])
    parts = [np.linalg.svd(p * rows, full_matrices=False)[1:]
             for p in cos_sin(phase, out=(phase, np.empty_like(phase)))]
    cut = max(s[0] for s, _ in parts) * n_t * np.finfo(float).eps
    even, odd = (vh[s > cut].T for s, vh in parts)
    return lo + half, tau, mu, even, odd


def _band_time_basis(fields: Sequence[PlaneWaveSet],
                     grid: SpaceTimeGrid) -> np.ndarray:
    """(time nodes, L) orthonormal columns Q whose span holds every weighted
    time function sqrt(w_t) e^{2 pi i f t} with f in [f_lo, f_hi], the
    fields' lowest and highest frequency, up to rounding, in the row
    convention: y Q Q^H = y for such a row y.

    Q = e^{-2 pi i f_c tau} [E, O]: E and O are the parts ``even`` and
    ``odd`` of :func:`_band_time_halves` on every node, v / sqrt(mu) at
    tau >= 0 and mirrored with the sign of their parity, so both are real
    and orthonormal and E^T O = 0. The ensemble reads the parts and never
    forms Q; Q is the basis they stand for. Raises what
    :func:`_band_time_halves` raises.
    """
    centre, tau, mu, even, odd = _band_time_halves(fields, grid)
    skip = len(grid.axes["t_nodes"]) % 2
    upper = np.hstack([even, odd]) / np.sqrt(mu)[:, None]
    parity = np.repeat([1.0, -1.0], [even.shape[1], odd.shape[1]])
    columns = np.concatenate([upper[skip:][::-1] * parity, upper])
    tau = np.concatenate([-tau[skip:][::-1], tau])
    return columns * np.exp(-2j * math.pi * centre * tau)[:, None]


def _band_time_coordinates(fields: Sequence[PlaneWaveSet],
                           grid: SpaceTimeGrid) -> np.ndarray:
    """(fields, waves, 2L) reals: the interleaved real view of each wave's
    coordinates a sqrt(w_t) e^{iwt} Q in the band's time basis Q
    (:func:`_band_time_basis`), every field's waves zero-padded to the
    longest field.

    With t = t_c + tau and the parts of :func:`_band_time_halves`, their
    rows scaled by sqrt(mu w_t) into A_e and A_o, the coordinates are
    a e^{iw t_c} [cos(2 pi delta tau) A_e, i sin(2 pi delta tau) A_o],
    delta = f - f_c: real products over the h nodes tau >= 0, times one
    phase per wave. They are formed a chunk of fields at a time, so no
    (fields x waves x time nodes) array is formed. Raises
    :class:`ConfigError` when a phase w t_c, or a sampled phase of the
    basis, leaves the float range.
    """
    centre, tau, mu, even, odd = _band_time_halves(fields, grid)
    t = grid.axes["t_nodes"]
    rows = np.sqrt(mu * grid.axes["t_weights"][len(t) // 2:])[:, None]
    even, odd = even * rows, odd * rows
    n_f, n_w, n_h = len(fields), max(len(pws) for pws in fields), len(tau)
    n_e, n_b = even.shape[1], even.shape[1] + odd.shape[1]
    # Padded waves have amplitude 0 and delta 0.
    delta = np.zeros((n_f, n_w))
    at_centre = np.zeros((n_f, n_w))
    amps = np.zeros((n_f, n_w), dtype=complex)
    t_c = (t[0] + t[-1]) / 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        for f, pws in enumerate(fields):
            n = len(pws)
            delta[f, :n] = 2.0 * math.pi * (pws.frequencies - centre)
            at_centre[f, :n] = 2.0 * math.pi * pws.frequencies * t_c
            amps[f, :n] = pws.amplitudes
    if not np.all(np.isfinite(at_centre)):
        raise ConfigError("time phases of the ensemble leave the float range")
    c, s = cos_sin(at_centre, out=(at_centre, np.empty_like(at_centre)))
    amps *= c + 1j * s
    coords = np.empty((n_f, n_w, n_b), dtype=complex)
    per = max(1, _BLOCK_ENTRIES // (8 * n_w * n_h))
    for a in range(0, n_f, per):
        c = np.multiply.outer(delta[a:a + per], tau).reshape(-1, n_h)
        c, s = cos_sin(c, out=(c, np.empty_like(c)))
        g = amps[a:a + per].reshape(-1, 1)
        chunk = coords[a:a + per].reshape(-1, n_b)
        np.multiply(c @ even, g, out=chunk[:, :n_e])
        np.multiply(s @ odd, 1j * g, out=chunk[:, n_e:])
    return coords.view(float)


def _weighted_field_blocks(fields: Sequence[PlaneWaveSet], grid: SpaceTimeGrid):
    """Yield blocks Y of columns whose Y Y^H sum to Xw Xw^H, the ensemble's
    field-Gram dual, where Xw has the rows sqrt(w_s) x_f(s), up to terms
    second order in rounding.

    A plane wave is a space factor times a time factor, and the weight
    w_s = w_x w_t is one too, so over a run of spatial nodes a field is
    (nodes x waves) (waves x time nodes), with the amplitudes and
    sqrt(w_t) folded into the time factor Tm once. Each row y of Tm lies
    in the span of the band's time basis Q (:func:`_band_time_basis`,
    L <= n_t columns), so Tm is carried as its coordinates Tm Q
    (:func:`_band_time_coordinates`). With P = I - Q Q^H,
    Y Q Q^H Y^H = Y Y^H - (Y P)(Y P)^H, and Y P is at the rounding floor,
    about n_t eps of Y, so the dual moves by about (n_t eps)^2 of its
    trace. With p = cos(k.x) Tm Q and q = sin(k.x) Tm Q, the
    field is p + i q at x and p - i q at -x, and the pair adds
    2 (p p^H + q q^H) to the dual. So on a grid with antipodes (see
    :func:`_antipodal_fold`) a block is sqrt(2 w_x) [p, q] over one node
    of each pair; otherwise it is sqrt(w_x) (p + i q) over every node.

    A block is a run of nodes for every field, its (fields x 2 nodes x
    2L) reals within half of ``_BLOCK_ENTRIES`` complex entries. Its
    phases k.x are taken a chunk of fields at a time, one product of the
    nodes with the side-by-side wave vectors into a fresh contiguous
    (nodes, fields, waves) array, and the chunk's cos and sin (one
    :func:`~wavedof.specfun.cos_sin`, both arrays contiguous) take an
    eighth of ``_BLOCK_ENTRIES``. One batched product each for cos and
    sin reads them through the transposed (fields, nodes, waves) views
    and writes the block's p and q rows, which are then scaled by the
    spatial factor.
    """
    dim = grid.axes["directions"].shape[1]
    _check_directions(np.concatenate([pws.directions for pws in fields]), dim)
    in_time = _band_time_coordinates(fields, grid)
    directions, w, folded = _antipodal_fold(grid.axes)
    space = _node_coordinates(grid.axes["r_nodes"], directions)
    sw = np.sqrt(w.ravel())
    n_f, n_w, n_b = in_time.shape[0], in_time.shape[1], in_time.shape[2] // 2
    # kvec holds k times each wave's direction, every field's waves side
    # by side; padded waves have k = 0.
    kvec = np.zeros((dim, n_f, n_w))
    with np.errstate(over="ignore", invalid="ignore"):
        for f, pws in enumerate(fields):
            kvec[:, f, :len(pws)] = pws.directions.T * (2.0 * math.pi * pws.frequencies
                                                        / pws.c)
    # Unit directions make dim max|k_i| max r a bound on every |k.x|.
    phase_bound = dim * float(np.abs(kvec).max()) * float(grid.axes["r_nodes"].max())
    if not phase_bound < math.inf:
        raise ConfigError("phases of the plane-wave set leave the float range")
    kvec = kvec.reshape(dim, -1)
    step = max(1, _BLOCK_ENTRIES // (4 * n_f * n_b))
    per = max(1, _BLOCK_ENTRIES // (8 * n_w * step))
    for lo in range(0, len(space), step):
        x = space[lo:lo + step]
        n = len(x)
        pq = np.empty((n_f, 2 * n, 2 * n_b))
        for a in range(0, n_f, per):
            c = (x @ kvec[:, a * n_w:(a + per) * n_w]).reshape(n, -1, n_w)
            c, s = cos_sin(c, out=(c, np.empty_like(c)))
            np.matmul(c.transpose(1, 0, 2), in_time[a:a + per], out=pq[a:a + per, :n])
            np.matmul(s.transpose(1, 0, 2), in_time[a:a + per], out=pq[a:a + per, n:])
        run_sw = sw[lo:lo + step]
        pq *= np.concatenate([run_sw, run_sw])[:, None]
        pq = pq.view(complex)
        if not folded:
            pq = pq[:, :n] + 1j * pq[:, n:]
        yield pq.reshape(n_f, -1)


def ensemble_spectrum(fields: Sequence[PlaneWaveSet], grid: SpaceTimeGrid,
                      policy: RankPolicy = RankPolicy()) -> SpectrumReport:
    """Spectrum of the ensemble covariance, computed through its dual.

    The covariance is the (points x points) matrix
    C[s, s'] = (1/F) sum_f sqrt(w_s) x_f(s) conj(x_f(s')) sqrt(w_s').
    The F x F matrix (1/F) Xw Xw^H shares every nonzero eigenvalue and
    the trace with it, so rank readouts are identical while the
    eigenproblem stays small. Raises ValueError for an empty ensemble, a
    direction row of another dimension than the grid or not of unit
    length, or a grid whose time axis is not symmetric about its centre
    (as every :func:`build_grid` grid is), and :class:`ConfigError` when a
    phase leaves the float range.
    """
    if len(fields) == 0:
        raise ValueError("ensemble must be nonempty")
    # Summed block by block, so no (fields x points) array is formed.
    dual = np.zeros((len(fields), len(fields)), dtype=complex)
    for xw in _weighted_field_blocks(fields, grid):
        dual += xw @ xw.conj().T
    return eigen_spectrum(_mirror_upper(dual / len(fields)), policy)


def eigen_spectrum(matrix: np.ndarray,
                   policy: RankPolicy = RankPolicy()) -> SpectrumReport:
    """Descending eigenvalues and rank readouts of a Hermitian matrix,
    complex or real symmetric; a real one is diagonalized in real
    arithmetic.

    Rejects empty or non-square matrices (ValueError), matrices with a
    non-finite entry or eigenvalue (:class:`ConfigError`) and matrices
    whose Hermitian defect exceeds 1e-10 times the largest entry or 1,
    whichever is larger; verifies the eigendecomposition reconstructs
    the input to 1e-8 relative in Frobenius norm. Both checks are made
    on the input divided by its largest entry, so they hold at any
    finite scale.
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if m.size == 0:
        raise ValueError("matrix must be nonempty")
    peak = float(np.max(np.abs(m)))
    if not math.isfinite(peak):
        raise ConfigError("matrix has entries beyond the float range")
    # Both checks run on m / peak, whose entries are at most 1 in modulus,
    # so no difference or norm can overflow.
    scale = peak or 1.0
    unit = m / scale
    # .conj() copies even a real array, so a real matrix is only transposed.
    conj = np.conj if np.iscomplexobj(m) else np.asarray
    if float(np.max(np.abs(unit - conj(unit).T))) > 1e-10 * max(1.0, peak) / scale:
        raise ValueError("matrix is not Hermitian within 1e-10")
    evals, evecs = np.linalg.eigh(m)
    if not np.all(np.isfinite(evals)):
        raise ConfigError("eigenvalues beyond the float range")
    recon = (evecs * (evals / scale)) @ conj(evecs).T
    unorm = float(np.linalg.norm(unit))
    if unorm > 0 and float(np.linalg.norm(unit - recon)) > 1e-8 * unorm:
        raise RuntimeError("eigendecomposition failed to reconstruct input")
    evals = evals[::-1].copy()
    rank_t, rank_e = effective_rank(evals, policy)
    return SpectrumReport(eigenvalues=evals, trace=float(np.sum(evals)),
                          rank_threshold=rank_t, rank_energy=rank_e,
                          epsilon=policy.epsilon, eta=policy.eta)


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
    orders no longer count, over one column of
    :func:`~wavedof.specfun.bessel_table`, and is clamped at 0 before the
    square root.

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
    z = bessel_table(top + 1, x, spherical=spherical)[:, 0]
    n = np.arange(N + 1, top + 1)
    c = 1.5 * (2 * n + 1) if spherical else 2.0
    return math.sqrt(max(float(np.sum(c * (z[n] ** 2 - z[n - 1] * z[n + 1]))), 0.0))
