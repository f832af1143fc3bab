"""Numerical verification of mode counts via quadrature and eigen-spectra.

Builds Gauss-Legendre product grids over ball x time, assembles Gram
matrices and ensemble covariance spectra, and reduces Hermitian spectra
to two effective-rank readouts. The grid is a tensor product (r x [mu] x
phi x t), held as its axes only: per-axis nodes and weights, the unit
``directions`` of the angular nodes, and the weights of the spatial
nodes (radii x directions). Node coordinates and per-point arrays are
formed only where read. Every mode and every plane wave is a product
over the same axes, and so is each weight, so the Gram
matrix and the ensemble are assembled axis by axis: the Gram matrix is
the elementwise product of one small weighted Gram per axis, and each
ensemble field is a (spatial nodes x waves) by (waves x time nodes)
matrix product. When the azimuth count is even, every spatial node x has
its antipode -x on the grid with the same weight, and a field at -x is
the one at x with its space phases conjugated; so the ensemble takes one
cos and sin pair per (antipodal node pair, wave) and never forms the two
fields. In 2D with an odd azimuth count it takes cos + i sin per (node,
wave). The time factor of every field, with the square roots of the
time weights folded in, is carried in the band's time basis: L
orthonormal columns Q spanning sqrt(w_t) e^{2 pi i f t} for every f
between the fields' lowest and highest frequency, the right singular
vectors above s_0 n_t eps of those functions sampled at m = 2 n_t + 16
Chebyshev frequencies. Over a window T a band of width 2W needs only
about 2WT + O(log 1/eps) such functions (5 of 21 time nodes at NARROW,
16 of 52 at the 3D benchmark point), while the time grid follows the
carrier. Each weighted field row y lies in span(Q) up to rounding, and
with P = I - Q Q^H, Y Q Q^H Y^H = Y Y^H - (Y P)(Y P)^H, so the dual
moves by about (n_t eps)^2 of its trace. When the time nodes cannot be
compressed, Q has all n_t columns and is a unitary rotation. The
coordinates in Q are formed a chunk of fields at a time in real
arithmetic, so no (fields x waves x time nodes) array is formed. The
field Gram is summed block by block: a block is a run of spatial nodes
for every field, its phases taken a chunk of fields at a time as one
product of the nodes with every wave vector side by side, and the
spatial weights scale the rows of its product. Every pair comes from
:func:`~wavedof.specfun.cos_sin`, always on contiguous arrays, and a
block's temporaries stay within ``_BLOCK_ENTRIES`` complex entries
(2 MB). The harmonic truncation error uses the same structure
over the ball: radial nodes x directions, and never forms the nodes
themselves. Its integrand |e^{ik.x} - p_N(x)|^2 is even in x, so when
the azimuth count is even it is summed over one direction of each
antipodal pair with twice the weight. Both take the pairs from one
fold, :func:`_antipodal_fold`, and the error moves only by rounding.
The truncation error's folded ball rule is built once per (dim, radius,
resolution) and kept (:func:`_ball_rule`), so repeated calls at one
resolution, such as at degrees N and N + 5, share it.
No (points x modes), (points x waves) or (points x points) array is
formed. The readouts are:

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

from .bounds import ConfigError, Dimension, PhysicalConfig
from .modes import (ModeIndex, PlaneWaveSet, jacobi_anger_tables, mode_factors,
                    weighted_gram)
from .specfun import cos_sin


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


def _spatial_quadrature(dim: Dimension, radius: float, n_r: int,
                        n_ang: int) -> dict:
    """Gauss-Legendre product quadrature over a disc (2D) or ball (3D).

    Radial weights carry r (2D) or r^2 (3D). In 3D the angular nodes are
    n_ang Gauss-Legendre points in mu = cos(theta) crossed with 2*n_ang
    uniform azimuths; in 2D they are n_ang uniform azimuths. Returns the
    axes: each axis's nodes and weights, the unit vectors ``directions``
    (angular nodes, 2 or 3) of the angular nodes in ([mu], phi) order,
    phi fastest, and ``space_weights`` in (r, [mu], phi) order: the
    weights of the spatial nodes r x directions, whose coordinates it
    does not form. Raises :class:`ConfigError` when a weight leaves the
    float range.
    """
    if min(n_r, n_ang) < 1:
        raise ConfigError("resolution counts must be >= 1")
    if radius <= 0:
        raise ConfigError("radius must be > 0")
    xr, wxr = _gauss_legendre(n_r)
    n_phi = n_ang if dim is Dimension.TWO_D else 2 * n_ang
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    wphi = np.full(n_phi, 2.0 * math.pi / n_phi)
    with np.errstate(over="ignore", invalid="ignore"):
        r = radius * (xr + 1.0) / 2.0
        wr = wxr * radius / 2.0 * r
        if dim is Dimension.TWO_D:
            w = wr[:, None] * wphi[None, :]
        else:
            mu, wmu = _gauss_legendre(n_ang)
            wr = wr * r
            w = wr[:, None, None] * wmu[None, :, None] * wphi[None, None, :]
    if not np.all(np.isfinite(w)):
        raise ConfigError(f"quadrature weights of a region of radius {radius:.3g} "
                          "leave the float range")
    axes = {"r_nodes": r, "r_weights": wr}
    if dim is Dimension.TWO_D:
        directions = (np.cos(phi), np.sin(phi))
    else:
        axes.update(mu_nodes=mu, mu_weights=wmu)
        rho = np.sqrt(1.0 - mu**2)[:, None]
        directions = (rho * np.cos(phi), rho * np.sin(phi), np.repeat(mu, n_phi))
    axes.update(phi_nodes=phi, phi_weights=wphi, space_weights=w.ravel(),
                directions=np.stack([c.ravel() for c in directions], axis=-1))
    return axes


def _node_coordinates(r: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """(nodes, 2 or 3) coordinates of the spatial nodes r x directions,
    radius slowest, as ordered by :func:`_spatial_quadrature`."""
    return (r[:, None, None] * directions).reshape(-1, directions.shape[1])


def _antipodal_fold(axes: dict) -> tuple[np.ndarray, np.ndarray, bool]:
    """(directions, weights, folded): the unit directions a sum over the
    ball quadrature of :func:`_spatial_quadrature` needs, their (radii x
    directions) weights, and whether the fold applied.

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


@functools.lru_cache(maxsize=8)
def _ball_rule(dim: Dimension, radius: float, n_r: int,
               n_ang: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(r, directions, weights, weight sum) of the ball quadrature of
    :func:`_spatial_quadrature` after :func:`_antipodal_fold`: what
    :func:`truncation_error` sums over. Built once per (dim, radius, n_r,
    n_ang) and shared, so every array is read-only."""
    axes = _spatial_quadrature(dim, radius, n_r, n_ang)
    directions, w, _ = _antipodal_fold(axes)
    r = axes["r_nodes"]
    r.flags.writeable = directions.flags.writeable = w.flags.writeable = False
    return r, directions, w, float(np.sum(w))


def build_grid(dim: Dimension, cfg: PhysicalConfig,
               resolution: tuple) -> SpaceTimeGrid:
    """Gauss-Legendre grid over the observation region and time window.

    ``resolution`` is (n_radial, n_angular, n_time). The spatial axes
    are those of :func:`_spatial_quadrature`, which checks R and the
    spatial counts; the n_time time nodes are Gauss-Legendre points over
    [0, T]. No node coordinates are formed.
    """
    n_r, n_ang, n_t = resolution
    if n_t < 1 or cfg.T <= 0:
        raise ConfigError("grids need n_time >= 1 and T > 0")
    axes = _spatial_quadrature(dim, cfg.R, n_r, n_ang)
    xt, wxt = _gauss_legendre(n_t)
    axes.update(t_nodes=cfg.T * (xt + 1.0) / 2.0, t_weights=wxt * cfg.T / 2.0)
    return SpaceTimeGrid(axes)


def check_gram_resolution(modes: Sequence[ModeIndex], grid: SpaceTimeGrid,
                          cfg: PhysicalConfig) -> None:
    """Enforce the sampling minimums for Gram assembly.

    Time must oversample the highest band frequency (>= 4(F0+W)T + 8
    nodes) and the angular count must exceed twice the highest degree or
    order present. The grid's (n_radial, n_angular, n_time) are its
    node counts of r, mu (3D) or phi (2D), and t.
    """
    n_t_min = 4.0 * (cfg.f0 + cfg.W) * cfg.T + 8.0
    max_deg = max((md.n if md.dim is Dimension.THREE_D else abs(md.m))
                  for md in modes)
    n_ang_min = 2 * max_deg + 1
    angular = "mu" if "mu_nodes" in grid.axes else "phi"
    counts = tuple(len(grid.axes[f"{a}_nodes"]) for a in ("r", angular, "t"))
    if counts[2] < n_t_min or counts[1] < n_ang_min:
        raise ResolutionError(
            f"grid resolution {counts} below minimum: "
            f"need n_time >= {math.ceil(n_t_min)} and n_angular >= {n_ang_min}")


def _mirror_upper(g: np.ndarray) -> np.ndarray:
    # Exact Hermitian symmetry: strict upper triangle mirrored, real diagonal.
    strict = np.triu(g, 1)
    return strict + strict.conj().T + np.diag(np.real(np.diag(g)))


def gram_of_modes(modes: Sequence[ModeIndex], grid: SpaceTimeGrid,
                  cfg: PhysicalConfig) -> np.ndarray:
    """Weighted Gram matrix G[p, q] = sum_s w_s mode_p(s) conj(mode_q(s)).

    The factored :func:`~wavedof.modes.weighted_gram`, after the grid
    passes :func:`check_gram_resolution`, made exactly Hermitian.
    """
    check_gram_resolution(modes, grid, cfg)
    return _mirror_upper(weighted_gram(mode_factors(modes, grid.axes, cfg), grid.axes))


def diagonal_normalize(g: np.ndarray) -> np.ndarray:
    """Scale a Gram matrix to unit diagonal (scale-free independence test).

    Raises :class:`ConfigError` unless the diagonal d is positive and every
    1/sqrt(d_p d_q) is finite, which fails when the quadrature weights of
    the region leave the float range.
    """
    d = np.real(np.diag(g))
    if np.all(d > 0):
        s = 1.0 / np.sqrt(d)
        with np.errstate(over="ignore"):
            scale = np.outer(s, s)
        if np.all(np.isfinite(scale)):
            return g * scale
    raise ConfigError(f"Gram diagonal cannot be normalized (least entry "
                      f"{d.min():.3g}); the quadrature weights may leave "
                      "the float range")


#: complex entries (2 MB) that bound an ensemble block: its real output
#: takes half, and each chunk's cos and sin of phases an eighth
_BLOCK_ENTRIES = 1 << 17


def _band_time_basis(fields: Sequence[PlaneWaveSet],
                     grid: SpaceTimeGrid) -> np.ndarray:
    """(time nodes, L) orthonormal columns Q whose span holds every weighted
    time function sqrt(w_t) e^{2 pi i f t} with f in [f_lo, f_hi], the
    fields' lowest and highest frequency, up to rounding.

    The functions are sampled at m = 2 n_t + 16 Chebyshev points of
    [f_lo, f_hi], and Q keeps the right singular vectors of that
    (m x n_t) matrix whose singular values exceed s_0 n_t eps. As a
    function of f, e^{2 pi i f t} on [f_lo, f_hi] has the Chebyshev
    coefficients J_k(pi (f_hi - f_lo) t), which fall off
    super-exponentially past k = pi (f_hi - f_lo) T <= 2 pi W T, so the
    degree-(m - 1) interpolant through the samples matches every f in the
    band to rounding, and the span of the samples holds the band's
    functions. At the Gram minimum n_t >= 4(F0 + W)T + 8 (see
    :func:`check_gram_resolution`), m >= 8WT + 32 is well past that
    degree. On coarser time grids the sampled matrix has full or nearly
    full rank n_t, and at full rank Q is a unitary rotation. Raises
    :class:`ConfigError` when a sampled phase leaves the float range.
    """
    t = grid.axes["t_nodes"]
    freqs = np.concatenate([pws.frequencies for pws in fields])
    lo, hi = float(freqs.min()), float(freqs.max())
    m = 2 * len(t) + 16
    f = lo + (hi - lo) * (1.0 + np.cos(math.pi * (np.arange(m) + 0.5) / m)) / 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        phase = np.multiply.outer(2.0 * math.pi * f, t)
    if not np.all(np.isfinite(phase)):
        raise ConfigError("time phases of the ensemble leave the float range")
    samples = np.empty((m, len(t)), dtype=complex)
    samples.real, samples.imag = cos_sin(phase, out=(phase, np.empty_like(phase)))
    del phase  # not held through the SVD
    samples *= np.sqrt(grid.axes["t_weights"])
    _, s, vh = np.linalg.svd(samples, full_matrices=False)
    return vh[s > s[0] * len(t) * np.finfo(float).eps].conj().T


def _weighted_field_blocks(fields: Sequence[PlaneWaveSet], grid: SpaceTimeGrid):
    """Yield blocks Y of columns whose Y Y^H sum to Xw Xw^H, the ensemble's
    field-Gram dual, where Xw has the rows sqrt(w_s) x_f(s), up to terms
    second order in rounding.

    A plane wave is a space factor times a time factor, and the weight
    w_s = w_x w_t is one too, so over a run of spatial nodes a field is
    (nodes x waves) (waves x time nodes), with the amplitudes and
    sqrt(w_t) folded into the time factor Tm once. Each row y of Tm lies
    in the span of the band's time basis Q (:func:`_band_time_basis`:
    the functions sampled at m = 2 n_t + 16 Chebyshev frequencies,
    L <= n_t columns), so Tm is carried as its coordinates Tm Q.
    With P = I - Q Q^H, Y Q Q^H Y^H = Y Y^H - (Y P)(Y P)^H, and Y P is
    at the rounding floor, about n_t eps of Y, so the dual moves by about
    (n_t eps)^2 of its trace. Tm Q is formed a chunk of fields at a time
    in real arithmetic: with the real (2 n_t x 2L) ``lift`` of
    sqrt(w_t) Q (rows Re Q, Im Q for cos over rows -Im Q, Re Q for sin,
    columns interleaved), cos(wt) lift[:n_t] + sin(wt) lift[n_t:] is the
    interleaved real view of e^{iwt} sqrt(w_t) Q, which is then
    multiplied by the amplitudes, so no (fields x waves x time nodes)
    array is formed. With p = cos(k.x) Tm Q and q = sin(k.x) Tm Q, the
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
    t = grid.axes["t_nodes"]
    basis = _band_time_basis(fields, grid)
    directions, w, folded = _antipodal_fold(grid.axes)
    space = _node_coordinates(grid.axes["r_nodes"], directions)
    sw = np.sqrt(w.ravel())
    n_f, n_w = len(fields), max(len(pws) for pws in fields)
    n_t, n_b = basis.shape
    # Every field's waves side by side, zero-padded to n_w; padded waves
    # have amplitude 0. kvec holds k times each wave's direction.
    kvec = np.zeros((space.shape[1], n_f, n_w))
    omega = np.zeros((n_f, n_w))
    amps = np.zeros((n_f, n_w, 1), dtype=complex)
    for f, pws in enumerate(fields):
        n = len(pws)
        omega[f, :n] = 2.0 * math.pi * pws.frequencies
        kvec[:, f, :n] = pws.directions.T * (omega[f, :n] / pws.c)
        amps[f, :n, 0] = pws.amplitudes
    kvec = kvec.reshape(space.shape[1], -1)
    wq = basis * np.sqrt(grid.axes["t_weights"])[:, None]
    lift = np.ascontiguousarray(np.concatenate([wq, 1j * wq])).view(float)
    in_time = np.empty((n_f, n_w, 2 * n_b))
    per = max(1, _BLOCK_ENTRIES // (8 * n_w * n_t))
    for a in range(0, n_f, per):
        c = np.multiply.outer(omega[a:a + per], t).reshape(-1, n_t)
        c, s = cos_sin(c, out=(c, np.empty_like(c)))
        chunk = np.matmul(c, lift[:n_t], out=in_time[a:a + per].reshape(-1, 2 * n_b))
        chunk += s @ lift[n_t:]
    in_time.view(complex)[...] *= amps
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
    eigenproblem stays small.
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
    """Descending eigenvalues and rank readouts of a Hermitian matrix.

    Rejects matrices with a non-finite entry or eigenvalue
    (:class:`ConfigError`) or whose Hermitian defect exceeds 1e-10
    times the largest entry or 1, whichever is larger; verifies the
    eigendecomposition reconstructs the input to 1e-8 relative in
    Frobenius norm. Both checks are made on the input divided by its
    largest entry, so they hold at any finite scale.
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    peak = float(np.max(np.abs(m)))
    if not math.isfinite(peak):
        raise ConfigError("matrix has entries beyond the float range")
    # Both checks run on m / peak, whose entries are at most 1 in modulus,
    # so no difference or norm can overflow.
    scale = peak or 1.0
    unit = m / scale
    if float(np.max(np.abs(unit - unit.conj().T))) > 1e-10 * max(1.0, peak) / scale:
        raise ValueError("matrix is not Hermitian within 1e-10")
    evals, evecs = np.linalg.eigh(m)
    if not np.all(np.isfinite(evals)):
        raise ConfigError("eigenvalues beyond the float range")
    recon = (evecs * (evals / scale)) @ evecs.conj().T
    unorm = float(np.linalg.norm(unit))
    if unorm > 0 and float(np.linalg.norm(unit - recon)) > 1e-8 * unorm:
        raise RuntimeError("eigendecomposition failed to reconstruct input")
    evals = evals[::-1].copy()
    rank_t, rank_e = effective_rank(evals, policy)
    return SpectrumReport(eigenvalues=evals, trace=float(np.sum(evals)),
                          rank_threshold=rank_t, rank_energy=rank_e,
                          epsilon=policy.epsilon, eta=policy.eta)


def effective_rank(evals, policy: RankPolicy = RankPolicy()) -> tuple[int, int]:
    """(threshold rank, energy rank) of a descending eigenvalue array."""
    evals = np.asarray(evals, dtype=float)
    if evals.size == 0:
        raise ValueError("empty spectrum")
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

    ``resolution`` is (n_radial, n_angular). The quadrature of
    :func:`_spatial_quadrature` is radial nodes x its unit
    ``directions``, read folded from :func:`_ball_rule`, which builds it
    once per (dim, radius, resolution), and the partial sum is one
    radial table on the nodes times one angular table on the directions
    (:func:`~wavedof.modes.jacobi_anger_tables`), as is
    k . x = k outer(r, directions . k_hat). The error is summed in real
    arithmetic: the real and imaginary parts of the partial sum come from
    one real product of the stacked radial parts with the angular table,
    and the exact factor's from :func:`~wavedof.specfun.cos_sin`, so no
    complex (radii x directions) array is formed.

    The integrand |e^{ik.x} - p_N(x)|^2 is even in x. The terms of p_N
    with even n are real with an even angular factor, P_n(rhat . khat) or
    cos(m dtheta), and those with odd n imaginary and odd; cos(k.x) is
    even and sin(k.x) odd. So Re(e - p) is even and Im(e - p) odd. When
    the azimuth count is even (always in 3D, and in 2D for even
    n_angular), every direction has its antipode with the same weight
    (:func:`_antipodal_fold`), and the error is summed over one direction
    of each pair with the weight doubled: half the angular table, the real
    product, the exact phases and the sum. The two terms of a pair agree
    up to rounding, so the result moves only by rounding, within 2e-15
    at the rounding floor of the partial sum. With an odd 2D azimuth
    count every direction is summed.
    """
    r, directions, w, total = _ball_rule(wv.dim, radius, *resolution)
    radial, angular = jacobi_anger_tables(wv, r, directions, N)
    part = np.concatenate([radial.real, radial.imag]) @ angular
    c, s = cos_sin(wv.k * np.outer(r, directions @ np.asarray(wv.k_hat)))
    c -= part[:len(r)]
    s -= part[len(r):]
    err = float(np.sum(w * (c * c + s * s)))
    return math.sqrt(err / total)
