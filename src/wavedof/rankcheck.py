"""Numerical verification of mode counts via quadrature and eigen-spectra.

Builds Gauss-Legendre product grids over ball x time, assembles Gram
matrices and ensemble covariance spectra, and reduces Hermitian spectra
to two effective-rank readouts. The grid is a tensor product (r x [mu] x
phi x t), and so is every mode and every plane wave, so both are
assembled axis by axis: the Gram matrix is the elementwise product of
one small weighted Gram per axis, and each ensemble field is a
(spatial nodes x waves) by (waves x time nodes) matrix product. When the
azimuth count is even, every spatial node x has its antipode -x on the
grid with the same weight, and a field at -x is the one at x with its
space phases conjugated; so the ensemble takes one cos and one sin per
(antipodal node pair, wave) and never forms the two fields. In 2D with
an odd azimuth count it takes cos + i sin per (node, wave). Its field
Gram is summed block by block, each block's temporaries within
``_BLOCK_ENTRIES`` complex entries (2 MB). The harmonic truncation error
uses the same structure over the ball: radial nodes x directions, the
directions being the node coordinates at unit radius. No
(points x modes), (points x waves) or (points x points) array is
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

from .bounds import Dimension, PhysicalConfig
from .modes import (ModeIndex, PlaneWaveSet, jacobi_anger_tables, mode_factors,
                    weighted_gram)


class ResolutionError(RuntimeError):
    """Grid resolution below the documented minimum for the request."""


class GridError(ValueError):
    """Zero-measure or malformed grid request."""


@dataclass(frozen=True)
class RankPolicy:
    """Effective-rank thresholds: relative eigenvalue cut and energy fraction."""

    epsilon: float = 1e-3
    eta: float = 0.99

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not 0.0 < self.eta < 1.0:
            raise ValueError(f"eta must lie in (0, 1), got {self.eta}")


@dataclass(frozen=True)
class SpectrumReport:
    """Descending Hermitian eigenvalues plus effective-rank readouts."""

    eigenvalues: np.ndarray
    trace: float
    rank_threshold: int
    rank_energy: int
    epsilon: float
    eta: float

    def cumulative_fractions(self) -> np.ndarray:
        total = float(np.sum(self.eigenvalues))
        if total == 0.0:
            return np.zeros_like(self.eigenvalues)
        return np.cumsum(self.eigenvalues) / total


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Quadrature points and weights over (ball of radius R) x [0, T].

    ``points`` has shape (P, 2 or 3) in meters, ``times`` shape (P,) in
    seconds, ``weights`` shape (P,) carrying the full measure (volume x
    time). The grid is a tensor product over the axes r, mu (3D only),
    phi and t, with points in that index order and t fastest. ``axes``
    keeps each axis's ``<axis>_nodes`` and ``<axis>_weights`` (their
    product is ``weights``) and the distinct positions ``space_points``,
    so mode and field evaluation can factorize.
    """

    dim: Dimension
    points: np.ndarray
    times: np.ndarray
    weights: np.ndarray
    resolution: tuple
    axes: dict = field(repr=False)

    def __len__(self) -> int:
        return len(self.weights)


@functools.lru_cache(maxsize=16)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1], computed once
    per n and shared, so both arrays are read-only."""
    x, w = leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _spatial_quadrature(dim: Dimension, radius: float, n_r: int,
                        n_ang: int) -> tuple[np.ndarray, dict]:
    """Gauss-Legendre product quadrature over a disc (2D) or ball (3D).

    Radial weights carry r (2D) or r^2 (3D). In 3D the angular nodes are
    n_ang Gauss-Legendre points in mu = cos(theta) crossed with 2*n_ang
    uniform azimuths; in 2D they are n_ang uniform azimuths. Returns
    (weights, axes) with weights in (r, [mu], phi) index order, phi
    fastest, and axes holding each axis's nodes and weights. The node
    coordinates are :func:`_ball_points` of the axes.
    """
    if min(n_r, n_ang) < 1:
        raise GridError("resolution counts must be >= 1")
    if radius <= 0:
        raise GridError("radius must be > 0")
    xr, wxr = _gauss_legendre(n_r)
    r = radius * (xr + 1.0) / 2.0
    wr = wxr * radius / 2.0 * r
    if dim is Dimension.THREE_D:
        wr = wr * r
    n_phi = n_ang if dim is Dimension.TWO_D else 2 * n_ang
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    wphi = np.full(n_phi, 2.0 * math.pi / n_phi)
    axes = {"r_nodes": r, "r_weights": wr}
    if dim is Dimension.TWO_D:
        w = wr[:, None] * wphi[None, :]
    else:
        mu, wmu = _gauss_legendre(n_ang)
        axes.update(mu_nodes=mu, mu_weights=wmu)
        w = wr[:, None, None] * wmu[None, :, None] * wphi[None, None, :]
    axes.update(phi_nodes=phi, phi_weights=wphi)
    return w.ravel(), axes


def _ball_points(dim: Dimension, axes: dict) -> np.ndarray:
    """(nodes, 2 or 3) coordinates of the spatial quadrature nodes, in the
    (r, [mu], phi) order of :func:`_spatial_quadrature`."""
    r, phi = axes["r_nodes"], axes["phi_nodes"]
    if dim is Dimension.TWO_D:
        coords = (r[:, None] * np.cos(phi), r[:, None] * np.sin(phi))
    else:
        mu = axes["mu_nodes"]
        rs = r[:, None] * np.sqrt(1.0 - mu**2)
        coords = (rs[:, :, None] * np.cos(phi), rs[:, :, None] * np.sin(phi),
                  np.broadcast_to((r[:, None] * mu)[:, :, None],
                                  rs.shape + phi.shape))
    return np.stack([c.ravel() for c in coords], axis=-1)


def build_grid(dim: Dimension, cfg: PhysicalConfig,
               resolution: tuple) -> SpaceTimeGrid:
    """Gauss-Legendre grid over the observation region and time window.

    ``resolution`` is (n_radial, n_angular, n_time); the spatial nodes
    are those of :func:`ball_grid` and the n_time time nodes are
    Gauss-Legendre points over [0, T].
    """
    n_r, n_ang, n_t = resolution
    if min(n_r, n_ang, n_t) < 1:
        raise GridError("all resolution counts must be >= 1")
    if cfg.R <= 0 or cfg.T <= 0:
        raise GridError("grids need R > 0 and T > 0")
    ws, axes = _spatial_quadrature(dim, cfg.R, n_r, n_ang)
    space = _ball_points(dim, axes)
    xt, wxt = _gauss_legendre(n_t)
    t = cfg.T * (xt + 1.0) / 2.0
    wt = wxt * cfg.T / 2.0
    axes.update(t_nodes=t, t_weights=wt, space_points=space)
    return SpaceTimeGrid(dim, np.repeat(space, n_t, axis=0), np.tile(t, len(ws)),
                         (ws[:, None] * wt[None, :]).ravel(), tuple(resolution),
                         axes)


def check_gram_resolution(modes: Sequence[ModeIndex], grid: SpaceTimeGrid,
                          cfg: PhysicalConfig) -> None:
    """Enforce the sampling minimums for Gram assembly.

    Time must oversample the highest band frequency (>= 4(F0+W)T + 8
    nodes) and the angular count must exceed twice the highest degree or
    order present.
    """
    n_t_min = 4.0 * (cfg.f0 + cfg.W) * cfg.T + 8.0
    max_deg = max((md.n if md.dim is Dimension.THREE_D else abs(md.m))
                  for md in modes)
    n_ang_min = 2 * max_deg + 1
    _, n_ang, n_t = grid.resolution
    if n_t < n_t_min or n_ang < n_ang_min:
        raise ResolutionError(
            f"grid resolution {grid.resolution} below minimum: "
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
    """Scale a Gram matrix to unit diagonal (scale-free independence test)."""
    d = np.real(np.diag(g))
    if np.any(d <= 0):
        raise ValueError("Gram diagonal must be positive")
    s = 1.0 / np.sqrt(d)
    return g * np.outer(s, s)


#: complex entries of an ensemble block's temporaries (2 MB)
_BLOCK_ENTRIES = 1 << 17


def _antipodes(grid: SpaceTimeGrid) -> tuple[np.ndarray, np.ndarray] | None:
    """(nodes, partners): spatial node indices such that node x and its
    partner -x cover every node once, or None if the azimuth count is odd.

    The pairs come from the axis indices, (r, phi) <-> (r, phi + pi) and
    in 3D (r, mu, phi) <-> (r, -mu, phi + pi); Gauss-Legendre mu nodes and
    weights are symmetric, so partners have bit-identical weights.
    """
    n_phi = len(grid.axes["phi_nodes"])
    if n_phi % 2:
        return None
    idx = np.arange(len(grid.axes["space_points"])).reshape(
        len(grid.axes["r_nodes"]), -1, n_phi)
    return idx[..., :n_phi // 2].ravel(), idx[:, ::-1, n_phi // 2:].ravel()


def _weighted_field_blocks(fields: Sequence[PlaneWaveSet], grid: SpaceTimeGrid):
    """Yield blocks Y of columns whose Y Y^H sum to Xw Xw^H, the ensemble's
    field-Gram dual, where Xw has the rows sqrt(w_s) x_f(s).

    A plane wave is a space factor times a time factor, so over a run of
    spatial nodes a field is (nodes x waves) (waves x time nodes), with
    the amplitudes folded into the time factor Tm. With p = cos(k.x) Tm
    and q = sin(k.x) Tm, the field is p + i q at x and p - i q at -x, and
    the pair adds 2 (p p^H + q q^H) to the dual. So on a grid with
    antipodes (see :func:`_antipodes`) a block is sqrt(2 w) [p, q] over
    one node of each pair; otherwise it is sqrt(w) (p + i q) over every
    node. Both take one cos and one sin per (node, wave) and one real
    matrix product, and a block's temporaries stay within
    ``_BLOCK_ENTRIES`` complex entries.
    """
    space, t = grid.axes["space_points"], grid.axes["t_nodes"]
    w = grid.weights.reshape(len(space), len(t))
    pairs = _antipodes(grid)
    nodes = np.arange(len(space)) if pairs is None else pairs[0]
    sw = np.sqrt((1.0 if pairs is None else 2.0) * w[nodes])
    n_f, n_w = len(fields), max(len(pws) for pws in fields)
    # Every field's waves, zero-padded to n_w; padded waves have amplitude 0.
    dirs = np.zeros((n_f, space.shape[1], n_w))
    k = np.zeros((n_f, 1, n_w))
    in_time = np.zeros((n_f, n_w, len(t)), dtype=complex)
    for f, pws in enumerate(fields):
        n = len(pws)
        dirs[f, :, :n] = pws.directions.T
        k[f, 0, :n] = 2.0 * math.pi * pws.frequencies / pws.c
        in_time[f, :n] = pws.amplitudes[:, None] * np.exp(
            1j * (2.0 * math.pi * pws.frequencies[:, None] * t[None, :]))
    # Real and imaginary parts interleaved: a real product with it, viewed
    # as complex, is the product with in_time.
    in_time = in_time.view(float)
    step = max(1, _BLOCK_ENTRIES // (2 * n_f * max(n_w, len(t))))
    cs_buf = np.empty((n_f, 2 * step, n_w))
    for lo in range(0, len(nodes), step):
        run = nodes[lo:lo + step]
        phase = space[run] @ dirs
        phase *= k
        cs = cs_buf[:, :2 * len(run)]
        np.cos(phase, out=cs[:, :len(run)])
        np.sin(phase, out=cs[:, len(run):])
        pq = (cs @ in_time).view(complex)
        run_sw = sw[lo:lo + step]
        if pairs is None:
            pq = (pq[:, :len(run)] + 1j * pq[:, len(run):]) * run_sw
        else:
            pq *= np.concatenate([run_sw, run_sw])
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

    Rejects matrices whose Hermitian defect exceeds 1e-10 relative to
    the largest entry; verifies the eigendecomposition reconstructs the
    input to 1e-8 relative in Frobenius norm.
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    scale = max(1.0, float(np.max(np.abs(m))))
    if float(np.max(np.abs(m - m.conj().T))) > 1e-10 * scale:
        raise ValueError("matrix is not Hermitian within 1e-10")
    evals, evecs = np.linalg.eigh(m)
    recon = (evecs * evals) @ evecs.conj().T
    mnorm = float(np.linalg.norm(m))
    if mnorm > 0 and float(np.linalg.norm(m - recon)) > 1e-8 * mnorm:
        raise RuntimeError("eigendecomposition failed to reconstruct input")
    evals = evals[::-1].copy()
    rank_t, rank_e = effective_rank(evals, policy)
    return SpectrumReport(eigenvalues=evals, trace=float(np.sum(evals)),
                          rank_threshold=rank_t, rank_energy=rank_e,
                          epsilon=policy.epsilon, eta=policy.eta)


def effective_rank(spectrum, policy: RankPolicy = RankPolicy()) -> tuple[int, int]:
    """(threshold rank, energy rank) of a descending eigenvalue sequence.

    Accepts a :class:`SpectrumReport` or a raw eigenvalue array.
    """
    evals = np.asarray(getattr(spectrum, "eigenvalues", spectrum), dtype=float)
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


def ball_grid(dim: Dimension, radius: float,
              resolution: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Spatial-only quadrature over a ball (3D) or disc (2D).

    Returns (points, weights); ``resolution`` is (n_radial, n_angular).
    """
    w, axes = _spatial_quadrature(dim, radius, *resolution)
    return _ball_points(dim, axes), w


def truncation_error(wv, radius: float, N: int,
                     resolution: tuple = (24, 24)) -> float:
    """Ball-averaged relative L2 error of the degree-N harmonic partial sum
    against the plane-wave spatial factor exp(j k . r).

    The quadrature of :func:`ball_grid` is radial nodes x directions, the
    directions being its node coordinates at unit radius, and the partial
    sum is one radial table on the nodes times one angular table on the
    directions (:func:`~wavedof.modes.jacobi_anger_tables`), as is
    k . x = k outer(r, directions . k_hat).
    """
    w, axes = _spatial_quadrature(wv.dim, radius, *resolution)
    r = axes["r_nodes"]
    directions = _ball_points(wv.dim, {**axes, "r_nodes": np.ones(1)})
    radial, angular = jacobi_anger_tables(wv, r, directions, N)
    exact = np.exp(1j * wv.k * np.outer(r, directions @ np.asarray(wv.k_hat)))
    err = float(np.sum(w * np.abs(exact - radial @ angular).ravel() ** 2))
    return math.sqrt(err / float(np.sum(w)))
