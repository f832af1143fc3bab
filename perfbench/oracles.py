"""Reference computations for the benchmark's output checks.

Everything here is written out in plain Python loops or direct numpy
sums and shares no code with the library, so a check that compares
library output against these functions does not pass merely because both
sides run the same code.
"""

import math

import numpy as np

E_PI = math.e * math.pi
SNAP = 1e-9  # the library's documented snap distance for ceilinged counts


def _tol(v: float) -> float:
    return SNAP * max(1.0, abs(v))


def snap_ceil(v: float) -> int:
    """Ceiling that first snaps values within SNAP (relative) of an integer."""
    return math.ceil(v - _tol(v))


def _bin_range(W: float, T: float, f0: float) -> tuple:
    """(lo, hi): the integers i with F0 - W <= i/T <= F0 + W, up to SNAP."""
    lo = math.ceil((f0 - W) * T - _tol((f0 - W) * T))
    hi = math.floor((f0 + W) * T + _tol((f0 + W) * T))
    return lo, hi


def bin_degrees(R: float, W: float, T: float, f0: float, c: float):
    """Yield the truncation degree N(i) of every frequency bin i/T in the band.

    A band that holds no integer multiple of 1/T gets one stand-in bin at
    the centre frequency, as the library documents.
    """
    lo, hi = _bin_range(W, T, f0)
    if lo > hi:
        yield snap_ceil(E_PI * R * f0 / c)
        return
    for i in range(lo, hi + 1):
        yield snap_ceil(E_PI * R * (i / T) / c)


def bin_count(W: float, T: float, f0: float) -> int:
    """Number of frequency bins, without visiting them."""
    lo, hi = _bin_range(W, T, f0)
    return max(hi - lo + 1, 1)


def mode_counts(R: float, W: float, T: float, f0: float, c: float) -> dict:
    """Literal per-bin lattice counts: one-sided 2D, two-sided 2D and 3D."""
    one, two, three = 0, 0, 0
    for n in bin_degrees(R, W, T, f0, c):
        one += n + 1
        two += 2 * n + 1
        three += (n + 1) ** 2
    return {"exact2d": one, "two_sided2d": two, "exact3d": three}


def truncation_degree(kR: float) -> int:
    """ceil(e k R / 2), the harmonic degree the truncation criterion uses."""
    return snap_ceil(math.e * kR / 2.0)


def ensemble_rows(fields, points, times, weights) -> np.ndarray:
    """Rows sqrt(w_s) x_f(s) of an ensemble of plane-wave sets, (fields, points).

    x_f(s) = sum_p a_p exp(j(k_p d_p . x_s + 2 pi f_p t_s)) with
    k_p = 2 pi f_p / c. The sum splits into a space factor and a time
    factor, evaluated once per distinct point and distinct time and joined
    by one matrix product, so every grid point is covered at a small cost.
    """
    space, at_space = np.unique(points, axis=0, return_inverse=True)
    moments, at_time = np.unique(times, return_inverse=True)
    at_space, at_time = at_space.reshape(-1), at_time.reshape(-1)
    sw = np.sqrt(weights)
    rows = np.empty((len(fields), len(weights)), dtype=complex)
    for row, pws in enumerate(fields):
        f = np.asarray(pws.frequencies, dtype=float)
        k = 2.0 * math.pi * f / pws.c
        in_space = np.exp(1j * k[None, :] * (space @ np.asarray(pws.directions).T))
        in_time = np.exp(2j * math.pi * f[:, None] * moments[None, :])
        both = (in_space * np.asarray(pws.amplitudes)[None, :]) @ in_time
        rows[row] = both[at_space, at_time] * sw
    return rows


def ensemble_eigenvalues(rows: np.ndarray) -> tuple:
    """(descending eigenvalues, trace) of (1/F) X X^H for the rows X."""
    dual = rows @ rows.conj().T / len(rows)
    trace = float(np.sum(np.abs(rows) ** 2)) / len(rows)
    return np.linalg.eigvalsh(dual)[::-1], trace
