"""Special functions underlying the wave-mode basis.

Spherical Bessel functions j_n, cylindrical Bessel functions J_n,
Legendre polynomials, associated Legendre functions and fully
orthonormal complex spherical harmonics.

Conventions
-----------
* ``assoc_legendre`` returns the unnormalized Ferrers function P_n^m
  including the Condon-Shortley phase, e.g. P_1^1(u) = -sqrt(1 - u^2).
* ``sph_harm`` is orthonormal on the unit sphere:
  Y_n^m(theta, phi) = sqrt((2n+1)/(4 pi) (n-m)!/(n+m)!) P_n^m(cos theta) e^{i m phi},
  so that integral of Y_n^m conj(Y_n'^m') over the sphere is a double delta.
* Bessel values come from one kernel, ``bessel_table``, which runs a
  normalized downward (Miller) recurrence over an array of arguments and
  returns every order 0..n_max at once. ``bessel_J`` and
  ``spherical_bessel_j`` read one entry of a one-column table.
* Legendre polynomials likewise come from ``legendre_table`` (every
  degree 0..n_max over an array of arguments); ``legendre_p`` reads one
  entry of it.

All functions are pure and carry no state; they are safe to call
concurrently.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

FOUR_PI = 4.0 * math.pi

# Magnitude guard for the unnormalized downward recurrence.
_RESCALE_LIMIT = 1e250


@dataclass(frozen=True)
class Angle:
    """Direction on the sphere: colatitude theta in [0, pi], azimuth phi.

    phi is reduced modulo 2*pi on construction.
    """

    theta: float
    phi: float

    def __post_init__(self):
        if not (-1e-12 <= self.theta <= math.pi + 1e-12):
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        object.__setattr__(self, "theta", min(max(self.theta, 0.0), math.pi))
        object.__setattr__(self, "phi", self.phi % (2.0 * math.pi))


def _check_order(n: int, x: float) -> None:
    if n < 0:
        raise ValueError(f"order must be >= 0, got {n}")
    if x < 0:
        raise ValueError(f"argument must be >= 0, got {x}")


def _miller_start(n: int, x: float) -> int:
    # Enough head-room above both the order and the turning point k ~ x;
    # the Airy transition zone is O(x^(1/3)) wide.
    return max(n, int(x)) + 32 + int(10.0 * x ** (1.0 / 3.0))


def bessel_table(n_max: int, x, spherical: bool = False) -> np.ndarray:
    """Bessel values J_n(x), or j_n(x) with ``spherical``, for n = 0..n_max.

    Returns an array of shape (n_max+1, len(x)). One downward (Miller)
    recurrence runs over every column at once; downward recurrence
    stays accurate for every order, where upward recurrence loses all
    accuracy once the order exceeds the argument. A column that grows
    past a magnitude guard is rescaled on its own. Cylindrical columns
    are normalized through J_0(x) + 2 sum_k J_{2k}(x) = 1, which fixes
    both scale and sign; spherical columns are anchored on the closed
    form of j_0 or j_1, whichever is farther from a zero. Columns at
    x = 0 are exact.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if n_max < 0:
        raise ValueError(f"order must be >= 0, got {n_max}")
    if not np.all(np.isfinite(x) & (x >= 0)):
        raise ValueError("arguments must be finite and >= 0")
    out = np.zeros((n_max + 1, x.size))
    out[0, x == 0] = 1.0
    pos = x > 0
    if not pos.any():
        return out
    xs = x[pos]
    m = _miller_start(n_max, float(xs.max()))
    m += m % 2
    table = np.empty((n_max + 1, xs.size))
    jp = np.zeros(xs.size)           # unnormalized value at order k + 1
    jc = np.full(xs.size, 1e-30)     # unnormalized value at order k
    total = np.zeros(xs.size)        # 2 sum_k J_{2k}, cylindrical only
    # The guard leaves head-room for one step's growth, at most (2m+2)/x.
    limit = np.minimum(_RESCALE_LIMIT, 1e300 * xs / (2 * m + 2))
    for k in range(m, 0, -1):
        jp, jc = jc, (2 * k + spherical) / xs * jc - jp
        if k - 1 <= n_max:
            table[k - 1] = jc
        if not spherical and k % 2 == 0:
            total += 2.0 * jp        # jp now holds the value at even order k
        big = np.abs(jc) > limit
        if big.any():
            f = 1.0 / np.abs(jc[big])
            jp[big] *= f
            jc[big] *= f
            total[big] *= f
            table[min(k - 1, n_max + 1):, big] *= f
    if spherical:
        # The closed form of j_1 cancels catastrophically near zero, so it
        # is taken at max(x, 1); below x = 1, |j_0(x)| > 0.84 > |j_1(1)|
        # picks j_0 either way.
        xc = np.maximum(xs, 1.0)
        j0 = np.sin(xs) / xs
        j1 = np.sin(xc) / (xc * xc) - np.cos(xc) / xc
        scale = np.where(np.abs(j0) >= np.abs(j1), j0 / jc, j1 / jp)
    else:
        scale = 1.0 / (total + jc)
    out[:, pos] = table * scale
    return out


def spherical_bessel_j(n: int, x: float) -> float:
    """Spherical Bessel function j_n(x) for n >= 0, x >= 0."""
    _check_order(n, x)
    return float(bessel_table(n, x, spherical=True)[n, 0])


def bessel_J(n: int, x: float) -> float:
    """Cylindrical Bessel function J_n(x) for integer n >= 0, x >= 0."""
    _check_order(n, x)
    return float(bessel_table(n, x)[n, 0])


def legendre_table(n_max: int, u) -> np.ndarray:
    """Legendre polynomials P_n(u) for n = 0..n_max over an array of u.

    Returns an array of shape (n_max+1, len(u)), filled by the three-term
    recurrence (k+1) P_{k+1} = (2k+1) u P_k - k P_{k-1}.
    """
    if n_max < 0:
        raise ValueError(f"degree must be >= 0, got {n_max}")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    out = np.empty((n_max + 1, u.size))
    out[0] = 1.0
    if n_max >= 1:
        out[1] = u
    for k in range(1, n_max):
        out[k + 1] = ((2 * k + 1) * u * out[k] - k * out[k - 1]) / (k + 1)
    return out


def legendre_p(n: int, u: float) -> float:
    """Legendre polynomial P_n(u)."""
    return float(legendre_table(n, u)[n, 0])


def _check_u(u: float) -> float:
    if abs(u) > 1.0 + 1e-12:
        raise ValueError(f"argument must lie in [-1, 1], got {u}")
    return min(max(u, -1.0), 1.0)


def assoc_legendre(n: int, m: int, u: float) -> float:
    """Ferrers associated Legendre function P_n^m(u), Condon-Shortley phase.

    Accepts -n <= m <= n; rejects |m| > n.
    """
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    if abs(m) > n:
        raise ValueError(f"|m| must be <= n, got m={m}, n={n}")
    u = _check_u(u)
    mm = abs(m)
    # P_mm^mm = (-1)^mm (2 mm - 1)!! (1-u^2)^(mm/2), then upward in degree.
    pmm = 1.0
    if mm > 0:
        s = math.sqrt((1.0 - u) * (1.0 + u))
        fact = 1.0
        for _ in range(mm):
            pmm *= -fact * s
            fact += 2.0
    if n == mm:
        val = pmm
    else:
        pm1 = u * (2 * mm + 1) * pmm
        if n == mm + 1:
            val = pm1
        else:
            for k in range(mm + 2, n + 1):
                pmm, pm1 = pm1, ((2 * k - 1) * u * pm1 - (k + mm - 1) * pmm) / (k - mm)
            val = pm1
    if m >= 0:
        return val
    # P_n^{-m} = (-1)^m (n-m)!/(n+m)! P_n^m
    for k in range(n - mm + 1, n + mm + 1):
        val /= k
    return val if mm % 2 == 0 else -val


def _norm_mm(m: int) -> float:
    # sqrt((2m+1)/(4 pi) * prod_{k<=m} (2k-1)/(2k)) with Condon-Shortley sign.
    a = 1.0 / FOUR_PI
    for k in range(1, m + 1):
        a *= (2 * k + 1) / (2 * k)
    return math.sqrt(a) * (-1 if m % 2 else 1)


def norm_assoc_legendre(n: int, m: int, u: float) -> float:
    """Orthonormalized associated Legendre, the theta factor of sph_harm.

    Equals sqrt((2n+1)/(4 pi) (n-m)!/(n+m)!) P_n^m(u) for m >= 0, evaluated
    by a recurrence that is stable and overflow-free for large degrees.
    """
    if n < 0 or not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got n={n}, m={m}")
    u = _check_u(u)
    s = math.sqrt((1.0 - u) * (1.0 + u))
    pmm = _norm_mm(m) * s**m
    if n == m:
        return pmm
    pm1 = math.sqrt(2 * m + 3) * u * pmm
    if n == m + 1:
        return pm1
    for k in range(m + 2, n + 1):
        a = math.sqrt((4 * k * k - 1) / (k * k - m * m))
        b = math.sqrt((2 * k + 1) * ((k - 1) ** 2 - m * m) / ((2 * k - 3) * (k * k - m * m)))
        pmm, pm1 = pm1, a * u * pm1 - b * pmm
    return pm1


def sph_harm(n: int, m: int, angle: Angle) -> complex:
    """Orthonormal complex spherical harmonic Y_n^m(theta, phi)."""
    if abs(m) > n:
        raise ValueError(f"|m| must be <= n, got m={m}, n={n}")
    mm = abs(m)
    p = norm_assoc_legendre(n, mm, math.cos(angle.theta))
    y = p * cmath.exp(1j * mm * angle.phi)
    if m >= 0:
        return y
    y = y.conjugate()
    return y if mm % 2 == 0 else -y


def norm_assoc_legendre_table(n_max: int, u) -> np.ndarray:
    """Table of orthonormalized associated Legendre values.

    Returns an array of shape (n_max+1, n_max+1, len(u)) with entry
    [n, m] holding the theta factor of Y_n^m for 0 <= m <= n, evaluated
    at every u; entries with m > n stay zero.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any(np.abs(u) > 1.0 + 1e-12):
        raise ValueError("arguments must lie in [-1, 1]")
    u = np.clip(u, -1.0, 1.0)
    s = np.sqrt((1.0 - u) * (1.0 + u))
    out = np.zeros((n_max + 1, n_max + 1, u.size))
    for m in range(n_max + 1):
        out[m, m] = _norm_mm(m) * s**m
        if m + 1 <= n_max:
            out[m + 1, m] = math.sqrt(2 * m + 3) * u * out[m, m]
        for k in range(m + 2, n_max + 1):
            a = math.sqrt((4 * k * k - 1) / (k * k - m * m))
            b = math.sqrt((2 * k + 1) * ((k - 1) ** 2 - m * m) / ((2 * k - 3) * (k * k - m * m)))
            out[k, m] = a * u * out[k - 1, m] - b * out[k - 2, m]
    return out
