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
  returns every order 0..n_max at once. Its step coefficients (2k+s)/x
  are divided out a block of orders at a time, so each order takes one
  multiply and one subtract in place. Its overflow guard is a running
  bound on the columns' growth; the columns themselves are scanned only
  when that bound could pass a guard. A one-column table runs the same
  recurrence on plain floats, bit-identical to the array loop;
  ``bessel_J`` and ``spherical_bessel_j`` read one entry of such a
  table.
* Legendre values likewise come from one recurrence over the degree n
  at a fixed order m, for Q_n^m = sqrt((n-m)!/(n+m)!) P_n^m. Its m = 0
  column is P_n itself: ``legendre_table`` returns it over an array of
  arguments, and ``legendre_p`` runs it on a plain float.
  ``norm_assoc_legendre_table`` scales the columns m = 0..n_max by
  sqrt((2n+1)/(4 pi)). ``norm_assoc_legendre`` and ``assoc_legendre``
  run one column on plain floats; ``assoc_legendre`` multiplies by
  sqrt((n+m)!/(n-m)!), or divides for negative m.
* Every array e^{i theta} of the library comes from ``cos_sin``, one
  tangent of the half angle per element; ``cis`` writes it into a
  complex array.

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

#: float entries (512 KB) that bound one block of Miller step coefficients
_COEF_ENTRIES = 1 << 16


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


def cos_sin(theta, out=None) -> tuple[np.ndarray, np.ndarray]:
    """(cos theta, sin theta) over an array, from one tangent of the half angle.

    With u = tan(theta/2) and g = 2/(1+u^2), cos = g - 1 and sin = g u.
    numpy vectorizes float64 tan but takes cos and sin one libm call per
    element, so one tan is several times faster than the pair. Both parts
    are within 4.5e-16 of the exact values. ``out`` is a pair of arrays of
    theta's shape; ``out[0]`` may be theta itself, ``out[1]`` may not.
    Strided views are allowed, but numpy runs each ufunc on them 1.3 to
    4.7 times slower than on contiguous arrays, so hot loops pass
    contiguous ones.
    """
    theta = np.asarray(theta, dtype=float)
    if out is None:
        out = (np.empty(theta.shape), np.empty(theta.shape))
    c, s = out
    np.multiply(theta, 0.5, out=s)
    np.tan(s, out=s)
    np.multiply(s, s, out=c)
    c += 1.0
    np.divide(2.0, c, out=c)
    s *= c
    c -= 1.0
    return c, s


def cis(theta) -> np.ndarray:
    """e^{i theta} as a complex array: :func:`cos_sin` written into the
    real and imaginary parts of the result."""
    theta = np.asarray(theta, dtype=float)
    z = np.empty(theta.shape, dtype=complex)
    cos_sin(theta, out=(z.real, z.imag))
    return z


def _miller_start(n: int, x: float) -> int:
    # Enough head-room above both the order and the turning point k ~ x;
    # the Airy transition zone is O(x^(1/3)) wide.
    return max(n, int(x)) + 32 + int(10.0 * x ** (1.0 / 3.0))


def bessel_table(n_max: int, x, spherical: bool = False) -> np.ndarray:
    """Bessel values J_n(x), or j_n(x) with ``spherical``, for n = 0..n_max.

    Returns an array of shape (n_max+1, len(x)). One downward (Miller)
    recurrence runs over every column at once; downward recurrence
    stays accurate for every order, where upward recurrence loses all
    accuracy once the order exceeds the argument. The coefficients
    (2k+s)/x are taken a block of orders at a time, one division of
    at most ``_COEF_ENTRIES`` entries, and each order is then one
    multiply and one subtract written in place into its table row, or
    into a rotating scratch row above n_max. A column that grows past
    its magnitude guard is rescaled on its own; a running bound on every
    column's growth, one float per step, tells when that could happen,
    and only then are the columns scanned against their guards.
    Cylindrical columns are normalized through
    J_0(x) + 2 sum_k J_{2k}(x) = 1, which fixes both scale and sign;
    spherical columns are anchored on the closed form of j_0 or j_1,
    whichever is farther from a zero. Columns whose first step (2m+s)/x
    overflows, at x = 0 and below about 1e-307, take the series limit,
    which is exact there, in the same pass.

    A table of one column runs the same steps on plain floats
    (:func:`_miller_column`), bit-identical to the array loop and several
    times faster, since numpy's per-call cost on a 1-element array
    outweighs its arithmetic. An empty x gives an empty (n_max+1, 0)
    table.

    The recurrence writes and normalizes the table in place, so the call
    holds about one table of memory.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if n_max < 0:
        raise ValueError(f"order must be >= 0, got {n_max}")
    if not np.all(np.isfinite(x) & (x >= 0)):
        raise ValueError("arguments must be finite and >= 0")
    if x.size == 0:
        return np.empty((n_max + 1, 0))
    m = _miller_start(n_max, float(x.max()))
    m += m % 2
    # Where the first step (2m+s)/x overflows, at x = 0 and below about
    # 1e-307, the power series rounds to 1 at order 0, x/2 (x/3
    # spherical) at order 1 and 0 above. Such a column recurs as a copy
    # of the largest x, which recurs anyway (of 1.0 when none does), so
    # m, x_min, every guard and every rescale stay as without it.
    with np.errstate(divide="ignore", over="ignore"):
        series = ~np.isfinite((2 * m + spherical) / x)
    if series.any():
        x_series = x[series]
        x = np.where(series, 1.0 if series.all() else x.max(), x)
    if x.size == 1:
        table = _miller_column(n_max, float(x[0]), m, spherical)[:, None]
    else:
        table = _miller_columns(n_max, x, m, spherical)
    if series.any():
        table[:, series] = 0.0
        table[0, series] = 1.0
        table[1:2, series] = x_series / (2.0 + spherical)
    return table


def _miller_columns(n_max: int, x: np.ndarray, m: int, spherical: bool) -> np.ndarray:
    """The normalized table of :func:`bessel_table` over two or more
    columns with no series column, from order m down."""
    # Orders 0..n_max are written into their table rows and orders above
    # n_max rotate through three scratch rows, so each step writes one row
    # in place.
    table = np.empty((n_max + 1, x.size))
    scratch = np.empty((3, x.size))
    jp = scratch[(m + 1) % 3]            # unnormalized value at order k + 1
    jc = scratch[m % 3]                  # unnormalized value at order k
    jp[:] = 0.0
    jc[:] = 1e-30
    total = np.zeros(x.size)             # sum_k J_{2k}, cylindrical only
    # The guard leaves head-room for one step's growth, at most (2m+2)/x.
    limit = np.minimum(_RESCALE_LIMIT, 1e300 * x / (2 * m + 2))
    # A step multiplies max(|jc|, |jp|) by at most (2k+s)/x + 1, so the
    # running ``bound`` stays above every column's max, and the columns
    # are scanned against their guards only once it passes the smallest
    # one. Its update, bound + bound (2k+s)/x_min, rounds monotonically
    # with the step's own arithmetic, so it bounds the rounded values
    # too. A NaN bound (from a subnormal x) scans every step.
    x_min, limit_min, bound = float(x.min()), float(limit.min()), 1e-30
    per = max(1, _COEF_ENTRIES // x.size)
    for top in range(m, 0, -per):
        ks = np.arange(top, max(top - per, 0), -1)
        for k, coef in zip(ks.tolist(), np.divide.outer(2 * ks + spherical, x)):
            row = table[k - 1] if k - 1 <= n_max else scratch[(k - 1) % 3]
            np.multiply(coef, jc, out=row)
            row -= jp
            jp, jc = jc, row
            if not spherical and k % 2 == 0:
                total += jp              # jp now holds the value at even order k
            bound += bound * ((2 * k + spherical) / x_min)
            if not bound <= limit_min:
                big = np.abs(jc) > limit
                if big.any():
                    f = 1.0 / np.abs(jc[big])
                    total[big] *= f
                    # jc, jp and every table row written so far: rows k-1 and up.
                    table[k - 1:, big] *= f
                    scratch[:, big] *= f
                bound = float(np.abs([jc, jp]).max())
    if spherical:
        # The closed form of j_1 cancels catastrophically near zero, so it
        # is taken at max(x, 1); below x = 1, |j_0(x)| > 0.84 > |j_1(1)|
        # picks j_0 either way.
        xc = np.maximum(x, 1.0)
        j0 = np.sin(x) / x
        j1 = np.sin(xc) / (xc * xc) - np.cos(xc) / xc
        scale = np.where(np.abs(j0) >= np.abs(j1), j0 / jc, j1 / jp)
    else:
        scale = 1.0 / (2.0 * total + jc)
    table *= scale
    return table


def _miller_column(n_max: int, x: float, m: int, spherical: bool) -> np.ndarray:
    """The one column of :func:`bessel_table` at x > 0 that is not a series
    column, as a 1-D array of orders 0..n_max, from order m down.

    The steps are those of the array loop on Python floats: (2k+s)/x jc -
    jp, a rescale of every value from order k-1 up by 1/|jc| whenever
    |jc| passes the guard, and the same anchor, with numpy's sin and cos.
    Its values are therefore bit-identical to that loop's.
    """
    out = np.empty(n_max + 1)
    jp, jc, total = 0.0, 1e-30, 0.0      # total = 2 sum_k J_{2k}, cylindrical only
    limit = min(_RESCALE_LIMIT, 1e300 * x / (2 * m + 2))
    for k in range(m, 0, -1):
        jp, jc = jc, (2 * k + spherical) / x * jc - jp
        if k <= n_max + 1:
            out[k - 1] = jc
        if not spherical and k % 2 == 0:
            total += 2.0 * jp            # jp now holds the value at even order k
        if abs(jc) > limit:
            f = 1.0 / abs(jc)
            jp *= f
            jc *= f
            total *= f
            if k <= n_max + 1:
                out[k - 1:] *= f
    if spherical:
        xc = max(x, 1.0)
        j0 = float(np.sin(x)) / x
        j1 = float(np.sin(xc)) / (xc * xc) - float(np.cos(xc)) / xc
        scale = j0 / jc if abs(j0) >= abs(j1) else j1 / jp
    else:
        scale = 1.0 / (total + jc)
    out *= scale
    return out


def spherical_bessel_j(n: int, x: float) -> float:
    """Spherical Bessel function j_n(x) for n >= 0, x >= 0."""
    return float(bessel_table(n, x, spherical=True)[n, 0])


def bessel_J(n: int, x: float) -> float:
    """Cylindrical Bessel function J_n(x) for integer n >= 0, x >= 0."""
    return float(bessel_table(n, x)[n, 0])


def _legendre_column(n_max: int, m: int, u):
    """Yield Q_n^m(u) = sqrt((n-m)!/(n+m)!) P_n^m(u) for n = m..n_max, at
    fixed m >= 0.

    The one Legendre recurrence; every public Legendre name reads it. u is
    a float or an array, and both take the same arithmetic, so a scalar
    read costs one O(n) column on plain floats, and a table writes each
    row into place as it is yielded. The start is
    Q_m^m = (-1)^m sqrt(C(2m, m) / 4^m) (1-u^2)^(m/2), with the
    Condon-Shortley phase; C(2m, m) / 4^m = prod_{k<=m} (2k-1)/(2k) is one
    correctly rounded integer division. The power is 1 at m = 0 for
    every real u, so P_n = Q_n^0 accepts u outside [-1, 1]. Upward in
    degree, sqrt(n^2-m^2) Q_n = (2n-1) u Q_{n-1} - sqrt((n-1)^2-m^2) Q_{n-2},
    which at m = 0 is the three-term Legendre recurrence, exactly.
    """
    c = math.sqrt(math.comb(2 * m, m) / 4**m)
    q = (-c if m % 2 else c) * ((1.0 - u) * (1.0 + u)) ** (0.5 * m)
    yield q
    q_prev, d_prev = 0.0, 0.0
    for n in range(m + 1, n_max + 1):
        d = math.sqrt(n * n - m * m)
        q_prev, q = q, ((2 * n - 1) * u * q - d_prev * q_prev) / d
        d_prev = d
        yield q


def legendre_table(n_max: int, u) -> np.ndarray:
    """Legendre polynomials P_n(u) for n = 0..n_max over an array of u.

    Returns an array of shape (n_max+1, len(u)): the m = 0 column of the
    Legendre recurrence, (k+1) P_{k+1} = (2k+1) u P_k - k P_{k-1}. Any
    real u is accepted.
    """
    if n_max < 0:
        raise ValueError(f"degree must be >= 0, got {n_max}")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    out = np.empty((n_max + 1,) + u.shape)
    for n, q in enumerate(_legendre_column(n_max, 0, u)):
        out[n] = q
    return out


def legendre_p(n: int, u: float) -> float:
    """Legendre polynomial P_n(u): the m = 0 Legendre column on a float."""
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    *_, p = _legendre_column(n, 0, float(u))
    return p


def _check_u(u: float) -> float:
    if abs(u) > 1.0 + 1e-12:
        raise ValueError(f"argument must lie in [-1, 1], got {u}")
    return min(max(u, -1.0), 1.0)


def assoc_legendre(n: int, m: int, u: float) -> float:
    """Ferrers associated Legendre function P_n^m(u), Condon-Shortley phase.

    Accepts -n <= m <= n; rejects |m| > n. P_n^{-m} = (-1)^m (n-m)!/(n+m)! P_n^m.
    """
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    if abs(m) > n:
        raise ValueError(f"|m| must be <= n, got m={m}, n={n}")
    mm = abs(m)
    *_, q = _legendre_column(n, mm, _check_u(u))
    # sqrt((n+m)!/(n-m)!) as a product of square roots, which stays finite
    # wherever the factorials themselves would overflow.
    ratio = math.prod(math.sqrt(k) for k in range(n - mm + 1, n + mm + 1))
    if m >= 0:
        return q * ratio
    return (-q if mm % 2 else q) / ratio


def norm_assoc_legendre(n: int, m: int, u: float) -> float:
    """Orthonormalized associated Legendre, the theta factor of sph_harm.

    Equals sqrt((2n+1)/(4 pi) (n-m)!/(n+m)!) P_n^m(u) for m >= 0, evaluated
    by a recurrence that is stable and overflow-free for large degrees.
    """
    if n < 0 or not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got n={n}, m={m}")
    *_, q = _legendre_column(n, m, _check_u(u))
    return math.sqrt((2 * n + 1) / FOUR_PI) * q


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
    if n_max < 0:
        raise ValueError(f"degree must be >= 0, got {n_max}")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any(np.abs(u) > 1.0 + 1e-12):
        raise ValueError("arguments must lie in [-1, 1]")
    u = np.clip(u, -1.0, 1.0)
    out = np.zeros((n_max + 1, n_max + 1, u.size))
    for m in range(n_max + 1):
        for n, q in enumerate(_legendre_column(n_max, m, u), m):
            out[n, m] = q
    out *= np.sqrt((2 * np.arange(n_max + 1) + 1) / FOUR_PI)[:, None, None]
    return out
