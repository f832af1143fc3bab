"""Independent oracles used to pin expected values.

Each oracle reaches its result by a different route than the library:
extended-precision ascending series for Bessel functions, exact
integer-coefficient Rodrigues differentiation for associated Legendre,
a literal (i, n, m) counting loop for mode sums, characteristic
polynomial roots for small eigenproblems, and the dense per-point
routes that the factored Gram and the separable ensemble rows replace.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np

from wavedof.modes import field_values, mode_matrix

E_PI = math.e * math.pi


def sph_bessel_series(n: int, x: float, dps: int = 60) -> float:
    """j_n(x) by the ascending power series in mpmath arithmetic."""
    if x == 0:
        return 1.0 if n == 0 else 0.0
    with mp.workdps(dps):
        xm = mp.mpf(x)
        dfact = mp.mpf(1)
        for j in range(2 * n + 1, 0, -2):
            dfact *= j
        term = xm**n / dfact
        total = term
        k = 1
        while True:
            term *= -xm * xm / (2 * k * (2 * n + 2 * k + 1))
            total += term
            if k > 5 and abs(term) < mp.mpf(10) ** (-dps) * abs(total):
                return float(total)
            k += 1


def cyl_bessel_series(n: int, x: float, dps: int = 60) -> float:
    """J_n(x) by the ascending power series in mpmath arithmetic."""
    if x == 0:
        return 1.0 if n == 0 else 0.0
    with mp.workdps(dps):
        xm = mp.mpf(x) / 2
        term = xm**n / mp.factorial(n)
        total = term
        k = 1
        while True:
            term *= -xm * xm / (k * (n + k))
            total += term
            if k > 5 and abs(term) < mp.mpf(10) ** (-dps) * abs(total):
                return float(total)
            k += 1


def sph_bessel_reference(n: int, x: float) -> float:
    """j_n(x) via mpmath's half-integer J; covers x beyond series reach."""
    if x == 0:
        return 1.0 if n == 0 else 0.0
    with mp.workdps(40):
        return float(mp.sqrt(mp.pi / (2 * mp.mpf(x))) * mp.besselj(n + mp.mpf(1) / 2, x))


def rodrigues_assoc_legendre(n: int, m: int, u: Fraction) -> float:
    """P_n^m by exact differentiation of (u^2 - 1)^n, Condon-Shortley phase."""
    assert 0 <= m <= n
    coeffs = {2 * j: Fraction(math.comb(n, j) * (-1) ** (n - j))
              for j in range(n + 1)}
    for _ in range(n + m):
        coeffs = {p - 1: c * p for p, c in coeffs.items() if p > 0}
    val = sum(c * u**p for p, c in coeffs.items())
    val /= Fraction(2) ** n * math.factorial(n)
    s = (1.0 - float(u) ** 2) ** (m / 2.0)
    return (-1) ** m * s * float(val)


def brute_force_mode_count(dim3: bool, R: float, W: float, T: float,
                           f0: float, c: float) -> int:
    """Count lattice tuples (i, n, m) one by one."""
    eps = 1e-9
    lo = math.ceil((f0 - W) * T - eps * max(1.0, abs((f0 - W) * T)))
    hi = math.floor((f0 + W) * T + eps * max(1.0, abs((f0 + W) * T)))
    count = 0
    for i in range(lo, hi + 1):
        f = i / T
        v = E_PI * R * f / c
        n_max = math.ceil(v - eps * max(1.0, abs(v)))
        if dim3:
            for n in range(n_max + 1):
                for _m in range(-n, n + 1):
                    count += 1
        else:
            for _m in range(n_max + 1):
                count += 1
    return count


def charpoly_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues via Faddeev-LeVerrier coefficients and numpy.roots."""
    n = m.shape[0]
    coeffs = [1.0 + 0.0j]
    mk = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        mk = m @ mk
        ck = -np.trace(mk) / k
        mk = mk + ck * np.eye(n)
        coeffs.append(ck)
    roots = np.roots(np.array(coeffs))
    return np.sort(roots.real)[::-1]


def dense_gram(modes, grid, cfg) -> np.ndarray:
    """G = A^T W conj(A) from the full (points x modes) mode matrix A."""
    a = mode_matrix(modes, grid, cfg)
    a *= np.sqrt(grid.weights)[:, None]
    return a.T @ a.conj()


def pointwise_field_rows(fields, grid) -> np.ndarray:
    """Rows sqrt(w_s) x_f(s), one plane-wave phase per (point, wave)."""
    sw = np.sqrt(grid.weights)
    return np.array([field_values(pws, grid.points, grid.times) * sw
                     for pws in fields])
