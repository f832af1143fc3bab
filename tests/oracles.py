"""Independent oracles used to pin expected values.

Each oracle reaches its result by a different route than the library:
extended-precision ascending series for Bessel functions, whole
Bessel columns from two mpmath values recurred down in 50 digits, and
the Miller table recurrence as first written, step by step, exact
integer-coefficient Rodrigues differentiation and an extended-precision
unnormalized Ferrers recurrence for associated Legendre, scalar
special-function products for single mode values, a literal (i, n, m)
counting loop for mode sums and the same loop writing out the mode
table rows, characteristic polynomial roots for small
eigenproblems, scalar spherical-harmonic sums for the Jacobi-Anger
expansion, the per-point arrays of the space-time grid built eagerly
by repeat, tile and outer product, the dense per-point routes that
the factored Gram, projection and the separable ensemble rows replace,
the per-mode factor columns as first written, one column per mode on
every axis,
the band's time basis as one complex SVD over every time node with each
wave's time coordinates through its real lift, as first written, and the
basis that the ensemble's centred parity parts stand for, on every node,
a dense ball quadrature of the truncation error, the same error's
Lommel tail sum term by term in extended precision, each mode's radial
norm as an extended-precision quadrature of mpmath Bessel values, and
a seeded plane-wave set drawn as first written, one ``default_rng``
call per draw.
"""

import cmath
import math
from fractions import Fraction

import mpmath as mp
import numpy as np

from wavedof import rankcheck, specfun
from wavedof.bounds import Dimension, PhysicalConfig
from wavedof.modes import PlaneWaveSet, _bin_columns, jacobi_anger_values, mode_matrix

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


def bessel_column_reference(n_max: int, x: float, spherical: bool,
                            dps: int = 50) -> np.ndarray:
    """J_n(x), or j_n(x) with ``spherical``, for n = 0..n_max.

    mpmath gives the orders n_max and n_max + 1; the three-term
    recurrence f_{n-1} = (2n + spherical)/x f_n - f_{n+1} then runs down
    in dps-digit arithmetic. Downward is the stable direction wherever
    n > x, and neither direction grows errors where n < x, so the
    column keeps far more than double precision at a cost of two mpmath
    Bessel calls.
    """
    with mp.workdps(dps):
        xm = mp.mpf(x)
        if spherical:
            def f(n):
                return mp.sqrt(mp.pi / (2 * xm)) * mp.besselj(n + mp.mpf(1) / 2, xm)
        else:
            def f(n):
                return mp.besselj(n, xm)
        col = [mp.mpf(0)] * (n_max + 2)
        col[n_max], col[n_max + 1] = f(n_max), f(n_max + 1)
        for n in range(n_max, 0, -1):
            col[n - 1] = (2 * n + spherical) / xm * col[n] - col[n + 1]
        return np.array([float(v) for v in col[:n_max + 1]])


def miller_table_reference(n_max: int, x, spherical: bool = False) -> np.ndarray:
    """``specfun.bessel_table`` as its recurrence was first written: each
    step allocates its row, doubles every even-order term, and tests every
    column against its guard with abs, > and any. The library's loop
    writes rows in place, doubles the even-order sum once, and scans the
    columns only when a running bound could pass a guard; its values
    must be bit-identical to these."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros((n_max + 1, x.size))
    out[0, x == 0] = 1.0
    pos = x > 0
    if not pos.any():
        return out
    xs = x[pos]
    m = specfun._miller_start(n_max, float(xs.max()))
    m += m % 2
    table = np.empty((n_max + 1, xs.size))
    jp = np.zeros(xs.size)           # unnormalized value at order k + 1
    jc = np.full(xs.size, 1e-30)     # unnormalized value at order k
    total = np.zeros(xs.size)        # 2 sum_k J_{2k}, cylindrical only
    # The guard leaves head-room for one step's growth, at most (2m+2)/x.
    limit = np.minimum(specfun._RESCALE_LIMIT, 1e300 * xs / (2 * m + 2))
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
        xc = np.maximum(xs, 1.0)
        j0 = np.sin(xs) / xs
        j1 = np.sin(xc) / (xc * xc) - np.cos(xc) / xc
        scale = np.where(np.abs(j0) >= np.abs(j1), j0 / jc, j1 / jp)
    else:
        scale = 1.0 / (total + jc)
    out[:, pos] = table * scale
    return out


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


def ferrers_reference(n_max: int, m: int, u: float, normalized: bool = True,
                      dps: int = 80) -> np.ndarray:
    """P_n^m(u) for n = 0..n_max at one order m >= 0 (zero below n = m).

    Runs the unnormalized Ferrers recurrence, P_m^m = (-1)^m (2m-1)!!
    (1-u^2)^(m/2) and (n-m) P_n^m = (2n-1) u P_{n-1}^m - (n+m-1) P_{n-2}^m,
    in dps-digit mpmath arithmetic, where its values cannot overflow.
    With ``normalized`` each value is then scaled by
    sqrt((2n+1)/(4 pi) (n-m)!/(n+m)!), the theta factor of Y_n^m.
    mpmath's ``legenp`` fails to converge near n = 200 at its default
    precision.
    """
    out = np.zeros(n_max + 1)
    with mp.workdps(dps):
        um = mp.mpf(u)
        p_prev = mp.mpf(0)
        p = (-1) ** m * mp.fac2(2 * m - 1) * ((1 - um) * (1 + um)) ** (mp.mpf(m) / 2)
        ratio = 1 / mp.factorial(2 * m)       # (n-m)!/(n+m)! at n = m
        for n in range(m, n_max + 1):
            if n > m:
                p_prev, p = p, ((2 * n - 1) * um * p - (n + m - 1) * p_prev) / (n - m)
                ratio *= mp.mpf(n - m) / (n + m)
            out[n] = float(mp.sqrt((2 * n + 1) * ratio / (4 * mp.pi)) * p if normalized else p)
    return out


def scalar_mode_value(index, position, t: float, cfg) -> complex:
    """One mode value from scalar special functions: j_n(k r) Y_n^m(rhat)
    in 3D, or J_|m|(k r) e^{i m theta} with J_{-m} = (-1)^m J_m in 2D,
    times exp(2j pi i t / T) / sqrt(T), with the r = 0 limits written
    out. When no integer i has F0 - W <= i/T <= F0 + W (by the literal
    snap), the stand-in bin i = round(F0 T) is evaluated at F0 instead:
    k = 2 pi F0 / c and time factor exp(2j pi F0 t) / sqrt(T)."""
    pos = np.asarray(position, dtype=float)
    r = float(np.linalg.norm(pos))
    lo = snap((cfg.f0 - cfg.W) * cfg.T, math.ceil)
    hi = snap((cfg.f0 + cfg.W) * cfg.T, math.floor)
    if lo > hi and index.i == round(cfg.f0 * cfg.T):
        k = 2.0 * math.pi * cfg.f0 / cfg.c
        tf = cmath.exp(2j * math.pi * cfg.f0 * t) / math.sqrt(cfg.T)
    else:
        k = 2.0 * math.pi * index.i / (cfg.c * cfg.T)
        tf = cmath.exp(2j * math.pi * index.i * t / cfg.T) / math.sqrt(cfg.T)
    if index.dim is Dimension.THREE_D:
        if r == 0.0:
            return tf / math.sqrt(specfun.FOUR_PI) if index.n == 0 else 0.0 + 0.0j
        ang = specfun.sph_harm(index.n, index.m,
                               specfun.Angle(math.acos(min(max(pos[2] / r, -1.0), 1.0)),
                                             math.atan2(pos[1], pos[0])))
        return specfun.spherical_bessel_j(index.n, k * r) * ang * tf
    if r == 0.0:
        return tf if index.m == 0 else 0.0 + 0.0j
    radial = specfun.bessel_J(abs(index.m), k * r)
    if index.m < 0 and index.m % 2:
        radial = -radial
    return radial * cmath.exp(1j * index.m * math.atan2(pos[1], pos[0])) * tf


def snap(v: float, rounding) -> int:
    """The library's documented snap, literally: round v to the nearest
    integer, keep it if within 1e-9 * max(1, |v|), else ``rounding(v)``
    (math.ceil or math.floor)."""
    r = round(v)
    return r if abs(v - r) <= 1e-9 * max(1.0, abs(v)) else rounding(v)


def brute_force_mode_count(dim3: bool, R: float, W: float, T: float,
                           f0: float, c: float) -> int:
    """Count lattice tuples (i, n, m) one by one."""
    lo = snap((f0 - W) * T, math.ceil)
    hi = snap((f0 + W) * T, math.floor)
    count = 0
    for i in range(lo, hi + 1):
        f = i / T
        n_max = snap(E_PI * R * f / c, math.ceil)
        if dim3:
            for n in range(n_max + 1):
                for _m in range(-n, n + 1):
                    count += 1
        else:
            for _m in range(n_max + 1):
                count += 1
    return count


def mode_table_rows(dim3: bool, R: float, W: float, T: float, f0: float,
                    c: float, two_sided: bool = False) -> list:
    """The rows (i, n, m, f, k) of the ``modes`` table, one by one: each
    integer i with F0 - W <= i/T <= F0 + W by the literal snap at f = i/T,
    or, when there is none, the stand-in i = round(F0 T) at f = F0; for
    each, k = 2 pi f / c and N = snap(e pi R f / c, ceil), then n = 0..N,
    m = -n..n in 3D, or n = 0, m = 0..N (-N..N two-sided) in 2D."""
    lo = snap((f0 - W) * T, math.ceil)
    hi = snap((f0 + W) * T, math.floor)
    band = [(i, i / T) for i in range(lo, hi + 1)]
    if not band:
        band = [(round(f0 * T), f0)]
    rows = []
    for i, f in band:
        k = 2.0 * math.pi * f / c
        n_max = snap(E_PI * R * f / c, math.ceil)
        if dim3:
            for n in range(n_max + 1):
                for m in range(-n, n + 1):
                    rows.append((i, n, m, f, k))
        else:
            for m in range(-n_max if two_sided else 0, n_max + 1):
                rows.append((i, 0, m, f, k))
    return rows


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


def eager_grid_arrays(grid) -> tuple:
    """(points, times, weights) of a space-time grid as ``build_grid``
    once stored them: the spatial nodes repeated once per time node, the
    time nodes tiled once per spatial node, and the outer product of the
    r, [mu], phi and t weights, raveled with t fastest."""
    ax = grid.axes
    t, wr, wphi = ax["t_nodes"], ax["r_weights"], ax["phi_weights"]
    space = np.concatenate([ri * ax["directions"] for ri in ax["r_nodes"]])
    if "mu_weights" in ax:
        w_space = wr[:, None, None] * ax["mu_weights"][None, :, None] * wphi[None, None, :]
    else:
        w_space = wr[:, None] * wphi[None, :]
    w_space = w_space.ravel()
    return (np.repeat(space, len(t), axis=0), np.tile(t, len(w_space)),
            (w_space[:, None] * ax["t_weights"][None, :]).ravel())


def per_mode_factors(modes, axes, cfg) -> dict:
    """``modes.mode_factors`` as first written: every axis factor evaluated
    once per mode, with the same tables and the same arithmetic, so the
    library's gather from the distinct columns must match it bit for bit."""
    spherical = "mu_nodes" in axes
    m = np.array([md.m for md in modes])
    order = np.array([md.n for md in modes]) if spherical else np.abs(m)
    col, k, cycles = _bin_columns(modes, cfg)
    r = axes["r_nodes"]
    table = specfun.bessel_table(int(order.max()),
                                 np.multiply.outer(k, r).ravel(), spherical=spherical)
    out = {"r": table[order, np.add.outer(np.arange(len(r)), col * len(r))]}
    if spherical:
        plm = specfun.norm_assoc_legendre_table(int(order.max()), axes["mu_nodes"])
        out["mu"] = plm[order, np.abs(m)].T
    sign = np.where((m < 0) & (m % 2 == 1), -1.0, 1.0)
    out["phi"] = specfun.cis(np.outer(axes["phi_nodes"], m)) * sign
    phase = np.outer(axes["t_nodes"], 2.0 * math.pi * cycles[col]) / cfg.T
    out["t"] = specfun.cis(phase) / math.sqrt(cfg.T)
    return out


def dense_gram(modes, grid, cfg) -> np.ndarray:
    """G = A^T W conj(A) from the full (points x modes) mode matrix A."""
    a = mode_matrix(modes, grid, cfg)
    a *= np.sqrt(grid.weights)[:, None]
    return a.T @ a.conj()


def pointwise_field_rows(fields, grid) -> np.ndarray:
    """Rows sqrt(w_s) x_f(s), one plane-wave phase per (point, wave)."""
    sw = np.sqrt(grid.weights)
    rows = []
    for pws in fields:
        k = 2.0 * math.pi * pws.frequencies / pws.c
        phase = ((grid.points @ pws.directions.T) * k
                 + 2.0 * math.pi * pws.frequencies * grid.times[:, None])
        rows.append((np.exp(1j * phase) @ pws.amplitudes) * sw)
    return np.array(rows)


def synthesize_field_reference(dim, cfg, num_waves: int, seed: int) -> PlaneWaveSet:
    """``modes.synthesize_field`` as first written: ``default_rng(seed)``
    draws ``normal`` directions, each row divided by its ``np.linalg.norm``,
    ``uniform`` frequencies over [F0 - W, F0 + W], then the real and the
    imaginary parts of the amplitudes, one ``standard_normal`` each, whose
    sum is divided by sqrt 2. The library must give these arrays bit for
    bit."""
    d = 3 if dim is Dimension.THREE_D else 2
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(num_waves, d))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    freqs = rng.uniform(cfg.f0 - cfg.W, cfg.f0 + cfg.W, num_waves)
    amps = (rng.standard_normal(num_waves)
            + 1j * rng.standard_normal(num_waves)) / math.sqrt(2.0)
    return PlaneWaveSet(directions=dirs, frequencies=freqs, amplitudes=amps,
                        c=cfg.c)


def band_time_basis(fields, grid) -> np.ndarray:
    """(time nodes, L) orthonormal columns Q whose span holds every weighted
    time function sqrt(w_t) e^{2 pi i f t} with f in [f_lo, f_hi], the
    fields' lowest and highest frequency, up to rounding, in the row
    convention: y Q Q^H = y for such a row y.

    Q = e^{-2 pi i f_c tau} [E, O], the basis that the ensemble's parts
    stand for: E and O are the parts ``even`` and ``odd`` of
    ``rankcheck._band_time_halves`` on every node, unscaled from
    sqrt(mu w_t) to 1 / sqrt(mu) at tau >= 0 and mirrored with the sign of
    their parity, so both are real and orthonormal and E^T O = 0.
    """
    stack = rankcheck._wave_stack(fields, grid)
    centre, _, tau, even, odd = rankcheck._band_time_halves(stack, grid)
    n_t = len(grid.axes["t_nodes"])
    skip = n_t % 2
    mu = np.full(len(tau), 2.0)
    mu[:skip] = 1.0
    rows = mu * np.sqrt(grid.axes["t_weights"][n_t // 2:])
    upper = np.hstack([even, odd]) / rows[:, None]
    parity = np.repeat([1.0, -1.0], [even.shape[1], odd.shape[1]])
    columns = np.concatenate([upper[skip:][::-1] * parity, upper])
    tau = np.concatenate([-tau[skip:][::-1], tau])
    return columns * np.exp(-2j * math.pi * centre * tau)[:, None]


def complex_band_time_basis(fields, grid) -> np.ndarray:
    """The band's time basis Q as first written: one complex SVD of the
    weighted time functions sqrt(w_t) e^{2 pi i f t} sampled at m =
    2 n_t + 16 Chebyshev frequencies of [f_lo, f_hi], keeping the right
    singular vectors above s_0 n_t eps, in the row convention y Q Q^H = y."""
    t = grid.axes["t_nodes"]
    freqs = np.concatenate([pws.frequencies for pws in fields])
    lo, hi = float(freqs.min()), float(freqs.max())
    m = 2 * len(t) + 16
    f = lo + (hi - lo) * (1.0 + np.cos(math.pi * (np.arange(m) + 0.5) / m)) / 2.0
    samples = np.exp(2j * math.pi * np.multiply.outer(f, t))
    samples *= np.sqrt(grid.axes["t_weights"])
    _, s, vh = np.linalg.svd(samples, full_matrices=False)
    return vh[s > s[0] * len(t) * np.finfo(float).eps].conj().T


def lift_time_coordinates(fields, grid) -> np.ndarray:
    """(fields, waves, 2L) reals, the interleaved view of each wave's
    coordinates a sqrt(w_t) e^{iwt} Q in :func:`complex_band_time_basis`,
    formed as first written: with the real (2 n_t x 2L) lift of
    sqrt(w_t) Q (rows Re Q, Im Q over rows -Im Q, Re Q, columns
    interleaved), cos(wt) lift[:n_t] + sin(wt) lift[n_t:] times the
    amplitude. Waves are zero-padded to the longest field."""
    t = grid.axes["t_nodes"]
    basis = complex_band_time_basis(fields, grid)
    n_t, n_b = basis.shape
    n_w = max(len(pws) for pws in fields)
    wq = basis * np.sqrt(grid.axes["t_weights"])[:, None]
    lift = np.ascontiguousarray(np.concatenate([wq, 1j * wq])).view(float)
    out = np.zeros((len(fields), n_w, 2 * n_b))
    for f, pws in enumerate(fields):
        phase = np.multiply.outer(2.0 * math.pi * pws.frequencies, t)
        coords = np.cos(phase) @ lift[:n_t] + np.sin(phase) @ lift[n_t:]
        out[f, :len(pws)] = (coords.view(complex) * pws.amplitudes[:, None]).view(float)
    return out


#: the two routes of ``ensemble_spectrum`` to its dual, each a private
#: function of ``rankcheck`` that takes (stack, grid), the ensemble's
#: ``rankcheck._wave_stack``
ENSEMBLE_ROUTES = {"blocked": "_blocked_dual", "pair": "_pair_dual"}


def each_ensemble_route(monkeypatch):
    """Yield each route's name, with ``ensemble_spectrum`` sent down that
    route whatever the ensemble's shape."""
    for name in ENSEMBLE_ROUTES:
        monkeypatch.setattr(rankcheck, "_pair_route_is_cheaper",
                            lambda stack, grid, pair=name == "pair": pair)
        yield name


def ensemble_covariance(fields, grid) -> np.ndarray:
    """Weighted second-moment matrix of an ensemble over grid points.

    C[s, s'] = (1/F) sum_f sqrt(w_s) x_f(s) conj(x_f(s')) sqrt(w_s'),
    the (points x points) matrix whose spectrum ``ensemble_spectrum``
    reads through its (fields x fields) dual.
    """
    if len(fields) == 0:
        raise ValueError("ensemble must be nonempty")
    xw = pointwise_field_rows(fields, grid)
    c = xw.conj().T @ xw / len(fields)
    return (c + c.conj().T) / 2.0


def dense_projection(samples, modes, grid, cfg):
    """(coefficients, residual) of the weighted least-squares fit by lstsq on
    the full (points x modes) mode matrix."""
    a = mode_matrix(modes, grid, cfg)
    sw = np.sqrt(grid.weights)
    coeffs = np.linalg.lstsq(a * sw[:, None], samples * sw, rcond=None)[0]
    resid = np.linalg.norm((a @ coeffs - samples) * sw)
    return coeffs, float(resid / np.linalg.norm(samples * sw))


def jacobi_anger_scalar(wv, position, N: int) -> complex:
    """Degree-N Jacobi-Anger partial sum at one point, term by term.

    3D: 4 pi sum_{n<=N} j^n j_n(k r) sum_m Y_n^m(rhat) conj(Y_n^m(khat)),
    with the m-sum taken over spherical harmonics rather than folded
    into P_n by the addition theorem. 2D: the +m and -m terms of
    sum_{|m|<=N} j^m J_m(k r) e^{j m (theta_r - theta_k)} one by one.
    """
    pos = np.asarray(position, dtype=float)
    r = float(np.linalg.norm(pos))
    if r == 0.0:
        return 1.0 + 0.0j
    if wv.dim is Dimension.TWO_D:
        dtheta = math.atan2(pos[1], pos[0]) - math.atan2(wv.k_hat[1], wv.k_hat[0])
        total = specfun.bessel_J(0, wv.k * r) + 0.0j
        for m in range(1, N + 1):
            jm = specfun.bessel_J(m, wv.k * r)
            total += (1j**m) * jm * cmath.exp(1j * m * dtheta)
            total += (1j**-m) * ((-1) ** m) * jm * cmath.exp(-1j * m * dtheta)
        return total
    ra = specfun.Angle(math.acos(min(max(pos[2] / r, -1.0), 1.0)),
                       math.atan2(pos[1], pos[0]))
    ka = specfun.Angle(math.acos(min(max(wv.k_hat[2], -1.0), 1.0)),
                       math.atan2(wv.k_hat[1], wv.k_hat[0]))
    total = 0.0 + 0.0j
    for n in range(N + 1):
        inner = sum(specfun.sph_harm(n, m, ra) * specfun.sph_harm(n, m, ka).conjugate()
                    for m in range(-n, n + 1))
        total += (1j**n) * specfun.spherical_bessel_j(n, wv.k * r) * inner
    return specfun.FOUR_PI * total


def pointwise_truncation_error(wv, radius: float, N: int, resolution) -> float:
    """Relative L2 truncation error from one partial sum per ball point."""
    cfg = PhysicalConfig(R=radius, W=0.0, T=1.0, f0=1.0)
    axes = rankcheck.build_grid(wv.dim, cfg, (*resolution, 1)).axes
    pts = np.concatenate([ri * axes["directions"] for ri in axes["r_nodes"]])
    w = axes["space_weights"]
    exact = np.exp(1j * wv.k * (pts @ np.asarray(wv.k_hat)))
    err = float(np.sum(w * np.abs(exact - jacobi_anger_values(wv, pts, N)) ** 2))
    return math.sqrt(err / float(np.sum(w)))


def lommel_tail_reference(dim, kR: float, N: int, dps: int = 40) -> float:
    """Ball-averaged truncation error from the Lommel tail sum in dps-digit
    mpmath arithmetic: the square root of sum_{n>N} c_n (Z_n^2 -
    Z_{n-1} Z_{n+1})(kR), with Z = J, c_n = 2 in 2D and Z = j,
    c_n = 3 (2n + 1) / 2 in 3D, each Z one mpmath Bessel value. Every
    term is positive (Turan's inequality), so the sum stops at the first
    term past n = kR below 10^-dps of the running total."""
    spherical = dim is Dimension.THREE_D
    with mp.workdps(dps):
        x = mp.mpf(kR)

        def z(n):
            if spherical:
                return mp.sqrt(mp.pi / (2 * x)) * mp.besselj(n + mp.mpf(1) / 2, x)
            return mp.besselj(n, x)

        total, n = mp.mpf(0), N + 1
        prev, cur, nxt = z(n - 1), z(n), z(n + 1)
        while True:
            c_n = mp.mpf(3 * (2 * n + 1)) / 2 if spherical else 2
            term = c_n * (cur**2 - prev * nxt)
            total += term
            if n > x and term <= mp.mpf(10) ** (-dps) * total:
                return float(mp.sqrt(total))
            n += 1
            prev, cur, nxt = cur, nxt, z(n + 1)


def radial_norm_reference(dim, n: int, kR: float, dps: int = 30) -> float:
    """The integral of Z_n(kR r)^2 r^(d-1) over 0 <= r <= 1 by dps-digit
    Gauss-Legendre quadrature: Z = J in 2D (d = 2), and in 3D (d = 3)
    Z = j with j_n(x) = sqrt(pi / (2x)) J_{n+1/2}(x), each value one
    mpmath ``besselj``, so no code is shared with ``bessel_table``. At
    kR = 0, Z_n is 1 for n = 0 and 0 otherwise. The interval is cut into
    ceil(kR / 4) pieces, about two thirds of an oscillation each, and
    below kR = 1 the integrand is divided by kR^(2n), its order of
    magnitude, so that the rule's error is relative."""
    spherical = dim is Dimension.THREE_D
    with mp.workdps(dps):
        k = mp.mpf(kR)

        def z(r):
            if k == 0:
                return mp.mpf(1 if n == 0 else 0)
            if spherical:
                return mp.sqrt(mp.pi / (2 * k * r)) * mp.besselj(n + mp.mpf(1) / 2, k * r)
            return mp.besselj(n, k * r)

        scale = min(k, 1) ** (2 * n) if k else mp.mpf(1)
        power = 2 if spherical else 1
        pieces = mp.linspace(0, 1, 1 + max(1, math.ceil(kR / 4)))
        return float(scale * mp.quad(lambda r: z(r) ** 2 / scale * r ** power, pieces,
                                     method="gauss-legendre"))


def distinct_rows_reference(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``modes._distinct_rows`` as first written: one lexsort over every
    row, then its run boundaries. The library sorts one row per run of
    equal consecutive rows; its output must be identical to this."""
    order = np.lexsort(a.T[::-1])
    s = a[order]
    first = np.ones(len(s), dtype=bool)
    np.any(s[1:] != s[:-1], axis=1, out=first[1:])
    inverse = np.empty(len(a), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return s[first], inverse
