"""Special-function accuracy, recurrences, orthonormality."""

import math
import tracemalloc
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from wavedof import (Angle, assoc_legendre, bessel_J, legendre_p,
                     norm_assoc_legendre, specfun, sph_harm, spherical_bessel_j)
from wavedof.specfun import (_miller_start, bessel_table, cis, cos_sin,
                             legendre_table, norm_assoc_legendre_table)

from oracles import (bessel_column_reference, cyl_bessel_series, ferrers_reference,
                     miller_table_reference, rodrigues_assoc_legendre,
                     sph_bessel_reference, sph_bessel_series)

# frozen from the extended-precision series oracle
J50_AT_10 = 2.2306960232186468e-31
J5_CYL_AT_7_5 = 0.28347390516255046


def test_sph_bessel_closed_forms():
    assert spherical_bessel_j(0, 1.0) == pytest.approx(math.sin(1.0), rel=1e-14)
    assert spherical_bessel_j(0, 1.0) == pytest.approx(0.8414709848, rel=1e-9)
    j1 = math.sin(2.0) / 4.0 - math.cos(2.0) / 2.0
    assert spherical_bessel_j(1, 2.0) == pytest.approx(j1, rel=1e-14)
    assert spherical_bessel_j(1, 2.0) == pytest.approx(0.4353977749, rel=1e-9)


def test_sph_bessel_at_zero():
    assert spherical_bessel_j(0, 0.0) == 1.0
    for n in (1, 2, 17, 200):
        assert spherical_bessel_j(n, 0.0) == 0.0


def test_sph_bessel_frozen_value():
    assert spherical_bessel_j(50, 10.0) == pytest.approx(J50_AT_10, rel=1e-10)


def test_sph_bessel_against_series_oracle():
    # downward recurrence vs ascending series, n <= 100, x <= 100; at
    # x = 1e-100 one recurrence step grows by more than the overflow range
    for n in (0, 1, 2, 5, 10, 25, 50, 100):
        for x in (1e-300, 1e-100, 1e-3, 0.1, 1.0, 3.0, 9.5, 30.0, 100.0):
            ref = sph_bessel_series(n, x, dps=150)
            if abs(ref) < 1e-280:
                continue
            assert spherical_bessel_j(n, x) == pytest.approx(ref, rel=1e-10), (n, x)


def test_sph_bessel_large_arguments():
    # 10 significant digits up to n = 200, x = 500
    for n in (0, 3, 40, 125, 200):
        for x in (150.0, 300.0, 500.0):
            ref = sph_bessel_reference(n, x)
            assert spherical_bessel_j(n, x) == pytest.approx(ref, rel=1e-10), (n, x)


def test_sph_bessel_recurrence_residual():
    # (2n+1) j_n/x = j_{n-1} + j_{n+1}, relative residual <= 1e-10
    xs = [0.05, 0.3, 1.0, 3.0, 7.7, 20.0, 55.0, 130.0, 300.0]
    for n in range(1, 101):
        for x in xs:
            jm = spherical_bessel_j(n - 1, x)
            jc = spherical_bessel_j(n, x)
            jp = spherical_bessel_j(n + 1, x)
            lhs = (2 * n + 1) * jc / x
            scale = max(abs(lhs), abs(jm), abs(jp))
            if scale < 1e-280:
                continue
            assert abs(lhs - jm - jp) / scale <= 1e-10, (n, x)


def test_cyl_bessel_trivial():
    assert bessel_J(0, 0.0) == 1.0
    assert bessel_J(1, 0.0) == 0.0
    assert bessel_J(7, 0.0) == 0.0


def test_cyl_bessel_frozen_value():
    assert bessel_J(5, 7.5) == pytest.approx(J5_CYL_AT_7_5, rel=1e-10)


def test_cyl_bessel_against_series_oracle():
    for n in (0, 1, 2, 6, 20, 60, 150, 200):
        for x in (1e-300, 1e-100, 1e-3, 0.4, 2.0, 7.5, 15.0, 40.0, 90.0):
            ref = cyl_bessel_series(n, x, dps=150)
            if abs(ref) < 1e-280:
                continue
            assert bessel_J(n, x) == pytest.approx(ref, rel=1e-10), (n, x)


def test_cyl_bessel_recurrence_residual():
    for n in range(1, 101):
        for x in (0.4, 2.2, 11.0, 73.0, 210.0, 499.0):
            jm, jc, jp = bessel_J(n - 1, x), bessel_J(n, x), bessel_J(n + 1, x)
            lhs = 2 * n * jc / x
            scale = max(abs(lhs), abs(jm), abs(jp))
            if scale < 1e-280:
                continue
            assert abs(lhs - jm - jp) / scale <= 1e-10, (n, x)


def test_bessel_table_against_references():
    # one call per kind over mixed arguments, including x = 0 and x > n_max
    xs = [0.0, 1e-3, 0.1, 1.0, 9.5, 30.0, 100.0, 199.0, 200.0, 201.0, 300.0, 500.0]
    sph = bessel_table(200, xs, spherical=True)
    cyl = bessel_table(200, xs)
    assert sph.shape == cyl.shape == (201, len(xs))
    assert sph[0, 0] == cyl[0, 0] == 1.0
    assert not sph[1:, 0].any() and not cyl[1:, 0].any()
    with mp.workdps(40):
        for j, x in enumerate(xs[1:], 1):
            for n in range(201):
                ref_s = sph_bessel_reference(n, x)
                ref_c = float(mp.besselj(n, x))
                if abs(ref_s) >= 1e-280:
                    assert sph[n, j] == pytest.approx(ref_s, rel=1e-10), (n, x)
                if abs(ref_c) >= 1e-280:
                    assert cyl[n, j] == pytest.approx(ref_c, rel=1e-10), (n, x)


def test_bessel_table_pinned_to_mpmath_over_range():
    """Both kinds over n <= 200 and 0 < x <= 500, through the turning
    point n ~ x and down to x near 0. Each value is within 1e-10 of its
    mpmath reference, relative to max(|ref|, 1e-10 x its column's largest
    value), so the tiniest values are pinned too."""
    xs = np.concatenate([[1e-12, 1e-6, 1e-3, 0.01, 0.1],
                         [n + d for n in (5, 20, 50, 100, 150, 200) for d in (-0.5, 0, 0.5)],
                         np.geomspace(0.3, 500.0, 25)])
    assert len(xs) == 48 and xs.max() == 500.0
    for spherical in (True, False):
        got = bessel_table(200, xs, spherical=spherical).T
        ref = np.array([bessel_column_reference(200, x, spherical) for x in xs])
        floor = 1e-10 * np.max(np.abs(ref), axis=1, keepdims=True)
        err = np.abs(got - ref) / np.maximum(np.abs(ref), floor)
        worst = np.unravel_index(np.argmax(err), err.shape)
        assert err.max() <= 1e-10, (spherical, xs[worst[0]], worst[1], err.max())


@pytest.mark.parametrize("spherical", [False, True])
def test_bessel_table_bit_identical_to_literal_recurrence(spherical):
    """The in-place recurrence with its running guard bound gives exactly
    the values of the literal loop wherever its first step (2m+s)/x is
    finite. Where that step overflows (x below about 1e-307) the literal
    loop gives NaN, and the table takes the series limit: 1 at order 0,
    x/2 (x/3 spherical) at order 1, 0 above. The column sets make the
    per-column rescale fire above n_max only ([1e-8, 3] at n_max 5), at
    every order down to 0 (1e-300 and subnormals next to 500), and both
    ways among random columns. A single column runs on plain floats, so
    the same rescale, large-argument and series cases come again one
    column at a time, with a sweep of one-column tables from 1e-300 to
    1e3."""
    _check_literal_recurrence(spherical)


@pytest.mark.parametrize("entries", [20, 3], ids=["several-blocks", "one-row-blocks"])
@pytest.mark.parametrize("spherical", [False, True])
def test_bessel_table_coefficient_blocks_bit_identical(spherical, entries, monkeypatch):
    """The step coefficients (2k+s)/x are taken a block of orders at a
    time, within ``_COEF_ENTRIES`` entries. With 20 entries every
    recurrence spans several blocks (1 to 20 orders each, the fewest at
    48 steps); with 3, a block of more than 3 columns is a single order.
    The values stay those of the literal loop, over the same rescale and
    series cases."""
    monkeypatch.setattr(specfun, "_COEF_ENTRIES", entries)
    _check_literal_recurrence(spherical)


def _check_literal_recurrence(spherical):
    rng = np.random.default_rng(31)
    cases = [(0, 2.5),                                    # a single float
             (14, [0.0, 1.0, 0.0, 37.0]),                 # x = 0 columns
             (5, [1e-8, 3.0]),
             (60, [1e-300, 500.0]),
             (55, [5e-324, 1e-310, 1e-300, 500.0, 0.0]),
             (3, [2.3e-308, 5e-324]),                     # series columns only
             (200, rng.uniform(0, 500, 24)),
             (1, rng.uniform(0, 40, 24) * rng.uniform(0, 1, 24) ** 8),
             # one column each, on plain floats
             (5, [1e-8]),                                 # rescale above n_max only
             (60, [1e-300]),                              # rescale down to order 0
             (200, [500.0]),
             (3, [0.0]),
             (3, [5e-324])]                               # a series column alone
    cases += [(n_max, [x]) for n_max in (0, 1, 5, 60, 200)
              for x in 10.0 ** rng.uniform(-300, 3, 24)]
    n_series = 0
    for n_max, x in cases:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = bessel_table(n_max, x, spherical=spherical)
        with np.errstate(all="ignore"):
            want = miller_table_reference(n_max, x, spherical)
            m = _miller_start(n_max, float(x.max()))
            series = (x > 0) & np.isinf((2 * (m + m % 2) + spherical) / x)
        assert np.array_equal(got[:, ~series], want[:, ~series]), (n_max, x)
        limit = np.zeros((n_max + 1, series.sum()))
        limit[0] = 1.0
        limit[1:2] = x[series] / (3.0 if spherical else 2.0)
        assert np.array_equal(got[:, series], limit), (n_max, x)
        n_series += series.sum()
    assert n_series == 5


@pytest.mark.parametrize("spherical", [False, True])
def test_bessel_table_of_no_arguments_is_empty(spherical):
    table = bessel_table(4, [], spherical=spherical)
    assert table.shape == (5, 0) and table.dtype == np.float64


def test_bessel_rejects_bad_domain():
    with pytest.raises(ValueError):
        spherical_bessel_j(-1, 1.0)
    with pytest.raises(ValueError):
        spherical_bessel_j(2, -0.5)
    with pytest.raises(ValueError):
        bessel_J(-3, 1.0)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            bessel_table(3, [1.0, bad])
    with pytest.raises(ValueError):
        bessel_table(-1, [1.0])


def test_legendre_polynomial_basics():
    xs = np.linspace(-1, 1, 11)
    for u in xs:
        assert legendre_p(0, u) == 1.0
        assert legendre_p(1, u) == u
        assert legendre_p(2, u) == pytest.approx(1.5 * u * u - 0.5, abs=1e-14)


def test_legendre_polynomials_outside_unit_interval():
    # P_n is a polynomial, so any real u is accepted, without warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert legendre_p(2, 1.5) == 2.875
        assert legendre_p(3, -2.0) == -17.0
        table = legendre_table(3, [1.5, -2.0])
    assert table.tolist() == [[1.0, 1.0], [1.5, -2.0], [2.875, 5.5], [6.1875, -17.0]]


def test_legendre_table_memory():
    # The 3D expand point: degrees 0..33 at its 1156 folded directions. Rows
    # are written into the table as the recurrence yields them: measured
    # 0.35 MiB traced for the 0.30 MiB table (0.61 MiB when the rows were
    # gathered in a list and copied). The rows equal the scalar reads.
    u = np.random.default_rng(1).uniform(-1.0, 1.0, 1156)
    tracemalloc.start()
    try:
        table = legendre_table(33, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.4 * (1 << 20)
    assert table.shape == (34, 1156)
    for j in (0, 577, 1155):
        assert table[:, j].tolist() == [legendre_p(n, u[j]) for n in range(34)]


def test_bessel_table_memory():
    # 401 orders at 20,000 arguments: a 61.2 MiB table. The recurrence
    # writes and normalizes the table rows in place: measured 63.1 MiB
    # traced (185 MiB when its work rows, their normalized copy and the
    # returned table were held at once).
    x = np.random.default_rng(2).uniform(0.0, 500.0, 20_000)
    tracemalloc.start()
    try:
        table = bessel_table(400, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (401, 20_000)
    assert peak <= 1.1 * table.nbytes


def test_bessel_table_series_column_in_one_pass():
    # One x = 0 column among 20,000: it recurs as a copy of the largest x
    # and is then overwritten with the series limit, so the call still
    # holds about one table (124 MiB traced when a second table was
    # allocated for it), and the other columns come out bit for bit as
    # without it.
    x = np.linspace(0.5, 60.0, 20_000)
    x[0] = 0.0
    tracemalloc.start()
    try:
        table = bessel_table(400, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * table.nbytes
    assert table[:, 0].tolist() == [1.0] + [0.0] * 400
    rest = bessel_table(400, x[1:])
    assert np.array_equal(table[:, 1:].view(np.int64), rest.view(np.int64))


def test_assoc_legendre_trivial():
    assert assoc_legendre(0, 0, 0.3) == 1.0
    for u in np.linspace(-1, 1, 7):
        assert assoc_legendre(1, 0, u) == pytest.approx(u, abs=1e-15)


def test_assoc_legendre_frozen_rodrigues():
    assert assoc_legendre(3, 2, 0.5) == pytest.approx(5.625, rel=1e-12)


def test_assoc_legendre_against_rodrigues_oracle():
    for n, m, u in [(3, 2, Fraction(1, 2)), (5, 3, Fraction(3, 10)),
                    (8, 8, Fraction(-2, 5)), (10, 1, Fraction(7, 10)),
                    (12, 7, Fraction(-1, 4)), (2, 1, Fraction(0))]:
        ref = rodrigues_assoc_legendre(n, m, u)
        assert assoc_legendre(n, m, float(u)) == pytest.approx(ref, rel=1e-11), (n, m)


def test_assoc_legendre_negative_order():
    # P_n^{-m} = (-1)^m (n-m)!/(n+m)! P_n^m
    for n, m, u in [(4, 2, 0.35), (7, 5, -0.6), (3, 3, 0.1)]:
        fac = (-1) ** m * math.factorial(n - m) / math.factorial(n + m)
        assert assoc_legendre(n, -m, u) == pytest.approx(
            fac * assoc_legendre(n, m, u), rel=1e-12)


def test_assoc_legendre_rejects_bad_order():
    with pytest.raises(ValueError):
        assoc_legendre(2, 3, 0.1)
    with pytest.raises(ValueError):
        assoc_legendre(2, -3, 0.1)
    with pytest.raises(ValueError):
        assoc_legendre(2, 1, 1.5)
    for table in (legendre_table, norm_assoc_legendre_table):
        with pytest.raises(ValueError, match="degree must be >= 0, got -1"):
            table(-1, [0.1])


def test_sph_harm_constants():
    assert sph_harm(0, 0, Angle(0.7, 2.0)) == pytest.approx(
        1.0 / math.sqrt(4 * math.pi), rel=1e-12)
    assert sph_harm(0, 0, Angle(0.7, 2.0)).real == pytest.approx(0.2820947918, rel=1e-9)
    assert sph_harm(1, 0, Angle(0.0, 0.0)) == pytest.approx(
        math.sqrt(3.0 / (4 * math.pi)), rel=1e-12)
    assert sph_harm(1, 0, Angle(0.0, 0.0)).real == pytest.approx(0.4886025119, rel=1e-9)


def test_sph_harm_rejects_bad_order():
    with pytest.raises(ValueError):
        sph_harm(1, 2, Angle(0.3, 0.3))


def test_sph_harm_conjugation_symmetry():
    a = Angle(1.1, 2.7)
    for n, m in [(3, 1), (5, 4), (2, 2)]:
        lhs = sph_harm(n, -m, a)
        rhs = (-1) ** m * sph_harm(n, m, a).conjugate()
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_norm_assoc_legendre_matches_scaled_ferrers():
    for n, m, u in [(4, 2, 0.3), (9, 5, -0.7), (6, 0, 0.9)]:
        scale = math.sqrt((2 * n + 1) / (4 * math.pi)
                          * math.factorial(n - m) / math.factorial(n + m))
        assert norm_assoc_legendre(n, m, u) == pytest.approx(
            scale * assoc_legendre(n, m, u), rel=1e-11)


def test_norm_assoc_legendre_table_matches_scalar():
    us = np.linspace(-0.95, 0.95, 5)
    table = norm_assoc_legendre_table(12, us)
    for n in (0, 3, 7, 12):
        for m in range(0, n + 1, 3):
            for j, u in enumerate(us):
                assert table[n, m, j] == pytest.approx(
                    norm_assoc_legendre(n, m, u), rel=1e-12, abs=1e-13)


# +-1 and +-0.999 are the poles, where the start (1-u^2)^(m/2) vanishes or
# falls to about 1e-270 at m = 200; 0 and the interior points oscillate.
LEGENDRE_REF_U = (-1.0, -0.999, -0.62, 0.0, 0.3, 0.87, 0.999, 1.0)
LEGENDRE_REF_ORDERS = (0, 1, 2, 3, 8, 14, 25, 60, 100, 150, 199, 200)


def _near_reference(got, ref, tol):
    # relative error, measured against 1e-6 of the column's largest entry
    # where the reference nears a zero; an all-zero column must be exact
    floor = 1e-6 * np.max(np.abs(ref))
    return bool(np.all(np.abs(got - ref) <= tol * np.maximum(np.abs(ref), floor)))


def test_legendre_kernel_against_extended_precision():
    """P_n and the orthonormal table for n <= 200 against 80-digit Ferrers.

    Over every order m <= 200 the largest error is 9.0e-11, next to a zero
    of a column (u = 0.87, n = 79, m = 14). Every Legendre read, table or
    scalar, shares one recurrence, so this is its pin beyond n = 12, the
    reach of the Rodrigues oracle.
    """
    n_max = 200
    table = norm_assoc_legendre_table(n_max, LEGENDRE_REF_U)
    p = legendre_table(n_max, LEGENDRE_REF_U)
    for j, u in enumerate(LEGENDRE_REF_U):
        ref = ferrers_reference(n_max, 0, u, normalized=False)
        assert _near_reference(p[:, j], ref, 5e-10), u
        for m in LEGENDRE_REF_ORDERS:
            ref = ferrers_reference(n_max, m, u)
            assert _near_reference(table[:, m, j], ref, 5e-10), (u, m)


def test_sph_harm_quadrature_orthonormality():
    """Gram of all Y_n^m with n <= 30 under GL(cos theta) x uniform(phi)."""
    n_max = 30
    mu, wmu = leggauss(n_max + 1)
    n_phi = 2 * n_max + 1
    phi = 2 * math.pi * np.arange(n_phi) / n_phi
    wphi = 2 * math.pi / n_phi
    table = norm_assoc_legendre_table(n_max, mu)
    pairs = [(n, m) for n in range(n_max + 1) for m in range(-n, n + 1)]
    Y = np.empty((len(pairs), (n_max + 1) * n_phi), dtype=complex)
    for row, (n, m) in enumerate(pairs):
        pm = table[n, abs(m)]
        if m < 0 and m % 2:
            pm = -pm
        Y[row] = (pm[:, None] * np.exp(1j * m * phi)[None, :]).ravel()
    w = (wmu[:, None] * np.full(n_phi, wphi)[None, :]).ravel()
    G = (Y * w) @ Y.conj().T
    off = G - np.diag(np.diag(G))
    assert np.max(np.abs(np.diag(G) - 1.0)) <= 1e-8
    assert np.max(np.abs(off)) <= 1e-8


def test_addition_theorem():
    """Sum_m Y_n^m(x) conj(Y_n^m(y)) = (2n+1)/(4 pi) P_n(cos gamma)."""
    rng = np.random.default_rng(3)
    for _ in range(100):
        t1, p1 = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        t2, p2 = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        a1, a2 = Angle(t1, p1), Angle(t2, p2)
        cos_g = (math.sin(t1) * math.sin(t2) * math.cos(p1 - p2)
                 + math.cos(t1) * math.cos(t2))
        n = int(rng.integers(0, 21))
        lhs = sum(sph_harm(n, m, a1) * sph_harm(n, m, a2).conjugate()
                  for m in range(-n, n + 1))
        rhs = (2 * n + 1) / (4 * math.pi) * legendre_p(n, cos_g)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs)), n


def test_angle_validation():
    a = Angle(0.5, 7.0)
    assert 0 <= a.phi < 2 * math.pi
    assert a.phi == pytest.approx(7.0 - 2 * math.pi, rel=1e-12)
    with pytest.raises(ValueError):
        Angle(-0.2, 0.0)
    with pytest.raises(ValueError):
        Angle(3.5, 0.0)


def test_cos_sin_against_mpmath():
    """Both parts within 4.5e-16 of the exact values at edge phases, odd
    multiples of pi (the poles of tan(theta/2)) and 10^4 random |theta| <= 1e6."""
    edges = [0.0, -0.0, 5e-324, 1e-300, math.pi / 2, -math.pi / 2, math.pi,
             -math.pi, 3 * math.pi, -3 * math.pi, 1e15, -1e15]
    odd = [(2 * j + 1) * math.pi for j in (5, 50, 499, 5_000, 49_999, 159_154)]
    assert max(odd) <= 1e6 < max(odd) + 2 * math.pi
    rng = np.random.default_rng(11)
    theta = np.concatenate([edges, odd, -np.array(odd),
                            rng.uniform(-1e6, 1e6, 5_000), rng.uniform(-10, 10, 5_000)])
    c, s = cos_sin(theta)
    with mp.workdps(40):
        ref_c = np.array([float(mp.cos(mp.mpf(float(t)))) for t in theta])
        ref_s = np.array([float(mp.sin(mp.mpf(float(t)))) for t in theta])
    assert np.max(np.abs(c - ref_c)) <= 4.5e-16
    assert np.max(np.abs(s - ref_s)) <= 4.5e-16
    assert c[1] == 1.0 and s[1] == 0.0 and np.signbit(s[1])


def test_cos_sin_small_angles():
    theta = np.array([1e-300, 1e-200, 1e-100, 1e-20, 1e-10, 1e-8])
    c, s = cos_sin(np.concatenate([theta, -theta]))
    assert np.all(c == 1.0)
    assert np.allclose(s / np.concatenate([theta, -theta]), 1.0, rtol=1e-15, atol=0)


def test_cis_and_out_views_bit_identical():
    rng = np.random.default_rng(12)
    theta = rng.uniform(-1e4, 1e4, (3, 7, 5))
    c, s = cos_sin(theta)
    z = cis(theta)
    assert z.dtype == complex and z.shape == theta.shape
    assert z.real.tobytes() == c.tobytes() and z.imag.tobytes() == s.tobytes()
    # The ensemble's use: theta in the first half of a buffer's middle
    # axis, cos written over it and sin into the second half.
    buf = np.empty((3, 14, 5))
    buf[:, :7] = theta
    out = (buf[:, :7], buf[:, 7:])
    got = cos_sin(out[0], out=out)
    assert got[0] is out[0] and got[1] is out[1]
    assert buf[:, :7].tobytes() == c.tobytes() and buf[:, 7:].tobytes() == s.tobytes()
    # The time factor's use: theta in the real part, cos and sin in place.
    w = np.empty(theta.shape, dtype=complex)
    w.real = theta
    cos_sin(w.real, out=(w.real, w.imag))
    assert w.tobytes() == z.tobytes()


def test_cos_sin_zero_dim_and_empty():
    c, s = cos_sin(0.75)
    assert c.shape == s.shape == ()
    assert float(c) == float(cos_sin([0.75])[0][0])
    assert float(s) == float(cos_sin([0.75])[1][0])
    z = cis(0.75)
    assert z.shape == () and complex(z) == complex(float(c), float(s))
    c, s = cos_sin(np.empty(0))
    assert c.shape == s.shape == (0,)
    assert cis(np.empty((0, 3))).shape == (0, 3)
