"""Special-function accuracy, recurrences, orthonormality."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from wavedof import (Angle, assoc_legendre, bessel_J, legendre_p,
                     norm_assoc_legendre, sph_harm, spherical_bessel_j)
from wavedof.specfun import bessel_table, norm_assoc_legendre_table

from oracles import (cyl_bessel_series, rodrigues_assoc_legendre,
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
