import numpy as np
import pytest

from circlepatterns import specfun
from oracles import (clausen_reference, clausen_series, im_li2_dx_reference,
                     im_li2_quadrature)

CATALAN = 0.915965594177219015


def test_clausen_special_values():
    assert specfun.clausen(0.0) == 0.0
    assert abs(specfun.clausen(np.pi)) < 1e-13
    assert abs(specfun.clausen(np.pi / 2) - CATALAN) < 1e-14
    assert abs(specfun.clausen(np.pi / 3) - 1.0149416064096537) < 1e-14


def test_clausen_against_series_oracle():
    rng = np.random.default_rng(42)
    xs = rng.uniform(-2 * np.pi, 2 * np.pi, 200)
    worst = max(abs(specfun.clausen(x) - clausen_series(x)) for x in xs)
    assert worst < 1e-12


def test_series_table_matches_scipy_zeta_bit_for_bit():
    from scipy.special import zeta
    k = np.arange(1, 31)
    expected = zeta(2.0 * k) / (k * (2 * k + 1) * specfun.TWO_PI ** (2.0 * k))
    assert specfun._SERIES.dtype == np.float64
    assert np.array_equal(specfun._SERIES.view(np.int64), expected.view(np.int64))


def test_cli_import_does_not_load_scipy_special():
    import os
    import subprocess
    import sys
    # a fresh interpreter that finds the package where this one does
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    code = ("import sys; import circlepatterns.cli; "
            "sys.exit('scipy.special' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_clausen_odd_and_periodic():
    rng = np.random.default_rng(1)
    x = rng.uniform(-10, 10, 500)
    assert np.abs(specfun.clausen(-x) + specfun.clausen(x)).max() <= 1e-14
    assert np.abs(specfun.clausen(x + 2 * np.pi) - specfun.clausen(x)).max() <= 1e-12


def test_clausen_duplication():
    rng = np.random.default_rng(2)
    x = rng.uniform(-5, 5, 300)
    res = specfun.clausen(2 * x) - 2 * specfun.clausen(x) + 2 * specfun.clausen(np.pi - x)
    assert np.abs(res).max() <= 1e-11


def test_clausen_rejects_non_finite():
    with pytest.raises(ValueError):
        specfun.clausen(np.nan)
    with pytest.raises(ValueError):
        specfun.clausen(np.inf)


def test_im_li2_on_unit_circle():
    for theta in (0.3, 1.0, 2.5, 4.0, 6.0):
        assert abs(specfun.im_li2(0.0, theta) - specfun.clausen(theta)) < 1e-14


def test_im_li2_far_left_asymptotics():
    # leading power-series term e^x sin(theta)
    val = specfun.im_li2(-20.0, 1.0)
    assert abs(val - np.exp(-20.0) * np.sin(1.0)) < 1e-15


def test_im_li2_against_quadrature():
    assert abs(specfun.im_li2(0.5, 2.0) - im_li2_quadrature(0.5, 2.0)) < 1e-9
    rng = np.random.default_rng(4)
    for _ in range(25):
        x = rng.uniform(-4, 4)
        theta = rng.uniform(0.05, 2 * np.pi - 0.05)
        assert abs(specfun.im_li2(x, theta) - im_li2_quadrature(x, theta)) < 1e-9


def test_im_li2_domain():
    for theta in (0.0, 2 * np.pi, -1.0, 7.0):
        with pytest.raises(ValueError):
            specfun.im_li2(0.5, theta)
    with pytest.raises(ValueError):
        specfun.im_li2(np.nan, 1.0)


def test_im_li2_beyond_the_float_range_raises():
    # (pi - theta) x > 1.8e308; the RuntimeWarning filter of the suite
    # turns any overflow warning into an error, which is not a ValueError
    with pytest.raises(ValueError, match="x = 1e[+]308"):
        specfun.im_li2(1e308, 1.0)
    with pytest.raises(ValueError, match="overflows"):
        specfun.im_li2(np.array([0.5, 1e308]), 1.0)
    # below the threshold, and for x far to the left, the value is finite
    assert specfun.im_li2(1e308, np.pi - 1.0) == pytest.approx(1e308)
    assert abs(specfun.im_li2(-1e308, 1.0)) < 1e-300


def test_im_li2_dx_matches_finite_differences():
    rng = np.random.default_rng(5)
    h = 1e-6
    for _ in range(50):
        x = rng.uniform(-3, 3)
        theta = rng.uniform(0.1, np.pi - 0.1)
        fd = (specfun.im_li2(x + h, theta) - specfun.im_li2(x - h, theta)) / (2 * h)
        exact = specfun.im_li2_dx(x, theta)
        assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


def test_im_li2_dx_overflow_safe():
    val = specfun.im_li2_dx(705.0, 1.2)
    assert abs(val - (np.pi - 1.2)) < 1e-12
    assert abs(specfun.im_li2_dx(-705.0, 1.2)) < 1e-300


def _bits(values):
    # array_equal also compares the sign of zero
    return np.asarray(values, dtype=float).view(np.int64)


def test_trimmed_kernels_are_bit_identical_to_their_first_versions():
    rng = np.random.default_rng(9)
    special = [0.0, -0.0, np.pi, -np.pi, 2 * np.pi, 700.0, -700.0]
    x = np.concatenate([rng.uniform(-40.0, 40.0, 1_000_000), special])
    assert np.array_equal(_bits(specfun.clausen(x)), _bits(clausen_reference(x)))
    theta = np.concatenate([rng.uniform(-7.0, 7.0, 1_000_000), special])
    assert np.array_equal(_bits(specfun.im_li2_dx(x, theta)),
                          _bits(im_li2_dx_reference(x, theta)))
    # every special x against every special theta, and the scalar forms
    xs, ts = np.meshgrid(special, special)
    assert np.array_equal(_bits(specfun.im_li2_dx(xs, ts)), _bits(im_li2_dx_reference(xs, ts)))
    for v in special:
        assert _bits(specfun.clausen(v)) == _bits(clausen_reference(v))
        assert _bits(specfun.im_li2_dx(v, 1.0)) == _bits(im_li2_dx_reference(v, 1.0))
