"""Clausen's integral and the imaginary part of the dilogarithm.

These two scalar functions are the building blocks of the circle pattern
functionals.  Clausen's integral is

    Cl(x) = Im Li2(exp(i x)) = -integral_0^x log(2 sin(t/2)) dt,

a 2*pi-periodic odd function.  The imaginary part of the dilogarithm off
the unit circle reduces to Clausen values,

    Im Li2(exp(x + i*theta)) = y*x + Cl(2y)/2 - Cl(2y + 2*theta)/2 + Cl(2*theta)/2,

where y is the branch-free angle atan2(e^x sin(theta), 1 - e^x cos(theta)).
All functions accept floats or numpy arrays and are stateless.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi

# zeta(2k) for k = 1..30 as scipy.special.zeta gives them, written out so
# that importing this module does not load scipy.special
_ZETA_EVEN = np.array([
    1.6449340668482264, 1.0823232337111381, 1.0173430619844492,
    1.0040773561979444, 1.000994575127818, 1.000246086553308,
    1.0000612481350588, 1.0000152822594086, 1.000003817293265,
    1.0000009539620338, 1.0000002384505027, 1.000000059608189,
    1.0000000149015549, 1.000000003725334, 1.0000000009313275,
    1.000000000232831, 1.0000000000582077, 1.000000000014552,
    1.000000000003638, 1.0000000000009095, 1.0000000000002274,
    1.0000000000000568, 1.0000000000000142, 1.0000000000000036,
    1.0000000000000009, 1.0000000000000002, 1.0, 1.0, 1.0, 1.0])

# Coefficients of the power series
#   Cl(x) = x - x*log(x) + sum_k c_k x^(2k+1),   c_k = zeta(2k) / (k (2k+1) (2 pi)^(2k)),
# valid on [0, pi].  Terms decay like 4^-k there; 30 terms reach ~1e-21.
_K = np.arange(1, 31)
_SERIES = _ZETA_EVEN / (_K * (2 * _K + 1) * TWO_PI ** (2.0 * _K))


def _as_float_array(x, name):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return arr


def _series_0_pi(a):
    """Cl on [0, pi] via the log-endpoint expansion."""
    t = a * a
    # Horner in place; the first step 0 * t + c_30 is exactly c_30
    acc = np.full_like(t, _SERIES[-1])
    for c in _SERIES[-2::-1]:
        acc *= t
        acc += c
    with np.errstate(divide="ignore", invalid="ignore"):
        main = np.where(a > 0.0, a * (1.0 - np.log(np.where(a > 0.0, a, 1.0))), 0.0)
    return main + acc * t * a


def clausen(x):
    """Clausen's integral Cl(x), accurate to ~1e-14 absolute.

    Reduces to [0, pi] by periodicity and oddness, then evaluates the
    power series with the x*log(x) endpoint term split off in closed form.
    """
    arr = _as_float_array(x, "x")
    y = np.remainder(arr, TWO_PI)
    y = np.where(y > np.pi, y - TWO_PI, y)
    val = np.sign(y) * _series_0_pi(np.abs(y))
    return float(val) if arr.ndim == 0 else val


def im_li2_dx(x, theta):
    """d/dx Im Li2(exp(x + i*theta)) as a branch-free angle in (-pi, pi).

    Equal to atan2(e^x sin(theta), 1 - e^x cos(theta)); for x > 0 the
    exponential is factored out so the formula is stable for |x| up to
    ~700.  For theta in (0, pi) the value lies in (0, pi).
    """
    xa = _as_float_array(x, "x")
    ta = np.asarray(theta, dtype=float)
    s = np.sin(ta)
    c = np.cos(ta)
    pos = xa > 0.0
    ex = np.exp(np.where(pos, -xa, xa))
    # one arctan2 on the selected arguments; s + 0.0 turns a -0.0 into the
    # +0.0 of the factored form
    out = np.arctan2(np.where(pos, s + 0.0, ex * s), np.where(pos, ex - c, 1.0 - ex * c))
    return float(out) if (xa.ndim == 0 and ta.ndim == 0) else out


def im_li2(x, theta):
    """Im Li2(exp(x + i*theta)) for real x and theta in (0, 2*pi).

    It grows like (pi - theta) x for large x; a value beyond the float range
    raises ValueError.
    """
    xa = _as_float_array(x, "x")
    ta = _as_float_array(theta, "theta")
    if np.any(ta <= 0.0) or np.any(ta >= TWO_PI):
        raise ValueError(f"theta must lie strictly in (0, 2*pi), got {theta!r}")
    y = im_li2_dx(xa, ta)
    with np.errstate(over="ignore"):
        out = y * xa + 0.5 * (clausen(2.0 * y) - clausen(2.0 * y + 2.0 * ta) + clausen(2.0 * ta))
    if not np.all(np.isfinite(out)):
        raise ValueError(f"Im Li2 overflows a float at x = {x!r}")
    return float(out) if (xa.ndim == 0 and ta.ndim == 0) else out
