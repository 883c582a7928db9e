"""Small quadrature utilities shared by the solver modules.

Everything here wraps scipy's adaptive quadrature or builds cheap
fixed-order rules on top of known smooth pieces; the heavier lifting
(endpoint singularities, tails) is always delegated to QAGS.
"""

import math
import warnings

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

_GAUSS_CACHE = {}


def gauss_rule(order):
    """Cached Gauss-Legendre nodes/weights on [-1, 1]."""
    if order not in _GAUSS_CACHE:
        _GAUSS_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _GAUSS_CACHE[order]


def adaptive_quad(f, a, b, rel_tol=1e-12, abs_tol=1e-14, limit=200):
    """Adaptive quadrature of a scalar function; ignores scipy's
    round-off warnings (integrands with integrable endpoint
    singularities trigger them routinely)."""
    if a == b:
        return 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, _ = quad(f, a, b, epsabs=abs_tol, epsrel=rel_tol, limit=limit)
    return val


def cumulative_quad(f, xs, head_from_zero=False, rel_tol=1e-12, abs_tol=1e-14):
    """Cumulative integral of f at the points xs (increasing).

    Returns C with C[j] = integral of f over [xs[0], xs[j]]; when
    head_from_zero is set, over [0, xs[j]] (the head piece may hold an
    integrable singularity, which QAGS absorbs).
    """
    xs = np.asarray(xs, dtype=float)
    out = np.empty_like(xs)
    out[0] = adaptive_quad(f, 0.0, xs[0], rel_tol, abs_tol) if head_from_zero else 0.0
    for j in range(1, len(xs)):
        out[j] = out[j - 1] + adaptive_quad(f, xs[j - 1], xs[j], rel_tol, abs_tol)
    return out


def piecewise_gauss(f, breakpoints, a, b, order=12):
    """Integrate f over [a, b], splitting at the given breakpoints.

    Intended for integrands built from dense-output polynomials: each
    inter-node piece is smooth, so a fixed Gauss rule per piece is
    accurate far beyond the integrator tolerance.
    """
    if b < a:
        return -piecewise_gauss(f, breakpoints, b, a, order)
    if a == b:
        return 0.0
    pts = np.asarray(breakpoints, dtype=float)
    inner = pts[(pts > a) & (pts < b)]
    edges = np.concatenate(([a], inner, [b]))
    nodes, weights = gauss_rule(order)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi <= lo:
            continue
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        x = mid + half * nodes
        total += half * float(np.dot(weights, [f(xi) for xi in x]))
    return total


class LogLogTable:
    """A positive, power-law-like sampled function y(x) (xs increasing):
    a monotone PCHIP of log y against log x, continued below xs[0] as the
    power law with the secant slope of the first two samples."""

    def __init__(self, xs, ys):
        self._pchip = PchipInterpolator(np.log(xs), np.log(ys))
        self._lx0, self._ly0 = math.log(xs[0]), math.log(ys[0])
        self._slope = (math.log(ys[1]) - self._ly0) / (math.log(xs[1]) - self._lx0)

    def __call__(self, x):
        lx = math.log(x)
        if lx < self._lx0:
            return math.exp(self._ly0 + self._slope * (lx - self._lx0))
        return math.exp(float(self._pchip(lx)))


def loglog_cumint(xs, ys):
    """Cumulative integral of a positive power-law-like sampled function.

    Integrates in log-x: int y dx = int (y*x) dlogx via a PCHIP
    antiderivative, with the head below xs[0] extrapolated as the power
    law fitted to the first two samples.  Exact, up to rounding, for
    pure powers; used for the singular startup integrands.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("loglog_cumint needs strictly positive samples")
    lx = np.log(xs)
    yx = ys * xs
    anti = PchipInterpolator(lx, yx).antiderivative()
    body = anti(lx) - anti(lx[0])
    # head: y*x ~ C exp(beta*logx) with beta>0 since y is integrable at 0
    beta = (np.log(yx[1]) - np.log(yx[0])) / (lx[1] - lx[0])
    head = yx[0] / beta if beta > 1e-12 else 0.0
    return head + body


def sign_power(x, e):
    """Odd power |x|^e * sign(x); the inverse of s -> |s|^{p-2} s uses
    e = 1/(p-1)."""
    if x > 0.0:
        return x**e
    if x < 0.0:
        return -((-x) ** e)
    return 0.0
