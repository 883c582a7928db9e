"""Small quadrature utilities shared by the solver modules.

Everything here wraps scipy's adaptive quadrature or builds cheap
fixed-order rules on top of known smooth pieces; the heavier lifting
(endpoint singularities, tails) is always delegated to QAGS.  The
float evaluators copy scipy's piecewise polynomials (interpolants and
DOP853 dense output) and answer scalar queries on Python floats, bit
for bit with scipy but without numpy's per-call overhead.
"""

import math
import warnings
from array import array
from bisect import bisect_left, bisect_right

import numpy as np
from scipy.integrate import quad
from scipy.integrate._ivp.rk import Dop853DenseOutput
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
    """Cumulative integral of f at the points xs (monotone; when they
    decrease, each piece is integrated backwards and so counts negative).

    Returns C with C[j] = integral of f from xs[0] to xs[j]; when
    head_from_zero is set, from 0 to xs[j] (the head piece may hold an
    integrable singularity, which QAGS absorbs).
    """
    xs = np.asarray(xs, dtype=float)
    out = np.empty_like(xs)
    out[0] = adaptive_quad(f, 0.0, xs[0], rel_tol, abs_tol) if head_from_zero else 0.0
    for j in range(1, len(xs)):
        out[j] = out[j - 1] + adaptive_quad(f, xs[j - 1], xs[j], rel_tol, abs_tol)
    return out


def gauss_piece(f, lo, hi):
    """Integral of f over [lo, hi] by the 12-point Gauss-Legendre rule."""
    nodes, weights = gauss_rule(12)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid + half * nodes
    return half * float(np.dot(weights, [f(xi) for xi in x]))


def piecewise_gauss(f, breakpoints, a, b, whole=None):
    """Integrate f over [a, b], split at the breakpoints (increasing) that
    lie inside, with one 12-point Gauss rule per piece, summed left to
    right.

    Intended for integrands built from dense-output polynomials: each
    inter-node piece is smooth, so a fixed Gauss rule per piece is
    accurate far beyond the integrator tolerance.  whole(j), if given,
    stands for gauss_piece over [breakpoints[j], breakpoints[j+1]]
    (a cached value); the pieces cut at a or b are computed here.
    """
    if b < a:
        return -piecewise_gauss(f, breakpoints, b, a, whole)
    if a == b:
        return 0.0
    pts = breakpoints
    i = int(np.searchsorted(pts, a, side="right"))
    k = int(np.searchsorted(pts, b, side="left"))
    edges = [a, *pts[i:k], b]
    total = 0.0
    # piece j of the breakpoints is [pts[j], pts[j+1]]; only the first
    # and the last edge can fall between breakpoints
    for j, (lo, hi) in enumerate(zip(edges[:-1], edges[1:]), start=i - 1):
        if hi <= lo:
            continue
        if (whole is not None and 0 <= j < len(pts) - 1
                and lo == pts[j] and hi == pts[j + 1]):
            total += whole(j)
        else:
            total += gauss_piece(f, lo, hi)
    return total


def _doubles(a):
    return array("d", np.ascontiguousarray(a, dtype=float).tobytes())


class FloatPPoly:
    """A 1-d scipy PPoly evaluated at one Python float at a time, bit for
    bit with PPoly.__call__ (which extrapolates from the end pieces).

    The piece is scipy's find_interval: x[i] <= q < x[i+1], clamped to
    the first and last piece, so q equal to the last breakpoint falls in
    the last one.  The sum runs in scipy's order, constant term first
    (res + c z, z *= s); Horner's rule rounds differently.  A NaN query
    gives NaN for polynomials of degree one or more.
    """

    __slots__ = ("_x", "_c", "_k", "_last")

    def __init__(self, pp):
        if pp.c.ndim != 2 or pp.extrapolate is not True:
            raise ValueError("FloatPPoly needs a scalar-valued, extrapolating PPoly")
        self._x = _doubles(pp.x)
        # piece i's coefficients, constant term first, at [i*k, (i+1)*k)
        self._c = _doubles(pp.c[::-1].T)
        self._k = pp.c.shape[0]
        self._last = len(pp.x) - 2

    def __call__(self, q):
        x = self._x
        i = bisect_right(x, q) - 1
        if i < 0:
            i = 0
        elif i > self._last:
            i = self._last
        s = q - x[i]
        k = self._k
        res = 0.0
        z = 1.0
        for c in self._c[i * k:i * k + k]:
            res = res + c * z
            z *= s
        return res


class FloatDenseOutput:
    """The dense output of a DOP853 solve_ivp run (its OdeSolution
    `sol.sol`) evaluated at one Python float at a time, bit for bit with
    OdeSolution.__call__; returns a tuple of floats, one per state.

    The step is OdeSolution._call_single's: a search of the step ends
    with the solution's own `side`, clamped to the first and last step.
    Within the step, Dop853DenseOutput._call_impl is replayed:
    x = (t - t_old)/h, then for the rows F[-1], ..., F[0]: y += F[j] and
    y *= x or 1 - x alternately, starting with x; finally y += y_old.
    """

    __slots__ = ("_ts", "_search", "_last", "_n", "_power",
                 "_t_old", "_h", "_F", "_y_old")

    def __init__(self, sol):
        steps = sol.interpolants
        if not sol.ascending or not all(isinstance(st, Dop853DenseOutput) for st in steps):
            raise ValueError("FloatDenseOutput needs an increasing DOP853 solution")
        self._ts = _doubles(sol.ts)
        self._search = bisect_left if sol.side == "left" else bisect_right
        self._last = len(steps) - 1
        self._n = len(steps[0].y_old) if steps else 0
        self._power = len(steps[0].F) if steps else 0
        self._t_old = _doubles([st.t_old for st in steps])
        self._h = _doubles([st.h for st in steps])
        # step i, state j: its F rows in the order they are added, at
        # [(i*n + j)*power, (i*n + j + 1)*power)
        self._F = _doubles([st.F[::-1].T for st in steps])
        self._y_old = _doubles([st.y_old for st in steps])

    def __call__(self, t):
        t = float(t)
        i = self._search(self._ts, t) - 1
        if i < 0:
            i = 0
        elif i > self._last:
            i = self._last
        x = (t - self._t_old[i]) / self._h[i]
        factors = (x, 1 - x) * ((self._power + 1) // 2)
        n, power, F = self._n, self._power, self._F
        out = []
        for j in range(n):
            lo = (i * n + j) * power
            y = 0.0
            for f, w in zip(F[lo:lo + power], factors):
                y = (y + f) * w
            out.append(y + self._y_old[i * n + j])
        return tuple(out)


class LogLogTable:
    """A positive, power-law-like sampled function y(x) (xs increasing):
    a monotone PCHIP of log y against log x, continued below xs[0] as the
    power law with the secant slope of the first two samples.  The
    samples stay readable as xs and ys."""

    def __init__(self, xs, ys):
        self.xs, self.ys = xs, ys
        self._pchip = FloatPPoly(PchipInterpolator(np.log(xs), np.log(ys)))
        self._lx0, self._ly0 = math.log(xs[0]), math.log(ys[0])
        self._slope = (math.log(ys[1]) - self._ly0) / (math.log(xs[1]) - self._lx0)

    def __call__(self, x):
        lx = math.log(x)
        if lx < self._lx0:
            return math.exp(self._ly0 + self._slope * (lx - self._lx0))
        return math.exp(self._pchip(lx))


def sign_power(x, e):
    """Odd power |x|^e * sign(x); the inverse of s -> |s|^{p-2} s uses
    e = 1/(p-1)."""
    if x > 0.0:
        return x**e
    if x < 0.0:
        return -((-x) ** e)
    return 0.0
