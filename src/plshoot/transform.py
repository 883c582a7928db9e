"""Weight transformations.

(1) General two-weight radial problems -(a(r) |u'|^{p-2} u')' = b(r) f(u)
    are brought to the canonical single-weight form

        -(t^{N-1} |v_t|^{p-2} v_t)_t = t^{N-1} Ktilde(t) f(v)

    through t = h(r)^{-(p-1)/(N-p)}, v(t) = u(r), where
    h(r) = int_r^inf a^{1-p'} and

        Ktilde(t) = ((N-p)/(p-1))^p a^{p'-1} b h^{N(p-1)/(N-p)+1} (r(t)).

    N > p is free; the derivative combination p + t Ktilde_t/Ktilde
    equals p' (N-p)/(p-1) [ (a'/(pa) + b'/(p'b)) h/|h'| - (p-1) ], so the
    transformed weight inherits the canonical hypothesis from the
    two-weight monotonicity assumption.

(2) The arclength change t(r) = int_0^r K^{1/p}, q(t) = r^{n-1} K^{1/p'}
    used for startup analysis and for weights singular at the origin.

(3) The compact-support criterion: a ground state has bounded support
    iff int_0 du/|F(u)|^{1/2} converges, probed by dyadic refinement
    toward the singular endpoint.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import Parameters, ProblemModel, closure_weight
from .quadrature import LogLogTable, adaptive_quad, cumulative_quad


class GeneralWeightPair:
    """Positive radial weights (a, b) with derivatives; a_tail_power is
    the exponent mu with a(r) ~ C r^mu at infinity, used for the
    analytic tail of h (estimated from a'/a when not supplied)."""

    def __init__(self, a, da, b, db, a_tail_power=None, family="closure",
                 params=None):
        self.a = a
        self.da = da
        self.b = b
        self.db = db
        self.a_tail_power = a_tail_power
        self.family = family
        self.params = dict(params or {})


def power_pair(k, l, s, sigma, N):
    """The doubly weighted power example:
    a = r^{N+k-1}, b = r^{N+l-1} (r^s/(1+r^s))^{sigma/s}."""
    if s <= 0 or sigma <= 0:
        raise DomainError("power pair needs s > 0 and sigma > 0")
    ea = N + k - 1.0
    eb = N + l - 1.0

    def a(r):
        return r**ea

    def da(r):
        return ea * r ** (ea - 1.0)

    def b(r):
        rs = r**s
        return r**eb * (rs / (1.0 + rs)) ** (sigma / s)

    def db(r):
        rs = r**s
        return b(r) * (eb + sigma / (1.0 + rs)) / r

    return GeneralWeightPair(a, da, b, db, a_tail_power=ea, family="power",
                             params={"k": k, "l": l, "s": s, "sigma": sigma, "N": N})


def matukuma_pair(n, sigma):
    """Matukuma in two-weight form: a = r^{n-1}, b = r^{n-1}/(1+r^sigma)."""
    if sigma <= 0:
        raise DomainError("matukuma pair needs sigma > 0")
    e = n - 1.0

    def a(r):
        return r**e

    def da(r):
        return e * r ** (e - 1.0)

    def b(r):
        return r**e / (1.0 + r**sigma)

    def db(r):
        rs = r**sigma
        return b(r) * (e - sigma * rs / (1.0 + rs)) / r

    return GeneralWeightPair(a, da, b, db, a_tail_power=e, family="matukuma",
                             params={"n": n, "sigma": sigma})


def laplace_pair(n):
    """Unweighted p-Laplacian: a = b = r^{n-1}."""
    e = n - 1.0

    def a(r):
        return r**e

    def da(r):
        return e * r ** (e - 1.0)

    return GeneralWeightPair(a, da, a, da, a_tail_power=e, family="laplace",
                             params={"n": n})


@dataclass
class TransformedModel:
    """Canonical-form model produced by transform_ab_to_K, with the
    r <-> t maps (round-trip accurate to 1e-10 relative on the working
    range) and the kernel h."""

    model: ProblemModel
    pair: GeneralWeightPair
    N: float
    r_range: tuple
    t_range: tuple
    h: object          # r -> int_r^inf a^{1-p'}
    forward_map: object  # r -> t
    inverse_map: object  # t -> r
    dt_dr: object

    def identity_g(self, r):
        """p + t Ktilde_t/Ktilde computed from the two-weight side of
        the identity (no differentiation of Ktilde)."""
        pr = self.pair
        p = self.model.p
        pp = p / (p - 1.0)
        combo = (pr.da(r) / (p * pr.a(r)) + pr.db(r) / (pp * pr.b(r)))
        ratio = combo * self.h(r) / (pr.a(r) ** (1.0 - pp))  # |h'| = a^{1-p'}
        return pp * (self.N - p) / (p - 1.0) * (ratio - (p - 1.0))

    def pullback(self, traj_t):
        """Map a trajectory of the transformed model back to the
        original radial variable: u(r) = v(t(r)), u' = v_t dt/dr."""

        def eval_r(r):
            t = self.forward_map(r)
            v, vt, _ = traj_t.eval(t)
            return v, vt * self.dt_dr(r)

        return eval_r


def _build_h(pair, p, grid):
    """Dense h with an analytic power tail; returns (h_exact, grids)."""
    pp = p / (p - 1.0)
    e = 1.0 - pp  # a^{1-p'}
    r_lo = grid[0] / 4.0
    r_big = grid[-1] * 10.0
    mu = pair.a_tail_power
    if mu is None:
        mu = r_big * pair.da(r_big) / pair.a(r_big)
    c = mu * e
    if not c < -1.0:
        raise DomainError(
            f"a^(1-p') is not integrable at infinity (tail exponent {c}); "
            "the kernel h diverges",
            witness={"tail_exponent": c},
        )
    tail = pair.a(r_big) ** e * r_big / (-c - 1.0)

    rs = np.geomspace(r_lo, r_big, 400)
    # accumulated from r_big down: h(r) = tail + int_r^{r_big} a^{1-p'}
    hs = tail - cumulative_quad(lambda s: pair.a(s) ** e, rs[::-1])[::-1]
    table = LogLogTable(rs, hs)

    def h(r):
        if r < rs[0] or r > rs[-1]:
            raise DomainError(f"h queried outside working range: r={r}")
        return table(r)

    return h, rs, hs


def transform_ab_to_K(pair, p, N, grid, nonlinearity):
    """Transform a two-weight problem into canonical K-form in dimension
    N > p; see the module docstring for the formulas.  The caller should
    run check_K1 on the produced weight (the two-weight monotonicity
    hypothesis guarantees it passes)."""
    if not p > 1.0:
        raise DomainError("transform needs p > 1")
    if not N > p:
        raise DomainError("transform needs N > p")
    grid = np.asarray(grid, dtype=float)
    if np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
        raise DomainError("transform grid must be positive and increasing")

    pp = p / (p - 1.0)
    beta = (p - 1.0) / (N - p)
    gamma = N * (p - 1.0) / (N - p) + 1.0
    c0 = ((N - p) / (p - 1.0)) ** p

    h, rs, hs = _build_h(pair, p, grid)
    ts = hs ** (-beta)
    forward = LogLogTable(rs, ts)
    r_table = LogLogTable(ts, rs)

    def dt_dr(r):
        return beta * h(r) ** (-beta - 1.0) * pair.a(r) ** (1.0 - pp)

    def inverse(t):
        if t < ts[0] or t > ts[-1]:
            raise DomainError(f"inverse map queried outside range: t={t}")
        r = r_table(t)
        # one safeguarded Newton polish against the forward map
        resid = forward(r) - t
        step = -resid / dt_dr(r)
        if abs(step) < 0.5 * r:
            r2 = r + step
            if rs[0] <= r2 <= rs[-1] and abs(forward(r2) - t) < abs(resid):
                r = r2
        return r

    def ktilde_core(t):
        r = inverse(t)
        return c0 * pair.a(r) ** (pp - 1.0) * pair.b(r) * h(r) ** gamma

    def dktilde_core(t):
        r = inverse(t)
        a, b_, hr = pair.a(r), pair.b(r), h(r)
        dk_dr = (
            c0
            * hr**gamma
            * a ** (pp - 1.0)
            * b_
            * ((pp - 1.0) * pair.da(r) / a + pair.db(r) / b_
               - gamma * a ** (1.0 - pp) / hr)
        )
        return dk_dr / dt_dr(r)

    # continue Ktilde as the boundary power law outside the sampled
    # range, so the transformed model is integrable from the origin
    t_lo = ts[0] * (1.0 + 1e-9)
    t_hi = ts[-1] * (1.0 - 1e-9)
    k_lo, k_hi = ktilde_core(t_lo), ktilde_core(t_hi)
    s_lo = t_lo * dktilde_core(t_lo) / k_lo
    s_hi = t_hi * dktilde_core(t_hi) / k_hi

    def ktilde(t):
        if t < t_lo:
            return k_lo * (t / t_lo) ** s_lo
        if t > t_hi:
            return k_hi * (t / t_hi) ** s_hi
        return ktilde_core(t)

    def dktilde(t):
        if t < t_lo:
            return ktilde(t) * s_lo / t
        if t > t_hi:
            return ktilde(t) * s_hi / t
        return dktilde_core(t)

    weight = closure_weight(ktilde, dktilde, name="transformed")
    model = ProblemModel(Parameters(p, N), weight, nonlinearity)
    return TransformedModel(
        model=model,
        pair=pair,
        N=N,
        r_range=(float(grid[0]), float(grid[-1])),
        t_range=(forward(float(grid[0])), forward(float(grid[-1]))),
        h=h,
        forward_map=forward,
        inverse_map=inverse,
        dt_dr=dt_dr,
    )


@dataclass
class QtChange:
    """The arclength change of variables t(r) = int_0^r K^{1/p} with
    q(t) = r(t)^{n-1} K^{1/p'}(r(t)); q is positive and increasing for
    n > p, and t q_t / q stays bounded on compacts."""

    model: ProblemModel
    r_range: tuple
    t_of_r: object
    r_of_t: object

    def q(self, t):
        model = self.model
        r = self.r_of_t(t)
        return r ** (model.n - 1.0) * model.weight.K(r) ** (1.0 / model.params.pprime)

    def q_t(self, t):
        """From q_t/q = ((n-1)p/(p-1) + r K'/K) / (p' r K^{1/p})."""
        model = self.model
        p, n = model.p, model.n
        r = self.r_of_t(t)
        K = model.weight.K(r)
        combo = (n - 1.0) * p / (p - 1.0) + r * model.weight.dK(r) / K
        return self.q(t) * combo / (model.params.pprime * r * K ** (1.0 / p))


def qt_change(model, r_lo=1e-8, r_hi=1e6, points=500):
    """Build the arclength maps on [r_lo, r_hi] (log-dense sampling,
    monotone interpolation).  Assumes the weight hypothesis holds, which
    makes K^{1/p} integrable at 0 and non-integrable at infinity."""
    p = model.p
    kern = lambda s: model.weight.K(s) ** (1.0 / p)
    rs = np.geomspace(r_lo, r_hi, points)
    tvals = cumulative_quad(kern, rs, head_from_zero=True)
    if not np.all(tvals > 0) or not np.all(np.diff(tvals) > 0):
        raise DomainError("arclength failed to be strictly increasing; "
                          "the weight is outside scope")
    r_table = LogLogTable(tvals, rs)

    def t_of_r(r):
        """Quadrature-exact: cumulative value at the nearest grid node
        plus a short local increment."""
        if r <= 0.0:
            return 0.0
        if r < rs[0]:
            return adaptive_quad(kern, 0.0, r)
        if r > rs[-1]:
            raise DomainError(f"t(r) queried beyond working range: r={r}")
        i = int(np.searchsorted(rs, r, side="right")) - 1
        return tvals[i] + adaptive_quad(kern, rs[i], r)

    def r_of_t(t):
        if t < tvals[0] or t > tvals[-1]:
            raise DomainError(f"r(t) queried outside working range: t={t}")
        r = r_table(t)
        # safeguarded Newton polish on the exact arclength
        for _ in range(6):
            resid = t_of_r(r) - t
            if abs(resid) <= 1e-13 * t:
                break
            step = -resid / kern(r)
            if abs(step) > 0.5 * r:
                step = math.copysign(0.5 * r, step)
            r = min(max(r + step, rs[0]), rs[-1])
        return r

    return QtChange(model, (r_lo, r_hi), t_of_r, r_of_t)


@dataclass
class CompactSupportResult:
    status: str  # finite | infinite | inconclusive
    value: float
    levels: int

    @property
    def finite(self):
        return self.status == "finite"


def compact_support_test(nl, exponent=0.5, delta=None, rel_tol=1e-8,
                         max_levels=200):
    """Convergence of int_0^delta |F(u)|^{-exponent} du, which decides
    whether the ground state has compact support (exponent 1/2 follows
    the square-root criterion verbatim; 1/p is available through the
    parameter).

    Dyadic refinement toward 0: three successive refinements moving the
    estimate by < rel_tol declare the integral finite; pieces that stop
    decaying (ratio >= 1 - 1e-3 for five levels, the signature of a
    divergent endpoint) declare it infinite; anything else at the level
    cap is inconclusive.
    """
    if not (0.0 < exponent < 1.0):
        raise DomainError("exponent must lie in (0, 1)")
    if delta is None:
        delta = 0.5 * nl.u0
    if not (0.0 < delta < nl.u0):
        raise DomainError("delta must lie in (0, u0)")

    def integrand(u):
        F = nl.F(u)
        if F >= 0.0:
            raise DomainError(
                f"F(u) >= 0 at u={u}; the criterion needs F < 0 on (0, delta]",
                witness={"u": u, "F": F},
            )
        return (-F) ** (-exponent)

    integrand(delta)  # precondition probe at the outer endpoint
    total = 0.0
    prev_piece = None
    calm = 0          # consecutive small relative changes
    flat = 0          # consecutive non-decaying piece ratios
    hi = delta
    for level in range(max_levels):
        lo = hi / 2.0
        piece = adaptive_quad(integrand, lo, hi, rel_tol=1e-10, abs_tol=0.0)
        total += piece
        if prev_piece is not None:
            ratio = piece / prev_piece
            flat = flat + 1 if ratio >= 1.0 - 1e-3 else 0
            if flat >= 5:
                return CompactSupportResult("infinite", math.inf, level + 1)
        calm = calm + 1 if piece < rel_tol * total else 0
        if calm >= 3:
            # geometric tail extrapolation (inside the declared tolerance)
            tail = 0.0
            if prev_piece and piece < prev_piece:
                rho = piece / prev_piece
                tail = piece * rho / (1.0 - rho)
            return CompactSupportResult("finite", total + tail, level + 1)
        prev_piece = piece
        hi = lo
        if hi < 1e-280:
            break
    return CompactSupportResult("inconclusive", math.inf, max_levels)
