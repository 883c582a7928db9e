"""Integration of the singular initial value problem

    (r^{n-1} |u'|^{p-2} u')' = -r^{n-1} K(r) f(u),  u(0) = alpha, u'(0) = 0,

stopped at the first of u = 0, u' = 0 (below u0) or r = r_max, plus the
trajectory functionals built on top of it (energy, inverse profile, the
comparison quantities Fbar/I/W).  The integral functionals, Fbar and
the flux residual, read each trajectory's table of per-node Gauss
pieces (Trajectory.integral): a whole piece is integrated once per
trajectory and integrand, and only the pieces cut by a query's ends
are integrated afresh.

The integrated state is (u, m) with m = r^{n-1} |u'|^{p-2} u', never
(u, u''): m' = -r^{n-1} K f(u) stays smooth where u' vanishes, and u' is
recovered as sign(m) (|m|/r^{n-1})^{1/(p-1)}.

The origin is degenerate, so integration starts from a small radius r1
whose state comes from the integral form of the equation, linearised
in the deviation alpha - u: a closed form in f(alpha) over per-model
tables of alpha-independent integrals, built once per model and r1 and
cached with r1 itself.  r1 is chosen so the transformed arclength
t(r1) = int_0^{r1} K^{1/p} equals the configured startup radius, which
keeps startup accuracy uniform across weight families.
Every weight is integrated in r: the t variable only sets the startup
radius.  Weights whose p + r K'/K blows up at the origin still get a
regular start, since the flux bound |phi_p(v_t)| <= f(alpha) t holds on
[0, r1], and beyond r1 > 0 the equation in r is regular.
"""

import math
import weakref
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .errors import DomainError, InternalError, StepFailure
from .model import decrease_violations
from .quadrature import (
    FloatDenseOutput,
    LogLogTable,
    adaptive_quad,
    cumulative_quad,
    gauss_piece,
    piecewise_gauss,
    sign_power,
)

U_HIT_ZERO = "u_hit_zero"
DU_HIT_ZERO = "du_hit_zero"
REACHED_R_MAX = "reached_r_max"
STEP_FAILURE = "step_failure"


@dataclass(frozen=True)
class IntegratorControls:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    r_max: float = 1e6
    startup_radius: float = 1e-4  # in t-units
    max_steps: int = 500_000

    def __post_init__(self):
        if not (0.0 < self.abs_tol <= self.rel_tol < 1.0):
            raise DomainError("need 0 < abs_tol <= rel_tol < 1")
        if not self.r_max > self.startup_radius > 0.0:
            raise DomainError("need r_max > startup_radius > 0")

    def with_tolerances(self, rel_tol=None, abs_tol=None):
        return IntegratorControls(
            rel_tol if rel_tol is not None else self.rel_tol,
            abs_tol if abs_tol is not None else self.abs_tol,
            self.r_max,
            self.startup_radius,
            self.max_steps,
        )


def transformed_arclength(model, r):
    """t(r) = int_0^r K^{1/p}, the arclength that regularizes the origin."""
    p = model.p
    return adaptive_quad(lambda s: model.weight.K(s) ** (1.0 / p), 0.0, r)


def radius_for_arclength(model, t_target, r_hint=1.0, r_cap=1e6):
    """Invert t(r) = t_target by safeguarded bracketing (t is strictly
    increasing and unbounded since K^{1/p} is not integrable at infinity)."""
    lo, hi = None, None
    r = r_hint
    for _ in range(200):
        t = transformed_arclength(model, r)
        if t < t_target:
            lo = r
            r *= 4.0
            if r > r_cap * 4.0:
                break
        else:
            hi = r
            r /= 4.0
            if lo is not None:
                break
            if r < 1e-280:
                raise DomainError("startup radius underflows for this weight")
    if lo is None or hi is None:
        raise DomainError("could not bracket the startup radius")
    return brentq(
        lambda rr: transformed_arclength(model, rr) - t_target, lo, hi,
        xtol=1e-300, rtol=1e-14,
    )


@dataclass
class StartupProfile:
    """The trajectory on [0, r1], a closed form over the per-model
    startup tables (see origin_startup): the grid values, and the
    coefficients (f, c f^e, f^e, e c f^{2e-1}) that eval applies to the
    tables' interpolants between them."""

    r1: float
    u1: float
    m1: float
    t1: float
    r_grid: np.ndarray  # includes 0
    u_grid: np.ndarray
    m_grid: np.ndarray
    alpha: float
    tables: "_StartupTables" = field(repr=False)
    coefficients: tuple = field(repr=False)

    def eval(self, model, r):
        if r <= 0.0:
            return self.alpha, 0.0, 0.0
        r = min(r, self.r1)
        tab = self.tables
        f, cfe, fe, ecf = self.coefficients
        m = -(f * tab.J(r) - cfe * tab.L(r))
        u = self.alpha - (fe * tab.U1(r) - ecf * tab.V(r))
        return u, _du_from_m(m, r, model.n, model.p), m


def _du_from_m(m, r, n, p):
    if r <= 0.0:
        return 0.0
    return sign_power(m / r ** (n - 1.0), 1.0 / (p - 1.0))


_STARTUP_POINTS = 25  # log-spaced over [r1 * 1e-6, r1]
_STARTUP_DEV = 1e-6  # largest accepted alpha - u(r1), relative to alpha

# The startup's alpha-independent data per model, (t_start, r_max) -> r1
# and r1 -> _StartupTables; weakly keyed, so it goes with its model.
_PER_MODEL = weakref.WeakKeyDictionary()


def _per_model(model, key, build):
    """build() for this model and key, built on first use and cached."""
    entries = _PER_MODEL.setdefault(model, {})
    if key not in entries:
        entries[key] = build()
    return entries[key]


@dataclass(frozen=True)
class _StartupTables:
    """Integrals on the startup grid s, none depending on alpha
    (e = 1/(p-1)), each a LogLogTable holding its grid values as ys:

        J = int_0^s sigma^{n-1} K,       S1 = (J/s^{n-1})^e,
        U1 = int_0^s S1,                 L = int_0^s sigma^{n-1} K U1,
        V = int_0^s S1 L/J,

    and t1 = t(r1)."""

    s: np.ndarray
    J: LogLogTable
    U1: LogLogTable
    L: LogLogTable
    V: LogLogTable
    t1: float


def _startup_tables(model, r1):
    n, e, K = model.n, 1.0 / (model.p - 1.0), model.weight.K
    s = np.geomspace(r1 * 1e-6, r1, _STARTUP_POINTS)
    s.setflags(write=False)

    def integral(f):
        out = cumulative_quad(f, s, head_from_zero=True)
        if not np.all(out > 0.0):
            raise StepFailure("weight mass vanished on the startup interval")
        out.setflags(write=False)
        return LogLogTable(s, out)

    J = integral(lambda x: x ** (n - 1.0) * K(x))

    def S1(x):
        return (J(x) / x ** (n - 1.0)) ** e

    U1 = integral(S1)
    L = integral(lambda x: x ** (n - 1.0) * K(x) * U1(x))
    V = integral(lambda x: S1(x) * L(x) / J(x))
    return _StartupTables(s, J, U1, L, V, transformed_arclength(model, r1))


def origin_startup(model, alpha, r1, refine=True):
    """State (u, m) at r1 from the integral form of the equation,

        m(r) = -int_0^r s^{n-1} K(s) f(u(s)) ds,
        u(r) = alpha - int_0^r (|m(s)|/s^{n-1})^{1/(p-1)} ds,

    linearised in alpha - u.  With f(u) = f - c (alpha - u), f = f(alpha)
    and e = 1/(p-1), it closes on the per-model tables of
    _startup_tables:

        m = -(f J - c f^e L),   alpha - u = f^e U1 - e c f^{2e-1} V,

    up to O((alpha - u)^2).  The slope c is the secant of f over
    [alpha - f^e U1(r1), alpha], so f' is never needed; refine=False sets
    c = 0, the frozen pass.  The correction is made only while the
    frozen alpha - u(r1) is within 1e-6 alpha, where integrate_ivp
    accepts a startup; past it the frozen pass is returned, which that
    check rejects.  The profile keeps the tables and the four
    coefficients, so it builds no interpolant of its own.
    """
    nl = model.nonlinearity
    e = 1.0 / (model.p - 1.0)
    try:
        f = nl.f(alpha)
    except OverflowError as exc:
        raise DomainError(f"f(alpha) overflows at alpha={alpha}") from exc
    if f <= 0.0:
        raise DomainError(f"origin startup needs f(alpha) > 0, got f({alpha})={f}")
    tab = _per_model(model, ("tables", r1), lambda: _startup_tables(model, r1))
    try:
        fe = f ** e
        dev1 = fe * float(tab.U1.ys[-1])
        c = 0.0
        if refine and 0.0 < dev1 <= _STARTUP_DEV * alpha:
            c = (f - nl.f(alpha - dev1)) / dev1
        ecf = e * c * f ** (2.0 * e - 1.0) if c else 0.0
    except OverflowError as exc:
        raise DomainError(f"f(alpha)^(1/(p-1)) overflows at alpha={alpha}") from exc
    cfe = c * fe
    flux = f * tab.J.ys - cfe * tab.L.ys
    dev = fe * tab.U1.ys - ecf * tab.V.ys
    return StartupProfile(
        r1=r1,
        u1=float(alpha - dev[-1]),
        m1=float(-flux[-1]),
        t1=tab.t1,
        r_grid=np.concatenate(([0.0], tab.s)),
        u_grid=np.concatenate(([alpha], alpha - dev)),
        m_grid=np.concatenate(([0.0], -flux)),
        alpha=alpha,
        tables=tab,
        coefficients=(f, cfe, fe, ecf),
    )


class _Segment:
    """One dense-output phase in r."""

    def __init__(self, sol, n, p):
        self.dense = FloatDenseOutput(sol.sol)
        self.n = n
        self.p = p
        self.r_hi = float(sol.t[-1])

    def eval(self, r):
        u, m = self.dense(r)
        return u, _du_from_m(m, r, self.n, self.p), m


@dataclass
class Trajectory:
    """Integrated radial profile with dense output.

    Nodes carry (r, u, u', m); u is strictly decreasing with u' < 0 on
    interior nodes up to the stop event, which is one of u_hit_zero,
    du_hit_zero, reached_r_max, step_failure.
    """

    model: object
    alpha: float
    controls: IntegratorControls
    r: np.ndarray
    u: np.ndarray
    du: np.ndarray
    m: np.ndarray
    stop_event: str
    startup: StartupProfile
    segments: list
    r0: float | None = None   # radius where u = u0 (if reached)
    du_r0: float | None = None
    truncated: bool = False
    tail_r_du: float | None = None  # r |u'| diagnostic at r_max shots
    _inverse: object = field(default=None, repr=False)
    _pieces: dict = field(default_factory=dict, repr=False)

    @property
    def R(self):
        return float(self.r[-1])

    @property
    def u_R(self):
        return float(self.u[-1])

    @property
    def du_R(self):
        return float(self.du[-1])

    def eval(self, r):
        """Dense (u, u', m) at radius r in [0, R]."""
        if not (0.0 <= r <= self.R * (1.0 + 1e-12)):
            raise DomainError(f"r={r} outside trajectory range [0, {self.R}]")
        if r <= self.startup.r1:
            return self.startup.eval(self.model, r)
        for seg in self.segments:
            if r <= seg.r_hi * (1.0 + 1e-15):
                return seg.eval(min(r, seg.r_hi))
        return seg.eval(seg.r_hi)

    def integral(self, key, integrand, a, b):
        """Integral over [a, b] of integrand(r, u, u', m) along the dense
        trajectory, split at the nodes (each piece is smooth), one Gauss
        rule per piece.  The whole node pieces come from a table kept per
        key, each computed on first use; key names the integrand,
        including the model it reads K and f from."""
        pieces = self._pieces.setdefault(key, [None] * (len(self.r) - 1))

        def f(r):
            u, du, m = self.eval(r)
            return integrand(r, u, du, m)

        def whole(j):
            if pieces[j] is None:
                pieces[j] = gauss_piece(f, self.r[j], self.r[j + 1])
            return pieces[j]

        return piecewise_gauss(f, self.r, a, b, whole)

    def u_at(self, r):
        return self.eval(r)[0]

    def du_at(self, r):
        return self.eval(r)[1]


def _rhs(model):
    n, p = model.n, model.p
    K = model.weight.K
    f = model.nonlinearity.f_clamped
    e = 1.0 / (p - 1.0)

    def rhs(r, y):
        u, m = y
        rn = r ** (n - 1.0)
        return (sign_power(m / rn, e), -rn * K(r) * f(u))

    return rhs


def integrate_ivp(model, alpha, controls=None):
    """Shoot from height alpha; see the module docstring for the scheme."""
    controls = controls or IntegratorControls()
    u0 = model.u0
    if not math.isfinite(alpha):
        raise DomainError(f"alpha={alpha} is not a finite height",
                          witness={"alpha": alpha})
    if not alpha > u0:
        raise DomainError(
            f"alpha={alpha} <= u0={u0}: the energy |u'|^p/(p' K) + F(u) starts "
            "negative and stays negative, so the profile can never reach zero",
            witness={"alpha": alpha, "u0": u0},
        )

    n, p = model.n, model.p

    # startup with a-posteriori validation; shrink r1 on failure
    t_start = controls.startup_radius
    startup = None
    for _ in range(10):
        r1 = _per_model(model, ("r1", t_start, controls.r_max),
                        lambda: radius_for_arclength(model, t_start,
                                                     r_cap=controls.r_max))
        prof = origin_startup(model, alpha, r1)
        if alpha - prof.u1 <= _STARTUP_DEV * alpha:
            startup = prof
            break
        t_start /= 4.0
    if startup is None:
        raise StepFailure(
            f"startup region would not shrink to keep u within 1e-6*alpha "
            f"(alpha={alpha})"
        )

    segments = []
    nodes_r = [0.0, startup.r1]
    nodes_u = [alpha, startup.u1]
    nodes_m = [0.0, startup.m1]
    stop_event = REACHED_R_MAX
    r0 = du_r0 = None

    rhs = _rhs(model)

    # terminal events on the state (u, m)
    def ev_u0(r, y):
        return y[0] - u0

    def ev_u(r, y):
        return y[0]

    def ev_m(r, y):
        return y[1]

    for ev, direction in ((ev_u0, -1), (ev_u, -1), (ev_m, 1)):
        ev.terminal, ev.direction = True, direction

    def phase(r, u, m, events):
        """Integrate from (r, u, m) towards r_max until an event; records
        the segment and its nodes, and whether the integrator failed."""
        sol = solve_ivp(rhs, (r, controls.r_max), (u, m), method="DOP853",
                        dense_output=True, events=events,
                        rtol=controls.rel_tol, atol=controls.abs_tol)
        segments.append(_Segment(sol, n, p))
        nodes_r.extend(map(float, sol.t[1:]))
        nodes_u.extend(map(float, sol.y[0][1:]))
        nodes_m.extend(map(float, sol.y[1][1:]))
        return sol, sol.status == -1

    # --- phase A: down to u0 ------------------------------------------------
    below_u0_already = startup.u1 <= u0
    if below_u0_already:
        # alpha barely above u0: the u0 crossing happened inside the
        # startup region; locate it on the startup profile and truncate
        # the startup there so the node grid stays increasing
        r0 = brentq(
            lambda r: startup.eval(model, r)[0] - u0,
            startup.r_grid[1],
            startup.r1,
            rtol=1e-15,
        )
        uB, duB, mB = startup.eval(model, r0)
        du_r0 = duB
        phaseB_start = (r0, u0, mB)
        startup.r1, startup.u1, startup.m1 = r0, u0, mB
        startup.t1 = transformed_arclength(model, r0)
        nodes_r[-1], nodes_u[-1], nodes_m[-1] = r0, u0, mB
    else:
        solA, fail = phase(startup.r1, startup.u1, startup.m1, [ev_u0])
        if fail:
            stop_event = STEP_FAILURE
            phaseB_start = None
        elif solA.t_events[0].size:
            rA = float(solA.t[-1])
            uA, mA = (float(c) for c in solA.y[:, -1])
            r0, du_r0 = rA, _du_from_m(mA, rA, n, p)
            phaseB_start = (rA, uA, mA)
        else:
            # never descended to u0 before r_max
            stop_event = REACHED_R_MAX
            phaseB_start = None

    # --- phase B: below u0, watch for u = 0 and u' = 0 ----------------------
    if phaseB_start is not None:
        solB, fail = phase(*phaseB_start, [ev_u, ev_m])
        if fail:
            stop_event = STEP_FAILURE
        elif solB.t_events[0].size:
            stop_event = U_HIT_ZERO
        elif solB.t_events[1].size:
            stop_event = DU_HIT_ZERO
        else:
            stop_event = REACHED_R_MAX

    if len(nodes_r) > controls.max_steps:
        stop_event = STEP_FAILURE

    r_arr = np.asarray(nodes_r)
    u_arr = np.asarray(nodes_u)
    m_arr = np.asarray(nodes_m)
    du_arr = np.array(
        [_du_from_m(m_arr[i], r_arr[i], n, p) for i in range(len(r_arr))]
    )
    truncated = stop_event == REACHED_R_MAX
    traj = Trajectory(
        model=model,
        alpha=alpha,
        controls=controls,
        r=r_arr,
        u=u_arr,
        du=du_arr,
        m=m_arr,
        stop_event=stop_event,
        startup=startup,
        segments=segments,
        r0=r0,
        du_r0=du_r0,
        truncated=truncated,
        tail_r_du=float(r_arr[-1] * abs(du_arr[-1])) if truncated else None,
    )
    return traj


def energy(model, traj, r):
    """E(r) = |u'|^p / (p' K(r)) + F(u(r)) and its radial derivative

        dE/dr = -(|u'|^p / (p' r K)) ( (n-1) p/(p-1) + r K'/K ),

    which is nonpositive under the weight hypothesis, so E decreases
    along every shot.  At r = 0 the kinetic term vanishes and
    E = F(alpha); the derivative is reported as its generic limit 0.
    """
    p, n = model.p, model.n
    pp = p / (p - 1.0)
    nl, w = model.nonlinearity, model.weight
    if r == 0.0:
        return nl.F(traj.alpha), 0.0
    u, du, _ = traj.eval(r)
    K = w.K(r)
    kin = abs(du) ** p / (pp * K)
    E = kin + nl.F(max(u, 0.0))
    dE = -(abs(du) ** p / (pp * r * K)) * ((n - 1.0) * p / (p - 1.0) + r * w.dK(r) / K)
    return E, dE


class InverseProfile:
    """Monotone inverse t(s) of a decreasing trajectory: the radius at
    which the profile passes through height s.  Node queries are exact;
    interior queries bracket on the dense output."""

    def __init__(self, traj):
        u, r = traj.u, traj.r
        if decrease_violations(u, tol=1e-12):
            raise InternalError(
                "trajectory is not strictly decreasing; cannot invert",
                witness={"alpha": traj.alpha},
            )
        keep = np.concatenate(([True], np.diff(u) < 0.0))  # drop plateaus
        self.traj = traj
        self.s_grid = u[keep]
        self._neg_s_grid = -self.s_grid  # increasing, for the search
        self.t_of_s_nodes = r[keep]

    def t_of_s(self, s):
        if s != s:
            raise DomainError("t_of_s queried at a NaN height")
        traj = self.traj
        u = self.s_grid
        rr = self.t_of_s_nodes
        s = min(max(s, u[-1]), u[0])
        # u is decreasing; find segment with u[i] >= s >= u[i+1]
        i = int(np.searchsorted(self._neg_s_grid, -s, side="left"))
        if i == 0:
            return float(rr[0])
        i -= 1
        if u[i] == s:
            return float(rr[i])
        if i + 1 < len(u) and u[i + 1] == s:
            return float(rr[i + 1])
        a, b = rr[i], rr[min(i + 1, len(u) - 1)]
        if a == b:
            return float(a)
        return brentq(lambda r: traj.eval(r)[0] - s, a, b, rtol=1e-15)


def invert_profile(traj):
    if traj._inverse is None:
        traj._inverse = InverseProfile(traj)
    return traj._inverse


def flux_residual(model, traj, r):
    """Residual of the integrated equation at radius r:
    m(r) + int_0^r s^{n-1} K f(u) ds, which is identically zero for the
    exact solution (independent quadrature on the dense output, the
    trajectory's table of node pieces from 0 up to r)."""
    n = model.n
    K = model.weight.K
    f = model.nonlinearity.f_clamped

    def integrand(s, u, du, m):
        return s ** (n - 1.0) * K(s) * f(u)

    integral = traj.integral(("flux", model), integrand, 0.0, r)
    m_r = traj.eval(r)[2]
    return m_r + integral


def fbar(model, traj_ref, s):
    """Fbar(s) = int_0^s f(xi) t1(xi)^p K(t1(xi)) dxi along the reference
    shot, evaluated in the radial variable (d xi = u1' dr):

        Fbar(s) = int_{t1(s)}^{R1} r^p K(r) f(u1(r)) |u1'(r)| dr,

    which avoids interpolating the singular 1/u1' near s = u0.  The
    node pieces from t1(s) up to R come from the reference shot's table,
    built once per shot and model."""
    p = model.p
    K = model.weight.K
    f = model.nonlinearity.f_clamped
    inv = invert_profile(traj_ref)
    r_s = inv.t_of_s(s)

    def integrand(r, u, du, m):
        return r**p * K(r) * f(u) * abs(du)

    return traj_ref.integral(("fbar", model), integrand, r_s, traj_ref.R)


def capital_I(model, traj_ref, traj, s, with_W=True):
    """(Fbar(s), I(s, .), W(s, .)) where

        I(s, alpha) = t(s,alpha)^p |u'(t(s,alpha))|^p / p' + Fbar(s),
        W = I^{1/p}   (only defined where I >= 0).

    traj_ref must be a ground-state candidate or crossing shot reaching
    below u0; Fbar is built from its inverse profile."""
    u0 = model.u0
    if not (0.0 <= s <= u0):
        raise DomainError(f"capital_I needs s in [0, u0], got s={s}")
    for t in (traj_ref, traj):
        if t.u[-1] > u0:
            raise DomainError("both trajectories must descend below u0")
    p = model.p
    pp = p / (p - 1.0)
    fb = fbar(model, traj_ref, s)
    inv = invert_profile(traj)
    t_s = inv.t_of_s(s)
    du_s = traj.eval(t_s)[1]
    I = t_s**p * abs(du_s) ** p / pp + fb
    if I < 0.0 and with_W:
        raise DomainError(
            f"W(s)=I^(1/p) requested where I<0 (s={s}, I={I})",
            witness={"s": s, "I": I},
        )
    W = I ** (1.0 / p) if I >= 0.0 else None
    return fb, I, W
