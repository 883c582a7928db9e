"""Integration of the singular initial value problem

    (r^{n-1} |u'|^{p-2} u')' = -r^{n-1} K(r) f(u),  u(0) = alpha, u'(0) = 0,

stopped at the first of u = 0, u' = 0 (below u0) or r = r_max, plus the
trajectory functionals built on top of it (energy, inverse profile, the
comparison quantities Fbar/I/W).

The integrated state is (u, m) with m = r^{n-1} |u'|^{p-2} u', never
(u, u''): m' = -r^{n-1} K f(u) stays smooth where u' vanishes, and u' is
recovered as sign(m) (|m|/r^{n-1})^{1/(p-1)}.

The origin is degenerate, so integration starts from a small radius r1
whose state comes from the frozen integral form of the equation
(one fixed-point refinement included); r1 is chosen so the transformed
arclength t(r1) = int_0^{r1} K^{1/p} equals the configured startup
radius, which keeps startup accuracy uniform across weight families.
Every weight is integrated in r: the t variable only sets the startup
radius.  Weights whose p + r K'/K blows up at the origin still get a
regular start, since the flux bound |phi_p(v_t)| <= f(alpha) t holds on
[0, r1], and beyond r1 > 0 the equation in r is regular.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from .errors import DomainError, InternalError, StepFailure
from .quadrature import (
    LogLogTable,
    adaptive_quad,
    cumulative_quad,
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
    """The trajectory on [0, r1], represented through the integral form."""

    r1: float
    u1: float
    m1: float
    t1: float
    r_grid: np.ndarray  # includes 0
    u_grid: np.ndarray
    m_grid: np.ndarray
    alpha: float
    dev: LogLogTable = field(repr=False)   # alpha - u
    flux: LogLogTable = field(repr=False)  # |m|

    def eval(self, model, r):
        if r <= 0.0:
            return self.alpha, 0.0, 0.0
        r = min(r, self.r1)
        m = -self.flux(r)
        return self.alpha - self.dev(r), _du_from_m(m, r, model.n, model.p), m


def _du_from_m(m, r, n, p):
    if r <= 0.0:
        return 0.0
    return sign_power(m / r ** (n - 1.0), 1.0 / (p - 1.0))


_STARTUP_POINTS = 25  # log-spaced over [r1 * 1e-6, r1]


def origin_startup(model, alpha, r1, refine=True):
    """State (u, m) at r1 from the frozen integral form of the equation:

        m(r) = -int_0^r s^{n-1} K(s) f(alpha) ds,
        u(r) = alpha - int_0^r (|m(s)|/s^{n-1})^{1/(p-1)} ds,

    followed by one fixed-point refinement with f(u(s)) re-evaluated
    (skipped when refine is false, exposing the quadrature-exact frozen
    pass).  The refinement corrects at the size of (alpha - u), which
    the caller keeps below 1e-6 alpha.
    """
    n, p = model.n, model.p
    nl, w = model.nonlinearity, model.weight
    try:
        f_alpha = nl.f(alpha)
    except OverflowError as exc:
        raise DomainError(f"f(alpha) overflows at alpha={alpha}") from exc
    if f_alpha <= 0.0:
        raise DomainError(f"origin startup needs f(alpha) > 0, got f({alpha})={f_alpha}")

    s_grid = np.geomspace(r1 * 1e-6, r1, _STARTUP_POINTS)
    e = 1.0 / (p - 1.0)

    def integral_form(f_of_s):
        """J = int_0^s sigma^{n-1} K f, its table and U = int_0^s (J/sigma^{n-1})^e
        on the grid, for the source f(u(s)) given as a function of s."""
        J = cumulative_quad(lambda s: s ** (n - 1.0) * w.K(s) * f_of_s(s),
                            s_grid, head_from_zero=True)
        if not np.all(J > 0.0):
            raise StepFailure("weight mass vanished on the startup interval")
        flux = LogLogTable(s_grid, J)
        U = cumulative_quad(lambda s: (flux(s) / s ** (n - 1.0)) ** e,
                            s_grid, head_from_zero=True)
        return J, flux, U

    J, flux, U = integral_form(lambda s: f_alpha)
    if refine:
        # one refinement: f evaluated on the frozen profile
        u_frozen = PchipInterpolator(np.log(s_grid), alpha - U)
        lo = math.log(s_grid[0])

        def f_frozen(s):
            ls = math.log(s)
            return nl.f_clamped(alpha - U[0] if ls < lo else float(u_frozen(ls)))

        J, flux, U = integral_form(f_frozen)

    u = alpha - U
    return StartupProfile(
        r1=r1,
        u1=float(u[-1]),
        m1=float(-J[-1]),
        t1=transformed_arclength(model, r1),
        r_grid=np.concatenate(([0.0], s_grid)),
        u_grid=np.concatenate(([alpha], u)),
        m_grid=np.concatenate(([0.0], -J)),
        alpha=alpha,
        dev=LogLogTable(s_grid, U),
        flux=flux,
    )


class _Segment:
    """One dense-output phase in r."""

    def __init__(self, sol, n, p):
        self.sol = sol
        self.n = n
        self.p = p
        self.r_lo, self.r_hi = sol.t[0], sol.t[-1]

    def eval(self, r):
        u, m = self.sol.sol(r)
        return float(u), _du_from_m(float(m), r, self.n, self.p), float(m)


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
        if r < 0.0 or r > self.R * (1.0 + 1e-12):
            raise DomainError(f"r={r} outside trajectory range [0, {self.R}]")
        if r <= self.startup.r1:
            return self.startup.eval(self.model, r)
        for seg in self.segments:
            if r <= seg.r_hi * (1.0 + 1e-15):
                return seg.eval(min(r, seg.r_hi))
        return seg.eval(seg.r_hi)

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
        r1 = radius_for_arclength(model, t_start, r_cap=controls.r_max)
        prof = origin_startup(model, alpha, r1)
        if alpha - prof.u1 <= 1e-6 * alpha:
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
        if np.any(np.diff(u) > 1e-12 * (1.0 + np.abs(u[:-1]))):
            raise InternalError(
                "trajectory is not strictly decreasing; cannot invert",
                witness={"alpha": traj.alpha},
            )
        keep = np.concatenate(([True], np.diff(u) < 0.0))  # drop plateaus
        self.traj = traj
        self.s_grid = u[keep]
        self.t_of_s_nodes = r[keep]

    def t_of_s(self, s):
        traj = self.traj
        u = self.s_grid
        rr = self.t_of_s_nodes
        s = min(max(s, u[-1]), u[0])
        # u is decreasing; find segment with u[i] >= s >= u[i+1]
        i = int(np.searchsorted(-u, -s, side="left"))
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


def trajectory_integral(traj, integrand, a, b):
    """Integral over [a, b] of integrand(r, u, u', m) along the dense
    trajectory, split at the solver nodes (each piece is smooth)."""

    def f(r):
        u, du, m = traj.eval(r)
        return integrand(r, u, du, m)

    return piecewise_gauss(f, traj.r, a, b)


def flux_residual(model, traj, r):
    """Residual of the integrated equation at radius r:
    m(r) + int_0^r s^{n-1} K f(u) ds, which is identically zero for the
    exact solution (independent quadrature on the dense output)."""
    n = model.n
    K = model.weight.K
    f = model.nonlinearity.f_clamped

    def integrand(s, u, du, m):
        return s ** (n - 1.0) * K(s) * f(u)

    integral = trajectory_integral(traj, integrand, 0.0, r)
    m_r = traj.eval(r)[2]
    return m_r + integral


def fbar(model, traj_ref, s):
    """Fbar(s) = int_0^s f(xi) t1(xi)^p K(t1(xi)) dxi along the reference
    shot, evaluated in the radial variable (d xi = u1' dr):

        Fbar(s) = int_{t1(s)}^{R1} r^p K(r) f(u1(r)) |u1'(r)| dr,

    which avoids interpolating the singular 1/u1' near s = u0."""
    p = model.p
    K = model.weight.K
    f = model.nonlinearity.f_clamped
    inv = invert_profile(traj_ref)
    r_s = inv.t_of_s(s)

    def integrand(r, u, du, m):
        return r**p * K(r) * f(u) * abs(du)

    return trajectory_integral(traj_ref, integrand, r_s, traj_ref.R)


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
