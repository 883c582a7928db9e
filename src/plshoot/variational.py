"""The linearization of a shot in its initial height.

phi(r) = du/dalpha satisfies, on [0, r0] (r0 the radius where the
profile crosses the nonlinearity's zero u0),

    (p-1) (r^{n-1} |u'|^{p-2} phi')' + r^{n-1} K f'(u) phi = 0,
    phi(0) = 1,  phi'(0) = 0,

a linear equation degenerate at the origin because u'(0) = 0.  Instead
of the ODE, the origin is handled through the equivalent integral
system in the transformed variable t (dt = K^{1/p} dr), written here in
radial form with P = d(r^{n-1} phi_p(u'))/dalpha:

    P(r)    = - int_0^r rho^{n-1} K f'(u) phi drho,
    phi(r)  = 1 + int_0^r P |u'|^{2-p} / ((p-1) rho^{n-1}) drho.

On the startup interval [0, r1] the shot is a closed form over the
per-model startup tables (shoot.origin_startup); differentiating its
frozen pass, alpha - u = f(alpha)^e U1 and |m| = f(alpha) J with
e = 1/(p-1), gives the same linearisation to first order:

    phi = 1 - e g f^{e-1} U1,   |P| = g J,   g = f'(alpha),

on the same tables.  From r1 the regular ODE form takes over; phi and
P extend continuously to r0.  Theta, the flux derivative in t units,
is P/q with q = r^{n-1} K^{1/p'}.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .errors import DomainError, StepFailure
from .model import _strictly_decreasing_violation
from .quadrature import FloatDenseOutput, adaptive_quad
from .shoot import integrate_ivp, invert_profile


@dataclass
class VariationalState:
    """phi, phi', Theta on the base trajectory's grid over [0, r0]."""

    model: object = field(repr=False)
    traj: object = field(repr=False)
    r: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    theta: np.ndarray
    r0: float
    _tables: object = field(default=None, repr=False)  # shoot._StartupTables
    _startup_coefficients: tuple = (0.0, 0.0)  # g and e g f^{e-1}
    _ode_sol: object = field(default=None, repr=False)
    _r1: float = 0.0

    def eval(self, r):
        """(phi, phi', P, Theta) at any r in [0, r0]."""
        model = self.model
        n, p = model.n, model.p
        if not (0.0 <= r <= self.r0 * (1.0 + 1e-12)):
            raise DomainError(f"variational state queried outside [0, r0]: r={r}")
        if r == 0.0:
            return 1.0, 0.0, 0.0, 0.0
        if r <= self._r1:
            g, k = self._startup_coefficients
            phi = 1.0 - k * self._tables.U1(r)
            P = -g * self._tables.J(r)
        else:
            phi, P = self._ode_sol(min(r, self.r0))
        u, du, _ = self.traj.eval(min(r, self.r0))
        rn = r ** (n - 1.0)
        dphi = P * abs(du) ** (2.0 - p) / ((p - 1.0) * rn)
        K = model.weight.K(r)
        theta = P / (rn * K ** ((p - 1.0) / p))
        return phi, dphi, P, theta


def solve_variational(model, traj, rel_tol=1e-11, abs_tol=1e-13):
    """Solve the integral system for (phi, P) along a shot that reaches
    u0; see the module docstring for the scheme."""
    if traj.r0 is None:
        raise DomainError(
            "variational equation needs a shot descending below u0 "
            f"(alpha={traj.alpha} never reached it)"
        )
    startup = traj.startup
    r0 = traj.r0
    if r0 <= startup.r1:
        raise DomainError(
            "u0 crossing happens inside the startup region; alpha is too "
            "close to u0 for the variational solve"
        )
    n, p = model.n, model.p
    nl, w = model.nonlinearity, model.weight

    # --- startup: the closed form on the shot's tables ----------------------
    tab = startup.tables
    e = 1.0 / (p - 1.0)
    g = nl.fprime_at_or_above_u0(traj.alpha)
    if not g > 0.0:
        raise StepFailure(
            f"variational startup lost positivity: f'(alpha)={g} at alpha={traj.alpha}")
    k = e * g * nl.f(traj.alpha) ** (e - 1.0)

    # --- regular region: linear ODE in r ------------------------------------
    def rhs(r, y):
        phi, P = y
        u, du, _ = traj.eval(r)
        rn = r ** (n - 1.0)
        return (
            P * abs(du) ** (2.0 - p) / ((p - 1.0) * rn),
            -rn * w.K(r) * nl.fprime_at_or_above_u0(u) * phi,
        )

    sol = solve_ivp(
        rhs,
        (startup.r1, r0),
        (1.0 - k * float(tab.U1.ys[-1]), -g * float(tab.J.ys[-1])),
        method="DOP853",
        dense_output=True,
        rtol=rel_tol,
        atol=abs_tol,
    )
    if sol.status != 0:
        raise StepFailure(f"variational ODE failed: {sol.message}")

    interior = traj.r[(traj.r > 0.0) & (traj.r < r0)]
    r_nodes = np.concatenate(([0.0], interior, [r0]))
    state = VariationalState(
        model=model,
        traj=traj,
        r=r_nodes,
        phi=np.empty_like(r_nodes),
        dphi=np.empty_like(r_nodes),
        theta=np.empty_like(r_nodes),
        r0=r0,
        _tables=tab,
        _startup_coefficients=(g, k),
        _ode_sol=FloatDenseOutput(sol.sol),
        _r1=startup.r1,
    )
    for i, r in enumerate(r_nodes):
        phi, dphi, _, theta = state.eval(r)
        state.phi[i] = phi
        state.dphi[i] = dphi
        state.theta[i] = theta
    return state


@dataclass
class AlphaDerivatives:
    """d r0/dalpha and d(r0 u'(r0))/dalpha at one shot, with endpoint data."""

    alpha: float
    r0: float
    du_r0: float
    phi_r0: float
    dphi_r0: float
    dr0_dalpha: float
    d_r0du_dalpha: float
    d_r0du_dalpha_crosscheck: float


def alpha_derivatives(model, alpha, controls=None, traj=None, state=None):
    """Endpoint derivative formulas

        dr0/dalpha          = -phi(r0) / u'(r0),
        d(r0 u'(r0))/dalpha = (n-p)/(p-1) phi(r0) + r0 phi'(r0),

    the second cross-checked through the equivalent identity
    r0^{(n-p)/(p-1)-1} d(r0 u')/dalpha = d/dr [ r^{(n-p)/(p-1)} phi ]_{r0}
    evaluated by one-sided differencing of the dense state."""
    if traj is None:
        traj = integrate_ivp(model, alpha, controls)
    if state is None:
        state = solve_variational(model, traj)
    n, p = model.n, model.p
    r0 = state.r0
    du_r0 = traj.eval(r0)[1]
    phi_r0, dphi_r0, _, _ = state.eval(r0)
    nu = (n - p) / (p - 1.0)
    dr0 = -phi_r0 / du_r0
    denergy = nu * phi_r0 + r0 * dphi_r0

    h = 1e-6 * r0
    gfun = lambda r: r**nu * state.eval(r)[0]
    cross = (gfun(r0) - gfun(r0 - h)) / h * r0 ** (1.0 - nu)
    return AlphaDerivatives(
        alpha=alpha,
        r0=r0,
        du_r0=du_r0,
        phi_r0=phi_r0,
        dphi_r0=dphi_r0,
        dr0_dalpha=dr0,
        d_r0du_dalpha=denergy,
        d_r0du_dalpha_crosscheck=cross,
    )


def eval_G(model, traj_ref, s):
    """G(s) = p (n + t K'(t)/K(t)) F0(s)/(s f(s)) - (n-p) with t = t(s)
    on the reference shot; G starts at -(n-p) just above u0, increases,
    and changes sign exactly once below the initial height."""
    u0 = model.u0
    if not (u0 < s < traj_ref.alpha):
        raise DomainError(f"G(s) needs s in (u0, alpha), got s={s}")
    inv = invert_profile(traj_ref)
    t = inv.t_of_s(s)
    w, nl = model.weight, model.nonlinearity
    n, p = model.n, model.p
    return p * (n + t * w.dK(t) / w.K(t)) * nl.F0(s) / (s * nl.f(s)) - (n - p)


def kwong_ratio(traj):
    """r u'(r)/u(r) on the trajectory grid restricted to (0, r0); the
    ratio is strictly decreasing there for ground-state/crossing shots.

    Returns (passed, witness, r_values, ratio_values)."""
    if traj.r0 is None:
        raise DomainError("Kwong ratio needs a shot that reaches u0")
    mask = (traj.r > 0.0) & (traj.r < traj.r0)
    r = traj.r[mask]
    ratio = r * traj.du[mask] / traj.u[mask]
    i = _strictly_decreasing_violation(ratio, tol=1e-10)
    if i is None:
        return True, None, r, ratio
    witness = {
        "r_lo": float(r[i]),
        "r_hi": float(r[i + 1]),
        "ratio_lo": float(ratio[i]),
        "ratio_hi": float(ratio[i + 1]),
    }
    return False, witness, r, ratio


def radial_combination_at_r0(model, traj):
    """(n-p)/(p-1) u0 + r0 u'(r0); strictly negative for shots in the
    ground-state/crossing family."""
    if traj.r0 is None:
        raise DomainError("needs a shot that reaches u0")
    n, p = model.n, model.p
    du_r0 = traj.eval(traj.r0)[1]
    return (n - p) / (p - 1.0) * model.u0 + traj.r0 * du_r0


def residual_of_integral_system(model, traj, state, r_values):
    """Independent-quadrature residuals of the two integral equations at
    the given radii, normalized by the largest magnitudes on the grid.

    Uses scipy adaptive quadrature over the dense phi/P/u fields, so it
    shares no discretization with the solver that produced them."""
    n, p = model.n, model.p
    w, nl = model.weight, model.nonlinearity

    def integrand1(rho):
        u = traj.eval(rho)[0]
        return rho ** (n - 1.0) * w.K(rho) * nl.fprime_at_or_above_u0(u) * state.eval(rho)[0]

    def integrand2(rho):
        u, du, _ = traj.eval(rho)
        P = state.eval(rho)[2]
        return P * abs(du) ** (2.0 - p) / ((p - 1.0) * rho ** (n - 1.0))

    P_scale = max(abs(state.eval(r)[2]) for r in r_values)
    res1 = []
    res2 = []
    for r in r_values:
        phi, _, P, _ = state.eval(r)
        eq1 = P + adaptive_quad(integrand1, 0.0, r, rel_tol=1e-12, abs_tol=1e-15)
        eq2 = phi - 1.0 - adaptive_quad(integrand2, 0.0, r, rel_tol=1e-12, abs_tol=1e-15)
        res1.append(abs(eq1) / (1.0 + P_scale))
        res2.append(abs(eq2) / 1.0)  # phi is O(1) by construction
    return np.array(res1), np.array(res2)
