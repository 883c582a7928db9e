"""The variational startup: phi and P on the startup grid against an
independent joint integration of the shot and its linearisation, and a
warmed model that shoots and linearises without building an
interpolant."""

import math
import pathlib
import sys

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

import plshoot as ps
from plshoot.errors import DomainError
from plshoot.variational import solve_variational

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "models"
MODELS = ("canonical", "log_gaussian", "matukuma_p15", "matukuma_p3")
ALPHAS = (1.05, 3.0, 5.0, 40.0)


def load(name):
    """A fresh model from the benchmark's config of that name."""
    return ps.load_model(CONFIGS / f"{name}.json")


def reference_phi_P(model, alpha, s):
    """(phi, P) at the radii s by DOP853 at rtol 100 eps, in log r, on
    the joint state (alpha - u, |m|, phi - 1, |P|), started at s[-1] * 1e-7
    from the first-order integral form (its error there is below 1e-20)."""
    n, p, K = model.n, model.p, model.weight.K
    nl, e = model.nonlinearity, 1.0 / (p - 1.0)
    f, g = nl.f(alpha), nl.fprime(alpha)
    rs = s[-1] * 1e-7
    tight = dict(epsabs=0.0, epsrel=1e-13, limit=200)

    def J(x):
        return quad(lambda y: y ** (n - 1.0) * K(y), 0.0, x, **tight)[0]

    U1 = quad(lambda x: (J(x) / x ** (n - 1.0)) ** e, 0.0, rs, **tight)[0]
    start = (f**e * U1, f * J(rs), -e * g * f ** (e - 1.0) * U1, g * J(rs))

    def rhs(x, y):
        r = math.exp(x)
        d, m, phi1, absP = y
        rn = r ** (n - 1.0)
        du = (m / rn) ** e
        return (r * du,
                r * rn * K(r) * nl.f(alpha - d),
                -r * absP * du ** (2.0 - p) / ((p - 1.0) * rn),
                r * rn * K(r) * nl.fprime(alpha - d) * (1.0 + phi1))

    sol = solve_ivp(rhs, (math.log(rs), math.log(s[-1])), start, method="DOP853",
                    t_eval=np.log(s), rtol=100 * np.finfo(float).eps, atol=1e-300)
    assert sol.status == 0
    return 1.0 + sol.y[2], -sol.y[3]


@pytest.mark.parametrize("name", MODELS)
def test_variational_startup_matches_a_joint_reference(name):
    # a contraction over a second cumulative quadrature was off by up to
    # 1.1e-6 in phi and 3.0 relative in P (log_gaussian)
    model = load(name)
    checked = 0
    for alpha in ALPHAS:
        traj = ps.integrate_ivp(model, alpha)
        try:
            state = solve_variational(model, traj)
        except DomainError:
            continue  # r0 inside the startup region, or never reached
        s = traj.startup.r_grid[1:]
        phi_ref, P_ref = reference_phi_P(model, alpha, s)
        for r, phi_r, P_r in zip(s, phi_ref, P_ref):
            phi, _, P, _ = state.eval(float(r))
            assert abs(phi - phi_r) <= 1e-9, (alpha, r)
            assert abs(P - P_r) <= 1e-5 * abs(P_r), (alpha, r)
        checked += 1
    assert checked >= 2


def _counting(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    return wrapper


def test_warm_model_builds_no_interpolant(monkeypatch):
    model = load("canonical")
    solve_variational(model, ps.integrate_ivp(model, 3.0))
    calls = []
    for modname, module in list(sys.modules.items()):
        if modname.split(".")[0] != "plshoot":
            continue
        for attr in ("PchipInterpolator", "adaptive_quad"):
            if attr in vars(module):
                monkeypatch.setattr(module, attr,
                                    _counting(calls, attr, getattr(module, attr)))
    traj = ps.integrate_ivp(model, 5.0)
    solve_variational(model, traj)
    assert calls == []
