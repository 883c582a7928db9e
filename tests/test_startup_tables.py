"""The origin startup: accuracy of its closed form against an
independent integration, the per-model table cache, and shots that need
no derivative of f."""

import gc
import math
import pathlib
import weakref

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

import plshoot as ps
from plshoot import quadrature, shoot
from plshoot.classify import classify
from plshoot.errors import DomainError, PlshootError
from plshoot.shoot import origin_startup, radius_for_arclength

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "models"
MODELS = ("canonical", "log_gaussian", "matukuma_p15", "matukuma_p3")
ALPHAS = (1.05, 3.0, 5.0, 40.0)


def load(name):
    """A fresh model from the benchmark's config of that name."""
    return ps.load_model(CONFIGS / f"{name}.json")


def accepted_startup(model, alpha):
    """The startup integrate_ivp accepts: the configured startup radius,
    quartered until alpha - u(r1) <= 1e-6 alpha."""
    t = ps.IntegratorControls().startup_radius
    while True:
        prof = origin_startup(model, alpha, radius_for_arclength(model, t))
        if alpha - prof.u1 <= 1e-6 * alpha:
            return prof
        t /= 4.0


def reference_state(model, alpha, r1):
    """(u, m) at r1 by DOP853 at scipy's tightest rtol, in log r, on the
    deviation d = alpha - u and |m|, started at r1 * 1e-7 from the frozen
    integral form (its error there is below 1e-20 alpha)."""
    n, p, K = model.n, model.p, model.weight.K
    f, e = model.nonlinearity.f, 1.0 / (p - 1.0)
    rs = r1 * 1e-7
    tight = dict(epsabs=0.0, epsrel=1e-13, limit=200)

    def J(s):
        return quad(lambda x: x ** (n - 1.0) * K(x), 0.0, s, **tight)[0]

    m_s = f(alpha) * J(rs)
    d_s = quad(lambda s: (f(alpha) * J(s) / s ** (n - 1.0)) ** e, 0.0, rs, **tight)[0]

    def rhs(x, y):
        r = math.exp(x)
        d, m = y
        return (r * (m / r ** (n - 1.0)) ** e, r**n * K(r) * f(alpha - d))

    sol = solve_ivp(rhs, (math.log(rs), math.log(r1)), (d_s, m_s), method="DOP853",
                    rtol=100 * np.finfo(float).eps, atol=1e-300)
    d1, m1 = sol.y[:, -1]
    return alpha - d1, -m1


@pytest.mark.parametrize("name", MODELS)
def test_startup_matches_a_tight_reference(name):
    # one fixed-point refinement of the frozen pass was off by up to
    # 1.1e-7 in m1 (log_gaussian); the closed form measured 7.3e-11 in
    # m1 and 4.8e-11 alpha in u1, both on log_gaussian at alpha = 40
    model = load(name)
    for alpha in ALPHAS:
        prof = accepted_startup(model, alpha)
        u_ref, m_ref = reference_state(model, alpha, prof.r1)
        assert abs(prof.m1 - m_ref) <= 1e-8 * abs(m_ref), alpha
        assert abs(prof.u1 - u_ref) <= 5e-9 * alpha, alpha


def _counting(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    return wrapper


def test_second_shot_builds_no_startup_table(monkeypatch):
    model = load("canonical")
    ps.integrate_ivp(model, 3.0)
    calls = []
    monkeypatch.setattr(shoot, "radius_for_arclength",
                        _counting(calls, "radius", shoot.radius_for_arclength))
    for module in (quadrature, shoot):
        monkeypatch.setattr(module, "adaptive_quad",
                            _counting(calls, "quad", module.adaptive_quad))
    ps.integrate_ivp(model, 5.0)
    assert calls == []


def _shot_bits(traj):
    st = traj.startup
    arrays = (traj.r, traj.u, traj.m, st.r_grid, st.u_grid, st.m_grid)
    probes = [traj.eval(float(r)) for r in np.linspace(0.0, traj.R, 41)]
    probes += [st.eval(traj.model, st.r1 * x) for x in (1e-9, 1e-6, 1e-3, 0.5)]
    return [a.tobytes() for a in arrays], probes, traj.stop_event


def test_warm_and_fresh_models_shoot_the_same_bits():
    # alpha = 40 needs a shrunk startup radius, alpha = 5 does not; each
    # order of the two shots must give what a fresh model gives
    fresh = {a: _shot_bits(ps.integrate_ivp(load("canonical"), a)) for a in (5.0, 40.0)}
    for order in ((5.0, 40.0), (40.0, 5.0)):
        model = load("canonical")
        origin_startup(model, 3.0, 1e-3)  # an unrelated table in the cache
        for a in order:
            assert _shot_bits(ps.integrate_ivp(model, a)) == fresh[a]


def test_cache_lets_go_of_a_dropped_model():
    model = load("canonical")
    traj = ps.integrate_ivp(model, 5.0)
    ref = weakref.ref(model)
    gc.collect()  # drop the models earlier tests left behind
    held = len(shoot._PER_MODEL)
    assert model in shoot._PER_MODEL
    del model, traj
    gc.collect()
    assert ref() is None
    assert len(shoot._PER_MODEL) == held - 1


def test_shots_need_no_derivative_of_f(controls):
    base = load("canonical")
    f = ps.power_diff_nonlinearity(3.0, 0.5).f
    bare = ps.ProblemModel(base.params, base.weight,
                           ps.closure_nonlinearity(f, 1.0))
    with pytest.raises(DomainError):
        bare.nonlinearity.fprime(5.0)
    for alpha in (2.0, 5.0, 40.0):
        a, b = ps.integrate_ivp(base, alpha, controls), ps.integrate_ivp(bare, alpha, controls)
        assert b.stop_event == a.stop_event
        assert b.R == a.R
        assert b.r.tobytes() == a.r.tobytes()
        assert classify(bare, alpha, controls).kind == classify(base, alpha, controls).kind


@pytest.mark.parametrize("alpha", [1e10, 1e60, 1e100])
def test_startup_overflow_ends_in_a_typed_error(alpha, controls):
    # p = 1.5 raises f(alpha) to the power 2, which overflows at 1e60
    # and 1e100
    with pytest.raises(PlshootError):
        ps.integrate_ivp(load("matukuma_p15"), alpha, controls)
