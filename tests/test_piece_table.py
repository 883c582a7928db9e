"""Fbar, I and the flux residual read each trajectory's cached table of
per-node Gauss pieces.  The table changes no bit: every value equals a
direct piecewise_gauss over the same interval, compared with ==."""

import pathlib

import pytest

import plshoot as ps
from plshoot import shoot
from plshoot.model import load_model
from plshoot.classify import transition_bracket
from plshoot.quadrature import piecewise_gauss
from plshoot.uniqueness import _s_grid, find_ground_state, verify_suite

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "models"


def direct(traj, integrand, a, b):
    def f(r):
        return integrand(r, *traj.eval(r))

    return piecewise_gauss(f, traj.r, a, b)


def direct_fbar(model, traj, s):
    p, K, f = model.p, model.weight.K, model.nonlinearity.f_clamped
    r_s = ps.invert_profile(traj).t_of_s(s)
    return direct(traj, lambda r, u, du, m: r**p * K(r) * f(u) * abs(du),
                  r_s, traj.R)


def direct_I(model, traj, s):
    p = model.p
    t_s = ps.invert_profile(traj).t_of_s(s)
    du_s = traj.eval(t_s)[1]
    return t_s**p * abs(du_s) ** p / (p / (p - 1.0)) + direct_fbar(model, traj, s)


def direct_flux(model, traj, r):
    n, K, f = model.n, model.weight.K, model.nonlinearity.f_clamped
    integral = direct(traj, lambda s, u, du, m: s ** (n - 1.0) * K(s) * f(u),
                      0.0, r)
    return traj.eval(r)[2] + integral


@pytest.fixture(scope="module", params=["canonical", "matukuma_p3", "log_gaussian"])
def shot(request):
    model = load_model(CONFIGS / f"{request.param}.json")
    traj = ps.integrate_ivp(model, 5.0)
    assert traj.stop_event == "u_hit_zero"
    return model, traj


def heights(model, traj):
    u0 = model.u0
    nodes = [float(u) for u in traj.u if 0.0 < u < u0]
    return [float(s) for s in _s_grid(u0, 1e-3, 20)] + [0.0, u0] + nodes[::7]


def test_fbar_and_I_equal_the_direct_sum(shot):
    model, traj = shot
    for s in heights(model, traj):
        fb, I, _ = ps.capital_I(model, traj, traj, s, with_W=False)
        assert fb == direct_fbar(model, traj, s), s
        assert I == direct_I(model, traj, s), s
        assert ps.fbar(model, traj, s) == fb


def test_flux_residual_equals_the_direct_sum(shot):
    model, traj = shot
    r = traj.r
    radii = ([float(x) for x in r[::5]]
             + [float(0.5 * (r[i] + r[i + 1])) for i in range(1, len(r) - 1, 5)]
             + [0.5 * traj.startup.r1, 1e-3 * traj.startup.r1, traj.R])
    for x in radii:
        assert ps.flux_residual(model, traj, x) == direct_flux(model, traj, x), x


def test_another_model_object_reads_its_own_pieces(shot):
    model, traj = shot
    K, dK = model.weight.K, model.weight.dK
    other = ps.ProblemModel(
        model.params,
        ps.closure_weight(lambda r: 2.0 * K(r), lambda r: 2.0 * dK(r)),
        model.nonlinearity)
    s = 0.5 * model.u0
    mid = float(0.5 * (traj.r[3] + traj.r[4]))
    for m in (model, other, model):
        assert ps.fbar(m, traj, s) == direct_fbar(m, traj, s)
        assert ps.flux_residual(m, traj, mid) == direct_flux(m, traj, mid)
    assert ps.fbar(other, traj, s) != ps.fbar(model, traj, s)


def test_verify_suite_evaluates_the_trajectories_a_few_thousand_times(
        canonical_model, canonical_sweep, controls, monkeypatch):
    # a bracket of its own, so that no other test has filled its tables
    pair = transition_bracket(canonical_sweep)
    bracket = find_ground_state(canonical_model, pair[0], pair[1], 1e-8,
                                controls)
    calls = [0]
    plain_eval = shoot.Trajectory.eval

    def counted(self, r):
        calls[0] += 1
        return plain_eval(self, r)

    monkeypatch.setattr(shoot.Trajectory, "eval", counted)
    assert verify_suite(canonical_model, bracket, controls=controls).passed
    # 32,147 when every capital_I integrated Fbar from scratch
    assert calls[0] <= 8000
