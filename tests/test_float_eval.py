"""The float evaluators of quadrature.py against the scipy objects they
are copied from: equal bit for bit (NaN for NaN) on random points, on
every breakpoint and beyond both ends; and NaN queries of the dense
profiles end in DomainError."""

import math

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

import plshoot as ps
from plshoot import shoot, variational
from plshoot.errors import DomainError
from plshoot.quadrature import FloatDenseOutput, FloatPPoly
from plshoot.shoot import invert_profile
from plshoot.variational import solve_variational


def _same(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _queries(breaks, rng):
    lo, hi = float(breaks[0]), float(breaks[-1])
    width = hi - lo
    return ([float(q) for q in rng.uniform(lo, hi, 2000)]
            + [float(b) for b in breaks]
            + [lo - 0.5 * width, lo - 1e-9 * width, hi + 1e-9 * width,
               hi + 0.5 * width, math.nan])


@pytest.fixture()
def pchip():
    rng = np.random.default_rng(16)
    x = np.sort(rng.uniform(-4.0, 3.0, 40))
    return PchipInterpolator(x, np.cumsum(rng.uniform(-1.0, 2.0, 40)))


@pytest.mark.parametrize("derivative", [False, True], ids=["pchip", "derivative"])
def test_float_ppoly_matches_ppoly_call(pchip, derivative):
    pp = pchip.derivative() if derivative else pchip
    ev = FloatPPoly(pp)
    mismatches = [q for q in _queries(pp.x, np.random.default_rng(1))
                  if not _same(ev(q), float(pp(q)))]
    assert mismatches == []


def _assert_dense_matches(sol, rng):
    ev = FloatDenseOutput(sol.sol)
    mismatches = []
    for q in _queries(sol.t, rng):
        mine, ref = ev(q), sol.sol(q)
        if not all(_same(a, float(b)) for a, b in zip(mine, ref)):
            mismatches.append(q)
    assert mismatches == []


def _capture_solve_ivp(monkeypatch, module):
    sols = []
    real = module.solve_ivp

    def recording(*args, **kwargs):
        sol = real(*args, **kwargs)
        sols.append(sol)
        return sol

    monkeypatch.setattr(module, "solve_ivp", recording)
    return sols


def test_float_dense_output_matches_integrate_ivp_solution(canonical_model, monkeypatch):
    sols = _capture_solve_ivp(monkeypatch, shoot)
    traj = ps.integrate_ivp(canonical_model, 5.0)
    assert len(sols) == 2  # phases A and B
    rng = np.random.default_rng(2)
    for sol in sols:
        _assert_dense_matches(sol, rng)
    # Trajectory.eval past the startup is the recorded phases' dense output
    for seg, sol in zip(traj.segments, sols):
        for r in np.linspace(sol.t[0], sol.t[-1], 50)[1:]:
            u, _, m = traj.eval(float(r))
            ref_u, ref_m = sol.sol(r)
            assert _same(u, float(ref_u)) and _same(m, float(ref_m))


def test_float_dense_output_matches_variational_solution(canonical_model, monkeypatch):
    traj = ps.integrate_ivp(canonical_model, 5.0)
    sols = _capture_solve_ivp(monkeypatch, variational)
    state = solve_variational(canonical_model, traj)
    assert len(sols) == 1
    _assert_dense_matches(sols[0], np.random.default_rng(3))
    for r in np.linspace(sols[0].t[0], state.r0, 50)[1:]:
        phi, _, P, _ = state.eval(float(r))
        ref_phi, ref_P = sols[0].sol(r)
        assert _same(phi, float(ref_phi)) and _same(P, float(ref_P))


def test_nan_queries_raise_domain_error(canonical_model, crossing_traj):
    with pytest.raises(DomainError):
        crossing_traj.eval(math.nan)
    with pytest.raises(DomainError):
        invert_profile(crossing_traj).t_of_s(math.nan)
    state = solve_variational(canonical_model, crossing_traj)
    with pytest.raises(DomainError):
        state.eval(math.nan)
    # finite queries at the ends of the ranges still evaluate
    assert crossing_traj.eval(crossing_traj.R)[0] == crossing_traj.u_R
    assert invert_profile(crossing_traj).t_of_s(crossing_traj.alpha) == 0.0
    assert state.eval(state.r0)[0] == state.phi[-1]
