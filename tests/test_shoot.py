"""Integrator, startup, trajectory functionals."""

import math

import numpy as np
import pytest

import plshoot as ps
from plshoot.errors import DomainError
from plshoot.quadrature import LogLogTable
from plshoot.shoot import (
    DU_HIT_ZERO,
    REACHED_R_MAX,
    U_HIT_ZERO,
    origin_startup,
    radius_for_arclength,
    transformed_arclength,
)


def make_model(p, n, weight, q1, q2):
    return ps.ProblemModel(
        ps.Parameters(p, n), weight, ps.power_diff_nonlinearity(q1, q2)
    )


# --- origin startup ---------------------------------------------------------


def test_startup_frozen_closed_form_p2(constant_weight):
    # K=1, p=2: m(r1) = -f(a) r1^n / n, u(r1) = a - f(a) r1^2 / (2n)
    m = make_model(2.0, 3.0, constant_weight, 3.0, 0.5)
    a, r1 = 2.0, 1e-4
    fa = m.nonlinearity.f(a)
    prof = origin_startup(m, a, r1, refine=False)
    m_exact = -fa * r1**3 / 3.0
    u_exact = a - fa * r1**2 / 6.0
    assert abs(prof.m1 - m_exact) <= 1e-12 * abs(m_exact)
    assert abs(prof.u1 - u_exact) <= 1e-12 * a


def test_startup_frozen_closed_form_general_p(constant_weight):
    # K=1: |m| = f a r^n/n, u = a - (fa/n)^{1/(p-1)} r^{p'} (p-1)/p
    p, n = 3.0, 4.0
    m = make_model(p, n, constant_weight, 3.0, 1.0)
    a, r1 = 2.0, 1e-4
    fa = m.nonlinearity.f(a)
    prof = origin_startup(m, a, r1, refine=False)
    e = 1.0 / (p - 1.0)
    u_exact = a - (fa / n) ** e * r1 ** (1.0 + e) / (1.0 + e)
    assert abs(prof.m1 - (-fa * r1**n / n)) <= 1e-12 * fa * r1**n / n
    assert abs(prof.u1 - u_exact) <= 1e-12 * a


def test_startup_singular_weight_closed_form():
    # K = r^theta with theta in (-p, 0): m(r1) = -f(a) r1^{n+theta}/(n+theta)
    theta = -1.0
    w = ps.closure_weight(lambda r: r**theta, lambda r: theta * r ** (theta - 1.0))
    m = make_model(2.0, 3.0, w, 3.0, 0.5)
    a, r1 = 1.5, 1e-4
    fa = m.nonlinearity.f(a)
    prof = origin_startup(m, a, r1, refine=False)
    m_exact = -fa * r1 ** (3.0 + theta) / (3.0 + theta)
    assert abs(prof.m1 - m_exact) <= 1e-11 * abs(m_exact)


def test_startup_limits_r1_to_zero(canonical_model):
    a = 3.0
    prev_dev = None
    for r1 in [1e-3, 1e-4, 1e-5, 1e-6]:
        prof = origin_startup(canonical_model, a, r1)
        dev = a - prof.u1
        assert dev > 0.0
        assert abs(prof.m1) > 0.0
        if prev_dev is not None:
            assert dev < prev_dev
            assert abs(prof.m1) < prev_m
        prev_dev, prev_m = dev, abs(prof.m1)
    assert prev_dev < 1e-11 * a


@pytest.mark.parametrize(
    "weight",
    [ps.matukuma_weight(2.0), ps.power_log_weight(-1.5, 1.0),
     ps.log_gaussian_weight(0.0)],
)
def test_startup_flux_bound_in_t_units(weight):
    # |phi_p(v_t)| = |m|/q <= f(alpha) t near the origin
    m = make_model(2.0, 3.0, weight, 3.0, 0.5)
    a = 4.0
    r1 = radius_for_arclength(m, 1e-4)
    prof = origin_startup(m, a, r1)
    assert prof.m1 < 0.0
    q1 = r1**2 * m.weight.K(r1) ** 0.5
    assert abs(prof.m1) / q1 <= m.nonlinearity.f(a) * prof.t1 * (1.0 + 1e-9)


def test_loglog_table_reproduces_a_power_law():
    xs = np.geomspace(1e-3, 1.0, 25)
    table = LogLogTable(xs, 3.0 * xs**2.5)
    inside = np.geomspace(1e-3, 1.0, 97)
    below = np.geomspace(1e-6, 1e-3, 13)  # three decades below the samples
    for x in np.concatenate((inside, below)):
        assert table(x) == pytest.approx(3.0 * x**2.5, rel=1e-13, abs=0.0)


@pytest.mark.parametrize(
    "weight", [ps.matukuma_weight(2.0), ps.log_gaussian_weight(0.0)],
    ids=["canonical", "log_gaussian"],
)
def test_startup_profile_continuous_across_table_head(weight):
    # the profile switches from the tables to their power-law
    # continuation at r1 * 1e-6, the first startup grid point
    m = make_model(2.0, 3.0, weight, 3.0, 0.5)
    prof = origin_startup(m, 5.0, radius_for_arclength(m, 1e-4))
    head = prof.r_grid[1]
    lo, hi = head * (1.0 - 1e-14), head * (1.0 + 1e-14)
    assert math.log(lo) < math.log(head)
    below, above = prof.eval(m, lo), prof.eval(m, hi)
    for b, a in zip(below, above):
        assert b == pytest.approx(a, rel=1e-12, abs=0.0)
    assert prof.alpha - below[0] == pytest.approx(prof.alpha - above[0], rel=1e-12)


def test_radius_for_arclength_consistency(canonical_model):
    r1 = radius_for_arclength(canonical_model, 1e-4)
    assert transformed_arclength(canonical_model, r1) == pytest.approx(1e-4, rel=1e-12)


# --- integration ------------------------------------------------------------


def test_alpha_below_u0_rejected(canonical_model, controls):
    with pytest.raises(DomainError):
        ps.integrate_ivp(canonical_model, 0.5, controls)
    with pytest.raises(DomainError):
        ps.integrate_ivp(canonical_model, 1.0, controls)


def test_alpha_slightly_above_u0_never_crosses(canonical_model, controls):
    # E(0) = F(alpha) < 0 near u0, so the shot cannot reach zero
    traj = ps.integrate_ivp(canonical_model, 1.0 + 1e-6, controls)
    assert traj.stop_event in (DU_HIT_ZERO, REACHED_R_MAX)
    assert traj.u_R > 0.9


def test_node_state_consistency(crossing_traj, canonical_model):
    n, p = canonical_model.n, canonical_model.p
    r, du, m = crossing_traj.r, crossing_traj.du, crossing_traj.m
    for i in range(1, len(r)):
        lhs = m[i]
        rhs = r[i] ** (n - 1.0) * abs(du[i]) ** (p - 2.0) * du[i]
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_profile_monotone_until_event(crossing_traj):
    u, du = crossing_traj.u, crossing_traj.du
    assert np.all(np.diff(u) < 0.0)
    assert np.all(du[1:-1] < 0.0)


@pytest.mark.parametrize("alpha", [2.0, 5.0, 20.0])
def test_flux_residual_within_budget(canonical_model, controls, alpha):
    traj = ps.integrate_ivp(canonical_model, alpha, controls)
    idx = np.linspace(1, len(traj.r) - 1, 10).astype(int)
    for i in idx:
        res = ps.flux_residual(canonical_model, traj, float(traj.r[i]))
        assert abs(res) / (1.0 + abs(traj.m[i])) < 100.0 * controls.rel_tol


def test_flux_residual_other_exponents(p_family_cases, controls):
    for model, alpha in p_family_cases:
        traj = ps.integrate_ivp(model, alpha, controls)
        idx = np.linspace(1, len(traj.r) - 1, 6).astype(int)
        for i in idx:
            res = ps.flux_residual(model, traj, float(traj.r[i]))
            assert abs(res) / (1.0 + abs(traj.m[i])) < 100.0 * controls.rel_tol


def test_log_gaussian_shot_flux_residual(controls):
    m = make_model(2.0, 3.0, ps.log_gaussian_weight(0.0), 3.0, 0.5)
    assert m.weight.g_unbounded_at_zero
    traj = ps.integrate_ivp(m, 5.0, controls)
    assert traj.stop_event == U_HIT_ZERO
    i = len(traj.r) // 2
    res = ps.flux_residual(m, traj, float(traj.r[i]))
    assert abs(res) / (1.0 + abs(traj.m[i])) < 100.0 * controls.rel_tol


def test_halving_tolerance_budget(canonical_model):
    # u at a fixed checkpoint moves by less than the coarser budget
    r_star = 1.0
    coarse = ps.integrate_ivp(
        canonical_model, 5.0, ps.IntegratorControls(rel_tol=1e-6, abs_tol=1e-9)
    )
    fine = ps.integrate_ivp(
        canonical_model, 5.0, ps.IntegratorControls(rel_tol=5e-7, abs_tol=1e-9)
    )
    assert abs(coarse.u_at(r_star) - fine.u_at(r_star)) < 1e-6 * 5.0


def test_u_at_stop_below_u0_for_event_shots(canonical_sweep, canonical_model):
    for out in canonical_sweep:
        if not out.truncated:
            assert out.u_R <= canonical_model.u0 + 1e-9


def test_eval_outside_range_raises(crossing_traj):
    with pytest.raises(DomainError):
        crossing_traj.eval(crossing_traj.R * 1.5)
    with pytest.raises(DomainError):
        crossing_traj.eval(-0.1)


# --- energy -----------------------------------------------------------------


def test_energy_origin_value(canonical_model, crossing_traj):
    E0, dE0 = ps.energy(canonical_model, crossing_traj, 0.0)
    assert E0 == pytest.approx(canonical_model.nonlinearity.F(5.0), rel=1e-14)
    assert dE0 == 0.0


def test_energy_positive_on_crossing_shot(canonical_model, crossing_traj):
    for r in np.linspace(0.05, crossing_traj.R * 0.999, 25):
        E, dE = ps.energy(canonical_model, crossing_traj, float(r))
        assert E > 0.0
        assert dE <= 0.0


def test_energy_monotone_along_nodes(canonical_model, crossing_traj, positive_traj):
    for traj in (crossing_traj, positive_traj):
        E = np.array([ps.energy(canonical_model, traj, float(r))[0] for r in traj.r])
        budget = 1e-8 * (1.0 + abs(E[0]))
        assert np.all(np.diff(E) <= budget)


def test_terminal_energy_signs(canonical_model, crossing_traj, positive_traj):
    E_cross = ps.energy(canonical_model, crossing_traj, crossing_traj.R)[0]
    assert E_cross > 0.0
    E_pos = ps.energy(canonical_model, positive_traj, positive_traj.R)[0]
    F_uR = canonical_model.nonlinearity.F(positive_traj.u_R)
    assert E_pos < 0.0
    assert E_pos == pytest.approx(F_uR, rel=1e-10, abs=1e-12)


# --- inverse profile --------------------------------------------------------


def test_invert_profile_nodes_and_endpoints(crossing_traj):
    inv = ps.invert_profile(crossing_traj)
    assert inv.t_of_s(crossing_traj.alpha) == 0.0
    for i in range(0, len(crossing_traj.r), 5):
        assert inv.t_of_s(float(crossing_traj.u[i])) == pytest.approx(
            float(crossing_traj.r[i]), abs=1e-12, rel=1e-10
        )


def test_invert_profile_midsegment_round_trip(crossing_traj):
    inv = ps.invert_profile(crossing_traj)
    alpha = crossing_traj.alpha
    rng = np.random.default_rng(3)
    for s in rng.uniform(0.01, alpha * 0.99, 40):
        t = inv.t_of_s(float(s))
        assert abs(crossing_traj.u_at(t) - s) < 1e-8 * alpha


def test_invert_profile_clamps(crossing_traj):
    inv = ps.invert_profile(crossing_traj)
    assert inv.t_of_s(crossing_traj.alpha * 2.0) == 0.0
    assert inv.t_of_s(-1.0) == pytest.approx(crossing_traj.R, rel=1e-12)


# --- comparison functionals -------------------------------------------------


def test_capital_I_at_zero_on_crossing_shot(canonical_model, crossing_traj):
    # Fbar(0) = 0, so I(0) = R^p |u'(R)|^p / p'
    fb, I, W = ps.capital_I(canonical_model, crossing_traj, crossing_traj, 0.0)
    p = canonical_model.p
    expected = crossing_traj.R**p * abs(crossing_traj.du_R) ** p / (p / (p - 1.0))
    assert fb == 0.0
    assert I == pytest.approx(expected, rel=1e-12)
    assert I >= 0.0
    assert W == pytest.approx(I ** (1.0 / p), rel=1e-12)


def test_capital_I_positive_below_u0(canonical_model, crossing_traj):
    for s in np.geomspace(1e-3, 1.0, 15):
        _, I, _ = ps.capital_I(canonical_model, crossing_traj, crossing_traj,
                               float(s), with_W=False)
        assert I > 0.0


def test_capital_I_derivative_in_s(canonical_model, crossing_traj):
    # dI/ds at the reference shot = (n-p) t1^{p-1} |u1'(t1)|^{p-1}
    n, p = canonical_model.n, canonical_model.p
    inv = ps.invert_profile(crossing_traj)
    for s in [0.2, 0.5, 0.8]:
        h = 1e-6
        Ip = ps.capital_I(canonical_model, crossing_traj, crossing_traj, s + h,
                          with_W=False)[1]
        Im = ps.capital_I(canonical_model, crossing_traj, crossing_traj, s - h,
                          with_W=False)[1]
        fd = (Ip - Im) / (2 * h)
        t1 = inv.t_of_s(s)
        du1 = crossing_traj.du_at(t1)
        expected = (n - p) * t1 ** (p - 1.0) * abs(du1) ** (p - 1.0)
        assert fd == pytest.approx(expected, rel=1e-5)
        assert expected > 0.0


def test_capital_W_domain_error(canonical_model, crossing_traj, positive_traj):
    # deep positive shot: t(s) sits at a flat tail, I < 0 near its bottom
    s = positive_traj.u_R + 1e-3
    _, I, W = ps.capital_I(canonical_model, crossing_traj, positive_traj, s,
                           with_W=False)
    assert I < 0.0
    assert W is None
    with pytest.raises(DomainError):
        ps.capital_I(canonical_model, crossing_traj, positive_traj, s)


def test_capital_I_domain_checks(canonical_model, crossing_traj):
    with pytest.raises(DomainError):
        ps.capital_I(canonical_model, crossing_traj, crossing_traj, 2.0)
