"""Metamorphic checks: the radial equation's scaling symmetry as an
oracle for the shooting scheme.

If u solves (r^{n-1} |u'|^{p-2} u')' = -r^{n-1} K(r) f(u), then
v(r) = u(lam r) solves the same equation with K_lam(r) = lam^p K(lam r).
So the ground-state height is unchanged, the crossing radius of a shot
scales as R/lam, and the Dirichlet height for K_lam on the ball of
radius R/lam equals the height for K on the ball of radius R.  The
scaled weight reaches the solver through closure_weight, so it shares
no family code with the base weight.
"""

import pytest

import plshoot as ps
from plshoot.uniqueness import find_ground_state, solve_dirichlet

TOL_ALPHA = 1e-8

# weight, ground-state bracket, Dirichlet radius and seed height, and
# the scale factor; one factor per model keeps the file under 15 s, and
# the two factors cover a shrink and a stretch
CASES = {
    "matukuma": (ps.matukuma_weight(2.0), (4.25, 4.35), 1.2, 5.0, 3.0),
    "log_gaussian": (ps.log_gaussian_weight(0.0), (3.45, 3.55), 1.2, 5.0, 0.1),
}


def scaled(model, lam):
    w, p = model.weight, model.p
    weight = ps.closure_weight(
        lambda r: lam**p * w.K(lam * r),
        lambda r: lam ** (p + 1.0) * w.dK(lam * r),
        name=f"{w.family}_scaled",
        g_unbounded_at_zero=w.g_unbounded_at_zero,
    )
    return ps.ProblemModel(model.params, weight, model.nonlinearity)


def invariants(model, bracket, R_target, seed, lam, controls):
    """(alpha*, lam * R(alpha=5), Dirichlet alpha at R_target/lam)."""
    gs = find_ground_state(model, *bracket, TOL_ALPHA, controls)
    R = ps.integrate_ivp(model, 5.0, controls).R
    dirichlet = solve_dirichlet(model, R_target / lam, seed, controls=controls)
    return gs.midpoint, lam * R, dirichlet.alpha


@pytest.mark.parametrize("name", sorted(CASES))
def test_radial_scaling(name, controls):
    weight, bracket, R_target, seed, lam = CASES[name]
    base = ps.ProblemModel(ps.Parameters(2.0, 3.0), weight,
                           ps.power_diff_nonlinearity(3.0, 0.5))
    a_star, R, a_dir = invariants(base, bracket, R_target, seed, 1.0, controls)
    a_star_l, R_l, a_dir_l = invariants(scaled(base, lam), bracket, R_target,
                                        seed, lam, controls)
    # one bisection step (TOL_ALPHA wide) may flip
    assert abs(a_star_l - a_star) <= 2.0 * TOL_ALPHA
    assert abs(R_l - R) <= 1e-8 * R
    assert abs(a_dir_l - a_dir) <= 1e-8 * a_dir
