"""Ground-state bracketing, Dirichlet inversion, monotone separation suite."""

import math

import numpy as np
import pytest

import plshoot as ps
from plshoot.classify import CROSSING, POSITIVE, classify
from plshoot.errors import DomainError
from plshoot.uniqueness import find_ground_state, solve_dirichlet, verify_suite


def test_bracket_invariant_and_width(canonical_model, canonical_bracket, controls):
    br = canonical_bracket
    assert br.width < 1e-8
    assert br.alpha_lo < br.alpha_hi
    assert classify(canonical_model, br.alpha_lo, controls).kind == POSITIVE
    assert classify(canonical_model, br.alpha_hi, controls).kind == CROSSING


def test_bracket_width_halves_each_iteration(canonical_model, canonical_bracket):
    # plain bisection: iterations ~ log2(initial width / tol)
    br = canonical_bracket
    # the session bracket was bisected from the sweep transition pair
    assert br.iterations <= math.ceil(math.log2(1.0 / 1e-8)) + 8
    assert br.width < 1e-8


def test_bracket_candidate_diagnostics(canonical_model, canonical_bracket):
    cand = canonical_bracket.best_candidate
    assert cand.u_R == pytest.approx(0.0, abs=1e-4)
    assert cand.R * abs(cand.du_R) < 1e-3
    # the near-ground-state shot has I(0) = lim r|u'| -> 0
    _, I0, _ = ps.capital_I(canonical_model, cand.trajectory, cand.trajectory,
                            0.0, with_W=False)
    assert 0.0 <= I0 < 1e-6


def test_bracket_preconditions(canonical_model, controls):
    with pytest.raises(DomainError):
        find_ground_state(canonical_model, 5.0, 2.0, 1e-6, controls)  # swapped
    with pytest.raises(DomainError):
        find_ground_state(canonical_model, 2.0, 3.0, 1e-6, controls)  # hi not N


def test_neighborhoods_after_convergence(canonical_model, canonical_bracket,
                                         controls):
    # (abar, abar+delta) crossing, (abar-delta, abar) positive
    br = canonical_bracket
    delta = 1e-2 * br.midpoint
    for j in (0.25, 1.0):
        assert classify(canonical_model, br.alpha_hi + j * delta,
                        controls).kind == CROSSING
        assert classify(canonical_model, br.alpha_lo - j * delta,
                        controls).kind == POSITIVE


def test_dirichlet_fixed_point(canonical_model, controls):
    seed = 8.0
    out = classify(canonical_model, seed, controls)
    sol = solve_dirichlet(canonical_model, out.R, seed, controls=controls)
    assert sol.alpha == pytest.approx(seed, rel=1e-12)


def test_dirichlet_monotone_targets(canonical_model, controls):
    seed = 8.0
    s1 = solve_dirichlet(canonical_model, 1.5, seed, controls=controls)
    s2 = solve_dirichlet(canonical_model, 0.8, seed, controls=controls)
    assert s1.alpha < s2.alpha  # bigger ball needs smaller height
    for s in (s1, s2):
        traj = s.outcome.trajectory
        assert abs(s.u_at_target) < 1e-8
        assert s.outcome.kind == CROSSING
        interior = traj.u[(traj.r > 0) & (traj.r < s.R_target * 0.999)]
        assert np.all(interior > 0.0)
        assert abs(traj.du[0]) == 0.0  # u'(0) = 0


def test_dirichlet_out_of_range(canonical_model, controls):
    # R(alpha) on the crossing branch is bounded by the ground state's
    # stop radius (~8); far beyond that is unreachable
    with pytest.raises(DomainError):
        solve_dirichlet(canonical_model, 100.0, 8.0, controls=controls)


def test_dirichlet_seed_must_cross(canonical_model, controls):
    with pytest.raises(DomainError):
        solve_dirichlet(canonical_model, 1.5, 2.0, controls=controls)


def test_verify_suite_passes_on_canonical_model(canonical_model,
                                                canonical_bracket, controls):
    report = verify_suite(canonical_model, canonical_bracket, 1e-2, 4, controls)
    for check in report.checks:
        assert check.passed, (check.name, check.witnesses[:3])
    assert report.passed
    assert report.delta_tested == 1e-2
    names = {c.name for c in report.checks}
    assert names == {
        "separation_below_u0",
        "r0_monotone",
        "crossing_measure_increasing",
        "kwong_ratio_decreasing",
        "I_positive",
        "G_shape",
    }


def test_verify_suite_report_schema(canonical_model, canonical_bracket, controls):
    report = verify_suite(canonical_model, canonical_bracket, 1e-2, 2, controls,
                          s_points=8)
    d = report.to_dict()
    assert set(d) == {"pass", "delta_tested", "checks"}
    for c in d["checks"]:
        assert set(c) == {"name", "pass", "witnesses", "info"}
    report.to_json()


@pytest.mark.parametrize(
    "weight",
    [ps.matukuma_weight(1.0), ps.power_log_weight(-0.5, 1.0),
     ps.log_gaussian_weight(0.0)],
    ids=["matukuma1", "power_log", "log_gaussian"],
)
def test_pipeline_on_other_weights(weight, controls):
    """Sweep -> bracket -> separation suite on non-canonical weights
    (the last one has p + r K'/K unbounded at the origin)."""
    from plshoot.classify import sweep, transition_bracket

    m = ps.ProblemModel(ps.Parameters(2.0, 3.0), weight,
                        ps.power_diff_nonlinearity(3.0, 0.5))
    outs = sweep(m, 1.01, 50.0, 24, controls)
    pair = transition_bracket(outs)
    assert pair is not None
    br = find_ground_state(m, pair[0], pair[1], 1e-7, controls)
    assert br.width < 1e-7
    report = verify_suite(m, br, 1e-2, 2, controls, s_points=10)
    for check in report.checks:
        assert check.passed, (weight.family, check.name, check.witnesses[:2])


def test_verify_suite_uses_tightened_bracket_certificates(canonical_model,
                                                          controls):
    """The sweep transition of the canonical model over
    [1.0109568531599273, 50.383872060048304] bisects to an alpha_hi that
    is only certified Crossing under the 10x tighter re-shot; the suite
    must use that certificate instead of re-classifying the endpoint."""
    br = find_ground_state(canonical_model, 4.211883530234606,
                           4.481482789995281, 1e-8, controls)
    assert classify(canonical_model, br.alpha_hi,
                    controls).kind == ps.GROUND_CANDIDATE
    assert br.shot_hi.kind == CROSSING and br.shot_lo.kind == POSITIVE
    report = verify_suite(canonical_model, br, 1e-2, 4)
    assert len(report.checks) == 6
    for check in report.checks:
        assert check.passed, (check.name, check.witnesses[:3])
