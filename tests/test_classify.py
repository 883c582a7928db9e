"""Shot classification and sweeps."""

import numpy as np
import pytest

import plshoot as ps
from plshoot.classify import (
    CROSSING,
    GROUND_CANDIDATE,
    INCONCLUSIVE,
    POSITIVE,
    alpha_grid,
    classify,
    sweep,
    transition_bracket,
)
from plshoot.errors import DomainError, StepFailure


def test_alpha_at_or_below_u0_rejected(canonical_model, controls):
    for a in (0.5, 1.0):
        with pytest.raises(DomainError):
            classify(canonical_model, a, controls)


def test_crossing_outcome(canonical_model, controls):
    out = classify(canonical_model, 5.0, controls)
    assert out.kind == CROSSING
    assert abs(out.u_R) <= 1e-8 * 5.0
    assert out.du_R < 0.0
    assert out.E_R > 0.0
    assert out.crossing_measure == pytest.approx(out.E_R)
    # crossing measure = |u'(R)|^p / (p' K(R))
    p = canonical_model.p
    K_R = canonical_model.weight.K(out.R)
    assert out.crossing_measure == pytest.approx(
        abs(out.du_R) ** p / ((p / (p - 1.0)) * K_R), rel=1e-9
    )


def test_positive_outcome(canonical_model, controls):
    out = classify(canonical_model, 2.0, controls)
    assert out.kind == POSITIVE
    assert 0.0 < out.u_R < canonical_model.u0
    assert abs(out.du_R) <= 1e-8 * 2.0
    assert out.E_R < 0.0
    assert out.E_R == pytest.approx(
        canonical_model.nonlinearity.F(out.u_R), rel=1e-9
    )
    assert out.crossing_measure is None


def test_r0_present_when_descending_below_u0(canonical_model, controls):
    out = classify(canonical_model, 2.0, controls)
    assert out.r0 is not None
    assert out.du_r0 < 0.0


def test_stability_under_tolerance_refinement(canonical_model, controls):
    tighter = controls.with_tolerances(controls.rel_tol / 10.0,
                                       controls.abs_tol / 10.0)
    for a in (2.0, 3.5, 5.0, 12.0):
        k1 = classify(canonical_model, a, controls).kind
        k2 = classify(canonical_model, a, tighter).kind
        assert k1 == k2


def test_sweep_order_and_monotone_kinds(canonical_sweep):
    kinds = [o.kind for o in canonical_sweep]
    alphas = [o.alpha for o in canonical_sweep]
    assert alphas == sorted(alphas)
    # all Positive strictly below all Crossing, at most one other at boundary
    first_cross = kinds.index(CROSSING)
    assert all(k == POSITIVE for k in kinds[: first_cross - 1])
    boundary = kinds[first_cross - 1]
    assert boundary in (POSITIVE, GROUND_CANDIDATE, INCONCLUSIVE)
    assert all(k == CROSSING for k in kinds[first_cross:])


def test_sweep_R_decreasing_on_crossing_side(canonical_sweep):
    cross = [o for o in canonical_sweep if o.kind == CROSSING]
    for a, b in zip(cross[:-1], cross[1:]):
        assert b.R < a.R


def test_sweep_crossing_measure_increasing(canonical_sweep):
    cross = [o for o in canonical_sweep if o.kind == CROSSING]
    for a, b in zip(cross[:-1], cross[1:]):
        assert b.crossing_measure > a.crossing_measure


def test_sweep_r0_non_increasing(canonical_sweep):
    with_r0 = [o for o in canonical_sweep if o.r0 is not None]
    for a, b in zip(with_r0[:-1], with_r0[1:]):
        assert b.r0 <= a.r0 * (1.0 + 1e-10)


def test_transition_bracket_found(canonical_sweep):
    pair = transition_bracket(canonical_sweep)
    assert pair is not None
    lo, hi = pair
    assert 3.0 < lo < hi < 5.0


def test_alpha_grid_spacings():
    g = alpha_grid(2.0, 8.0, 3, "geometric")
    assert g[1] == pytest.approx(4.0)
    l = alpha_grid(2.0, 8.0, 4, "linear")
    assert l[1] == pytest.approx(4.0)
    with pytest.raises(DomainError):
        alpha_grid(2.0, 8.0, 1)
    with pytest.raises(DomainError):
        alpha_grid(8.0, 2.0, 4)
    with pytest.raises(DomainError):
        alpha_grid(2.0, 8.0, 4, "cubic")


def test_sweep_preserves_input_order_and_length(canonical_model, controls):
    outs = sweep(canonical_model, 2.0, 8.0, 5, controls, spacing="linear")
    assert [o.alpha for o in outs] == pytest.approx(np.linspace(2.0, 8.0, 5))


def test_sweep_threads_do_not_change_results(canonical_model, controls):
    a = sweep(canonical_model, 2.0, 8.0, 6, controls, threads=1)
    b = sweep(canonical_model, 2.0, 8.0, 6, controls, threads=4)
    for x, y in zip(a, b):
        assert x.kind == y.kind
        assert x.R == y.R
        assert x.u_R == y.u_R


def test_sweep_records_failures_instead_of_aborting(controls):
    def bad_K(r):
        if r > 2.0:
            raise DomainError("weight poisoned beyond r=2")
        return 1.0

    w = ps.closure_weight(bad_K, lambda r: 0.0, name="poisoned")
    m = ps.ProblemModel(ps.Parameters(2.0, 3.0), w,
                        ps.power_diff_nonlinearity(3.0, 0.5))
    outs = sweep(m, 1.5, 6.0, 4, controls)
    assert len(outs) == 4
    assert any(o.kind == INCONCLUSIVE for o in outs)


def test_extreme_heights_end_in_typed_errors(canonical_model, controls):
    # J2 underflows to 0 at 1e100; f(alpha) overflows at 1e200
    with pytest.raises(StepFailure):
        classify(canonical_model, 1e100, controls)
    with pytest.raises(DomainError):
        classify(canonical_model, 1e200, controls)
    outs = sweep(canonical_model, 1.01, 1e200, 4, controls)
    assert len(outs) == 4
    assert outs[0].kind == POSITIVE
    assert all(o.kind == INCONCLUSIVE and o.stop_event.startswith("error: ")
               for o in outs[1:])


def test_sweep_precondition(canonical_model, controls):
    with pytest.raises(DomainError):
        sweep(canonical_model, 0.5, 5.0, 4, controls)


def test_truncated_positive_by_energy_sign(controls):
    # p=1.5 shot that levels off above u0: truncated at r_max but E < 0
    # certifies a positive limit without waiting for u' = 0
    m = ps.ProblemModel(
        ps.Parameters(1.5, 3.0),
        ps.matukuma_weight(1.0),
        ps.power_diff_nonlinearity(3.0, 0.25),
    )
    out = classify(m, 5.0, controls, keep_trajectory=True)
    assert out.truncated
    assert out.kind == POSITIVE
    assert out.E_R < 0.0
    assert out.r0 is None
    # truncated shots carry the tail diagnostics
    assert out.trajectory.tail_r_du is not None
    assert out.trajectory.tail_r_du >= 0.0
