"""One bisection serves the ground state and the Dirichlet radius: it
stops at the 1e-15 relative floor, and an undecided midpoint is shot
again with tighter tolerances before it counts."""

import dataclasses

import pytest

from plshoot import uniqueness
from plshoot.classify import INCONCLUSIVE
from plshoot.errors import DomainError
from plshoot.uniqueness import find_ground_state, solve_dirichlet


def _counting(monkeypatch, mark_undecided=()):
    """Patch uniqueness.classify to log (alpha, rel_tol) per call and
    report the heights in mark_undecided as Inconclusive."""
    real = uniqueness.classify
    calls = []

    def spy(model, alpha, controls, *args, **kwargs):
        calls.append((alpha, controls.rel_tol))
        out = real(model, alpha, controls, *args, **kwargs)
        return (dataclasses.replace(out, kind=INCONCLUSIVE)
                if alpha in mark_undecided else out)

    monkeypatch.setattr(uniqueness, "classify", spy)
    return calls


def test_tolerance_below_the_floor_stops_at_the_floor(canonical_model, controls,
                                                      monkeypatch):
    # a width of 1e-20 is below double spacing at alpha ~ 4.3; the
    # bisection stops once the bracket is within 1e-15 relative
    calls = _counting(monkeypatch)
    br = find_ground_state(canonical_model, 3.0, 6.0, 1e-20, controls)
    assert br.iterations <= 60
    assert len(calls) <= 80
    assert br.converged is False
    assert 0.0 < br.width <= 1e-10


def test_dirichlet_undecided_midpoint_is_shot_again(canonical_model, controls,
                                                     monkeypatch):
    # R(8) ~ 0.99 > 0.8 > R(16) ~ 0.44: the seed 8 doubles once to 16,
    # so the first bisection midpoint is 12
    calls = _counting(monkeypatch, mark_undecided=(12.0,))
    with pytest.raises(DomainError, match="left the crossing branch"):
        solve_dirichlet(canonical_model, 0.8, 8.0, controls=controls)
    assert [a for a, _ in calls] == [8.0, 16.0, 12.0, 12.0]
    assert calls[3][1] == pytest.approx(controls.rel_tol / 10.0)
