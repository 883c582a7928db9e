"""Shared fixtures.  The canonical desk-scale model is p=2, n=3,
Matukuma sigma=2, f(u) = u^3 - sqrt(u) (u0 = 1); expensive artifacts
(sweeps, the ground-state bracket) are computed once per session."""

import pytest

import plshoot as ps
from plshoot.classify import sweep, transition_bracket
from plshoot.uniqueness import find_ground_state


@pytest.fixture(scope="session")
def controls():
    return ps.IntegratorControls()


@pytest.fixture(scope="session")
def canonical_model():
    return ps.ProblemModel(
        ps.Parameters(2.0, 3.0),
        ps.matukuma_weight(2.0),
        ps.power_diff_nonlinearity(3.0, 0.5),
    )


@pytest.fixture(scope="session")
def crossing_traj(canonical_model, controls):
    """A comfortably crossing shot (alpha = 5 > ground state ~ 4.29)."""
    return ps.integrate_ivp(canonical_model, 5.0, controls)


@pytest.fixture(scope="session")
def positive_traj(canonical_model, controls):
    """A comfortably positive shot (alpha = 2)."""
    return ps.integrate_ivp(canonical_model, 2.0, controls)


@pytest.fixture(scope="session")
def canonical_sweep(canonical_model, controls):
    """64 shots over [1.01, 50], the acceptance sweep."""
    return sweep(canonical_model, 1.01, 50.0, 64, controls)


@pytest.fixture(scope="session")
def canonical_bracket(canonical_model, canonical_sweep, controls):
    pair = transition_bracket(canonical_sweep)
    assert pair is not None, "canonical model must have a P->N transition"
    return find_ground_state(canonical_model, pair[0], pair[1], 1e-8, controls)


@pytest.fixture(scope="session")
def p_family_cases():
    """(model, alpha) per exponent p in {1.5, 2, 3}, each with an
    admissible nonlinearity and a shot that descends below u0."""
    return [
        (
            ps.ProblemModel(
                ps.Parameters(1.5, 3.0),
                ps.matukuma_weight(1.0),
                ps.power_diff_nonlinearity(3.0, 0.25),
            ),
            3.0,
        ),
        (
            ps.ProblemModel(
                ps.Parameters(2.0, 3.0),
                ps.matukuma_weight(2.0),
                ps.power_diff_nonlinearity(3.0, 0.5),
            ),
            5.0,
        ),
        (
            ps.ProblemModel(
                ps.Parameters(3.0, 4.0),
                ps.matukuma_weight(1.0),
                ps.power_diff_nonlinearity(3.0, 1.0),
            ),
            5.0,
        ),
    ]


@pytest.fixture()
def constant_weight():
    """K identically 1 through the closure interface."""
    return ps.closure_weight(lambda r: 1.0, lambda r: 0.0, name="unit")
