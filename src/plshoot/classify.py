"""Classification of shots into the crossing / ground-state / positive
trichotomy, plus sweeps over initial heights.

A shot alpha is a crossing solution when the profile hits zero with
strictly negative slope at finite radius, positive when it bottoms out
(u' = 0) at a height in (0, u0) or visibly tends to a positive limit,
and a ground-state candidate when both |u| and r|u'| vanish at the stop
radius within tolerance.  Exact ground states are measure zero in alpha
and numerically unattainable, so they are only ever reported as
candidates; the bracketing routine pins them down instead.

The terminal energy sign is the cross-check: E(R) > 0 on crossing
shots, E(R) = F(u(R)) < 0 on positive shots, and E(R, alpha) read at a
crossing shot (the "crossing measure") grows strictly with alpha,
quantifying how far past the ground state the shot is.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PlshootError
from .shoot import (
    DU_HIT_ZERO,
    REACHED_R_MAX,
    U_HIT_ZERO,
    IntegratorControls,
    energy,
    integrate_ivp,
)

CROSSING = "Crossing"
GROUND_CANDIDATE = "GroundCandidate"
POSITIVE = "Positive"
INCONCLUSIVE = "Inconclusive"


@dataclass
class ShotOutcome:
    alpha: float
    kind: str
    R: float
    u_R: float
    du_R: float
    E_R: float
    r0: float | None
    du_r0: float | None
    crossing_measure: float | None
    truncated: bool
    stop_event: str
    trajectory: object = field(default=None, repr=False)

    def to_record(self):
        return {
            "alpha": self.alpha,
            "kind": self.kind,
            "R": self.R,
            "u_R": self.u_R,
            "du_R": self.du_R,
            "E_R": self.E_R,
            "r0": self.r0,
            "du_r0": self.du_r0,
            "crossing_measure": self.crossing_measure,
            "truncated": self.truncated,
            "stop_event": self.stop_event,
        }


def classify(model, alpha, controls=None, keep_trajectory=False):
    """Integrate one shot and map it to Crossing/GroundCandidate/
    Positive/Inconclusive; alpha <= u0 is rejected since such shots can
    never cross zero (their energy is negative from the start)."""
    controls = controls or IntegratorControls()
    if not alpha > model.u0:
        raise DomainError(
            f"alpha={alpha} <= u0={model.u0}: E(r,alpha) < 0 for all r > 0, "
            "so no crossing radius exists",
            witness={"alpha": alpha, "u0": model.u0},
        )
    traj = integrate_ivp(model, alpha, controls)
    # the problem is not scale invariant, but numerical errors are
    # relative to the shot height
    eps = 1e-8 * alpha
    R, u_R, du_R = traj.R, traj.u_R, traj.du_R
    E_R = energy(model, traj, R)[0]

    kind = INCONCLUSIVE
    crossing_measure = None
    if traj.stop_event == U_HIT_ZERO:
        if du_R < -eps:
            kind = CROSSING
            crossing_measure = E_R
        elif abs(u_R) <= eps and R * abs(du_R) <= eps:
            kind = GROUND_CANDIDATE
    elif traj.stop_event == DU_HIT_ZERO:
        if u_R > eps:
            kind = POSITIVE
        elif abs(u_R) <= eps and R * abs(du_R) <= eps:
            kind = GROUND_CANDIDATE
    elif traj.stop_event == REACHED_R_MAX:
        # truncated: fall back on the energy sign (E(R) = F(u(R)) < 0
        # characterizes positive-limit shots even before u' vanishes)
        if E_R < -eps and u_R > eps:
            kind = POSITIVE
        elif abs(u_R) <= eps and R * abs(du_R) <= eps:
            kind = GROUND_CANDIDATE
    # STEP_FAILURE stays Inconclusive

    return ShotOutcome(
        alpha=alpha,
        kind=kind,
        R=R,
        u_R=u_R,
        du_R=du_R,
        E_R=E_R,
        r0=traj.r0,
        du_r0=traj.du_r0,
        crossing_measure=crossing_measure,
        truncated=traj.truncated,
        stop_event=traj.stop_event,
        trajectory=traj if keep_trajectory else None,
    )


def alpha_grid(alpha_lo, alpha_hi, count, spacing="geometric"):
    if count < 2:
        raise DomainError("sweep needs count >= 2")
    if not alpha_lo < alpha_hi:
        raise DomainError("sweep needs alpha_lo < alpha_hi")
    if spacing == "geometric":
        return np.geomspace(alpha_lo, alpha_hi, count)
    if spacing == "linear":
        return np.linspace(alpha_lo, alpha_hi, count)
    raise DomainError(f"unknown sweep spacing {spacing!r}")


def sweep(model, alpha_lo, alpha_hi, count, controls=None, spacing="geometric",
          threads=None, keep_trajectories=False):
    """Classify a grid of shots in order; individual failures are
    recorded as Inconclusive instead of aborting the sweep.

    threads is accepted and ignored: shots run serially, which measured
    faster than a thread pool because the right-hand sides are Python
    code that holds the interpreter lock."""
    controls = controls or IntegratorControls()
    if not alpha_lo > model.u0:
        raise DomainError(f"sweep needs alpha_lo > u0={model.u0}")
    alphas = alpha_grid(alpha_lo, alpha_hi, count, spacing)

    def one(a):
        try:
            return classify(model, float(a), controls,
                            keep_trajectory=keep_trajectories)
        except PlshootError as exc:
            return ShotOutcome(
                alpha=float(a), kind=INCONCLUSIVE, R=float("nan"),
                u_R=float("nan"), du_R=float("nan"), E_R=float("nan"),
                r0=None, du_r0=None, crossing_measure=None, truncated=False,
                stop_event=f"error: {exc.message}",
            )

    return [one(a) for a in alphas]


def transition_bracket(outcomes):
    """The first adjacent (Positive, Crossing) pair in a sweep, relaxed
    to allow one GroundCandidate/Inconclusive outcome in between."""
    for i in range(len(outcomes) - 1):
        a, b = outcomes[i], outcomes[i + 1]
        if a.kind == POSITIVE and b.kind == CROSSING:
            return a.alpha, b.alpha
        if (
            i + 2 < len(outcomes)
            and a.kind == POSITIVE
            and b.kind in (GROUND_CANDIDATE, INCONCLUSIVE)
            and outcomes[i + 2].kind == CROSSING
        ):
            return a.alpha, outcomes[i + 2].alpha
    return None
