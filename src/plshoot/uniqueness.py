"""Ground-state bracketing, Dirichlet inversion, and the executable
verification suite for the monotone separation theory.

Since the positive and crossing sets are open and separated by at most
one ground-state height (uniqueness), plain bisection keeps a certified
Positive/Crossing bracket whose width halves each step.  The Dirichlet
problem on a ball of radius R is solved by inverting the strictly
decreasing map alpha -> R(alpha) over the crossing range.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .classify import CROSSING, POSITIVE, classify
from .errors import DomainError
from .model import decrease_violations
from .shoot import IntegratorControls, capital_I, invert_profile
from .variational import eval_G, kwong_ratio

_T_STRICT = 1e-10
_STRICT_MARGIN = 4.0  # expected rise over _T_STRICT for a strict-rise test


@dataclass
class BracketResult:
    """A certified Positive/Crossing bracket.  shot_lo and shot_hi are the
    ShotOutcomes (trajectories attached) that certified the endpoints;
    their trajectories carry the controls used, which may be tighter
    than the caller's.  converged says whether the certified width got
    below tol_alpha; uncertified_steps counts the undecided midpoints
    that moved the working interval without a certificate."""

    shot_lo: object  # certified Positive
    shot_hi: object  # certified Crossing
    iterations: int
    best_candidate: object  # ShotOutcome at the bracket midpoint
    converged: bool
    uncertified_steps: int

    @property
    def alpha_lo(self):
        return self.shot_lo.alpha

    @property
    def alpha_hi(self):
        return self.shot_hi.alpha

    @property
    def width(self):
        return self.alpha_hi - self.alpha_lo

    @property
    def midpoint(self):
        return 0.5 * (self.alpha_lo + self.alpha_hi)

    def to_record(self):
        return {
            "alpha_lo": self.alpha_lo,
            "alpha_hi": self.alpha_hi,
            "width": self.width,
            "iterations": self.iterations,
            "converged": self.converged,
            "uncertified_steps": self.uncertified_steps,
            "candidate_u_R": self.best_candidate.u_R,
            "candidate_R_du_R": self.best_candidate.R * abs(self.best_candidate.du_R),
            "candidate_kind": self.best_candidate.kind,
        }


def _bisect(model, lo, hi, side, controls, tol_alpha, max_iter, done=None):
    """Halve the certified bracket (lo, hi) of two ShotOutcomes.

    side(out) is -1 for lo's side, +1 for hi's side and 0 when undecided.
    An undecided midpoint is shot again with 10x tighter tolerances; if
    still undecided it moves the working lo without a certificate.  Stops
    once the working width is below tol_alpha or not above 1e-15 * a_hi,
    after max_iter midpoints, or when done(midpoint) holds.  Returns lo,
    hi, the last outcome shot (hi if none), iterations, uncertified steps."""
    a_lo, a_hi = lo.alpha, hi.alpha  # working interval
    out = hi
    iterations = uncertified = 0
    while (a_hi - a_lo >= tol_alpha and a_hi - a_lo > 1e-15 * a_hi
           and iterations < max_iter):
        mid = 0.5 * (a_lo + a_hi)
        out = classify(model, mid, controls, keep_trajectory=True)
        s = side(out)
        if s == 0:
            tighter = controls.with_tolerances(
                controls.rel_tol / 10.0, controls.abs_tol / 10.0)
            out = classify(model, mid, tighter, keep_trajectory=True)
            s = side(out)
        iterations += 1
        if s > 0:
            a_hi, hi = mid, out
        elif s < 0:
            a_lo, lo = mid, out
        else:
            a_lo = mid  # conservative: keep hi's certificate
            uncertified += 1
        if done is not None and done(out):
            break
    return lo, hi, out, iterations, uncertified


def find_ground_state(model, alpha_lo, alpha_hi, tol_alpha, controls=None,
                      max_iter=200):
    """Bisect the Positive/Crossing transition down to width tol_alpha.

    Midpoints that classify Inconclusive (or as a candidate) first get a
    10x tolerance tightening; if still undecided they are assigned to
    the Positive side of the working interval without certification, so
    the reported bracket endpoints always carry verified
    classifications, kept with their trajectories in the result."""
    controls = controls or IntegratorControls()
    if not (model.u0 < alpha_lo < alpha_hi):
        raise DomainError("need u0 < alpha_lo < alpha_hi")
    if not tol_alpha > 0.0:
        raise DomainError("tol_alpha must be positive")
    cert_lo = classify(model, alpha_lo, controls, keep_trajectory=True)
    if cert_lo.kind != POSITIVE:
        raise DomainError(
            f"alpha_lo={alpha_lo} classifies {cert_lo.kind}, not Positive")
    cert_hi = classify(model, alpha_hi, controls, keep_trajectory=True)
    if cert_hi.kind != CROSSING:
        raise DomainError(
            f"alpha_hi={alpha_hi} classifies {cert_hi.kind}, not Crossing")

    sides = {POSITIVE: -1, CROSSING: 1}
    cert_lo, cert_hi, _, iterations, uncertified = _bisect(
        model, cert_lo, cert_hi, lambda out: sides.get(out.kind, 0), controls,
        tol_alpha, max_iter)
    best = classify(model, 0.5 * (cert_lo.alpha + cert_hi.alpha), controls,
                    keep_trajectory=True)
    converged = cert_hi.alpha - cert_lo.alpha < tol_alpha
    return BracketResult(cert_lo, cert_hi, iterations, best, converged, uncertified)


@dataclass
class DirichletSolution:
    alpha: float
    R_target: float
    outcome: object  # ShotOutcome with trajectory attached
    u_at_target: float
    converged: bool  # |R - R_target| <= tol; else the bracket collapsed

    def to_record(self):
        return {
            "alpha": self.alpha,
            "R_target": self.R_target,
            "R": self.outcome.R,
            "u_at_target": self.u_at_target,
            "du_R": self.outcome.du_R,
            "converged": self.converged,
        }


def solve_dirichlet(model, R_target, alpha_seed, tol=None, controls=None,
                    max_iter=120):
    """Find alpha with R(alpha) = R_target on the crossing branch, where
    R is strictly decreasing; bisection on alpha keeps the monotone
    bracket R(lo_alpha) > R_target > R(hi_alpha)."""
    controls = controls or IntegratorControls()
    if not (math.isfinite(R_target) and R_target > 0.0):
        raise DomainError(f"R_target must be finite and positive, got {R_target}")
    if tol is None:
        tol = 1e-9 * max(1.0, R_target)
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(
            f"the Dirichlet tolerance must be finite and positive, got {tol}")

    seed = classify(model, alpha_seed, controls, keep_trajectory=True)
    if seed.kind != CROSSING:
        raise DomainError(
            f"alpha_seed={alpha_seed} classifies {seed.kind}, not Crossing")

    def met(out):
        return abs(out.R - R_target) <= tol

    def finish(out):
        traj = out.trajectory
        u_t = traj.u_at(min(R_target, traj.R))
        return DirichletSolution(out.alpha, R_target, out, u_t, met(out))

    if met(seed):
        return finish(seed)

    # larger alpha shrinks R: double away from the seed, or halve
    # towards u0, where the crossing branch ends at the ground state
    down = R_target < seed.R
    near = seed  # the bracket end on the seed's side
    for _ in range(80 if down else 200):
        a = 2.0 * near.alpha if down else model.u0 + 0.5 * (near.alpha - model.u0)
        out = classify(model, a, controls, keep_trajectory=True)
        if out.kind != CROSSING:
            raise DomainError(
                f"doubling left the crossing branch at alpha={a}" if down else
                f"R_target={R_target} exceeds the supremum of R on the "
                f"crossing branch (left it at alpha={a}, kind={out.kind})",
                witness={"alpha": a, "kind": out.kind},
            )
        if (out.R < R_target) == down:
            break
        near = out
    else:
        raise DomainError(f"could not bracket R_target={R_target}")

    lo, hi = (near, out) if down else (out, near)
    _, _, out, _, _ = _bisect(
        model, lo, hi,
        lambda o: 0 if o.kind != CROSSING else (-1 if o.R > R_target else 1),
        controls, 0.0, max_iter, done=lambda o: o.kind != CROSSING or met(o))
    if out.kind != CROSSING:
        raise DomainError(
            f"bisection midpoint alpha={out.alpha} left the crossing branch "
            f"({out.kind}); R_target may exceed the reachable range")
    return finish(out)


@dataclass
class SuiteCheck:
    name: str
    passed: bool
    witnesses: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "name": self.name,
            "pass": self.passed,
            "witnesses": self.witnesses,
            "info": self.info,
        }


@dataclass
class SuiteReport:
    checks: list
    delta_tested: float

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_dict(self):
        return {
            "pass": self.passed,
            "delta_tested": self.delta_tested,
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_json(self, indent=None):
        return json.dumps(self.to_dict(), indent=indent)


def _s_grid(u0, eps_rel, points):
    return np.geomspace(eps_rel * u0, 0.99 * u0, points)


def check_suite_args(delta_rel, samples):
    """verify_suite's argument check, which raises before any shot."""
    if not samples >= 1:
        raise DomainError(f"verify_suite needs samples >= 1, got {samples}")
    if not (math.isfinite(delta_rel) and delta_rel > 0.0):
        raise DomainError(
            f"verify_suite needs a finite delta_rel > 0, got {delta_rel}")


def _strict_pairs(alphas, values):
    """Which neighbouring pairs of values (at increasing alphas) are
    tested for a strict rise: all but those whose expected rise (the
    secant slope over all samples times the pair's alpha gap) is
    positive but at most _STRICT_MARGIN times the tolerance
    _T_STRICT (1 + |value|), too small to show even where the law holds."""
    a = np.asarray(alphas, dtype=float)
    v = np.asarray(values, dtype=float)
    if len(a) < 2:
        return np.zeros(0, dtype=bool)
    expected = (v[-1] - v[0]) / (a[-1] - a[0]) * np.diff(a)
    small = expected <= _STRICT_MARGIN * _T_STRICT * (1.0 + np.abs(v[:-1]))
    return ~((expected > 0.0) & small)


def verify_suite(model, bracket, delta_rel=1e-2, samples=4, controls=None,
                 s_points=20):
    """Sample heights on both sides of a converged bracket (within
    delta_rel of the candidate ground state) and check every monotone
    separation statement:

      (a) below u0, in the height parametrization s: crossing shots with
          larger alpha sit at smaller radius t(s) with larger t|u'|,
          down to s=0 (radius and slope of the zero crossing);
      (b) r0(alpha) non-increasing and r0|u'(r0)| strictly increasing
          (a pair too close in alpha to show a rise above the tolerance
          must only not fall; see _strict_pairs);
      (c) the crossing measure E(R) strictly increasing on the crossing side;
      (d) Kwong ratio r u'/u strictly decreasing on (0, r0) at the
          bracket endpoints;
      (e) the comparison integrand I(s, .) > 0 on each crossing shot;
      (f) G(s) increasing from -(n-p) at u0 with a single sign change.

    The endpoint shots are the bracket's own certificates; they are not
    shot again.
    Failures never raise; each check carries its witnesses.
    """
    controls = controls or IntegratorControls()
    check_suite_args(delta_rel, samples)
    u0 = model.u0
    abar = bracket.midpoint
    step = delta_rel * abar / samples

    out_lo, out_hi = bracket.shot_lo, bracket.shot_hi
    n_samples = [
        classify(model, bracket.alpha_hi + step * j, controls, keep_trajectory=True)
        for j in range(1, samples + 1)
    ]
    p_samples = [
        classify(model, a, controls, keep_trajectory=True)
        for j in range(1, samples + 1)
        if (a := bracket.alpha_lo - step * j) > u0
    ]

    checks = []
    sgrid = _s_grid(u0, 1e-3, s_points)

    # (a) separation in the s parametrization against the crossing endpoint
    wit = []
    ref_traj = out_hi.trajectory
    ref_inv = invert_profile(ref_traj)
    ref_t = {s: ref_inv.t_of_s(s) for s in sgrid}
    for out in n_samples:
        if out.kind != CROSSING:
            wit.append({"alpha": out.alpha, "reason": f"classified {out.kind}"})
            continue
        inv = invert_profile(out.trajectory)
        for s in sgrid:
            t_s = inv.t_of_s(s)
            t_r = ref_t[s]
            slope = t_s * abs(out.trajectory.du_at(t_s))
            slope_r = t_r * abs(ref_traj.du_at(t_r))
            if not (t_s < t_r and slope > slope_r):
                wit.append(
                    {"alpha": out.alpha, "s": float(s), "t": t_s, "t_ref": t_r,
                     "t_du": slope, "t_du_ref": slope_r}
                )
        # s = 0 endpoint: compare the zero crossings themselves
        if not (out.R < out_hi.R
                and out.R * abs(out.du_R) > out_hi.R * abs(out_hi.du_R)):
            wit.append({"alpha": out.alpha, "s": 0.0, "R": out.R,
                        "R_ref": out_hi.R})
    checks.append(SuiteCheck("separation_below_u0", not wit, wit,
                             {"s_points": s_points}))

    # (b) r0 monotonicity across all sampled heights
    ordered = sorted(
        p_samples + [out_lo, out_hi] + n_samples, key=lambda o: o.alpha)
    reached = [o for o in ordered if o.r0 is not None]
    r0 = [o.r0 for o in reached]
    r0du = [o.r0 * abs(o.du_r0) for o in reached]
    rises = decrease_violations(r0, _T_STRICT)
    # r0|u'| must rise by more than _T_STRICT (1 + r0|u'|) on a strict
    # pair, and fall by no more than that on any other
    strict = _strict_pairs([o.alpha for o in reached], r0du)
    falls = decrease_violations(np.negative(r0du),
                                np.where(strict, -_T_STRICT, _T_STRICT))
    wit = []
    for i, out in enumerate(reached[1:]):
        if i in rises:
            wit.append({"alpha": out.alpha, "r0": out.r0,
                        "r0_prev": r0[i], "violated": "r0 non-increasing"})
        if i in falls:
            wit.append({"alpha": out.alpha, "r0_du": r0du[i + 1],
                        "r0_du_prev": r0du[i],
                        "violated": "r0|u'(r0)| increasing"})
    checks.append(SuiteCheck("r0_monotone", not wit, wit,
                             {"alphas": [o.alpha for o in ordered]}))

    # (c) crossing measure strictly increasing with alpha
    crossing = [out_hi] + [o for o in n_samples if o.kind == CROSSING]
    cm = [o.crossing_measure for o in crossing]
    wit = [{"alpha_lo": crossing[i].alpha, "alpha_hi": crossing[i + 1].alpha,
            "cm_lo": cm[i], "cm_hi": cm[i + 1]}
           for i in decrease_violations(np.negative(cm), 0.0)]
    checks.append(SuiteCheck("crossing_measure_increasing", not wit, wit))

    # (d) Kwong ratio at the bracket endpoints
    wit = []
    for out in (out_lo, out_hi):
        ok, w, _, _ = kwong_ratio(out.trajectory)
        if not ok:
            w["alpha"] = out.alpha
            wit.append(w)
    checks.append(SuiteCheck("kwong_ratio_decreasing", not wit, wit))

    # (e) I(s, .) > 0 on each crossing shot, self-referenced
    wit = []
    for out in crossing:
        for s in sgrid:
            _, I, _ = capital_I(model, out.trajectory, out.trajectory, s,
                                with_W=False)
            if not I > 0.0:
                wit.append({"alpha": out.alpha, "s": float(s), "I": I})
    checks.append(SuiteCheck("I_positive", not wit, wit))

    # (f) shape of G on the crossing endpoint
    wit = []
    n, p = model.n, model.p
    s_lo = u0 * (1.0 + 1e-4)
    gs = np.geomspace(s_lo, out_hi.alpha * 0.999, 40)
    gvals = np.array([eval_G(model, ref_traj, s) for s in gs])
    if abs(gvals[0] + (n - p)) > 2e-2 * (n - p):
        wit.append({"s": float(gs[0]), "G": float(gvals[0]),
                    "expected": -(n - p)})
    i = (decrease_violations(-gvals, tol=_T_STRICT) or [None])[0]
    if i is not None:
        wit.append({"s_lo": float(gs[i]), "s_hi": float(gs[i + 1]),
                    "G_lo": float(gvals[i]), "G_hi": float(gvals[i + 1]),
                    "violated": "G increasing"})
    signs = np.sign(gvals)
    changes = int(np.sum(signs[:-1] * signs[1:] < 0))
    if changes != 1:
        wit.append({"sign_changes": changes, "expected": 1})
    checks.append(SuiteCheck("G_shape", not wit, wit,
                             {"G_at_u0": float(gvals[0]), "sign_changes": changes}))

    return SuiteReport(checks, delta_rel)
