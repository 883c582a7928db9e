"""Command-line front end.

Subcommands: check, integrate, classify, ground-state, dirichlet,
variational, transform, verify.  Exit codes: 0 success, 1 domain or
precondition error, 2 usage/config error, 3 verification-suite failure.
Errors go to stderr as single-line JSON records with code, message,
witness.  --threads is accepted for compatibility; shots run serially.
"""

import argparse
import math
import os
import sys

import numpy as np

from . import model as mdl
from .classify import classify as classify_shot
from .classify import sweep as classify_sweep
from .classify import transition_bracket
from .errors import ConfigError, DomainError, PlshootError, StepFailure
from .reporting import check_out, error_record, json_dumps, write_csv, write_json
from .shoot import IntegratorControls, energy, integrate_ivp
from .transform import load_transform_config, transform_ab_to_K
from .uniqueness import (
    check_suite_args,
    find_ground_state,
    solve_dirichlet,
    verify_suite,
)
from .variational import solve_variational


def _controls(args):
    kw = {}
    if getattr(args, "tol", None) is not None:
        kw["rel_tol"] = args.tol
        kw["abs_tol"] = min(args.tol * 1e-2, 1e-12)
    if getattr(args, "rmax", None) is not None:
        kw["r_max"] = args.rmax
    return IntegratorControls(**kw)


def _trajectory_rows(model, traj):
    for i in range(len(traj.r)):
        E = energy(model, traj, float(traj.r[i]))[0]
        yield [traj.r[i], traj.u[i], traj.du[i], traj.m[i], E]


def cmd_check(args):
    model = mdl.load_model(args.config)
    grid_k = mdl.log_grid(args.grid_lo, args.grid_hi, args.grid_points)
    u_max = args.umax if args.umax is not None else 10.0 * model.u0
    grid_f = np.linspace(model.u0 / 50.0, u_max, 400)
    rep_k = mdl.check_K1(model.weight, model.params, grid_k)
    rep_f = mdl.check_f_hypotheses(model.nonlinearity, model.params, grid_f)
    out = {
        "pass": rep_k.passed and rep_f.passed,
        "K1": rep_k.to_dict(),
        "f": rep_f.to_dict(),
    }
    write_json(args.out, out)
    return 0


def cmd_integrate(args):
    model = mdl.load_model(args.config)
    controls = _controls(args)
    check_out(args.out)
    traj = integrate_ivp(model, args.alpha, controls)
    write_csv(args.out, ["r", "u", "du", "m", "E"], _trajectory_rows(model, traj))
    summary = {
        "alpha": traj.alpha,
        "stop_event": traj.stop_event,
        "R": traj.R,
        "u_R": traj.u_R,
        "du_R": traj.du_R,
        "E_R": energy(model, traj, traj.R)[0],
        "r0": traj.r0,
        "truncated": traj.truncated,
        "tail_r_du": traj.tail_r_du,
        "nodes": int(len(traj.r)),
    }
    if args.out == "-":
        print(json_dumps(summary), file=sys.stderr)
    else:
        sidecar = os.path.splitext(args.out)[0] + ".json"
        write_json(sidecar, summary)
    return 0


_SWEEP_COLUMNS = ["alpha", "kind", "R", "u_R", "du_R", "E_R", "r0",
                  "crossing_measure"]


def _outcome_row(o):
    return [o.alpha, o.kind, o.R, o.u_R, o.du_R, o.E_R, o.r0,
            o.crossing_measure]


def cmd_classify(args):
    model = mdl.load_model(args.config)
    controls = _controls(args)
    if (args.alpha is None) == (args.alpha_range is None):
        raise ConfigError("give exactly one of --alpha / --alpha-range")
    check_out(args.out)
    if args.alpha is not None:
        outcomes = [classify_shot(model, args.alpha, controls)]
    else:
        try:
            lo, hi, count = args.alpha_range.split(":")
            lo, hi, count = float(lo), float(hi), int(count)
        except ValueError as exc:
            raise ConfigError(f"bad --alpha-range {args.alpha_range!r}, "
                              "expected LO:HI:N") from exc
        outcomes = classify_sweep(model, lo, hi, count, controls,
                             spacing=args.spacing, threads=args.threads)
    if args.out:
        write_csv(args.out, _SWEEP_COLUMNS, (_outcome_row(o) for o in outcomes))
    else:
        for o in outcomes:
            print(json_dumps(o.to_record()))
    return 0


def cmd_ground_state(args):
    model = mdl.load_model(args.config)
    controls = _controls(args)
    result = find_ground_state(model, args.bracket[0], args.bracket[1],
                               args.tol_alpha, controls)
    print(json_dumps(result.to_record(), indent=2))
    return 0


def cmd_dirichlet(args):
    model = mdl.load_model(args.config)
    controls = _controls(args)
    check_out(args.out)
    sol = solve_dirichlet(model, args.radius, args.seed, args.dirichlet_tol,
                          controls)
    print(json_dumps(sol.to_record(), indent=2))
    if args.out:
        traj = sol.outcome.trajectory
        write_csv(args.out, ["r", "u", "du", "m", "E"],
                  _trajectory_rows(model, traj))
    return 0


def cmd_variational(args):
    h = args.fd_check
    if h is not None and not (math.isfinite(h) and h > 0.0):
        raise DomainError(f"--fd-check needs a finite H > 0, got {h}")
    model = mdl.load_model(args.config)
    controls = _controls(args)
    check_out(args.out)
    traj = integrate_ivp(model, args.alpha, controls)
    state = solve_variational(model, traj)
    rows = ([state.r[i], state.phi[i], state.dphi[i], state.theta[i]]
            for i in range(len(state.r)))
    write_csv(args.out, ["r", "phi", "dphi", "theta"], rows)
    if h is not None:
        tp = integrate_ivp(model, args.alpha + h, controls)
        tm = integrate_ivp(model, args.alpha - h, controls)
        sel = state.r[(state.r > 0.0) & (state.r <= 0.9 * state.r0)]
        # max |fd - phi| / max |fd|: a pointwise ratio would be set by
        # the samples where phi passes near zero
        err = scale = 0.0
        for r in sel:
            fd = (tp.u_at(r) - tm.u_at(r)) / (2.0 * h)
            err = max(err, abs(fd - state.eval(r)[0]))
            scale = max(scale, abs(fd))
        report = {"alpha": args.alpha, "h": h,
                  "max_rel_error": err / max(scale, 1e-300),
                  "points": int(len(sel))}
        print(json_dumps(report), file=sys.stderr if args.out == "-" else sys.stdout)
    return 0


def cmd_transform(args):
    p, N, pair, nl, grid = load_transform_config(args.config)
    check_out(args.out, args.map_out)
    tm = transform_ab_to_K(pair, p, N, grid, nl)
    ts = np.array([tm.forward_map(float(r)) for r in grid])
    ks = np.array([tm.model.weight.K(float(t)) for t in ts])
    written = mdl.ProblemModel(mdl.Parameters(p, N), mdl.tabulated_weight(ts, ks), nl)
    write_json(args.out, mdl.model_to_config(written))
    if args.map_out:
        rows = ([float(r), float(t), tm.h(float(r)), float(k)]
                for r, t, k in zip(grid, ts, ks))
        write_csv(args.map_out, ["r", "t", "h", "Ktilde"], rows)
    return 0


def cmd_verify(args):
    model = mdl.load_model(args.config)
    check_suite_args(args.delta, args.samples)
    check_out(args.report)
    controls = _controls(args)
    alpha_lo = args.alpha_lo if args.alpha_lo is not None else 1.01 * model.u0
    alpha_hi = args.alpha_hi if args.alpha_hi is not None else 50.0 * model.u0
    outcomes = classify_sweep(model, alpha_lo, alpha_hi, args.sweep_count, controls,
                         threads=args.threads)
    pair = transition_bracket(outcomes)
    if pair is None:
        raise DomainError(
            "no Positive->Crossing transition in the sweep; widen "
            "--alpha-lo/--alpha-hi",
            witness={"kinds": [o.kind for o in outcomes]},
        )
    bracket = find_ground_state(model, pair[0], pair[1], args.tol_alpha,
                                controls)
    report = verify_suite(model, bracket, args.delta, args.samples, controls)
    payload = {
        "bracket": bracket.to_record(),
        "suite": report.to_dict(),
    }
    if args.report:
        write_json(args.report, payload)
    print(json_dumps(payload, indent=2))
    return 0 if report.passed else 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="plshoot",
        description="Shooting-method solver for radial quasilinear equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, tol=True):
        sp.add_argument("--config", required=True, help="model config JSON")
        if tol:
            sp.add_argument("--tol", type=float, default=None,
                            help="integrator relative tolerance")
            sp.add_argument("--rmax", type=float, default=None,
                            help="truncation radius")

    sp = sub.add_parser("check", help="certify the structural hypotheses")
    add_common(sp, tol=False)
    sp.add_argument("--grid-lo", type=float, default=1e-6)
    sp.add_argument("--grid-hi", type=float, default=1e6)
    sp.add_argument("--grid-points", type=int, default=200)
    sp.add_argument("--umax", type=float, default=None)
    sp.add_argument("--out", default="-")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("integrate", help="integrate one shot")
    add_common(sp)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_integrate)

    sp = sub.add_parser("classify", help="classify one shot or a sweep")
    add_common(sp)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--alpha-range", default=None, metavar="LO:HI:N")
    sp.add_argument("--spacing", choices=("geometric", "linear"),
                    default="geometric")
    sp.add_argument("--out", default=None)
    sp.add_argument("--threads", type=int, default=None)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("ground-state", help="bisect the ground-state bracket")
    sp.add_argument("--config", required=True, help="model config JSON")
    sp.add_argument("--bracket", type=float, nargs=2, required=True,
                    metavar=("LO", "HI"))
    sp.add_argument("--tol", dest="tol_alpha", type=float, required=True,
                    help="bracket width to bisect down to")
    sp.set_defaults(func=cmd_ground_state)

    sp = sub.add_parser("dirichlet", help="solve u(R)=0 for given R")
    add_common(sp)
    sp.add_argument("--radius", type=float, required=True)
    sp.add_argument("--seed", type=float, required=True)
    sp.add_argument("--dirichlet-tol", type=float, default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_dirichlet)

    sp = sub.add_parser("variational", help="solve for du/dalpha")
    add_common(sp)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--fd-check", type=float, default=None, metavar="H")
    sp.set_defaults(func=cmd_variational)

    sp = sub.add_parser("transform", help="transform an (a,b) model to K form")
    sp.add_argument("--config", required=True, help="(a,b) model config JSON")
    sp.add_argument("--out", required=True, help="transformed model config")
    sp.add_argument("--map-out", default=None, help="CSV map table r,t,h,Ktilde")
    sp.set_defaults(func=cmd_transform)

    sp = sub.add_parser("verify", help="run the monotone separation suite")
    add_common(sp)
    sp.add_argument("--suite", choices=("all",), default="all")
    sp.add_argument("--report", default=None)
    sp.add_argument("--alpha-lo", type=float, default=None)
    sp.add_argument("--alpha-hi", type=float, default=None)
    sp.add_argument("--sweep-count", type=int, default=64)
    sp.add_argument("--tol-alpha", type=float, default=1e-8)
    sp.add_argument("--delta", type=float, default=1e-2)
    sp.add_argument("--samples", type=int, default=4)
    sp.add_argument("--threads", type=int, default=None)
    sp.set_defaults(func=cmd_verify)

    return parser


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(error_record("config_error", exc.message, exc.witness),
              file=sys.stderr)
        return 2
    except (DomainError, StepFailure) as exc:
        print(error_record(type(exc).__name__, exc.message, exc.witness),
              file=sys.stderr)
        return 1
    except PlshootError as exc:
        print(error_record("internal_error", exc.message, exc.witness),
              file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
