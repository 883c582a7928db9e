"""One benchmark process: set up a workload's models, then (unless
--setup-only) run the workload in a closed loop for a fixed time.

Talks to run.py over stdout with two lines:

    READY <json>   set-up finished; carries the monotonic clock reading
    RESULT <json>  metrics, correctness ledger and run metadata

Everything else (warnings, tracebacks of failed operations) goes to
stderr.  plshoot is imported from the checkout's own src/ directory.
"""

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np
import scipy
from scipy.integrate import solve_ivp
from tracer import (COUNT_METRICS, Tracer, high_percentile, op_layer_metrics,
                    setup_layer_metrics)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODELS = HERE / "models"
OUT = HERE / "out"

WORKLOADS = ("verify-r", "derive-tab")
INPUTS = 64  # operation inputs per seed; a run cycles through them
GOLDEN = 0.6180339887498949

# verify-r: the calls `plshoot verify` makes, with its defaults
SWEEP_COUNT = 64
TOL_ALPHA = 1e-8
SUITE_DELTA = 1e-2
SUITE_SAMPLES = 4
VERIFY_MODEL = "canonical"
# midpoint of the converged bracket, pinned from earlier runs
REFERENCE_GROUND_STATE = 4.28848671
REFERENCE_TOL = 1e-7
WARMUP_ALPHA_VERIFY = 77.7  # above every height a verify sweep uses

# derive-tab
DIRICHLET_SEED = 8.0
DIRICHLET_R = (0.8, 1.5)
DIRICHLET_U_TOL = 1e-8
DIRICHLET_MATCH_REL = 1e-6
FD_REL = 1e-3
# (model config, test height); heights are jittered by +-2% per operation
VARIATIONAL_CASES = (
    ("matukuma_p15", 3.0),
    ("canonical", 5.0),
    ("matukuma_p3", 5.0),
    ("log_gaussian", 5.0),
)
WARMUP_ALPHA_TAB = 7.77  # no dyadic bisection point from seed 8
WARMUP_SCALE = 1.37      # warm-up height of a variational model / test height

K1_GRID = (1e-6, 1e6, 300)
F_GRID = (0.01, 20.0, 800)

# stage names shared by the workloads: independent shots, the
# uniqueness root-find, and the work on stored trajectories
STAGES = ("shots", "root", "dense")
REFERENCE_REPEATS = 5

clock = time.perf_counter


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def import_plshoot():
    if not (SRC / "plshoot" / "__init__.py").is_file():
        raise SystemExit(f"plshoot sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import plshoot

    if Path(plshoot.__file__).resolve().parent != SRC / "plshoot":
        raise SystemExit(f"imported plshoot from {plshoot.__file__}, not {SRC}")
    mods = {name: importlib.import_module(f"plshoot.{name}") for name in (
        "model", "shoot", "classify", "uniqueness", "variational", "transform")}
    return plshoot, mods


# --- inputs ---------------------------------------------------------------


def _sequence(rng, count):
    """Golden-ratio sequence from a seeded offset: each run covers the
    input range evenly, so run medians depend little on the seed."""
    offset = rng.random()
    return [(offset + k * GOLDEN) % 1.0 for k in range(count)]


def make_inputs(workload, seed):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-r":
        lo, hi = _sequence(rng, INPUTS), _sequence(rng, INPUTS)
        return [{"alpha_lo": 1.01 * (1.0 + 0.004 * (a - 0.5)),
                 "alpha_hi": 50.0 * (1.0 + 0.04 * (b - 0.5))}
                for a, b in zip(lo, hi)]
    radii = _sequence(rng, INPUTS)
    heights = [_sequence(rng, INPUTS) for _ in VARIATIONAL_CASES]
    return [{"R": DIRICHLET_R[0] + (DIRICHLET_R[1] - DIRICHLET_R[0]) * radii[k],
             "alphas": [base * (1.0 + 0.04 * (heights[j][k] - 0.5))
                        for j, (_, base) in enumerate(VARIATIONAL_CASES)]}
            for k in range(INPUTS)]


def digest(inputs):
    blob = json.dumps(inputs, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# --- set-up ---------------------------------------------------------------


def certify(ps, mods, model):
    """check_K1 and check_f_hypotheses on the benchmark grids; a report
    that fails is recorded, not fatal (the p=3 case is outside (f3))."""
    params = ps.Parameters(model.p, model.n)
    k1 = mods["model"].check_K1(model.weight, params, ps.log_grid(*K1_GRID))
    fh = mods["model"].check_f_hypotheses(model.nonlinearity, params,
                                          np.linspace(*F_GRID))
    return {"K1": k1.passed, "f": fh.passed}


def build_tabulated(ps, mods):
    with open(MODELS / "tabulated.json", encoding="utf-8") as fh:
        cfg = json.load(fh)
    pair_cfg = cfg["pair"]
    if pair_cfg["family"] != "matukuma":
        raise SystemExit("tabulated.json: only the matukuma pair is supported")
    pair = mods["transform"].matukuma_pair(pair_cfg["params"]["n"],
                                           pair_cfg["params"]["sigma"])
    nl_cfg = cfg["nonlinearity"]
    if nl_cfg["family"] != "power_diff":
        raise SystemExit("tabulated.json: only the power_diff nonlinearity is supported")
    nl = ps.power_diff_nonlinearity(nl_cfg["params"]["q1"], nl_cfg["params"]["q2"])
    g = cfg["grid"]
    grid = np.geomspace(g["lo"], g["hi"], g["points"])
    return mods["transform"].transform_ab_to_K(pair, cfg["p"], cfg["N"], grid, nl).model


class Context:
    """Models and settings a workload's operations share."""

    def __init__(self, ps, mods):
        self.ps = ps
        self.mods = mods
        self.controls = ps.IntegratorControls()
        self.threads = nproc()
        self.models = {}
        self.hypotheses = {}
        self.kept = []  # derive-tab keeps every Dirichlet trajectory alive

    def add(self, name, model, warmup_alpha):
        self.models[name] = model
        self.hypotheses[name] = certify(self.ps, self.mods, model)
        self.mods["shoot"].integrate_ivp(model, warmup_alpha, self.controls)


def setup(workload, ps, mods):
    ctx = Context(ps, mods)
    if workload == "verify-r":
        ctx.add(VERIFY_MODEL, ps.load_model(MODELS / f"{VERIFY_MODEL}.json"),
                WARMUP_ALPHA_VERIFY)
        return ctx
    ctx.add("tabulated", build_tabulated(ps, mods), WARMUP_ALPHA_TAB)
    for name, base in VARIATIONAL_CASES:
        if name not in ctx.models:
            ctx.add(name, ps.load_model(MODELS / f"{name}.json"),
                    WARMUP_SCALE * base)
    return ctx


# --- operations -----------------------------------------------------------


class Ledger:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = Counter()
        self._printed = set()

    def ok(self, count=1):
        self.attempted += count

    def fail(self, what, reason, count=1, exc=None):
        self.attempted += count
        self.failed += count
        self.reasons[f"{what}: {reason}"] += count
        if exc is not None and type(exc) not in self._printed:
            self._printed.add(type(exc))
            traceback.print_exception(exc, file=sys.stderr)


def timed(fn, *args, **kwargs):
    """(result, exception, seconds); any exception is caught so one
    failing call is counted and the run keeps going."""
    start = clock()
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # counted in the ledger by the caller
        return None, exc, clock() - start
    return result, None, clock() - start


def _pendulum(t, y):
    return (y[1], -math.sin(y[0]) - 0.1 * y[1])


def reference_s():
    """Seconds the fixed reference computation takes right now: a damped
    pendulum integrated by scipy's DOP853 with a Python right-hand side,
    the same mix of interpreter and scipy work as a shot.  It shares no
    code with plshoot, so no change to the package can move it."""
    times = []
    enabled = gc.isenabled()
    gc.disable()  # a collection owed by the workload is not machine speed
    try:
        for _ in range(REFERENCE_REPEATS):
            start = clock()
            solve_ivp(_pendulum, (0.0, 40.0), (1.0, 0.0), method="DOP853",
                      rtol=1e-10, atol=1e-12)
            times.append(clock() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class Stages:
    """Raw stage times of one operation, and the same times in units of
    the reference computation, measured at every `mark` (outside the
    timed regions).  Time spent since the previous mark is divided by
    the mean of the two reference times around it."""

    def __init__(self):
        self.raw = dict.fromkeys(STAGES, 0.0)
        self.ref = dict.fromkeys(STAGES, 0.0)
        self.references = [reference_s()]
        self._pending = dict.fromkeys(STAGES, 0.0)

    def add(self, stage, seconds):
        self.raw[stage] += seconds
        self._pending[stage] += seconds

    def mark(self):
        now = reference_s()
        scale = 0.5 * (self.references[-1] + now)
        for stage, seconds in self._pending.items():
            self.ref[stage] += seconds / scale
        self._pending = dict.fromkeys(STAGES, 0.0)
        self.references.append(now)
        return self


def ground_state(m, model, outs, controls):
    pair = m["classify"].transition_bracket(outs)
    if pair is None:
        raise LookupError("no Positive->Crossing transition in the sweep")
    return m["uniqueness"].find_ground_state(model, pair[0], pair[1], TOL_ALPHA,
                                             controls)


def verify_op(ctx, inp):
    """Sweep, bracket, bisect and run the separation suite; returns the
    stage times and what the gates need."""
    model = ctx.models[VERIFY_MODEL]
    c, m = ctx.controls, ctx.mods
    st = Stages()
    outs, e_sweep, t = timed(m["classify"].sweep, model, inp["alpha_lo"],
                             inp["alpha_hi"], SWEEP_COUNT, c, threads=ctx.threads)
    st.add("shots", t)
    st.mark()
    bracket = report = e_gs = e_suite = None
    if outs is not None:
        bracket, e_gs, t = timed(ground_state, m, model, outs, c)
        st.add("root", t)
    st.mark()
    if bracket is not None:
        report, e_suite, t = timed(m["uniqueness"].verify_suite, model,
                                   bracket, SUITE_DELTA, SUITE_SAMPLES, c)
        st.add("dense", t)
    st.mark()
    return {
        "stages": st, "shots": SWEEP_COUNT,
        "outs": outs, "bracket": bracket, "report": report,
        "errors": {"sweep": e_sweep, "ground_state": e_gs, "suite": e_suite},
    }


def verify_gates(ctx, res, ledger):
    errors = res["errors"]
    if errors["sweep"] is not None:
        ledger.fail("sweep shot", type(errors["sweep"]).__name__, SWEEP_COUNT,
                    errors["sweep"])
    else:
        bad = sum(o.kind == "Inconclusive" for o in res["outs"])
        ledger.ok(SWEEP_COUNT - bad)
        if bad:
            ledger.fail("sweep shot", "Inconclusive", bad)
    br = res["bracket"]
    if br is None:
        err = errors["ground_state"] or errors["sweep"]
        ledger.fail("ground state", type(err).__name__, exc=err)
    elif not br.width < TOL_ALPHA:
        ledger.fail("ground state", f"bracket width {br.width:.3e} >= {TOL_ALPHA}")
    elif abs(br.midpoint - REFERENCE_GROUND_STATE) > REFERENCE_TOL:
        ledger.fail("ground state", f"midpoint {br.midpoint!r} off the reference")
    else:
        ledger.ok()
    rep = res["report"]
    if rep is None:
        err = errors["suite"] or errors["ground_state"] or errors["sweep"]
        ledger.fail("suite", type(err).__name__, exc=err)
    elif not (rep.passed and len(rep.checks) == 6):
        failing = [c.name for c in rep.checks if not c.passed]
        ledger.fail("suite", f"{len(rep.checks)} checks, failing {failing}")
    else:
        ledger.ok()


def variational(m, model, alpha, controls, traj):
    state = m["variational"].solve_variational(model, traj)
    return m["variational"].alpha_derivatives(model, alpha, controls, traj=traj,
                                              state=state)


def derive_op(ctx, inp):
    """Dirichlet solve on the tabulated model, then a shot, the
    variational solve and the alpha derivatives on each case."""
    c, m = ctx.controls, ctx.mods
    st = Stages()
    sol, e_dir, t = timed(m["uniqueness"].solve_dirichlet,
                          ctx.models["tabulated"], inp["R"], DIRICHLET_SEED,
                          controls=c)
    st.add("root", t)
    st.mark()
    if sol is not None:
        ctx.kept.append(sol)
    cases, per_case = [], []
    for (name, _), alpha in zip(VARIATIONAL_CASES, inp["alphas"]):
        model = ctx.models[name]
        traj, e_shot, t = timed(m["shoot"].integrate_ivp, model, alpha, c)
        st.add("shots", t)
        ad = e_var = None
        if traj is not None:
            ad, e_var, t = timed(variational, m, model, alpha, c, traj)
            st.add("dense", t)
            per_case.append(t)
        cases.append({"name": name, "alpha": alpha, "ad": ad,
                      "errors": {"shot": e_shot, "variational": e_var}})
    st.mark()
    return {
        "stages": st, "shots": len(VARIATIONAL_CASES),
        "variational_s": per_case,
        "R": inp["R"], "sol": sol, "e_dir": e_dir, "cases": cases,
    }


def derive_gates(ctx, res, ledger):
    c, m = ctx.controls, ctx.mods
    sol = res["sol"]
    if sol is None:
        ledger.fail("dirichlet", type(res["e_dir"]).__name__, exc=res["e_dir"])
    elif not abs(sol.u_at_target) < DIRICHLET_U_TOL:
        ledger.fail("dirichlet", f"|u(R_target)| = {abs(sol.u_at_target):.3e}")
    else:
        ref, err, _ = timed(m["uniqueness"].solve_dirichlet,
                            ctx.models["canonical"], res["R"], DIRICHLET_SEED,
                            controls=c)
        if ref is None:
            ledger.fail("dirichlet", f"analytic reference: {type(err).__name__}",
                        exc=err)
        elif abs(sol.alpha - ref.alpha) > DIRICHLET_MATCH_REL * abs(ref.alpha):
            ledger.fail("dirichlet", f"height {sol.alpha!r} != analytic {ref.alpha!r}")
        else:
            ledger.ok()
    for case in res["cases"]:
        errs = case["errors"]
        if errs["shot"] is not None:
            ledger.fail("shot", type(errs["shot"]).__name__, exc=errs["shot"])
            ledger.fail("variational", "no base shot")
            continue
        ledger.ok()
        if errs["variational"] is not None:
            ledger.fail("variational", type(errs["variational"]).__name__,
                        exc=errs["variational"])
            continue
        model, alpha = ctx.models[case["name"]], case["alpha"]
        h = 1e-6 * alpha
        try:
            tp = m["shoot"].integrate_ivp(model, alpha + h, c)
            tm = m["shoot"].integrate_ivp(model, alpha - h, c)
            fd = (tp.r0 - tm.r0) / (2.0 * h)
        except Exception as exc:  # a failing gate shot fails the gate
            ledger.fail("variational", f"finite difference: {type(exc).__name__}",
                        exc=exc)
            continue
        if abs(case["ad"].dr0_dalpha - fd) > FD_REL * abs(fd):
            ledger.fail("variational", f"{case['name']}: dr0/dalpha "
                        f"{case['ad'].dr0_dalpha!r} vs difference {fd!r}")
        else:
            ledger.ok()


OPS = {"verify-r": (verify_op, verify_gates), "derive-tab": (derive_op, derive_gates)}


# --- the run --------------------------------------------------------------


def summary(samples):
    """Median, the highest percentile with ten samples beyond it, count."""
    out = {"median": statistics.median(samples) if samples else None,
           "n": len(samples)}
    hi = high_percentile(samples)
    if hi:
        out["percentile"], out["high"] = hi
    return out


def end_to_end(results):
    """Per-operation medians, raw and in reference units; see
    RATIONALE.md for the names."""
    stages = [r["stages"] for r in results]
    out = {}
    for unit, get in (("s", lambda st: st.raw), ("ref", lambda st: st.ref)):
        out[f"op_{unit}"] = summary([sum(get(st).values()) for st in stages])
        out[f"root_{unit}"] = summary([get(st)["root"] for st in stages])
        out[f"dense_{unit}"] = summary([get(st)["dense"] for st in stages])
    out["shots_per_s"] = summary([r["shots"] / r["stages"].raw["shots"]
                                  for r in results if r["stages"].raw["shots"] > 0])
    out["shot_ref"] = summary([r["stages"].ref["shots"] / r["shots"] for r in results])
    out["reference_ms"] = summary([1e3 * k for st in stages for k in st.references])
    return out


def loop(inputs, seconds, run_one):
    """Closed loop: the next operation starts when the previous one (and
    its gates) returned, and only if it is expected to end in time."""
    start = clock()
    walls = []
    while not walls or clock() - start + statistics.median(walls) <= seconds:
        k = len(walls)
        t0 = clock()
        run_one(k, inputs[k % len(inputs)])
        walls.append(clock() - t0)
    return clock() - start


def metadata(workload, seed, inputs, ctx):
    return {
        "workload": workload,
        "seed": seed,
        "inputs_digest": digest(inputs),
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc(),
        "cpu": cpu_model(),
        "threads": ctx.threads,
        "hypotheses": ctx.hypotheses,
    }


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    ps, mods = import_plshoot()
    if args.trace:
        tracer = Tracer()
        tracer.install()
    try:
        ctx = setup(args.workload, ps, mods)
        if tracer:
            tracer.restore()
        print("READY " + json.dumps({"t": time.monotonic()}), flush=True)
        if args.setup_only:
            return 0
        result = run(args, ctx, tracer)
    finally:
        if tracer:
            tracer.restore()
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def run(args, ctx, tracer):
    inputs = make_inputs(args.workload, args.seed)
    op_fn, gate_fn = OPS[args.workload]
    ledger = Ledger()
    untraced, traced, overhead = [], [], []

    def one(k, inp):
        if not tracer:
            res = op_fn(ctx, inp)
            gate_fn(ctx, res, ledger)
            untraced.append(res)
            return
        # traced run: each input runs untraced and traced, in alternating
        # order, so the difference is the tracing overhead
        for traced_now in ((False, True) if k % 2 == 0 else (True, False)):
            if traced_now:
                tracer.op = k
                tracer.install()
                try:
                    res = op_fn(ctx, inp)
                finally:
                    tracer.restore()
                traced.append((k, res))
            else:
                res = op_fn(ctx, inp)
                untraced.append(res)
            gate_fn(ctx, res, ledger)
        overhead.append(sum(traced[-1][1]["stages"].raw.values())
                        - sum(untraced[-1]["stages"].raw.values()))

    measured = loop(inputs, args.seconds, one)
    e2e = end_to_end(untraced)
    var_ms = [1e3 * t for r in untraced for t in r.get("variational_s", ())]
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": dict(ledger.reasons),
        "operations": len(untraced),
        "measured_s": measured,
        "end_to_end": e2e,
        "variational_ms": summary(var_ms) if var_ms else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "meta": metadata(args.workload, args.seed, inputs, ctx),
    }
    if tracer:
        result["layers"], result["shot_ms_percentile"] = layers(tracer, traced)
        result["layers"]["trace.overhead_s"] = statistics.median(overhead)
        for name in ("op_s", "shots_per_s", "root_s", "dense_s", "reference_ms"):
            result["layers"][f"untraced.{name}"] = e2e[name]["median"]
        result["traced_op_s"] = statistics.median(
            sum(r["stages"].raw.values()) for _, r in traced)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path)
        result["spans_file"] = str(path.relative_to(ROOT))
        result["spans"] = len(tracer.spans)
    return result


def layers(tracer, traced):
    by_op = {}
    for span in tracer.spans:
        by_op.setdefault(span[5], []).append(span)
    per_op = [op_layer_metrics(by_op.get(k, [])) for k, _ in traced]
    metrics = setup_layer_metrics(by_op.get("setup", []))
    for name in per_op[0][0]:
        if name in COUNT_METRICS:
            metrics[name] = per_op[0][0][name]
        else:
            metrics[name] = statistics.median(m[name] for m, _ in per_op)
    return metrics, per_op[0][1]


if __name__ == "__main__":
    sys.exit(main())
