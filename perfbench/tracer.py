"""Spans recorded from outside the package.

The tracer replaces module and class attributes of plshoot that callers
look up at call time with wrappers that record one span per call:
name, start, end, parent span and the operation it belongs to.  Spans
stay in memory until the run ends; `restore` puts the original
attributes back.

Per-layer figures are derived from the spans after the run: counts,
inclusive time, and self time (a span's duration minus the part of its
interval that its child spans cover).
"""

import functools
import importlib
import itertools
import json
import statistics
import threading
import time

# (span name, module, attribute) for plain function attributes.  The
# same function is wrapped under every module that binds it, because
# each module calls its own binding.
FUNCTION_PATCHES = [
    ("model.check_K1", "plshoot.model", "check_K1"),
    ("model.check_f_hypotheses", "plshoot.model", "check_f_hypotheses"),
    ("transform.transform_ab_to_K", "plshoot.transform", "transform_ab_to_K"),
    ("quadrature.adaptive_quad", "plshoot.shoot", "adaptive_quad"),
    ("shoot.solve_ivp", "plshoot.shoot", "solve_ivp"),
    ("shoot.origin_startup", "plshoot.shoot", "origin_startup"),
    ("shoot.radius_for_arclength", "plshoot.shoot", "radius_for_arclength"),
    ("shoot.transformed_arclength", "plshoot.shoot", "transformed_arclength"),
    ("shoot.integrate_ivp", "plshoot.shoot", "integrate_ivp"),
    ("shoot.integrate_ivp", "plshoot.classify", "integrate_ivp"),
    ("classify.classify", "plshoot.classify", "classify"),
    ("classify.classify", "plshoot.uniqueness", "classify"),
    ("classify.sweep", "plshoot.classify", "sweep"),
    ("classify.transition_bracket", "plshoot.classify", "transition_bracket"),
    ("uniqueness.find_ground_state", "plshoot.uniqueness", "find_ground_state"),
    ("uniqueness.solve_dirichlet", "plshoot.uniqueness", "solve_dirichlet"),
    ("uniqueness.verify_suite", "plshoot.uniqueness", "verify_suite"),
    ("variational.solve_ivp", "plshoot.variational", "solve_ivp"),
    ("variational.solve_variational", "plshoot.variational", "solve_variational"),
    ("variational.alpha_derivatives", "plshoot.variational", "alpha_derivatives"),
]


def _solve_ivp_extra(sol):
    # with dense output every accepted step is a column of sol.t
    return {"nfev": int(sol.nfev), "steps": int(len(sol.t) - 1)}


EXTRAS = {
    "shoot.solve_ivp": _solve_ivp_extra,
    "variational.solve_ivp": _solve_ivp_extra,
    "classify.classify": lambda out: {"kind": out.kind},
    "uniqueness.find_ground_state": lambda br: {"iterations": int(br.iterations)},
}


def _eval_name(args):
    traj = args[0]
    return "shoot.eval_t" if traj.model.weight.g_unbounded_at_zero else "shoot.eval_r"


class Tracer:
    """Records spans while installed; not reentrant across processes."""

    def __init__(self):
        self.spans = []  # [id, name, start, end, parent, op, extra]
        self.op = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = []
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            if threading.current_thread() is threading.main_thread():
                stack = self._main_stack
            else:
                stack = []
            self._local.stack = stack
        return stack

    def _wrap(self, fn, name, name_of=None):
        extra_of = EXTRAS.get(name)
        spans, ids, main_stack = self.spans, self._ids, self._main_stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                # a worker thread adopts the span the main thread is in
                parent = main_stack[-1] if main_stack else None
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                spans.append([sid, name_of(args) if name_of else name, start,
                              end, parent, self.op,
                              {"error": type(exc).__name__}])
                raise
            end = clock()
            stack.pop()
            spans.append([sid, name_of(args) if name_of else name, start, end,
                          parent, self.op,
                          extra_of(result) if extra_of else None])
            return result

        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        for name, module, attr in FUNCTION_PATCHES:
            mod = importlib.import_module(module)
            self._patch(mod, attr, self._wrap(getattr(mod, attr), name))
        shoot = importlib.import_module("plshoot.shoot")
        self._patch(shoot.Trajectory, "eval",
                    self._wrap(shoot.Trajectory.eval, "shoot.eval",
                               name_of=_eval_name))
        self._patch(shoot.InverseProfile, "t_of_s",
                    self._wrap(shoot.InverseProfile.t_of_s,
                               "shoot.invert_profile.t_of_s"))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


class SpanIndex:
    """Per-name aggregates of one operation's spans, with self times and
    ancestry queries."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}
        children = {}
        for s in spans:
            children.setdefault(s[4], []).append((s[2], s[3]))
        self.self_time = {}
        for s in spans:
            covered = _union_length(children.get(s[0], ()), s[2], s[3])
            self.self_time[s[0]] = (s[3] - s[2]) - covered
        self.by_name = {}
        for s in spans:
            self.by_name.setdefault(s[1], []).append(s)

    def calls(self, name):
        return len(self.by_name.get(name, ()))

    def total(self, name):
        return sum(s[3] - s[2] for s in self.by_name.get(name, ()))

    def durations(self, name):
        return [s[3] - s[2] for s in self.by_name.get(name, ())]

    def extra_sum(self, name, key):
        return sum((s[6] or {}).get(key, 0) for s in self.by_name.get(name, ()))

    def module_self(self, module):
        prefix = module + "."
        return sum(self.self_time[s[0]] for s in self.spans
                   if s[1].startswith(prefix))

    def under(self, name, ancestor):
        """Spans called `name` with an ancestor span called `ancestor`."""
        found = []
        for s in self.by_name.get(name, ()):
            parent = self.by_id.get(s[4])
            while parent is not None:
                if parent[1] == ancestor:
                    found.append(s)
                    break
                parent = self.by_id.get(parent[4])
        return found


def _union_length(intervals, lo, hi):
    """Length of the union of intervals clipped to [lo, hi]; children of
    a span can overlap when they ran in worker threads."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def high_percentile(samples):
    """(percentile, value) at the highest percentile that has at least
    ten samples beyond it, or None when there are too few samples for
    that percentile to lie above the median."""
    n = len(samples)
    k = n - 11
    if n < 21:
        return None
    return 100.0 * k / (n - 1), sorted(samples)[k]


# Per-layer metrics that are counts: they repeat exactly for a seed, so
# they are read from the first traced operation.  Every other metric is
# a time, reported as its median over the traced operations.
COUNT_METRICS = {
    "quadrature.adaptive_quad.calls_per_shot",
    "shoot.origin_startup.calls",
    "shoot.startup_accept_ratio",
    "shoot.radius_for_arclength.calls",
    "shoot.transformed_arclength.calls",
    "shoot.solve_ivp.nfev",
    "shoot.solve_ivp.steps",
    "shoot.integrate_ivp.calls",
    "shoot.eval_r.calls",
    "shoot.eval_t.calls",
    "shoot.invert_profile.t_of_s.calls",
    "classify.classify.calls",
    "classify.decisive_ratio",
    "uniqueness.find_ground_state.iterations",
    "uniqueness.find_ground_state.shots",
    "uniqueness.solve_dirichlet.shots",
    "uniqueness.verify_suite.shots",
    "variational.solve_ivp.nfev",
    "variational.traj_eval.calls",
}

LAYER_MODULES = ("quadrature", "shoot", "classify", "uniqueness", "variational")


def _ratio(num, den):
    return num / den if den else 0.0


def op_layer_metrics(spans):
    """Per-layer metrics of one operation's spans."""
    ix = SpanIndex(spans)
    shots = ix.calls("shoot.integrate_ivp")
    startups = ix.calls("shoot.origin_startup")
    shot_ms = [1e3 * d for d in ix.durations("shoot.integrate_ivp")]
    hi = high_percentile(shot_ms)
    kinds = [(s[6] or {}).get("kind") for s in ix.by_name.get("classify.classify", ())]
    m = {
        "quadrature.adaptive_quad.calls_per_shot":
            _ratio(ix.calls("quadrature.adaptive_quad"), shots),
        "quadrature.adaptive_quad.s": ix.total("quadrature.adaptive_quad"),
        "shoot.origin_startup.s": ix.total("shoot.origin_startup"),
        "shoot.origin_startup.calls": startups,
        "shoot.startup_accept_ratio": _ratio(shots, startups),
        "shoot.radius_for_arclength.s": ix.total("shoot.radius_for_arclength"),
        "shoot.radius_for_arclength.calls": ix.calls("shoot.radius_for_arclength"),
        "shoot.transformed_arclength.calls": ix.calls("shoot.transformed_arclength"),
        "shoot.solve_ivp.s": ix.total("shoot.solve_ivp"),
        "shoot.solve_ivp.nfev": ix.extra_sum("shoot.solve_ivp", "nfev"),
        "shoot.solve_ivp.steps": ix.extra_sum("shoot.solve_ivp", "steps"),
        "shoot.integrate_ivp.calls": shots,
        "shoot.integrate_ivp.ms_p50": statistics.median(shot_ms) if shot_ms else 0.0,
        "shoot.integrate_ivp.ms_hi": hi[1] if hi else 0.0,
        "shoot.eval_r.calls": ix.calls("shoot.eval_r"),
        "shoot.eval_r.us": 1e6 * _ratio(ix.total("shoot.eval_r"), ix.calls("shoot.eval_r")),
        "shoot.eval_t.calls": ix.calls("shoot.eval_t"),
        "shoot.eval_t.us": 1e6 * _ratio(ix.total("shoot.eval_t"), ix.calls("shoot.eval_t")),
        "shoot.invert_profile.t_of_s.calls": ix.calls("shoot.invert_profile.t_of_s"),
        "shoot.invert_profile.t_of_s.s": ix.total("shoot.invert_profile.t_of_s"),
        "classify.classify.calls": len(kinds),
        "classify.classify.s": ix.total("classify.classify"),
        "classify.sweep.s": ix.total("classify.sweep"),
        "classify.decisive_ratio": _ratio(
            sum(k in ("Positive", "Crossing") for k in kinds), len(kinds)),
        "uniqueness.find_ground_state.iterations":
            ix.extra_sum("uniqueness.find_ground_state", "iterations"),
        "uniqueness.find_ground_state.shots":
            len(ix.under("classify.classify", "uniqueness.find_ground_state")),
        "uniqueness.solve_dirichlet.shots":
            len(ix.under("classify.classify", "uniqueness.solve_dirichlet")),
        "uniqueness.verify_suite.shots":
            len(ix.under("classify.classify", "uniqueness.verify_suite")),
        "variational.solve_variational.s": ix.total("variational.solve_variational"),
        "variational.solve_ivp.nfev": ix.extra_sum("variational.solve_ivp", "nfev"),
        "variational.traj_eval.calls":
            len(ix.under("shoot.eval_r", "variational.solve_variational"))
            + len(ix.under("shoot.eval_t", "variational.solve_variational")),
        "variational.alpha_derivatives.s": ix.total("variational.alpha_derivatives"),
    }
    for module in LAYER_MODULES:
        m[f"layer.{module}.self_s"] = ix.module_self(module)
    return m, ({"n": len(shot_ms), "percentile": hi[0]} if hi else {"n": len(shot_ms)})


def setup_layer_metrics(spans):
    ix = SpanIndex(spans)
    return {
        "model.check_hypotheses.s":
            ix.total("model.check_K1") + ix.total("model.check_f_hypotheses"),
        "transform.transform_ab_to_K.s": ix.total("transform.transform_ab_to_K"),
    }
