"""Problem definitions for the radial quasilinear equation

    -(r^{n-1} |u'|^{p-2} u')' = r^{n-1} K(r) f(u),   n > p > 1,

together with numerical certification of the structural hypotheses the
solver relies on: K positive with p + r K'/K strictly positive and
decreasing, and f with a single positive zero u0, superlinear growth
above it, and a decreasing u f'/f quotient.

Weight families implemented here all expose K(r) and K'(r) in closed
form (tabulated weights interpolate monotonically in log-log space so
positivity and monotonicity of the data survive).
"""

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import ConfigError, DomainError
from .quadrature import FloatPPoly, adaptive_quad

# Plateaus caused by rounding (or by design, e.g. matched power-law
# tails) must not fail an analytic strict-monotonicity check.
STRICT_TOL = 1e-12


@dataclass(frozen=True)
class Parameters:
    """Exponent p and spatial dimension n (standing assumption n > p > 1)."""

    p: float
    n: float

    def __post_init__(self):
        if not self.p > 1.0:
            raise DomainError(f"p must exceed 1, got p={self.p}")
        if not self.n > self.p:
            raise DomainError(f"dimension n must exceed p, got n={self.n}, p={self.p}")

    @property
    def pprime(self):
        return self.p / (self.p - 1.0)


class WeightSpec:
    """A radial weight K with its derivative.

    family/params identify the construction; kfun/dkfun are scalar
    callables valid for every r > 0.  g_unbounded_at_zero marks weights
    whose p + r K'/K blows up at the origin.  It describes the weight and
    selects nothing: every weight is integrated in r, and the transformed
    t variable only sets the startup radius.
    """

    def __init__(self, family, params, kfun, dkfun, g_unbounded_at_zero=False):
        self.family = family
        self.params = dict(params)
        self._k = kfun
        self._dk = dkfun
        self.g_unbounded_at_zero = g_unbounded_at_zero

    def K(self, r):
        if r <= 0.0:
            raise DomainError(f"weight evaluated at r={r} <= 0")
        return self._k(r)

    def dK(self, r):
        if r <= 0.0:
            raise DomainError(f"weight derivative evaluated at r={r} <= 0")
        return self._dk(r)

    def g(self, r, p):
        """p + r K'(r)/K(r), the combination every hypothesis is about."""
        return p + r * self.dK(r) / self.K(r)

    def __repr__(self):
        return f"WeightSpec({self.family}, {self.params})"


def matukuma_weight(sigma):
    """K(r) = 1/(1 + r^sigma)."""
    if sigma <= 0:
        raise DomainError("matukuma weight needs sigma > 0")

    def k(r):
        return 1.0 / (1.0 + r**sigma)

    def dk(r):
        rs = r**sigma
        return -sigma * rs / (r * (1.0 + rs) ** 2)

    return WeightSpec("matukuma", {"sigma": sigma}, k, dk)


def stellar_weight(sigma):
    """K(r) = r^{sigma-2} / (1+r^2)^{sigma/2}, the stellar-structure weight."""
    if sigma <= 0:
        raise DomainError("stellar weight needs sigma > 0")

    def k(r):
        return r ** (sigma - 2.0) * (1.0 + r * r) ** (-sigma / 2.0)

    def dk(r):
        # r K'/K = (sigma-2) - sigma r^2/(1+r^2)
        return k(r) * ((sigma - 2.0) - sigma * r * r / (1.0 + r * r)) / r

    return WeightSpec("stellar", {"sigma": sigma}, k, dk)


def power_general_weight(k_exp, l_exp, s_exp, sigma, N):
    """Canonical-form weight of the doubly weighted power example,

        K(r) = r^{l-k} (r^s/(1+r^s))^{sigma/s},

    to be used in dimension n = N + k.  Admissibility is exactly
    check_example_conditions: N + k > p and l >= k - p.
    """
    if s_exp <= 0 or sigma <= 0:
        raise DomainError("power_general weight needs s > 0 and sigma > 0")
    theta = l_exp - k_exp

    def k(r):
        rs = r**s_exp
        return r**theta * (rs / (1.0 + rs)) ** (sigma / s_exp)

    def dk(r):
        rs = r**s_exp
        return k(r) * (theta + sigma / (1.0 + rs)) / r

    params = {"k": k_exp, "l": l_exp, "s": s_exp, "sigma": sigma, "N": N}
    return WeightSpec("power_general", params, k, dk)


def power_log_weight(theta, a_exp):
    """K(r) = r^theta log^a(1+r), admissible for theta >= -p, a > 0."""
    if a_exp <= 0:
        raise DomainError("power_log weight needs a_exp > 0")

    def k(r):
        return r**theta * math.log1p(r) ** a_exp

    def dk(r):
        return k(r) * (theta + a_exp * r / ((1.0 + r) * math.log1p(r))) / r

    return WeightSpec("power_log", {"theta": theta, "a_exp": a_exp}, k, dk)


# The log-gaussian profile is matched C^1 to a power law at r = 1/e
# (not at r = 1): matching at 1 would force the tail exponent theta and
# hence r K'/K == theta there, so at theta = -p the combination
# p + r K'/K would vanish identically on the tail and fail strict
# positivity.  Matching at 1/e gives tail exponent theta + 1 and keeps
# p + r K'/K >= 1 on the tail for every theta >= -p.
_LG_MATCH = math.exp(-1.0)


def log_gaussian_weight(theta):
    """K(r) = r^theta exp(-(log r)^2/2) near 0, power-law tail beyond 1/e."""
    coeff = math.exp(0.5)

    def k(r):
        if r <= _LG_MATCH:
            lr = math.log(r)
            return r**theta * math.exp(-0.5 * lr * lr)
        return coeff * r ** (theta + 1.0)

    def dk(r):
        if r <= _LG_MATCH:
            return k(r) * (theta - math.log(r)) / r
        return coeff * (theta + 1.0) * r**theta

    return WeightSpec(
        "log_gaussian", {"theta": theta}, k, dk, g_unbounded_at_zero=True
    )


def tabulated_weight(r_values, k_values):
    """Monotone log-log interpolation of sampled weight data.

    PCHIP in (log r, log K) keeps the interpolant strictly positive and
    preserves any monotonicity of the samples; outside the table the
    weight continues as the power law matching the boundary slope.
    """
    r_values = np.asarray(r_values, dtype=float)
    k_values = np.asarray(k_values, dtype=float)
    if r_values.ndim != 1 or r_values.shape != k_values.shape or len(r_values) < 2:
        raise DomainError("tabulated weight needs matching 1-d r/K arrays, >= 2 points")
    if np.any(np.diff(r_values) <= 0):
        raise DomainError("tabulated weight grid must be strictly increasing")
    if np.any(r_values <= 0) or np.any(k_values <= 0):
        raise DomainError("tabulated weight data must be strictly positive")

    lr = np.log(r_values)
    lk = np.log(k_values)
    pchip = PchipInterpolator(lr, lk)
    interp = FloatPPoly(pchip)
    dinterp = FloatPPoly(pchip.derivative())
    lo, hi = float(lr[0]), float(lr[-1])
    slope_lo = dinterp(lo)
    slope_hi = dinterp(hi)

    def logk(x):
        if x < lo:
            return lk[0] + slope_lo * (x - lo)
        if x > hi:
            return lk[-1] + slope_hi * (x - hi)
        return interp(x)

    def dlogk(x):
        if x < lo:
            return slope_lo
        if x > hi:
            return slope_hi
        return dinterp(x)

    def k(r):
        return math.exp(logk(math.log(r)))

    def dk(r):
        x = math.log(r)
        return math.exp(logk(x)) * dlogk(x) / r

    params = {"r": r_values.tolist(), "K": k_values.tolist()}
    return WeightSpec("tabulated", params, k, dk)


def closure_weight(kfun, dkfun, name="closure", g_unbounded_at_zero=False):
    """Wrap user-supplied K, K' callables."""
    return WeightSpec(name, {}, kfun, dkfun, g_unbounded_at_zero=g_unbounded_at_zero)


class NonlinearitySpec:
    """Nonlinearity f with one positive zero u0.

    Provides f, f' (guaranteed only on [u0, inf)), the primitives
    F(u) = int_0^u f and F0(u) = F(u) - F(u0).
    """

    def __init__(self, family, params, f, u0, fprime=None, F=None,
                 fprime_floor=0.0):
        self.family = family
        self.params = dict(params)
        self._f = f
        self._fprime = fprime
        self._F = F
        self.u0 = float(u0)
        # largest u below which f' is not available (0 for power_diff)
        self._fprime_floor = fprime_floor
        self._F_u0 = None

    def f(self, u):
        if u < 0.0:
            raise DomainError(f"f evaluated at u={u} < 0")
        return self._f(u)

    def f_clamped(self, u):
        """f extended by f(0)=0 below zero; integration steps may
        overshoot the u=0 event by a rounding margin."""
        return self._f(u) if u > 0.0 else 0.0

    def fprime(self, u):
        if self._fprime is None:
            raise DomainError(f"nonlinearity {self.family} provides no derivative")
        if u <= self._fprime_floor:
            raise DomainError(
                f"f' undefined at u={u} (available above {self._fprime_floor})"
            )
        return self._fprime(u)

    def fprime_at_or_above_u0(self, u):
        """One-sided derivative: queries below u0 clamp to u0 (used by
        the variational equation, which only ever sees u >= u0)."""
        return self.fprime(max(u, self.u0))

    def F(self, u):
        if self._F is not None:
            return self._F(u)
        return adaptive_quad(self._f, 0.0, u)

    def F0(self, u):
        if self._F_u0 is None:
            self._F_u0 = self.F(self.u0)
        return self.F(u) - self._F_u0

    def __repr__(self):
        return f"NonlinearitySpec({self.family}, {self.params})"


def power_diff_nonlinearity(q1, q2):
    """f(u) = u^q1 - u^q2 with zero u0 = 1 (admissible for 0<q2<p-1<=q1)."""
    if not (q1 > 0 and q2 > 0):
        raise DomainError("power_diff needs positive exponents")
    if q1 == q2:
        raise DomainError("power_diff needs q1 != q2")

    def f(u):
        return u**q1 - u**q2

    def fp(u):
        return q1 * u ** (q1 - 1.0) - q2 * u ** (q2 - 1.0)

    def F(u):
        return u ** (q1 + 1.0) / (q1 + 1.0) - u ** (q2 + 1.0) / (q2 + 1.0)

    return NonlinearitySpec("power_diff", {"q1": q1, "q2": q2}, f, 1.0, fp, F)


def closure_nonlinearity(f, u0, fprime=None, F=None, name="closure"):
    if u0 <= 0:
        raise DomainError("closure nonlinearity needs u0 > 0")
    return NonlinearitySpec(name, {}, f, u0, fprime, F, fprime_floor=u0 * (1 - 1e-12))


@dataclass(frozen=True, eq=False)
class ProblemModel:
    """A full problem instance: exponents, weight, nonlinearity."""

    params: Parameters
    weight: WeightSpec
    nonlinearity: NonlinearitySpec

    @property
    def p(self):
        return self.params.p

    @property
    def n(self):
        return self.params.n

    @property
    def u0(self):
        return self.nonlinearity.u0


@dataclass
class CheckResult:
    name: str
    passed: bool
    witness: dict | None = None

    def to_dict(self):
        return {"name": self.name, "pass": self.passed, "witness": self.witness}


@dataclass
class HypothesisReport:
    checks: list
    grid: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def failing(self):
        return [c for c in self.checks if not c.passed]

    def to_dict(self):
        return {
            "pass": self.passed,
            "checks": [c.to_dict() for c in self.checks],
            "grid": {
                "points": int(len(self.grid)),
                "min": float(self.grid[0]) if len(self.grid) else None,
                "max": float(self.grid[-1]) if len(self.grid) else None,
            },
        }

    def to_json(self, indent=None):
        return json.dumps(self.to_dict(), indent=indent)


def log_grid(lo, hi, num):
    if not (0 < lo < hi) or num < 2:
        raise DomainError("log grid needs 0 < lo < hi and >= 2 points")
    return np.geomspace(lo, hi, num)


_MODEL_POINT_FIELDS = ("K", "dK", "g", "f", "fprime", "F", "F0")


def eval_model(model, r, u):
    """All pointwise model quantities at (r, u).

    Returns a dict with K, dK, g = p + r K'/K, f, f', F, F0.  f' is
    None below u0 when the nonlinearity does not define it there.
    """
    if r <= 0.0:
        raise DomainError(f"eval_model needs r > 0, got r={r}")
    if u < 0.0:
        raise DomainError(f"eval_model needs u >= 0, got u={u}")
    w, nl = model.weight, model.nonlinearity
    K = w.K(r)
    dK = w.dK(r)
    try:
        fp = nl.fprime(u)
    except DomainError:
        if u >= nl.u0:
            raise
        fp = None
    return {
        "K": K,
        "dK": dK,
        "g": model.p + r * dK / K,
        "f": nl.f(u),
        "fprime": fp,
        "F": nl.F(u),
        "F0": nl.F0(u),
    }


def _strictly_decreasing_violation(values, tol=STRICT_TOL):
    """First index where consecutive decrease fails (plateau-tolerant)."""
    for i in range(len(values) - 1):
        allowed = tol * (1.0 + abs(values[i]))
        if values[i + 1] - values[i] >= allowed:
            return i
    return None


def check_K1(weight, params, grid):
    """Certify: g(r) = p + r K'/K strictly positive and decreasing on the grid."""
    grid = np.asarray(grid, dtype=float)
    if len(grid) < 2 or np.any(np.diff(grid) <= 0):
        raise DomainError("check_K1 needs a strictly increasing grid of >= 2 points")
    checks = []
    gvals = np.empty(len(grid))
    eval_ok = True
    for i, r in enumerate(grid):
        try:
            gvals[i] = weight.g(r, params.p)
        except Exception as exc:  # an unevaluable point is itself a failure
            checks.append(
                CheckResult("K1_evaluable", False, {"r": float(r), "error": str(exc)})
            )
            eval_ok = False
            break
    if eval_ok:
        checks.append(CheckResult("K1_evaluable", True))
        bad = np.nonzero(~(gvals > 0.0))[0]
        if bad.size:
            i = int(bad[0])
            checks.append(
                CheckResult(
                    "K1_positive",
                    False,
                    {"r": float(grid[i]), "g": float(gvals[i])},
                )
            )
        else:
            checks.append(CheckResult("K1_positive", True))
        j = _strictly_decreasing_violation(gvals)
        if j is None:
            checks.append(CheckResult("K1_decreasing", True))
        else:
            checks.append(
                CheckResult(
                    "K1_decreasing",
                    False,
                    {
                        "r_lo": float(grid[j]),
                        "r_hi": float(grid[j + 1]),
                        "g_lo": float(gvals[j]),
                        "g_hi": float(gvals[j + 1]),
                    },
                )
            )
    return HypothesisReport(checks, grid)


def _lipschitz_ratio_ok(f, u, h0, levels=4, bound=50.0):
    """Bounded difference quotients on nested steps (Lipschitz probe)."""
    quotients = []
    for k in range(levels):
        h = h0 / 4.0**k
        quotients.append(abs(f(u + h) - f(u)) / h)
    qmax = max(quotients)
    return qmax <= bound * (1.0 + min(quotients)), qmax


def check_f_hypotheses(nl, params, grid):
    """Certify the sign pattern, Lipschitz bound, superlinearity and
    quotient monotonicity of f on the given u grid."""
    grid = np.asarray(grid, dtype=float)
    u0 = nl.u0
    p = params.p
    if grid[-1] <= u0:
        raise DomainError("check_f_hypotheses grid must extend above u0")
    if not np.any(grid < u0):
        raise DomainError("check_f_hypotheses grid must have points below u0")
    checks = []

    # (f1): f(u0) = 0, f <= 0 (and somewhere < 0) on (0, u0), f > 0 above
    scale = 1.0 + abs(nl.f(grid[-1]))
    below = grid[(grid > 0) & (grid < u0)]
    above = grid[grid > u0]
    f_below = np.array([nl.f(u) for u in below])
    f_above = np.array([nl.f(u) for u in above])
    ok = abs(nl.f(u0)) <= 1e-10 * scale
    witness = None if ok else {"u": u0, "f": nl.f(u0)}
    if ok and np.any(f_below > 1e-12 * scale):
        i = int(np.nonzero(f_below > 1e-12 * scale)[0][0])
        ok, witness = False, {"u": float(below[i]), "f": float(f_below[i])}
    if ok and not np.any(f_below < 0.0):
        ok, witness = False, {"reason": "f not negative anywhere below u0"}
    if ok and np.any(f_above <= 0.0):
        i = int(np.nonzero(f_above <= 0.0)[0][0])
        ok, witness = False, {"u": float(above[i]), "f": float(f_above[i])}
    checks.append(CheckResult("f1_sign_pattern", ok, witness))

    # (f2): local Lipschitz above u0, probed by nested difference quotients
    ok, witness = True, None
    for u in above[:: max(1, len(above) // 8)]:
        good, qmax = _lipschitz_ratio_ok(nl.f, u, h0=1e-3 * max(1.0, u))
        if not good:
            ok, witness = False, {"u": float(u), "max_quotient": qmax}
            break
    checks.append(CheckResult("f2_lipschitz", ok, witness))

    # (f3): (p-1) f(u) <= f'(u) (u - u0) above u0
    ok, witness = True, None
    for u in above:
        lhs = (p - 1.0) * nl.f(u)
        rhs = nl.fprime(u) * (u - u0)
        if lhs > rhs + 1e-10 * (1.0 + abs(rhs)):
            ok, witness = False, {"u": float(u), "lhs": lhs, "rhs": rhs}
            break
    checks.append(CheckResult("f3_superlinear", ok, witness))

    # (f4): u f'(u)/f(u) decreasing above u0 (the quotient is singular
    # at u0 itself, where f vanishes, so u0 is excluded)
    quot = np.array([u * nl.fprime(u) / nl.f(u) for u in above])
    j = _strictly_decreasing_violation(quot, tol=1e-10)
    if j is None:
        checks.append(CheckResult("f4_quotient_decreasing", True))
    else:
        checks.append(
            CheckResult(
                "f4_quotient_decreasing",
                False,
                {
                    "u_lo": float(above[j]),
                    "u_hi": float(above[j + 1]),
                    "q_lo": float(quot[j]),
                    "q_hi": float(quot[j + 1]),
                },
            )
        )
    return HypothesisReport(checks, grid)


def check_example_conditions(k, l, N, p):
    """Admissibility of the doubly weighted power example: N+k > p, l >= k-p."""
    if not p > 1:
        raise DomainError("check_example_conditions needs p > 1")
    return (N + k > p) and (l >= k - p)


# ---------------------------------------------------------------------------
# JSON model configs

_WEIGHT_BUILDERS = {
    "matukuma": (matukuma_weight, ("sigma",)),
    "stellar": (stellar_weight, ("sigma",)),
    "power_general": (power_general_weight, ("k", "l", "s", "sigma", "N")),
    "power_log": (power_log_weight, ("theta", "a_exp")),
    "log_gaussian": (log_gaussian_weight, ("theta",)),
    "tabulated": (tabulated_weight, ("r", "K")),
}

_NL_BUILDERS = {
    "power_diff": (power_diff_nonlinearity, ("q1", "q2")),
}


def _is_number(value):
    """A finite real number (bools are not numbers here)."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _build_from_family(table, section, entry):
    if not isinstance(entry, dict):
        raise ConfigError(f"{section} must be an object with family/params")
    extra = set(entry) - {"family", "params"}
    if extra:
        raise ConfigError(f"unknown keys in {section}: {sorted(extra)}")
    family = entry.get("family")
    if family not in table:
        raise ConfigError(
            f"unknown {section} family {family!r}; known: {sorted(table)}"
        )
    builder, names = table[family]
    params = entry.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{section} params must be an object")
    extra = set(params) - set(names)
    if extra:
        raise ConfigError(f"unknown {section} params for {family}: {sorted(extra)}")
    missing = set(names) - set(params)
    if missing:
        raise ConfigError(f"missing {section} params for {family}: {sorted(missing)}")
    for name in names:
        value = params[name]
        if not (_is_number(value) or (isinstance(value, list)
                                      and all(map(_is_number, value)))):
            raise ConfigError(f"{section} param {name!r} of {family} must be a "
                              f"finite number or a list of them, got {value!r}")
    try:
        return builder(*[params[name] for name in names])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {section} params for {family}: {exc}") from exc


def config_number(section, cfg, key, default=None):
    """cfg[key] as a float, or default when the key is absent; anything
    but a finite JSON number is a ConfigError."""
    value = cfg.get(key, default)
    if not _is_number(value):
        raise ConfigError(f"{section} key {key!r} must be a finite number, "
                          f"got {value!r}")
    return float(value)


def model_from_config(cfg):
    """Build a ProblemModel from a parsed JSON config (strict keys)."""
    if not isinstance(cfg, dict):
        raise ConfigError("model config must be a JSON object")
    extra = set(cfg) - {"p", "n", "weight", "nonlinearity"}
    if extra:
        raise ConfigError(f"unknown config keys: {sorted(extra)}")
    for key in ("p", "n", "weight", "nonlinearity"):
        if key not in cfg:
            raise ConfigError(f"missing config key {key!r}")
    params = Parameters(config_number("config", cfg, "p"),
                        config_number("config", cfg, "n"))
    weight = _build_from_family(_WEIGHT_BUILDERS, "weight", cfg["weight"])
    nl = _build_from_family(_NL_BUILDERS, "nonlinearity", cfg["nonlinearity"])
    return ProblemModel(params, weight, nl)


def model_to_config(model):
    """Inverse of model_from_config for serializable families."""
    w, nl = model.weight, model.nonlinearity
    if w.family not in _WEIGHT_BUILDERS:
        raise ConfigError(f"weight family {w.family!r} is not serializable")
    if nl.family not in _NL_BUILDERS:
        raise ConfigError(f"nonlinearity family {nl.family!r} is not serializable")
    return {
        "p": model.p,
        "n": model.n,
        "weight": {"family": w.family, "params": dict(w.params)},
        "nonlinearity": {"family": nl.family, "params": dict(nl.params)},
    }


def load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    return model_from_config(cfg)
