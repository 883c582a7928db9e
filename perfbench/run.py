"""plshoot benchmark: seeded shooting workloads in one command.

    python3 perfbench/run.py --workload verify-r --seed 1 --seconds 55 --trace 0

Run from the root of a checkout.  With --trace 0 the worker process is
started several times to time set-up (process start to models ready);
the last one then runs the workload untraced for --seconds.  With
--trace 1 one worker runs each operation untraced and traced and reports
the per-layer figures.  A readable report comes first; the last line of
stdout is one JSON object with correct, attempted, failed and metrics,
named and with units as in BENCHMARK.json.  RATIONALE.md explains the
workloads and metrics.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

SETUP_SAMPLES = 3  # set-ups per untraced run; setup_s is their median
DEADLINE_S = 170.0  # the whole command, set-ups included


class BenchError(Exception):
    pass


def spawn(args, setup_only, deadline):
    """Run one worker; returns (setup seconds, RESULT payload or None)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker did not finish before the deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    ready = result = None
    for line in out.splitlines():
        if line.startswith("READY "):
            ready = json.loads(line[6:])["t"]
        elif line.startswith("RESULT "):
            result = json.loads(line[7:])
    if ready is None or (result is None and not setup_only):
        raise BenchError("worker output lacks its READY or RESULT line")
    return ready - start, result


def metric_values(args, spec, setups, res):
    if args.trace:
        values = dict(res["layers"])
    else:
        values = {name: s["median"] for name, s in res["end_to_end"].items()}
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = res["peak_rss_mb"]
    metrics = {}
    for m in spec[args.trace_key]:
        value = values.get(m["name"])
        if value is None:
            raise BenchError(f"no value for metric {m['name']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


# the names each workload's own figures go by
ROLES = {
    "verify": {"op": "verify_s", "shots": "sweep", "root": "ground_state_s",
               "dense": "suite_s"},
    "derive": {"op": "derive_s", "shots": "base shots", "root": "dirichlet_s",
               "dense": "variational stage"},
}


def fmt_summary(s):
    text = f"median {s['median']:.6g}  n={s['n']}"
    if "high" in s:
        text += f"  p{s['percentile']:.0f} {s['high']:.6g}"
    else:
        text += "  (too few samples for a percentile above the median)"
    return text


def report(args, res, metrics, setups):
    meta = res["meta"]
    print(f"plshoot benchmark  workload={args.workload}  seed={args.seed}  "
          f"trace={args.trace}")
    print(f"  inputs digest {meta['inputs_digest']}  operations {res['operations']}"
          f"  measured {res['measured_s']:.1f} s")
    print(f"  commit {meta['git_commit']}  python {meta['python']}  numpy "
          f"{meta['numpy']}  scipy {meta['scipy']}")
    print(f"  nproc {meta['nproc']}  cpu {meta['cpu']}  sweep threads {meta['threads']}")
    print(f"  hypotheses {json.dumps(meta['hypotheses'])}")
    frac = res["failed"] / res["attempted"] if res["attempted"] else 0.0
    print(f"  failed_frac {frac:.6g} ({res['failed']}/{res['attempted']})")
    for reason, count in res["failures"].items():
        print(f"    {count} x {reason}")
    if args.trace:
        print(f"  traced op_s {res['traced_op_s']:.6g} s; tracing overhead "
              f"{res['layers']['trace.overhead_s']:.6g} s; {res['spans']} spans "
              f"written to {res['spans_file']}")
        pct = res["shot_ms_percentile"]
        print(f"  integrate_ivp ms: n={pct['n']}"
              + (f", ms_hi is p{pct['percentile']:.0f}" if "percentile" in pct else ""))
    else:
        roles = ROLES["derive" if args.workload == "derive-tab" else "verify"]
        e2e = res["end_to_end"]
        print(f"  setup_s: {len(setups)} set-ups: "
              + " ".join(f"{s:.4g}" for s in setups))
        print(f"  reference computation ms: {fmt_summary(e2e['reference_ms'])}")
        for role, raw, ref in (("op", "op_s", "op_ref"),
                               ("shots", "shots_per_s", "shot_ref"),
                               ("root", "root_s", "root_ref"),
                               ("dense", "dense_s", "dense_ref")):
            print(f"  {roles[role]}: {raw} {fmt_summary(e2e[raw])}")
            print(f"  {' ' * len(roles[role])}  {ref} {fmt_summary(e2e[ref])}")
        if res["variational_ms"]:
            print(f"  variational_ms (per solve_variational + alpha_derivatives): "
                  f"{fmt_summary(res['variational_ms'])}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.trace_key = "per_layer" if args.trace else "end_to_end"

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise BenchError(f"unknown workload {args.workload!r}")
        if not (ROOT / "src" / "plshoot" / "__init__.py").is_file():
            raise BenchError("no plshoot sources under src/ in this checkout")
        deadline = time.monotonic() + DEADLINE_S
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(spawn(args, True, deadline)[0])
        setup, res = spawn(args, False, deadline)
        setups.append(setup)
        metrics = metric_values(args, spec, setups, res)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    report(args, res, metrics, setups)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
