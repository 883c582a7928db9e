"""Digests of plshoot's outputs, for checking that a change moves no bit.

    python tools/byte_identity.py [--root CHECKOUT] [--trajectories] [--check]

Runs a fixed list of CLI commands against CHECKOUT/src (default: the
checkout holding this script), each in a fresh subprocess and a fresh
working directory holding copies of the benchmark model configs, and
prints one line per artifact: the command, the stream or file, its
sha256 and its size in bytes.  With --trajectories it instead prints
digests of trajectory nodes, refined startup grids, 57 dense `eval`s
and the variational state on the four benchmark models at
alpha in {1.05, 3, 5, 40}.  The first line names the toolchain.

Run it on two checkouts and diff the listings; identical listings mean
byte-identical outputs.  --check diffs the listing against the committed
one, byte_identity.golden or byte_identity.traj.golden next to this
script, and exits 1 if a line moved; on a toolchain other than the
golden file's it says so and exits 0 without running anything.  To
renew a golden file, redirect the listing into it.  It needs nothing
beyond plshoot's own dependencies.
"""

import argparse
import contextlib
import difflib
import hashlib
import io
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

MODELS = ("canonical", "log_gaussian", "matukuma_p15", "matukuma_p3")
ALPHAS = (1.05, 3.0, 5.0, 40.0)
CLI = "import sys; from plshoot.cli import run; sys.exit(run(sys.argv[1:]))"


def _cfg(name):
    return ["--config", f"{name}.json"]


# (label, argv lists run in order in one working directory)
COMMANDS = (
    [(f"check {m}", [["check", *_cfg(m)]]) for m in ("canonical", "log_gaussian")]
    + [(f"integrate --alpha 5 {m}",
        [["integrate", *_cfg(m), "--alpha", "5", "--out", "traj.csv"]])
       for m in MODELS]
    + [
        ("classify --alpha 5", [["classify", *_cfg("canonical"), "--alpha", "5"]]),
        ("classify sweep", [["classify", *_cfg("canonical"), "--alpha-range",
                             "1.01:50:64", "--out", "sweep.csv", "--threads", "1"]]),
        ("ground-state canonical", [["ground-state", *_cfg("canonical"),
                                     "--bracket", "3", "6", "--tol", "1e-8"]]),
        ("ground-state log_gaussian", [["ground-state", *_cfg("log_gaussian"),
                                        "--bracket", "2", "6", "--tol", "1e-9"]]),
    ]
    + [(f"dirichlet --radius {R} --seed 8{' --out' if out else ''}",
        [["dirichlet", *_cfg("canonical"), "--radius", R, "--seed", "8"]
         + (["--out", "dirichlet.json"] if out else [])])
       for R in ("0.8", "1.2", "1.5", "3", "100") for out in (False, True)]
    + [
        ("dirichlet --radius 1.5 --seed 2", [["dirichlet", *_cfg("canonical"),
                                              "--radius", "1.5", "--seed", "2"]]),
        ("verify", [["verify", *_cfg("canonical")]]),
        ("verify --report", [["verify", *_cfg("canonical"), "--report", "report.json"]]),
        ("verify repro bracket", [["verify", *_cfg("canonical"),
                                   "--alpha-lo", "1.0109568531599273",
                                   "--alpha-hi", "50.383872060048304"]]),
        ("transform, then dirichlet on its output", [
            ["transform", *_cfg("tabulated"), "--out", "tmodel.json",
             "--map-out", "map.csv"],
            ["dirichlet", "--config", "tmodel.json", "--radius", "1.2",
             "--seed", "8", "--out", "dirichlet.json"],
        ]),
    ]
    + [(f"variational --alpha 5 {m}",
        [["variational", *_cfg(m), "--alpha", "5", "--out", "var.csv"]])
       for m in ("canonical", "log_gaussian")]
    + [("variational --fd-check 1e-4 log_gaussian",
        [["variational", *_cfg("log_gaussian"), "--alpha", "5", "--out", "var.csv",
          "--fd-check", "1e-4"]])]
    # degenerate inputs, each expected to end in a DomainError record
    + [(" ".join(argv), [[argv[0], *_cfg("canonical"), *argv[1:]]]) for argv in (
        ["classify", "--alpha", "inf"],
        ["integrate", "--alpha", "inf", "--out", "traj.csv"],
        ["dirichlet", "--radius", "inf", "--seed", "8"],
        ["dirichlet", "--radius", "nan", "--seed", "8"],
        ["verify", "--samples", "0"],
        ["verify", "--samples", "-1"],
        ["verify", "--delta", "0"],
        ["verify", "--delta", "nan"],
        ["dirichlet", "--radius", "1.2", "--seed", "8", "--dirichlet-tol", "-1"],
        ["variational", "--alpha", "5", "--out", "var.csv", "--fd-check", "0"],
    )]
    # an unreadable config and an unwritable output, each a config_error record
    + [
        ("check missing.json", [["check", "--config", "missing.json"]]),
        ("integrate --out nodir/traj.csv",
         [["integrate", *_cfg("canonical"), "--alpha", "5",
           "--out", "nodir/traj.csv"]]),
    ]
)


def digest(data):
    return f"{hashlib.sha256(data).hexdigest()} {len(data)}"


def run_commands(root):
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    configs = sorted((root / "perfbench" / "models").glob("*.json"))
    for label, argvs in COMMANDS:
        with tempfile.TemporaryDirectory() as work:
            for cfg in configs:
                shutil.copy(cfg, work)
            inputs = set(os.listdir(work))
            for k, argv in enumerate(argvs):
                proc = subprocess.run([sys.executable, "-c", CLI, *argv], cwd=work,
                                      env=env, capture_output=True)
                tag = f"{label} [{k}]" if len(argvs) > 1 else label
                print(f"{tag} | exit {proc.returncode}")
                print(f"{tag} | stdout {digest(proc.stdout)}")
                print(f"{tag} | stderr {digest(proc.stderr)}")
            for name in sorted(set(os.listdir(work)) - inputs):
                print(f"{label} | file {name} {digest(Path(work, name).read_bytes())}")


def _floats(values):
    import numpy as np

    return digest(np.ascontiguousarray(values, dtype=float).tobytes())


def run_trajectories(root):
    sys.path.insert(0, str(root / "src"))
    import numpy as np

    from plshoot.errors import PlshootError
    from plshoot.model import load_model
    from plshoot.shoot import integrate_ivp
    from plshoot.variational import solve_variational

    for name in MODELS:
        model = load_model(str(root / "perfbench" / "models" / f"{name}.json"))
        for alpha in ALPHAS:
            tag = f"{name} alpha={alpha}"
            traj = integrate_ivp(model, alpha)
            st = traj.startup
            print(f"{tag} | stop {traj.stop_event} r0 {traj.r0!r} du_r0 {traj.du_r0!r}")
            print(f"{tag} | nodes {_floats([traj.r, traj.u, traj.du, traj.m])}")
            print(f"{tag} | startup {_floats([st.r_grid, st.u_grid, st.m_grid])}")
            # 41 even radii over [0, R], 9 inside the startup region and
            # 7 around r0 (or R): 57 dense evaluations
            r_end = traj.r0 if traj.r0 is not None else traj.R
            radii = np.concatenate((np.linspace(0.0, traj.R, 41),
                                    st.r1 * np.geomspace(1e-8, 1.0, 9),
                                    r_end * (1.0 + np.linspace(-3e-3, 0.0, 7))))
            print(f"{tag} | eval {_floats([traj.eval(float(r)) for r in radii])}")
            try:
                state = solve_variational(model, traj)
            except PlshootError as exc:
                print(f"{tag} | variational {type(exc).__name__}")
                continue
            print(f"{tag} | variational "
                  f"{_floats([state.r, state.phi, state.dphi, state.theta])}")


def toolchain():
    import numpy
    import scipy

    return (f"# python {platform.python_version()} numpy {numpy.__version__} "
            f"scipy {scipy.__version__} {platform.machine()}")


def check(listing, golden):
    """Diff a listing (a callable printing it) against a golden file."""
    expected = golden.read_text().splitlines()
    if expected[0] != toolchain():
        print(f"skipped: {golden.name} was made with {expected[0][2:]}, "
              f"this is {toolchain()[2:]}")
        return 0
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        listing()
    diff = list(difflib.unified_diff(expected[1:], out.getvalue().splitlines(),
                                     golden.name, "this checkout", lineterm=""))
    print("\n".join(diff) if diff else f"identical to {golden.name}")
    return 1 if diff else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parents[1],
                        help="checkout whose src/ is run (default: this one)")
    parser.add_argument("--trajectories", action="store_true",
                        help="digest trajectories instead of CLI outputs")
    parser.add_argument("--check", action="store_true",
                        help="diff the listing against the committed golden file")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    run = run_trajectories if args.trajectories else run_commands
    if args.check:
        suffix = ".traj.golden" if args.trajectories else ".golden"
        return check(lambda: run(root), Path(__file__).with_suffix(suffix))
    print(toolchain())
    run(root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
