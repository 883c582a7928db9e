"""Config files that cannot be read and outputs that cannot be written
end in one config_error record with exit code 2, never in a traceback;
the integrate sidecar lands beside its CSV; verify checks its sampling
arguments before it shoots."""

import json

import pytest

import plshoot.cli
from plshoot.cli import run

CANONICAL = {
    "p": 2.0,
    "n": 3.0,
    "weight": {"family": "matukuma", "params": {"sigma": 2.0}},
    "nonlinearity": {"family": "power_diff", "params": {"q1": 3.0, "q2": 0.5}},
}

AB_CONFIG = {
    "p": 2.0,
    "N": 3.0,
    "pair": {"family": "matukuma", "params": {"n": 3.0, "sigma": 2.0}},
    "nonlinearity": {"family": "power_diff", "params": {"q1": 3.0, "q2": 0.5}},
    "grid": {"lo": 1e-3, "hi": 1e3, "points": 40},
}

FAST_VERIFY = ["--sweep-count", "16", "--tol-alpha", "1e-6"]

# every subcommand, with the arguments it needs besides --config
SUBCOMMANDS = {
    "check": [],
    "integrate": ["--alpha", "5", "--out", "traj.csv"],
    "classify": ["--alpha", "5"],
    "ground-state": ["--bracket", "3", "6", "--tol", "1e-8"],
    "dirichlet": ["--radius", "1.2", "--seed", "8"],
    "variational": ["--alpha", "5", "--out", "var.csv"],
    "transform": ["--out", "model.json"],
    "verify": FAST_VERIFY,
}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "model.json").write_text(json.dumps(CANONICAL))
    (tmp_path / "ab.json").write_text(json.dumps(AB_CONFIG))
    return tmp_path


def assert_config_error(code, capsys):
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["code"] == "config_error"
    return json.loads(lines[0])["message"]


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_missing_config_is_a_config_error(command, workdir, capsys):
    code = run([command, "--config", "missing.json", *SUBCOMMANDS[command]])
    message = assert_config_error(code, capsys)
    assert message.startswith("cannot read missing.json")


@pytest.mark.parametrize("command", ["check", "transform"])
def test_config_that_is_not_utf8_is_a_config_error(command, workdir, capsys):
    (workdir / "latin1.json").write_bytes('{"p": 2.0, "note": "é"}'.encode("latin-1"))
    code = run([command, "--config", "latin1.json", *SUBCOMMANDS[command]])
    assert_config_error(code, capsys)


def test_unhashable_family_is_a_config_error(workdir, capsys):
    cfg = {**CANONICAL, "weight": {"family": ["matukuma"], "params": {}}}
    (workdir / "model.json").write_text(json.dumps(cfg))
    assert_config_error(run(["check", "--config", "model.json"]), capsys)


@pytest.mark.parametrize("argv", [
    ["integrate", "--config", "model.json", "--alpha", "5",
     "--out", "nodir/traj.csv"],
    ["classify", "--config", "model.json", "--alpha", "5",
     "--out", "nodir/sweep.csv"],
    ["variational", "--config", "model.json", "--alpha", "5",
     "--out", "nodir/var.csv"],
    ["transform", "--config", "ab.json", "--out", "model_out.json",
     "--map-out", "nodir/map.csv"],
    ["verify", "--config", "model.json", *FAST_VERIFY,
     "--report", "nodir/report.json"],
], ids=lambda argv: argv[0])
def test_output_in_a_missing_directory_is_a_config_error(argv, workdir, capsys):
    message = assert_config_error(run(argv), capsys)
    assert message.startswith("cannot write nodir/")


def test_integrate_sidecar_lands_beside_its_csv(workdir, capsys):
    (workdir / "results.d").mkdir()
    assert run(["integrate", "--config", "model.json", "--alpha", "5",
                "--out", "results.d/traj"]) == 0
    sidecar = json.loads((workdir / "results.d" / "traj.json").read_text())
    assert sidecar["stop_event"] == "u_hit_zero"
    assert not (workdir / "results.json").exists()


def test_verify_rejects_delta_before_the_sweep(workdir, capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("verify swept before checking --delta")

    monkeypatch.setattr(plshoot.cli, "classify_sweep", no_sweep)
    code = run(["verify", "--config", "model.json", "--delta", "0"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert json.loads(err)["code"] == "DomainError"
