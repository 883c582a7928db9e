"""Every output path is checked before the first shot: an unwritable
--report or --out ends in one config_error record with no work done,
and a command that fails leaves no file that was not there before."""

import importlib
import json

import pytest

from plshoot.cli import run

# the modules that call integrate_ivp (plshoot.classify names a function)
SHOOTING_MODULES = [importlib.import_module(f"plshoot.{name}")
                    for name in ("cli", "classify", "variational")]

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


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "model.json").write_text(json.dumps(CANONICAL))
    (tmp_path / "ab.json").write_text(json.dumps(AB_CONFIG))
    return tmp_path


@pytest.fixture
def shots(monkeypatch):
    """Counts integrate_ivp calls through every module that shoots."""
    calls = []
    real = SHOOTING_MODULES[0].integrate_ivp

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    for module in SHOOTING_MODULES:
        monkeypatch.setattr(module, "integrate_ivp", counted)
    return calls


@pytest.mark.parametrize("argv", [
    ["verify", "--config", "model.json", "--report", "nodir/r.json"],
    ["integrate", "--config", "model.json", "--alpha", "5",
     "--out", "nodir/traj.csv"],
    ["classify", "--config", "model.json", "--alpha-range", "1.01:50:8",
     "--out", "nodir/sweep.csv"],
    ["variational", "--config", "model.json", "--alpha", "5",
     "--out", "nodir/var.csv"],
    ["dirichlet", "--config", "model.json", "--radius", "1.2", "--seed", "8",
     "--out", "nodir/traj.csv"],
], ids=lambda argv: argv[0])
def test_unwritable_output_stops_before_the_first_shot(argv, workdir, shots, capsys):
    code = run(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["code"] == "config_error"
    assert shots == []


def test_transform_leaves_no_partial_result(workdir, capsys):
    code = run(["transform", "--config", "ab.json", "--out", "t.json",
                "--map-out", "nodir/map.csv"])
    assert code == 2
    assert not (workdir / "t.json").exists()


def test_failed_verify_leaves_no_report(workdir, capsys):
    # the sweep holds no Positive -> Crossing transition: DomainError
    argv = ["verify", "--config", "model.json", "--alpha-lo", "6",
            "--alpha-hi", "9", "--sweep-count", "4", "--report", "r.json"]
    assert run(argv) == 1
    assert not (workdir / "r.json").exists()
    (workdir / "r.json").write_text("earlier report\n")
    assert run(argv) == 1
    assert (workdir / "r.json").read_text() == "earlier report\n"
