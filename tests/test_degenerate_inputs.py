"""Inputs that cannot be met or that make a check vacuous end in a
DomainError record with exit code 1, never in a traceback or a result."""

import json

import pytest

from plshoot.cli import run

CANONICAL = {
    "p": 2.0,
    "n": 3.0,
    "weight": {"family": "matukuma", "params": {"sigma": 2.0}},
    "nonlinearity": {"family": "power_diff", "params": {"q1": 3.0, "q2": 0.5}},
}

FAST_VERIFY = ["--sweep-count", "16", "--tol-alpha", "1e-6"]


@pytest.mark.parametrize("argv", [
    # a ZeroDivisionError traceback once the solve had run
    ["variational", "--alpha", "5", "--out", "var.csv", "--fd-check", "0"],
    ["variational", "--alpha", "5", "--out", "var.csv", "--fd-check", "nan"],
    # every sample was an endpoint: a false verdict on three checks
    ["verify", "--delta", "0", *FAST_VERIFY],
    ["verify", "--delta", "nan", *FAST_VERIFY],
    # a tolerance that can never be met
    ["dirichlet", "--radius", "1.2", "--seed", "8", "--dirichlet-tol", "-1"],
    ["dirichlet", "--radius", "1.2", "--seed", "8", "--dirichlet-tol", "0"],
], ids=lambda argv: " ".join(argv[:7]))
def test_degenerate_input_is_a_domain_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "model.json").write_text(json.dumps(CANONICAL))
    code = run([argv[0], "--config", "model.json", *argv[1:]])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["code"] == "DomainError"
    assert not (tmp_path / "var.csv").exists()
