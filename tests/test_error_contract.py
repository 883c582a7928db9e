"""Non-finite and empty inputs end in a DomainError record with exit
code 1, never in a traceback or a result."""

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
    ["classify", "--alpha", "inf"],
    ["integrate", "--alpha", "inf", "--out", "traj.csv"],
    # tol = 1e-9 * R is inf, which took the seed for a solution
    ["dirichlet", "--radius", "inf", "--seed", "8"],
    ["dirichlet", "--radius", "nan", "--seed", "8"],
    ["dirichlet", "--radius", "1.5", "--seed", "8", "--dirichlet-tol", "inf"],
    ["verify", "--samples", "0", *FAST_VERIFY],
    # sampled no heights and passed
    ["verify", "--samples", "-1", *FAST_VERIFY],
], ids=lambda argv: " ".join(argv[:3]))
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
