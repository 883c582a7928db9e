"""A Dirichlet solution says whether it met |R - R_target| <= tol."""

import json
from pathlib import Path

from plshoot.cli import run
from plshoot.model import load_model
from plshoot.uniqueness import solve_dirichlet

MODELS = Path(__file__).resolve().parents[1] / "perfbench" / "models"


def test_canonical_solution_converges(capsys):
    assert run(["dirichlet", "--config", str(MODELS / "canonical.json"),
                "--radius", "1.2", "--seed", "8"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["converged"] is True
    assert abs(rec["R"] - 1.2) <= 1.2e-9


def test_collapsed_bracket_is_reported(tmp_path, capsys):
    # R(alpha) on the written tabulated model jitters by ~2e-8 over alpha
    # steps of 2e-15, so the bracket collapses before R meets its tol
    out = tmp_path / "tmodel.json"
    assert run(["transform", "--config", str(MODELS / "tabulated.json"),
                "--out", str(out)]) == 0
    sol = solve_dirichlet(load_model(str(out)), 1.2, 8.0)
    assert sol.converged is False
    assert sol.to_record()["converged"] is False
    assert abs(sol.outcome.R - 1.2) > 1.2e-9
