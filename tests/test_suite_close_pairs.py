"""Check (b) of the verify suite at any bracket width: a pair of heights
too close to show a rise of r0|u'(r0)| above the tolerance is tested
only for not falling, and every pair of the default run is still tested
for a strict rise."""

import json
import pathlib

import numpy as np

import plshoot.uniqueness
from plshoot.cli import run
from plshoot.uniqueness import _STRICT_MARGIN, _T_STRICT, _strict_pairs, verify_suite

CANONICAL = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "models" / "canonical.json"


def test_narrow_bracket_verify_passes(capsys):
    code = run(["verify", "--config", str(CANONICAL), "--tol-alpha", "1e-10"])
    out, _ = capsys.readouterr()
    assert code == 0
    checks = json.loads(out)["suite"]["checks"]
    assert all(c["pass"] for c in checks)


def test_default_run_tests_every_pair_strictly(canonical_model, canonical_bracket,
                                               controls, monkeypatch):
    seen = []

    def recorded(alphas, values):
        strict = _strict_pairs(alphas, values)
        seen.append(strict)
        return strict

    monkeypatch.setattr(plshoot.uniqueness, "_strict_pairs", recorded)
    assert verify_suite(canonical_model, canonical_bracket, controls=controls).passed
    assert len(seen) == 1
    assert len(seen[0]) >= 9 and seen[0].all()


def test_only_a_close_pair_is_exempt():
    # secant slope 1.5: the middle pair expects a rise of 1.5 * gap, which
    # is below _STRICT_MARGIN times its tolerance _T_STRICT * (1 + 2)
    gap = _T_STRICT
    assert 1.5 * gap < _STRICT_MARGIN * _T_STRICT * 3.0
    alphas = [0.0, 1.0, 1.0 + gap, 2.0]
    values = [1.0, 2.0, 2.0, 3.0]
    assert _strict_pairs(alphas, values).tolist() == [True, False, True]


def test_a_non_positive_secant_exempts_no_pair():
    alphas = [0.0, 1e-12, 1.0]
    for values in ([1.0, 1.0, 1.0], [2.0, 2.0, 1.0]):
        assert _strict_pairs(alphas, values).all()
    assert _strict_pairs([1.0], [1.0]).size == 0
    assert np.asarray(_strict_pairs([], [])).size == 0
