"""A ground-state bracket says whether it converged, and how many
midpoints moved it without a certificate."""

import dataclasses

from plshoot import uniqueness
from plshoot.classify import INCONCLUSIVE
from plshoot.uniqueness import find_ground_state


def test_certified_bracket_reports_convergence(canonical_bracket):
    rec = canonical_bracket.to_record()
    assert rec["converged"] is True
    assert rec["uncertified_steps"] == 0


def test_undecided_midpoint_is_reported(canonical_model, controls, monkeypatch):
    # the first midpoint of [3, 6] really crosses (the ground state is
    # near 4.29); reported undecided, it moves lo to 4.5 uncertified, so
    # the certified bracket keeps alpha_lo = 3 and cannot shrink below 1
    real = uniqueness.classify

    def undecided_at_first_midpoint(model, alpha, *args, **kwargs):
        out = real(model, alpha, *args, **kwargs)
        return dataclasses.replace(out, kind=INCONCLUSIVE) if alpha == 4.5 else out

    monkeypatch.setattr(uniqueness, "classify", undecided_at_first_midpoint)
    br = find_ground_state(canonical_model, 3.0, 6.0, 1e-3, controls)
    rec = br.to_record()
    assert rec["converged"] is False
    assert rec["uncertified_steps"] == 1
    assert br.alpha_lo == 3.0
    assert br.width > 1.0
