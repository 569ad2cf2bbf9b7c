import numpy as np

from polyball import verify
from polyball.verify import RunConfig


def test_vacuum_cyclicity_spans_the_truncation():
    _, gap, tol = verify._id_fock_cyclicity(RunConfig(n=(2, 1), degrees=(3, 2)), None)
    assert gap == tol == 0.0


def test_vacuum_cyclicity_reports_a_dropped_letter(monkeypatch):
    """Without S_12 no word holding the letter 2 in factor 1 is reached, so
    the item reports a positive rank deficit."""
    full = verify.creation_tuple

    def without_s12(trunc, side="left"):
        rows = full(trunc, side)
        return [rows[0][:1]] + rows[1:]

    monkeypatch.setattr(verify, "creation_tuple", without_s12)
    cfg = RunConfig(n=(2, 1), degrees=(3, 2))
    _, gap, tol = verify._id_fock_cyclicity(cfg, None)
    # the words of factor 1 written in the letter 1 alone: one per length
    assert gap == 15 * 3 - 4 * 3
    assert gap > tol
