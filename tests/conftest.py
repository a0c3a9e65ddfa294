"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from indoorqkd import channel


@pytest.fixture
def quadrature_passes(monkeypatch):
    """Empties the per-room memo, then records each bounce-quadrature pass as
    (rule order, the FOVs in degrees that it computes).

    A pass sums the whole psi pieces below the widest FOV's cut, then one
    partial piece per FOV, ending at it; the passes of these tests fit one
    ``piece_sums`` block.
    """
    channel._VIEWS.clear()
    passes = []
    piece_sums = channel._ReceiverView.piece_sums

    def counting(view, lo, hi, positions, weights):
        whole = int(np.searchsorted(view.bounds, hi.max(), side="right")) - 1
        passes.append((len(positions), np.degrees(hi[whole:]).round(9).tolist()))
        return piece_sums(view, lo, hi, positions, weights)

    monkeypatch.setattr(channel._ReceiverView, "piece_sums", counting)
    return passes
