"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from indoorqkd import channel


@pytest.fixture
def quadrature_passes(monkeypatch):
    """Empties the per-room memo, then records each bounce-quadrature pass, a
    ``channel._reflected_gain`` call that computes some FOV, as (its memo key:
    the psi rule order and the theta rule (arcs, nodes per arc), the FOVs in
    degrees that it computes, the indices of the whole psi pieces it sums).  A
    piece is whole when it ends on one of the view's cuts; a partial piece
    ends at a FOV between two cuts.  Every caller reaches the pass through the
    channel module: ``total_reflected_gain``, the sweeps that import it, and
    the convergence report's theta check.
    """
    channel._VIEWS.clear()
    passes, summed = [], []
    piece_sums, reflected_gain = channel._ReceiverView.piece_sums, channel._reflected_gain

    def counting(view, lo, hi, positions, weights, theta_rule):
        summed.extend((np.searchsorted(view.bounds, hi[np.isin(hi, view.bounds)]) - 1).tolist())
        return piece_sums(view, lo, hi, positions, weights, theta_rule)

    def recording(room, *args, **kwargs):
        view = channel._VIEWS.get(channel._room_key(room))
        before = {key: set(table) for key, table in view.integrals.items()} if view else {}
        summed.clear()
        value = reflected_gain(room, *args, **kwargs)
        for key, table in channel._VIEWS[channel._room_key(room)].integrals.items():
            computed = [fov for fov in table if fov not in before.get(key, ())]
            if computed:
                passes.append((key, computed, summed.copy()))
        return value

    monkeypatch.setattr(channel._ReceiverView, "piece_sums", counting)
    monkeypatch.setattr(channel, "_reflected_gain", recording)
    return passes
