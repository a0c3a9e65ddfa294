"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from indoorqkd import channel, experiments


@pytest.fixture
def quadrature_passes(monkeypatch):
    """Empties the per-room memo, then records each bounce-quadrature pass, a
    ``total_reflected_gain`` call that computes some FOV, as (rule order, the
    FOVs in degrees that it computes, the indices of the whole psi pieces it
    sums).  A piece is whole when it ends on one of the view's cuts; a partial
    piece ends at a FOV between two cuts.
    """
    channel._VIEWS.clear()
    passes, summed = [], []
    piece_sums, total_reflected_gain = channel._ReceiverView.piece_sums, channel.total_reflected_gain

    def counting(view, lo, hi, positions, weights):
        summed.extend((np.searchsorted(view.bounds, hi[np.isin(hi, view.bounds)]) - 1).tolist())
        return piece_sums(view, lo, hi, positions, weights)

    def recording(room, *args, **kwargs):
        view = channel._VIEWS.get(channel._room_key(room))
        before = {order: set(table) for order, table in view.integrals.items()} if view else {}
        summed.clear()
        value = total_reflected_gain(room, *args, **kwargs)
        for order, table in channel._VIEWS[channel._room_key(room)].integrals.items():
            computed = [fov for fov in table if fov not in before.get(order, ())]
            if computed:
                passes.append((order, computed, summed.copy()))
        return value

    monkeypatch.setattr(channel._ReceiverView, "piece_sums", counting)
    # the CLI reaches the quadrature through the channel module, the sweeps through experiments
    monkeypatch.setattr(channel, "total_reflected_gain", recording)
    monkeypatch.setattr(experiments, "total_reflected_gain", recording)
    return passes
