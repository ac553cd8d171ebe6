"""Shared test helpers."""

import numpy as np

from targetopt.losses import effective_labels
from targetopt.surrogates import build_stochastic, freeze


def stochastic(loss, model, ds, theta_t, idx, eta, variant="smoothness", counter=None):
    """The stochastic surrogate on the rows `idx` of `ds`, frozen at theta_t."""
    idx = np.asarray(idx, dtype=int)
    batch = freeze(loss, model, theta_t, ds.X[idx], effective_labels(ds)[idx], counter)
    return build_stochastic(loss, batch, eta, variant)
