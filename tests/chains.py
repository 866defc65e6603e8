"""Random chains that several test modules build from a seeded generator."""

import numpy as np

from oscent.models import GeneralizedChain


def random_chain(rng, n, y_scale=0.5):
    """Chain with M = K - Y**2 = a a^T + I/2 for a normal a, so it is stable.

    Y is uniform on [-y_scale, y_scale], drawn even when y_scale is 0; with
    y_scale None, Y is zero and nothing is drawn for it.
    """
    a = rng.normal(size=(n, n))
    m = a @ a.T + 0.5 * np.eye(n)
    y = np.zeros(n) if y_scale is None else rng.uniform(-y_scale, y_scale, size=n)
    return GeneralizedChain(K=m + np.diag(y**2), Y=y)


def dominant_qp_chain(k_off, y, margin=1.0):
    """Chain with the symmetric part of k_off off the diagonal of K and rows
    of M = K - Y**2 diagonally dominant by margin."""
    n = y.size
    k = 0.5 * (k_off + k_off.T)
    np.fill_diagonal(k, 0.0)
    k[np.diag_indices(n)] = np.sum(np.abs(k), axis=1) + margin + y**2
    return GeneralizedChain(K=k, Y=y)


def random_qp_chain(rng, n):
    """A live q-p chain: off-diagonal K in [-1, 1], Y in [-0.5, 0.5], rows of
    M diagonally dominant by 1 (the chain-qp benchmark's recipe)."""
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    return dominant_qp_chain(a, rng.uniform(-0.5, 0.5, size=n))
