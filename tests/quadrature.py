"""The quadrature oracle: covariances by brute-force averaging over mode angles.

It shares no arithmetic with classical_covariance beyond the normal modes, so
the tests hold the analytic covariance and the measures built on it against
it. Its cost grows as grid_points**n, so it refuses more than four modes.
"""

import numpy as np

from oscent.covariance import CovarianceMatrix, _checked_actions, _common_action
from oscent.models import NormalModes


class DimensionTooLargeError(ValueError):
    """The requested brute-force computation is too large to be exact."""


def angle_average_covariance(modes: NormalModes, actions, grid_points=64):
    """Covariance by brute-force averaging over the mode angles.

    Samples the exact trajectory parametrization on a uniform tensor grid of
    ``grid_points`` angles per mode and averages the second moments. Uniform
    grids integrate trigonometric polynomials below the grid order exactly,
    so for ``grid_points >= 16`` this matches the analytic covariance to
    roundoff. Cost grows as ``grid_points**n``; refuses n > 4.
    """
    s, omegas, ydiag = modes
    n = omegas.shape[0]
    if n > 4:
        raise DimensionTooLargeError(
            f"angle averaging is exponential in modes; {n} > 4"
        )
    if not isinstance(grid_points, (int, np.integer)):
        raise ValueError(f"grid_points must be an integer, got {grid_points!r}")
    if grid_points < 16:
        raise ValueError(f"need at least 16 grid points per angle, got {grid_points}")
    actions = _checked_actions(actions, n)

    phi = 2.0 * np.pi * np.arange(grid_points) / grid_points
    amp_q = np.sqrt(2.0 * actions / omegas)
    amp_p = np.sqrt(2.0 * actions * omegas)

    # Accumulate second moments chunk by chunk along the first angle axis,
    # in fixed order, so the reduction is deterministic.
    second = np.zeros((2 * n, 2 * n))
    first = np.zeros(2 * n)
    total = grid_points**n
    for i0 in range(grid_points):
        grids = np.meshgrid(*([phi[i0 : i0 + 1]] + [phi] * (n - 1)), indexing="ij")
        angles = np.stack([g.reshape(-1) for g in grids])  # (n, pts)
        sin_a = np.sin(angles)
        cos_a = np.cos(angles)
        q = s @ (amp_q[:, np.newaxis] * sin_a)
        p = s @ (amp_p[:, np.newaxis] * cos_a) - ydiag[:, np.newaxis] * q
        r = np.vstack([q, p])
        second += r @ r.T
        first += r.sum(axis=1)
    mean = first / total
    cov = second / total - np.outer(mean, mean)
    return CovarianceMatrix(0.5 * (cov + cov.T), _common_action(actions))
