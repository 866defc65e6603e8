"""Phase-space covariance matrices of quadratic oscillator systems.

The classical, time-averaged covariance of a stable system in terms of its
normal modes S, frequencies W = diag(omega) and actions I is

    qq = S (I/W) S.T
    qp = -qq Y
    pp = S (I W) S.T + Y qq Y

in (q..., p...) ordering, with Y the diagonal position-momentum coupling.
The quantum ground-state covariance is the same construction evaluated at
actions hbar/2, so classical and quantum results share one code path. Each
matrix carries its common per-mode action, which is what downstream measures
divide out; the ground state is simply the state at action hbar/2.

On the circular lattice the normal modes are Fourier modes, so qq and pp are
circulant and a unit-action state is fixed by their first rows alone
(RingCovariance). Both kinds of state reach the measures through
reduce_modes, which returns the dense reduced CovarianceMatrix either way.
The rows of rings of one size at several spring constants stack along a
leading axis (ring_covariances), and ring_windows cuts the same window out
of every state at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    DimensionTooLargeError,
    EmptySubsystemError,
    IndexOutOfRangeError,
    OverlappingGroupsError,
)
from .models import CircularLattice, NormalModes, _ring_frequency_rows


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """2n x 2n second-moment matrix with its normalization tag.

    ``action`` is the common per-mode action the matrix is proportional to
    (hbar/2 for the quantum ground state). It is None when the actions were
    not uniform, in which case the normalized measures are undefined.
    """

    matrix: np.ndarray
    action: Optional[float] = 1.0

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
            raise ValueError(f"covariance must be 2n x 2n, got shape {m.shape}")
        object.__setattr__(self, "matrix", m)
        if self.action is not None:
            action = float(self.action)
            # Written so that NaN fails too: every comparison with NaN is false.
            if not 0.0 < action < np.inf:
                raise ValueError(
                    f"action must be None or finite and positive, got {self.action!r}")
            object.__setattr__(self, "action", action)

    @property
    def n_modes(self):
        return self.matrix.shape[0] // 2

    @property
    def qq(self):
        n = self.n_modes
        return self.matrix[:n, :n]

    @property
    def qp(self):
        n = self.n_modes
        return self.matrix[:n, n:]

    @property
    def pp(self):
        n = self.n_modes
        return self.matrix[n:, n:]

    def _select(self, idx):
        n = self.n_modes
        sel = np.concatenate([idx, idx + n])
        return self.matrix[np.ix_(sel, sel)]


@dataclass(frozen=True, eq=False)
class RingCovariance:
    """Unit-action classical states of CircularLattices, stored as rows.

    ``cq[..., d]`` and ``cp[..., d]`` are the qq and pp entries between
    sites d apart on the ring; the q-p cross block is zero. A leading axis,
    if present, stacks states of rings of one size (see ring_covariances).
    No N x N matrix is formed, so reductions cost O(m**2) for m kept sites
    whatever the ring size.
    """

    cq: np.ndarray
    cp: np.ndarray
    action = 1.0

    def __post_init__(self):
        cq = np.asarray(self.cq, dtype=float)
        cp = np.asarray(self.cp, dtype=float)
        if cq.shape != cp.shape or cq.ndim not in (1, 2):
            raise ValueError(
                f"ring rows must have the same shape, 1-D or 2-D, got {cq.shape} and {cp.shape}")
        if not (np.all(np.isfinite(cq)) and np.all(np.isfinite(cp))):
            raise ValueError("ring rows must be finite")
        object.__setattr__(self, "cq", cq)
        object.__setattr__(self, "cp", cp)

    @property
    def n_modes(self):
        return self.cq.shape[-1]

    def _blocks(self, idx):
        d = (idx[:, np.newaxis] - idx[np.newaxis, :]) % self.n_modes
        return self.cq[..., d], self.cp[..., d]

    def _select(self, idx):
        qq, pp = self._blocks(idx)
        zero = np.zeros((idx.size, idx.size))
        return np.block([[qq, zero], [zero, pp]])


@dataclass(frozen=True)
class Bipartition:
    """Two disjoint groups of oscillator indices (either may be empty)."""

    group1: tuple = field(default_factory=tuple)
    group2: tuple = field(default_factory=tuple)

    def __post_init__(self):
        g1 = tuple(sorted(int(i) for i in set(self.group1)))
        g2 = tuple(sorted(int(i) for i in set(self.group2)))
        common = set(g1) & set(g2)
        if common:
            raise OverlappingGroupsError(
                f"groups share oscillators {sorted(common)}"
            )
        object.__setattr__(self, "group1", g1)
        object.__setattr__(self, "group2", g2)

    @property
    def members(self):
        return tuple(sorted(self.group1 + self.group2))

    def momentum_signs(self):
        """+1 for group1 modes, -1 for group2, in sorted member order."""
        g2 = set(self.group2)
        return np.array([-1.0 if i in g2 else 1.0 for i in self.members])


def _checked_actions(actions, n):
    actions = np.asarray(actions, dtype=float)
    if actions.shape != (n,):
        raise ValueError(f"actions must have shape ({n},), got {actions.shape}")
    # Written so that NaN fails too: every comparison with NaN is false.
    if not np.all((actions > 0.0) & (actions < np.inf)):
        raise ValueError("all actions must be finite and positive")
    return actions


def _common_action(actions):
    return float(actions[0]) if np.all(actions == actions[0]) else None


def _require_action(cov):
    """The common action of ``cov``, which the normalized measures divide out."""
    if cov.action is None:
        raise ValueError("normalized measures need a uniform-action covariance "
                         "(build it with equal actions)")
    return cov.action


def classical_covariance(modes: NormalModes, actions):
    """Covariance of the classical state with the given per-mode actions.

    Parameters
    ----------
    modes : NormalModes
        From :func:`oscent.models.normal_modes` (stable system).
    actions : array_like
        Finite, positive action per normal mode, length n.

    Returns
    -------
    CovarianceMatrix
        Its action is the common action when uniform, else None.
    """
    s, omegas, ydiag = modes
    actions = _checked_actions(actions, omegas.shape[0])
    qq = (s * (actions / omegas)) @ s.T
    pp_free = (s * (actions * omegas)) @ s.T
    qp = -qq * ydiag[np.newaxis, :]
    pp = pp_free + (ydiag[:, np.newaxis] * qq) * ydiag[np.newaxis, :]
    return CovarianceMatrix(np.block([[qq, qp], [qp.T, pp]]), _common_action(actions))


def _circulant_row(eigenvalues):
    # First rows of the circulant matrices with these Fourier-order
    # eigenvalues (last axis), made exactly even (row[d] == row[N - d]) so
    # that every reduced block is exactly symmetric.
    row = np.fft.ifft(eigenvalues, axis=-1).real
    return 0.5 * (row + np.roll(row[..., ::-1], 1, axis=-1))


def ring_covariances(models):
    """Unit-action classical covariances of rings of one size, as a stack.

    Row d of qq is (1/N) sum_j cos(2 pi j d / N) / omega_j and row d of pp
    the same sum over omega_j; agrees with classical_covariance of the
    ring's normal modes at unit actions to roundoff. Every model is checked
    as by ring_frequencies, and models of different N raise ValueError; the
    rows of all of them come from one cosine table and one inverse FFT per
    block and have shape (len(models), N).
    """
    omegas = _ring_frequency_rows(models)
    return RingCovariance(_circulant_row(1.0 / omegas), _circulant_row(omegas))


def ring_covariance(model: CircularLattice):
    """Unit-action classical covariance of one ring (a stack of one, unstacked)."""
    stack = ring_covariances([model])
    return RingCovariance(stack.cq[0], stack.cp[0])


def ring_windows(ring: RingCovariance, indices):
    """qq and pp blocks of the sites ``indices`` in every state of ``ring``.

    The indices are checked and ordered as by reduce_modes. Each block has
    shape (..., m, m), the rows' leading axes first; the cross block is zero.
    """
    return ring._blocks(_checked_indices(indices, ring.n_modes))


def quantum_ground_covariance(modes: NormalModes, hbar=1.0):
    """Ground-state covariance: the classical build at actions hbar/2."""
    if hbar <= 0.0:
        raise ValueError(f"hbar must be positive, got {hbar}")
    return classical_covariance(modes, np.full(modes.omegas.shape[0], hbar / 2.0))


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


def _checked_indices(indices, n):
    idx = sorted(set(int(i) for i in indices))
    if not idx:
        raise EmptySubsystemError("subsystem selection is empty")
    if idx[0] < 0 or idx[-1] >= n:
        bad = idx[0] if idx[0] < 0 else idx[-1]
        raise IndexOutOfRangeError(f"oscillator index {bad} outside [0, {n})")
    return np.array(idx)


def reduce_modes(cov, indices):
    """Covariance of a subsystem, keeping (q..., p...) ordering.

    ``cov`` is a CovarianceMatrix or a single-state RingCovariance; the
    result is a CovarianceMatrix either way. ``indices`` are 0-based
    oscillator labels; duplicates collapse, order is ascending in the output.
    """
    idx = _checked_indices(indices, cov.n_modes)
    return CovarianceMatrix(cov._select(idx), cov.action)


def partial_transpose(cov: CovarianceMatrix, partition: Bipartition):
    """Flip the sign of the group2 momenta in an already-reduced covariance.

    ``cov`` must be the reduced matrix of exactly the partition's members
    (in ascending order). ``P cov P``, with P the diagonal momentum sign
    pattern, is the Gaussian partial transpose of any covariance, whatever
    its q-p cross block. Applying the same partition twice returns the
    input exactly.
    """
    members = partition.members
    if not members:
        raise EmptySubsystemError("partition selects no oscillators")
    m = cov.n_modes
    if len(members) != m:
        raise ValueError(
            f"covariance holds {m} modes but the partition names {len(members)}"
        )
    signs = np.concatenate([np.ones(m), partition.momentum_signs()])
    flipped = cov.matrix * np.outer(signs, signs)
    return CovarianceMatrix(flipped, cov.action)
