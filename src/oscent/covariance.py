"""Phase-space covariance matrices of quadratic oscillator systems.

The classical, time-averaged covariance of a stable system in terms of its
normal modes S, frequencies W = diag(omega) and actions I is

    qq = S (I/W) S.T
    qp = -qq Y
    pp = S (I W) S.T + Y qq Y

in (q..., p...) ordering, with Y the diagonal position-momentum coupling.
The quantum ground-state covariance is the same construction evaluated at
actions hbar/2, so classical and quantum results share one code path. Each
matrix carries a scale tag: the common action value (or hbar), which is what
downstream measures divide out.

On the circular lattice the normal modes are Fourier modes, so qq and pp are
circulant and a unit-action state is fixed by their first rows alone
(RingCovariance). Both kinds of state reach the measures through
reduce_modes, which returns the dense reduced CovarianceMatrix either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    CrossBlockNotZeroError,
    DimensionTooLargeError,
    EmptySubsystemError,
    IndexOutOfRangeError,
    OverlappingGroupsError,
)
from .models import CircularLattice, NormalModes, ring_frequencies

CROSS_BLOCK_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """2n x 2n second-moment matrix with its normalization tag.

    ``kind`` is "classical" or "quantum". For uniform classical actions,
    ``scale`` holds the common action value; for the quantum ground state it
    holds hbar. ``scale`` is None when the actions were not uniform, in which
    case the normalized measures are undefined.
    """

    matrix: np.ndarray
    kind: str = "classical"
    scale: Optional[float] = 1.0

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
            raise ValueError(f"covariance must be 2n x 2n, got shape {m.shape}")
        object.__setattr__(self, "matrix", m)
        if self.kind not in ("classical", "quantum"):
            raise ValueError(f"kind must be 'classical' or 'quantum', got {self.kind!r}")

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

    @property
    def action_scale(self):
        """Per-mode action this matrix is proportional to: c, or hbar/2."""
        if self.scale is None:
            return None
        return 0.5 * self.scale if self.kind == "quantum" else self.scale

    def _select(self, idx):
        n = self.n_modes
        sel = np.concatenate([idx, idx + n])
        return self.matrix[np.ix_(sel, sel)]

    def write_csv(self, path):
        """Row-major CSV dump, 17 significant digits, LF line endings."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for row in self.matrix:
                fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


@dataclass(frozen=True, eq=False)
class RingCovariance:
    """Unit-action classical state of a CircularLattice, stored as rows.

    ``cq[d]`` and ``cp[d]`` are the qq and pp entries between sites d apart
    on the ring; the q-p cross block is zero. No N x N matrix is formed, so
    reductions cost O(m**2) for m kept sites whatever the ring size.
    """

    cq: np.ndarray
    cp: np.ndarray
    kind = "classical"
    scale = 1.0

    @property
    def n_modes(self):
        return self.cq.shape[0]

    def _select(self, idx):
        d = (idx[:, np.newaxis] - idx[np.newaxis, :]) % self.n_modes
        zero = np.zeros((idx.size, idx.size))
        return np.block([[self.cq[d], zero], [zero, self.cp[d]]])


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


def _uniform_scale(actions):
    return float(actions[0]) if np.all(actions == actions[0]) else None


def classical_covariance(modes: NormalModes, actions):
    """Covariance of the classical state with the given per-mode actions.

    Parameters
    ----------
    modes : NormalModes
        From :func:`oscent.models.normal_modes` (stable system).
    actions : array_like
        Positive action per normal mode, length n.

    Returns
    -------
    CovarianceMatrix
        Tagged "classical"; scale is the common action when uniform.
    """
    s, omegas, ydiag = modes
    actions = np.asarray(actions, dtype=float)
    n = omegas.shape[0]
    if actions.shape != (n,):
        raise ValueError(f"actions must have shape ({n},), got {actions.shape}")
    if np.any(actions <= 0.0):
        raise ValueError("all actions must be positive")
    qq = (s * (actions / omegas)) @ s.T
    pp_free = (s * (actions * omegas)) @ s.T
    qp = -qq * ydiag[np.newaxis, :]
    pp = pp_free + (ydiag[:, np.newaxis] * qq) * ydiag[np.newaxis, :]
    top = np.hstack([qq, qp])
    bottom = np.hstack([qp.T, pp])
    return CovarianceMatrix(np.vstack([top, bottom]), "classical", _uniform_scale(actions))


def _circulant_row(eigenvalues):
    # First row of the circulant matrix with these Fourier-order
    # eigenvalues, made exactly even (row[d] == row[N - d]) so that every
    # reduced block is exactly symmetric.
    row = np.fft.ifft(eigenvalues).real
    return 0.5 * (row + np.roll(row[::-1], 1))


def ring_covariance(model: CircularLattice):
    """Unit-action classical covariance of a ring from its closed form.

    Row d of qq is (1/N) sum_j cos(2 pi j d / N) / omega_j and row d of pp
    the same sum over omega_j; agrees with classical_covariance of the
    ring's normal modes at unit actions to roundoff.
    """
    omegas = ring_frequencies(model)
    return RingCovariance(_circulant_row(1.0 / omegas), _circulant_row(omegas))


def quantum_ground_covariance(modes: NormalModes, hbar=1.0):
    """Ground-state covariance: the classical build at actions hbar/2."""
    if hbar <= 0.0:
        raise ValueError(f"hbar must be positive, got {hbar}")
    n = modes.omegas.shape[0]
    classical = classical_covariance(modes, np.full(n, hbar / 2.0))
    return CovarianceMatrix(classical.matrix, "quantum", float(hbar))


def angle_average_covariance(modes: NormalModes, actions, grid_points=64):
    """Covariance by brute-force averaging over the mode angles.

    Samples the exact trajectory parametrization on a uniform tensor grid of
    ``grid_points`` angles per mode and averages the second moments. Uniform
    grids integrate trigonometric polynomials below the grid order exactly,
    so for ``grid_points >= 16`` this matches the analytic covariance to
    roundoff. Cost grows as ``grid_points**n``; refuses n > 4.
    """
    s, omegas, ydiag = modes
    actions = np.asarray(actions, dtype=float)
    n = omegas.shape[0]
    if n > 4:
        raise DimensionTooLargeError(
            f"angle averaging is exponential in modes; {n} > 4"
        )
    if grid_points < 16:
        raise ValueError(f"need at least 16 grid points per angle, got {grid_points}")
    if actions.shape != (n,):
        raise ValueError(f"actions must have shape ({n},), got {actions.shape}")
    if np.any(actions <= 0.0):
        raise ValueError("all actions must be positive")

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
    return CovarianceMatrix(0.5 * (cov + cov.T), "classical", _uniform_scale(actions))


def reduce_modes(cov, indices):
    """Covariance of a subsystem, keeping (q..., p...) ordering.

    ``cov`` is a CovarianceMatrix or a RingCovariance; the result is a
    CovarianceMatrix either way. ``indices`` are 0-based oscillator labels;
    duplicates collapse, order is ascending in the output.
    """
    idx = sorted(set(int(i) for i in indices))
    if not idx:
        raise EmptySubsystemError("subsystem selection is empty")
    n = cov.n_modes
    if idx[0] < 0 or idx[-1] >= n:
        bad = idx[0] if idx[0] < 0 else idx[-1]
        raise IndexOutOfRangeError(f"oscillator index {bad} outside [0, {n})")
    return CovarianceMatrix(cov._select(np.array(idx)), cov.kind, cov.scale)


def partial_transpose(cov: CovarianceMatrix, partition: Bipartition):
    """Flip the sign of the group2 momenta in an already-reduced covariance.

    ``cov`` must be the reduced matrix of exactly the partition's members
    (in ascending order) and must have a vanishing q-p cross block, since a
    momentum sign flip only maps covariances to covariances in that case.
    Applying the same partition twice returns the input exactly.
    """
    members = partition.members
    if not members:
        raise EmptySubsystemError("partition selects no oscillators")
    m = cov.n_modes
    if len(members) != m:
        raise ValueError(
            f"covariance holds {m} modes but the partition names {len(members)}"
        )
    scale = float(np.max(np.abs(cov.matrix)))
    if float(np.max(np.abs(cov.qp))) > CROSS_BLOCK_RTOL * scale:
        raise CrossBlockNotZeroError(
            "q-p cross block must vanish for a momentum-sign partial transpose"
        )
    signs = np.concatenate([np.ones(m), partition.momentum_signs()])
    flipped = cov.matrix * np.outer(signs, signs)
    return CovarianceMatrix(flipped, cov.kind, cov.scale)
