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
circulant and a unit-action state is fixed by their first rows alone. A
RingCovariance holds the rows of rings of one size, one state per model,
and ring_windows cuts the same window out of every state at once.
reduce_modes reduces a dense CovarianceMatrix.
"""

from __future__ import annotations

import operator
from dataclasses import InitVar, dataclass, field
from typing import Iterable, Optional

import numpy as np

from .errors import (
    EmptySubsystemError,
    IndexOutOfRangeError,
    OverlappingGroupsError,
)
from .linalg import _spectrum_posdef, require_symmetric
from .models import CircularLattice, NormalModes, _ring_frequency_rows


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """2n x 2n second-moment matrix with its normalization tag.

    ``matrix`` is kept as a read-only C-contiguous float view: a
    C-contiguous float array passed in is shared, not copied, so the state
    sees any later change the caller makes through its own array, and
    anything else is converted once. Copy it before changing it.

    ``action`` is the common per-mode action the matrix is proportional to
    (hbar/2 for the quantum ground state). It is None when the actions were
    not uniform, in which case the normalized measures are undefined.

    The private keyword ``_certified`` vouches for three facts about this
    matrix and every reduction of it:

    * the matrix is exactly symmetric;
    * its cross block is the local shear ``qp = -qq Y`` of the Y read from
      its diagonals, ``y_j = -qp_jj / qq_jj`` (a zero block is the shear of
      Y = 0);
    * ``qq`` passes the block-product kernel's positive-definiteness test
      with room for roundoff (linalg._spectrum_posdef).

    Its reports then skip the symmetry, scale and shear scans and the
    kernel's eigenvalue test (see linalg._unsheared_blocks). Only states
    built from normal modes (classical_covariance) and their reductions set
    it.

    The private keyword ``_pure`` vouches that the matrix is a whole state
    built from normal modes at one common action. Such a state is pure by
    construction, whatever its conditioning: every normalized symplectic
    width is exactly 1/2 and its purity exactly 1, so its reports take
    those values without a solve (see measures.sigma_tilde). Only
    classical_covariance sets it, when the actions are uniform; reduce_modes
    keeps it only by returning the state itself, when it keeps every mode.
    """

    matrix: np.ndarray
    action: Optional[float] = 1.0
    _certified: bool = field(default=False, kw_only=True, repr=False)
    _pure: bool = field(default=False, kw_only=True, repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
            raise ValueError(f"covariance must be 2n x 2n, got shape {m.shape}")
        if not m.size:
            raise EmptySubsystemError("covariance is 0 x 0: it holds no modes")
        # A view, so that making it read-only leaves the caller's array writable.
        m = np.ascontiguousarray(m).view()
        m.flags.writeable = False
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


def _circulant_row(eigenvalues):
    # First rows of the circulant matrices with these Fourier-order
    # eigenvalues (last axis), made exactly even (row[d] == row[N - d]) so
    # that every reduced block is exactly symmetric.
    row = np.fft.ifft(eigenvalues, axis=-1).real
    return 0.5 * (row + np.concatenate([row[..., :1], row[..., :0:-1]], axis=-1))


@dataclass(frozen=True, eq=False)
class RingCovariance:
    """Unit-action classical states of CircularLattices of one size, as rows.

    ``models``, one or more in any iterable, is read once in order (see
    models._ring_frequency_rows). The qq entry between sites d apart in the
    state of model s is ``c0[s] + cq[s, d]`` and its pp entry is
    ``cp[s, d]``; the rows have shape (number of models, N) and the q-p
    cross block is zero. The zero mode's constant c0 = 1 / (N omega_0) is
    kept apart from row d of the other modes, (1/N) sum_{j != 0}
    cos(2 pi j d / N) / omega_j, so that a difference of two qq entries
    holds no c0 to cancel (see _mirror_windows); cp[s, d] is the same sum
    over every omega_j. The rows come from one cosine table and one batched
    inverse FFT and agree with classical_covariance of each ring's normal
    modes at unit actions to roundoff. No N x N matrix is formed, so a
    window of m sites costs O(m**2) whatever the ring size.

    Both rows are exactly even, so every window is exactly symmetric.
    ``_certified`` is set when the circulant spectrum 1 / omega that the qq
    rows are built from shows that every window of every state passes the
    block-product kernel's positive-definiteness test
    (linalg._spectrum_posdef); it carries the guarantees of
    ``CovarianceMatrix._certified`` over to every window.
    """

    models: InitVar[Iterable[CircularLattice]]
    c0: np.ndarray = field(init=False)
    cq: np.ndarray = field(init=False)
    cp: np.ndarray = field(init=False)
    _certified: bool = field(init=False, repr=False)
    action = 1.0

    def __post_init__(self, models):
        omegas = _ring_frequency_rows(models)
        inverse = 1.0 / omegas
        object.__setattr__(self, "_certified", _spectrum_posdef(inverse))
        object.__setattr__(self, "c0", inverse[:, 0] / omegas.shape[-1])
        inverse[:, 0] = 0.0
        cq, cp = _circulant_row(np.stack([inverse, omegas]))   # one transform for both
        object.__setattr__(self, "cq", cq)
        object.__setattr__(self, "cp", cp)
        for rows in (self.c0, cq, cp):   # its own arrays, so no view is needed
            rows.flags.writeable = False

    @property
    def n_modes(self):
        return self.cq.shape[-1]


@dataclass(frozen=True)
class Bipartition:
    """Two disjoint groups of oscillator indices (either may be empty)."""

    group1: tuple = field(default_factory=tuple)
    group2: tuple = field(default_factory=tuple)

    def __post_init__(self):
        s1, s2 = _index_set(self.group1), _index_set(self.group2)
        common = s1 & s2
        if common:
            raise OverlappingGroupsError(
                f"groups share oscillators {sorted(common)}"
            )
        g1, g2 = tuple(sorted(s1)), tuple(sorted(s2))
        object.__setattr__(self, "group1", g1)
        object.__setattr__(self, "group2", g2)
        # The members and their group-2 mask are built once; equality and
        # hashing stay on the two groups.
        members = tuple(sorted(g1 + g2))
        object.__setattr__(self, "_members", members)
        object.__setattr__(self, "_in_group2", np.fromiter(
            map(s2.__contains__, members), dtype=bool, count=len(members)))

    @property
    def members(self):
        return self._members

    def momentum_signs(self):
        """+1 for group1 modes, -1 for group2, in sorted member order."""
        return np.where(self._in_group2, -1.0, 1.0)


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


def _require_dense(cov, caller):
    if not isinstance(cov, CovarianceMatrix):
        raise TypeError(f"{caller} takes a CovarianceMatrix, got {type(cov).__name__}; "
                        "cut the windows of a RingCovariance with ring_windows, or "
                        "take their negativity with stacked_log_negativities")


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
        Its action is the common action when uniform, else None. The
        matrix is checked and made exactly symmetric here, once, and its
        cross block is ``-qq Y`` by construction; the eigenvalues of ``qq``
        are ``actions / omegas``, and when their ratio clears the kernel's
        test with room for the roundoff of forming ``qq``
        (linalg._spectrum_posdef), the state is marked certified (see
        ``CovarianceMatrix._certified``). At uniform actions it is marked
        pure (see ``CovarianceMatrix._pure``).
    """
    s, omegas, ydiag = modes
    actions = _checked_actions(actions, omegas.shape[0])
    spectrum = actions / omegas
    qq = (s * spectrum) @ s.T
    qp = -qq * ydiag[np.newaxis, :]
    pp = (ydiag[:, np.newaxis] * qq) * ydiag[np.newaxis, :]
    # The cross blocks are exact transposes, so symmetrizing qq and pp gives
    # the bits require_symmetric would give the whole matrix, with no second
    # 2n x 2n buffer; each block is symmetrized once the raw one is used up,
    # which keeps the peak resident set at the unchecked build's.
    qq = require_symmetric(qq, name="qq")
    pp += (s * (actions * omegas)) @ s.T
    pp = require_symmetric(pp, name="pp")
    action = _common_action(actions)
    return CovarianceMatrix(np.block([[qq, qp], [qp.T, pp]]), action,
                            _certified=_spectrum_posdef(spectrum), _pure=action is not None)


def ring_windows(ring: RingCovariance, indices):
    """qq and pp blocks of the sites ``indices`` in every state of ``ring``.

    The indices are checked and ordered as by reduce_modes. Each block has
    shape (states, m, m); the cross block is zero.
    """
    if not isinstance(ring, RingCovariance):
        raise TypeError(f"ring_windows takes a RingCovariance, got {type(ring).__name__}; "
                        "reduce a CovarianceMatrix with reduce_modes")
    idx = _checked_indices(indices, ring.n_modes)
    d = (idx[:, np.newaxis] - idx[np.newaxis, :]) % ring.n_modes
    qq = np.take(ring.cq, d, axis=-1)
    qq += ring.c0[:, np.newaxis, np.newaxis]
    return qq, np.take(ring.cp, d, axis=-1)


def _ring_symmetry(partitions, n):
    """(class key, mirror axis) of each bipartition of a ring of n sites.

    Partitions share a class key when a rotation i -> i + t or reflection
    i -> t - i (mod n), perhaps followed by swapping the groups, maps one
    onto the other; ring rows are exactly even, so their windows are the
    same matrices up to a permutation and share one E_N. A lone partition's
    key is None, and no orbit is searched. The axis is a t whose reflection
    maps group1 onto group2 (and so group2 onto group1), or None. Each
    partition must have members, all in [0, n).
    """
    axes = []
    for partition in partitions:
        group1, group2 = partition.group1, partition.group2
        size, axis = len(group1), None
        if size == len(group2):
            # Summed over group1, the images t - i give size * t =
            # sum(members) (mod n), which rules out most candidates at once.
            total, targets = sum(group1) + sum(group2), set(group2)
            for partner in group2:   # the image of group1[0]
                t = (group1[0] + partner) % n
                if (size * t - total) % n == 0 and all((t - i) % n in targets for i in group1):
                    axis = t
                    break
        axes.append(axis)
    if len(partitions) < 2:
        return [(None, t) for t in axes]
    # Per member set: the least rotation of its cyclic gap sequence, read
    # forwards or reversed, and the member order each map reaching it
    # induces. The gaps read forwards from member q are the set rotated so
    # that q sits at 0, and read reversed from gap q the set reflected so
    # that member -q does; gap sequences order as the moved sets do. As
    # big-endian 8-byte words, the gaps order as their bytes.
    orbits = {}
    for members in {p.members for p in partitions}:
        sites = np.array(members)
        m = sites.size
        gaps = np.diff(sites, append=sites[0] + n).astype(">u8")
        reads = {}
        for step, seq in ((1, gaps), (-1, gaps[::-1])):
            word = seq.tobytes() * 2
            for q in range(m):
                reads[step, q] = word[8 * q:8 * (q + m)]
        least = min(reads.values())
        j = np.arange(m)
        orders = np.array([step * (q + j) % m
                           for (step, q), read in reads.items() if read == least])
        orbits[members] = (least, orders)
    keys = []
    for partition in partitions:
        canonical, orders = orbits[partition.members]
        masks = partition._in_group2[orders]
        keys.append((canonical, min(tuple(row) for row in (masks ^ masks[:, :1]).tolist())))
    return list(zip(keys, axes))


def _mirror_windows(ring: RingCovariance, group1, t):
    """Even and odd blocks of the window group1 + (t - group1) (mod N).

    With the reflection i -> t - i mapping the sites ``group1`` (ascending)
    onto the rest of the window, every qq and pp window commutes with it,
    and the vectors e_i +/- e_(t - i) split each into an even and an odd
    block of m/2 sites:

        qq+-[i, j] = c0 + cq[a_i - a_j] +- (c0 + cq[a_i + a_j - t])

    over a = group1, and the same for pp with cp. Returns ``qq_even,
    qq_odd, pp_even, pp_odd``, each of shape (states, m/2, m/2) and exactly
    symmetric. The zero mode's c0 enters qq_even only, as 2 c0, so
    qq_odd is a difference of rows with no c0 to cancel.
    """
    a = np.asarray(group1)
    n = ring.n_modes
    d = (a[:, np.newaxis] - a[np.newaxis, :]) % n
    s = (a[:, np.newaxis] + a[np.newaxis, :] - t) % n
    blocks = []
    for row in (ring.cq, ring.cp):
        near, far = np.take(row, d, axis=-1), np.take(row, s, axis=-1)
        blocks += [near + far, near - far]
    blocks[0] += 2.0 * ring.c0[:, np.newaxis, np.newaxis]
    return tuple(blocks)


def quantum_ground_covariance(modes: NormalModes, hbar=1.0):
    """Ground-state covariance: the classical build at actions hbar/2."""
    # Written so that NaN fails too: every comparison with NaN is false.
    if not 0.0 < hbar < np.inf:
        raise ValueError(f"hbar must be finite and positive, got {hbar}")
    return classical_covariance(modes, np.full(modes.omegas.shape[0], hbar / 2.0))


def _oscillator_index(value):
    # ``value`` as an int; a non-integral value (0.7, NaN, inf) is refused,
    # not truncated. Integral floats and numpy integers pass.
    if isinstance(value, (int, np.integer)):
        return int(value)
    if not float(value).is_integer():
        raise IndexOutOfRangeError(f"oscillator index {value} is not an integer")
    return int(value)


def _index_set(values):
    # The set of ``values`` as ints. operator.index takes ints and numpy
    # integers at C speed; only when it refuses one does every value go
    # through _oscillator_index.
    values = tuple(values)
    try:
        return set(map(operator.index, values))
    except TypeError:
        return set(map(_oscillator_index, values))


def _checked_indices(indices, n):
    idx = sorted(_index_set(indices))
    if not idx:
        raise EmptySubsystemError("subsystem selection is empty")
    if idx[0] < 0 or idx[-1] >= n:
        bad = idx[0] if idx[0] < 0 else idx[-1]
        raise IndexOutOfRangeError(f"oscillator index {bad} outside [0, {n})")
    return np.array(idx)


def reduce_modes(cov: CovarianceMatrix, indices):
    """Covariance of a subsystem, keeping (q..., p...) ordering.

    ``indices`` are 0-based oscillator labels; duplicates collapse, order
    is ascending in the output. Indices that cover every mode return
    ``cov`` itself, with its own action and flags: a state's matrix is
    read-only, so sharing it is safe. Any other result is a new state,
    certified when ``cov`` is and never pure.
    """
    _require_dense(cov, "reduce_modes")
    n = cov.n_modes
    idx = _checked_indices(indices, n)
    if idx.size == n:   # sorted and unique, so every mode
        return cov
    # One gather over the flat C-order positions of the kept rows and
    # columns: the same copy as rows then columns, with no row intermediate.
    sel = np.concatenate([idx, idx + n])
    matrix = cov.matrix.take(sel[:, np.newaxis] * (2 * n) + sel)
    return CovarianceMatrix(matrix, cov.action, _certified=cov._certified)


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
    # Rows, then columns: products with +/-1 are exact, so these are the
    # bits of cov * outer(signs, signs), with no (2m)**2 sign temporary.
    flipped = cov.matrix * signs[:, np.newaxis]
    flipped *= signs
    return CovarianceMatrix(flipped, cov.action)
