"""Logarithmic negativity of bipartitions from classical covariances.

Flipping the momenta of one group in the reduced covariance (the phase-space
partial transpose) and asking which normal-mode temperatures drop below the
pure floor gives

    E_N = -sum_j log2 min(1, lambda_j)

where the lambda_j are the eigenvalues of qq_u P pp_u P, the blocks taken
from the reduced covariance divided by its action (pp with any local q-p
shear undone first), and P the momentum sign pattern of the partition.
Decoupled or single-group partitions give every lambda_j >= 1 and hence
exactly zero.

Two independent evaluations are provided: the m-eigenvalue block product
above (symmetrized, real arithmetic) and the 2m moduli of the eigenvalues of
J^-1 times the partially transposed covariance (complex, general
eigensolver), which come in pairs +/- sqrt(lambda_j). The block product
takes one kind of state per entry: log_negativity one bipartition of a dense
CovarianceMatrix, stacked_log_negativities many bipartitions of every state
of RingCovariance stacks at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import (
    Bipartition,
    CovarianceMatrix,
    RingCovariance,
    _checked_indices,
    _mirror_windows,
    _require_action,
    _ring_symmetry,
    partial_transpose,
    reduce_modes,
    ring_windows,
)
from .errors import ComplexEigenvalueError, CrossBlockNotZeroError
from .linalg import _block_product_eigvals, _pair_up, _unsheared_blocks, symplectic_form

# lambda = 1 +/- roundoff must contribute exactly zero bits.
UNIT_GUARD = 1e-12


@dataclass(frozen=True)
class NegativityResult:
    """Eigenvalues lambda (ascending), E_N in bits, and (2**E_N - 1)/2.

    Each lambda is the square of a normalized symplectic eigenvalue of the
    partial transpose, so ``log_negativity = -sum log2 min(1, lambda)`` is
    twice the usual ``-sum log2 min(1, 2 nu~)`` (Vidal & Werner 2002). On a
    pure state cut into a subsystem and its complement it equals
    ``2 sum_k log2(2 sigma_k + sqrt(4 sigma_k**2 - 1))`` over the
    subsystem's normalized widths sigma_k.
    """

    lambda_tilde: np.ndarray
    log_negativity: float
    negativity: float


def _stacked(per_ring):
    # One stack per block from a tuple of (S, m, m) blocks per ring, the
    # rings' states in order; a lone ring's blocks are not copied.
    if len(per_ring) == 1:
        return per_ring[0]
    return tuple(np.concatenate(blocks) for blocks in zip(*per_ring))


def _bits_from_lambdas(lambdas):
    # -sum log2 of the entries of a 1-D array below 1 - UNIT_GUARD, in
    # their order; 0.0 exactly when there are none.
    small = lambdas[lambdas < 1.0 - UNIT_GUARD]
    return float(-np.sum(np.log2(small))) if small.size else 0.0


def _result(lambdas, e_n):
    return NegativityResult(lambdas, e_n, 0.5 * (2.0**e_n - 1.0))


def _results(lambdas):
    # One NegativityResult per row of an (S, m) stack of ascending lambdas.
    # The entries below 1 - UNIT_GUARD are a prefix of each row, so the rows
    # with k of them sum log2 of their first k entries in one call; each
    # row's sum is that of np.sum over the row's own prefix. The counts are
    # floats: numpy's bool-to-int sum and int compare would add about
    # 0.2 MiB of code no other step touches to a ring pass's resident set.
    lambdas = np.maximum(lambdas, np.finfo(float).tiny)
    counts = np.where(lambdas < 1.0 - UNIT_GUARD, 1.0, 0.0).sum(axis=-1)
    bits = np.zeros(len(lambdas))
    for k in set(counts.tolist()) - {0.0}:
        rows = np.flatnonzero(counts == k)
        bits[rows] = -np.sum(np.log2(lambdas[rows, :int(k)]), axis=-1)
    return [_result(row, e_n) for row, e_n in zip(lambdas, bits.tolist())]


def _stacked_results(qq_u, pp_u, certified, partitions):
    # results[i][s]: partition i in state s of the (S, m, m) unit-action
    # stacks qq_u and pp_u of the partitions' common members.
    patterns = [partition.momentum_signs() for partition in partitions]
    return [_results(lambdas)
            for lambdas in _block_product_eigvals(qq_u, pp_u, patterns, name="reduced",
                                                  certified=certified)]


def _mirror_results(qq_even, qq_odd, pp_even, pp_odd, certified):
    # results[s] from the even and odd blocks of a mirror window
    # (covariance._mirror_windows). P swaps the even and odd sectors, so the
    # lambdas are those of qq_even pp_odd together with those of
    # qq_odd pp_even, two products of one sign at half the size.
    ones = [np.ones(qq_even.shape[-1])]
    halves = [_block_product_eigvals(q, p, ones, name="reduced", certified=certified)[0]
              for q, p in ((qq_even, pp_odd), (qq_odd, pp_even))]
    return _results(np.sort(np.concatenate(halves, axis=-1), axis=-1))


def stacked_log_negativities(rings, partitions):
    """E_N of many bipartitions in every state of ring stacks, in the order given.

    ``rings`` is a RingCovariance (a stack of ring states of one size), or
    a non-empty list or tuple of them, whose states are taken in order as
    one stack (the rings may differ in size); anything else raises
    TypeError. A partition with no members, or with one outside a ring, is
    refused before any solve: the first such partition, on the first ring it
    misses. Partitions that a rotation or reflection of each ring, perhaps
    with their groups swapped, maps onto one another form a class
    (covariance._ring_symmetry); only the first of each class is solved, and
    the rest of the class gets its result objects. A partition that a
    reflection of every ring maps onto itself, its groups swapped (a mirror
    partition), is solved as two half-size products of one sign, from its
    window's even and odd blocks. Other solved partitions with the same
    members share one set of windows and one stacked Cholesky factor
    qq_u = L L^T of their qq blocks; each then costs one stacked symmetric
    eigensolve of L^T P pp_u P L across the states. Ring stacks whose rows
    certify every window positive definite (all of them, for a sequence)
    skip the eigenvalue test before each factor; otherwise a mirror window
    is tested half by half. Returns ``results[i][s]``, partition i in state s.
    """
    rings = [rings] if isinstance(rings, RingCovariance) else rings
    if not (isinstance(rings, (list, tuple)) and rings
            and all(isinstance(ring, RingCovariance) for ring in rings)):
        raise TypeError("stacked_log_negativities takes a RingCovariance or a non-empty list "
                        f"or tuple of them, got {type(rings).__name__}; "
                        "use log_negativity for a CovarianceMatrix")
    certified = all(ring._certified for ring in rings)
    sizes = dict.fromkeys(ring.n_modes for ring in rings)
    for members in (partition.members for partition in partitions):
        for n in sizes:
            if not members or members[0] < 0 or members[-1] >= n:
                _checked_indices(members, n)   # raises
    symmetry = {n: _ring_symmetry(partitions, n) for n in sizes}
    keys = [tuple(key for key, _ in analysis) for analysis in zip(*symmetry.values())]
    first = {}   # class key -> its first partition, the one solved
    by_members = {}
    for i, key in enumerate(keys):
        if key not in first:
            first[key] = i
            by_members.setdefault(partitions[i].members, []).append(i)
    results = [None] * len(partitions)
    for members, positions in by_members.items():
        general = []
        for i in positions:
            axes = [symmetry[ring.n_modes][i][1] for ring in rings]
            if None in axes:
                general.append(i)
                continue
            results[i] = _mirror_results(
                *_stacked([_mirror_windows(ring, partitions[i].group1, t)
                           for ring, t in zip(rings, axes)]), certified)
        if general:
            per_pattern = _stacked_results(
                *_stacked([ring_windows(ring, members) for ring in rings]), certified,
                [partitions[i] for i in general])
            for i, per_state in zip(general, per_pattern):
                results[i] = per_state
    return [results[first[key]] for key in keys]


def log_negativity(cov: CovarianceMatrix, partition: Bipartition):
    """E_N from the m eigenvalues of qq_u P pp_u P (symmetrized product).

    ``cov`` is one full-system CovarianceMatrix, reduced here to the
    partition's members (ring stacks go to stacked_log_negativities).
    The cross block of the reduced covariance must vanish or be a local
    shear ``qp = -qq Y`` with Y diagonal, as every model's is; pp_u is then
    the unsheared block ``pp - Y qq Y``. Any other cross block raises
    CrossBlockNotZeroError.
    """
    red = reduce_modes(cov, partition.members)
    action = _require_action(red)
    _, qq, pp = _unsheared_blocks(red.matrix, "reduced covariance",
                                  certified=red._certified)
    if pp is None:
        raise CrossBlockNotZeroError(
            "q-p cross block of the reduced covariance is neither zero nor a local shear")
    return _stacked_results((qq / action)[np.newaxis], (pp / action)[np.newaxis],
                            red._certified, [partition])[0][0]


def log_negativity_via_symplectic(cov, partition: Bipartition):
    """E_N from the 2m eigenvalue moduli of J^-1 times the flipped covariance.

    Independent of :func:`log_negativity`: different matrix, general complex
    eigensolver, and no shear undone, so it holds for any cross block. The
    eigenvalues must be purely imaginary (they are +/- i sqrt(lambda)
    pairs); a relative real part above 1e-9 raises ComplexEigenvalueError.
    """
    red = reduce_modes(cov, partition.members)
    action = _require_action(red)
    flipped = partial_transpose(red, partition)
    a = np.linalg.solve(symplectic_form(red.n_modes), flipped.matrix / action)
    eigs = np.linalg.eigvals(a)
    moduli = np.abs(eigs)
    drift = float(np.max(np.abs(eigs.real) / np.maximum(moduli, np.finfo(float).tiny)))
    if drift > 1e-9:
        raise ComplexEigenvalueError(
            f"eigenvalues expected on the imaginary axis drifted off by {drift:.3e}"
        )
    # The moduli are the pair duplicates sqrt(lambda_j), each twice, so the
    # log-sum over all 2m of them equals the m-eigenvalue sum over lambda_j.
    e_n = _bits_from_lambdas(moduli)
    lambdas = _pair_up(moduli, float(np.max(moduli))) ** 2
    return _result(np.sort(lambdas), e_n)
