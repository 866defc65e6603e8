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
eigensolver), which come in pairs +/- sqrt(lambda_j).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import (
    Bipartition,
    RingCovariance,
    _require_action,
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


def _unit_blocks(cov, members):
    # Stacks (S, m, m) of qq and the unsheared pp of the reduction to
    # ``members``, in units of the action: one block per state of a ring
    # stack (unit action, no cross block to undo), a stack of one for any
    # other state.
    if isinstance(cov, RingCovariance):
        qq, pp = ring_windows(cov, members)
        shape = (-1,) + qq.shape[-2:]
        return qq.reshape(shape), pp.reshape(shape)
    red = reduce_modes(cov, members)
    action = _require_action(red)
    _, qq, pp = _unsheared_blocks(red.matrix, "reduced covariance")
    if pp is None:
        raise CrossBlockNotZeroError(
            "q-p cross block of the reduced covariance is neither zero nor a local shear")
    return (qq / action)[np.newaxis], (pp / action)[np.newaxis]


def _bits_from_lambdas(lambdas):
    small = lambdas < 1.0 - UNIT_GUARD
    if not np.any(small):
        return 0.0
    return float(-np.sum(np.log2(lambdas[small])))


def _result(lambdas, e_n):
    return NegativityResult(lambdas, e_n, 0.5 * (2.0**e_n - 1.0))


def stacked_log_negativities(cov, partitions):
    """E_N of many bipartitions in every state of a stack, in the order given.

    ``cov`` is a full-system state (a CovarianceMatrix or a RingCovariance)
    or a stack of ring states of one size (:func:`ring_covariances`).
    Partitions with the same members share one reduction and one stacked
    Cholesky factor qq_u = L L^T of the reduced qq blocks; each partition
    then costs one stacked symmetric eigensolve of L^T P pp_u P L across
    the states. Returns ``results[i][s]``, partition i in state s.
    """
    by_members = {}
    for i, partition in enumerate(partitions):
        by_members.setdefault(partition.members, []).append(i)
    results = [None] * len(partitions)
    for members, positions in by_members.items():
        qq_u, pp_u = _unit_blocks(cov, members)
        patterns = [partitions[i].momentum_signs() for i in positions]
        per_pattern = _block_product_eigvals(qq_u, pp_u, patterns, name="reduced")
        for i, lambdas in zip(positions, per_pattern):
            lambdas = np.maximum(lambdas, np.finfo(float).tiny)
            results[i] = [_result(row, _bits_from_lambdas(row)) for row in lambdas]
    return results


def log_negativity(cov, partition: Bipartition):
    """E_N from the m eigenvalues of qq_u P pp_u P (symmetrized product).

    ``cov`` is one full-system state; the reduction to the partition's
    members happens here, and a stack of several ring states is refused.
    The cross block of the reduced covariance must vanish or be a local
    shear ``qp = -qq Y`` with Y diagonal, as every model's is; pp_u is then
    the unsheared block ``pp - Y qq Y``. Any other cross block raises
    CrossBlockNotZeroError.
    """
    (per_state,) = stacked_log_negativities(cov, [partition])
    if len(per_state) != 1:
        raise ValueError("log_negativity takes one state; "
                         "use stacked_log_negativities for a stack")
    return per_state[0]


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
