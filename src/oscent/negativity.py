"""Logarithmic negativity of bipartitions from classical covariances.

Flipping the momenta of one group in the reduced covariance (the phase-space
partial transpose) and asking which normal-mode temperatures drop below the
pure floor gives

    E_N = -sum_j log2 min(1, lambda_j)

where the lambda_j are the eigenvalues of qq_u P pp_u P, the blocks taken
from the reduced covariance divided by the action scale, and P the momentum
sign pattern of the partition. Decoupled or single-group partitions give
every lambda_j >= 1 and hence exactly zero.

Two independent evaluations are provided: the m-eigenvalue block product
above (symmetrized, real arithmetic) and the 2m moduli of the eigenvalues of
J^-1 times the partially transposed covariance (complex, general
eigensolver), which come in pairs +/- sqrt(lambda_j).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import (
    CROSS_BLOCK_RTOL,
    Bipartition,
    partial_transpose,
    reduce_modes,
)
from .errors import (
    ComplexEigenvalueError,
    CrossBlockNotZeroError,
    NotPositiveDefiniteError,
)
from .linalg import _pair_up, symplectic_form

# lambda = 1 +/- roundoff must contribute exactly zero bits.
UNIT_GUARD = 1e-12


@dataclass(frozen=True)
class NegativityResult:
    """Eigenvalues lambda (ascending), E_N in bits, and (2**E_N - 1)/2."""

    lambda_tilde: np.ndarray
    log_negativity: float
    negativity: float


def _reduced_unit_blocks(cov, members):
    red = reduce_modes(cov, members)
    scale = red.action_scale
    if scale is None:
        raise ValueError("negativity needs a uniform-action covariance")
    overall = float(np.max(np.abs(red.matrix)))
    if float(np.max(np.abs(red.qp))) > CROSS_BLOCK_RTOL * overall:
        raise CrossBlockNotZeroError(
            "q-p cross block of the reduced covariance must vanish"
        )
    return red.qq / scale, red.pp / scale, red


def _bits_from_lambdas(lambdas):
    small = lambdas < 1.0 - UNIT_GUARD
    if not np.any(small):
        return 0.0
    return float(-np.sum(np.log2(lambdas[small])))


def log_negativities(cov, partitions):
    """E_N of many bipartitions of one state, in the order given.

    ``cov`` is the full-system state (a CovarianceMatrix or a
    RingCovariance). Partitions with the same members share one reduction
    and one eigendecomposition of the reduced qq block; each partition then
    costs one symmetric eigensolve of qq_u^1/2 P pp_u P qq_u^1/2. The
    results equal those of :func:`log_negativity` on each partition.
    """
    by_members = {}
    for i, partition in enumerate(partitions):
        by_members.setdefault(partition.members, []).append(i)
    results = [None] * len(partitions)
    for members, positions in by_members.items():
        qq_u, pp_u, _ = _reduced_unit_blocks(cov, members)
        wq, vq = np.linalg.eigh(0.5 * (qq_u + qq_u.T))
        if wq[0] <= 0.0:
            raise NotPositiveDefiniteError("reduced qq block is not positive definite")
        root = vq * np.sqrt(wq)
        for i in positions:
            signs = partitions[i].momentum_signs()
            sym = root.T @ (pp_u * np.outer(signs, signs)) @ root
            lambdas = np.linalg.eigvalsh(0.5 * (sym + sym.T))
            lambdas = np.maximum(lambdas, np.finfo(float).tiny)
            e_n = _bits_from_lambdas(lambdas)
            results[i] = NegativityResult(lambdas, e_n, 0.5 * (2.0**e_n - 1.0))
    return results


def log_negativity(cov, partition: Bipartition):
    """E_N from the m eigenvalues of qq_u P pp_u P (symmetrized product).

    ``cov`` is the full-system state; the reduction to the partition's
    members happens here. The cross block of the reduced covariance must
    vanish (true whenever the model has no position-momentum coupling on the
    kept oscillators).
    """
    return log_negativities(cov, [partition])[0]


def log_negativity_via_symplectic(cov, partition: Bipartition):
    """E_N from the 2m eigenvalue moduli of J^-1 times the flipped covariance.

    Independent of :func:`log_negativity`: different matrix, general complex
    eigensolver. The eigenvalues must be purely imaginary (they are +/- i
    sqrt(lambda) pairs); a relative real part above 1e-9 raises
    ComplexEigenvalueError.
    """
    _, _, red = _reduced_unit_blocks(cov, partition.members)
    scale = red.action_scale
    m = red.n_modes
    flipped = partial_transpose(red, partition)
    a = np.linalg.solve(symplectic_form(m), flipped.matrix / scale)
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
    return NegativityResult(np.sort(lambdas), e_n, 0.5 * (2.0**e_n - 1.0))
