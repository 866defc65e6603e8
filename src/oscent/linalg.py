"""Dense symmetric eigendecompositions and symplectic spectra.

Everything here works on plain float64 numpy arrays. Phase-space matrices
are ordered ``(q_1..q_n, p_1..p_n)``, so a ``2n x 2n`` covariance matrix
splits into ``n x n`` blocks ``[[qq, qp], [qp.T, pp]]``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (
    AsymmetricInputError,
    NoConvergenceError,
    NotPositiveDefiniteError,
    UnpairedSpectrumError,
)

# Relative tolerances of the module contracts.
SYMMETRY_RTOL = 1e-12       # |a_ij - a_ji| <= SYMMETRY_RTOL * max|a|
POSDEF_RTOL = 1e-12         # eigenvalue > POSDEF_RTOL * max eigenvalue
PAIR_RTOL = 1e-9            # symplectic eigenvalues must pair up this tightly
CROSS_BLOCK_RTOL = 1e-12    # |qp| (or a shear's residual) <= this * max|cov|


class EigDecomposition(NamedTuple):
    """Eigenvalues ascending; eigenvector k is ``eigenvectors[:, k]``."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def require_symmetric(mat, name="matrix", rtol=SYMMETRY_RTOL):
    """Check symmetry within ``rtol * max|entry|`` and return ``(A + A.T)/2``.

    Raises
    ------
    AsymmetricInputError
        If ``mat`` is not square, has a NaN or infinite entry, or the
        symmetry residual exceeds tolerance.
    """
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise AsymmetricInputError(f"{name} must be square, got shape {a.shape}")
    if not a.size:
        return a.copy()
    # max|a| and max|a - a.T| without the |.| temporaries: max|a| is
    # max(max a, -min a), and d = a - a.T is exactly antisymmetric, so
    # max|d| = max d. d's buffer then takes the result.
    hi, lo = float(np.max(a)), float(np.min(a))
    if not (np.isfinite(hi) and np.isfinite(lo)):  # NaN or inf exactly when an entry is
        i, j = np.argwhere(~np.isfinite(a))[0]
        raise AsymmetricInputError(
            f"{name} has a non-finite entry {a[i, j]} at ({i}, {j})"
        )
    scale = max(hi, -lo)
    d = a - a.T
    resid = float(np.max(d))
    if resid > rtol * scale:
        raise AsymmetricInputError(
            f"{name} is not symmetric: max asymmetry {resid:.3e} "
            f"exceeds {rtol:.0e} * max|entry| = {rtol * scale:.3e}"
        )
    np.add(a, a.T, out=d)
    d *= 0.5
    return d


def _canonical_column_signs(vecs):
    # Flip each eigenvector so its first non-negligible component is positive.
    if not vecs.size:
        return vecs.copy()
    big = np.abs(vecs) > 1e-12
    lead = vecs[np.argmax(big, axis=0), np.arange(vecs.shape[1])]
    v = vecs.copy()
    np.negative(v, out=v, where=big.any(axis=0) & (lead < 0.0))
    return v


def eig_sym(mat, name="matrix"):
    """Full eigendecomposition of a symmetric matrix.

    Parameters
    ----------
    mat : (n, n) array_like
        Symmetric within ``SYMMETRY_RTOL`` (relative to the largest entry).

    Returns
    -------
    EigDecomposition
        Eigenvalues ascending; orthonormal eigenvector columns, each flipped
        so its first non-negligible component is positive (deterministic
        orientation for degenerate blocks too).
    """
    a = require_symmetric(mat, name=name)
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergenceError(f"eigendecomposition failed: {exc}") from exc
    return EigDecomposition(w, _canonical_column_signs(v))


def symplectic_form(n_modes):
    """Standard form J = [[0, I], [-I, 0]] in (q..., p...) ordering."""
    j = np.zeros((2 * n_modes, 2 * n_modes))
    j[:n_modes, n_modes:] = np.eye(n_modes)
    j[n_modes:, :n_modes] = -np.eye(n_modes)
    return j


def _pair_up(values, scale):
    # 2n values that should be n coincident pairs; average each pair.
    v = np.sort(values)
    a, b = v[0::2], v[1::2]
    tol = PAIR_RTOL * np.maximum(np.abs(b), 1e-3 * scale)
    if np.any(b - a > tol):
        worst = int(np.argmax((b - a) / tol))
        raise UnpairedSpectrumError(
            f"eigenvalue moduli do not pair up: gap {b[worst] - a[worst]:.3e} "
            f"between {a[worst]:.12e} and {b[worst]:.12e}"
        )
    return 0.5 * (a + b)


def unsheared_momentum_block(qq, qp, pp, scale):
    """The pp block after undoing a local q-p shear, or None if there is none.

    A cross block ``qp = -qq Y`` with Y diagonal is what the map
    ``(q, p) -> (q, p - Y q)`` adds to a state with no cross block. The map
    acts on each oscillator alone and is symplectic, so the state it undoes
    to, with blocks ``(qq, pp - Y qq Y)`` and no cross block, has the same
    symplectic spectrum and the same log-negativity of every bipartition.
    Y is read from the diagonals, ``y_j = -qp_jj / qq_jj``, and accepted
    when ``max|qp + qq Y| <= CROSS_BLOCK_RTOL * scale``; a vanishing cross
    block (the same test) returns ``pp`` itself.
    """
    if float(np.max(np.abs(qp))) <= CROSS_BLOCK_RTOL * scale:
        return pp
    d = np.diag(qq)
    if not np.all(d > 0.0):
        return None
    y = -np.diag(qp) / d
    if float(np.max(np.abs(qp + qq * y))) > CROSS_BLOCK_RTOL * scale:
        return None
    return pp - (y[:, np.newaxis] * qq) * y


def _checked_cholesky(a, label):
    # Lower Cholesky factor of a symmetric block or (S, m, m) stack, refused
    # unless every smallest eigenvalue exceeds POSDEF_RTOL times the largest.
    w = np.linalg.eigvalsh(a)
    bad = ~(w[..., 0] > POSDEF_RTOL * w[..., -1])
    if np.any(bad):
        raise NotPositiveDefiniteError(
            f"{label} is not positive definite: eigenvalue {w[..., 0][bad][0]:.6e}"
        )
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"{label} has no Cholesky factor: {exc}") from exc


def _unsheared_blocks(mat, name):
    # The symmetrised 2n x 2n matrix, its qq block and its pp block with any
    # local q-p shear undone (None when the cross block is not one).
    a = require_symmetric(mat, name=name)
    if a.shape[0] % 2:
        raise AsymmetricInputError(
            f"{name} must be 2n x 2n, got {a.shape[0]} rows"
        )
    n = a.shape[0] // 2
    qq = a[:n, :n]
    scale = float(np.max(np.abs(a)))
    return a, qq, unsheared_momentum_block(qq, a[:n, n:], a[n:, n:], scale)


def _block_product_eigvals(qq, pp, sign_patterns, name="covariance"):
    """Ascending eigenvalues of ``qq P pp P``, one array per pattern.

    ``qq`` and ``pp`` are ``(m, m)`` blocks or ``(S, m, m)`` stacks, ``qq``
    symmetric (LAPACK reads its lower triangle), and ``P = diag(pattern)``
    with +/-1 entries. ``qq`` is refused unless its smallest eigenvalue
    exceeds ``POSDEF_RTOL`` times its largest, then factored once as
    ``qq = L L^T``; ``L^T P pp P L`` is similar to ``qq P pp P``, so its
    symmetric eigensolve gives the eigenvalues. No eigenvectors are computed.
    """
    low = _checked_cholesky(qq, f"{name} qq block")
    low_t = np.swapaxes(low, -1, -2)
    out = []
    for signs in sign_patterns:
        sym = low_t @ (pp * np.outer(signs, signs)) @ low
        out.append(np.linalg.eigvalsh(0.5 * (sym + np.swapaxes(sym, -1, -2))))
    return out


def _general_spectrum(a, name="covariance"):
    # With the Cholesky factor a = L L^T, the antisymmetric K = L^T J L is
    # similar to J a, so the symplectic eigenvalues are the singular values
    # of K, each twice. ``a`` is symmetric and 2n x 2n.
    n = a.shape[0] // 2
    low = _checked_cholesky(a, name)
    k = low.T @ np.concatenate([low[n:], -low[:n]])   # L^T J L, antisymmetric
    squared = np.linalg.eigvalsh(k.T @ k)
    return _pair_up(np.sqrt(np.maximum(squared, 0.0)), float(np.max(np.abs(a))))


def symplectic_spectrum(cov, *, name="covariance"):
    """Symplectic eigenvalues of a positive-definite phase-space matrix.

    These are the moduli of the eigenvalues of ``i J^-1 cov`` (which occur
    in +/- pairs), computed here without complex arithmetic. The matrix
    alone picks the route:

    * cross block zero or a local shear ``qp = -qq Y`` (relative to the
      largest entry, see :func:`unsheared_momentum_block`):
      ``sqrt(eig(qq @ pp))`` via the symmetrized product ``L^T pp L``
      (``qq = L L^T``) of :func:`_block_product_eigvals`, with pp unsheared;
    * any other cross block: with the Cholesky factor ``cov = L L^T``, the
      antisymmetric ``K = L^T J L`` is similar to ``J cov``, so the
      symplectic eigenvalues are the singular values of ``K``, each
      appearing twice, read as ``sqrt(eig(K^T K))``. ``J`` is applied as a
      signed swap of the q and p row blocks; no eigenvectors are computed.

    Parameters
    ----------
    cov : (2n, 2n) array_like
        Symmetric positive definite, (q..., p...) ordered.

    Returns
    -------
    numpy.ndarray
        The n symplectic eigenvalues, ascending.
    """
    a, qq, pp = _unsheared_blocks(cov, name)
    if pp is None:
        return _general_spectrum(a, name)
    (lam,) = _block_product_eigvals(qq, pp, [np.ones(qq.shape[0])], name=name)
    if lam[0] <= 0.0:
        raise NotPositiveDefiniteError(
            f"{name} pp block is not positive definite on the fast path"
        )
    return np.sqrt(lam)
