"""Dense symmetric eigendecompositions and symplectic spectra.

Everything here works on plain float64 numpy arrays. Phase-space matrices
are ordered ``(q_1..q_n, p_1..p_n)``, so a ``2n x 2n`` covariance matrix
splits into ``n x n`` blocks ``[[qq, qp], [qp.T, pp]]``.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    AsymmetricInputError,
    EmptySubsystemError,
    NotPositiveDefiniteError,
    UnpairedSpectrumError,
)

# Relative tolerances of the module contracts.
SYMMETRY_RTOL = 1e-12       # |a_ij - a_ji| <= SYMMETRY_RTOL * max|a|
POSDEF_RTOL = 1e-12         # eigenvalue > POSDEF_RTOL * max eigenvalue
PAIR_RTOL = 1e-9            # symplectic eigenvalues must pair up this tightly
CROSS_BLOCK_RTOL = 1e-12    # |qp| (or a shear's residual) <= this * max|cov|


def require_symmetric(mat, name="matrix"):
    """Check symmetry within ``SYMMETRY_RTOL * max|entry|``; return ``(A + A.T)/2``.

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
    # Above half the largest double a - a.T and a + a.T could overflow, so
    # they take the halved entries (the same bits for normal numbers).
    halve = scale > 0.5 * np.finfo(float).max
    h = 0.5 * a if halve else a
    d = h - h.T
    resid = float(np.max(d)) * (2.0 if halve else 1.0)
    if resid > SYMMETRY_RTOL * scale:
        raise AsymmetricInputError(
            f"{name} is not symmetric: max asymmetry {resid:.3e} "
            f"exceeds {SYMMETRY_RTOL:.0e} * max|entry| = {SYMMETRY_RTOL * scale:.3e}"
        )
    np.add(h, h.T, out=d)
    if not halve:
        d *= 0.5
    return d


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


def _checked_cholesky(a, label, *, certified=False):
    # Lower Cholesky factor of a symmetric block or (S, m, m) stack, refused
    # unless every smallest eigenvalue exceeds POSDEF_RTOL times the largest.
    # ``certified`` says the caller has already shown that every block
    # passes that test, or needs only the factor; the test is then not run.
    if not certified:
        w = np.linalg.eigvalsh(a)
        bad = ~(w[..., 0] > POSDEF_RTOL * w[..., -1])
        if np.any(bad):
            low, high = w[..., 0][bad][0], w[..., -1][bad][0]
            raise NotPositiveDefiniteError(
                f"{label} is not positive definite: eigenvalue {low:.6e} is not above "
                f"{POSDEF_RTOL:.0e} * largest eigenvalue {high:.6e} = {POSDEF_RTOL * high:.6e}"
            )
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"{label} has no Cholesky factor: {exc}") from exc


def _spectrum_posdef(w):
    """True when every principal submatrix of every n x n symmetric matrix
    with these eigenvalues (last axis) passes :func:`_checked_cholesky`'s
    test.

    By Cauchy interlacing every principal submatrix has its eigenvalues
    inside [min, max] of the whole spectrum, so its ratio min/max is at
    least the whole matrix's. The margin adds 16 n eps to POSDEF_RTOL,
    which covers the roundoff of the spectrum or of the matrix formed from
    it, and of the submatrices' own eigvalsh (at most n rows each), all
    relative to the largest eigenvalue.
    """
    margin = POSDEF_RTOL + 16.0 * w.shape[-1] * np.finfo(float).eps
    return bool(np.all(w.min(axis=-1) > margin * w.max(axis=-1)))


def _unsheared_blocks(mat, name, *, certified=False):
    # The symmetrised 2n x 2n matrix, its qq block and its pp block with any
    # local q-p shear undone (None when the cross block is not one). The map
    # (q, p) -> (q, p - Y q), Y diagonal, adds the cross block qp = -qq Y; it
    # acts on each oscillator alone and is symplectic, so undoing it, to the
    # blocks (qq, pp - Y qq Y), changes no spectrum. Y is read from the
    # diagonals, y_j = -qp_jj / qq_jj. A ``certified`` matrix
    # (CovarianceMatrix._certified) skips the symmetry, scale and shear
    # scans, and keeps pp when that Y is zero; any other matrix keeps pp when
    # max|qp| <= CROSS_BLOCK_RTOL max|a|, and is unsheared when
    # max|qp + qq Y| is within the same bound.
    a = mat if certified else require_symmetric(mat, name=name)
    if a.shape[0] % 2:
        raise AsymmetricInputError(
            f"{name} must be 2n x 2n, got {a.shape[0]} rows"
        )
    if not a.size:
        raise EmptySubsystemError(f"{name} is 0 x 0: it holds no modes")
    n = a.shape[0] // 2
    qq, qp, pp = a[:n, :n], a[:n, n:], a[n:, n:]
    if certified:
        y = -np.diag(qp) / np.diag(qq)
        if not y.any():
            return a, qq, pp
    else:
        scale = max(float(np.max(a)), -float(np.min(a)))   # max|a| without an |a| temporary
        if float(np.max(np.abs(qp))) <= CROSS_BLOCK_RTOL * scale:
            return a, qq, pp
        d = np.diag(qq)
        if not np.all(d > 0.0):
            return a, qq, None
        y = -np.diag(qp) / d
        if float(np.max(np.abs(qp + qq * y))) > CROSS_BLOCK_RTOL * scale:
            return a, qq, None
    return a, qq, pp - (y[:, np.newaxis] * qq) * y


def _block_product_eigvals(qq, pp, sign_patterns, name="covariance", *, certified=False,
                           low=None):
    """Ascending eigenvalues of ``qq P pp P``, one array per pattern.

    ``qq`` and ``pp`` are ``(m, m)`` blocks or ``(S, m, m)`` stacks, ``qq``
    symmetric (LAPACK reads its lower triangle), and ``P = diag(pattern)``
    with +/-1 entries. ``qq`` is refused unless its smallest eigenvalue
    exceeds ``POSDEF_RTOL`` times its largest, then factored once as
    ``qq = L L^T``; ``L^T P pp P L`` is similar to ``qq P pp P``, so its
    symmetric eigensolve gives the eigenvalues. No eigenvectors are computed.
    ``certified`` skips the eigenvalue test for a stack whose caller has
    already shown that it passes (see :func:`_spectrum_posdef`). ``low``
    is the factor ``L`` when the caller has already made it with
    :func:`_checked_cholesky`; neither the test nor the factor runs again.

    ``P pp P = T pp T`` with ``T = P * pattern[-1]``, so ``P`` and ``-P``
    give the same bits. ``B = pp L`` is formed once per call; ``T`` flips
    the group G of rows whose sign differs from the last, and ``pp T L``
    is ``B`` less ``2 pp[:, G] L[G, :]``, which touches only the first
    ``c = max(G) + 1`` columns since ``L`` is lower triangular. Its rows
    scaled by ``T`` give ``Z = T pp T L``, and eigvalsh reads only the
    lower triangle of ``X = L^T Z``, so no symmetrizing pass is needed.

    That lower triangle differs from the one of ``X0 = L^T B`` only in its
    first ``c`` columns: below row ``c``, ``L^T`` meets the rows of ``T``
    only where ``L`` is zero. Every call therefore forms ``X0`` once and,
    per pattern, only ``L^T Z[:, :c]``, written over ``X0`` in place. The
    patterns are solved in ascending ``c``, so each overwrites every column
    the one before it changed, and its eigenvalues depend on its own
    operands alone, not on the other patterns of the call or their order.
    Those columns are products of the same operands as in the full
    ``L^T Z``, not a difference from ``X0``. Only the first ``max(c)``
    columns of ``B`` are kept beside ``X``.
    """
    if low is None:
        low = _checked_cholesky(qq, f"{name} qq block", certified=certified)
    low_t = np.swapaxes(low, -1, -2)
    pp = np.ascontiguousarray(pp)
    b = pp @ low
    x = low_t @ b
    flips = [np.asarray(signs, dtype=float) for signs in sign_patterns]
    flips = [flip * flip[-1] for flip in flips]
    groups = [np.flatnonzero(flip < 0.0) for flip in flips]
    # c = 0 for one sign throughout (T = I, so X = X0); otherwise at least
    # two columns, so that matmul stays on gemm (one column goes to gemv),
    # and column 1 then only repeats X0 where eigvalsh reads.
    cols = [max(group[-1] + 1, 2) if group.size else 0 for group in groups]
    b = b[..., :max(cols)].copy()   # all that the patterns read of B
    out = [None] * len(flips)
    for i in sorted(range(len(flips)), key=cols.__getitem__):
        flip, group, c = flips[i], groups[i], cols[i]
        if c:
            # The first c columns of T pp T L: B less 2 pp[:, G] L[G, :c],
            # its rows scaled by T, formed in place (the difference's bits,
            # no temporaries). Contiguous operands keep matmul on one path
            # whatever the stack size.
            z = np.ascontiguousarray(pp[..., group]) @ np.ascontiguousarray(low[..., group, :c])
            z *= -2.0
            z += b[..., :c]
            z *= flip[:, np.newaxis]
            np.matmul(low_t, z, out=x[..., :c])
        out[i] = np.linalg.eigvalsh(x)
    return out


def _general_spectrum(a, low=None):
    # With the Cholesky factor a = L L^T, the antisymmetric K = L^T J L is
    # similar to J a, so the symplectic eigenvalues are the singular values
    # of K, each twice. ``a`` is symmetric and 2n x 2n; ``low`` is its
    # factor when the caller has already made it with _checked_cholesky.
    n = a.shape[0] // 2
    if low is None:
        low = _checked_cholesky(a, "covariance")
    k = low.T @ np.concatenate([low[n:], -low[:n]])   # L^T J L, antisymmetric
    squared = np.linalg.eigvalsh(k.T @ k)
    return _pair_up(np.sqrt(np.maximum(squared, 0.0)), float(np.max(np.abs(a))))


def _fast_spectrum(qq, pp, *, certified=False, low=None):
    # sqrt(eig(qq @ pp)) by the kernel, refused unless every eigenvalue is
    # positive; ``certified`` and ``low`` as for _block_product_eigvals.
    (lam,) = _block_product_eigvals(qq, pp, [np.ones(qq.shape[0])], certified=certified,
                                    low=low)
    if lam[0] <= 0.0:
        raise NotPositiveDefiniteError(
            "covariance pp block is not positive definite on the fast path"
        )
    return np.sqrt(lam)


def _cholesky_log_det(low):
    # log det of L L^T: twice the log of the product of L's diagonal
    # (Higham, Accuracy and Stability of Numerical Algorithms, ch. 10).
    return 2.0 * float(np.sum(np.log(np.diagonal(low))))


def _spectrum_and_log_det(cov, *, certified=False):
    # symplectic_spectrum(cov, _certified=certified) and log det cov, with
    # one Cholesky factor per block. A shear has determinant 1, so
    # det = det qq det pp' with qq = L L^T (the kernel's factor, tested as
    # by symplectic_spectrum) and the unsheared pp' = R R^T; pp' needs no
    # eigenvalue test, since the spectrum's lambda > 0 shows L^T pp' L, and
    # so pp', positive definite. Any other cross block takes the factor of
    # the whole matrix that the general route makes.
    a, qq, pp = _unsheared_blocks(cov, "covariance", certified=certified)
    if pp is None:
        low = _checked_cholesky(a, "covariance")
        return _general_spectrum(a, low), _cholesky_log_det(low)
    low = _checked_cholesky(qq, "covariance qq block", certified=certified)
    nu = _fast_spectrum(qq, pp, low=low)
    right = _checked_cholesky(pp, "covariance pp block", certified=True)
    return nu, _cholesky_log_det(low) + _cholesky_log_det(right)


def symplectic_spectrum(cov, *, _certified=False):
    """Symplectic eigenvalues of a positive-definite phase-space matrix.

    These are the moduli of the eigenvalues of ``i J^-1 cov`` (which occur
    in +/- pairs), computed here without complex arithmetic. The matrix
    alone picks the route:

    * cross block zero or a local shear ``qp = -qq Y`` (relative to the
      largest entry):
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

    The private ``_certified`` says that ``cov`` is a float array that is
    exactly symmetric, whose cross block is the local shear of the Y read
    from its diagonals and whose qq block passes the kernel's
    positive-definiteness test (a state built from normal modes or a
    reduction of one, see ``CovarianceMatrix._certified``). Such a matrix
    always takes the fast route, with no symmetry, scale or shear scan and
    no eigenvalue test; it is trusted, not checked.
    """
    a, qq, pp = _unsheared_blocks(cov, "covariance", certified=_certified)
    if pp is None:
        return _general_spectrum(a)
    return _fast_spectrum(qq, pp, certified=_certified)
