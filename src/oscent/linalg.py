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


class EigDecomposition(NamedTuple):
    """Eigenvalues ascending; eigenvector k is ``eigenvectors[:, k]``."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def require_symmetric(mat, name="matrix", rtol=SYMMETRY_RTOL):
    """Check symmetry within ``rtol * max|entry|`` and return ``(A + A.T)/2``.

    Raises
    ------
    AsymmetricInputError
        If ``mat`` is not square or the symmetry residual exceeds tolerance.
    """
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise AsymmetricInputError(f"{name} must be square, got shape {a.shape}")
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    resid = float(np.max(np.abs(a - a.T))) if a.size else 0.0
    if resid > rtol * scale:
        raise AsymmetricInputError(
            f"{name} is not symmetric: max asymmetry {resid:.3e} "
            f"exceeds {rtol:.0e} * max|entry| = {rtol * scale:.3e}"
        )
    return 0.5 * (a + a.T)


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


def jacobi_eig_sym(mat, max_sweeps=100, name="matrix"):
    """Cyclic Jacobi eigendecomposition; slower, dependency-free cross-check.

    Sweeps all upper-triangle pivots in row order, rotating each to zero,
    until the off-diagonal Frobenius norm drops below ``1e-12`` times the
    initial Frobenius norm of the matrix.

    Raises
    ------
    NoConvergenceError
        If the budget of ``max_sweeps`` sweeps is exhausted first.
    """
    a = require_symmetric(mat, name=name)
    n = a.shape[0]
    v = np.eye(n)
    norm0 = float(np.linalg.norm(a))
    if n <= 1 or norm0 == 0.0:
        return EigDecomposition(np.diag(a).copy(), v)
    target = 1e-12 * norm0
    for sweep in range(max_sweeps + 1):
        off = np.sqrt(max(float(np.sum(a * a) - np.sum(np.diag(a) ** 2)), 0.0))
        if off < target:
            order = np.argsort(np.diag(a), kind="stable")
            return EigDecomposition(
                np.diag(a)[order].copy(), _canonical_column_signs(v[:, order])
            )
        if sweep == max_sweeps:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                # Classic stable rotation angle (Golub & Van Loan).
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau)) if tau != 0.0 else 1.0
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                app, aqq = a[p, p], a[q, q]
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                a[p, :], a[q, :] = rot_p, rot_q
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = a[q, p] = 0.0
                vp = c * v[:, p] - s * v[:, q]
                vq = s * v[:, p] + c * v[:, q]
                v[:, p], v[:, q] = vp, vq
    raise NoConvergenceError(
        f"Jacobi iteration did not converge in {max_sweeps} sweeps"
    )


def mat_pow(mat, exponent, name="matrix"):
    """Real power of a symmetric matrix through its eigendecomposition.

    Non-integer or negative exponents require positive definiteness
    (smallest eigenvalue above ``POSDEF_RTOL`` times the largest).
    """
    w, v = eig_sym(mat, name=name)
    exponent = float(exponent)
    if exponent != round(exponent) or exponent < 0.0:
        if w[0] <= POSDEF_RTOL * max(w[-1], 0.0):
            raise NotPositiveDefiniteError(
                f"{name} must be positive definite for exponent {exponent}: "
                f"eigenvalue {w[0]:.6e} is not"
            )
    powered = (v * w**exponent) @ v.T
    return 0.5 * (powered + powered.T)


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


def symplectic_spectrum(cov, method="auto", name="covariance"):
    """Symplectic eigenvalues of a positive-definite phase-space matrix.

    These are the moduli of the eigenvalues of ``i J^-1 cov`` (which occur
    in +/- pairs), computed here without complex arithmetic:

    * general path: ``eig(cov^1/2 J^T cov J cov^1/2)`` gives each squared
      symplectic eigenvalue twice;
    * fast path (zero ``qp`` cross block): ``sqrt(eig(qq @ pp))`` via the
      symmetrized product ``qq^1/2 pp qq^1/2``.

    Parameters
    ----------
    cov : (2n, 2n) array_like
        Symmetric positive definite, (q..., p...) ordered.
    method : {"auto", "fast", "general"}
        "auto" takes the fast path when the cross block vanishes
        (relative to the largest entry).

    Returns
    -------
    numpy.ndarray
        The n symplectic eigenvalues, ascending.
    """
    a = require_symmetric(cov, name=name)
    if a.shape[0] % 2:
        raise AsymmetricInputError(
            f"{name} must be 2n x 2n, got {a.shape[0]} rows"
        )
    n = a.shape[0] // 2
    scale = float(np.max(np.abs(a)))
    if method not in ("auto", "fast", "general"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        cross = float(np.max(np.abs(a[:n, n:])))
        method = "fast" if cross <= 1e-12 * scale else "general"

    if method == "fast":
        qq, pp = a[:n, :n], a[n:, n:]
        wq, vq = np.linalg.eigh(qq)
        if wq[0] <= POSDEF_RTOL * max(wq[-1], 0.0):
            raise NotPositiveDefiniteError(
                f"{name} qq block has eigenvalue {wq[0]:.6e}"
            )
        root = vq * np.sqrt(wq)
        sym_prod = root.T @ pp @ root
        lam = np.linalg.eigvalsh(0.5 * (sym_prod + sym_prod.T))
        if lam[0] <= 0.0:
            raise NotPositiveDefiniteError(
                f"{name} pp block is not positive definite on the fast path"
            )
        return np.sqrt(lam)

    w, v = np.linalg.eigh(a)
    if w[0] <= POSDEF_RTOL * max(w[-1], 0.0):
        raise NotPositiveDefiniteError(
            f"{name} must be positive definite: eigenvalue {w[0]:.6e}"
        )
    half = v * np.sqrt(w)            # cov^(1/2) = half @ v.T
    j = symplectic_form(n)
    jl = j @ half @ v.T
    g = jl.T @ a @ jl
    squared = np.linalg.eigvalsh(0.5 * (g + g.T))
    return _pair_up(np.sqrt(np.maximum(squared, 0.0)), scale)
