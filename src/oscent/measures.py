"""Purity-style measures of reduced covariance matrices.

All measures are functions of the normalized symplectic spectrum

    sigma_k = nu_k / (2 c)          (uniform action c; c = hbar/2 in the
                                     quantum ground state)

which is bounded below by 1/2, with equality exactly on pure/whole-system
reductions. The per-mode building block for order alpha is

    g_alpha(sigma) = 1 / ((sigma + 1/2)**alpha - (sigma - 1/2)**alpha)

and the entropy-like quantities derive from products and log-sums of g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

import numpy as np

from .covariance import CovarianceMatrix, _require_action, _require_dense
from .errors import (
    AlphaOutOfDomainError,
    DegenerateParametersError,
    NotPositiveDefiniteError,
    SingularMatrixError,
    SubHeisenbergError,
)
from .linalg import _spectrum_and_log_det, _unsheared_blocks, symplectic_spectrum
from .models import TwoMode, TwoModeGeneralized, two_mode_angles

DEFAULT_ALPHAS = (0.9, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

# sigma may dip this far below 1/2 before it is an error; closer values are
# clamped to exactly 1/2 so pure modes contribute exactly zero entropy.
SIGMA_FLOOR_TOL = 1e-9


def _widths(nu, action):
    # nu / 2c, refused below the floor by more than SIGMA_FLOOR_TOL and
    # clamped to it within.
    nu = nu / (2.0 * action)
    low = nu < 0.5 - SIGMA_FLOOR_TOL
    if np.any(low):
        raise SubHeisenbergError(
            f"normalized symplectic value {nu[low][0]:.12f} below 1/2"
        )
    return np.maximum(nu, 0.5)


def sigma_tilde(cov: CovarianceMatrix):
    """Normalized symplectic spectrum of a (reduced) covariance, ascending.

    Values within SIGMA_FLOOR_TOL below 1/2 are clamped to 1/2; anything
    farther below raises SubHeisenbergError, since no classical-state or
    ground-state reduction can produce it. A certified state (built from
    normal modes, or a reduction of one) skips the symmetry, scale and
    shear scans and the qq eigenvalue test its certificate covers. A whole
    state built from normal modes at one common action (``cov._pure``) is
    pure, so every width is exactly 1/2 and no solve runs.
    """
    _require_dense(cov, "sigma_tilde")
    action = _require_action(cov)
    if cov._pure:
        return np.full(cov.n_modes, 0.5)
    return _widths(symplectic_spectrum(cov.matrix, _certified=cov._certified), action)


def _in_domain(alpha):
    # g_alpha's orders: finite, positive and not 1 (False for NaN).
    return 0.0 < alpha < np.inf and alpha != 1.0


def _checked_order(alpha):
    alpha = float(alpha)
    if not _in_domain(alpha):
        raise AlphaOutOfDomainError(f"alpha must be in (0, inf) excluding 1, got {alpha}")
    return alpha


def _checked_widths(sigma):
    # The widths as a float array, refused when NaN, infinite or more than
    # SIGMA_FLOOR_TOL below 1/2, and clamped to 1/2 within that tolerance.
    sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
    # The least width is NaN when any width is, and then fails the test.
    if not np.min(sigma, initial=np.inf) >= 0.5 - SIGMA_FLOOR_TOL:
        raise SubHeisenbergError("entropy undefined below sigma = 1/2")
    widest = np.max(sigma, initial=0.5)
    if widest == np.inf:
        raise SubHeisenbergError(f"entropy undefined at the width {widest}: it is not finite")
    return np.maximum(sigma, 0.5)


def g_alpha(sigma, alpha):
    """Per-mode generalized-purity factor g_alpha(sigma), in sigma's shape.

    Defined for finite alpha > 0, alpha != 1; g_alpha(1/2) = 1 for every
    alpha, and g_2(sigma) = 1/(2 sigma). The widths are checked first, as
    by alpha_family: a NaN or infinite width, or one more than
    SIGMA_FLOOR_TOL below 1/2, raises SubHeisenbergError, and closer ones
    count as 1/2.
    """
    sigma = np.asarray(sigma, dtype=float)
    sigma = _checked_widths(sigma).reshape(sigma.shape)
    alpha = _checked_order(alpha)
    return 1.0 / ((sigma + 0.5) ** alpha - (sigma - 0.5) ** alpha)


def von_neumann_entropy(sigma):
    """Entropy (sigma+1/2)ln(sigma+1/2) - (sigma-1/2)ln(sigma-1/2), summed.

    The x ln x term is continued by 0 at sigma = 1/2, so pure modes
    contribute exactly zero. A NaN or infinite width, or one more than
    SIGMA_FLOOR_TOL below 1/2, raises SubHeisenbergError; closer ones count
    as 1/2.
    """
    sigma = _checked_widths(sigma)
    plus = sigma + 0.5
    minus = sigma - 0.5
    upper = plus * np.log(plus)
    lower = np.where(minus > 0.0, minus * np.log(np.where(minus > 0.0, minus, 1.0)), 0.0)
    return float(np.sum(upper - lower))


def _log_det(a, qq, pp):
    # log det a from linalg._unsheared_blocks' output. The shear
    # (q, p) -> (q, p - Y q) has determinant 1, so det a = det qq det pp
    # when pp is the unsheared block; any other cross block (pp None) takes
    # the LU of the whole matrix.
    if pp is None:
        sign, logdet = np.linalg.slogdet(a)
    else:
        (sign_qq, log_qq), (sign_pp, log_pp) = np.linalg.slogdet(qq), np.linalg.slogdet(pp)
        sign, logdet = sign_qq * sign_pp, log_qq + log_pp
    if sign <= 0.0:
        raise SingularMatrixError("covariance determinant is not positive")
    return logdet


def _purity(n_modes, action, logdet):
    return float(np.exp(n_modes * np.log(action) - 0.5 * logdet))


def purity_from_determinant(cov: CovarianceMatrix):
    """Purity as action**n / sqrt(det cov); equals prod(1 / (2 sigma_k)).

    With the cross block zero or a local shear the determinant is the
    product of those of qq and the unsheared pp (see _log_det); any other
    cross block takes the LU of the whole matrix. These LUs are a route
    independent of the Cholesky factors that measure_report reads its
    purity from. A matrix that is not certified is first checked for
    symmetry, as by symplectic_spectrum, and refused with
    NotPositiveDefiniteError when it has no Cholesky factor; a certified
    one (CovarianceMatrix._certified) is trusted.
    """
    _require_dense(cov, "purity_from_determinant")
    action = _require_action(cov)
    blocks = _unsheared_blocks(cov.matrix, "covariance", certified=cov._certified)
    logdet = _log_det(*blocks)
    if not cov._certified:
        try:
            np.linalg.cholesky(blocks[0])
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(f"covariance has no Cholesky factor: {exc}") from exc
    return _purity(cov.n_modes, action, logdet)


@dataclass(frozen=True)
class AlphaMeasures:
    """Generalized purity and both entropy flavours at one order alpha."""

    alpha: float
    purity: float            # product of g_alpha; NaN at alpha = 1
    tsallis: float           # (1 - purity) / (alpha - 1); entropy limit at 1
    renyi: float             # sum(ln g_alpha) / (1 - alpha); entropy limit at 1


# numpy computes x ** 0.5 and x ** 2.0 with a scalar exponent as sqrt and
# square, whose bits may differ from pow's; rows of these orders take the
# same ufuncs, so every row keeps the bits of its scalar power.
_SCALAR_POWERS = {0.5: np.sqrt, 2.0: np.square}


def _powers(x, orders):
    # x ** alpha of a 2-d x for each of the 1-d orders, stacked on a new
    # first axis, each bit for bit x ** alpha.
    out = x ** orders[:, np.newaxis, np.newaxis]
    for row, order in zip(out, orders):
        ufunc = _SCALAR_POWERS.get(order)
        if ufunc is not None:
            ufunc(x, out=row)
    return out


def alpha_family(sigma, alphas=DEFAULT_ALPHAS):
    """AlphaMeasures for each requested order, alpha = 1 via the limit.

    The widths are checked as by von_neumann_entropy, whatever the orders:
    a NaN or infinite width, or one more than SIGMA_FLOOR_TOL below 1/2,
    raises SubHeisenbergError, and closer ones count as 1/2. Every order other
    than 1 is evaluated in one (orders x widths) array expression, with the
    bits of g_alpha at that order alone. The Renyi value is accumulated as
    a sum of logs so that large orders on many modes underflow gracefully
    (the product form may reach 0.0). The orders are then refused in the
    order given: one given twice raises ValueError, as it would name two
    columns alike; one outside (0, inf) raises AlphaOutOfDomainError, and so
    does one whose mu, Tsallis or Renyi value leaves the double range (a
    power or their product overflows, or a difference rounds to 0).
    """
    sigma = _checked_widths(sigma)
    orders = [float(alpha) for alpha in alphas]
    solved = np.array([alpha for alpha in orders if _in_domain(alpha)])
    # Every overflow or division by zero here ends in a non-finite value,
    # which is refused below, so numpy need not warn of it.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        powers = _powers(np.stack([sigma + 0.5, sigma - 0.5]), solved)
        g = 1.0 / (powers[:, 0] - powers[:, 1])
        mu = np.prod(g, axis=1)
        tsallis = (1.0 - mu) / (solved - 1.0) + 0.0   # + 0.0 drops negative zero
        renyi = np.sum(np.log(g), axis=1) / (1.0 - solved) + 0.0
    rows = zip(mu.tolist(), tsallis.tolist(), renyi.tolist())
    out: Dict[float, AlphaMeasures] = {}
    for alpha in orders:
        if alpha in out:
            raise ValueError(f"alphas repeat the order {alpha:g}")
        if alpha == 1.0:
            s = von_neumann_entropy(sigma)
            out[alpha] = AlphaMeasures(alpha, float("nan"), s, s)
            continue
        _checked_order(alpha)
        mu_a, tsallis_a, renyi_a = next(rows)
        if not (math.isfinite(mu_a) and math.isfinite(tsallis_a) and math.isfinite(renyi_a)):
            raise AlphaOutOfDomainError(
                f"order {alpha:g} leaves the double range on these widths: "
                f"mu = {mu_a:g}, tsallis = {tsallis_a:g}, renyi = {renyi_a:g}")
        out[alpha] = AlphaMeasures(alpha, mu_a, tsallis_a, renyi_a)
    return out


@dataclass(frozen=True)
class MeasureReport:
    """Everything the sweeps report about one reduced covariance."""

    label: str
    sigma: np.ndarray
    purity: float
    linear_entropy: float
    von_neumann: float
    families: Dict[float, AlphaMeasures]


def measure_report(cov: CovarianceMatrix, alphas=DEFAULT_ALPHAS, label=""):
    """Purity, linear entropy, entropy and the alpha family of a reduction.

    A pure whole state (``cov._pure``) reads widths 1/2 and purity exactly
    1 with no solve. Any other state is unsheared once
    (linalg._unsheared_blocks) and factored once per block: the widths are
    sigma_tilde's, bit for bit, and log det is read from the Cholesky
    diagonals of qq and the unsheared pp, or of the whole matrix when its
    cross block is no local shear; no LU runs (purity_from_determinant
    keeps them, as an independent route). The spectrum's own tests refuse
    a matrix that is not positive definite, and a pp with no Cholesky
    factor raises NotPositiveDefiniteError. The entropy is the alpha = 1
    entry of the family when that order is asked for.
    """
    _require_dense(cov, "sigma_tilde")
    action = _require_action(cov)
    if cov._pure:
        sigma, purity = np.full(cov.n_modes, 0.5), 1.0
    else:
        nu, logdet = _spectrum_and_log_det(cov.matrix, certified=cov._certified)
        sigma, purity = _widths(nu, action), _purity(cov.n_modes, action, logdet)
    families = alpha_family(sigma, alphas)
    von_neumann = families[1.0].tsallis if 1.0 in families else von_neumann_entropy(sigma)
    return MeasureReport(
        label=label,
        sigma=sigma,
        purity=purity,
        linear_entropy=1.0 - purity,
        von_neumann=von_neumann,
        families=families,
    )


# --- two-oscillator closed forms ------------------------------------------

def one_mode_sigma_closed_form(a, b, c):
    """Normalized one-oscillator sigma of the plain two-mode model.

    With g0 = sqrt(AB - C^2/4) the coupling matrix [[A, C/2], [C/2, B]] has
    square root (M + g0)/sqrt(A + B + 2 g0), so the first-oscillator
    reduction of the uniform-action covariance has

        sigma_1 = (1/2) sqrt((A + g0)(B + g0) / ((A + B + 2 g0) g0)).

    Equals 1/2 exactly at C = 0 and diverges as 4AB - C^2 -> 0.
    """
    disc = 4.0 * a * b - c * c
    if disc <= 0.0:
        raise DegenerateParametersError(f"4AB - C^2 = {disc} must be positive")
    g0 = np.sqrt(a * b - 0.25 * c * c)
    return float(0.5 * np.sqrt((a + g0) * (b + g0) / ((a + b + 2.0 * g0) * g0)))


def one_mode_purity_closed_form(omega1, omega2, angle):
    """Purity of the first-oscillator reduction from the mixing angle:

        sqrt(w1 w2 / ((w1 cos^2 + w2 sin^2)(w2 cos^2 + w1 sin^2)))

    Equals 1 exactly when the frequencies coincide or the angle vanishes.
    """
    c2 = np.cos(angle) ** 2
    s2 = np.sin(angle) ** 2
    return float(
        np.sqrt(omega1 * omega2 / ((omega1 * c2 + omega2 * s2) * (omega2 * c2 + omega1 * s2)))
    )


def two_mode_reduced_purity(model):
    """Closed-form one-oscillator purity for either two-oscillator model."""
    if not isinstance(model, (TwoMode, TwoModeGeneralized)):
        raise DegenerateParametersError(
            f"closed form needs a two-oscillator model, got {type(model).__name__}"
        )
    angles = two_mode_angles(model)
    return one_mode_purity_closed_form(angles.omega1, angles.omega2, angles.angle)
