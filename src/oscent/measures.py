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
    SingularMatrixError,
    SubHeisenbergError,
)
from .linalg import symplectic_spectrum
from .models import TwoMode, TwoModeGeneralized, two_mode_angles

DEFAULT_ALPHAS = (0.9, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

# sigma may dip this far below 1/2 before it is an error; closer values are
# clamped to exactly 1/2 so pure modes contribute exactly zero entropy.
SIGMA_FLOOR_TOL = 1e-9


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
    nu = symplectic_spectrum(cov.matrix, _certified=cov._certified)
    nu = nu / (2.0 * action)
    low = nu < 0.5 - SIGMA_FLOOR_TOL
    if np.any(low):
        raise SubHeisenbergError(
            f"normalized symplectic value {nu[low][0]:.12f} below 1/2"
        )
    return np.maximum(nu, 0.5)


def g_alpha(sigma, alpha):
    """Per-mode generalized-purity factor g_alpha(sigma).

    Defined for finite alpha > 0, alpha != 1; g_alpha(1/2) = 1 for every
    alpha, and g_2(sigma) = 1/(2 sigma).
    """
    alpha = float(alpha)
    if not (0.0 < alpha < np.inf) or alpha == 1.0:
        raise AlphaOutOfDomainError(f"alpha must be in (0, inf) excluding 1, got {alpha}")
    sigma = np.asarray(sigma, dtype=float)
    return 1.0 / ((sigma + 0.5) ** alpha - np.maximum(sigma - 0.5, 0.0) ** alpha)


def von_neumann_entropy(sigma):
    """Entropy (sigma+1/2)ln(sigma+1/2) - (sigma-1/2)ln(sigma-1/2), summed.

    The x ln x term is continued by 0 at sigma = 1/2, so pure modes
    contribute exactly zero.
    """
    sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
    if np.any(sigma < 0.5 - SIGMA_FLOOR_TOL):
        raise SubHeisenbergError("entropy undefined below sigma = 1/2")
    sigma = np.maximum(sigma, 0.5)
    plus = sigma + 0.5
    minus = sigma - 0.5
    upper = plus * np.log(plus)
    lower = np.where(minus > 0.0, minus * np.log(np.where(minus > 0.0, minus, 1.0)), 0.0)
    return float(np.sum(upper - lower))


def purity_from_determinant(cov: CovarianceMatrix):
    """Purity as action**n / sqrt(det cov); equals prod(1 / (2 sigma_k))."""
    _require_dense(cov, "purity_from_determinant")
    action = _require_action(cov)
    sign, logdet = np.linalg.slogdet(cov.matrix)
    if sign <= 0.0:
        raise SingularMatrixError("covariance determinant is not positive")
    return float(np.exp(cov.n_modes * np.log(action) - 0.5 * logdet))


@dataclass(frozen=True)
class AlphaMeasures:
    """Generalized purity and both entropy flavours at one order alpha."""

    alpha: float
    purity: float            # product of g_alpha; NaN at alpha = 1
    tsallis: float           # (1 - purity) / (alpha - 1); entropy limit at 1
    renyi: float             # sum(ln g_alpha) / (1 - alpha); entropy limit at 1


def alpha_family(sigma, alphas=DEFAULT_ALPHAS):
    """AlphaMeasures for each requested order, alpha = 1 via the limit.

    The Renyi value is accumulated as a sum of logs so that large orders on
    many modes underflow gracefully (the product form may reach 0.0). An
    order given twice raises ValueError: it would name two columns alike.
    An order other than 1 whose mu, Tsallis or Renyi value leaves the double
    range (a power or their product overflows, or a difference rounds to 0)
    raises AlphaOutOfDomainError naming the order.
    """
    sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
    out: Dict[float, AlphaMeasures] = {}
    for alpha in alphas:
        alpha = float(alpha)
        if alpha in out:
            raise ValueError(f"alphas repeat the order {alpha:g}")
        if alpha == 1.0:
            s = von_neumann_entropy(sigma)
            out[alpha] = AlphaMeasures(alpha, float("nan"), s, s)
            continue
        # Every overflow or division by zero here ends in a non-finite
        # value, which is refused below, so numpy need not warn of it.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            g = g_alpha(sigma, alpha)
            mu = float(np.prod(g))
            tsallis = (1.0 - mu) / (alpha - 1.0) + 0.0  # + 0.0 drops negative zero
            renyi = float(np.sum(np.log(g))) / (1.0 - alpha) + 0.0
        if not (math.isfinite(mu) and math.isfinite(tsallis) and math.isfinite(renyi)):
            raise AlphaOutOfDomainError(
                f"order {alpha:g} leaves the double range on these widths: "
                f"mu = {mu:g}, tsallis = {tsallis:g}, renyi = {renyi:g}")
        out[alpha] = AlphaMeasures(alpha, mu, tsallis, renyi)
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

    The purity of a pure whole state (``cov._pure``) is exactly 1; any other
    state takes it from purity_from_determinant.
    """
    sigma = sigma_tilde(cov)
    purity = 1.0 if cov._pure else purity_from_determinant(cov)
    return MeasureReport(
        label=label,
        sigma=sigma,
        purity=purity,
        linear_entropy=1.0 - purity,
        von_neumann=von_neumann_entropy(sigma),
        families=alpha_family(sigma, alphas),
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
