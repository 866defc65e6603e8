"""Quadratic oscillator models and their normal-mode decompositions.

A model fixes the Hamiltonian ``H = p.p/2 + q.K.q/2 + q.Y.p`` through a
symmetric stiffness matrix K and a diagonal position-momentum coupling Y.
Stability is governed by ``M = K - Y**2``: all normal-mode frequencies are
real exactly when M is positive definite, and then ``omega = sqrt(eig(M))``
with the eigenvector columns collected in S (so ``M**a = S @ W**(2a) @ S.T``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .errors import (
    DegenerateParametersError,
    InvalidModelError,
    UnstableSystemError,
)
from .linalg import eig_sym, require_symmetric
from .errors import AsymmetricInputError


@dataclass(frozen=True)
class TwoMode:
    """Two oscillators with a bilinear position coupling C*q1*q2.

    Stiffness block [[A, C/2], [C/2, B]]; no position-momentum coupling.
    Requires A > 0, B > 0, A != B and 4AB - C**2 >= 0.
    """

    A: float
    B: float
    C: float


@dataclass(frozen=True)
class TwoModeGeneralized:
    """Two oscillators with spring-like coupling Z and couplings Y1, Y2.

    Stiffness block [[X1 + Z, -Z], [-Z, X2 + Z]] and Y = diag(Y1, Y2).
    """

    X1: float
    X2: float
    Y1: float
    Y2: float
    Z: float


@dataclass(frozen=True, eq=False)
class GeneralizedChain:
    """Arbitrary symmetric stiffness K with diagonal couplings Y."""

    K: np.ndarray
    Y: np.ndarray


@dataclass(frozen=True)
class CircularLattice:
    """N oscillators on a ring, nearest-neighbour springs kappa, pinning k.

    K is circulant: k + 2*kappa on the diagonal, -kappa next to it and in
    the wrap-around corners.
    """

    N: int
    k: float
    kappa: float


HamiltonianModel = Union[TwoMode, TwoModeGeneralized, GeneralizedChain, CircularLattice]


class StabilityReport(NamedTuple):
    stable: bool
    min_eigenvalue: float


class NormalModes(NamedTuple):
    """Orthonormal mode matrix S (columns = modes), frequencies ascending,
    and the diagonal of Y carried along for covariance assembly."""

    s: np.ndarray
    omegas: np.ndarray
    ydiag: np.ndarray


class TwoModeAngles(NamedTuple):
    """Closed-form mixing angle and frequencies in the model's own labeling.

    ``permuted`` is True when that labeling is descending, i.e. swapped
    relative to the ascending eigensolver order.
    """

    angle: float
    omega1: float
    omega2: float
    permuted: bool


def validate_model(model):
    """Raise InvalidModelError if the parameters violate the model's domain."""
    if isinstance(model, TwoMode):
        if not (model.A > 0.0 and model.B > 0.0):
            raise InvalidModelError(f"A and B must be positive, got A={model.A}, B={model.B}")
        if model.A == model.B:
            raise InvalidModelError("A == B is excluded (degenerate two-mode closed forms)")
        if 4.0 * model.A * model.B - model.C**2 < 0.0:
            raise InvalidModelError(
                f"4AB - C^2 = {4.0 * model.A * model.B - model.C ** 2} < 0"
            )
    elif isinstance(model, TwoModeGeneralized):
        for field in ("X1", "X2", "Y1", "Y2", "Z"):
            value = getattr(model, field)
            if not np.isfinite(value):
                raise InvalidModelError(f"field '{field}': must be finite, got {value}")
    elif isinstance(model, GeneralizedChain):
        try:
            k = require_symmetric(model.K, name="K")
        except (AsymmetricInputError, TypeError, ValueError) as exc:
            raise InvalidModelError(f"field 'K': {exc}") from exc
        y = np.asarray(model.Y, dtype=float)
        if y.ndim != 1 or y.shape[0] != k.shape[0]:
            raise InvalidModelError(
                f"field 'Y': expected length-{k.shape[0]} vector, got shape {y.shape}"
            )
    elif isinstance(model, CircularLattice):
        if int(model.N) != model.N or model.N < 3:
            raise InvalidModelError(f"field 'N': need an integer >= 3, got {model.N}")
        for field in ("k", "kappa"):
            value = getattr(model, field)
            if not (np.isfinite(value) and value >= 0.0):
                raise InvalidModelError(
                    f"field '{field}': must be finite and >= 0, got {value}"
                )
    else:
        raise InvalidModelError(f"unknown model type {type(model).__name__}")
    return model


def assemble_ky(model):
    """Stiffness matrix K and the diagonal of Y for any model variant."""
    validate_model(model)
    if isinstance(model, TwoMode):
        k = np.array([[model.A, model.C / 2.0], [model.C / 2.0, model.B]])
        y = np.zeros(2)
    elif isinstance(model, TwoModeGeneralized):
        k = np.array([[model.X1 + model.Z, -model.Z], [-model.Z, model.X2 + model.Z]])
        y = np.array([model.Y1, model.Y2], dtype=float)
    elif isinstance(model, GeneralizedChain):
        k = require_symmetric(model.K, name="K")
        y = np.asarray(model.Y, dtype=float).copy()
    else:
        n = int(model.N)
        k = np.zeros((n, n))
        np.fill_diagonal(k, model.k + 2.0 * model.kappa)
        idx = np.arange(n)
        k[idx, (idx + 1) % n] -= model.kappa
        k[idx, (idx - 1) % n] -= model.kappa
        y = np.zeros(n)
    return k, y


def m_matrix(model):
    """M = K - Y**2, the matrix whose spectrum decides stability."""
    k, y = assemble_ky(model)
    m = k.copy()
    m[np.diag_indices_from(m)] -= y**2
    return m


def stability(model):
    """Report whether all normal-mode frequencies are real (M > 0)."""
    w, _ = eig_sym(m_matrix(model), name="M")
    return StabilityReport(bool(w[0] > 0.0), float(w[0]))


def normal_modes(model):
    """Diagonalize M = K - Y**2 into frequencies and mode vectors.

    Raises
    ------
    UnstableSystemError
        If the smallest eigenvalue of M is not strictly positive.
    """
    k, y = assemble_ky(model)
    m = k.copy()
    m[np.diag_indices_from(m)] -= y**2
    w, s = eig_sym(m, name="M")
    if w[0] <= 0.0:
        raise UnstableSystemError(
            f"system is not stable: min eigenvalue of K - Y^2 is {w[0]:.6e}"
        )
    return NormalModes(s, np.sqrt(w), y)


def ring_frequencies(model: CircularLattice):
    """Closed-form normal-mode frequencies of a ring, in Fourier order.

    The ring's K is circulant, so its eigenvectors are the Fourier modes
    and mode j has omega_j**2 = k + 2 kappa (1 - cos(2 pi j / N)),
    j = 0..N-1 (not sorted).

    Raises
    ------
    UnstableSystemError
        If any omega_j**2 is not strictly positive (k = 0 leaves the
        uniform translation at zero frequency).
    """
    validate_model(model)
    n = int(model.N)
    w2 = model.k + 2.0 * model.kappa * (1.0 - np.cos(2.0 * np.pi * np.arange(n) / n))
    if not np.all(w2 > 0.0):
        raise UnstableSystemError(
            f"system is not stable: min eigenvalue of K - Y^2 is {np.min(w2):.6e}"
        )
    return np.sqrt(w2)


def two_mode_angles(model):
    """Closed-form normal-mode rotation for the two-oscillator models.

    For TwoMode the angle beta solves tan(2 beta) = C / (B - A) and

        omega1 = sqrt(A - (C/2) tan beta),  omega2 = sqrt(B + (C/2) tan beta).

    For TwoModeGeneralized the angle theta solves tan(2 theta) = 1 / gamma
    with gamma = (X2 - X1 + Y1^2 - Y2^2) / (2 Z), taking the root

        tan theta = sign(gamma) * sqrt(gamma^2 + 1) - gamma,

    and omega1 = sqrt(X1 - Y1^2 + Z - Z tan theta),
        omega2 = sqrt(X2 - Y2^2 + Z + Z tan theta).

    Frequencies keep the model's own labeling; ``permuted`` flags when that
    labeling is descending. Agrees with ``normal_modes`` to roundoff.
    """
    validate_model(model)
    if isinstance(model, TwoMode):
        if model.A == model.B:
            raise DegenerateParametersError("angle undefined for A == B")
        beta = 0.5 * np.arctan(model.C / (model.B - model.A))
        t = np.tan(beta)
        w1sq = model.A - 0.5 * model.C * t
        w2sq = model.B + 0.5 * model.C * t
        if min(w1sq, w2sq) <= 0.0:
            raise UnstableSystemError(
                f"squared frequencies ({w1sq:.6e}, {w2sq:.6e}) are not both positive"
            )
        return TwoModeAngles(float(beta), float(np.sqrt(w1sq)), float(np.sqrt(w2sq)), bool(w1sq > w2sq))
    if isinstance(model, TwoModeGeneralized):
        num = model.X2 - model.X1 + model.Y1**2 - model.Y2**2
        if model.Z == 0.0 or num == 0.0:
            raise DegenerateParametersError(
                "angle closed form needs Z != 0 and X2 - X1 + Y1^2 - Y2^2 != 0"
            )
        gamma = num / (2.0 * model.Z)
        t = np.sign(gamma) * np.hypot(gamma, 1.0) - gamma
        theta = np.arctan(t)
        w1sq = model.X1 - model.Y1**2 + model.Z * (1.0 - t)
        w2sq = model.X2 - model.Y2**2 + model.Z * (1.0 + t)
        if min(w1sq, w2sq) <= 0.0:
            raise UnstableSystemError(
                f"squared frequencies ({w1sq:.6e}, {w2sq:.6e}) are not both positive"
            )
        return TwoModeAngles(float(theta), float(np.sqrt(w1sq)), float(np.sqrt(w2sq)), bool(w1sq > w2sq))
    raise InvalidModelError(
        f"closed-form angles exist only for the two-oscillator models, got {type(model).__name__}"
    )


# --- model files ----------------------------------------------------------

_VARIANT_FIELDS = {
    "TwoMode": ("A", "B", "C"),
    "TwoModeGeneralized": ("X1", "X2", "Y1", "Y2", "Z"),
    "GeneralizedChain": ("K", "Y"),
    "CircularLattice": ("N", "k", "kappa"),
}


def model_from_dict(data):
    """Build a model from a plain dict (the JSON model-file layout)."""
    if not isinstance(data, dict):
        raise InvalidModelError(f"model document must be an object, got {type(data).__name__}")
    variant = data.get("variant")
    if variant not in _VARIANT_FIELDS:
        raise InvalidModelError(
            f"field 'variant': expected one of {sorted(_VARIANT_FIELDS)}, got {variant!r}"
        )
    fields = _VARIANT_FIELDS[variant]
    for field in fields:
        if field not in data:
            raise InvalidModelError(f"field '{field}': missing for variant {variant}")
    extra = set(data) - set(fields) - {"variant"}
    if extra:
        raise InvalidModelError(f"field '{sorted(extra)[0]}': not part of variant {variant}")

    def number(field):
        value = data[field]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InvalidModelError(f"field '{field}': expected a number, got {value!r}")
        return float(value)

    if variant == "TwoMode":
        model = TwoMode(number("A"), number("B"), number("C"))
    elif variant == "TwoModeGeneralized":
        model = TwoModeGeneralized(
            number("X1"), number("X2"), number("Y1"), number("Y2"), number("Z")
        )
    elif variant == "GeneralizedChain":
        try:
            k = np.asarray(data["K"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise InvalidModelError(f"field 'K': not a numeric matrix ({exc})") from exc
        try:
            y = np.asarray(data["Y"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise InvalidModelError(f"field 'Y': not a numeric vector ({exc})") from exc
        model = GeneralizedChain(k, y)
    else:
        raw_n = data["N"]
        if isinstance(raw_n, bool) or not isinstance(raw_n, int):
            raise InvalidModelError(f"field 'N': expected an integer, got {raw_n!r}")
        model = CircularLattice(raw_n, number("k"), number("kappa"))
    return validate_model(model)


def model_to_dict(model):
    validate_model(model)
    if isinstance(model, TwoMode):
        return {"variant": "TwoMode", "A": model.A, "B": model.B, "C": model.C}
    if isinstance(model, TwoModeGeneralized):
        return {
            "variant": "TwoModeGeneralized",
            "X1": model.X1, "X2": model.X2,
            "Y1": model.Y1, "Y2": model.Y2, "Z": model.Z,
        }
    if isinstance(model, GeneralizedChain):
        return {
            "variant": "GeneralizedChain",
            "K": np.asarray(model.K, dtype=float).tolist(),
            "Y": np.asarray(model.Y, dtype=float).tolist(),
        }
    return {"variant": "CircularLattice", "N": int(model.N), "k": model.k, "kappa": model.kappa}


def load_model(path):
    """Read a JSON model file; raises InvalidModelError naming the bad field."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidModelError(f"not valid JSON: {exc}") from exc
    return model_from_dict(data)


def save_model(model, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")
