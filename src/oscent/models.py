"""Quadratic oscillator models and their normal-mode decompositions.

A model fixes the Hamiltonian ``H = p.p/2 + q.K.q/2 + q.Y.p`` through a
symmetric stiffness matrix K and a diagonal position-momentum coupling Y.
Stability is governed by ``M = K - Y**2``: all normal-mode frequencies are
real exactly when M is positive definite, and then ``omega = sqrt(eig(M))``
with the eigenvector columns collected in S (so ``M**a = S @ W**(2a) @ S.T``).
A model checks its parameters when it is built (``dataclasses.replace``
too) and raises InvalidModelError outside its domain; none is checked again.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import NamedTuple, Union, get_args

import numpy as np

from .errors import (
    DegenerateParametersError,
    InvalidModelError,
    NoConvergenceError,
    UnstableSystemError,
)
from .linalg import require_symmetric


def _require_finite(model, fields):
    for field in fields:
        value = getattr(model, field)
        if not np.isfinite(value):
            raise InvalidModelError(f"field '{field}': must be finite, got {value}")


def _require_finite_square(field, y):
    # Y**2 enters M = K - Y**2; a coupling whose square overflows is refused
    # here, before numpy squares it with a warning into an infinite M.
    y = np.atleast_1d(y)
    with np.errstate(over="ignore"):
        bad = ~np.isfinite(y * y)
    if np.any(bad):
        raise InvalidModelError(f"field '{field}': {field}**2 overflows, got {y[bad][0]}")


@dataclass(frozen=True)
class TwoMode:
    """Two oscillators with a bilinear position coupling C*q1*q2.

    Stiffness block [[A, C/2], [C/2, B]]; no position-momentum coupling.
    Requires A > 0, B > 0, A != B and 4AB - C**2 >= 0.
    """

    A: float
    B: float
    C: float

    def __post_init__(self):
        _require_finite(self, ("A", "B", "C"))
        if not (self.A > 0.0 and self.B > 0.0):
            raise InvalidModelError(f"A and B must be positive, got A={self.A}, B={self.B}")
        if self.A == self.B:
            raise InvalidModelError("A == B is excluded (degenerate two-mode closed forms)")
        disc = 4.0 * self.A * self.B - self.C * self.C  # C**2 raises on overflow
        if disc < 0.0:
            raise InvalidModelError(f"4AB - C^2 = {disc} < 0")


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

    def __post_init__(self):
        _require_finite(self, ("X1", "X2", "Y1", "Y2", "Z"))
        for field in ("Y1", "Y2"):
            _require_finite_square(field, getattr(self, field))
        for x, y in (("X1", "Y1"), ("X2", "Y2")):
            # Each finite, but M_jj = X + Z - Y**2 may not be; Python floats
            # overflow to inf without a warning.
            xv, yv = float(getattr(self, x)), float(getattr(self, y))
            if not np.isfinite(xv + float(self.Z) - yv * yv):
                raise InvalidModelError(f"field '{x}': {x} + Z - {y}**2 overflows, "
                                        f"got {x} = {xv}, Z = {self.Z}, {y} = {yv}")


@dataclass(frozen=True, eq=False)
class GeneralizedChain:
    """Arbitrary symmetric stiffness K with diagonal couplings Y, stored as
    read-only float arrays, K as ``require_symmetric`` returns it."""

    K: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        try:
            k = require_symmetric(self.K, name="K")
        except (TypeError, ValueError) as exc:  # AsymmetricInputError included
            raise InvalidModelError(f"field 'K': {exc}") from exc
        if k.shape[0] == 0:
            raise InvalidModelError("field 'K': a chain needs at least one oscillator")
        y = np.array(self.Y, dtype=float)
        if y.ndim != 1 or y.shape[0] != k.shape[0]:
            raise InvalidModelError(
                f"field 'Y': expected length-{k.shape[0]} vector, got shape {y.shape}"
            )
        if not np.all(np.isfinite(y)):
            raise InvalidModelError(f"field 'Y': must be finite, got {y[~np.isfinite(y)][0]}")
        _require_finite_square("Y", y)
        with np.errstate(over="ignore"):   # each finite, but M_jj = K_jj - Y_j**2 may not be
            bad = np.flatnonzero(~np.isfinite(np.diag(k) - y * y))
        if bad.size:
            j = bad[0]
            raise InvalidModelError(f"field 'K': K_jj - Y_j**2 overflows at j = {j}, "
                                    f"got K_jj = {k[j, j]}, Y_j = {y[j]}")
        for name, value in (("K", k), ("Y", y)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class CircularLattice:
    """N oscillators on a ring, nearest-neighbour springs kappa, pinning k.

    K is circulant: k + 2*kappa on the diagonal, -kappa next to it and in
    the wrap-around corners.
    """

    N: int
    k: float
    kappa: float

    def __post_init__(self):
        if int(self.N) != self.N or self.N < 3:
            raise InvalidModelError(f"field 'N': need an integer >= 3, got {self.N}")
        for field in ("k", "kappa"):
            value = getattr(self, field)
            if not (np.isfinite(value) and value >= 0.0):
                raise InvalidModelError(
                    f"field '{field}': must be finite and >= 0, got {value}"
                )
        if not np.isfinite(self.k + 4.0 * self.kappa):  # the largest omega**2
            raise InvalidModelError(f"field 'kappa': k + 4*kappa overflows for "
                                    f"k={self.k}, kappa={self.kappa}")


HamiltonianModel = Union[TwoMode, TwoModeGeneralized, GeneralizedChain, CircularLattice]
_MODEL_TYPES = get_args(HamiltonianModel)


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


def assemble_ky(model):
    """Stiffness matrix K and the diagonal of Y for any model variant."""
    if isinstance(model, GeneralizedChain):
        return model.K.copy(), model.Y.copy()
    if isinstance(model, TwoMode):
        k = np.array([[model.A, model.C / 2.0], [model.C / 2.0, model.B]], dtype=float)
        y = np.zeros(2)
    elif isinstance(model, TwoModeGeneralized):
        k = np.array([[model.X1 + model.Z, -model.Z], [-model.Z, model.X2 + model.Z]],
                     dtype=float)
        y = np.array([model.Y1, model.Y2], dtype=float)
    elif isinstance(model, CircularLattice):
        n = int(model.N)
        k = np.zeros((n, n))
        np.fill_diagonal(k, model.k + 2.0 * model.kappa)
        idx = np.arange(n)
        k[idx, (idx + 1) % n] -= model.kappa
        k[idx, (idx - 1) % n] -= model.kappa
        y = np.zeros(n)
    else:
        raise InvalidModelError(f"unknown model type {type(model).__name__}")
    return k, y


def _k_minus_y2(k, y):
    k[np.diag_indices_from(k)] -= y**2  # in place: k is assemble_ky's own array
    return k


def m_matrix(model):
    """M = K - Y**2, the matrix whose spectrum decides stability."""
    return _k_minus_y2(*assemble_ky(model))


def stability(model):
    """Report whether all normal-mode frequencies are real (M > 0)."""
    try:
        low = float(np.linalg.eigvalsh(m_matrix(model))[0])  # exactly symmetric, finite
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergenceError(f"eigendecomposition failed: {exc}") from exc
    return StabilityReport(low > 0.0, low)


def normal_modes(model):
    """Diagonalize M = K - Y**2 into frequencies and mode vectors.

    Raises
    ------
    UnstableSystemError
        If the smallest eigenvalue of M is not strictly positive.
    """
    k, y = assemble_ky(model)
    try:
        w, s = np.linalg.eigh(_k_minus_y2(k, y))  # exactly symmetric, finite
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergenceError(f"eigendecomposition failed: {exc}") from exc
    if w[0] <= 0.0:
        raise UnstableSystemError(
            f"system is not stable: min eigenvalue of K - Y^2 is {w[0]:.6e}"
        )
    return NormalModes(s, np.sqrt(w), y)


def _ring_frequency_rows(models):
    # Frequencies of rings of one size, one row each in Fourier order: K is
    # circulant, so mode j has omega_j**2 = k + 2 kappa (1 - cos(2 pi j / N)),
    # from one cosine table for every model. The models are read once, in
    # order, so the first bad one is the one reported. The table is exactly
    # 0 at j = 0 and never negative, so a model's smallest omega**2 is its k:
    # k = 0 leaves the uniform translation at zero, which is unstable.
    size, ks, kappas = None, [], []
    for model in models:
        n = int(model.N)
        if size is None:
            size = n
        elif n != size:
            raise ValueError(f"rings of one size only: got N = {size} and N = {n}")
        if not model.k > 0.0:
            raise UnstableSystemError(
                f"system is not stable: min eigenvalue of K - Y^2 is {model.k + 0.0:.6e}"
            )
        ks.append(model.k)
        kappas.append(model.kappa)
    if size is None:
        raise ValueError("rings of one size need one or more models: the model list is empty")
    table = 1.0 - np.cos(2.0 * np.pi * np.arange(size) / size)
    k, kappa = np.array(ks, dtype=float), np.array(kappas, dtype=float)
    return np.sqrt(k[:, np.newaxis] + 2.0 * kappa[:, np.newaxis] * table)


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
    if isinstance(model, TwoMode):
        angle = 0.5 * np.arctan(model.C / (model.B - model.A))
        t = np.tan(angle)
        w1sq = model.A - 0.5 * model.C * t
        w2sq = model.B + 0.5 * model.C * t
    elif isinstance(model, TwoModeGeneralized):
        num = model.X2 - model.X1 + model.Y1**2 - model.Y2**2
        if model.Z == 0.0 or num == 0.0:
            raise DegenerateParametersError(
                "angle closed form needs Z != 0 and X2 - X1 + Y1^2 - Y2^2 != 0"
            )
        gamma = num / (2.0 * model.Z)
        t = np.sign(gamma) * np.hypot(gamma, 1.0) - gamma
        angle = np.arctan(t)
        w1sq = model.X1 - model.Y1**2 + model.Z * (1.0 - t)
        w2sq = model.X2 - model.Y2**2 + model.Z * (1.0 + t)
    else:
        raise InvalidModelError(
            "closed-form angles exist only for the two-oscillator models, "
            f"got {type(model).__name__}"
        )
    if min(w1sq, w2sq) <= 0.0:
        raise UnstableSystemError(
            f"squared frequencies ({w1sq:.6e}, {w2sq:.6e}) are not both positive"
        )
    return TwoModeAngles(float(angle), float(np.sqrt(w1sq)), float(np.sqrt(w2sq)), bool(w1sq > w2sq))


# --- model files ----------------------------------------------------------

def _number(field, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidModelError(f"field '{field}': expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:  # an integer beyond the largest double
        raise InvalidModelError(f"field '{field}': {exc}") from exc


def _integer(field, value):
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidModelError(f"field '{field}': expected an integer, got {value!r}")
    return value


def _array(field, value):
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        kind = "matrix" if field == "K" else "vector"
        raise InvalidModelError(f"field '{field}': not a numeric {kind} ({exc})") from exc


# (file reader, file writer) per field annotation, a string under postponed annotations.
_FIELD_CODECS = {
    "float": (_number, lambda value: value.item() if isinstance(value, np.generic) else value),
    "int": (_integer, int),
    "np.ndarray": (_array, lambda value: np.ascontiguousarray(value, dtype=float)),
}
_VARIANTS = {cls.__name__: cls for cls in _MODEL_TYPES}


def model_from_dict(data):
    """Build a model from a plain dict (the JSON model-file layout)."""
    if not isinstance(data, dict):
        raise InvalidModelError(f"model document must be an object, got {type(data).__name__}")
    variant = data.get("variant")
    cls = _VARIANTS.get(variant) if isinstance(variant, str) else None
    if cls is None:
        raise InvalidModelError(
            f"field 'variant': expected one of {sorted(_VARIANTS)}, got {variant!r}"
        )
    fields = dataclasses.fields(cls)
    for field in fields:
        if field.name not in data:
            raise InvalidModelError(f"field '{field.name}': missing for variant {variant}")
    extra = set(data) - {field.name for field in fields} - {"variant"}
    if extra:
        raise InvalidModelError(f"field '{sorted(extra)[0]}': not part of variant {variant}")
    values = [_FIELD_CODECS[field.type][0](field.name, data[field.name]) for field in fields]
    return cls(*values)


def _model_fields(model):
    # The model file's fields in order: numpy scalars as the Python numbers
    # they hold (a float32 is not written in float32's short form), arrays
    # as C-contiguous float64 arrays (orjson refuses any other order).
    if not isinstance(model, _MODEL_TYPES):
        raise InvalidModelError(f"unknown model type {type(model).__name__}")
    doc = {"variant": type(model).__name__}
    for field in dataclasses.fields(model):
        doc[field.name] = _FIELD_CODECS[field.type][1](getattr(model, field.name))
    return doc


def model_to_dict(model):
    return {name: value.tolist() if isinstance(value, np.ndarray) else value
            for name, value in _model_fields(model).items()}


def load_model(path):
    """Read a JSON model file; raises InvalidModelError naming the bad field."""
    import orjson  # here, not at the top: only model files need it (about 5 ms)

    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        data = orjson.loads(raw)
    except orjson.JSONDecodeError:
        # orjson refuses what Python's JSON dialect accepts (NaN, Infinity,
        # numbers beyond the double range, lone surrogates); the stdlib
        # parser keeps that dialect and its messages.
        try:
            data = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise InvalidModelError(f"not valid JSON: {exc}") from exc
    return model_from_dict(data)


def save_model(model, path):
    """Write ``model`` as a JSON model file: orjson's indent-2 layout, fields
    in declaration order after ``variant``, and a trailing newline.

    The whole file is encoded before it is opened, so a model orjson cannot
    encode raises TypeError and leaves an existing file unchanged.
    """
    import orjson  # here, not at the top, as in load_model

    data = orjson.dumps(_model_fields(model),
                        option=orjson.OPT_INDENT_2 | orjson.OPT_SERIALIZE_NUMPY) + b"\n"
    with open(path, "wb") as fh:
        fh.write(data)
