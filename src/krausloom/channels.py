"""Kraus-formalism engine: channel records, Kraus sets, application, Choi matrices.

Each channel family is declared once, on its parameter record
(``FAMILIES``), whose docstring describes the channel. ``channel_kraus``
gives a record's operator set acting on a single qubit, and ``kraus_stack``
those of every point of a ``ParamStack``; the interferometer lattices in
``circuit`` read the same records. Channels are compared by their Choi
matrices (``choi``), never by operator lists, since the operator
representation is basis dependent; the lattices are certified against their
Kraus sets the same way.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .errors import InternalConsistencyError, InvalidArgument, InvalidChannel
from .gates import PAULI_X, PAULI_Y, PAULI_Z, finite_values, matrix_2x2
from .qmath import ATOL_ARITHMETIC, DensityMatrix, check_residuals, dagger, structural_atol


def _check_prob(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:  # nan and +-inf fail it too
        raise InvalidArgument(f"{name} must lie in [0, 1], got {value}")
    return value


@dataclass(frozen=True)
class DephasingParams:
    """Phase damping: coherences decay with probability p, populations fixed."""

    name: ClassVar[str] = "dephasing"
    p: float

    def __post_init__(self):
        object.__setattr__(self, "p", _check_prob("p", self.p))


@dataclass(frozen=True)
class GADParams:
    """Amplitude damping against a thermal bath with ground population alpha2_sq.

    Four Kraus operators; the bath weights enter as sqrt prefactors so the raw
    list satisfies completeness on its own.
    """

    name: ClassVar[str] = "gad"
    p: float
    alpha2_sq: float

    def __post_init__(self):
        object.__setattr__(self, "p", _check_prob("p", self.p))
        object.__setattr__(self, "alpha2_sq", _check_prob("alpha2_sq", self.alpha2_sq))


@dataclass(frozen=True)
class SGADParams:
    """Damping against a squeezed thermal bath with ground population alpha2_sq.

    Each mode pair gets its own transition rate (alpha, beta, mu, nu) and the
    upward transitions carry phases e^{-i phi}, e^{-i lam}; any finite phase.
    """

    name: ClassVar[str] = "sgad"
    alpha: float
    beta: float
    mu: float
    nu: float
    phi: float
    lam: float
    alpha2_sq: float

    def __post_init__(self):
        for name in ("alpha", "beta", "mu", "nu", "alpha2_sq"):
            object.__setattr__(self, name, _check_prob(name, getattr(self, name)))
        for name in ("phi", "lam"):
            object.__setattr__(self, name, finite_values(name, float(getattr(self, name))))


@dataclass(frozen=True)
class PauliParams:
    """Probabilistic Pauli noise: (1-p) rho + p sum_i q_i sigma_i rho sigma_i."""

    name: ClassVar[str] = "pauli"
    p: float
    q1: float
    q2: float
    q3: float

    def __post_init__(self):
        object.__setattr__(self, "p", _check_prob("p", self.p))
        for name in ("q1", "q2", "q3"):
            object.__setattr__(self, name, _check_prob(name, getattr(self, name)))
        s = self.q1 + self.q2 + self.q3
        if abs(s - 1.0) > ATOL_ARITHMETIC:
            raise InvalidArgument(f"q1+q2+q3 must equal 1 within {ATOL_ARITHMETIC}, got {s!r}")


ChannelParams = DephasingParams | GADParams | SGADParams | PauliParams
# The one map from a family's name to its parameter record; the CLI's flags
# and a lattice's metadata are read off the record's fields.
FAMILIES = {cls.name: cls for cls in (DephasingParams, GADParams, SGADParams, PauliParams)}


class ParamStack:
    """Validated parameter points of one channel family, field by field.

    Each field of the family's parameter record becomes an attribute holding
    a float64 array of shape (B,), one value per point, for any number of
    points B, one included, so the Kraus operator builders that read a
    single record's floats read a stack's columns the same way, and the
    lattice programs read nothing else.
    """

    def __init__(self, points: Sequence[ChannelParams]):
        points = tuple(points)
        if not points:
            raise InvalidArgument("a parameter stack needs at least one point")
        family = type(points[0])
        if any(type(p) is not family for p in points):
            raise InvalidArgument("a parameter stack holds one channel family")
        self.family = family
        self.points = points
        for f in dataclasses.fields(family):
            setattr(self, f.name, np.array([getattr(p, f.name) for p in points], dtype=float))

    def __len__(self) -> int:
        return len(self.points)


def completeness_residual(operators):
    """Frobenius norm of sum(M^dagger M) - I.

    ``operators`` is a KrausSet, a sequence of operators, or a stack of
    shape (B, k, d, d), which gives one residual per point.
    """
    ops = operators.operators if isinstance(operators, KrausSet) else operators
    ops = np.asarray(ops, dtype=complex)
    acc = np.sum(dagger(ops) @ ops, axis=-3)
    res = np.linalg.norm(acc - np.eye(ops.shape[-1]), axis=(-2, -1))
    return float(res) if res.ndim == 0 else res


@dataclass(frozen=True)
class KrausSet:
    """Equal-shaped operators satisfying sum(M^dagger M) = I."""

    operators: tuple[np.ndarray, ...]
    labels: tuple[str, ...]

    def __init__(self, operators, labels=None):
        ops = tuple(np.asarray(m, dtype=complex) for m in operators)
        if not ops:
            raise InvalidChannel("a Kraus set must be nonempty")
        shape = ops[0].shape
        if any(m.shape != shape for m in ops) or len(shape) != 2 or shape[0] != shape[1]:
            raise InvalidChannel("Kraus operators must share one square shape")
        if labels is None:
            labels = tuple(f"M{k}" for k in range(len(ops)))
        labels = tuple(str(s) for s in labels)
        if len(labels) != len(ops):
            raise InvalidChannel("one label per operator required")
        check_residuals(completeness_residual(ops), structural_atol(),
                        "completeness residual {:.3e} exceeds tolerance", error=InvalidChannel)
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    def __len__(self) -> int:
        return len(self.operators)


def apply_operators(rho: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """sum_mu M_mu rho M_mu^dagger for operators of shape (..., k, d, d).

    ``rho`` of shape (..., d, d) broadcasts against the leading axes, so one
    input state can go through a whole stack of channels.
    """
    rho = np.asarray(rho, dtype=complex)[..., None, :, :]
    return np.sum(ops @ rho @ dagger(ops), axis=-3)


# Operator builders, shape (k, 2, 2) for one parameter record and
# (B, k, 2, 2) for a ParamStack: every operator reads a field, so each stacks.


def _dephasing_ops(params) -> np.ndarray:
    sq, sp = np.sqrt(1 - params.p), np.sqrt(params.p)
    return np.stack([matrix_2x2(1, 0, 0, sq), matrix_2x2(0, 0, 0, sp)], axis=-3)


def _gad_ops(params) -> np.ndarray:
    sa, sb = np.sqrt(params.alpha2_sq), np.sqrt(1.0 - params.alpha2_sq)
    sp, sq = np.sqrt(params.p), np.sqrt(1 - params.p)
    return np.stack([
        matrix_2x2(sa, 0, 0, sa * sq),
        matrix_2x2(0, sa * sp, 0, 0),
        matrix_2x2(0, 0, sb * sp, 0),
        matrix_2x2(sb * sq, 0, 0, sb),
    ], axis=-3)


def _sgad_ops(params) -> np.ndarray:
    a, b, mu, nu = params.alpha, params.beta, params.mu, params.nu
    sa2 = np.sqrt(params.alpha2_sq)
    sb2 = np.sqrt(1.0 - params.alpha2_sq)
    eph = np.exp(-1j * np.asarray(params.phi))
    ela = np.exp(-1j * np.asarray(params.lam))
    return np.stack([
        matrix_2x2(sa2 * np.sqrt(1 - a), 0, 0, sa2 * np.sqrt(1 - b)),
        matrix_2x2(0, sa2 * np.sqrt(b), sa2 * (np.sqrt(a) * eph), 0),
        matrix_2x2(sb2 * np.sqrt(1 - mu), 0, 0, sb2 * np.sqrt(1 - nu)),
        matrix_2x2(0, sb2 * np.sqrt(nu), sb2 * (np.sqrt(mu) * ela), 0),
    ], axis=-3)


def _pauli_ops(params) -> np.ndarray:
    weights = (1 - params.p, params.p * params.q1, params.p * params.q2, params.p * params.q3)
    paulis = (np.eye(2, dtype=complex), PAULI_X, PAULI_Y, PAULI_Z)
    return np.stack([np.sqrt(w)[..., None, None] * m for w, m in zip(weights, paulis)], axis=-3)


_FAMILY_OPS = {
    DephasingParams: (_dephasing_ops, ("M0", "M1")),
    GADParams: (_gad_ops, ("M00", "M01", "M10", "M11")),
    SGADParams: (_sgad_ops, ("M00", "M01", "M11", "M10")),
    PauliParams: (_pauli_ops, ("MI", "MX", "MY", "MZ")),
}


def channel_kraus(params: ChannelParams) -> KrausSet:
    """The Kraus set of a parameter record, checked for completeness."""
    if type(params) not in _FAMILY_OPS:
        raise InvalidArgument(f"unknown channel parameter type {type(params).__name__}")
    build, labels = _FAMILY_OPS[type(params)]
    return KrausSet(build(params), labels)


def kraus_stack(stack: ParamStack, *, first_index: int = 0) -> tuple[np.ndarray, tuple[str, ...]]:
    """Operators of every point of a stack, shape (B, k, 2, 2), and their labels.

    Each point's completeness residual is checked as KrausSet checks it, by
    ``check_residuals``, which names the first point that fails by its index
    in the sweep, first_index + i for the stack's point i. The operators are
    the package's own, built from checked records, so a failure raises
    InternalConsistencyError.
    """
    build, labels = _FAMILY_OPS[stack.family]
    ops = build(stack)
    check_residuals(completeness_residual(ops), structural_atol(),
                    "completeness residual {:.3e} exceeds tolerance",
                    error=InternalConsistencyError, first_index=first_index)
    return ops, labels


def bloch_vector(rho) -> tuple[float, float, float]:
    """(Tr rho sigma_x, Tr rho sigma_y, Tr rho sigma_z) for a qubit state."""
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    if mat.shape != (2, 2):
        raise InvalidArgument(f"bloch_vector needs a 2x2 state, got {mat.shape}")
    return (
        float(np.real(np.trace(mat @ PAULI_X))),
        float(np.real(np.trace(mat @ PAULI_Y))),
        float(np.real(np.trace(mat @ PAULI_Z))),
    )


def choi(ops) -> np.ndarray:
    """Choi matrix J = sum_ij |i><j| (x) E(|i><j|) of the channel with Kraus
    operators ``ops``, shape (..., k, d, d), as an array of shape (..., d*d, d*d).

    J[(i, a), (j, b)] = sum_mu <a|M_mu|i> <b|M_mu|j>^*: with the operators laid
    out as M[(i, a), mu], J = M M^dagger.
    """
    ops = np.asarray(ops, dtype=complex)
    k, d = ops.shape[-3], ops.shape[-1]
    m = ops.swapaxes(-1, -3).reshape(ops.shape[:-3] + (d * d, k))
    return m @ dagger(m)


def kraus_set_to_payload(k: KrausSet) -> dict:
    return {
        "labels": list(k.labels),
        "operators": [{"re": m.real.tolist(), "im": m.imag.tolist()} for m in k.operators],
    }
