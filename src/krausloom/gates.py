"""Elementary gates: the U3 rotation, polarization-controlled path flips, and
embeddings of 2x2 blocks into a multi-qubit register.

A register is an ordered tuple of wires. Wire 0 is the leftmost tensor factor
(slowest-varying index). Exactly one wire carries the polarization role; the
others are path qubits. Registers here never exceed 4 qubits, so everything
is built dense.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidArgument, InvalidWiring

TWO_PI = 2.0 * math.pi


class Role(str, Enum):
    SYSTEM_PATH = "system-path"
    ENVIRONMENT_PATH = "environment-path"
    RESERVOIR_PATH = "reservoir-path"
    POLARIZATION = "polarization"

    @property
    def is_path(self) -> bool:
        return self is not Role.POLARIZATION


@dataclass(frozen=True)
class WireIndex:
    index: int
    role: Role

    def __post_init__(self):
        if self.index < 0:
            raise InvalidWiring(f"wire index must be nonnegative, got {self.index}")


Register = tuple[WireIndex, ...]


def make_register(*roles: Role | str) -> Register:
    """Build a register from roles in wire order; exactly one polarization."""
    wires = tuple(WireIndex(i, Role(r)) for i, r in enumerate(roles))
    n_pol = sum(1 for w in wires if w.role is Role.POLARIZATION)
    if n_pol != 1:
        raise InvalidWiring(f"register needs exactly one polarization wire, got {n_pol}")
    return wires


def polarization_wire(register: Register) -> WireIndex:
    return next(w for w in register if w.role is Role.POLARIZATION)


def path_wires(register: Register) -> tuple[WireIndex, ...]:
    return tuple(w for w in register if w.role.is_path)


def finite_values(name: str, value):
    """``value`` as a float, or as a float array when it stacks one value per
    point; raises unless every entry is finite."""
    if isinstance(value, (int, float)):
        if not math.isfinite(value):
            raise InvalidArgument(f"{name} must be finite, got {value}")
        return float(value)
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidArgument(f"{name} must be finite, got {value}")
    return float(arr) if arr.ndim == 0 else arr


@dataclass(frozen=True)
class U3Params:
    """Angles of the standard single-qubit rotation, reduced into [0, 2pi).

    Reducing theta by 2pi flips the global sign of the matrix, which is
    irrelevant everywhere densities or mode intensities are compared. An
    angle may also be an array with one value per point of a batch.
    """

    theta: float
    phi: float
    lam: float

    def __post_init__(self):
        for name in ("theta", "phi", "lam"):
            object.__setattr__(self, name, finite_values(name, getattr(self, name)) % TWO_PI)


def u3(params: U3Params) -> np.ndarray:
    """2x2 rotation [[cos(t/2), -e^{il} sin(t/2)], [e^{ip} sin(t/2), e^{i(l+p)} cos(t/2)]].

    Array angles give a stack of rotations, shape (B, 2, 2).
    """
    c = np.cos(params.theta / 2.0)
    s = np.sin(params.theta / 2.0)
    el = np.exp(1j * params.lam)
    ep = np.exp(1j * params.phi)
    return matrix_2x2(c, -el * s, ep * s, el * ep * c)


def matrix_2x2(a, b, c, d) -> np.ndarray:
    """The complex matrix [[a, b], [c, d]]; a stack of them, shape (B, 2, 2),
    when an entry is an array with one value per point."""
    if not (isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
            or isinstance(c, np.ndarray) or isinstance(d, np.ndarray)):
        return np.array([[a, b], [c, d]], dtype=complex)
    entries = np.broadcast_arrays(*(np.asarray(x, dtype=complex) for x in (a, b, c, d)))
    return np.stack(entries, axis=-1).reshape(entries[0].shape + (2, 2))


PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _bit(index, wire: int, n: int):
    # wire 0 is the most significant bit of the basis index
    return (index >> (n - 1 - wire)) & 1


def _flip(index, wire: int, n: int):
    return index ^ (1 << (n - 1 - wire))


def embed(gate: np.ndarray, wire: int | WireIndex, n: int) -> np.ndarray:
    """Act with a 2x2 gate on one wire of an n-qubit register, identity elsewhere.

    A stack of gates, shape (B, 2, 2), gives a stack of embeddings.
    """
    w = wire.index if isinstance(wire, WireIndex) else int(wire)
    if not (0 <= w < n):
        raise InvalidArgument(f"wire {w} out of range for register size {n}")
    gate = np.asarray(gate, dtype=complex)
    if gate.ndim not in (2, 3) or gate.shape[-2:] != (2, 2):
        raise InvalidArgument(f"embed expects a 2x2 gate or a stack of them, got {gate.shape}")
    # np.kron pairs a stack's leading axis with the length-1 axis it gives
    # the identity, so each gate of a stack is embedded on its own
    out = np.eye(1, dtype=complex)
    for i in range(n):
        out = np.kron(out, gate if i == w else np.eye(2, dtype=complex))
    return out


def cnot_pol_path(control: WireIndex, target: WireIndex, n: int) -> np.ndarray:
    """Permutation flipping the target path qubit exactly when polarization is V.

    This is the action of a polarizing beam splitter / beam displacer: a
    vertically polarized photon changes path, a horizontal one does not.
    """
    if control.role is not Role.POLARIZATION:
        raise InvalidWiring("cnot control must be the polarization wire")
    if not target.role.is_path:
        raise InvalidWiring("cnot target must be a path wire")
    if control.index == target.index:
        raise InvalidWiring("control and target must differ")
    if control.index >= n or target.index >= n:
        raise InvalidArgument(f"wires ({control.index},{target.index}) exceed register size {n}")
    basis = np.arange(2**n)
    dest = basis ^ (_bit(basis, control.index, n) << (n - 1 - target.index))
    mat = np.zeros((2**n, 2**n), dtype=complex)
    mat[dest, basis] = 1.0
    return mat


@functools.lru_cache(maxsize=256)
def _slot_pairs(condition: str, register: Register) -> tuple[np.ndarray, np.ndarray]:
    """(H slots, V slots) of the path modes matching ``condition``, paired by
    index. Cached: lattices place the same few conditions over and over."""
    n = len(register)
    pol = polarization_wire(register).index
    basis = np.arange(2**n)
    match = _bit(basis, pol, n) == 0
    for ch, wire in zip(condition, path_wires(register)):
        if ch != "*":
            match &= _bit(basis, wire.index, n) == int(ch)
    h = basis[match]
    v = _flip(h, pol, n)
    h.flags.writeable = v.flags.writeable = False  # shared by every caller
    return h, v


def controlled_on_path(gate: np.ndarray, condition: str, register: Register) -> np.ndarray:
    """Apply a 2x2 gate to the polarization wire on path modes matching condition.

    ``condition`` has one character per path wire, in register order, from
    {'0','1','*'}. Amplitudes whose path bits do not match are untouched.
    A stack of gates, shape (B, 2, 2), gives a stack of matrices.
    """
    paths = path_wires(register)
    if len(condition) != len(paths):
        raise InvalidWiring(
            f"condition {condition!r} must address the {len(paths)} path wires only"
        )
    if any(ch not in "01*" for ch in condition):
        raise InvalidArgument(f"condition characters must be 0, 1 or *, got {condition!r}")
    gate = np.asarray(gate, dtype=complex)
    if gate.ndim not in (2, 3) or gate.shape[-2:] != (2, 2):
        raise InvalidArgument(f"expected a 2x2 gate or a stack of them, got {gate.shape}")

    h, v = _slot_pairs(condition, register)
    dim = 2 ** len(register)
    mat = np.zeros(gate.shape[:-2] + (dim, dim), dtype=complex)
    mat[..., range(dim), range(dim)] = 1.0
    for rows, cols, entry in ((h, h, gate[..., 0, 0]), (h, v, gate[..., 0, 1]),
                              (v, h, gate[..., 1, 0]), (v, v, gate[..., 1, 1])):
        mat[..., rows, cols] = entry[..., None]
    return mat
