"""Elementary gates: the U3 rotation, polarization-controlled path flips, and
embeddings of 2x2 blocks into a multi-qubit register.

A register is an ordered tuple of wires. Wire 0 is the leftmost tensor factor
(slowest-varying index). Exactly one wire carries the polarization role; the
others are path qubits. Registers here never exceed 4 qubits, so everything
is built dense.

Every placement matrix, whether an embedding, a path-conditioned gate or a
polarization-controlled NOT, is one scatter into a zeroed flat (..., d*d)
buffer: the gate's four entries go to the (h,h), (h,v), (v,h) and (v,v)
positions of its slot pairs and 1.0 to the other diagonal slots. What
depends on the wiring alone (those flat positions, the CNOT permutation
matrices and each register's polarization and path wires) is built once
per process and shared read-only. Nothing is cached by angle. The lattice
kernel in ``circuit`` writes a whole run of placements from the same flat
positions in one scatter.
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


@functools.lru_cache(maxsize=64)
def _register_wires(register: Register) -> tuple[WireIndex, tuple[WireIndex, ...]]:
    # registers are immutable tuples, and a program uses a handful of layouts
    pol = next(w for w in register if w.role is Role.POLARIZATION)
    return pol, tuple(w for w in register if w.role.is_path)


def polarization_wire(register: Register) -> WireIndex:
    return _register_wires(register)[0]


def path_wires(register: Register) -> tuple[WireIndex, ...]:
    return _register_wires(register)[1]


def finite_values(name: str, value):
    """``value`` as a float, or as a float array when it stacks one value per
    point; raises unless every entry is finite."""
    if isinstance(value, (int, float)):
        if not math.isfinite(value):
            raise InvalidArgument(f"{name} must be finite, got {value}")
        return float(value)
    arr = np.asarray(value, dtype=float)
    if not np.isfinite(arr).all():
        raise InvalidArgument(f"{name} must be finite, got {value}")
    return float(arr) if arr.ndim == 0 else arr


def _principal(name: str, value):
    """``value``, checked by ``finite_values``, in [0, 2pi): a tiny negative angle
    reduces to 2pi itself, and the second remainder takes that to 0."""
    return finite_values(name, value) % TWO_PI % TWO_PI


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
            object.__setattr__(self, name, _principal(name, getattr(self, name)))


def u3(params) -> np.ndarray:
    """2x2 rotation [[cos(t/2), -e^{il} sin(t/2)], [e^{ip} sin(t/2), e^{i(l+p)} cos(t/2)]].

    ``params`` is a U3Params or a (3, ...) table of reduced (theta, phi, lam); array
    angles give a stack, (..., 2, 2), each bit for bit the rotation its angles give alone.
    """
    theta, phi, lam = (params.theta, params.phi, params.lam) if isinstance(params, U3Params) else params
    half = theta / 2.0
    c, s = np.cos(half), np.sin(half)
    el, ep = np.exp(1j * lam), np.exp(1j * phi)
    d = _product(el, ep) * c  # broadcast over all three angles
    out = np.empty(np.shape(d) + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = c, -el * s, ep * s, d
    return out


def _product(x, y):
    """x * y for complex x and y, each part rounded once, as numpy computes it
    for a pair of scalars. numpy's vector loops fuse a complex product into
    multiply-adds, which would make a stack of rotations differ from the same
    rotations built one at a time in the last bit."""
    out = np.empty(np.broadcast(x, y).shape, dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out if out.ndim else out[()]


def matrix_2x2(a, b, c, d) -> np.ndarray:
    """The complex matrix [[a, b], [c, d]]; a stack of them, shape (B, 2, 2),
    when an entry is an array with one value per point."""
    out = np.empty(np.broadcast(a, b, c, d).shape + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = a, b, c, d
    return out


PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _bit(index, wire: int, n: int):
    # wire 0 is the most significant bit of the basis index
    return (index >> (n - 1 - wire)) & 1


def _flip(index, wire: int, n: int):
    return index ^ (1 << (n - 1 - wire))


@functools.lru_cache(maxsize=256)
def _scatter_slots(n: int, wire: int, fixed: tuple[tuple[int, int], ...]):
    """Flat positions, in a (2**n)**2 buffer, of a 2x2 gate on ``wire`` acting
    where every (other wire, bit) pair of ``fixed`` holds.

    Returns (block, ones): block has shape (4, m), its rows the (h,h), (h,v),
    (v,h) and (v,v) positions of the m slot pairs, h with the wire's bit 0
    and v its flip; ones are the remaining diagonal positions. Both depend on
    the wiring only, so they are built once and shared read-only.
    """
    d = 2**n
    basis = np.arange(d)
    match = _bit(basis, wire, n) == 0
    for w, b in fixed:
        match &= _bit(basis, w, n) == b
    h = basis[match]
    v = _flip(h, wire, n)
    block = np.stack([h * d + h, h * d + v, v * d + h, v * d + v])
    untouched = np.ones(d, dtype=bool)
    untouched[h] = untouched[v] = False
    ones = basis[untouched] * (d + 1)
    block.flags.writeable = ones.flags.writeable = False
    return block, ones


def _scatter(gate: np.ndarray, n: int, wire: int, fixed=()) -> np.ndarray:
    """The placement matrix of ``gate`` (2x2, or a stack (B, 2, 2)) on ``wire``
    where ``fixed`` holds, identity elsewhere: one scatter into a flat buffer."""
    block, ones = _scatter_slots(n, wire, fixed)
    d = 2**n
    stack = gate.shape[:-2]
    flat = np.zeros(stack + (d * d,), dtype=complex)
    flat[..., ones] = 1.0
    flat[..., block] = gate.reshape(stack + (4, 1))
    return flat.reshape(stack + (d, d))


def _check_gate(gate) -> np.ndarray:
    gate = np.asarray(gate, dtype=complex)
    if gate.ndim not in (2, 3) or gate.shape[-2:] != (2, 2):
        raise InvalidArgument(f"expected a 2x2 gate or a stack of them, got {gate.shape}")
    return gate


def _wire_slots(wire: int | WireIndex, n: int):
    """(n, wire index, no fixed bits) of a gate on one wire, checked."""
    w = wire.index if isinstance(wire, WireIndex) else int(wire)
    if not (0 <= w < n):
        raise InvalidArgument(f"wire {w} out of range for register size {n}")
    return n, w, ()


def embed(gate: np.ndarray, wire: int | WireIndex, n: int) -> np.ndarray:
    """Act with a 2x2 gate on one wire of an n-qubit register, identity elsewhere.

    A stack of gates, shape (B, 2, 2), gives a stack of embeddings.
    """
    return _scatter(_check_gate(gate), *_wire_slots(wire, n))


def cnot_pol_path(control: WireIndex, target: WireIndex, n: int) -> np.ndarray:
    """Permutation flipping the target path qubit exactly when polarization is V.

    This is the action of a polarizing beam splitter / beam displacer: a
    vertically polarized photon changes path, a horizontal one does not.
    The matrix is shared and read-only.
    """
    if control.role is not Role.POLARIZATION:
        raise InvalidWiring("cnot control must be the polarization wire")
    if not target.role.is_path:
        raise InvalidWiring("cnot target must be a path wire")
    if control.index == target.index:
        raise InvalidWiring("control and target must differ")
    if control.index >= n or target.index >= n:
        raise InvalidArgument(f"wires ({control.index},{target.index}) exceed register size {n}")
    return _cnot(control.index, target.index, n)


@functools.lru_cache(maxsize=64)
def _cnot(control: int, target: int, n: int) -> np.ndarray:
    mat = _scatter(PAULI_X, n, target, ((control, 1),))
    mat.flags.writeable = False
    return mat


@functools.lru_cache(maxsize=256)
def _condition_slots(condition: str, register: Register):
    """(n, polarization index, fixed path bits) of a path condition, checked.
    Lattices place the same few conditions over and over."""
    paths = path_wires(register)
    if len(condition) != len(paths):
        raise InvalidWiring(
            f"condition {condition!r} must address the {len(paths)} path wires only"
        )
    if any(ch not in "01*" for ch in condition):
        raise InvalidArgument(f"condition characters must be 0, 1 or *, got {condition!r}")
    fixed = tuple((w.index, int(ch)) for ch, w in zip(condition, paths) if ch != "*")
    return len(register), polarization_wire(register).index, fixed


def controlled_on_path(gate: np.ndarray, condition: str, register: Register) -> np.ndarray:
    """Apply a 2x2 gate to the polarization wire on path modes matching condition.

    ``condition`` has one character per path wire, in register order, from
    {'0','1','*'}. Amplitudes whose path bits do not match are untouched.
    A stack of gates, shape (B, 2, 2), gives a stack of matrices.
    """
    return _scatter(_check_gate(gate), *_condition_slots(condition, register))
