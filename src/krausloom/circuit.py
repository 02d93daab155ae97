"""The programmable interferometer: preparation, channel lattices, evolution.

Encoding
--------
Path qubits carry the logical content; one polarization qubit (H=0, V=1) is
the working ancilla. After preparation, every path mode holds a definite
polarization: environment-ground modes are H, environment-excited modes are V.

Lattice recipe
--------------
Every channel lattice follows one routing idiom, mirroring how beam
displacers act on all modes at once while wave plates can be placed per mode:

1. tag: a polarization rotation conditioned on each path mode splits its
   amplitude into a staying part (placed in the mode's H slot) and a
   transitioning part (parked in the V slot, with any transition phase
   attached);
2. move: global polarization-controlled NOTs shift every V-parked amplitude
   to its destination path mode (V slots permute, H slots never move);
3. restore: conditioned X gates put arrivals and stays back into the
   polarization class of their input mode.

No two logical amplitudes ever share a (mode, polarization) slot, so the
composite is manifestly unitary and the per-mode output polarization vectors
can be read off directly. As on the bench, a layout is fixed and only its
wave-plate angles are programmed: a family's recipe (``_RECIPES``, keyed by
its parameter record's class) and each preparation is a wiring, each layer's
(kind, wires, condition) slots, and a program for its angle table, the
(theta, phi, lam) of every rotation, reduced into [0, 2pi) once. A family's
program reads a ``ParamStack``'s fields only, one value per point, and gives
shape (3, B, U) for its B points; one record's table is its one-point
stack's, (3, U). Every lattice entry point takes the record itself: ``build_channel_lattice(record, theta1=...)``, ``lattice_state``,
``lattice_block`` on a ``ParamStack`` and ``channel_sweep``.

Composition
-----------
A ``CircuitSpec`` is a register, a wiring, one (3, U) angle table and a stage
tag per layer, for ``evolve`` and circuit files; the computing paths
(``prepare_product_state``, ``lattice_block``) build none. Placements
(``GatePlacement``) live only at its boundary: the public constructor,
``placement_matrix`` and circuit files read them into a wiring and a table
once, and ``CircuitSpec.layers`` builds them on demand. Every product,
whether a whole circuit, one stage, a single placement, a preparation or a
block of lattices, goes through one kernel on a wiring and an angle table:
one ``u3`` call on the table gives every rotation, one scatter into a copy
of a zeroed template every placement matrix, and the matmul chain runs in
layer order. The template and the flat positions depend on the wiring
alone (register, kinds, wires, conditions and layer sizes). They are built,
and every wiring check is run, on first use, once per wiring in a bounded
cache that no angle or parameter keys. A circuit too long for one scatter
of KERNEL_BYTES, over all of its stacked points, goes through in
consecutive runs of layers; every one-point lattice is one run.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .channels import (
    ChannelParams,
    DephasingParams,
    GADParams,
    ParamStack,
    PauliParams,
    SGADParams,
    apply_operators,
    choi,
    kraus_stack,
)
from .errors import InvalidArgument, InvalidWiring
from .gates import (
    TWO_PI,
    Register,
    Role,
    U3Params,
    _condition_slots,
    _principal,
    _scatter_slots,
    _wire_slots,
    cnot_pol_path,
    finite_values,
    make_register,
    path_wires,
    polarization_wire,
    u3,
)
from .qmath import (
    ATOL_ARITHMETIC,
    ATOL_SPECTRAL,
    _NORM,
    _UNITARITY,
    DensityMatrix,
    PureState,
    _check_rows,
    _density_rows,
    _read_payload,
    _real,
    check_residuals,
    dagger,
    density_residuals,
    partial_trace,
    structural_atol,
    unitarity_residual,
)

STAGES = ("prepare", "evolve", "project")

GATE_KINDS = ("local-u3", "cnot-pol-path", "path-conditioned-u3")


@dataclass(frozen=True)
class GatePlacement:
    """One gate on named wires. Wires are register positions.

    local-u3: wires=(target,), params set.
    cnot-pol-path: wires=(polarization control, path target).
    path-conditioned-u3: wires=(polarization target,), condition over the
    path wires in register order ('0', '1' or '*').
    """

    kind: str
    wires: tuple[int, ...]
    params: U3Params | None = None
    condition: str | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise InvalidArgument(f"unknown gate kind {self.kind!r}")
        if not all(isinstance(w, numbers.Integral) and not isinstance(w, bool) for w in self.wires):
            raise TypeError(f"placement wires must be integers, got {list(self.wires)}")
        object.__setattr__(self, "wires", tuple(int(w) for w in self.wires))
        if self.kind == "local-u3":
            if len(self.wires) != 1 or self.params is None or self.condition is not None:
                raise InvalidArgument("local-u3 takes one wire, params, no condition")
        elif self.kind == "cnot-pol-path":
            if len(self.wires) != 2 or self.params is not None or self.condition is not None:
                raise InvalidArgument("cnot-pol-path takes (control, target) wires only")
        else:
            if len(self.wires) != 1 or self.params is None or self.condition is None:
                raise InvalidArgument("path-conditioned-u3 takes one wire, params and condition")


def placement_matrix(placement: GatePlacement, register: Register) -> np.ndarray:
    """The matrix of one placement: the lattice kernel on a one-placement layer."""
    return _chain(register, *_read_layers([(placement,)]))


def _read_layers(layers) -> tuple[tuple, np.ndarray]:
    """The wiring of layers of placements, each layer's (kind, wires,
    condition) slots, and their (3, U) table of reduced rotation angles."""
    layers = [tuple(layer) for layer in layers]
    rotations = [p.params for layer in layers for p in layer if p.params is not None]
    if any(np.ndim(a) for u in rotations for a in (u.theta, u.phi, u.lam)):
        raise TypeError("placement angles must be scalars")
    angles = np.array([[u.theta for u in rotations], [u.phi for u in rotations],
                       [u.lam for u in rotations]], dtype=float)
    return tuple([tuple([(p.kind, p.wires, p.condition) for p in layer]) for layer in layers]), angles


def _check_disjoint(register: Register, layers) -> None:
    """``layers`` holds each layer's (kind, wires, condition) triples."""
    for layer in layers:
        seen: set[int] = set()
        for kind, wires, condition in layer:
            acted = set(wires)
            if kind == "path-conditioned-u3":
                acted = {wires[0]} | {w.index for ch, w in zip(condition, path_wires(register)) if ch != "*"}
            if acted & seen:
                raise InvalidArgument("placements within a layer must act on disjoint wires")
            seen |= acted


@functools.lru_cache(maxsize=128)
def _wiring(register: Register, sizes: tuple[int, ...], slots: tuple):
    """Flat scatter positions of a run of layers, from its wiring alone.

    ``sizes`` gives each layer's number of placements and ``slots`` every
    placement's (kind, wires, condition), in order. All wiring checks run
    here, once per wiring: disjoint layers, wires in range, the CNOT roles,
    the polarization target of every path-conditioned rotation and the path
    conditions. Returns (template, targets, sources), read-only:
    template is the zeroed (G*d*d,) buffer of the G placement matrices with
    all but the rotation entries written (every CNOT whole, the untouched
    diagonal of every other placement), and entry sources[k] of the flat
    (..., U*4) stack of the U rotations goes to position targets[k].
    """
    layers, at = [], 0
    for size in sizes:
        layers.append(slots[at:at + size])
        at += size
    _check_disjoint(register, layers)
    n = len(register)
    template = np.zeros((len(slots), 4**n), dtype=complex)
    targets, sources = [], []
    for g, (kind, wires, condition) in enumerate(slots):
        if any(w >= n for w in wires):
            raise InvalidArgument(f"placement wires {wires} exceed register size {n}")
        if kind == "cnot-pol-path":
            if min(wires) < 0:  # register[-1] would name the last wire
                raise InvalidArgument(f"placement wires {wires} must be nonnegative")
            control, target = wires
            template[g] = cnot_pol_path(register[control], register[target], n).ravel()
            continue
        if kind == "local-u3":
            block, ones = _scatter_slots(*_wire_slots(wires[0], n))
        else:
            if wires[0] != polarization_wire(register).index:
                raise InvalidWiring(
                    f"path-conditioned-u3 must target the polarization wire, got wire {wires[0]}"
                )
            block, ones = _scatter_slots(*_condition_slots(condition, register))
        template[g, ones] = 1.0
        # rows of block are the (h,h), (h,v), (v,h), (v,v) slots: the rotation's flat entries
        sources.append(np.broadcast_to(4 * len(targets) + np.arange(4)[:, None], block.shape))
        targets.append(g * 4**n + block)
    template = template.reshape(-1)
    targets = np.concatenate([t.ravel() for t in targets]) if targets else np.zeros(0, dtype=int)
    sources = np.concatenate([s.ravel() for s in sources]) if sources else np.zeros(0, dtype=int)
    for arr in (template, targets, sources):
        arr.flags.writeable = False
    return template, targets, sources


@dataclass(frozen=True, eq=False)
class CircuitSpec:
    """A register, its wiring, one angle table and a stage tag per layer.

    ``wiring`` holds each layer's (kind, wires, condition) slots and
    ``angles`` the read-only (3, U) table of reduced (theta, phi, lam), one
    column per rotation slot in order. The constructor reads layers of
    placements into both, and ``layers`` builds them back. Equality and
    hashing cover the register, wiring, angles and stages.
    """

    register: Register
    wiring: tuple
    angles: np.ndarray
    stages: tuple[str, ...]
    metadata: dict
    unitary: np.ndarray = field(repr=False)  # all layers, read-only

    def __init__(self, register, layers, stages, metadata=None):
        self._fill(tuple(register), *_read_layers(layers), stages, metadata)

    @classmethod
    def _of(cls, register, wiring, angles, stages, metadata) -> "CircuitSpec":
        """A circuit straight from a wiring and its (3, U) angle table."""
        circuit = object.__new__(cls)
        circuit._fill(register, wiring, angles, stages, metadata)
        return circuit

    def _fill(self, register, wiring, angles, stages, metadata):
        stages = tuple(str(s) for s in stages)
        if len(wiring) != len(stages):
            raise InvalidArgument("one stage tag per layer required")
        if any(s not in STAGES for s in stages):
            raise InvalidArgument(f"stage tags must be among {STAGES}")
        angles.flags.writeable = False
        unitary = _chain(register, wiring, angles)
        check_residuals(unitarity_residual(unitary), structural_atol(), _UNITARITY)
        unitary.flags.writeable = False
        for name, value in (("register", register), ("wiring", wiring), ("angles", angles),
                            ("stages", stages), ("metadata", dict(metadata or {})),
                            ("unitary", unitary)):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if not isinstance(other, CircuitSpec):
            return NotImplemented
        return ((self.register, self.wiring, self.stages) == (other.register, other.wiring, other.stages)
                and np.array_equal(self.angles, other.angles))

    def __hash__(self):
        return hash((self.register, self.wiring, self.stages, tuple(self.angles.ravel().tolist())))

    @property
    def layers(self) -> tuple[tuple[GatePlacement, ...], ...]:
        """The layers as placements, built on each call, angles as Python floats."""
        columns = iter(self.angles.T.tolist())
        return tuple([tuple([GatePlacement(kind, wires, None if kind == "cnot-pol-path"
                                           else U3Params(*next(columns)), condition)
                             for kind, wires, condition in layer]) for layer in self.wiring])

    @property
    def n_wires(self) -> int:
        return len(self.register)

    @property
    def dim(self) -> int:
        return 2 ** len(self.register)


KERNEL_BYTES = 1 << 18  # most placement-matrix bytes one scatter writes, every point of a stack


def _chain(register: Register, layers, angles: np.ndarray) -> np.ndarray:
    """The lattice kernel: the product of the placement matrices of ``layers``,
    each layer's (kind, wires, condition) slots, whose rotations take the
    reduced columns of ``angles``, shape (3, U), in slot order. Stacked
    angles, (3, B, U), give B products, and their scatter B matrices per
    placement. Matrices that fill more than KERNEL_BYTES go through in
    consecutive runs of layers, so the buffers and the cached templates stay
    bounded whatever a circuit file or a sweep block holds.
    """
    d = 2 ** len(register)
    out, at = None, 0
    most = max(1, KERNEL_BYTES // (16 * d * d * math.prod(angles.shape[1:-1])))
    for run in _layer_runs(layers, most):
        slots = tuple([slot for layer in run for slot in layer])
        count = sum([kind != "cnot-pol-path" for kind, _, _ in slots])
        table = angles[..., at:at + count]
        if np.ndim(out) == 3 and (table == table[:, :1]).all():
            table = table[:, 0]  # the product stacks the points already, and no angle here varies
        mats = _placement_stack(register, tuple(map(len, run)), slots, table)
        at += count
        for g in range(mats.shape[-3]):
            out = mats[..., g, :, :] if out is None else mats[..., g, :, :] @ out
    return np.eye(d, dtype=complex) if out is None else out


def _layer_runs(layers, most: int):
    """Consecutive layers in runs of at most ``most`` placements, or of one layer."""
    run, size = [], 0
    for layer in layers:
        if run and size + len(layer) > most:
            yield run
            run, size = [], 0
        run.append(layer)
        size += len(layer)
    if run:
        yield run


def _placement_stack(register: Register, sizes, slots, angles: np.ndarray) -> np.ndarray:
    """The G placement matrices of a run of layers, in order, shape (..., G, d, d):
    one u3 call on its angle table, one scatter into a copy of its template."""
    template, targets, sources = _wiring(register, sizes, slots)
    if angles.shape[-1]:
        entries = u3(angles)  # (..., U, 2, 2)
        stack = entries.shape[:-3]
        flat = np.empty(stack + template.shape, dtype=complex)
        flat[...] = template
        flat[..., targets] = entries.reshape(stack + (-1,))[..., sources]
    else:
        flat = template.copy()
    d = 2 ** len(register)
    return flat.reshape(flat.shape[:-1] + (len(slots), d, d))


def _stage_chain(circuit: CircuitSpec, wanted) -> np.ndarray:
    """The kernel on the layers whose stage is in ``wanted`` and their table columns."""
    layers, columns, at = [], [], 0
    for layer, stage in zip(circuit.wiring, circuit.stages):
        count = sum([kind != "cnot-pol-path" for kind, _, _ in layer])
        if stage in wanted:
            layers.append(layer)
            columns += range(at, at + count)
        at += count
    return _chain(circuit.register, layers, circuit.angles[:, columns])


def circuit_unitary(circuit: CircuitSpec, through_stage: str | None = None) -> np.ndarray:
    """Composed unitary of all layers up to and including ``through_stage``."""
    if through_stage is not None and through_stage not in STAGES:
        raise InvalidArgument(f"unknown stage {through_stage!r}")
    cutoff = len(STAGES) if through_stage is None else STAGES.index(through_stage) + 1
    wanted = STAGES[:cutoff]
    # stages need not come in order, so a cutoff that drops any layer composes anew
    if all(stage in wanted for stage in circuit.stages):
        return circuit.unitary
    return _stage_chain(circuit, wanted)


def stage_unitary(circuit: CircuitSpec, stage: str) -> np.ndarray:
    """Composed unitary of exactly one stage's layers."""
    if stage not in STAGES:
        raise InvalidArgument(f"unknown stage {stage!r}")
    return _stage_chain(circuit, (stage,))


def evolve(state: PureState, circuit: CircuitSpec, through_stage: str | None = None) -> PureState:
    """Apply the circuit's composed unitary, through ``through_stage``, to a state."""
    if state.dims != (2,) * circuit.n_wires:
        raise InvalidArgument(
            f"state dims {state.dims} do not match the circuit register's {(2,) * circuit.n_wires}"
        )
    vec = circuit_unitary(circuit, through_stage) @ state.amplitudes
    return PureState(vec, state.dims)


def initial_state(circuit: CircuitSpec) -> PureState:
    """Single photon in the first path mode, horizontally polarized: |0...0>."""
    vec = np.zeros(circuit.dim, dtype=complex)
    vec[0] = 1.0
    return PureState(vec, (2,) * circuit.n_wires)


# -- product-state preparation -------------------------------------------------


@dataclass(frozen=True)
class ProductStateParams:
    """Angles for the two preparation rotations.

    half-angle: amplitudes are cos/sin of theta/2 (native gate convention).
    experimental: system amplitudes cos/sin of theta1, environment weights
    sin/cos of theta2, as the tabletop encoding imposes.
    """

    theta1: float
    theta2: float
    convention: str = "half-angle"

    def __post_init__(self):
        if self.convention not in ("half-angle", "experimental"):
            raise InvalidArgument(f"unknown angle convention {self.convention!r}")
        for name in ("theta1", "theta2"):
            if np.ndim(getattr(self, name)):
                raise InvalidArgument(f"{name} must be a scalar, got {getattr(self, name)!r}")
            object.__setattr__(self, name, finite_values(name, getattr(self, name)))

    def amplitudes(self) -> tuple[float, float, float, float]:
        """(a1, b1, a2, b2) with a^2 + b^2 = 1 for each pair."""
        if self.convention == "half-angle":
            return (*_qubit_amplitudes("theta1", self.theta1), *_qubit_amplitudes("theta2", self.theta2))
        return np.cos(self.theta1), np.sin(self.theta1), np.sin(self.theta2), np.cos(self.theta2)


def _finite_multiple(name: str, value: float, scale: int) -> float:
    """``scale * value``; raises unless it is finite, naming the value given."""
    if not math.isfinite(scale * value):
        raise InvalidArgument(f"{name} must be finite when multiplied by {scale}, got {value}")
    return scale * value


def _qubit_amplitudes(name: str, theta) -> np.ndarray:
    """(cos theta/2, sin theta/2): the system qubit a half-angle rotation by
    theta prepares. Raises, naming the caller's argument ``name``, unless
    theta is finite."""
    half = finite_values(name, theta) / 2
    return np.array([np.cos(half), np.sin(half)])


_CHANNEL_REGISTER = make_register(Role.SYSTEM_PATH, Role.ENVIRONMENT_PATH, Role.POLARIZATION)
# rotate polarization, flip s, rotate per s branch, flip e
_PREPARATION = ((("local-u3", (2,), None),), (("cnot-pol-path", (2, 0), None),),
                (("path-conditioned-u3", (2,), "0*"),), (("path-conditioned-u3", (2,), "1*"),),
                (("cnot-pol-path", (2, 1), None),))


def _preparation_angles(a1, b1, a2, b2) -> np.ndarray:
    """Angle table of ``_PREPARATION``, which takes |00>|H> to
    (a1 a2|00> + b1 a2|10>)|H> + (a1 b2|01> + b1 b2|11>)|V>.

    The second rotation differs per branch because the first CNOT leaves the
    s=1 branch vertically polarized; both branches must end in a2|H> + b2|V>.
    The first two rotations have first column (c, s) = (a1, b1) and (a2, b2):
    exact for c in (-1, 1], while at c = -1 the principal-range reduction
    flips the column's global sign, and arctan2 keeps a small s that
    arccos(c) would lose once c rounds to 1. The s=1 rotation has as its
    second column, all signs exact, the first column the s=0 rotation
    actually realizes, so any boundary sign flip stays a global phase.
    """
    table = np.empty((3, 3))
    for k, (c, s) in enumerate(((a1, b1), (a2, b2))):
        table[:, k] = 2.0 * np.arctan2(np.abs(s), c), np.where(s >= 0, 0.0, math.pi), math.pi
    table[:, :2] = _principal("preparation angle", table[:, :2])
    c, s = u3(table[:, 1])[:, 0].real
    lam = np.where(c < 0, 0.0, math.pi)
    phi = (np.where(s >= 0, 0.0, math.pi) - lam) % (2.0 * math.pi)
    table[:, 2] = _principal("preparation angle", (2.0 * np.arctan2(np.abs(c), np.abs(s)), phi, lam))
    return table


def preparation_circuit(params: ProductStateParams) -> CircuitSpec:
    return CircuitSpec._of(
        _CHANNEL_REGISTER, _PREPARATION, _preparation_angles(*params.amplitudes()),
        ("prepare",) * len(_PREPARATION),
        {"kind": "prepare", "theta1": params.theta1, "theta2": params.theta2,
         "convention": params.convention},
    )


def prepare_product_state(params: ProductStateParams) -> PureState:
    """The preparation on the initial photon |00>|H>: column 0 of the kernel's
    product on ``_PREPARATION``, checked for unitarity as a ``CircuitSpec`` is."""
    unitary = _chain(_CHANNEL_REGISTER, _PREPARATION, _preparation_angles(*params.amplitudes()))
    check_residuals(unitarity_residual(unitary), structural_atol(), _UNITARITY)
    return PureState(unitary[:, 0], (2, 2, 2))


def thermal_weights(
    e1: float, e2: float, kbt: float, *, zero_temperature: bool = False
) -> tuple[float, float]:
    """Boltzmann weights (w1, w2) of a two-level environment; w1 + w2 = 1."""
    e1, e2 = finite_values("e1", e1), finite_values("e2", e2)
    if zero_temperature:
        if e1 < e2:
            return (1.0, 0.0)
        if e2 < e1:
            return (0.0, 1.0)
        return (0.5, 0.5)
    if not (kbt > 0) or not math.isfinite(kbt):
        raise InvalidArgument(f"kbt must be positive (got {kbt}); use zero_temperature for T=0")
    shift = min(e1, e2)
    w1 = math.exp(-(e1 - shift) / kbt)
    w2 = math.exp(-(e2 - shift) / kbt)
    total = w1 + w2
    w1 /= total
    return (w1, 1.0 - w1)


def _encode(system, alpha2_sq, n_wires: int) -> np.ndarray:
    """Lattice inputs: system amplitudes (..., 2) on the first wire, the rest
    of the register in a2|0...00, H> + b2|0...01, V>, a2 = sqrt(alpha2_sq).

    On the 3-qubit lattices that is environment ground H and excited V, so
    tracing polarization leaves rho_S (x) diag(alpha2_sq, 1 - alpha2_sq);
    alpha2_sq = 1 is the reservoir ground state of the Pauli lattice. Stacked
    weights (...,) give stacked inputs, shape (..., 2**n_wires).
    """
    rest = np.zeros(np.shape(alpha2_sq) + (2 ** (n_wires - 1),), dtype=complex)
    rest[..., 0b00] = np.sqrt(alpha2_sq)
    rest[..., 0b11] = np.sqrt(1.0 - alpha2_sq)
    vec = system[..., :, None] * rest[..., None, :]
    return vec.reshape(vec.shape[:-2] + (-1,))


def _system_qubit(system_amplitudes) -> np.ndarray:
    a, b = (complex(c) for c in system_amplitudes)
    check_residuals(abs(abs(a) ** 2 + abs(b) ** 2 - 1.0), ATOL_ARITHMETIC,
                    "system amplitudes must be normalized", error=InvalidArgument)
    return np.array([a, b])


def encode_joint_state(system_amplitudes, alpha2_sq: float) -> PureState:
    """Encode an arbitrary system qubit against a thermal environment.

    Produces a a2|e=0>|H> + b2|e=1>|V> dressing of the given system qubit:
    tracing polarization leaves rho_S (x) diag(alpha2_sq, 1 - alpha2_sq).
    """
    system = _system_qubit(system_amplitudes)
    if not (0.0 <= alpha2_sq <= 1.0):
        raise InvalidArgument(f"alpha2_sq must lie in [0, 1], got {alpha2_sq}")
    return PureState(_encode(system, alpha2_sq, 3), (2, 2, 2))


def encode_reservoir_state(system_amplitudes) -> PureState:
    """System qubit against the 4-level reservoir ground state, H polarized."""
    return PureState(_encode(_system_qubit(system_amplitudes), 1.0, 4), (2, 2, 2, 2))


# -- channel lattices -----------------------------------------------------------


def _caption_angle(rate: float) -> float:
    """Knob angle theta with rate = cos^2(theta)."""
    return math.acos(min(1.0, math.sqrt(rate)))


def pauli_caption_angles(p, q1, q2, q3) -> tuple[float, float, float]:
    """Knob angles from p = cos^2 t1, q1 = cos^2 t2, q2 = sin^2 t2 cos^2 t3,
    q3 = sin^2 t2 sin^2 t3; principal branch, ties toward [0, pi/2]."""
    t1 = np.arccos(np.minimum(1.0, np.sqrt(p)))
    t2 = np.arccos(np.minimum(1.0, np.sqrt(q1)))
    t3 = np.arctan2(np.sqrt(q3), np.sqrt(q2))
    return (t1, t2, t3)


# wires s, r1, r2, polarization: rotate polarization, flip s, X back where s = 1
_PAULI_PREPARATION = ((("local-u3", (3,), None),), (("cnot-pol-path", (3, 0), None),),
                      (("path-conditioned-u3", (3,), "1**"),))


def _pauli_preparation_angles(theta1) -> np.ndarray:
    """Angle table of ``_PAULI_PREPARATION``, which takes |000>|H> to
    (cos(theta1/2)|000> + sin(theta1/2)|100>)|H>."""
    a, b = _qubit_amplitudes("theta1", theta1)
    return _principal("preparation angle",
                      np.array([[2 * math.atan2(b, a), math.pi], [0.0, 0.0], [math.pi, math.pi]]))


def _columns(stack: ParamStack, values) -> np.ndarray:
    """The values side by side, shape (B, T): each one value per point of the
    stack's B, or a constant that every point shares."""
    out = np.empty((len(stack), len(values)))
    for t, value in enumerate(values):
        out[:, t] = value
    return out


class _Recipe:
    """One family's evolve lattice: a fixed wiring that an angle table programs.

    ``steps`` give one placement per layer: ("flip", wire) is the CNOT from
    polarization onto that path wire; ("tag", modes) and ("x", modes) rotate
    polarization where the path bits read modes, an x step by the X gate
    (pi, 0, pi). A tag sends its mode's input to stay|H> + move e^{i phase}|V>
    with angles (2 atan2(move, stay), phase, pi) on an H input and
    (2 atan2(stay, move), phase - pi, pi) on a V input; ``program(stack)``
    gives every tag's (y, x, phi) of these from a ``ParamStack``'s fields
    alone, y and x of shape (B, T) and phi (B, T) or, shared by every point,
    (T,). ``knobs`` maps one record to its knob angles, which a lattice
    carries as metadata only, ``weight`` a record or stack to what the
    preparation (or ``_encode``) puts into the environment's ground mode, and
    ``preparation`` is the preparation's wiring and its table program,
    ``(theta1, weight) -> (3, P)``.
    """

    def __init__(self, register: Register, steps, program, knobs, weight, preparation):
        pol = polarization_wire(register).index
        self.layers = tuple([(("cnot-pol-path", (pol, at), None) if step == "flip"
                              else ("path-conditioned-u3", (pol,), at),) for step, at in steps])
        rotations = [step for step, _ in steps if step != "flip"]
        self.tags = np.array([u for u, step in enumerate(rotations) if step == "tag"])
        self.register, self.rotations = register, len(rotations)
        self.program, self.knobs, self.weight, self.preparation = program, knobs, weight, preparation


def _dephasing_program(stack):
    # mode 10 (H in) keeps sqrt(1 - p) and moves sqrt(p)
    root = np.sqrt(_columns(stack, (stack.p, 1 - stack.p)))
    return root[..., :1], root[..., 1:], (0.0,)


def _gad_program(stack):
    # modes 10 (H in) and 01 (V in) keep sqrt(1 - p) and move sqrt(p); 00 and 11 stay
    p, q = stack.p, 1 - stack.p
    root = np.sqrt(_columns(stack, (0.0, p, q, 1.0, 1.0, q, p, 0.0)))
    return root[..., :4], root[..., 4:], (0.0, 0.0, -math.pi, -math.pi)


def _phase(x):
    """x, or where |x| > 2pi the angle in [-pi, pi] of equal sine and cosine: the
    Kraus operators' exp(-1j x) reduces x exactly, as a remainder by the
    rounded 2pi would not."""
    return np.where(np.abs(x) > TWO_PI, np.arctan2(np.sin(x), np.cos(x)), x)


def _sgad_program(stack):
    # modes 00, 10 (H in) and 01, 11 (V in) move at rates alpha, beta, mu, nu
    a, b, mu, nu = stack.alpha, stack.beta, stack.mu, stack.nu
    root = np.sqrt(_columns(stack, (a, b, 1 - mu, 1 - nu, 1 - a, 1 - b, mu, nu)))
    phi, lam = _phase(stack.phi), _phase(stack.lam)
    return root[..., :4], root[..., 4:], _columns(stack, (-phi, 0.0, -lam - math.pi, -math.pi))


def _pauli_program(stack):
    """Each of the two H-polarized input modes splits into its stay amplitude
    and three double-flip transitions, one sqrt(p q_i) branch per round;
    signs and the i factors ride on the tag phases."""
    t1, t2, t3 = pauli_caption_angles(stack.p, stack.q1, stack.q2, stack.q3)
    # absolute branch amplitudes from the knob angles
    m_q1 = np.cos(t1) * np.cos(t2)
    m_q2 = np.cos(t1) * np.sin(t2) * np.cos(t3)
    m_q3 = np.cos(t1) * np.sin(t2) * np.sin(t3)
    moves, stays, remaining = [], [], 1.0
    for amp in (m_q3, m_q2, m_q1):
        # once nothing stays, nothing moves; the floor keeps the unused quotient finite
        move = np.minimum(1.0, np.where(remaining > 1e-15, amp / np.maximum(remaining, 1e-15), 0.0))
        stay = np.sqrt(np.maximum(0.0, 1.0 - move * move))
        moves += [move, move]  # modes 000 and 100
        stays += [stay, stay]
        remaining = remaining * stay
    phases = (0.0, math.pi, math.pi / 2, -math.pi / 2, 0.0, 0.0)
    return _columns(stack, moves), _columns(stack, stays), phases


# the system qubit theta1 prepares against (sqrt(alpha2_sq), sqrt(1 - alpha2_sq))
_ENVIRONMENT_PREPARATION = (_PREPARATION, lambda theta1, alpha2_sq: _preparation_angles(
    *_qubit_amplitudes("theta1", theta1), np.sqrt(alpha2_sq), np.sqrt(1.0 - alpha2_sq)))
_PAIR_SWAP = [("tag", "00"), ("tag", "10"), ("tag", "01"), ("tag", "11"),
              ("flip", 0), ("flip", 1), ("x", "11"), ("x", "01")]
_RECIPES = {
    # flips the environment qubit of the s=1 sector only: the V-class modes are
    # parked in H around the one CNOT, so it moves nothing but the tagged amplitude
    DephasingParams: _Recipe(
        _CHANNEL_REGISTER,
        [("tag", "10"), ("x", "01"), ("x", "11"), ("flip", 1), ("x", "11"), ("x", "01")],
        _dephasing_program, lambda prm: [2.0 * _caption_angle(prm.p)], lambda params: 1.0,
        _ENVIRONMENT_PREPARATION),
    # both qubits flip: partners are 00 <-> 11 and 10 <-> 01
    GADParams: _Recipe(
        _CHANNEL_REGISTER, _PAIR_SWAP, _gad_program, lambda prm: [_caption_angle(prm.p)],
        lambda params: params.alpha2_sq, _ENVIRONMENT_PREPARATION),
    SGADParams: _Recipe(
        _CHANNEL_REGISTER, _PAIR_SWAP, _sgad_program,
        lambda prm: [_caption_angle(r) for r in (prm.alpha, prm.beta, prm.mu, prm.nu)],
        lambda params: params.alpha2_sq, _ENVIRONMENT_PREPARATION),
    # the reservoir starts in its ground state; wires s, r1, r2, polarization
    PauliParams: _Recipe(
        make_register(Role.SYSTEM_PATH, Role.RESERVOIR_PATH, Role.RESERVOIR_PATH, Role.POLARIZATION),
        [step for flips, arrivals in (((1, 2), ("011", "111")), ((0, 1), ("110", "010")),
                                      ((0, 2), ("101", "001")))
         for step in [("tag", "000"), ("tag", "100"), *(("flip", w) for w in flips),
                      *(("x", mode) for mode in arrivals)]],
        _pauli_program,
        lambda prm: [float(t) for t in pauli_caption_angles(prm.p, prm.q1, prm.q2, prm.q3)],
        lambda params: 1.0, (_PAULI_PREPARATION, lambda theta1, _: _pauli_preparation_angles(theta1))),
}


def _recipe_of(params) -> _Recipe:
    family = params.family if isinstance(params, ParamStack) else type(params)
    if family not in _RECIPES:
        raise InvalidArgument(f"unknown channel parameter type {family.__name__}")
    return _RECIPES[family]


def _angles(recipe: _Recipe, params) -> np.ndarray:
    """The recipe's angle table, finite and reduced: shape (3, B, U) for a
    ``ParamStack`` of B points, read off its fields by the recipe's program,
    and (3, U) for one parameter record, its one-point stack's table."""
    if not isinstance(params, ParamStack):
        return _angles(recipe, ParamStack([params]))[:, 0]
    y, x, phi = recipe.program(params)
    table = np.empty((3, len(params), recipe.rotations))
    table[0] = table[2] = math.pi  # the X gate, where no tag overwrites it
    table[1] = 0.0
    table[0][..., recipe.tags] = 2.0 * np.arctan2(y, x)
    table[1][..., recipe.tags] = phi
    return _principal("lattice angle", table)


def _lattice_metadata(params: ChannelParams, theta1: float, knobs: list) -> dict:
    """The metadata a lattice for one parameter record carries: the family,
    its fields, the preparation angle theta1 and the knob angles."""
    return {"channel": params.name, **vars(params), "theta1": theta1, "caption_theta": knobs}


def build_channel_lattice(params: ChannelParams, *, theta1: float = math.pi / 2) -> CircuitSpec:
    """Preparation plus evolve lattice of a channel's parameter record; the
    Pauli lattice couples the system qubit to a 4-level reservoir.

    The preparation puts the system qubit (cos theta1/2, sin theta1/2) and the
    environment (sqrt(alpha2_sq), sqrt(1 - alpha2_sq)) that ``_encode`` gives
    the evolve stage, with alpha2_sq from the channel's bath weights (ground
    state for dephasing and for the Pauli reservoir).
    """
    recipe = _recipe_of(params)
    wiring, program = recipe.preparation
    angles = np.concatenate([program(theta1, recipe.weight(params)), _angles(recipe, params)], axis=1)
    stages = ("prepare",) * len(wiring) + ("evolve",) * len(recipe.layers)
    return CircuitSpec._of(recipe.register, wiring + recipe.layers, angles, stages,
                           _lattice_metadata(params, theta1, recipe.knobs(params)))


# -- batched lattices --------------------------------------------------------------

# Points a sweep reads, builds and composes together, one block at a time, so
# its memory follows BLOCK_SIZE, not the sweep's length.
BLOCK_SIZE = 64


def lattice_block(stack: ParamStack, system_input: np.ndarray, kraus, *, first_index: int):
    """The one evaluator of a channel lattice: for a stack's B points, Choi
    matrices (B, 4, 4), reduced outputs (B, 2, 2) on the qubit ``system_input``
    = (a1, b1), joint densities (B, d, d) and their checked (K, B) residual
    record. One kernel call composes their evolve stages, (B, d, d), from the
    angle table the recipe's program reads off the stack's fields, and applies
    them to the two encoded system basis inputs; no placement or preparation
    is built. The record holds one row per check: unitarity, norm, the joint
    density's hermiticity, trace and -lambda_min, the reduced output's
    hermiticity and trace (K = 7), then, given the block's Kraus outputs
    ``kraus`` (B, 2, 2) in place of None, their hermiticity, trace and
    -lambda_min, measured in one pass with the reduced outputs (K = 10). It is compared with its tolerances once; a failure names
    the first failing point, first_index + i, of the first failing row."""
    recipe = _recipe_of(stack)
    register, alpha2_sq = recipe.register, recipe.weight(stack)
    u = _chain(register, recipe.layers, _angles(recipe, stack))
    # row i: U on the encoded |i>
    cols = _encode(np.eye(2), np.reshape(alpha2_sq, (-1, 1)), len(register)) @ u.swapaxes(-1, -2)
    psi = system_input @ cols
    joint = psi[:, :, None] * psi[:, None, :].conj()
    # the system wire first, the rest traced out; E(|i><j|)[a, b] is
    # sum_r out_i[a, r] out_j[b, r]^*, so J = M M^dagger with rows (i, a)
    amps = psi.reshape(len(psi), 2, -1)
    rho = amps @ dagger(amps)
    b = len(rho)
    herm, tdev, lo = density_residuals(rho if kraus is None else np.concatenate([rho, kraus]),
                                       eig=kraus is not None)
    rows = [(unitarity_residual(u), structural_atol(), _UNITARITY),
            (np.abs(np.linalg.norm(psi, axis=-1) - 1.0), ATOL_ARITHMETIC, _NORM),
            *_density_rows(*density_residuals(joint)),
            *_density_rows(herm[:b], tdev[:b], None, None)]
    if kraus is not None:
        rows += _density_rows(herm[b:], tdev[b:], lo[b:])
    residuals = _check_rows(rows, first_index=first_index)
    m = cols.reshape(len(cols), 4, -1)
    return m @ dagger(m), rho, joint, residuals


def lattice_state(params: ChannelParams, *, theta1: float = math.pi / 2) -> DensityMatrix:
    """``lattice_block`` at one point, without Kraus outputs: its joint density
    on the qubit theta1 prepares, already checked there."""
    joint = lattice_block(ParamStack([params]), _qubit_amplitudes("theta1", theta1), None,
                          first_index=0)[2][0]
    return DensityMatrix._of(joint, (2,) * (len(joint).bit_length() - 1))  # one qubit per wire


@dataclass(frozen=True)
class SweepBlock:
    """Lattice and Kraus channels of consecutive points of a sweep."""

    start: int  # index of the block's first point in the sweep
    params: list  # each point's lattice metadata
    lattice: np.ndarray  # (b, 2, 2) system states from the lattices
    kraus: np.ndarray  # (b, 2, 2) Kraus-route outputs on the prepared qubit
    lattice_choi: np.ndarray  # (b, 4, 4) Choi matrices of the lattices
    kraus_choi: np.ndarray  # (b, 4, 4) Choi matrices of the Kraus sets
    deviation: np.ndarray  # (b,) largest entrywise gap, Choi matrices and outputs alike
    labels: tuple[str, ...]  # the Kraus operators' labels
    residuals: np.ndarray  # (10, b) checked: the lattice's 7 rows, then the Kraus outputs'


def channel_sweep(
    points: Iterable[ChannelParams], *, theta1: float = math.pi / 2
) -> Iterator[SweepBlock]:
    """Compare each point's lattice with its Kraus set, BLOCK_SIZE points at a
    time: their Choi matrices, and their outputs on the qubit theta1 prepares.

    theta1 is checked when this is called; ``points`` is read lazily, one pass
    of BLOCK_SIZE records per block, so what a sweep holds grows with
    BLOCK_SIZE, not with its length, and ``points`` may be any iterable, one
    that builds each record on demand included. Each block builds its
    ``ParamStack`` and Kraus operators once and is one ``lattice_block`` call
    given the block's Kraus outputs, so its one residual record, checked once
    and carried as ``residuals``, holds the lattice's 7 rows, then the Kraus
    outputs' hermiticity, trace and -lambda_min. A point that fails its
    completeness check, or a family other than the first block's, raises when
    its block is reached, after the earlier blocks; an empty sweep raises at
    the first block.
    """
    system_input = _qubit_amplitudes("theta1", theta1)  # (a1, b1)
    rho_in = np.outer(system_input, system_input).astype(complex)
    points = iter(points)

    def blocks():
        family = None
        for start in itertools.count(0, BLOCK_SIZE):
            block = list(itertools.islice(points, BLOCK_SIZE))
            if start and not block:
                return
            stack = ParamStack(block)  # an empty sweep has no first point, and raises here
            family = family or stack.family
            if stack.family is not family:
                raise InvalidArgument("a parameter stack holds one channel family")
            recipe = _recipe_of(stack)
            ops, labels = kraus_stack(stack, first_index=start)
            kraus = apply_operators(rho_in, ops)
            lattice_choi, lattice, _, residuals = lattice_block(stack, system_input, kraus,
                                                                first_index=start)
            kraus_choi = choi(ops)
            deviation = np.maximum(np.max(np.abs(lattice_choi - kraus_choi), axis=(-2, -1)),
                                   np.max(np.abs(lattice - kraus), axis=(-2, -1)))
            meta = [_lattice_metadata(p, theta1, recipe.knobs(p)) for p in stack.points]
            yield SweepBlock(start, meta, lattice, kraus, lattice_choi, kraus_choi, deviation,
                             labels, residuals)

    return blocks()


# -- readout helpers ------------------------------------------------------------


def output_mode_decomposition(state: PureState) -> dict[str, np.ndarray]:
    """Per-path-mode polarization vectors (phi_i), polarization wire last.

    Returns {path bits: [H amplitude, V amplitude]}; stacking the vectors
    back along the path index reproduces the state exactly.
    """
    if any(d != 2 for d in state.dims) or len(state.dims) < 2:
        raise InvalidArgument("expected a register of qubits with a trailing polarization wire")
    n_path = len(state.dims) - 1
    table = state.amplitudes.reshape(2**n_path, 2)
    return {format(i, f"0{n_path}b"): table[i].copy() for i in range(2**n_path)}


# -- tabletop thermal-damping run ------------------------------------------------

# Reference two-qubit density matrix reconstructed from the tabletop
# thermal-damping run at mount angles (pi/8, pi/8, pi/8); used by
# `reproduce-gad` as the comparison target.
REFERENCE_GAD_MATRIX = np.array(
    [
        [0.253077, 0.178583 - 0.0174541j, 0.129289 - 0.0237165j, -0.0360439 - 0.0166259j],
        [0.178583 + 0.0174541j, 0.276904, 0.225649 - 0.0334031j, 0.15571 - 0.0197547j],
        [0.129289 + 0.0237165j, 0.225649 + 0.0334031j, 0.220375, 0.127449 - 0.00915289j],
        [-0.0360439 + 0.0166259j, 0.15571 + 0.0197547j, 0.127449 + 0.00915289j, 0.249643],
    ],
    dtype=complex,
)

REFERENCE_GAD_ANGLES = (math.pi / 8, math.pi / 8, math.pi / 8)
REFERENCE_GAD_FIDELITY_BAND = (0.92, 0.98)


def gad_experiment(theta1: float, theta2: float, theta3: float) -> DensityMatrix:
    """Joint system-environment state after the two-layer tabletop interferometer.

    Angles are half-wave-plate mount angles; each plate rotates polarization
    by twice its mount angle. This is the GAD lattice with system amplitudes
    cos/sin of 2 theta1, which are the half-angle amplitudes at 4 theta1
    (scaling by a power of two is exact), bath ground weight sin^2(2 theta2)
    and p = sin^2(2 theta3); theta3 = pi/2 leaves the product state
    untouched. Polarization is traced out of the result.
    """
    t1, t2, t3 = (_finite_multiple(name, v, scale) for name, v, scale in  # math.sin(inf) raises
                  (("theta1", theta1, 4), ("theta2", theta2, 2), ("theta3", theta3, 2)))
    params = GADParams(math.sin(t3) ** 2, math.sin(t2) ** 2)
    return partial_trace(lattice_state(params, theta1=t1), (0, 1), eig_atol=ATOL_SPECTRAL)


# -- circuit-spec files ----------------------------------------------------------


def circuit_to_payload(circuit: CircuitSpec) -> dict:
    layers = []
    for layer in circuit.layers:
        encoded = []
        for p in layer:
            entry: dict = {"kind": p.kind, "wires": list(p.wires)}
            if p.params is not None:
                entry.update({"theta": p.params.theta, "phi": p.params.phi, "lambda": p.params.lam})
            if p.condition is not None:
                entry["condition"] = p.condition
            encoded.append(entry)
        layers.append(encoded)
    return {
        "register": [w.role.value for w in circuit.register],
        "layers": layers,
        "stages": list(circuit.stages),
        "meta": dict(circuit.metadata),
    }


def _read_circuit(payload: dict) -> CircuitSpec:
    register = make_register(*payload["register"])
    layers = [[GatePlacement(entry["kind"], tuple(entry["wires"]), U3Params(*_real(
        "placement angles", [entry["theta"], entry.get("phi", 0.0), entry.get("lambda", 0.0)]))
        if "theta" in entry else None, entry.get("condition"))
        for entry in layer] for layer in payload["layers"]]
    stages = payload.get("stages", ["evolve"] * len(layers))
    return CircuitSpec(register, layers, stages, payload.get("meta", {}))


def circuit_from_payload(payload: dict) -> CircuitSpec:
    return _read_payload(payload, "circuit", _read_circuit)


def traced_joint_state(state: PureState) -> DensityMatrix:
    """Trace the polarization wire (last) out of a lattice state."""
    keep = tuple(range(len(state.dims) - 1))
    return partial_trace(state.density(), keep)


def traced_system_state(state: PureState) -> DensityMatrix:
    """Trace everything but the system wire (first) out of a lattice state."""
    return partial_trace(state.density(), (0,))
