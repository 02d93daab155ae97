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
can be read off directly.

Composition
-----------
Every product of placements, whether a whole circuit, one stage, a run of
lattice layers or a single placement, goes through one kernel: the
rotations of all G placements come from one ``u3`` call on their stacked
angles, all G matrices from one scatter into a copy of a zeroed template,
and the matmul chain runs in layer order. The template and the flat
positions depend on the wiring alone (register, kinds, wires, conditions
and layer sizes). They are built, and every wiring check is run, once per
wiring in a bounded cache that no angle or parameter keys. A circuit too
long for one scatter of KERNEL_BYTES, over all of its stacked points, goes
through in consecutive runs of layers; every one-point lattice is one run.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

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
from .errors import InvalidArgument, InvalidWiring, KrausloomError
from .gates import (
    Register,
    Role,
    U3Params,
    _condition_slots,
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
    DensityMatrix,
    PureState,
    check_densities,
    check_residuals,
    dagger,
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
    return _compose(register, [(placement,)])


def _acted_wires(kind: str, wires: tuple[int, ...], condition, register: Register) -> set[int]:
    if kind == "path-conditioned-u3":
        acted = {wires[0]}
        for ch, wire in zip(condition, path_wires(register)):
            if ch != "*":
                acted.add(wire.index)
        return acted
    return set(wires)


def _check_disjoint(register: Register, layers) -> None:
    """``layers`` holds each layer's (kind, wires, condition) triples."""
    for layer in layers:
        seen: set[int] = set()
        for slot in layer:
            acted = _acted_wires(*slot, register)
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


@dataclass(frozen=True)
class CircuitSpec:
    """Ordered layers of placements with a stage tag per layer."""

    register: Register
    layers: tuple[tuple[GatePlacement, ...], ...]
    stages: tuple[str, ...]
    metadata: dict = field(default_factory=dict, compare=False)
    unitary: np.ndarray = field(default=None, compare=False, repr=False)  # all layers, read-only

    def __init__(self, register, layers, stages, metadata=None):
        register = tuple(register)
        layers = tuple(tuple(layer) for layer in layers)
        stages = tuple(str(s) for s in stages)
        if len(layers) != len(stages):
            raise InvalidArgument("one stage tag per layer required")
        if any(s not in STAGES for s in stages):
            raise InvalidArgument(f"stage tags must be among {STAGES}")
        object.__setattr__(self, "register", register)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "stages", stages)
        object.__setattr__(self, "metadata", dict(metadata or {}))
        unitary = _compose(register, layers)
        check_residuals(unitarity_residual(unitary), structural_atol(),
                        "layer composition unitarity residual {:.3e}")
        unitary.flags.writeable = False
        object.__setattr__(self, "unitary", unitary)

    @property
    def n_wires(self) -> int:
        return len(self.register)

    @property
    def dim(self) -> int:
        return 2 ** len(self.register)


KERNEL_BYTES = 1 << 18  # most placement-matrix bytes one scatter writes, every point of a stack


def _compose(register: Register, layers) -> np.ndarray:
    """Product of the layers' placement matrices, the first layer acting first.

    The lattice kernel: the placement matrices come from ``_placement_stack``
    and the matmul chain runs in layer order. A circuit whose matrices fill
    more than KERNEL_BYTES goes through in consecutive runs of layers, so the
    buffers and the cached templates stay bounded whatever a circuit file or
    a sweep block holds. Placements with stacked angles, shape (B,), give a
    stack of products, and their scatter writes B matrices per placement.
    """
    d = 2 ** len(register)
    points = max([a.size for layer in layers for p in layer if p.params is not None
                  for a in (p.params.theta, p.params.phi, p.params.lam)
                  if isinstance(a, np.ndarray)], default=1)
    out = None
    for run in _layer_runs(layers, max(1, KERNEL_BYTES // (16 * d * d * points))):
        mats = _placement_stack(register, run)
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


def _placement_stack(register: Register, layers) -> np.ndarray:
    """The G placement matrices of a run of layers, in order, shape (..., G, d, d):
    one u3 call on the stacked angles of all rotations and one scatter into
    a copy of the wiring's template."""
    placements = [p for layer in layers for p in layer]
    template, targets, sources = _wiring(
        register, tuple(map(len, layers)), tuple([(p.kind, p.wires, p.condition) for p in placements])
    )
    rotations = [p.params for p in placements if p.params is not None]
    if rotations:
        angles = [[u.theta for u in rotations], [u.phi for u in rotations], [u.lam for u in rotations]]
        if any(isinstance(a, np.ndarray) for column in angles for a in column):
            angles = [np.stack(np.broadcast_arrays(*column), axis=-1) for column in angles]
        entries = u3(U3Params(*angles))  # (..., U, 2, 2)
        stack = entries.shape[:-3]
        flat = np.empty(stack + template.shape, dtype=complex)
        flat[...] = template
        flat[..., targets] = entries.reshape(stack + (-1,))[..., sources]
    else:
        flat = template.copy()
    d = 2 ** len(register)
    return flat.reshape(flat.shape[:-1] + (len(placements), d, d))


def _stage_layers(circuit: CircuitSpec, wanted) -> list:
    return [layer for layer, stage in zip(circuit.layers, circuit.stages) if stage in wanted]


def circuit_unitary(circuit: CircuitSpec, through_stage: str | None = None) -> np.ndarray:
    """Composed unitary of all layers up to and including ``through_stage``."""
    if through_stage is not None and through_stage not in STAGES:
        raise InvalidArgument(f"unknown stage {through_stage!r}")
    cutoff = len(STAGES) if through_stage is None else STAGES.index(through_stage) + 1
    wanted = STAGES[:cutoff]
    # stages need not come in order, so a cutoff that drops any layer composes anew
    if all(stage in wanted for stage in circuit.stages):
        return circuit.unitary
    return _compose(circuit.register, _stage_layers(circuit, wanted))


def stage_unitary(circuit: CircuitSpec, stage: str) -> np.ndarray:
    """Composed unitary of exactly one stage's layers."""
    if stage not in STAGES:
        raise InvalidArgument(f"unknown stage {stage!r}")
    return _compose(circuit.register, _stage_layers(circuit, (stage,)))


def evolve(state: PureState, circuit: CircuitSpec, through_stage: str | None = None) -> PureState:
    """Send a state through the circuit layer by layer."""
    if state.dim != circuit.dim:
        raise InvalidArgument(
            f"state dimension {state.dim} does not match circuit dimension {circuit.dim}"
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
    An angle may be an array with one value per point of a batch.
    """

    theta1: float
    theta2: float
    convention: str = "half-angle"

    def __post_init__(self):
        if self.convention not in ("half-angle", "experimental"):
            raise InvalidArgument(f"unknown angle convention {self.convention!r}")
        for name in ("theta1", "theta2"):
            object.__setattr__(self, name, finite_values(name, getattr(self, name)))

    def amplitudes(self) -> tuple[float, float, float, float]:
        """(a1, b1, a2, b2) with a^2 + b^2 = 1 for each pair."""
        if self.convention == "half-angle":
            a1, b1 = np.cos(self.theta1 / 2), np.sin(self.theta1 / 2)
            a2, b2 = np.cos(self.theta2 / 2), np.sin(self.theta2 / 2)
        else:
            a1, b1 = np.cos(self.theta1), np.sin(self.theta1)
            a2, b2 = np.sin(self.theta2), np.cos(self.theta2)
        return a1, b1, a2, b2


def channel_register() -> Register:
    return make_register(Role.SYSTEM_PATH, Role.ENVIRONMENT_PATH, Role.POLARIZATION)


# The angle helpers and layer recipes below take floats or arrays over the
# points of a batch; an array gives a placement with stacked angles.


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


def _col0_u3(c, s) -> U3Params:
    """Rotation whose first column is the real pair (c, s).

    Exact for c in (-1, 1]; at the c = -1 boundary the principal-range
    reduction flips the column's global sign. arctan2 keeps a small s that
    arccos(c) would lose once c rounds to 1.
    """
    theta = 2.0 * np.arctan2(np.abs(s), c)
    phi = np.where(s >= 0, 0.0, math.pi)
    return U3Params(theta, phi, math.pi)


def _col1_u3(c, s) -> U3Params:
    """Rotation whose second column is the real pair (c, s), all signs exact."""
    theta = 2.0 * np.arctan2(np.abs(c), np.abs(s))
    lam = np.where(c < 0, 0.0, math.pi)
    phi = (np.where(s >= 0, 0.0, math.pi) - lam) % (2.0 * math.pi)
    return U3Params(theta, phi, lam)


def _preparation_layers(a1: float, b1: float, a2: float, b2: float, register: Register):
    """Layers taking |00>|H> to (a1 a2|00> + b1 a2|10>)|H> + (a1 b2|01> + b1 b2|11>)|V>.

    The second rotation differs per branch because the first CNOT leaves the
    s=1 branch vertically polarized; both branches must end in a2|H> + b2|V>.
    The s=1 gate targets the pair the s=0 gate actually realizes, so any
    boundary sign flip stays a global phase.
    """
    pol = polarization_wire(register).index
    s = register[0].index
    e = register[1].index
    p_env_h = _col0_u3(a2, b2)
    realized = u3(p_env_h)[..., :, 0]
    p_env_v = _col1_u3(realized[..., 0].real, realized[..., 1].real)
    layers = [
        (GatePlacement("local-u3", (pol,), _col0_u3(a1, b1)),),
        (GatePlacement("cnot-pol-path", (pol, s)),),
        (GatePlacement("path-conditioned-u3", (pol,), p_env_h, "0*"),),
        (GatePlacement("path-conditioned-u3", (pol,), p_env_v, "1*"),),
        (GatePlacement("cnot-pol-path", (pol, e)),),
    ]
    return layers


def preparation_circuit(params: ProductStateParams) -> CircuitSpec:
    register = channel_register()
    a1, b1, a2, b2 = params.amplitudes()
    layers = _preparation_layers(a1, b1, a2, b2, register)
    return CircuitSpec(
        register,
        layers,
        ["prepare"] * len(layers),
        {"kind": "prepare", "theta1": params.theta1, "theta2": params.theta2,
         "convention": params.convention},
    )


def prepare_product_state(params: ProductStateParams) -> PureState:
    """Run the preparation stage on the initial photon."""
    circuit = preparation_circuit(params)
    return evolve(initial_state(circuit), circuit, "prepare")


def thermal_weights(
    e1: float, e2: float, kbt: float, *, zero_temperature: bool = False
) -> tuple[float, float]:
    """Boltzmann weights (w1, w2) of a two-level environment; w1 + w2 = 1."""
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

_X = U3Params(math.pi, 0.0, math.pi)


def _tag_h(stay, move, phase) -> U3Params:
    """Rotation sending |H> to stay|H> + move e^{i phase}|V>."""
    return U3Params(2.0 * np.arctan2(move, stay), phase, math.pi)


def _tag_v(stay, move, phase) -> U3Params:
    """Rotation sending |V> to stay|H> + move e^{i phase}|V>."""
    return U3Params(2.0 * np.arctan2(stay, move), phase - math.pi, math.pi)


@dataclass(frozen=True)
class ModeTransition:
    """One map row |m> -> stay|m> + move e^{i phase}|partner(m)>."""

    stay: float
    move: float
    phase: float = 0.0


def _pair_swap_layers(register: Register, transitions: dict[str, ModeTransition]):
    """Evolve layers for the both-qubit-flip channels (thermal and squeezed damping).

    transitions is keyed by path mode 'se'; partners are 00<->11 and 10<->01.
    Input polarization: modes 00, 10 arrive H; 01, 11 arrive V.
    """
    pol = polarization_wire(register).index
    s = register[0].index
    e = register[1].index

    def tag(mode: str) -> GatePlacement:
        t = transitions[mode]
        make = _tag_h if mode in ("00", "10") else _tag_v
        return GatePlacement("path-conditioned-u3", (pol,), make(t.stay, t.move, t.phase), mode)

    layers = [
        (tag("00"),),
        (tag("10"),),
        (tag("01"),),
        (tag("11"),),
        (GatePlacement("cnot-pol-path", (pol, s)),),
        (GatePlacement("cnot-pol-path", (pol, e)),),
        (GatePlacement("path-conditioned-u3", (pol,), _X, "11"),),
        (GatePlacement("path-conditioned-u3", (pol,), _X, "01"),),
    ]
    return layers


def _dephasing_layers(register: Register, p: float):
    """Evolve layers flipping the environment qubit of the s=1 sector only.

    The V-class modes are parked in H around the single CNOT so the move
    touches nothing but the tagged transition amplitude.
    """
    pol = polarization_wire(register).index
    e = register[1].index
    tag = GatePlacement(
        "path-conditioned-u3", (pol,), _tag_h(np.sqrt(1 - p), np.sqrt(p), 0.0), "10"
    )
    park_01 = GatePlacement("path-conditioned-u3", (pol,), _X, "01")
    park_11 = GatePlacement("path-conditioned-u3", (pol,), _X, "11")
    layers = [
        (tag,),
        (park_01,),
        (park_11,),
        (GatePlacement("cnot-pol-path", (pol, e)),),
        (GatePlacement("path-conditioned-u3", (pol,), _X, "11"),),
        (GatePlacement("path-conditioned-u3", (pol,), _X, "01"),),
    ]
    return layers


def _caption_angle(rate: float) -> float:
    """Knob angle theta with rate = cos^2(theta)."""
    return math.acos(min(1.0, math.sqrt(rate)))


def _evolve_layers(params):
    """(register, evolve layers, environment ground weight) of one family's lattice.

    ``params`` is one parameter record or a ParamStack; a stacked field gives
    stacked angles wherever it enters. The weight is what the preparation
    (or ``_encode``) puts into the environment's ground mode; the dephasing
    environment and the Pauli reservoir start in their ground state.
    """
    family = params.family if isinstance(params, ParamStack) else type(params)
    if family is PauliParams:
        return pauli_register(), _pauli_evolve_layers(params), 1.0
    register = channel_register()
    if family is DephasingParams:
        return register, _dephasing_layers(register, params.p), 1.0
    if family is GADParams:
        sp, sq = np.sqrt(params.p), np.sqrt(1 - params.p)
        return register, _pair_swap_layers(register, {
            "00": ModeTransition(1.0, 0.0),
            "10": ModeTransition(sq, sp),
            "01": ModeTransition(sq, sp),
            "11": ModeTransition(1.0, 0.0),
        }), params.alpha2_sq
    if family is SGADParams:
        return register, _pair_swap_layers(register, {
            "00": ModeTransition(np.sqrt(1 - params.alpha), np.sqrt(params.alpha), -params.phi),
            "10": ModeTransition(np.sqrt(1 - params.beta), np.sqrt(params.beta)),
            "01": ModeTransition(np.sqrt(1 - params.mu), np.sqrt(params.mu), -params.lam),
            "11": ModeTransition(np.sqrt(1 - params.nu), np.sqrt(params.nu)),
        }), params.alpha2_sq
    raise InvalidArgument(f"unknown channel parameter type {family.__name__}")


def _lattice_metadata(params: ChannelParams, theta1: float) -> dict:
    """The metadata a lattice for one parameter record carries."""
    if isinstance(params, PauliParams):
        angles = pauli_caption_angles(params.p, params.q1, params.q2, params.q3)
        t1, t2, t3 = (float(t) for t in angles)
        return {
            "channel": "pauli", "p": params.p, "q1": params.q1, "q2": params.q2, "q3": params.q3,
            "caption_theta1": t1, "caption_theta2": t2, "caption_theta3": t3,
            "prep_theta": theta1,
        }
    if isinstance(params, DephasingParams):
        alpha2_sq = 1.0
        meta = {"channel": "dephasing", "p": params.p,
                "caption_theta": 2.0 * _caption_angle(params.p)}
    elif isinstance(params, GADParams):
        alpha2_sq = params.alpha2_sq
        meta = {"channel": "gad", "p": params.p, "alpha2_sq": params.alpha2_sq,
                "caption_theta": _caption_angle(params.p)}
    else:
        alpha2_sq = params.alpha2_sq
        meta = {"channel": "sgad", "alpha2_sq": params.alpha2_sq,
                **{k: getattr(params, k) for k in ("alpha", "beta", "mu", "nu", "phi", "lam")},
                **{name: _caption_angle(getattr(params, attr)) for name, attr in
                   (("theta1", "alpha"), ("theta2", "beta"), ("theta3", "mu"), ("theta4", "nu"))}}
    meta.update({"theta1": theta1, "convention": "half-angle", "alpha2_sq_prep": alpha2_sq})
    return meta


def build_channel_lattice(params: ChannelParams, *, theta1: float = math.pi / 2) -> CircuitSpec:
    """Preparation plus evolve lattice for one of the channels.

    The preparation puts the system qubit (cos theta1/2, sin theta1/2) and the
    environment (sqrt(alpha2_sq), sqrt(1 - alpha2_sq)) that ``_encode`` gives
    the evolve stage, with alpha2_sq from the channel's bath weights (ground
    state for dephasing and for the Pauli reservoir).
    """
    register, lattice, alpha2_sq = _evolve_layers(params)
    if isinstance(params, PauliParams):
        layers = _pauli_preparation_layers(register, theta1)
    else:
        a1, b1 = _qubit_amplitudes("theta1", theta1)
        layers = _preparation_layers(a1, b1, np.sqrt(alpha2_sq), np.sqrt(1.0 - alpha2_sq), register)
    stages = ["prepare"] * len(layers) + ["evolve"] * len(lattice)
    return CircuitSpec(register, layers + lattice, stages, _lattice_metadata(params, theta1))


def pauli_caption_angles(p, q1, q2, q3) -> tuple[float, float, float]:
    """Knob angles from p = cos^2 t1, q1 = cos^2 t2, q2 = sin^2 t2 cos^2 t3,
    q3 = sin^2 t2 sin^2 t3; principal branch, ties toward [0, pi/2]."""
    t1 = np.arccos(np.minimum(1.0, np.sqrt(p)))
    t2 = np.arccos(np.minimum(1.0, np.sqrt(q1)))
    t3 = np.arctan2(np.sqrt(q3), np.sqrt(q2))
    return (t1, t2, t3)


def pauli_register() -> Register:
    return make_register(Role.SYSTEM_PATH, Role.RESERVOIR_PATH, Role.RESERVOIR_PATH, Role.POLARIZATION)


def build_pauli_lattice(
    p: float, q1: float, q2: float, q3: float, *, prep_theta: float = math.pi / 2
) -> CircuitSpec:
    """Lattice coupling one system qubit to a 4-level reservoir."""
    return build_channel_lattice(PauliParams(p, q1, q2, q3), theta1=prep_theta)


def _pauli_preparation_layers(register: Register, prep_theta: float):
    """Layers taking |000>|H> to (cos(prep_theta/2)|000> + sin(prep_theta/2)|100>)|H>."""
    a, b = _qubit_amplitudes("prep_theta", prep_theta)
    pol = polarization_wire(register).index
    return [
        (GatePlacement("local-u3", (pol,), U3Params(2 * math.atan2(b, a), 0.0, math.pi)),),
        (GatePlacement("cnot-pol-path", (pol, register[0].index)),),
        (GatePlacement("path-conditioned-u3", (pol,), _X, "1**"),),
    ]


def _pauli_evolve_layers(params):
    """Evolve layers of the Pauli lattice.

    Each of the two H-polarized input modes splits into its stay amplitude
    and three double-flip transitions, one sqrt(p q_i) branch per round;
    signs and the i factors ride on the tag phases.
    """
    t1, t2, t3 = pauli_caption_angles(params.p, params.q1, params.q2, params.q3)
    register = pauli_register()
    pol = polarization_wire(register).index
    s, r1, r2 = (w.index for w in path_wires(register))
    layers = []

    # absolute branch amplitudes from the knob angles
    m_q1 = np.cos(t1) * np.cos(t2)
    m_q2 = np.cos(t1) * np.sin(t2) * np.cos(t3)
    m_q3 = np.cos(t1) * np.sin(t2) * np.sin(t3)

    rounds = [
        # (branch amplitude, phase on |000> row, phase on |100> row, flips, arrival modes)
        (m_q3, 0.0, math.pi, (r1, r2), ("011", "111")),
        (m_q2, math.pi / 2, -math.pi / 2, (s, r1), ("110", "010")),
        (m_q1, 0.0, 0.0, (s, r2), ("101", "001")),
    ]
    remaining = 1.0
    for amp, phase0, phase1, flips, arrivals in rounds:
        # once nothing stays, nothing moves; the floor keeps the unused quotient finite
        move = np.where(remaining > 1e-15, amp / np.maximum(remaining, 1e-15), 0.0)
        move = np.minimum(1.0, move)
        stay = np.sqrt(np.maximum(0.0, 1.0 - move * move))
        layers.append(
            (GatePlacement("path-conditioned-u3", (pol,), _tag_h(stay, move, phase0), "000"),)
        )
        layers.append(
            (GatePlacement("path-conditioned-u3", (pol,), _tag_h(stay, move, phase1), "100"),)
        )
        for wire in flips:
            layers.append((GatePlacement("cnot-pol-path", (pol, wire)),))
        for mode in arrivals:
            layers.append((GatePlacement("path-conditioned-u3", (pol,), _X, mode),))
        remaining = remaining * stay
    return layers


# -- batched lattices --------------------------------------------------------------

BLOCK_SIZE = 64  # points composed together; stack memory follows it, not the sweep length


def lattice_outputs(
    params: ParamStack, system_input: np.ndarray, *, first_index: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Choi matrices (B, 4, 4), reduced outputs (B, 2, 2) on the qubit
    ``system_input`` = (a1, b1) and joint densities (B, d, d) of a stack's B
    points: one kernel call composes their evolve stages, which act on the two
    encoded system basis inputs; no preparation is built. ``check_residuals`` checks
    every point (unitarity, norm, joint and traced density), naming point first_index + i.
    """
    register, layers, alpha2_sq = _evolve_layers(params)
    d = 2 ** len(register)
    u = np.broadcast_to(_compose(register, layers), (len(params), d, d))
    check_residuals(unitarity_residual(u), structural_atol(),
                    "layer composition unitarity residual {:.3e}", first_index=first_index)
    # row i: U on the encoded |i>
    cols = _encode(np.eye(2), np.reshape(alpha2_sq, (-1, 1)), len(register)) @ u.swapaxes(-1, -2)
    psi = system_input @ cols
    check_residuals(np.abs(np.linalg.norm(psi, axis=-1) - 1.0), ATOL_ARITHMETIC,
                    "state norm deviates from 1 by {:.3e}", first_index=first_index)
    joint = psi[:, :, None] * psi[:, None, :].conj()
    check_densities(joint, first_index=first_index)
    # the system wire first, the rest traced out; E(|i><j|)[a, b] is
    # sum_r out_i[a, r] out_j[b, r]^*, so J = M M^dagger with rows (i, a)
    amps = psi.reshape(len(psi), 2, -1)
    rho = amps @ dagger(amps)
    check_densities(rho, eig_atol=None, first_index=first_index)
    m = cols.reshape(len(cols), 4, -1)
    return m @ dagger(m), rho, joint


def lattice_state(params: ChannelParams, *, theta1: float = math.pi / 2) -> DensityMatrix:
    """``lattice_outputs`` at one point: its joint density on the qubit theta1 prepares."""
    joint = lattice_outputs(ParamStack([params]), _qubit_amplitudes("theta1", theta1),
                            first_index=0)[2][0]
    # lattice_outputs ran the eigenvalue check; one qubit per wire
    return DensityMatrix(joint, (2,) * (len(joint).bit_length() - 1), eig_atol=None)


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


def channel_sweep(
    points: Sequence[ChannelParams], *, theta1: float = math.pi / 2
) -> Iterator[SweepBlock]:
    """Compare each point's lattice with its Kraus set, BLOCK_SIZE points at a
    time: their Choi matrices, and their outputs on the qubit theta1 prepares.

    Every point is validated, and its Kraus completeness checked, before this
    returns; each block's ParamStack then runs through ``lattice_outputs``.
    """
    stack = ParamStack(points)
    system_input = _qubit_amplitudes("theta1", theta1)  # (a1, b1)
    ops, labels = kraus_stack(stack)
    rho_in = np.outer(system_input, system_input).astype(complex)

    def blocks():
        for start in range(0, len(stack), BLOCK_SIZE):
            block = stack.points[start:start + BLOCK_SIZE]
            lattice_choi, lattice, _ = lattice_outputs(ParamStack(block), system_input,
                                                       first_index=start)
            kraus = apply_operators(rho_in, ops[start:start + BLOCK_SIZE])
            check_densities(kraus, first_index=start)
            kraus_choi = choi(ops[start:start + BLOCK_SIZE])
            deviation = np.maximum(np.max(np.abs(lattice_choi - kraus_choi), axis=(-2, -1)),
                                   np.max(np.abs(lattice - kraus), axis=(-2, -1)))
            meta = [_lattice_metadata(p, theta1) for p in block]
            yield SweepBlock(start, meta, lattice, kraus, lattice_choi, kraus_choi, deviation,
                             labels)

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
    joint = partial_trace(lattice_state(params, theta1=t1), (0, 1))
    return DensityMatrix(joint.matrix, joint.dims)


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


def circuit_from_payload(payload: dict) -> CircuitSpec:
    try:
        register = make_register(*payload["register"])
        layers = []
        for layer in payload["layers"]:
            placements = []
            for entry in layer:
                params = None
                if "theta" in entry:
                    params = U3Params(entry["theta"], entry.get("phi", 0.0), entry.get("lambda", 0.0))
                placements.append(
                    GatePlacement(entry["kind"], tuple(entry["wires"]), params, entry.get("condition"))
                )
            layers.append(tuple(placements))
        stages = payload.get("stages", ["evolve"] * len(layers))
        return CircuitSpec(register, layers, stages, payload.get("meta", {}))
    except KrausloomError:  # package errors are ValueErrors too; they keep their type
        raise
    except (KeyError, TypeError, ValueError) as exc:  # ValueError: e.g. an unknown role name
        raise InvalidArgument(f"bad circuit payload: {exc}") from exc


def traced_joint_state(state: PureState) -> DensityMatrix:
    """Trace the polarization wire (last) out of a lattice state."""
    keep = tuple(range(len(state.dims) - 1))
    return partial_trace(state.density(), keep)


def traced_system_state(state: PureState) -> DensityMatrix:
    """Trace everything but the system wire (first) out of a lattice state."""
    return partial_trace(state.density(), (0,))
