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
"""

from __future__ import annotations

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
    kraus_stack,
)
from .errors import InvalidArgument, InvalidState, KrausloomError
from .gates import (
    Register,
    Role,
    U3Params,
    cnot_pol_path,
    controlled_on_path,
    embed,
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
    n = len(register)
    if any(w >= n for w in placement.wires):
        raise InvalidArgument(f"placement wires {placement.wires} exceed register size {n}")
    if placement.kind == "local-u3":
        return embed(u3(placement.params), placement.wires[0], n)
    if placement.kind == "cnot-pol-path":
        control, target = placement.wires
        return cnot_pol_path(register[control], register[target], n)
    return controlled_on_path(u3(placement.params), placement.condition, register)


def _acted_wires(placement: GatePlacement, register: Register) -> set[int]:
    if placement.kind == "path-conditioned-u3":
        acted = {placement.wires[0]}
        for ch, wire in zip(placement.condition, path_wires(register)):
            if ch != "*":
                acted.add(wire.index)
        return acted
    return set(placement.wires)


def _check_disjoint(register: Register, layers) -> None:
    for layer in layers:
        seen: set[int] = set()
        for placement in layer:
            acted = _acted_wires(placement, register)
            if acted & seen:
                raise InvalidArgument("placements within a layer must act on disjoint wires")
            seen |= acted


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
        _check_disjoint(register, layers)
        object.__setattr__(self, "register", register)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "stages", stages)
        object.__setattr__(self, "metadata", dict(metadata or {}))
        unitary = _compose(register, layers)
        res = unitarity_residual(unitary)
        if res > structural_atol():
            raise InvalidState(f"layer composition unitarity residual {res:.3e}")
        unitary.flags.writeable = False
        object.__setattr__(self, "unitary", unitary)

    @property
    def n_wires(self) -> int:
        return len(self.register)

    @property
    def dim(self) -> int:
        return 2 ** len(self.register)


def _compose(register: Register, layers) -> np.ndarray:
    """Product of the layers' placement matrices, the first layer acting first.

    Placements with stacked angles give a stack of products.
    """
    out = None
    for layer in layers:
        for placement in layer:
            m = placement_matrix(placement, register)
            out = m if out is None else m @ out
    return np.eye(2 ** len(register), dtype=complex) if out is None else out


def layer_unitary(register: Register, layer: Sequence[GatePlacement]) -> np.ndarray:
    return _compose(register, [layer])


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


def _col0_u3(c, s) -> U3Params:
    """Rotation whose first column is the real pair (c, s).

    Exact for c in (-1, 1]; at the c = -1 boundary the principal-range
    reduction flips the column's global sign.
    """
    theta = 2.0 * np.arccos(np.clip(c, -1.0, 1.0))
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


def encode_joint_state(system_amplitudes, alpha2_sq: float) -> PureState:
    """Encode an arbitrary system qubit against a thermal environment.

    Produces a a2|e=0>|H> + b2|e=1>|V> dressing of the given system qubit:
    tracing polarization leaves rho_S (x) diag(alpha2_sq, 1 - alpha2_sq).
    """
    a, b = (complex(c) for c in system_amplitudes)
    if abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) > 1e-12:
        raise InvalidArgument("system amplitudes must be normalized")
    if not (0.0 <= alpha2_sq <= 1.0):
        raise InvalidArgument(f"alpha2_sq must lie in [0, 1], got {alpha2_sq}")
    a2 = math.sqrt(alpha2_sq)
    b2 = math.sqrt(1.0 - alpha2_sq)
    vec = np.zeros(8, dtype=complex)
    vec[0b000] = a * a2  # |s=0, e=0, H>
    vec[0b011] = a * b2  # |s=0, e=1, V>
    vec[0b100] = b * a2
    vec[0b111] = b * b2
    return PureState(vec, (2, 2, 2))


def encode_reservoir_state(system_amplitudes) -> PureState:
    """System qubit against the 4-level reservoir ground state, H polarized."""
    a, b = (complex(c) for c in system_amplitudes)
    if abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) > 1e-12:
        raise InvalidArgument("system amplitudes must be normalized")
    vec = np.zeros(16, dtype=complex)
    vec[0b0000] = a
    vec[0b1000] = b
    return PureState(vec, (2, 2, 2, 2))


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


def dephasing_caption_angle(p: float) -> float:
    """Knob angle of the single active rotation, from p = cos^2(theta/2)."""
    return 2.0 * math.acos(min(1.0, math.sqrt(p)))

def gad_caption_angle(p: float) -> float:
    """Knob angle of the two active rotations, from p = cos^2(theta)."""
    return math.acos(min(1.0, math.sqrt(p)))


def sgad_caption_angles(params: SGADParams) -> dict[str, float]:
    """Knob angles theta_i with rate = cos^2(theta_i) for each of the four rates."""
    return {
        name: math.acos(min(1.0, math.sqrt(getattr(params, attr))))
        for name, attr in (("theta1", "alpha"), ("theta2", "beta"), ("theta3", "mu"), ("theta4", "nu"))
    }


def _channel_layers(params, theta1: float, convention: str):
    """(register, layers, stages) of one family's preparation plus evolve lattice.

    ``params`` is one parameter record or a ParamStack; a stacked field gives
    stacked angles wherever it enters.
    """
    family = params.family if isinstance(params, ParamStack) else type(params)
    if family is PauliParams:
        return _pauli_layers(params, theta1)
    register = channel_register()
    if family is DephasingParams:
        alpha2_sq = 1.0
        lattice = _dephasing_layers(register, params.p)
    elif family is GADParams:
        alpha2_sq = params.alpha2_sq
        sp, sq = np.sqrt(params.p), np.sqrt(1 - params.p)
        lattice = _pair_swap_layers(register, {
            "00": ModeTransition(1.0, 0.0),
            "10": ModeTransition(sq, sp),
            "01": ModeTransition(sq, sp),
            "11": ModeTransition(1.0, 0.0),
        })
    elif family is SGADParams:
        alpha2_sq = params.alpha2_sq
        lattice = _pair_swap_layers(register, {
            "00": ModeTransition(np.sqrt(1 - params.alpha), np.sqrt(params.alpha), -params.phi),
            "10": ModeTransition(np.sqrt(1 - params.beta), np.sqrt(params.beta)),
            "01": ModeTransition(np.sqrt(1 - params.mu), np.sqrt(params.mu), -params.lam),
            "11": ModeTransition(np.sqrt(1 - params.nu), np.sqrt(params.nu)),
        })
    else:
        raise InvalidArgument(f"unknown channel parameter type {family.__name__}")

    prep = ProductStateParams(theta1, _theta2_for_weight(alpha2_sq, convention), convention)
    layers = _preparation_layers(*prep.amplitudes(), register)
    stages = ["prepare"] * len(layers) + ["evolve"] * len(lattice)
    return register, layers + lattice, stages


def _lattice_metadata(params: ChannelParams, theta1: float, convention: str) -> dict:
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
                "caption_theta": dephasing_caption_angle(params.p)}
    elif isinstance(params, GADParams):
        alpha2_sq = params.alpha2_sq
        meta = {"channel": "gad", "p": params.p, "alpha2_sq": params.alpha2_sq,
                "caption_theta": gad_caption_angle(params.p)}
    else:
        alpha2_sq = params.alpha2_sq
        meta = {"channel": "sgad", "alpha2_sq": params.alpha2_sq,
                **{k: getattr(params, k) for k in ("alpha", "beta", "mu", "nu", "phi", "lam")},
                **sgad_caption_angles(params)}
    meta.update({"theta1": theta1, "convention": convention, "alpha2_sq_prep": alpha2_sq})
    return meta


def build_channel_lattice(
    params: ChannelParams,
    *,
    theta1: float = math.pi / 2,
    convention: str = "half-angle",
) -> CircuitSpec:
    """Preparation plus evolve lattice for one of the two-qubit channels.

    theta1 sets the system preparation rotation; the environment rotation is
    dictated by the channel's bath weights (ground state for dephasing).
    """
    register, layers, stages = _channel_layers(params, theta1, convention)
    return CircuitSpec(register, layers, stages, _lattice_metadata(params, theta1, convention))


def _theta2_for_weight(alpha2_sq, convention: str):
    """Preparation angle whose environment ground weight is alpha2_sq."""
    a2 = np.sqrt(np.clip(alpha2_sq, 0.0, 1.0))
    if convention == "half-angle":
        return 2.0 * np.arccos(a2)
    return np.arcsin(a2)


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
    params = PauliParams(p, q1, q2, q3)
    register, layers, stages = _pauli_layers(params, prep_theta)
    meta = _lattice_metadata(params, prep_theta, "half-angle")
    return CircuitSpec(register, layers, stages, meta)


def _pauli_layers(params, prep_theta: float):
    """(register, layers, stages) of the Pauli lattice.

    The evolve stage splits each of the two H-polarized input modes into its
    stay amplitude and three double-flip transitions, one sqrt(p q_i) branch
    per round; signs and the i factors ride on the tag phases.
    """
    prep_theta = finite_values("prep_theta", prep_theta)
    t1, t2, t3 = pauli_caption_angles(params.p, params.q1, params.q2, params.q3)
    register = pauli_register()
    pol = polarization_wire(register).index
    s, r1, r2 = (w.index for w in path_wires(register))

    a, b = math.cos(prep_theta / 2), math.sin(prep_theta / 2)
    layers = [
        (GatePlacement("local-u3", (pol,), U3Params(2 * math.atan2(b, a), 0.0, math.pi)),),
        (GatePlacement("cnot-pol-path", (pol, s)),),
        (GatePlacement("path-conditioned-u3", (pol,), _X, "1**"),),
    ]
    stages = ["prepare"] * len(layers)

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

    stages += ["evolve"] * (len(layers) - len(stages))
    return register, layers, stages


# -- batched lattices --------------------------------------------------------------

BLOCK_SIZE = 64  # points composed together; stack memory follows it, not the sweep length


def _is_stacked(placement: GatePlacement) -> bool:
    u = placement.params
    return u is not None and any(np.ndim(a) for a in (u.theta, u.phi, u.lam))


def _block_placement(placement: GatePlacement, start: int, stop: int) -> GatePlacement:
    """The placement at points start..stop-1 of its stacked angles."""
    if not _is_stacked(placement):
        return placement
    u = placement.params
    angles = (a[start:stop] if np.ndim(a) else a for a in (u.theta, u.phi, u.lam))
    return GatePlacement(placement.kind, placement.wires, U3Params(*angles), placement.condition)


def _first_failure(bad: np.ndarray, start: int, message) -> None:
    """Raise InvalidState for the first flagged point, ``message(i)`` describing it."""
    if np.any(bad):
        i = int(np.argmax(bad))
        raise InvalidState(f"point {start + i}: {message(i)}")


class ChannelLattices:
    """The lattices of one channel family over a sequence of parameter points.

    The layer recipes run once, on the points' stacked angles (half-angle
    convention, as in build_channel_lattice's default). Each run of layers
    whose angles agree at every point is composed here, once; the layers
    whose angles vary are built and composed per block of points.
    """

    def __init__(self, points: Sequence[ChannelParams], *, theta1: float = math.pi / 2):
        self.params = ParamStack(points)
        self.theta1 = theta1
        self.register, layers, _ = _channel_layers(self.params, theta1, "half-angle")
        _check_disjoint(self.register, layers)
        self._segments = []  # a composed constant run (an ndarray), or one stacked layer
        run = []
        for layer in layers:
            if not any(_is_stacked(p) for p in layer):
                run.append(layer)
                continue
            if run:
                self._segments.append(_compose(self.register, run))
                run = []
            self._segments.append(layer)
        if run:
            self._segments.append(_compose(self.register, run))

    def __len__(self) -> int:
        return len(self.params)

    def metadata(self, i: int) -> dict:
        """The metadata build_channel_lattice gives point i's lattice."""
        return _lattice_metadata(self.params.points[i], self.theta1, "half-angle")

    def unitaries(self, start: int, stop: int) -> np.ndarray:
        """Composed lattice unitaries of points start..stop-1, shape (stop - start, d, d)."""
        out = None
        for seg in self._segments:
            if not isinstance(seg, np.ndarray):
                seg = _compose(self.register, [[_block_placement(p, start, stop) for p in seg]])
            out = seg if out is None else seg @ out
        return np.broadcast_to(out, (stop - start,) + out.shape[-2:])

    def system_states(self, start: int, stop: int) -> np.ndarray:
        """Reduced system states of points start..stop-1, shape (stop - start, 2, 2),
        after each lattice acts on the initial photon.

        Each point gets the checks of the per-point path: the composed
        unitarity residual, the evolved state's norm, the joint density and
        the traced density (Hermiticity and trace).
        """
        u = self.unitaries(start, stop)
        res = unitarity_residual(u)
        _first_failure(res > structural_atol(), start,
                       lambda i: f"layer composition unitarity residual {res[i]:.3e}")
        psi = u[..., 0]  # the initial photon |0...0> is the first basis vector
        norm_dev = np.abs(np.linalg.norm(psi, axis=-1) - 1.0)
        _first_failure(norm_dev > ATOL_ARITHMETIC, start,
                       lambda i: f"state norm deviates from 1 by {norm_dev[i]:.3e}")
        check_densities(psi[:, :, None] * psi[:, None, :].conj(), first_index=start)
        amps = psi.reshape(len(psi), 2, -1)  # system wire first, the rest traced out
        rho = amps @ dagger(amps)
        check_densities(rho, eig_atol=None, first_index=start)
        return rho


@dataclass(frozen=True)
class SweepBlock:
    """Lattice and Kraus outputs of consecutive points of a sweep."""

    start: int  # index of the block's first point in the sweep
    params: list  # each point's lattice metadata
    lattice: np.ndarray  # (b, 2, 2) system states from the lattices
    kraus: np.ndarray  # (b, 2, 2) Kraus-route outputs on the prepared qubit
    deviation: np.ndarray  # (b,) largest entrywise gap between the two
    labels: tuple[str, ...]  # the Kraus operators' labels


def channel_sweep(
    points: Sequence[ChannelParams], *, theta1: float = math.pi / 2
) -> Iterator[SweepBlock]:
    """Send the qubit prepared by theta1 through each point's lattice and
    through its Kraus set, BLOCK_SIZE points at a time.

    Every point is validated, and its Kraus completeness checked, before this
    returns; the lattice and output checks run as each block is computed.
    """
    lattices = ChannelLattices(points, theta1=theta1)
    ops, labels = kraus_stack(lattices.params)
    a1, b1, _, _ = ProductStateParams(theta1, 0.0).amplitudes()
    rho_in = np.array([[a1 * a1, a1 * b1], [a1 * b1, b1 * b1]], dtype=complex)

    def blocks():
        for start in range(0, len(lattices), BLOCK_SIZE):
            stop = min(start + BLOCK_SIZE, len(lattices))
            lattice = lattices.system_states(start, stop)
            kraus = apply_operators(rho_in, ops[start:stop])
            check_densities(kraus, first_index=start)
            deviation = np.max(np.abs(lattice - kraus), axis=(-2, -1))
            meta = [lattices.metadata(i) for i in range(start, stop)]
            yield SweepBlock(start, meta, lattice, kraus, deviation, labels)

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


@dataclass(frozen=True)
class TransitionMaps:
    """Path-mode maps of an evolve stage, split by input polarization class."""

    h_map: np.ndarray
    v_map: np.ndarray
    cross_leakage: float


def channel_transition_maps(circuit: CircuitSpec) -> TransitionMaps:
    """Extract the per-polarization path maps of a 3-qubit channel lattice.

    Cross leakage is measured on the populated columns only: preparation
    leaves environment-ground modes H-polarized and environment-excited
    modes V-polarized, and those inputs must keep their class. Unpopulated
    input slots may mix freely; unitarity of the lattice demands it.
    """
    if circuit.n_wires != 3:
        raise InvalidArgument("transition maps are defined for the 3-qubit channel lattices")
    w = stage_unitary(circuit, "evolve")
    # basis index 4s + 2e + pol
    h_idx = [0b000, 0b010, 0b100, 0b110]  # modes 00,01,10,11 with H
    v_idx = [i | 1 for i in h_idx]
    h_map = w[np.ix_(h_idx, h_idx)]
    v_map = w[np.ix_(v_idx, v_idx)]
    populated_h = [0b000, 0b100]  # e=0 modes arrive H
    populated_v = [0b011, 0b111]  # e=1 modes arrive V
    leak = max(
        float(np.max(np.abs(w[np.ix_(v_idx, populated_h)]))),
        float(np.max(np.abs(w[np.ix_(h_idx, populated_v)]))),
    )
    return TransitionMaps(h_map, v_map, leak)


def channel_unitary(circuit: CircuitSpec) -> np.ndarray:
    """Joint system-environment map read off the lattice.

    Environment-ground inputs live in the H sector, environment-excited
    inputs in the V sector; columns are taken from the matching sector.
    The result is column-isometric, as kraus_from_unitary requires.
    """
    maps = channel_transition_maps(circuit)
    out = np.zeros((4, 4), dtype=complex)
    for col in range(4):
        source = maps.h_map if col % 2 == 0 else maps.v_map
        out[:, col] = source[:, col]
    return out


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
    by twice its mount angle. This is the GAD lattice in the experimental
    convention with amplitudes cos/sin of 2 theta1, bath ground weight
    sin^2(2 theta2) and p = sin^2(2 theta3); theta3 = pi/2 leaves the
    product state untouched. Polarization is traced out of the result.
    """
    for name, v in (("theta1", theta1), ("theta2", theta2), ("theta3", theta3)):
        if not math.isfinite(2 * v):  # math.sin of an infinite angle raises ValueError
            raise InvalidArgument(f"{name} must be finite when doubled, got {v}")
    params = GADParams(math.sin(2 * theta3) ** 2, math.sin(2 * theta2) ** 2)
    lattice = build_channel_lattice(params, theta1=2 * theta1, convention="experimental")
    joint = traced_joint_state(evolve(initial_state(lattice), lattice))
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
