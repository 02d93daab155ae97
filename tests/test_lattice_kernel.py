"""The lattice kernel (``circuit._chain``) against the per-placement product.

The reference builds every placement matrix on its own, with ``embed``,
``controlled_on_path`` and ``cnot_pol_path``, and multiplies them in layer
order, as lattices were composed before the kernel. Matrices must agree bit
for bit, and invalid wirings must fail with the same error type and message.
"""

import json

import numpy as np
import pytest

from krausloom import circuit as circuit_mod
from krausloom.channels import DephasingParams, GADParams, ParamStack, PauliParams, SGADParams
from krausloom.circuit import (
    CircuitSpec,
    GatePlacement,
    ProductStateParams,
    build_channel_lattice,
    circuit_from_payload,
    circuit_to_payload,
    circuit_unitary,
    gad_experiment,
    placement_matrix,
    preparation_circuit,
    stage_unitary,
    traced_joint_state,
)
from krausloom.errors import InvalidArgument, InvalidState, InvalidWiring, KrausloomError
from krausloom.gates import (
    Role,
    U3Params,
    cnot_pol_path,
    controlled_on_path,
    embed,
    make_register,
    path_wires,
    u3,
)
from krausloom.qmath import PureState


def reference_matrix(placement, register):
    n = len(register)
    if any(w >= n for w in placement.wires):
        raise InvalidArgument(f"placement wires {placement.wires} exceed register size {n}")
    if placement.kind == "local-u3":
        return embed(u3(placement.params), placement.wires[0], n)
    if placement.kind == "cnot-pol-path":
        control, target = placement.wires
        return cnot_pol_path(register[control], register[target], n)
    return controlled_on_path(u3(placement.params), placement.condition, register)


def reference_check_disjoint(register, layers):
    for layer in layers:
        seen = set()
        for p in layer:
            acted = set(p.wires)
            if p.kind == "path-conditioned-u3":
                acted = {p.wires[0]} | {
                    w.index for ch, w in zip(p.condition, path_wires(register)) if ch != "*"
                }
            if acted & seen:
                raise InvalidArgument("placements within a layer must act on disjoint wires")
            seen |= acted


def reference_compose(register, layers):
    reference_check_disjoint(register, layers)
    out = None
    for layer in layers:
        for placement in layer:
            m = reference_matrix(placement, register)
            out = m if out is None else m @ out
    return np.eye(2 ** len(register), dtype=complex) if out is None else out


def evolve_placements(params):
    """(register, evolve layers, environment ground weight) of one family's
    lattice, its placements holding the recipe's angle table: a stacked field
    gives stacked angles wherever it enters."""
    recipe = circuit_mod._recipe_of(params)
    rotations = map(U3Params, *np.moveaxis(circuit_mod._angles(recipe, params), -1, 1))
    layers = [tuple(GatePlacement(kind, wires, None if kind == "cnot-pol-path" else next(rotations),
                                  condition) for kind, wires, condition in layer)
              for layer in recipe.layers]
    return recipe.register, layers, recipe.weight(params)


def kernel(register, layers):
    """The kernel on layers of placements, read into a wiring and a table."""
    return circuit_mod._chain(register, *circuit_mod._read_layers(layers))


def assert_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def random_point(rng, family):
    u = rng.uniform
    if family == "dephasing":
        return DephasingParams(u())
    if family == "gad":
        return GADParams(u(), u())
    if family == "sgad":
        return SGADParams(u(), u(), u(), u(), u(0, 2 * np.pi), u(0, 2 * np.pi), u())
    lo, hi = sorted(u(size=2))
    return PauliParams(u(), lo, hi - lo, 1.0 - hi)


FAMILIES = ("dephasing", "gad", "sgad", "pauli")


def lattice_of(params, theta1):
    return build_channel_lattice(params, theta1=theta1)


class TestAgainstPerPlacementProduct:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_family_lattice(self, family):
        rng = np.random.default_rng(len(family))
        for _ in range(25):
            # the experimental amplitudes cos/sin theta1 are the half-angle ones at 2 theta1
            theta1 = rng.uniform(0, np.pi)
            for angle in (theta1,) if family == "pauli" else (theta1, 2 * theta1):
                lattice = lattice_of(random_point(rng, family), angle)
                assert_bits(lattice.unitary, reference_compose(lattice.register, lattice.layers))
                for stage in ("prepare", "evolve"):
                    layers = [l for l, s in zip(lattice.layers, lattice.stages) if s == stage]
                    assert_bits(stage_unitary(lattice, stage),
                                reference_compose(lattice.register, layers))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_lattice_corners(self, family):
        # the boundary values where recipes clip angles or skip branches
        corners = {
            "dephasing": [DephasingParams(p) for p in (0.0, 1.0)],
            "gad": [GADParams(p, a) for p in (0.0, 1.0) for a in (0.0, 1.0)],
            "sgad": [SGADParams(x, x, x, x, 0.0, np.pi, a) for x in (0.0, 1.0) for a in (0.0, 1.0)],
            "pauli": [PauliParams(1.0, 1.0, 0.0, 0.0), PauliParams(0.0, 0.0, 0.0, 1.0),
                      PauliParams(0.5, 0.0, 1.0, 0.0)],
        }[family]
        for params in corners:
            for theta1 in (0.0, np.pi / 2, np.pi):
                lattice = lattice_of(params, theta1)
                assert_bits(lattice.unitary, reference_compose(lattice.register, lattice.layers))

    def test_preparation_circuit(self):
        rng = np.random.default_rng(11)
        for convention in ("half-angle", "experimental"):
            for theta1, theta2 in list(rng.uniform(-7, 7, size=(30, 2))) + [(0.0, 0.0), (np.pi, np.pi)]:
                circ = preparation_circuit(ProductStateParams(theta1, theta2, convention))
                assert_bits(circ.unitary, reference_compose(circ.register, circ.layers))

    def test_gad_experiment(self):
        # the evolve stage on the encoded system qubit (cos 2 t1, sin 2 t1)
        rng = np.random.default_rng(12)
        for angles in [circuit_mod.REFERENCE_GAD_ANGLES] + list(rng.uniform(0, np.pi, size=(20, 3))):
            t1, t2, t3 = (float(a) for a in angles)
            params = GADParams(np.sin(2 * t3) ** 2, np.sin(2 * t2) ** 2)
            register, layers, alpha2_sq = evolve_placements(params)
            u = reference_compose(register, layers)
            cols = circuit_mod._encode(np.eye(2), alpha2_sq, len(register)) @ u.T
            psi = PureState(np.array([np.cos(2 * t1), np.sin(2 * t1)]) @ cols, (2, 2, 2))
            assert_bits(gad_experiment(t1, t2, t3).matrix, traced_joint_state(psi).matrix)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("size", [1, 5, 64])
    def test_stacked_blocks(self, family, size):
        rng = np.random.default_rng(size)
        points = [random_point(rng, family) for _ in range(size + 3)]
        theta1 = rng.uniform(0, np.pi)
        start, stop = 2, 2 + size
        block = ParamStack(points[start:stop])
        register, layers, alpha2_sq = evolve_placements(block)
        recipe = circuit_mod._recipe_of(block)
        angles = circuit_mod._angles(recipe, block)
        d = 2 ** len(register)
        # every field holds one value per point, so even one point stacks
        assert angles.ndim == 3
        # the kernel on every layer of the table, and on the whole block lattice at once
        at = 0
        for wiring, layer in zip(recipe.layers, layers):
            count = sum(kind != "cnot-pol-path" for kind, _, _ in wiring)
            got = circuit_mod._chain(register, [wiring], angles[..., at:at + count])
            at += count
            assert_bits(got, reference_compose(register, [layer]))
        u = reference_compose(register, layers)
        assert u.shape == (size, d, d)
        assert_bits(circuit_mod._chain(register, recipe.layers, angles), u)
        # the block's outputs come from those unitaries, composed in one run
        system_input = circuit_mod._qubit_amplitudes("theta1", theta1)
        inputs = circuit_mod._encode(np.eye(2), np.reshape(alpha2_sq, (-1, 1)), len(register))
        cols = np.broadcast_to(inputs, (size, 2, d)) @ np.broadcast_to(u, (size, d, d)).swapaxes(-1, -2)
        psi = system_input @ cols
        _, _, joint = circuit_mod.lattice_block(block, system_input, None, first_index=start)[:3]
        assert_bits(joint, psi[:, :, None] * psi[:, None, :].conj())

    def test_random_circuit_files(self, tmp_path):
        rng = np.random.default_rng(13)
        for k in range(150):
            payload = random_circuit_payload(rng)
            path = tmp_path / f"c{k}.json"
            path.write_text(json.dumps(payload))
            circ = circuit_from_payload(json.loads(path.read_text()))
            assert_bits(circ.unitary, reference_compose(circ.register, circ.layers))
            again = circuit_from_payload(circuit_to_payload(circ))
            assert_bits(again.unitary, circ.unitary)
            for stage in ("prepare", "evolve", "project"):
                layers = [l for l, s in zip(circ.layers, circ.stages) if s == stage]
                assert_bits(stage_unitary(circ, stage), reference_compose(circ.register, layers))
                through = [l for l, s in zip(circ.layers, circ.stages)
                           if s in circuit_mod.STAGES[:circuit_mod.STAGES.index(stage) + 1]]
                assert_bits(np.asarray(circuit_unitary(circ, stage)),
                            reference_compose(circ.register, through))

    def test_long_circuit_goes_through_in_runs(self):
        rng = np.random.default_rng(17)
        payload = random_circuit_payload(rng)
        while len(payload["register"]) != 4:
            payload = random_circuit_payload(rng)
        for _ in range(40):
            payload["layers"] += random_circuit_payload(rng, payload["register"])["layers"]
        payload["stages"] = ["evolve"] * len(payload["layers"])
        circ = circuit_from_payload(payload)
        most = circuit_mod.KERNEL_BYTES // (16 * circ.dim**2)
        runs = list(circuit_mod._layer_runs(circ.wiring, most))
        assert len(runs) > 2
        assert all(sum(map(len, run)) <= most for run in runs)
        assert [layer for run in runs for layer in run] == list(circ.wiring)
        assert_bits(circ.unitary, reference_compose(circ.register, circ.layers))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_sweep_block_scatters_stay_within_kernel_bytes(self, family, monkeypatch):
        # a block of BLOCK_SIZE points holds BLOCK_SIZE matrices per placement
        rng = np.random.default_rng(18)
        block = ParamStack([random_point(rng, family) for _ in range(circuit_mod.BLOCK_SIZE)])
        register, layers, _ = evolve_placements(block)
        placement_stack, written = circuit_mod._placement_stack, []

        def recording(*args):
            mats = placement_stack(*args)
            written.append(mats.nbytes)
            return mats

        monkeypatch.setattr(circuit_mod, "_placement_stack", recording)
        assert_bits(table_kernel(block), reference_compose(register, layers))
        assert written and max(written) <= circuit_mod.KERNEL_BYTES

    def test_placement_matrix_is_the_one_placement_case(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            payload = random_circuit_payload(rng)
            circ = circuit_from_payload(payload)
            for layer in circ.layers:
                for p in layer:
                    got = placement_matrix(p, circ.register)
                    assert_bits(np.ascontiguousarray(got), reference_matrix(p, circ.register))
                    got[0, 0] = 7.0  # a fresh, writable matrix, even for a CNOT

    def test_empty_circuit_is_the_identity(self):
        register = make_register("system-path", "polarization")
        circ = CircuitSpec(register, [(), ()], ["evolve", "evolve"])
        assert_bits(circ.unitary, np.eye(4, dtype=complex))


def random_circuit_payload(rng, roles=None):
    """A valid circuit file: 2-4 wires, polarization anywhere, disjoint layers."""
    if roles is None:
        n = int(rng.integers(2, 5))
        pol = int(rng.integers(n))
        roles = [Role.POLARIZATION.value if w == pol else
                 str(rng.choice([Role.SYSTEM_PATH.value, Role.ENVIRONMENT_PATH.value,
                                 Role.RESERVOIR_PATH.value]))
                 for w in range(n)]
    n, pol = len(roles), roles.index(Role.POLARIZATION.value)
    paths = [w for w in range(n) if w != pol]
    layers = []
    for _ in range(int(rng.integers(0, 9))):
        layer, used = [], set()
        for _ in range(int(rng.integers(1, 4))):
            kind = str(rng.choice(circuit_mod.GATE_KINDS))
            angles = {"theta": float(rng.uniform(-10, 10)), "phi": float(rng.uniform(-10, 10)),
                      "lambda": float(rng.uniform(-10, 10))}
            if kind == "local-u3":
                wire = int(rng.integers(n))
                entry, acted = {"kind": kind, "wires": [wire], **angles}, {wire}
            elif kind == "cnot-pol-path":
                target = int(rng.choice(paths))
                entry, acted = {"kind": kind, "wires": [pol, target]}, {pol, target}
            else:
                condition = "".join(rng.choice(list("01*"), size=len(paths)))
                acted = {pol} | {w for ch, w in zip(condition, paths) if ch != "*"}
                entry = {"kind": kind, "wires": [pol], "condition": condition, **angles}
            if acted & used:
                continue
            used |= acted
            layer.append(entry)
        layers.append(layer)
    stages = [str(rng.choice(circuit_mod.STAGES)) for _ in layers]
    return {"register": roles, "layers": layers, "stages": stages}


SYS, ENV, POL = Role.SYSTEM_PATH, Role.ENVIRONMENT_PATH, Role.POLARIZATION
REG = make_register(SYS, ENV, POL)
X = U3Params(np.pi, 0.0, np.pi)

BAD_LAYERS = {
    "cnot control not polarization": [(GatePlacement("cnot-pol-path", (0, 1)),)],
    "cnot target not a path wire": [(GatePlacement("cnot-pol-path", (2, 2)),)],
    "wire beyond the register": [(GatePlacement("local-u3", (3,), X),)],
    "negative wire": [(GatePlacement("local-u3", (-1,), X),)],
    "cnot wire beyond the register": [(GatePlacement("cnot-pol-path", (2, 5)),)],
    "condition too short": [(GatePlacement("path-conditioned-u3", (2,), X, "1"),)],
    "condition too long": [(GatePlacement("path-conditioned-u3", (2,), X, "1*0"),)],
    "condition character": [(GatePlacement("path-conditioned-u3", (2,), X, "1x"),)],
    "overlapping placements": [(GatePlacement("local-u3", (0,), X),
                                GatePlacement("path-conditioned-u3", (2,), X, "1*"))],
    "overlap before a bad wire": [(GatePlacement("cnot-pol-path", (2, 0)),),
                                  (GatePlacement("local-u3", (7,), X), GatePlacement("local-u3", (7,), X))],
    "bad condition after good layers": [(GatePlacement("local-u3", (0,), X),),
                                   (GatePlacement("cnot-pol-path", (2, 0)),),
                                   (GatePlacement("path-conditioned-u3", (2,), X, "01*"),)],
}


class TestInvalidWirings:
    @pytest.mark.parametrize("case", sorted(BAD_LAYERS))
    def test_same_error_as_the_per_placement_product(self, case):
        layers = BAD_LAYERS[case]
        with pytest.raises(KrausloomError) as want:
            reference_compose(REG, layers)
        for build in (lambda: CircuitSpec(REG, layers, ["evolve"] * len(layers)),
                      lambda: kernel(REG, layers)):
            with pytest.raises(KrausloomError) as got:
                build()
            assert type(got.value) is type(want.value)
            assert str(got.value) == str(want.value)

    def test_error_types(self):
        for case, error in [("cnot control not polarization", InvalidWiring),
                            ("cnot target not a path wire", InvalidWiring),
                            ("condition too short", InvalidWiring),
                            ("condition character", InvalidArgument),
                            ("wire beyond the register", InvalidArgument),
                            ("negative wire", InvalidArgument),
                            ("overlapping placements", InvalidArgument)]:
            with pytest.raises(error):
                CircuitSpec(REG, BAD_LAYERS[case], ["evolve"] * len(BAD_LAYERS[case]))

    def test_single_bad_placement(self):
        for case in ("cnot control not polarization", "wire beyond the register", "condition character"):
            (placement,) = BAD_LAYERS[case][0]
            with pytest.raises(KrausloomError) as want:
                reference_matrix(placement, REG)
            with pytest.raises(KrausloomError) as got:
                placement_matrix(placement, REG)
            assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))

    @pytest.mark.parametrize("layers, error, message", [
        ([(GatePlacement("cnot-pol-path", (-1, 0)),)], InvalidArgument,
         "placement wires (-1, 0) must be nonnegative"),
        ([(GatePlacement("cnot-pol-path", (2, -3)),)], InvalidArgument,
         "placement wires (2, -3) must be nonnegative"),
        ([(GatePlacement("path-conditioned-u3", (0,), X, "*1"),)], InvalidWiring,
         "path-conditioned-u3 must target the polarization wire, got wire 0"),
        ([(GatePlacement("path-conditioned-u3", (-1,), X, "1*"),)], InvalidWiring,
         "path-conditioned-u3 must target the polarization wire, got wire -1"),
    ], ids=["cnot-control-minus-1", "cnot-target-minus-3", "rotation-on-path", "rotation-on-minus-1"])
    def test_wires_the_composition_would_not_act_on(self, layers, error, message):
        # the per-placement product accepts these: register[-1] is the
        # polarization wire, and controlled_on_path ignores the wires entry
        reference_compose(REG, layers)
        for build in (lambda: CircuitSpec(REG, layers, ["evolve"] * len(layers)),
                      lambda: kernel(REG, layers)):
            with pytest.raises(KrausloomError) as got:
                build()
            assert (type(got.value), str(got.value)) == (error, message)

    def test_bad_wiring_is_not_cached(self):
        layers = BAD_LAYERS["cnot control not polarization"]
        for _ in range(3):
            with pytest.raises(InvalidWiring):
                CircuitSpec(REG, layers, ["evolve"])


class TestWiringCache:
    def test_bounded(self):
        maxsize = circuit_mod._wiring.cache_info().maxsize
        assert maxsize is not None
        rng = np.random.default_rng(15)
        wirings = set()
        while len(wirings) < 2 * maxsize:
            wires = tuple(int(w) for w in rng.integers(0, 2, size=9))
            wirings.add(wires)
        for wires in wirings:
            CircuitSpec(REG, [(GatePlacement("local-u3", (w,), X),) for w in wires], ["evolve"] * 9)
            assert circuit_mod._wiring.cache_info().currsize <= maxsize
        assert circuit_mod._wiring.cache_info().currsize == maxsize

    def test_constants_are_read_only(self):
        lattice = build_channel_lattice(GADParams(0.3, 0.6))
        sizes = tuple(len(layer) for layer in lattice.wiring)
        slots = tuple(slot for layer in lattice.wiring for slot in layer)
        for arr in circuit_mod._wiring(lattice.register, sizes, slots):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_one_entry_per_wiring_not_per_angle(self):
        rng = np.random.default_rng(16)
        build_channel_lattice(GADParams(0.2, 0.4))
        before = circuit_mod._wiring.cache_info()
        for _ in range(50):
            build_channel_lattice(GADParams(rng.uniform(), rng.uniform()), theta1=rng.uniform(0, 3))
        after = circuit_mod._wiring.cache_info()
        assert after.currsize == before.currsize
        assert after.misses == before.misses and after.hits == before.hits + 50


def test_composition_keeps_its_unitarity_check(monkeypatch):
    monkeypatch.setattr(circuit_mod, "unitarity_residual", lambda u: 1.0)
    with pytest.raises(InvalidState, match="^layer composition unitarity residual 1.000e"):
        build_channel_lattice(DephasingParams(0.3))


# -- recipes as angle tables ------------------------------------------------------

EDGE_P = (0.0, 1e-300, 1e-17, 0.5, 1.0 - 1e-16, 1.0)
EDGE_PHASE = (0.0, np.pi, -np.pi, 2 * np.pi - 1e-15)


def edge_points(family):
    """Boundary values where square roots vanish, tags clip or phases wrap."""
    if family == "dephasing":
        return [DephasingParams(p) for p in EDGE_P]
    if family == "gad":
        return [GADParams(p, a) for p in EDGE_P for a in (0.0, 0.4, 1.0)]
    if family == "sgad":
        return ([SGADParams(p, 0.3, 1.0 - p, p, 0.7, 1.9, 0.4) for p in EDGE_P]
                + [SGADParams(0.3, 0.6, 0.2, 0.9, phi, lam, 0.4)
                   for phi in EDGE_PHASE for lam in EDGE_PHASE])
    return ([PauliParams(p, 0.3, 0.5, 0.2) for p in EDGE_P]
            + [PauliParams(0.4, q1, q2, q3) for q1, q2, q3 in
               ((0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0))])


def table_kernel(params):
    """The lattice kernel on the recipe's wiring and angle table, no placements."""
    recipe = circuit_mod._recipe_of(params)
    return circuit_mod._chain(recipe.register, recipe.layers, circuit_mod._angles(recipe, params))


class TestAngleTables:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_one_point_equals_the_placement_product(self, family):
        rng = np.random.default_rng(21)
        for params in edge_points(family) + [random_point(rng, family) for _ in range(20)]:
            register, layers, _ = evolve_placements(params)
            want = reference_compose(register, layers)
            assert_bits(table_kernel(params), want)
            assert_bits(table_kernel(ParamStack([params])), want[None])

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("size", [5, 64])
    def test_stacks_equal_the_placement_product(self, family, size):
        rng = np.random.default_rng(22 + size)
        points = (edge_points(family) + [random_point(rng, family) for _ in range(size)])[:size]
        block = ParamStack(points)
        register, layers, _ = evolve_placements(block)
        want = reference_compose(register, layers)
        assert want.shape == (size,) + (2 ** len(register),) * 2
        assert_bits(table_kernel(block), want)
        for i, params in enumerate(points):  # each stacked point is its one-point unitary
            assert_bits(want[i], table_kernel(params))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_table_is_reduced_and_placements_keep_it(self, family):
        rng = np.random.default_rng(23)
        block = ParamStack(edge_points(family) + [random_point(rng, family) for _ in range(5)])
        recipe = circuit_mod._recipe_of(block)
        angles = circuit_mod._angles(recipe, block)
        assert angles.shape == (3, len(block), recipe.rotations)
        assert np.all((angles >= 0) & (angles < 2 * np.pi))
        for params in block.points[:8]:
            # a lattice's table ends in the recipe's, and its placements hold every column
            lattice = build_channel_lattice(params, theta1=1.1)
            assert_bits(lattice.angles[:, -recipe.rotations:], circuit_mod._angles(recipe, params))
            rotations = [p.params for layer in lattice.layers for p in layer if p.params is not None]
            assert len(rotations) == lattice.angles.shape[1]
            for u, column in zip(rotations, lattice.angles.T):
                assert_bits(np.array([u.theta, u.phi, u.lam]), column)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_lattice_outputs_builds_no_placement_objects(self, family, monkeypatch):
        rng = np.random.default_rng(24)
        params = random_point(rng, family)
        circuit_mod._wiring(*wiring_key(params))  # a first use may build the wiring

        def never(self):
            raise AssertionError(f"built a {type(self).__name__}")

        # nor does a lattice or a preparation built as a CircuitSpec
        monkeypatch.setattr(GatePlacement, "__post_init__", never)
        monkeypatch.setattr(U3Params, "__post_init__", never)
        system_input = circuit_mod._qubit_amplitudes("theta1", 1.1)
        circuit_mod.lattice_block(ParamStack([params]), system_input, None, first_index=0)[:3]
        for _ in circuit_mod.channel_sweep([params, params], theta1=1.1):
            pass
        build_channel_lattice(params, theta1=1.1)
        preparation_circuit(ProductStateParams(1.1, 0.4))

    def test_pauli_block_through_lattice_outputs_stays_within_kernel_bytes(self, monkeypatch):
        rng = np.random.default_rng(25)
        block = ParamStack([random_point(rng, "pauli") for _ in range(circuit_mod.BLOCK_SIZE)])
        placement_stack, written = circuit_mod._placement_stack, []

        def recording(*args):
            mats = placement_stack(*args)
            written.append(mats.nbytes)
            return mats

        monkeypatch.setattr(circuit_mod, "_placement_stack", recording)
        system_input = circuit_mod._qubit_amplitudes("theta1", 1.1)
        _, _, joint = circuit_mod.lattice_block(block, system_input, None, first_index=0)[:3]
        assert len(joint) == circuit_mod.BLOCK_SIZE
        assert written and max(written) <= circuit_mod.KERNEL_BYTES

    def test_pauli_knob_angles_once_per_point(self, monkeypatch):
        points = [PauliParams(p, 0.3, 0.5, 0.2) for p in (0.1, 0.4, 0.8)]
        calls = []
        caption_angles = circuit_mod.pauli_caption_angles

        def counting(*args):
            calls.append(args)
            return caption_angles(*args)

        monkeypatch.setattr(circuit_mod, "pauli_caption_angles", counting)
        (block,) = circuit_mod.channel_sweep(points)
        # the metadata's, once per point; the program reads the stack's fields
        # in one call, and never a point's knob angles
        assert [args for args in calls if not np.ndim(args[0])] == [
            (p.p, p.q1, p.q2, p.q3) for p in points]
        assert [[a.tolist() for a in args] for args in calls if np.ndim(args[0])] == [
            [[getattr(p, name) for p in points] for name in ("p", "q1", "q2", "q3")]]
        assert [meta["caption_theta"] for meta in block.params] == [
            [float(t) for t in caption_angles(p.p, p.q1, p.q2, p.q3)] for p in points]
        calls.clear()
        build_channel_lattice(points[0])
        assert sum(not np.ndim(args[0]) for args in calls) == 1


def wiring_key(params):
    recipe = circuit_mod._recipe_of(params)
    return (recipe.register, tuple(map(len, recipe.layers)),
            tuple(slot for layer in recipe.layers for slot in layer))
