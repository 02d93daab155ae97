"""The batched channel engine against the per-point path it replaces in sweeps.

Every point of a ``channel_sweep`` must equal ``build_channel_lattice`` ->
``evolve`` -> ``traced_system_state`` on the lattice side and ``kraus_apply``
on the Kraus side, and its Choi matrices must equal the ones computed, entry
by entry, from the lattice's evolve stage on encoded basis inputs and from
the Kraus operators.
"""

import dataclasses
import gc
import weakref

import numpy as np
import pytest
from test_acceptance import _channel_grid

from krausloom import circuit
from krausloom.channels import (
    DephasingParams,
    GADParams,
    ParamStack,
    PauliParams,
    SGADParams,
    channel_kraus,
    kraus_apply,
    kraus_stack,
)
from krausloom.circuit import (
    BLOCK_SIZE,
    CircuitSpec,
    ProductStateParams,
    build_channel_lattice,
    channel_sweep,
    circuit_unitary,
    encode_joint_state,
    encode_reservoir_state,
    evolve,
    initial_state,
    stage_unitary,
    traced_system_state,
)
from krausloom.errors import InvalidArgument, InvalidChannel, InvalidState
from krausloom.gates import U3Params, controlled_on_path, embed, make_register, u3

TOL = 1e-12


def per_point(params, theta1):
    lattice = build_channel_lattice(params, theta1=theta1)
    rho_lattice = traced_system_state(evolve(initial_state(lattice), lattice)).matrix
    a1, b1, _, _ = ProductStateParams(theta1, 0.0).amplitudes()
    rho_in = np.array([[a1 * a1, a1 * b1], [a1 * b1, b1 * b1]], dtype=complex)
    return lattice, rho_lattice, kraus_apply(rho_in, channel_kraus(params))


def lattice_choi(lattice, params):
    """J[(i, a), (j, b)] = Tr_rest(U|in_i><in_j|U^dagger)[a, b], entry by entry,
    with U the evolve stage and in_i the encoded system basis state |i>."""
    u = stage_unitary(lattice, "evolve")
    if isinstance(params, PauliParams):
        inputs = [encode_reservoir_state(e) for e in np.eye(2)]
    else:
        inputs = [encode_joint_state(e, getattr(params, "alpha2_sq", 1.0)) for e in np.eye(2)]
    out = [(u @ psi.amplitudes).reshape(2, -1) for psi in inputs]
    j = np.zeros((2, 2, 2, 2), dtype=complex)
    for i, a, jj, b in np.ndindex(2, 2, 2, 2):
        j[i, a, jj, b] = np.sum(out[i][a] * out[jj][b].conj())
    return j.reshape(4, 4)


def kraus_choi(params):
    """J[(i, a), (j, b)] = sum_mu <a|M_mu|i> <b|M_mu|j>^*, entry by entry."""
    ops = channel_kraus(params).operators
    j = np.zeros((2, 2, 2, 2), dtype=complex)
    for i, a, jj, b in np.ndindex(2, 2, 2, 2):
        j[i, a, jj, b] = sum(m[a, i] * m[b, jj].conj() for m in ops)
    return j.reshape(4, 4)


def assert_sweep_matches(points, theta1=np.pi / 2):
    seen = 0
    for block in channel_sweep(points, theta1=theta1):
        assert block.start == seen
        assert len(block.params) == len(block.lattice) <= BLOCK_SIZE
        for i, dev in enumerate(block.deviation):
            rho_l, rho_k = block.lattice[i], block.kraus[i]
            j_l, j_k = block.lattice_choi[i], block.kraus_choi[i]
            lattice, want_l, want_k = per_point(points[seen + i], theta1)
            assert np.max(np.abs(rho_l - want_l)) <= TOL
            assert np.max(np.abs(rho_k - want_k)) <= TOL
            assert np.max(np.abs(j_l - lattice_choi(lattice, points[seen + i]))) <= TOL
            assert np.max(np.abs(j_k - kraus_choi(points[seen + i]))) <= TOL
            assert dev == max(np.max(np.abs(j_l - j_k)), np.max(np.abs(rho_l - rho_k)))
            assert block.params[i] == lattice.metadata
            assert block.labels == channel_kraus(points[seen + i]).labels
        seen += len(block.lattice)
    assert seen == len(points)


@pytest.mark.parametrize("family", range(4), ids=["dephasing", "gad", "sgad", "pauli"])
def test_acceptance_grids_match_per_point_path(family):
    _, points = _channel_grid()[family]
    assert_sweep_matches(points, theta1=0.9)


@pytest.mark.parametrize(
    "make",
    [
        DephasingParams,
        lambda p: GADParams(p, 0.35),
        lambda p: SGADParams(p, p, 1.0 - p, 0.0, 0.4, 2.2, 0.6),
        lambda p: PauliParams(p, 0.2, 0.3, 0.5),
    ],
    ids=["dephasing", "gad", "sgad", "pauli"],
)
def test_endpoints_match_per_point_path(make):
    assert_sweep_matches([make(0.0), make(1.0), make(0.0)], theta1=2.3)


def test_pauli_guard_and_clamp_points_match():
    # p = 1 with q1 = q2 = 0 spends every amplitude in the first round, so
    # later rounds hit the `remaining > 1e-15` guard; the q mixes here make
    # amp / remaining round above 1 in a later round, where the clamp holds it
    points = [
        PauliParams(1.0, 0.0, 0.0, 1.0),
        PauliParams(1.0, 0.0, 0.125, 0.875),
        PauliParams(1.0, 0.0, 0.4, 0.6),
        PauliParams(1.0, 0.025, 0.125, 0.85),
        PauliParams(1.0, 0.025, 0.05, 0.925),
        PauliParams(0.5, 0.2, 0.3, 0.5),
    ]
    assert_sweep_matches(points, theta1=1.3)


@pytest.mark.parametrize("count", [1, BLOCK_SIZE + 1, 1001])
def test_every_point_of_partial_blocks_matches(count):
    points = [GADParams(p, 0.8) for p in np.linspace(0.0, 1.0, count)]
    assert_sweep_matches(points, theta1=0.4)


@pytest.mark.parametrize("points", [
    [PauliParams(0.5, q, 0.3, 0.7 - q) for q in (0.1, 0.2, 0.4)],
    [SGADParams(0.3, 0.4, mu, 0.2, 0.5, 1.1, 0.6) for mu in (0.0, 0.5, 1.0)],
    [SGADParams(a, 0.4, 0.2, 0.1, 0.5, 1.1, 0.6) for a in (0.0, 0.5, 1.0)],
], ids=["pauli-q", "sgad-mu", "sgad-alpha"])
def test_fields_that_vary_in_some_operators_only(points):
    # the varying field enters some operators only; every operator stacks all the same
    assert_sweep_matches(points, theta1=1.1)


def test_lattice_unitaries_match_circuit_unitary():
    points = [SGADParams(0.3 * t, t, 0.8 * t, 0.1 * t, 0.5, 1.1, 0.2 + 0.6 * t)
              for t in np.linspace(0.0, 1.0, 7)]
    stack = ParamStack(points[2:7])
    recipe = circuit._recipe_of(stack)
    u = circuit._chain(recipe.register, recipe.layers, circuit._angles(recipe, stack))
    assert u.shape == (5, 8, 8)
    for i in range(2, 7):
        # the lattices hold the evolve stage only: its layers as a circuit of their own
        lattice = build_channel_lattice(points[i], theta1=1.9)
        evolve_only = [layer for layer, stage in zip(lattice.layers, lattice.stages)
                       if stage == "evolve"]
        want = circuit_unitary(CircuitSpec(lattice.register, evolve_only,
                                           ["evolve"] * len(evolve_only)))
        assert np.max(np.abs(u[i - 2] - want)) <= TOL


def test_sweep_builds_no_preparation(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the sweep built a preparation")

    for name in ("ProductStateParams", "_preparation_angles", "_pauli_preparation_angles"):
        monkeypatch.setattr(circuit, name, never)
    for _, points in _channel_grid():
        for block in channel_sweep(points, theta1=0.9):
            assert np.all(block.deviation < TOL)


def test_encoded_inputs_are_the_one_point_encoders():
    # the stacked inputs at each point are encode_joint_state (encode_reservoir_state
    # for Pauli) of |0> and |1>, bit for bit
    for _, points in _channel_grid():
        stack = ParamStack(points)
        recipe = circuit._recipe_of(stack)
        inputs = circuit._encode(np.eye(2), np.reshape(recipe.weight(stack), (-1, 1)),
                                 len(recipe.register))
        for params, pair in zip(points, np.broadcast_to(inputs, (len(points),) + inputs.shape[-2:])):
            for e, got in zip(np.eye(2), pair):
                if isinstance(params, PauliParams):
                    want = encode_reservoir_state(e)
                else:
                    want = encode_joint_state(e, getattr(params, "alpha2_sq", 1.0))
                assert got.tobytes() == want.amplitudes.tobytes()


def assert_one_value_per_point(points):
    """Every field of ``ParamStack(points)`` is a float64 (B,) array of the points' values."""
    stack = ParamStack(points)
    for name in (f.name for f in dataclasses.fields(stack.family)):
        field = getattr(stack, name)
        assert type(field) is np.ndarray and field.dtype == np.float64
        assert field.shape == (len(points),)
        assert field.tolist() == [getattr(p, name) for p in points]


def test_param_stack_collapses_shared_fields():
    # a value every point shares no longer collapses: it stacks like any other field
    assert_one_value_per_point([GADParams(0.1, 0.7), GADParams(0.4, 0.7)])
    with pytest.raises(InvalidArgument):
        ParamStack([GADParams(0.1, 0.7), DephasingParams(0.1)])
    with pytest.raises(InvalidArgument):
        ParamStack([])


def test_param_stack_of_one_point_holds_plain_floats():
    # a one-point stack holds (1,) arrays, not plain floats
    assert_one_value_per_point([SGADParams(0.3, 0.2, 0.5, 0.4, 0.1, -0.2, 0.8)])


def random_record(rng, family):
    """A point of ``family`` whose SGAD phases reach +-1e6 and +-20."""
    u = rng.uniform
    if family is DephasingParams:
        return DephasingParams(u())
    if family is GADParams:
        return GADParams(u(), u())
    if family is SGADParams:
        return SGADParams(u(), u(), u(), u(), u(-1e6, 1e6), u(-20, 20), u())
    lo, hi = sorted(u(size=2))
    return PauliParams(u(), lo, hi - lo, 1.0 - hi)


def test_kraus_stack_matches_constructors():
    # every field varies across each 64-point stack, and each point's
    # operators are its record's, bit for bit
    rng = np.random.default_rng(31)
    for family in (DephasingParams, GADParams, SGADParams, PauliParams):
        for _ in range(20):
            points = [random_record(rng, family) for _ in range(64)]
            ops, labels = kraus_stack(ParamStack(points))
            for op, params in zip(ops, points):
                kset = channel_kraus(params)
                assert labels == kset.labels
                want = np.stack(kset.operators)
                assert op.shape == want.shape and op.tobytes() == want.tobytes()


def test_failed_check_names_the_point(monkeypatch):
    monkeypatch.setattr(circuit, "structural_atol", lambda: -1.0)
    points = [DephasingParams(p) for p in (0.1, 0.2)]
    with pytest.raises(InvalidState, match="point 0: layer composition unitarity"):
        next(channel_sweep(points))


def test_completeness_failure_names_the_point(monkeypatch):
    from krausloom import channels

    monkeypatch.setattr(channels, "structural_atol", lambda: -1.0)
    with pytest.raises(InvalidChannel, match="point 0: completeness residual"):
        next(channel_sweep([DephasingParams(0.3)]))


def test_a_completeness_failure_in_the_last_block_raises_at_its_block(monkeypatch):
    from krausloom import channels

    build, labels = channels._FAMILY_OPS[DephasingParams]

    def doubled_at_p_07(params):
        return build(params) * np.where(np.asarray(params.p) == 0.7, 2.0, 1.0)[..., None, None, None]

    monkeypatch.setitem(channels._FAMILY_OPS, DephasingParams, (doubled_at_p_07, labels))
    points = [DephasingParams(0.3)] * (2 * BLOCK_SIZE + 2) + [DephasingParams(0.7)]
    blocks = channel_sweep(points)
    assert [next(blocks).start, next(blocks).start] == [0, BLOCK_SIZE]
    with pytest.raises(InvalidChannel, match=rf"^point {2 * BLOCK_SIZE + 2}: completeness residual"):
        next(blocks)


def test_a_family_change_between_blocks_raises_at_its_block():
    points = [DephasingParams(0.3)] * BLOCK_SIZE + [GADParams(0.3, 0.7)]
    blocks = channel_sweep(points)
    assert next(blocks).start == 0
    with pytest.raises(InvalidArgument, match="^a parameter stack holds one channel family$"):
        next(blocks)


def test_an_empty_sweep_raises_at_its_first_block():
    with pytest.raises(InvalidArgument, match="^a parameter stack needs at least one point$"):
        next(channel_sweep(iter(())))


def test_blocks_stay_bounded(monkeypatch):
    """No stack, and no Kraus build, ever holds more than BLOCK_SIZE points, and
    no more than BLOCK_SIZE points' operators are alive when a block is handed
    out; nothing is built before the first block is asked for, and each block's
    stack and operators are built once."""
    stacks, builds, alive = [], [], []
    init, build = ParamStack.__init__, circuit.kraus_stack

    def counting_init(self, points):
        init(self, points)
        stacks.append(len(self))

    def counting_build(stack, **kwargs):
        builds.append(len(stack))
        ops, labels = build(stack, **kwargs)
        alive.append(weakref.ref(ops))
        return ops, labels

    def points_alive():
        gc.collect()
        return sum(len(ref()) for ref in alive if ref() is not None)

    monkeypatch.setattr(ParamStack, "__init__", counting_init)
    monkeypatch.setattr(circuit, "kraus_stack", counting_build)
    count = 2 * BLOCK_SIZE + 3
    points = [GADParams(p, 0.35) for p in np.linspace(0.0, 1.0, count)]
    blocks = channel_sweep(points, theta1=0.9)
    assert builds == [] and stacks == []
    starts = []
    for block in blocks:
        assert points_alive() == len(block.params)
        starts.append(block.start)
    assert starts == [0, BLOCK_SIZE, 2 * BLOCK_SIZE]
    assert builds == [BLOCK_SIZE, BLOCK_SIZE, 3]
    assert max(stacks) == BLOCK_SIZE and sum(stacks) == count


class TestStackedGates:
    register = make_register("system-path", "environment-path", "polarization")
    angles = np.random.default_rng(7).uniform(-7, 7, size=(3, 5))

    # numpy may take a vector code path for a stack's exp and cos, which can
    # differ from the scalar one in the last bit
    def test_u3_stack(self):
        stacked = u3(U3Params(*self.angles))
        assert stacked.shape == (5, 2, 2)
        for i, triple in enumerate(self.angles.T):
            np.testing.assert_allclose(stacked[i], u3(U3Params(*triple)), rtol=0, atol=1e-15)

    def test_u3_stack_broadcasts_shared_angles(self):
        stacked = u3(U3Params(self.angles[0], 0.3, np.pi))
        for i, theta in enumerate(self.angles[0]):
            np.testing.assert_allclose(stacked[i], u3(U3Params(theta, 0.3, np.pi)),
                                       rtol=0, atol=1e-15)

    def test_embed_and_controlled_stacks(self):
        gates = u3(U3Params(*self.angles))
        emb = embed(gates, 1, 3)
        ctl = controlled_on_path(gates, "1*", self.register)
        assert emb.shape == ctl.shape == (5, 8, 8)
        for i, g in enumerate(gates):
            np.testing.assert_array_equal(emb[i], embed(g, 1, 3))
            np.testing.assert_array_equal(ctl[i], controlled_on_path(g, "1*", self.register))

    def test_stacked_angles_must_be_finite(self):
        with pytest.raises(InvalidArgument):
            U3Params(np.array([0.1, np.nan]), 0.0, 0.0)
