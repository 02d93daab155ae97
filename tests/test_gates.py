import itertools

import numpy as np
import pytest

from krausloom import circuit as circuit_mod
from krausloom import gates as gates_mod
from krausloom.channels import DephasingParams, GADParams, PauliParams, SGADParams
from krausloom.circuit import build_channel_lattice, channel_sweep
from krausloom.errors import InvalidArgument, InvalidWiring
from krausloom.gates import (
    Role,
    U3Params,
    cnot_pol_path,
    controlled_on_path,
    embed,
    make_register,
    polarization_wire,
    u3,
)
from krausloom.qmath import unitarity_residual

X = np.array([[0, 1], [1, 0]], dtype=complex)


class TestU3:
    def test_phase_gate(self):
        np.testing.assert_allclose(u3(U3Params(0, 0, np.pi)), np.diag([1, -1]), atol=1e-15)

    def test_path_swap_gate(self):
        np.testing.assert_allclose(u3(U3Params(np.pi, 0, np.pi)), X, atol=1e-15)

    def test_all_angles_quarter_turn(self):
        # direct substitution at theta = phi = lambda = pi/2
        want = np.array([[1, -1j], [1j, -1]]) / np.sqrt(2)
        np.testing.assert_allclose(u3(U3Params(np.pi / 2, np.pi / 2, np.pi / 2)), want, atol=1e-15)

    def test_stack_is_bit_for_bit_the_single_rotations(self):
        rng = np.random.default_rng(37)
        angles = rng.uniform(-10, 10, size=(3, 1000))
        stacked = u3(U3Params(*angles))
        shared = u3(U3Params(angles[0], 0.7, angles[2]))
        for i, (theta, phi, lam) in enumerate(angles.T):
            assert stacked[i].tobytes() == u3(U3Params(theta, phi, lam)).tobytes()
            assert shared[i].tobytes() == u3(U3Params(theta, 0.7, lam)).tobytes()

    def test_unitary_for_1000_random_triples(self):
        rng = np.random.default_rng(1000)
        for _ in range(1000):
            g = u3(U3Params(*rng.uniform(-10, 10, size=3)))
            assert unitarity_residual(g) <= 1e-14

    def test_real_family_structure(self):
        rng = np.random.default_rng(3)
        for theta in rng.uniform(0, np.pi, size=20):
            g = u3(U3Params(theta, 0, np.pi))
            c, s = np.cos(theta / 2), np.sin(theta / 2)
            np.testing.assert_allclose(g, [[c, s], [s, -c]], atol=1e-15)
            a, b = g @ np.array([1, 0])
            assert a.imag == 0 and b.imag == 0
            assert abs(a) ** 2 + abs(b) ** 2 == pytest.approx(1.0, abs=1e-15)

    def test_angles_reduced_to_principal_range(self):
        p = U3Params(-np.pi, 7 * np.pi, 2 * np.pi)
        assert 0 <= p.theta < 2 * np.pi
        assert 0 <= p.phi < 2 * np.pi
        assert 0 <= p.lam < 2 * np.pi

    def test_nonfinite_angle_rejected(self):
        with pytest.raises(InvalidArgument):
            U3Params(np.inf, 0, 0)


class TestCnotPolPath:
    register = make_register(Role.SYSTEM_PATH, Role.ENVIRONMENT_PATH, Role.POLARIZATION)

    def cnot(self, target=0):
        return cnot_pol_path(self.register, polarization_wire(self.register), target)

    def test_entangles_polarization_with_path(self):
        # (a|H> + b|V>)|00>  ->  a|H>|00> + b|V>|10>   (basis |s e pol>)
        a, b = 0.6, 0.8
        vec = np.zeros(8, dtype=complex)
        vec[0b000] = a
        vec[0b001] = b
        out = self.cnot() @ vec
        want = np.zeros(8, dtype=complex)
        want[0b000] = a
        want[0b101] = b
        np.testing.assert_allclose(out, want, atol=1e-15)

    def test_control_off_is_identity(self):
        vec = np.zeros(8, dtype=complex)
        vec[0b000] = 1.0
        np.testing.assert_array_equal(self.cnot() @ vec, vec)

    def test_involution(self, rng):
        vec = rng.normal(size=8) + 1j * rng.normal(size=8)
        vec /= np.linalg.norm(vec)
        c = self.cnot(target=1)
        np.testing.assert_allclose(c @ (c @ vec), vec, atol=1e-15)

    def test_permutation_sparsity(self):
        m = self.cnot()
        assert np.count_nonzero(m) == 8
        assert np.all((m == 0) | (m == 1))

    def test_wiring_errors(self):
        pol = polarization_wire(self.register)
        with pytest.raises(InvalidWiring):
            cnot_pol_path(self.register, 0, 1)  # control not polarization
        with pytest.raises(InvalidWiring):
            cnot_pol_path(self.register, pol, pol)  # path target required


class TestEmbed:
    def test_identity_embeds_to_identity(self):
        np.testing.assert_array_equal(embed(np.eye(2), 1, 3), np.eye(8))

    def test_basis_action_on_wire_0(self):
        vec = np.zeros(4, dtype=complex)
        vec[0b00] = 1.0
        out = embed(X, 0, 2) @ vec
        want = np.zeros(4, dtype=complex)
        want[0b10] = 1.0
        np.testing.assert_array_equal(out, want)

    def test_u3_on_wire_1_matrix_vector_oracle(self):
        theta = 0.9
        vec = np.zeros(4, dtype=complex)
        vec[0] = 1.0
        out = embed(u3(U3Params(theta, 0, np.pi)), 1, 2) @ vec
        want = np.zeros(4, dtype=complex)
        want[0b00] = np.cos(theta / 2)
        want[0b01] = np.sin(theta / 2)
        np.testing.assert_allclose(out, want, atol=1e-15)

    def test_disjoint_wires_commute_exactly(self, rng):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        a = embed(g, 0, 3) @ embed(h, 2, 3)
        b = embed(h, 2, 3) @ embed(g, 0, 3)
        np.testing.assert_array_equal(a, b)

    def test_block_sparsity(self, rng):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = embed(g, 2, 3)
        assert np.count_nonzero(m) <= 2 ** (3 + 1)
        assert np.count_nonzero(embed(np.diag([2.0, 3.0]), 1, 3)) == 8

    def test_out_of_range_wire(self):
        with pytest.raises(InvalidArgument):
            embed(np.eye(2), 3, 3)

    def test_embedding_stays_unitary(self, rng):
        g = u3(U3Params(*rng.uniform(0, 2 * np.pi, 3)))
        assert unitarity_residual(embed(g, 1, 4)) <= 1e-12


class TestControlledOnPath:
    register = make_register(Role.SYSTEM_PATH, Role.ENVIRONMENT_PATH, Role.POLARIZATION)

    def test_never_matched_condition_is_identity(self):
        m = controlled_on_path(X, "10", self.register)
        vec = np.zeros(8, dtype=complex)
        vec[0b000] = 1.0  # path 00 does not match condition 10
        np.testing.assert_array_equal(m @ vec, vec)

    def test_basis_action(self):
        m = controlled_on_path(X, "10", self.register)
        vec = np.zeros(8, dtype=complex)
        vec[0b100] = 1.0  # |10>|H>
        out = m @ vec
        want = np.zeros(8, dtype=complex)
        want[0b101] = 1.0  # |10>|V>
        np.testing.assert_array_equal(out, want)

    def test_wildcard_condition(self):
        m = controlled_on_path(X, "1*", self.register)
        for path in (0b10, 0b11):
            vec = np.zeros(8, dtype=complex)
            vec[path << 1] = 1.0
            out = m @ vec
            assert out[(path << 1) | 1] == 1.0

    def test_condition_covering_polarization_rejected(self):
        with pytest.raises(InvalidWiring):
            controlled_on_path(X, "100", self.register)

    def test_bad_condition_characters_rejected(self):
        with pytest.raises(InvalidArgument):
            controlled_on_path(X, "1x", self.register)

    def test_stays_unitary(self, rng):
        g = u3(U3Params(*rng.uniform(0, 2 * np.pi, 3)))
        m = controlled_on_path(g, "0*", self.register)
        assert unitarity_residual(m) <= 1e-12


# -- placement kernels against references built from their definitions ----------


def _bit(index, wire, n):
    return (index >> (n - 1 - wire)) & 1


def loop_placement(gate, wire, n, fixed=()):
    """<r| placement |c>, entry by entry: the gate's (r_w, c_w) entry where r and
    c agree off ``wire`` and every (wire, bit) of ``fixed`` holds, else the
    identity's."""
    d = 2**n
    out = np.zeros(gate.shape[:-2] + (d, d), dtype=complex)
    for r in range(d):
        for c in range(d):
            same_elsewhere = (r ^ c) & ~(1 << (n - 1 - wire)) == 0
            if same_elsewhere and all(_bit(r, w, n) == b for w, b in fixed):
                out[..., r, c] = gate[..., _bit(r, wire, n), _bit(c, wire, n)]
            elif r == c:
                out[..., r, c] = 1.0
    return out


def loop_cnot(control, target, n):
    basis = np.arange(2**n)
    mat = np.zeros((2**n, 2**n), dtype=complex)
    mat[basis ^ (_bit(basis, control, n) << (n - 1 - target)), basis] = 1.0
    return mat


def assert_bits_equal(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def kernel_registers():
    """3- and 4-qubit registers with the polarization wire at every position."""
    for n in (3, 4):
        for pol in range(n):
            yield make_register(*("polarization" if i == pol else "system-path" for i in range(n)))


def kernel_gates(rng):
    """A scalar gate and stacks of 1 and 5, entries of every sign."""
    for shape in ((2, 2), (1, 2, 2), (5, 2, 2)):
        yield rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestKernelsAgainstReferences:
    def test_embed_every_wire(self, rng):
        for n in (1, 2, 3, 4):
            for wire in range(n):
                for gate in kernel_gates(rng):
                    got = embed(gate, wire, n)
                    assert_bits_equal(got, loop_placement(gate, wire, n))
                    if gate.ndim == 2:
                        # np.kron leaves -0.0 where an identity zero meets an
                        # entry with a negative part; the values are the same
                        want = np.eye(1, dtype=complex)
                        for i in range(n):
                            want = np.kron(want, gate if i == wire else np.eye(2))
                        np.testing.assert_array_equal(got, want)

    def test_controlled_on_path_every_condition(self, rng):
        for register in kernel_registers():
            n = len(register)
            pol = polarization_wire(register)
            paths = [w for w in range(n) if w != pol]
            for condition in map("".join, itertools.product("01*", repeat=n - 1)):
                fixed = tuple((w, int(ch)) for w, ch in zip(paths, condition) if ch != "*")
                for gate in kernel_gates(rng):
                    got = controlled_on_path(gate, condition, register)
                    assert_bits_equal(got, loop_placement(gate, pol, n, fixed))

    def test_cnot_every_target(self):
        for register in kernel_registers():
            n = len(register)
            pol = polarization_wire(register)
            for target in range(n):
                if target == pol:
                    continue
                assert_bits_equal(cnot_pol_path(register, pol, target),
                                  loop_cnot(pol, target, n))


class TestWiringConstants:
    register = make_register(Role.SYSTEM_PATH, Role.ENVIRONMENT_PATH, Role.POLARIZATION)

    def test_cnot_is_read_only(self):
        m = cnot_pol_path(self.register, polarization_wire(self.register), 0)
        with pytest.raises(ValueError):
            m[0, 0] = 2.0
        assert cnot_pol_path(self.register, polarization_wire(self.register), 0) is m

    def test_flat_positions_are_read_only(self):
        block, ones = gates_mod._scatter_slots(3, 2, ((0, 1),))
        for arr in (block, ones):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_placements_are_fresh_and_writable(self):
        a = controlled_on_path(X, "1*", self.register)
        a[0, 0] = 5.0
        assert controlled_on_path(X, "1*", self.register)[0, 0] == 1.0
        embed(X, 0, 3)[0, 0] = 5.0
        assert embed(X, 0, 3)[0, 0] == 0.0


def _cache_sizes():
    """currsize of every lru_cache in gates and circuit, by name."""
    sizes = {}
    for mod in (gates_mod, circuit_mod):
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_info"):
                sizes[f"{obj.__module__}.{name}"] = obj.cache_info().currsize
    return sizes


def _random_point(rng):
    u = rng.uniform
    family = rng.integers(4)
    if family == 0:
        return DephasingParams(u())
    if family == 1:
        return GADParams(u(), u())
    if family == 2:
        return SGADParams(u(), u(), u(), u(), u(0, 2 * np.pi), u(0, 2 * np.pi), u())
    lo, hi = sorted(u(size=2))
    return PauliParams(u(), lo, hi - lo, 1.0 - hi)


def _run_point(params, theta1):
    for _ in channel_sweep([params], theta1=theta1):
        pass
    build_channel_lattice(params, theta1=theta1)


def test_no_cache_is_keyed_by_an_angle_or_a_parameter():
    rng = np.random.default_rng(500)
    for params in (DephasingParams(0.3), GADParams(0.3, 0.6),
                   SGADParams(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7), PauliParams(0.3, 0.2, 0.3, 0.5)):
        _run_point(params, 0.4)
    after_one = _cache_sizes()
    assert len(after_one) >= 4 and all(after_one.values())
    for _ in range(500):
        _run_point(_random_point(rng), rng.uniform(0, np.pi))
    assert _cache_sizes() == after_one
