import numpy as np
import pytest
from conftest import random_qubit
from hypothesis import given, settings
from hypothesis import strategies as st

from krausloom.channels import (
    DephasingParams,
    GADParams,
    PauliParams,
    KrausSet,
    SGADParams,
    channel_kraus,
    kraus_apply,
    channel_action_distance,
)
from krausloom.circuit import (
    CircuitSpec,
    ProductStateParams,
    build_channel_lattice,
    build_pauli_lattice,
    circuit_from_payload,
    circuit_to_payload,
    circuit_unitary,
    encode_joint_state,
    encode_reservoir_state,
    evolve,
    gad_experiment,
    initial_state,
    output_mode_decomposition,
    pauli_caption_angles,
    prepare_product_state,
    preparation_circuit,
    stage_unitary,
    thermal_weights,
    traced_joint_state,
    traced_system_state,
    REFERENCE_GAD_ANGLES,
    REFERENCE_GAD_MATRIX,
)
from krausloom.errors import InvalidArgument
from krausloom.qmath import PureState, fidelity, partial_trace, save_json, unitarity_residual


def eq7_amplitudes(a1, b1, a2, b2):
    """Product-state vector written out by hand (basis |s e pol>)."""
    vec = np.zeros(8, dtype=complex)
    vec[0b000] = a1 * a2
    vec[0b011] = a1 * b2
    vec[0b100] = b1 * a2
    vec[0b111] = b1 * b2
    return vec


class TestPrepareProductState:
    def test_all_zero_angles(self):
        psi = prepare_product_state(ProductStateParams(0.0, 0.0))
        want = np.zeros(8)
        want[0] = 1.0
        np.testing.assert_allclose(psi.amplitudes, want, atol=1e-15)
        joint = traced_joint_state(psi)
        np.testing.assert_allclose(joint.matrix, np.diag([1, 0, 0, 0]), atol=1e-15)

    def test_balanced_system_ground_environment(self):
        psi = prepare_product_state(ProductStateParams(np.pi / 2, 0.0))
        joint = traced_joint_state(psi)
        rho_s = partial_trace(joint, (0,))
        rho_e = partial_trace(joint, (1,))
        np.testing.assert_allclose(rho_s.matrix, [[0.5, 0.5], [0.5, 0.5]], atol=1e-14)
        np.testing.assert_allclose(rho_e.matrix, np.diag([1.0, 0.0]), atol=1e-14)

    @pytest.mark.parametrize(
        "theta1,theta2",
        [(0.3, 0.9), (1.7, 2.4), (2.9, 0.2), (-1.0, 0.4), (0.8, -2.1), (4.4, 5.2)],
    )
    def test_matches_hand_expansion(self, theta1, theta2):
        # includes angles with negative amplitude components; signs must
        # come out exact, not just magnitudes
        params = ProductStateParams(theta1, theta2)
        psi = prepare_product_state(params)
        np.testing.assert_allclose(
            psi.amplitudes, eq7_amplitudes(*params.amplitudes()), atol=1e-14
        )

    @pytest.mark.parametrize("theta2", [2.0, -0.6, 2.9])
    def test_experimental_convention_sign_exact(self, theta2):
        params = ProductStateParams(0.9, theta2, "experimental")
        psi = prepare_product_state(params)
        np.testing.assert_allclose(
            psi.amplitudes, eq7_amplitudes(*params.amplitudes()), atol=1e-14
        )

    def test_traced_state_structure(self):
        params = ProductStateParams(1.1, 0.8)
        a1, b1, a2, b2 = params.amplitudes()
        joint = traced_joint_state(prepare_product_state(params))
        want = np.kron([[a1 * a1, a1 * b1], [a1 * b1, b1 * b1]], np.diag([a2 * a2, b2 * b2]))
        np.testing.assert_allclose(joint.matrix, want, atol=1e-14)
        # system coherence survives, environment block exactly diagonal
        assert abs(joint.matrix[0, 2]) == pytest.approx(a1 * b1 * a2 * a2, abs=1e-14)
        assert abs(joint.matrix[0, 1]) < 1e-14
        assert abs(joint.matrix[2, 3]) < 1e-14

    def test_experimental_convention(self):
        params = ProductStateParams(0.4, 0.7, "experimental")
        a1, b1, a2, b2 = params.amplitudes()
        assert (a1, b1) == (np.cos(0.4), np.sin(0.4))
        assert (a2, b2) == (np.sin(0.7), np.cos(0.7))
        psi = prepare_product_state(params)
        np.testing.assert_allclose(psi.amplitudes, eq7_amplitudes(a1, b1, a2, b2), atol=1e-14)

    def test_unknown_convention_rejected(self):
        with pytest.raises(InvalidArgument):
            ProductStateParams(0.1, 0.1, "degrees")

    @pytest.mark.parametrize("field", ["theta1", "theta2"])
    def test_array_angle_rejected(self, field):
        angles = {"theta1": 0.3, "theta2": 0.3, field: np.array([0.1, 0.2])}
        with pytest.raises(InvalidArgument, match=f"^{field} must be a scalar"):
            prepare_product_state(ProductStateParams(**angles))


@settings(max_examples=60, deadline=None)
@given(st.floats(-9, 9, allow_nan=False), st.floats(-9, 9, allow_nan=False))
def test_prepared_environment_block_always_diagonal(theta1, theta2):
    joint = traced_joint_state(prepare_product_state(ProductStateParams(theta1, theta2)))
    m = joint.matrix
    for s1 in (0, 1):
        for s2 in (0, 1):
            assert abs(m[2 * s1, 2 * s2 + 1]) < 1e-14
            assert abs(m[2 * s1 + 1, 2 * s2]) < 1e-14


class TestThermalWeights:
    def test_degenerate_levels(self):
        assert thermal_weights(1.0, 1.0, 2.0) == (0.5, 0.5)

    def test_infinite_temperature_limit(self):
        w1, w2 = thermal_weights(0.0, 1.0, 1e8)
        assert w1 == pytest.approx(0.5, abs=1e-6)
        assert w2 == pytest.approx(0.5, abs=1e-6)

    def test_closed_form_boltzmann_ratio(self):
        w1, w2 = thermal_weights(0.0, np.log(3.0), 1.0)
        assert w1 == pytest.approx(0.75, abs=1e-15)
        assert w2 == pytest.approx(0.25, abs=1e-15)

    def test_sum_exactly_one(self, rng):
        for _ in range(20):
            e1, e2 = rng.uniform(-5, 5, size=2)
            w1, w2 = thermal_weights(e1, e2, rng.uniform(0.01, 10))
            assert w1 + w2 == 1.0

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(InvalidArgument):
            thermal_weights(0.0, 1.0, 0.0)

    def test_zero_temperature_flag(self):
        assert thermal_weights(0.0, 1.0, -1.0, zero_temperature=True) == (1.0, 0.0)
        assert thermal_weights(3.0, 1.0, -1.0, zero_temperature=True) == (0.0, 1.0)


@pytest.mark.parametrize("e1, e2, kbt, zero_temperature", [
    (np.nan, 0.0, 1.0, False),
    (np.nan, 0.0, 1.0, True),
    (np.inf, np.inf, 1.0, False),
    (0.0, -np.inf, 1.0, True),
])
def test_thermal_weights_reject_nonfinite_energies(e1, e2, kbt, zero_temperature):
    with pytest.raises(InvalidArgument, match="must be finite"):
        thermal_weights(e1, e2, kbt, zero_temperature=zero_temperature)


class TestEvolve:
    def test_empty_circuit_is_identity(self, rng):
        circuit = CircuitSpec(preparation_circuit(ProductStateParams(0, 0)).register, (), ())
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi = PureState(v / np.linalg.norm(v), (2, 2, 2))
        out = evolve(psi, circuit)
        np.testing.assert_array_equal(out.amplitudes, psi.amplitudes)

    def test_prepare_stage_equals_direct_preparation(self):
        params = ProductStateParams(0.9, 1.4)
        lattice = build_channel_lattice(GADParams(0.3, np.cos(1.4 / 2) ** 2), theta1=0.9)
        staged = evolve(initial_state(lattice), lattice, through_stage="prepare")
        np.testing.assert_allclose(
            staged.amplitudes, prepare_product_state(params).amplitudes, atol=1e-12
        )

    def test_norm_preserved(self, rng):
        lattice = build_channel_lattice(SGADParams(0.2, 0.4, 0.1, 0.3, 0.5, 0.8, 0.7))
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi = PureState(v / np.linalg.norm(v), (2, 2, 2))
        out = evolve(psi, lattice)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        lattice = build_pauli_lattice(0.5, 1 / 3, 1 / 3, 1 / 3)
        with pytest.raises(InvalidArgument):
            evolve(PureState([1, 0], (2,)), lattice)

    def test_full_dephasing_circuit_against_kraus_engine(self, rng):
        p = 0.37
        lattice = build_channel_lattice(DephasingParams(p), theta1=1.1)
        out = evolve(initial_state(lattice), lattice)
        rho_sys = traced_system_state(out)
        prep = ProductStateParams(1.1, 0.0)
        a1, b1, _, _ = prep.amplitudes()
        rho_in = np.array([[a1 * a1, a1 * b1], [a1 * b1, b1 * b1]], dtype=complex)
        want = kraus_apply(rho_in, channel_kraus(DephasingParams(p)))
        np.testing.assert_allclose(rho_sys.matrix, want, atol=1e-9)


class TestOutputModeDecomposition:
    def test_single_mode(self):
        psi = prepare_product_state(ProductStateParams(0.0, 0.0))
        modes = output_mode_decomposition(psi)
        np.testing.assert_array_equal(modes["00"], [1, 0])
        for label in ("01", "10", "11"):
            np.testing.assert_array_equal(modes[label], [0, 0])

    def test_product_state_pattern(self):
        params = ProductStateParams(1.3, 0.7)
        a1, b1, a2, b2 = params.amplitudes()
        modes = output_mode_decomposition(prepare_product_state(params))
        np.testing.assert_allclose(modes["00"], [a1 * a2, 0], atol=1e-14)
        np.testing.assert_allclose(modes["01"], [0, a1 * b2], atol=1e-14)
        np.testing.assert_allclose(modes["10"], [b1 * a2, 0], atol=1e-14)
        np.testing.assert_allclose(modes["11"], [0, b1 * b2], atol=1e-14)

    def test_intensities_sum_to_one(self, rng):
        lattice = build_channel_lattice(GADParams(0.4, 0.8), theta1=rng.uniform(0, np.pi))
        modes = output_mode_decomposition(evolve(initial_state(lattice), lattice))
        assert sum(np.vdot(v, v).real for v in modes.values()) == pytest.approx(1.0, abs=1e-12)

    def test_reconstruction_is_exact(self, rng):
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi = PureState(v / np.linalg.norm(v), (2, 2, 2))
        modes = output_mode_decomposition(psi)
        rebuilt = np.concatenate([modes[format(i, "02b")] for i in range(4)])
        np.testing.assert_array_equal(rebuilt, psi.amplitudes)


class TestModeContracts:
    """Output polarization vectors of the configured lattices, mode by mode."""

    @pytest.mark.parametrize("p", np.linspace(0, 1, 5))
    @pytest.mark.parametrize("theta1", np.linspace(0.2, 2.8, 5))
    def test_dephasing_modes(self, p, theta1):
        lattice = build_channel_lattice(DephasingParams(p), theta1=theta1)
        a1, b1, _, _ = ProductStateParams(theta1, 0.0).amplitudes()
        modes = output_mode_decomposition(evolve(initial_state(lattice), lattice))
        np.testing.assert_allclose(modes["00"], [a1, 0], atol=1e-10)
        np.testing.assert_allclose(modes["10"], [b1 * np.sqrt(1 - p), 0], atol=1e-10)
        np.testing.assert_allclose(modes["11"], [b1 * np.sqrt(p), 0], atol=1e-10)
        np.testing.assert_allclose(modes["01"], [0, 0], atol=1e-10)

    @pytest.mark.parametrize("p", np.linspace(0, 1, 5))
    @pytest.mark.parametrize("alpha2_sq", np.linspace(0.05, 0.95, 5))
    def test_gad_modes(self, p, alpha2_sq, theta1=1.2):
        lattice = build_channel_lattice(GADParams(p, alpha2_sq), theta1=theta1)
        a2 = np.sqrt(alpha2_sq)
        b2 = np.sqrt(1 - alpha2_sq)
        a1, b1 = np.cos(theta1 / 2), np.sin(theta1 / 2)
        modes = output_mode_decomposition(evolve(initial_state(lattice), lattice))
        sp, sq = np.sqrt(p), np.sqrt(1 - p)
        np.testing.assert_allclose(modes["00"], [a1 * a2, 0], atol=1e-10)
        np.testing.assert_allclose(modes["11"], [0, b1 * b2], atol=1e-10)
        np.testing.assert_allclose(modes["01"], [a2 * b1 * sp, a1 * b2 * sq], atol=1e-10)
        np.testing.assert_allclose(modes["10"], [a2 * b1 * sq, a1 * b2 * sp], atol=1e-10)

    @pytest.mark.parametrize("beta", np.linspace(0, 1, 5))
    @pytest.mark.parametrize("mu", np.linspace(0, 1, 5))
    def test_sgad_modes_from_transition_map(self, beta, mu):
        prm = SGADParams(0.23, beta, mu, 0.11, 0.6, 1.2, 0.7)
        theta1 = 0.9
        lattice = build_channel_lattice(prm, theta1=theta1)
        a1, b1 = np.cos(theta1 / 2), np.sin(theta1 / 2)
        a2, b2 = np.sqrt(0.7), np.sqrt(0.3)
        modes = output_mode_decomposition(evolve(initial_state(lattice), lattice))
        eph = np.exp(-1j * prm.phi)
        ela = np.exp(-1j * prm.lam)
        np.testing.assert_allclose(
            modes["00"],
            [a1 * a2 * np.sqrt(1 - prm.alpha), b1 * b2 * np.sqrt(prm.nu)],
            atol=1e-10,
        )
        np.testing.assert_allclose(
            modes["01"],
            [b1 * a2 * np.sqrt(beta), a1 * b2 * np.sqrt(1 - mu)],
            atol=1e-10,
        )
        np.testing.assert_allclose(
            modes["10"],
            [b1 * a2 * np.sqrt(1 - beta), a1 * b2 * np.sqrt(mu) * ela],
            atol=1e-10,
        )
        np.testing.assert_allclose(
            modes["11"],
            [a1 * a2 * np.sqrt(prm.alpha) * eph, b1 * b2 * np.sqrt(1 - prm.nu)],
            atol=1e-10,
        )

    def test_polarization_classes_do_not_mix(self):
        for params in (
            DephasingParams(0.41),
            GADParams(0.3, 0.6),
            SGADParams(0.2, 0.5, 0.1, 0.4, 0.9, 0.3, 0.55),
        ):
            # populated inputs: environment-ground modes arrive H, excited modes V
            w = stage_unitary(build_channel_lattice(params), "evolve")
            leak = max(np.max(np.abs(w[np.ix_(V_SLOTS, [0b000, 0b100])])),
                       np.max(np.abs(w[np.ix_(H_SLOTS, [0b011, 0b111])])))
            assert leak < 1e-12


H_SLOTS = [0b000, 0b010, 0b100, 0b110]  # path modes se = 00, 01, 10, 11, H polarized
V_SLOTS = [i | 1 for i in H_SLOTS]


def joint_map(lattice):
    """The 4x4 system-environment map of a 3-qubit lattice's evolve stage:
    column se is the image of mode se in its input class (H for e = 0, V for
    e = 1), read on the slots of that class."""
    w = stage_unitary(lattice, "evolve")
    return np.stack([w[[h | e for h in H_SLOTS], col | e]
                     for col, e in zip(H_SLOTS, (0, 1, 0, 1))], axis=1)


class TestLatticeKrausConsistency:
    @pytest.mark.parametrize(
        "params",
        [
            DephasingParams(0.63),
            GADParams(0.44, 0.71),
            SGADParams(0.15, 0.35, 0.55, 0.25, 1.1, 0.4, 0.62),
        ],
    )
    def test_lattice_equals_kraus_on_random_states(self, params, rng):
        lattice = build_channel_lattice(params)
        u_evolve = stage_unitary(lattice, "evolve")
        kset = channel_kraus(params)
        a2sq = getattr(params, "alpha2_sq", 1.0)
        for _ in range(10):
            q = random_qubit(rng)
            enc = encode_joint_state(q, a2sq)
            out = PureState(u_evolve @ enc.amplitudes, enc.dims)
            rho_lattice = traced_system_state(out)
            rho_kraus = kraus_apply(np.outer(q, q.conj()), kset)
            np.testing.assert_allclose(rho_lattice.matrix, rho_kraus, atol=1e-9)

    def test_extracted_kraus_match_constructor(self):
        params = GADParams(0.38, 0.77)
        lattice = build_channel_lattice(params)
        # M_r[a, i] = <a, r|U|encoded i>, one operator per traced basis state r
        u = stage_unitary(lattice, "evolve")
        cols = np.stack([u @ encode_joint_state(e, params.alpha2_sq).amplitudes for e in np.eye(2)])
        extracted = KrausSet(cols.reshape(2, 2, 4).transpose(2, 1, 0))
        constructed = channel_kraus(params)
        assert channel_action_distance(extracted, constructed) < 1e-9
        # same operators up to per-operator phase, as sets: the extraction
        # indexes by environment out/in, which swaps the off-diagonal labels
        remaining = list(extracted.operators)
        for want in constructed.operators:
            for i, have in enumerate(remaining):
                if np.max(np.abs(want)) < 1e-15 and np.max(np.abs(have)) < 1e-15:
                    break
                k = int(np.argmax(np.abs(want)))
                if abs(have.reshape(-1)[k]) < 1e-15:
                    continue
                phase = want.reshape(-1)[k] / have.reshape(-1)[k]
                if abs(abs(phase) - 1) < 1e-10 and np.allclose(phase * have, want, atol=1e-10):
                    break
            else:
                pytest.fail("no extracted operator matches a constructed one up to phase")
            remaining.pop(i)

    def test_gad_joint_map_rows(self):
        # column j is the image of joint basis state j (|se>: 00,01,10,11)
        p = 0.3
        u = joint_map(build_channel_lattice(GADParams(p, 0.5)))
        sp, sq = np.sqrt(p), np.sqrt(1 - p)
        want = np.array(
            [
                [1, 0, 0, 0],
                [0, sq, sp, 0],
                [0, sp, sq, 0],
                [0, 0, 0, 1],
            ]
        )
        np.testing.assert_allclose(u, want, atol=1e-12)

    def test_sgad_joint_map_rows(self):
        prm = SGADParams(0.2, 0.5, 0.3, 0.1, 0.7, 1.3, 0.6)
        u = joint_map(build_channel_lattice(prm))
        eph, ela = np.exp(-1j * prm.phi), np.exp(-1j * prm.lam)
        want = np.zeros((4, 4), dtype=complex)
        want[0b00, 0b00] = np.sqrt(1 - prm.alpha)
        want[0b11, 0b00] = np.sqrt(prm.alpha) * eph
        want[0b01, 0b01] = np.sqrt(1 - prm.mu)
        want[0b10, 0b01] = np.sqrt(prm.mu) * ela
        want[0b10, 0b10] = np.sqrt(1 - prm.beta)
        want[0b01, 0b10] = np.sqrt(prm.beta)
        want[0b11, 0b11] = np.sqrt(1 - prm.nu)
        want[0b00, 0b11] = np.sqrt(prm.nu)
        np.testing.assert_allclose(u, want, atol=1e-12)

    def test_dephasing_joint_map_rows(self):
        p = 0.45
        u = joint_map(build_channel_lattice(DephasingParams(p)))
        want = np.eye(4, dtype=complex)
        want[0b10, 0b10] = np.sqrt(1 - p)
        want[0b11, 0b10] = np.sqrt(p)
        np.testing.assert_allclose(u, want, atol=1e-12)

    def test_evolve_stage_is_unitary(self):
        for params in (DephasingParams(0.2), GADParams(0.8, 0.3), PauliParams(0.6, 0.2, 0.5, 0.3)):
            lattice = build_channel_lattice(params)
            assert unitarity_residual(stage_unitary(lattice, "evolve")) < 1e-10

    def test_sgad_reduction_matches_gad_at_map_level(self):
        for p in np.linspace(0, 1, 6):
            gad = build_channel_lattice(GADParams(p, 0.66))
            sgad = build_channel_lattice(SGADParams(0.0, p, p, 0.0, 0.0, 0.0, 0.66))
            np.testing.assert_allclose(
                stage_unitary(gad, "evolve"), stage_unitary(sgad, "evolve"), atol=1e-10
            )


class TestPauliLattice:
    def test_zero_error_probability_is_identity(self, rng):
        lattice = build_pauli_lattice(0.0, 0.3, 0.4, 0.3)
        u = stage_unitary(lattice, "evolve")
        for q in (random_qubit(rng), random_qubit(rng)):
            enc = encode_reservoir_state(q)
            np.testing.assert_allclose(u @ enc.amplitudes, enc.amplitudes, atol=1e-12)

    def test_deterministic_double_flip(self):
        lattice = build_pauli_lattice(1.0, 1.0, 0.0, 0.0)
        u = stage_unitary(lattice, "evolve")
        src = np.zeros(16, dtype=complex)
        src[0b0000] = 1.0  # |000>|H>
        out = u @ src
        assert abs(out[0b1010]) == pytest.approx(1.0, abs=1e-12)  # |101>|H>
        src = np.zeros(16, dtype=complex)
        src[0b1000] = 1.0  # |100>|H>
        out = u @ src
        assert abs(out[0b0010]) == pytest.approx(1.0, abs=1e-12)  # |001>|H>

    def test_isotropic_case_erases_plus_state(self):
        # Bloch shrink factor 1 - 4p/3 vanishes at p = 3/4
        lattice = build_pauli_lattice(0.75, 1 / 3, 1 / 3, 1 / 3, prep_theta=np.pi / 2)
        out = evolve(initial_state(lattice), lattice)
        rho_sys = traced_system_state(out)
        np.testing.assert_allclose(rho_sys.matrix, np.eye(2) / 2, atol=1e-12)

    def test_lattice_matches_kraus_engine(self, rng):
        p, q1, q2, q3 = 0.58, 0.5, 0.2, 0.3
        lattice = build_pauli_lattice(p, q1, q2, q3)
        u = stage_unitary(lattice, "evolve")
        kset = channel_kraus(PauliParams(p, q1, q2, q3))
        for _ in range(10):
            q = random_qubit(rng)
            enc = encode_reservoir_state(q)
            out = PureState(u @ enc.amplitudes, enc.dims)
            rho_lattice = traced_system_state(out)
            rho_kraus = kraus_apply(np.outer(q, q.conj()), kset)
            np.testing.assert_allclose(rho_lattice.matrix, rho_kraus, atol=1e-9)

    def test_caption_angle_relations_round_trip(self):
        p, q1, q2, q3 = 0.37, 0.22, 0.33, 0.45
        t1, t2, t3 = pauli_caption_angles(p, q1, q2, q3)
        assert np.cos(t1) ** 2 == pytest.approx(p, abs=1e-12)
        assert np.cos(t2) ** 2 == pytest.approx(q1, abs=1e-12)
        assert np.sin(t2) ** 2 * np.cos(t3) ** 2 == pytest.approx(q2, abs=1e-12)
        assert np.sin(t2) ** 2 * np.sin(t3) ** 2 == pytest.approx(q3, abs=1e-12)
        for angle in (t1, t2, t3):
            assert 0 <= angle <= np.pi / 2

    def test_is_the_channel_lattice_of_its_parameters(self):
        for args, prep_theta in [((0.58, 0.5, 0.2, 0.3), 0.7), ((1.0, 0.0, 0.0, 1.0), np.pi / 2),
                                 ((0.0, 1 / 3, 1 / 3, 1 / 3), -2.0)]:
            got = build_pauli_lattice(*args, prep_theta=prep_theta)
            want = build_channel_lattice(PauliParams(*args), theta1=prep_theta)
            assert got == want
            assert got.metadata == want.metadata
            assert got.unitary.tobytes() == want.unitary.tobytes()

    def test_weight_normalization_enforced(self):
        with pytest.raises(InvalidArgument):
            build_pauli_lattice(0.5, 0.6, 0.3, 0.3)


def gad_closed_form(theta1, theta2, theta3):
    """The two-layer run written out by hand: the H sector carries the
    environment-ground modes, the V sector the excited ones (basis |se>)."""
    a1, b1 = np.cos(2 * theta1), np.sin(2 * theta1)
    a2, b2 = np.sin(2 * theta2), np.cos(2 * theta2)
    p = np.sin(2 * theta3) ** 2
    stay, move = np.sqrt(1.0 - p), np.sqrt(p)
    h = np.zeros(4, dtype=complex)
    v = np.zeros(4, dtype=complex)
    h[0b00] = a1 * a2
    h[0b10] = b1 * a2 * stay
    h[0b01] = b1 * a2 * move
    v[0b01] = a1 * b2 * stay
    v[0b10] = a1 * b2 * move
    v[0b11] = b1 * b2
    return np.outer(h, h.conj()) + np.outer(v, v.conj())


class TestGadExperiment:
    def test_lattice_matches_closed_form(self):
        rng = np.random.default_rng(8)
        worst = 0.0
        for angles in rng.uniform(-np.pi, np.pi, size=(500, 3)):
            rho = gad_experiment(*angles)
            worst = max(worst, float(np.max(np.abs(rho.matrix - gad_closed_form(*angles)))))
        assert worst <= 1e-12

    def test_reference_fidelity_matches_closed_form(self):
        rng = np.random.default_rng(9)
        triples = [REFERENCE_GAD_ANGLES] + list(rng.uniform(-np.pi, np.pi, size=(50, 3)))
        for angles in triples:
            f = fidelity(gad_experiment(*angles), REFERENCE_GAD_MATRIX)
            want = fidelity(gad_closed_form(*angles), REFERENCE_GAD_MATRIX)
            # both states have rank 2; the square roots of their rounding-level
            # eigenvalues limit the fidelity's accuracy to ~1e-8
            assert abs(f - want) <= 1e-7

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e308, -1e308])
    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_non_finite_angle_rejected(self, bad, slot):
        angles = [0.3, 0.5, 0.7]
        angles[slot] = bad
        with pytest.raises(InvalidArgument):
            gad_experiment(*angles)

    def test_no_transition_angle_leaves_product_state(self):
        rho = gad_experiment(np.pi / 8, np.pi / 8, np.pi / 2)
        a1, b1 = np.cos(np.pi / 4), np.sin(np.pi / 4)
        a2, b2 = np.sin(np.pi / 4), np.cos(np.pi / 4)
        want = np.kron([[a1 * a1, a1 * b1], [a1 * b1, b1 * b1]], np.diag([a2 * a2, b2 * b2]))
        np.testing.assert_allclose(rho.matrix, want, atol=1e-14)

    def test_reference_point_fidelity(self):
        rho = gad_experiment(*REFERENCE_GAD_ANGLES)
        f = fidelity(rho, REFERENCE_GAD_MATRIX)
        assert 0.92 <= f <= 0.98

    @pytest.mark.parametrize("theta3", [0.1, 0.45, 0.8, 1.3])
    def test_corner_populations_do_not_depend_on_theta3(self, theta3):
        theta1, theta2 = 0.3, 0.5
        rho = gad_experiment(theta1, theta2, theta3).matrix
        assert rho[0, 0].real == pytest.approx(
            np.cos(2 * theta1) ** 2 * np.sin(2 * theta2) ** 2, abs=1e-12
        )
        assert rho[3, 3].real == pytest.approx(
            np.sin(2 * theta1) ** 2 * np.cos(2 * theta2) ** 2, abs=1e-12
        )


class TestReferenceMatrix:
    def test_diagnostics_of_reconstructed_reference(self):
        # measured matrix: tiny trace deficit and one slightly negative
        # eigenvalue are expected from the reconstruction, nothing worse
        from krausloom.qmath import validate_density

        rep = validate_density(REFERENCE_GAD_MATRIX)
        assert rep.hermiticity_residual == 0.0
        assert rep.trace_deviation < 5e-6
        assert rep.min_eigenvalue > -1e-6
        assert rep.ok(trace_atol=5e-6, eig_atol=1e-6)


class TestComposedUnitary:
    def test_whole_circuit_reuses_the_checked_unitary(self):
        lattice = build_channel_lattice(GADParams(0.3, 0.6), theta1=0.8)
        assert circuit_unitary(lattice) is lattice.unitary
        assert circuit_unitary(lattice, "project") is lattice.unitary
        assert not lattice.unitary.flags.writeable

    def test_cutoff_composes_only_the_stages_it_keeps(self):
        lattice = build_channel_lattice(GADParams(0.3, 0.6), theta1=0.8)
        prep = circuit_unitary(lattice, "prepare")
        assert prep is not lattice.unitary
        np.testing.assert_allclose(stage_unitary(lattice, "evolve") @ prep, lattice.unitary,
                                   atol=1e-12)

    def test_out_of_order_stages(self):
        lattice = build_channel_lattice(DephasingParams(0.4), theta1=1.2)
        # evolve layers first, then the preparation: a cutoff at prepare must
        # leave out the evolve layers that come before it
        n_prep = lattice.stages.count("prepare")
        layers = lattice.layers[n_prep:] + lattice.layers[:n_prep]
        stages = lattice.stages[n_prep:] + lattice.stages[:n_prep]
        swapped = CircuitSpec(lattice.register, layers, stages)
        np.testing.assert_allclose(circuit_unitary(swapped, "prepare"),
                                   circuit_unitary(lattice, "prepare"), atol=1e-12)
        np.testing.assert_allclose(
            circuit_unitary(swapped),
            circuit_unitary(lattice, "prepare") @ stage_unitary(lattice, "evolve"), atol=1e-12)

    def test_equality_ignores_the_cached_unitary(self):
        a = build_channel_lattice(DephasingParams(0.4), theta1=1.2)
        b = build_channel_lattice(DephasingParams(0.4), theta1=1.2)
        assert a == b and hash(a) == hash(b)
        assert "unitary" not in repr(a)


class TestCircuitSerialization:
    def test_round_trip(self):
        lattice = build_channel_lattice(SGADParams(0.3, 0.2, 0.5, 0.4, 0.7, 0.2, 0.8), theta1=0.7)
        again = circuit_from_payload(circuit_to_payload(lattice))
        np.testing.assert_allclose(circuit_unitary(again), circuit_unitary(lattice), atol=1e-12)
        assert again.stages == lattice.stages

    @pytest.mark.parametrize("build", [
        lambda rng: preparation_circuit(ProductStateParams(*rng.uniform(-7, 7, size=2))),
        lambda rng: preparation_circuit(ProductStateParams(*rng.uniform(-7, 7, size=2), "experimental")),
        lambda rng: build_channel_lattice(DephasingParams(rng.uniform()), theta1=rng.uniform(-7, 7)),
        lambda rng: build_channel_lattice(GADParams(*rng.uniform(size=2)), theta1=rng.uniform(-7, 7)),
        lambda rng: build_channel_lattice(SGADParams(*rng.uniform(size=4), *rng.uniform(0, 7, size=2),
                                                     rng.uniform()), theta1=rng.uniform(-7, 7)),
        lambda rng: build_channel_lattice(PauliParams(rng.uniform(), 0.2, 0.3, 0.5),
                                          theta1=rng.uniform(-7, 7)),
    ], ids=["prepare-half-angle", "prepare-experimental", "dephasing", "gad", "sgad", "pauli"])
    def test_file_round_trip_is_bit_for_bit(self, build, tmp_path):
        rng = np.random.default_rng(31)
        for k in range(10):
            circuit = build(rng)
            payload = circuit_to_payload(circuit)
            again = circuit_from_payload(payload)
            texts = []
            for name, p in (("first", payload), ("again", circuit_to_payload(again))):
                save_json(p, str(tmp_path / f"{name}{k}.json"))
                texts.append((tmp_path / f"{name}{k}.json").read_text())
            assert texts[0] == texts[1]
            assert again == circuit
            assert again.unitary.tobytes() == circuit.unitary.tobytes()

    def test_bad_payload_rejected(self):
        with pytest.raises(InvalidArgument):
            circuit_from_payload({"register": ["polarization"]})

    def test_layer_disjointness_enforced(self):
        lattice = build_channel_lattice(DephasingParams(0.5))
        merged = (lattice.layers[0] + lattice.layers[0],)
        with pytest.raises(InvalidArgument):
            CircuitSpec(lattice.register, merged, ("prepare",))
