import numpy as np
import pytest
from conftest import random_density, random_qubit
from hypothesis import given, settings
from hypothesis import strategies as st

from krausloom.channels import (
    DephasingParams,
    GADParams,
    KrausSet,
    PauliParams,
    SGADParams,
    bloch_vector,
    channel_action_distance,
    channel_kraus,
    choi,
    completeness_residual,
    dephasing_kraus,
    gad_kraus,
    kraus_apply,
    pauli_kraus,
    sgad_kraus,
)
from krausloom.errors import InvalidArgument, InvalidChannel
from krausloom.qmath import validate_density

PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


class TestKrausApply:
    def test_identity_set(self, rng):
        rho = random_density(rng, (2,))
        out = kraus_apply(rho, KrausSet((np.eye(2),)))
        np.testing.assert_array_equal(out.matrix, rho.matrix)

    def test_full_dephasing_kills_coherence(self):
        out = kraus_apply(PLUS, dephasing_kraus(1.0))
        np.testing.assert_allclose(out, np.diag([0.5, 0.5]), atol=1e-15)

    def test_full_damping_reaches_thermal_fixed_point(self, rng):
        # summing the four operator sandwiches at p=1 leaves diag(a2sq, b2sq)
        a2sq = 0.73
        k = gad_kraus(1.0, a2sq)
        for _ in range(5):
            rho = random_density(rng, (2,))
            out = kraus_apply(rho, k)
            np.testing.assert_allclose(out.matrix, np.diag([a2sq, 1 - a2sq]), atol=1e-12)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(InvalidArgument):
            kraus_apply(random_density(rng, (2, 2)), dephasing_kraus(0.5))

    def test_preserves_validity(self, rng):
        k = gad_kraus(0.37, 0.6)
        for _ in range(50):
            out = kraus_apply(random_density(rng, (2,)), k)
            rep = validate_density(out)
            assert rep.ok()


class TestDephasing:
    def test_p_zero(self):
        k = dephasing_kraus(0.0)
        np.testing.assert_array_equal(k.operators[0], np.eye(2))
        np.testing.assert_array_equal(k.operators[1], np.zeros((2, 2)))

    def test_p_half_entries(self):
        k = dephasing_kraus(0.5)
        r = np.sqrt(0.5)
        np.testing.assert_allclose(k.operators[0], np.diag([1, r]), atol=1e-15)
        np.testing.assert_allclose(k.operators[1], [[0, 0], [0, r]], atol=1e-15)

    def test_out_of_range(self):
        with pytest.raises(InvalidArgument):
            dephasing_kraus(1.5)

    def test_action_damps_offdiagonal_only(self, rng):
        p = 0.3
        rho = random_density(rng, (2,))
        out = kraus_apply(rho, dephasing_kraus(p))
        np.testing.assert_allclose(np.diag(out.matrix), np.diag(rho.matrix), atol=1e-14)
        assert out.matrix[0, 1] == pytest.approx(np.sqrt(1 - p) * rho.matrix[0, 1], abs=1e-14)


class TestGAD:
    def test_p_zero_is_identity_channel(self, rng):
        k = gad_kraus(0.0, 0.4)
        rho = random_density(rng, (2,))
        np.testing.assert_allclose(kraus_apply(rho, k).matrix, rho.matrix, atol=1e-14)

    def test_ground_bath_reduces_to_plain_damping(self):
        # alpha2_sq = 1: |1><1| -> (1-p)|1><1| + p|0><0|
        p = 0.42
        k = gad_kraus(p, 1.0)
        out = kraus_apply(np.diag([0.0, 1.0]).astype(complex), k)
        np.testing.assert_allclose(out, np.diag([p, 1 - p]), atol=1e-14)

    def test_population_relaxation_rate(self, rng):
        p, a2 = 0.37, 0.61
        k = gad_kraus(p, a2)
        rho = random_density(rng, (2,))
        out = kraus_apply(rho, k)
        a = rho.matrix[0, 0].real
        assert out.matrix[0, 0].real == pytest.approx((1 - p) * a + p * a2, abs=1e-12)

    def test_same_bath_composition_is_a_semigroup(self, rng):
        p1, p2, a2 = 0.3, 0.45, 0.7
        k1, k2 = gad_kraus(p1, a2), gad_kraus(p2, a2)
        k12 = gad_kraus(1 - (1 - p1) * (1 - p2), a2)
        for _ in range(5):
            rho = random_density(rng, (2,))
            once = kraus_apply(kraus_apply(rho, k1), k2)
            direct = kraus_apply(rho, k12)
            np.testing.assert_allclose(once.matrix, direct.matrix, atol=1e-10)


class TestSGAD:
    def test_all_rates_zero_is_identity(self, rng):
        k = sgad_kraus(SGADParams(0, 0, 0, 0, 0.7, 1.3, 0.5))
        rho = random_density(rng, (2,))
        np.testing.assert_allclose(kraus_apply(rho, k).matrix, rho.matrix, atol=1e-14)

    def test_operator_entries_as_defined(self):
        prm = SGADParams(0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.64)
        kset = sgad_kraus(prm)
        k = dict(zip(kset.labels, kset.operators))
        sa2, sb2 = np.sqrt(0.64), np.sqrt(0.36)
        np.testing.assert_allclose(
            k["M00"], sa2 * np.diag([np.sqrt(0.8), np.sqrt(0.7)]), atol=1e-15
        )
        np.testing.assert_allclose(
            k["M01"],
            sa2 * np.array([[0, np.sqrt(0.3)], [np.sqrt(0.2) * np.exp(-0.6j), 0]]),
            atol=1e-15,
        )
        np.testing.assert_allclose(
            k["M11"], sb2 * np.diag([np.sqrt(0.6), np.sqrt(0.5)]), atol=1e-15
        )
        np.testing.assert_allclose(
            k["M10"],
            sb2 * np.array([[0, np.sqrt(0.5)], [np.sqrt(0.4) * np.exp(-0.7j), 0]]),
            atol=1e-15,
        )

    def test_reduces_to_gad(self):
        for p in np.linspace(0, 1, 7):
            a2 = 0.62
            reduced = sgad_kraus(SGADParams(0.0, p, p, 0.0, 0.0, 0.0, a2))
            assert channel_action_distance(reduced, gad_kraus(p, a2)) < 1e-12

    def test_completeness_holds_across_rates(self, rng):
        for _ in range(25):
            prm = SGADParams(*rng.uniform(0, 1, 4), rng.uniform(0, 7), rng.uniform(0, 7), rng.uniform(0, 1))
            assert completeness_residual(sgad_kraus(prm)) < 1e-12


class TestPauli:
    def test_p_zero_is_identity(self, rng):
        k = pauli_kraus(0.0, 0.2, 0.3, 0.5)
        rho = random_density(rng, (2,))
        np.testing.assert_allclose(kraus_apply(rho, k).matrix, rho.matrix, atol=1e-14)

    def test_pure_phase_flip(self):
        out = kraus_apply(PLUS, pauli_kraus(1.0, 0.0, 0.0, 1.0))
        np.testing.assert_allclose(out, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)

    def test_uniform_weights_shrink_bloch_vector(self, rng):
        for p in (0.2, 0.6, 1.0):
            k = pauli_kraus(p, 1 / 3, 1 / 3, 1 / 3)
            rho = random_density(rng, (2,))
            r_in = np.array(bloch_vector(rho))
            r_out = np.array(bloch_vector(kraus_apply(rho, k)))
            np.testing.assert_allclose(r_out, (1 - 4 * p / 3) * r_in, atol=1e-12)

    def test_componentwise_bloch_scaling(self, rng):
        # sigma_i preserves r_i and flips the other two components, so
        # r_x scales by 1 - 2p(q2 + q3), and cyclically
        p, q1, q2, q3 = 0.55, 0.5, 0.3, 0.2
        k = pauli_kraus(p, q1, q2, q3)
        scales = (1 - 2 * p * (q2 + q3), 1 - 2 * p * (q1 + q3), 1 - 2 * p * (q1 + q2))
        for _ in range(10):
            v = random_qubit(rng)
            rho = np.outer(v, v.conj())
            r_in = np.array(bloch_vector(rho))
            r_out = np.array(bloch_vector(kraus_apply(rho, k)))
            np.testing.assert_allclose(r_out, np.array(scales) * r_in, atol=1e-12)

    def test_weight_normalization_enforced(self):
        with pytest.raises(InvalidArgument):
            pauli_kraus(0.5, 0.5, 0.5, 0.5)


class TestCompletenessResidual:
    def test_identity(self):
        assert completeness_residual([np.eye(2)]) == 0.0

    def test_gad_algebraic_identity(self):
        assert completeness_residual(gad_kraus(0.3, 0.8)) < 1e-12

    def test_double_identity(self):
        # sum M^dagger M = 2I, residual ||I||_F = sqrt(2)
        assert completeness_residual([np.eye(2), np.eye(2)]) == pytest.approx(np.sqrt(2))

    def test_grid_of_constructors(self):
        grid = np.linspace(0, 1, 11)
        for p in grid:
            assert completeness_residual(dephasing_kraus(p)) < 1e-10
            for a2 in grid:
                assert completeness_residual(gad_kraus(p, a2)) < 1e-10

    def test_violation_rejected_at_construction(self):
        with pytest.raises(InvalidChannel):
            KrausSet((np.eye(2), np.eye(2)))


class TestChoi:
    def test_identity_channel_is_the_unnormalized_bell_projector(self):
        want = np.zeros((4, 4), dtype=complex)
        want[np.ix_([0, 3], [0, 3])] = 1.0
        np.testing.assert_array_equal(choi([np.eye(2)]), want)

    def test_blocks_are_the_actions_on_the_basis(self, rng):
        for d in (2, 3):
            k = _random_kraus(rng, d, 3)
            j = choi(k.operators).reshape(d, d, d, d)  # [i, a, j, b]
            for i in range(d):
                for jj in range(d):
                    e = np.zeros((d, d), dtype=complex)
                    e[i, jj] = 1.0
                    np.testing.assert_allclose(j[i, :, jj, :], kraus_apply(e, k), rtol=0, atol=1e-15)

    def test_stack_gives_each_point_its_matrix(self):
        points = [PauliParams(p, 0.5, 0.3, 0.2) for p in (0.0, 0.4, 1.0)]
        stack = np.stack([np.asarray(channel_kraus(prm).operators) for prm in points])
        got = choi(stack)
        assert got.shape == (3, 4, 4)
        for j, prm in zip(got, points):
            np.testing.assert_allclose(j, choi(channel_kraus(prm).operators), rtol=0, atol=1e-15)


def _random_kraus(rng, d, k):
    """k operators on dimension d cut from a random isometry, so complete."""
    a = rng.normal(size=(k * d, d)) + 1j * rng.normal(size=(k * d, d))
    q, _ = np.linalg.qr(a)
    return KrausSet(q.reshape(k, d, d))


def _basis_loop_distance(k1, k2):
    """Reference: the largest entrywise gap of the two actions over |i><j|."""
    d = k1.dim
    worst = 0.0
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            worst = max(worst, float(np.max(np.abs(kraus_apply(e, k1) - kraus_apply(e, k2)))))
    return worst


class TestChannelActionDistance:
    def test_matches_basis_loop_on_random_pairs(self, rng):
        for d in (2, 3):
            for k1, k2 in ((1, 1), (2, 4), (4, 3)):
                a, b = _random_kraus(rng, d, k1), _random_kraus(rng, d, k2)
                want = _basis_loop_distance(a, b)
                assert want > 1e-3
                assert channel_action_distance(a, b) == pytest.approx(want, abs=1e-14)

    def test_same_channel_in_another_basis_is_distance_zero(self):
        k = gad_kraus(0.3, 0.7)
        h = np.array([[1, 1, 0, 0], [1, -1, 0, 0], [0, 0, 1, 1], [0, 0, 1, -1]]) / np.sqrt(2)
        mixed = KrausSet(np.einsum("nm,mab->nab", h, np.asarray(k.operators)))
        assert channel_action_distance(k, mixed) < 1e-15

    def test_dimension_mismatch(self, rng):
        with pytest.raises(InvalidArgument):
            channel_action_distance(_random_kraus(rng, 2, 2), _random_kraus(rng, 3, 2))


class TestBlochVector:
    def test_maximally_mixed(self):
        assert bloch_vector(np.eye(2) / 2) == (0.0, 0.0, 0.0)

    def test_ground_state(self):
        assert bloch_vector(np.diag([1.0, 0.0])) == (0.0, 0.0, 1.0)

    def test_plus_state(self):
        assert bloch_vector(PLUS) == (1.0, 0.0, 0.0)

    def test_wrong_dimension(self):
        with pytest.raises(InvalidArgument):
            bloch_vector(np.eye(4) / 4)


@settings(max_examples=80, deadline=None)
@given(st.floats(0, 1), st.floats(0, 1))
def test_gad_completeness_property(p, a2sq):
    assert completeness_residual(gad_kraus(p, a2sq)) < 1e-10


@settings(max_examples=40, deadline=None)
@given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 2 * np.pi))
def test_kraus_apply_preserves_trace_and_hermiticity(p, a2sq, seed_angle):
    c, s = np.cos(seed_angle), np.sin(seed_angle)
    rho = np.array([[c * c, c * s], [c * s, s * s]], dtype=complex)
    out = kraus_apply(rho, gad_kraus(p, a2sq))
    assert abs(np.trace(out) - 1.0) < 1e-10
    assert np.max(np.abs(out - out.conj().T)) < 1e-10


def test_channel_kraus_dispatch():
    assert len(channel_kraus(DephasingParams(0.1))) == 2
    assert len(channel_kraus(GADParams(0.1, 0.5))) == 4
    assert len(channel_kraus(SGADParams(0.1, 0.2, 0.3, 0.4, 0, 0, 0.5))) == 4
    assert len(channel_kraus(PauliParams(0.1, 1 / 3, 1 / 3, 1 / 3))) == 4
