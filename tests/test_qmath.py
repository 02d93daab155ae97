import numpy as np
import pytest
from conftest import random_density, random_pure
from hypothesis import given, settings
from hypothesis import strategies as st

from krausloom.errors import InvalidArgument, InvalidState
from krausloom.gates import U3Params, u3
from krausloom.qmath import (
    ATOL_ARITHMETIC,
    DensityMatrix,
    PureState,
    check_densities,
    dagger,
    density_from_payload,
    density_to_payload,
    fidelity,
    partial_trace,
    state_from_payload,
    state_to_payload,
    structural_atol,
    tensor,
    save_json,
    unitarity_residual,
    validate_density,
    write_atomic,
)

I2 = np.eye(2)


class TestTensor:
    def test_identity_case(self):
        assert np.array_equal(tensor(I2, I2), np.eye(4))

    def test_basis_case(self):
        ket0 = PureState([1, 0], (2,))
        ket1 = PureState([0, 1], (2,))
        out = tensor(ket0, ket1)
        assert out.dims == (2, 2)
        np.testing.assert_array_equal(out.amplitudes, [0, 1, 0, 0])

    def test_diagonal_expansion(self):
        # kron of diag(a,b) and diag(c,d) expanded by hand: diag(ac, ad, bc, bd)
        a, b, c, d = 1.5, -0.5, 2.0, 3.0
        out = tensor(np.diag([a, b]), np.diag([c, d]))
        np.testing.assert_array_equal(out, np.diag([a * c, a * d, b * c, b * d]))

    def test_associative_exactly_on_representable_entries(self, rng):
        # dyadic entries keep every product exact, so equality is bitwise
        ms = [
            (rng.integers(-8, 8, size=(2, 2)) + 1j * rng.integers(-8, 8, size=(2, 2))) / 4.0
            for _ in range(3)
        ]
        left = tensor(tensor(ms[0], ms[1]), ms[2])
        right = tensor(ms[0], tensor(ms[1], ms[2]))
        assert np.array_equal(left, right)

    def test_associative_within_rounding_generally(self, rng):
        ms = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)]
        left = tensor(tensor(ms[0], ms[1]), ms[2])
        right = tensor(ms[0], tensor(ms[1], ms[2]))
        np.testing.assert_allclose(left, right, rtol=1e-15)

    def test_dims_concatenate(self, rng):
        rho = tensor(random_density(rng, (2,)), random_density(rng, (2, 2)))
        assert rho.dims == (2, 2, 2)

    def test_mixed_operands_rejected(self, rng):
        with pytest.raises(InvalidArgument):
            tensor(random_density(rng, (2,)), I2)


class TestPartialTrace:
    def test_bell_marginal(self):
        bell = PureState(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2))
        out = partial_trace(bell.density(), keep=(0,))
        np.testing.assert_allclose(out.matrix, I2 / 2, atol=1e-15)

    def test_product_marginal(self, rng):
        rho_s = random_density(rng, (2,))
        rho_e = random_density(rng, (2,))
        joint = tensor(rho_s, rho_e)
        out = partial_trace(joint, keep=(0,))
        np.testing.assert_allclose(out.matrix, rho_s.matrix, atol=1e-14)

    def test_trace_preserved(self, rng):
        for _ in range(20):
            rho = random_density(rng, (2, 2, 2))
            keep = ((0,), (1,), (0, 2), (0, 1, 2))[rng.integers(4)]
            out = partial_trace(rho, keep)
            assert abs(np.trace(out.matrix) - np.trace(rho.matrix)) < 1e-12

    def test_keeps_original_order(self, rng):
        rho = random_density(rng, (2, 2, 2))
        out = partial_trace(rho, keep=(2, 0))
        again = partial_trace(rho, keep=(0, 2))
        np.testing.assert_array_equal(out.matrix, again.matrix)

    def test_empty_keep_rejected(self, rng):
        with pytest.raises(InvalidArgument):
            partial_trace(random_density(rng), keep=())


class TestFidelity:
    def test_self_fidelity(self, rng):
        rho = random_density(rng)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_states(self):
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        assert fidelity(p0, p1) == pytest.approx(0.0, abs=1e-12)

    def test_mixed_vs_pure_closed_form(self):
        # commuting pair: F = (sum_i sqrt(p_i q_i))^2 = (sqrt(0.5 * 1))^2
        assert fidelity(I2 / 2, np.diag([1.0, 0.0])) == pytest.approx(0.5, abs=1e-12)

    def test_symmetric(self, rng):
        for _ in range(10):
            a, b = random_density(rng), random_density(rng)
            assert abs(fidelity(a, b) - fidelity(b, a)) < 1e-9

    def test_unit_iff_equal_for_pure_target(self, rng):
        for _ in range(10):
            psi = random_pure(rng)
            phi = random_pure(rng)
            assert fidelity(psi.density(), psi.density()) == pytest.approx(1.0, abs=1e-10)
            overlap = abs(np.vdot(psi.amplitudes, phi.amplitudes)) ** 2
            # sqrt of clipped near-zero eigenvalues limits accuracy to ~1e-8
            assert fidelity(psi.density(), phi.density()) == pytest.approx(overlap, abs=1e-7)

    def test_rejects_far_from_psd(self):
        bad = np.diag([1.5, -0.5])
        with pytest.raises(InvalidState):
            fidelity(bad, I2 / 2)

    @pytest.mark.parametrize("rank", [1, 2])
    def test_rank_deficient_rho_matches_support_closed_form(self, rng, rank):
        # rho = W W^dagger with W of full column rank: F = (Tr sqrt(W^dagger sigma W))^2
        for _ in range(20):
            w = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
            w /= np.linalg.norm(w)
            sigma = random_density(rng).matrix
            want = np.sum(np.sqrt(np.linalg.eigvalsh(w.conj().T @ sigma @ w))) ** 2
            assert abs(fidelity(w @ w.conj().T, sigma) - want) <= 1e-13

    def test_full_rank_matches_square_root_of_every_eigenvalue(self, rng):
        def sqrt_everywhere(a, b):
            """Reference: sqrt(rho) from every eigenvalue of rho, clipped at 0."""
            w, v = np.linalg.eigh(a)
            sq = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
            inner = sq @ b @ sq
            lam = np.clip(np.linalg.eigvalsh((inner + inner.conj().T) / 2), 0.0, None)
            return min(float(np.sum(np.sqrt(lam)) ** 2), 1.0)

        for dims in ((2,), (2, 2), (2, 2, 2)):
            for _ in range(30):
                a, b = random_density(rng, dims).matrix, random_density(rng, dims).matrix
                assert abs(fidelity(a, b) - sqrt_everywhere(a, b)) <= 1e-12

    def test_zero_support_gives_zero(self):
        assert fidelity(np.zeros((2, 2)), I2 / 2) == 0.0


class TestDagger:
    def test_identity(self):
        np.testing.assert_array_equal(dagger(I2), I2)

    def test_conjugate_transpose_by_definition(self):
        m = np.array([[0, 1j], [0, 0]])
        np.testing.assert_array_equal(dagger(m), np.array([[0, 0], [-1j, 0]]))

    def test_involution_exact(self, rng):
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.array_equal(dagger(dagger(m)), m)

    def test_u3_unitarity_via_dagger(self, rng):
        for _ in range(25):
            p = U3Params(*rng.uniform(0, 2 * np.pi, size=3))
            g = u3(p)
            np.testing.assert_allclose(dagger(g) @ g, I2, atol=1e-14)


class TestValidateDensity:
    def test_maximally_mixed(self):
        rep = validate_density(I2 / 2)
        assert rep.hermiticity_residual == 0.0
        assert rep.trace_deviation == 0.0
        assert rep.min_eigenvalue == pytest.approx(0.5)

    def test_trace_deviation_arithmetic(self):
        rep = validate_density(np.diag([0.5, 0.6]))
        assert rep.trace_deviation == pytest.approx(0.1, abs=1e-15)

    def test_nonsquare_rejected(self):
        with pytest.raises(InvalidArgument):
            validate_density(np.zeros((2, 3)))

    def test_unitary_conjugation_bounded_residuals(self, rng):
        for _ in range(10):
            rho = random_density(rng, (2, 2))
            rep_in = validate_density(rho)
            p = U3Params(*rng.uniform(0, 2 * np.pi, size=3))
            un = np.kron(u3(p), u3(p))
            rep_out = validate_density(un @ rho.matrix @ dagger(un))
            floor = ATOL_ARITHMETIC
            assert rep_out.hermiticity_residual <= 10 * max(rep_in.hermiticity_residual, floor)
            assert rep_out.trace_deviation <= 10 * max(rep_in.trace_deviation, floor)
            assert rep_out.min_eigenvalue >= min(rep_in.min_eigenvalue, 0) - 10 * floor


class TestInvariants:
    def test_state_norm_enforced(self):
        with pytest.raises(InvalidState):
            PureState([1.0, 1.0], (2,))

    def test_state_finite_enforced(self):
        with pytest.raises(InvalidState):
            PureState([np.nan, 0.0], (2,))

    def test_density_psd_enforced(self):
        with pytest.raises(InvalidState):
            DensityMatrix(np.diag([1.5, -0.5]), (2,))

    def test_density_eig_check_can_be_deferred(self):
        m = DensityMatrix(np.diag([1.5, -0.5]), (2,), eig_atol=None)
        assert validate_density(m).min_eigenvalue == pytest.approx(-0.5)

    def test_unitarity_residual(self, rng):
        p = U3Params(*rng.uniform(0, 2 * np.pi, size=3))
        assert unitarity_residual(u3(p)) < 1e-14
        assert unitarity_residual(np.diag([1.0, 2.0])) > 1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False), min_size=4, max_size=4))
def test_partial_trace_preserves_trace_property(amps):
    v = np.asarray(amps, dtype=complex)
    if np.linalg.norm(v) < 1e-3:
        return
    psi = PureState(v / np.linalg.norm(v), (2, 2))
    rho = psi.density()
    for keep in ((0,), (1,)):
        out = partial_trace(rho, keep)
        assert abs(np.trace(out.matrix) - 1.0) < 1e-12


def test_structural_tol_env_override(monkeypatch):
    monkeypatch.setenv("KRAUSLOOM_TOL", "1e-6")
    assert structural_atol() == 1e-6
    monkeypatch.setenv("KRAUSLOOM_TOL", "zero")
    with pytest.raises(InvalidArgument):
        structural_atol()
    monkeypatch.delenv("KRAUSLOOM_TOL")
    assert structural_atol() == 1e-10


class TestSerialization:
    def test_density_round_trip(self, rng):
        rho = random_density(rng, (2, 2))
        again = density_from_payload(density_to_payload(rho))
        assert np.array_equal(again.matrix, rho.matrix)
        assert again.dims == rho.dims

    def test_state_round_trip(self, rng):
        psi = random_pure(rng, (2, 2, 2))
        again = state_from_payload(state_to_payload(psi))
        assert np.array_equal(again.amplitudes, psi.amplitudes)

    def test_bad_payload_rejected(self):
        with pytest.raises(InvalidArgument):
            density_from_payload({"re": [[1]]})


class TestAtomicWrite:
    def test_save_json_bytes(self, tmp_path):
        import json

        path = tmp_path / "p.json"
        payload = {"b": [0.1, 1e-17], "a": {"z": 1, "y": "s"}}
        save_json(payload, str(path))
        assert path.read_text() == json.dumps(payload, sort_keys=True, indent=1) + "\n"
        assert [p.name for p in tmp_path.iterdir()] == ["p.json"]

    def test_failed_write_leaves_old_file(self, tmp_path):
        path = tmp_path / "out.txt"
        write_atomic(str(path), "old\n")
        with pytest.raises(TypeError):
            write_atomic(str(path), None)
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


class TestStackedChecks:
    def test_unitarity_residual_per_matrix(self):
        stack = np.stack([np.eye(2), 2 * np.eye(2)]).astype(complex)
        np.testing.assert_allclose(unitarity_residual(stack), [0.0, 3 * np.sqrt(2)])
        assert isinstance(unitarity_residual(np.eye(2)), float)

    def test_check_densities_names_the_failing_point(self):
        good = np.diag([0.5, 0.5]).astype(complex)
        bad = np.diag([1.5, -0.5]).astype(complex)
        check_densities(np.stack([good, good]))
        with pytest.raises(InvalidState, match="point 7: minimum eigenvalue"):
            check_densities(np.stack([good, bad]), first_index=6)
        check_densities(np.stack([good, bad]), eig_atol=None)
        with pytest.raises(InvalidState, match="^trace deviates"):
            check_densities(2 * good)
