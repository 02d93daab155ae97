import json

import numpy as np
import pytest
from conftest import random_density, random_pure
from scipy import stats

from krausloom.circuit import ProductStateParams, prepare_product_state
from krausloom.errors import InvalidArgument, InvalidState
from krausloom.gates import u3
from krausloom.qmath import DensityMatrix, fidelity, validate_density
from krausloom.tomography import (
    CountRecord,
    assert_informationally_complete,
    hv_block_empty,
    linear_reconstruct,
    load_counts,
    ml_reconstruct,
    project_to_psd,
    projector,
    projector_matrix,
    save_counts,
    settings_table,
    simulate_counts,
    traced_truth,
)


class TestSettingsTable:
    def test_sixteen_rows(self):
        table = settings_table()
        assert [s.index for s in table] == list(range(1, 17))

    def test_row_1(self):
        row = settings_table()[0]
        assert row.label == ("H", "H")
        assert (row.u1.theta, row.u1.phi, row.u1.lam) == (0.0, 0.0, np.pi)
        assert (row.u2.theta, row.u2.phi, row.u2.lam) == (0.0, 0.0, np.pi)

    def test_row_10(self):
        row = settings_table()[9]
        assert row.label == ("D", "D")
        for u in (row.u1, row.u2):
            assert (u.theta, u.phi, u.lam) == (np.pi / 2, 0.0, np.pi / 2)

    def test_row_16(self):
        row = settings_table()[15]
        assert row.label == ("R", "R")
        for u in (row.u1, row.u2):
            assert (u.theta, u.phi, u.lam) == (np.pi / 2, np.pi / 2, np.pi / 2)

    def test_labels_cover_all_pairs(self):
        labels = {s.label for s in settings_table()}
        assert labels == {(a, b) for a in "HVDR" for b in "HVDR"}


class TestProjectors:
    def test_row_1_projects_on_00(self):
        v = projector(settings_table()[0]).amplitudes
        phase = v[0] / abs(v[0])
        np.testing.assert_allclose(v / phase, [1, 0, 0, 0], atol=1e-15)

    def test_row_8_diagonal_horizontal(self):
        # (pi/2, 0, pi/2) applied to |0> gives (|0> + |1>)/sqrt(2)
        v = projector(settings_table()[7]).amplitudes
        want = np.kron([1, 1] / np.sqrt(2), [1, 0])
        phase = v[np.argmax(abs(v))] / want[np.argmax(abs(v))]
        np.testing.assert_allclose(v, phase * want, atol=1e-15)

    def test_circular_setting_has_imaginary_part(self):
        v = projector(settings_table()[4]).amplitudes  # (R, H)
        assert np.max(np.abs(v.imag)) > 0.1

    def test_informationally_complete(self):
        assert_informationally_complete()
        stack = np.array([projector_matrix(s).reshape(-1) for s in settings_table()])
        assert np.linalg.matrix_rank(stack, tol=1e-10) == 16


def test_noisy_cli_run_builds_no_projectors(monkeypatch, capsys):
    from krausloom import cli, tomography

    calls = []

    def counting_u3(params):
        calls.append(params)
        return u3(params)

    monkeypatch.setattr(tomography, "u3", counting_u3)
    assert cli.main(["tomography", "--theta1", "0.9", "--noise", "--shots", "5000"]) == 0
    capsys.readouterr()
    assert calls == []


def loop_branches(rho):
    """Reference: each setting's (H, V) branch probabilities, one trace at a time."""
    out = []
    for setting in settings_table():
        proj = projector_matrix(setting)
        if rho.dims == (2, 2):
            p = float(np.real(np.trace(rho.matrix @ proj)))
            out.append((min(max(p, 0.0), 1.0), 0.0))
        else:
            arr = rho.matrix.reshape(2, 2, 2, 2, 2, 2)
            h, v = (float(np.real(np.trace(arr[:, :, pol, :, :, pol].reshape(4, 4) @ proj)))
                    for pol in (0, 1))
            out.append((max(h, 0.0), max(v, 0.0)))
    return out


class TestSimulateCountsAgainstLoop:
    def inputs(self, rng):
        lattice_state = prepare_product_state(ProductStateParams(1.2, 0.8)).density()
        return [random_density(rng), random_pure(rng).density(), lattice_state]

    def test_probabilities(self, rng):
        for rho in self.inputs(rng):
            records = simulate_counts(rho, shots=1000)
            for rec, (h, v) in zip(records, loop_branches(rho)):
                assert rec.expected_probability == pytest.approx(min(h + v, 1.0), abs=1e-15)

    def test_poisson_draws_h_then_v_setting_by_setting(self, rng):
        for rho in self.inputs(rng):
            draws = np.random.default_rng(5)
            want = [int(draws.poisson(h * 3000)) + int(draws.poisson(v * 3000))
                    for h, v in loop_branches(rho)]
            got = [r.counts for r in simulate_counts(rho, shots=3000, noise=True, seed=5)]
            assert got == want


class TestSimulateCounts:
    def test_basis_state_hits_only_row_1(self):
        rho = DensityMatrix(np.diag([1.0, 0, 0, 0]), (2, 2))
        records = simulate_counts(rho, shots=1000, noise=False)
        assert records[0].counts == 1000
        for r in records[1:4]:
            assert r.counts == 0

    def test_maximally_mixed_quarter_rows(self):
        rho = DensityMatrix(np.eye(4) / 4, (2, 2))
        records = simulate_counts(rho, shots=1000, noise=False)
        for r in records[:4]:
            assert r.counts == 250
            assert r.expected_probability == pytest.approx(0.25, abs=1e-15)

    def test_seed_determinism(self, rng):
        rho = random_density(rng)
        a = simulate_counts(rho, shots=5000, noise=True, seed=42)
        b = simulate_counts(rho, shots=5000, noise=True, seed=42)
        assert [r.counts for r in a] == [r.counts for r in b]
        c = simulate_counts(rho, shots=5000, noise=True, seed=43)
        assert [r.counts for r in a] != [r.counts for r in c]

    def test_shots_must_be_positive(self, rng):
        with pytest.raises(InvalidArgument):
            simulate_counts(random_density(rng), shots=0)

    def test_polarization_branches_sum(self):
        # an 8-dim lattice state is measured per polarization and summed;
        # the result must agree with tomography of its two-qubit marginal
        psi = prepare_product_state(ProductStateParams(1.2, 0.8))
        via_branches = simulate_counts(psi.density(), shots=10**9, noise=False)
        via_marginal = simulate_counts(traced_truth(psi), shots=10**9, noise=False)
        for a, b in zip(via_branches, via_marginal):
            assert abs(a.counts - b.counts) <= 1


class TestLinearReconstruct:
    def test_round_trip_on_random_states(self, rng):
        for _ in range(20):
            rho = random_density(rng)
            records = simulate_counts(rho, shots=10**12, noise=False)
            out = linear_reconstruct(records)
            np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-8)

    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(4) / 4, (2, 2))
        out = linear_reconstruct(simulate_counts(rho, shots=10**12, noise=False))
        np.testing.assert_allclose(out.matrix, np.eye(4) / 4, atol=1e-10)

    def test_missing_settings_rejected(self, rng):
        records = simulate_counts(random_density(rng), shots=1000)[:15]
        with pytest.raises(InvalidArgument):
            linear_reconstruct(records)

    def test_empty_hv_block_rejected(self, rng):
        records = simulate_counts(random_density(rng), shots=1000)
        emptied = [
            CountRecord(r.setting_index, r.label, None, 0, r.total_shots)
            if r.setting_index <= 4
            else r
            for r in records
        ]
        assert hv_block_empty(emptied) and not hv_block_empty(records)
        with pytest.raises(InvalidArgument, match="H/V block"):
            linear_reconstruct(emptied)

    def test_per_row_totals_supported(self, rng):
        rho = random_density(rng)
        records = simulate_counts(rho, shots=10**12, noise=False)
        # rescale one row's totals; reconstruction switches to per-row rates
        doubled = [
            CountRecord(r.setting_index, r.label, None, r.counts * 2, r.total_shots * 2)
            if r.setting_index == 7
            else r
            for r in records
        ]
        out = linear_reconstruct(doubled)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-8)


class TestProjectToPsd:
    def test_valid_state_unchanged(self, rng):
        rho = random_density(rng)
        out = project_to_psd(rho)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_clip_and_renormalize(self):
        out = project_to_psd(np.diag([1.1, -0.1]), dims=(2,))
        np.testing.assert_allclose(out.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_clip_then_divide(self):
        out = project_to_psd(np.diag([0.6, 0.6, -0.2, 0.0]), dims=(2, 2))
        np.testing.assert_allclose(out.matrix, np.diag([0.5, 0.5, 0, 0]), atol=1e-12)

    def test_idempotent(self, rng):
        first = project_to_psd(np.diag([0.8, 0.4, -0.2, 0.0]), dims=(2, 2))
        second = project_to_psd(first)
        np.testing.assert_allclose(second.matrix, first.matrix, atol=1e-14)

    def test_non_hermitian_rejected(self):
        bad = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(InvalidState):
            project_to_psd(bad, dims=(2,))


class TestMLReconstruct:
    def test_agrees_with_linear_on_exact_data(self, rng):
        truth = random_pure(rng).density()
        records = simulate_counts(truth, shots=10**8, noise=False)
        lin = linear_reconstruct(records)
        ml = ml_reconstruct(records)
        assert np.max(np.abs(ml.rho.matrix - lin.matrix)) < 1e-6

    def test_uniform_counts_fixed_point(self):
        rho = DensityMatrix(np.eye(4) / 4, (2, 2))
        ml = ml_reconstruct(simulate_counts(rho, shots=10**6, noise=False))
        np.testing.assert_allclose(ml.rho.matrix, np.eye(4) / 4, atol=1e-10)
        assert ml.converged

    def test_output_is_strictly_physical(self, rng):
        truth = random_pure(rng).density()
        records = simulate_counts(truth, shots=200, noise=True, seed=9)
        ml = ml_reconstruct(records)
        report = validate_density(ml.rho)
        assert report.ok(eig_atol=1e-12)

    def test_poisson_recovery_quality(self, rng):
        fids = []
        for seed in range(15):
            truth = random_pure(rng).density()
            records = simulate_counts(truth, shots=10**4, noise=True, seed=seed)
            ml = ml_reconstruct(records)
            fids.append(fidelity(ml.rho, truth))
        assert np.mean(fids) >= 0.98

    def test_fidelity_improves_with_shots(self, rng):
        shot_grid = [10**2, 10**3, 10**4, 10**5]
        means = []
        for shots in shot_grid:
            fids = []
            for seed in range(12):
                truth = random_pure(rng).density()
                records = simulate_counts(truth, shots=shots, noise=True, seed=seed)
                fids.append(fidelity(ml_reconstruct(records).rho, truth))
            means.append(np.mean(fids))
        corr, _ = stats.spearmanr(np.log10(shot_grid), means)
        assert corr > 0.9


ML_TOL = 1e-7  # the optimality gap per shot that ml_reconstruct certifies


def poisson_log_likelihood(rho, records):
    """sum_{c_s > 0} c_s log p_s - sum_s N_s p_s, p_s = Tr(rho P_s), one setting at a time."""
    total = 0.0
    for rec in records:
        p = float(np.real(np.trace(rho @ projector_matrix(settings_table()[rec.setting_index - 1]))))
        total += (rec.counts * np.log(p) if rec.counts > 0 else 0.0) - rec.total_shots * p
    return total


def frank_wolfe_gap(rho, records):
    """lambda_max(G) - Tr(rho G), G = sum_s (c_s / p_s - N_s) P_s: an upper bound on
    how far the likelihood of rho lies below its maximum."""
    g = np.zeros((4, 4), dtype=complex)
    for rec in records:
        proj = projector_matrix(settings_table()[rec.setting_index - 1])
        p = float(np.real(np.trace(rho @ proj)))
        g += (rec.counts / p - rec.total_shots) * proj
    return float(np.linalg.eigvalsh(g)[-1] - np.real(np.trace(rho @ g)))


def diluted_rrr(records, max_iter=600):
    """Reference: the diluted R rho R iteration (Rehacek, Hradil, Knill & Lvovsky,
    PRA 75, 042108 (2007)) whitened by G^{-1/2}, G = sum_s P_s, as ml_reconstruct
    ran it before, with its steps judged by the Poisson likelihood. Uniform totals."""
    projectors = np.array([projector_matrix(s) for s in settings_table()])
    design = projectors.transpose(0, 2, 1).reshape(16, 16)
    w, v = np.linalg.eigh(projectors.sum(axis=0))
    g_isqrt = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    counts = np.array([r.counts for r in records], dtype=float)
    shots = np.array([r.total_shots for r in records], dtype=float)
    freqs = counts / counts[:4].sum()
    rho = project_to_psd(linear_reconstruct(records)).matrix
    rho = (1.0 - 1e-9) * rho + 1e-9 * np.eye(4) / 4.0

    def probabilities(mat):
        return np.maximum((design @ mat.reshape(16)).real, 1e-300)

    def log_likelihood(probs):
        return float(np.sum(counts[counts > 0] * np.log(probs[counts > 0])) - np.sum(shots * probs))

    probs = probabilities(rho)
    ll = log_likelihood(probs)
    for _ in range(max_iter):
        r_op = np.tensordot(np.where(freqs > 0, freqs / probs, 0.0), projectors, axes=1)
        b_full = g_isqrt @ r_op @ g_isqrt
        epsilon = 1.0
        for _ in range(40):
            b = (np.eye(4) + epsilon * b_full) / (1.0 + epsilon)
            cand = b @ rho @ b.conj().T
            cand = cand / np.trace(cand).real
            cand_probs = probabilities(cand)
            cand_ll = log_likelihood(cand_probs)
            if cand_ll >= ll - 1e-15:
                break
            epsilon *= 0.5
        else:
            break
        gain, step = cand_ll - ll, float(np.max(np.abs(cand - rho)))
        rho, probs, ll = cand, cand_probs, cand_ll
        if gain < 1e-12 or step < 1e-13:
            break
    return project_to_psd((rho + rho.conj().T) / 2).matrix


@pytest.fixture(scope="module")
def ml_ensemble():
    """(shots, records, ml result) for 20 pure and 20 mixed random states per budget."""
    rng = np.random.default_rng(4242)
    runs = []
    for shots in (10**2, 10**3, 10**4, 10**5):
        truths = [random_pure(rng).density() for _ in range(20)]
        truths += [random_density(rng) for _ in range(20)]
        for k, truth in enumerate(truths):
            records = simulate_counts(truth, shots=shots, noise=True, seed=k)
            runs.append((shots, records, ml_reconstruct(records, tol=ML_TOL)))
    return runs


class TestMLOptimality:
    def test_every_run_converges_with_a_certified_gap(self, ml_ensemble):
        for shots, records, ml in ml_ensemble:
            assert ml.converged and ml.iterations < 600
            gap = frank_wolfe_gap(ml.rho.matrix, records)
            assert gap <= ML_TOL * shots
            assert ml.optimality_gap == pytest.approx(gap, abs=1e-3 * ML_TOL * shots)
            assert ml.log_likelihood == pytest.approx(
                poisson_log_likelihood(ml.rho.matrix, records), abs=1e-9 * shots)

    def test_likelihood_not_below_the_diluted_iteration(self, ml_ensemble):
        for shots, records, ml in ml_ensemble:
            reference = poisson_log_likelihood(diluted_rrr(records), records)
            assert poisson_log_likelihood(ml.rho.matrix, records) >= reference - 1e-9 * shots

    def test_tiny_budgets_converge_with_or_without_the_hv_block(self):
        # at 1 and 3 shots the H/V block is often empty; ML then starts from I/4
        rng = np.random.default_rng(1313)
        empty = 0
        for shots in (1, 3):
            for k in range(30):
                records = simulate_counts(random_pure(rng).density(), shots=shots,
                                          noise=True, seed=k)
                empty += hv_block_empty(records)
                ml = ml_reconstruct(records, tol=ML_TOL)
                assert ml.converged and ml.iterations < 600
                gap = frank_wolfe_gap(ml.rho.matrix, records)
                assert gap <= ML_TOL * shots
                assert ml.optimality_gap == pytest.approx(gap, abs=1e-3 * ML_TOL * shots)
        assert 0 < empty < 60  # both starts are exercised

    def test_input_that_stalled_the_diluted_iteration_converges(self, capsys):
        from krausloom import cli

        assert cli.main(["tomography", "--theta1", "1.0", "--theta2", "0", "--noise",
                         "--shots", "10000", "--seed", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ml_converged"] is True
        assert payload["ml_optimality_gap"] <= ML_TOL * 10000
        assert payload["fidelity_ml"] >= 0.999


class TestCountFiles:
    def test_round_trip(self, rng, tmp_path):
        records = simulate_counts(random_density(rng), shots=4000, noise=True, seed=1)
        path = tmp_path / "counts.csv"
        save_counts(records, str(path))
        again = load_counts(str(path))
        assert [(r.setting_index, r.label, r.counts, r.total_shots) for r in again] == [
            (r.setting_index, r.label, r.counts, r.total_shots) for r in records
        ]
        out = linear_reconstruct(again)
        assert out.dims == (2, 2)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,HH,12\n")
        with pytest.raises(InvalidArgument):
            load_counts(str(path))
