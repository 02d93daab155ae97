import json
import math
import re
import sys
import warnings

import numpy as np
import pytest
from conftest import random_density, random_pure
from scipy import stats

from krausloom.channels import GADParams
from krausloom.circuit import (ProductStateParams, lattice_state, prepare_product_state,
                               traced_joint_state)
from krausloom.errors import InvalidArgument, InvalidState
from krausloom.gates import u3
from krausloom.qmath import DensityMatrix, check_densities, fidelity
from krausloom import tomography as tomo_mod
from krausloom.tomography import (
    CountRecord,
    assert_informationally_complete,
    load_counts,
    ml_reconstruct,
    project_to_psd,
    projector,
    projector_matrix,
    save_counts,
    settings_table,
    simulate_counts,
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
        via_marginal = simulate_counts(traced_joint_state(psi), shots=10**9, noise=False)
        for a, b in zip(via_branches, via_marginal):
            assert abs(a.counts - b.counts) <= 1


class TestLinearReconstruct:
    def test_round_trip_on_random_states(self, rng):
        for _ in range(20):
            rho = random_density(rng)
            records = simulate_counts(rho, shots=10**12, noise=False)
            out = ml_reconstruct(records).linear
            np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-8)

    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(4) / 4, (2, 2))
        out = ml_reconstruct(simulate_counts(rho, shots=10**12, noise=False)).linear
        np.testing.assert_allclose(out.matrix, np.eye(4) / 4, atol=1e-10)

    def test_missing_settings_rejected(self, rng):
        records = simulate_counts(random_density(rng), shots=1000)[:15]
        with pytest.raises(InvalidArgument):
            ml_reconstruct(records)

    def test_empty_hv_block_rejected(self, rng):
        records = simulate_counts(random_density(rng), shots=1000)
        emptied = [
            CountRecord(r.setting_index, r.label, None, 0, r.total_shots)
            if r.setting_index <= 4
            else r
            for r in records
        ]
        assert ml_reconstruct(emptied).linear is None and ml_reconstruct(records).linear is not None

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
        out = ml_reconstruct(doubled).linear
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
        ml = ml_reconstruct(records)
        lin = ml.linear
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
        check_densities(ml.rho.matrix, eig_atol=1e-12)

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

    def test_result_carries_the_linear_estimate(self, rng):
        records = simulate_counts(random_density(rng), shots=1000, noise=True, seed=2)
        ml = ml_reconstruct(records)
        freqs = tomo_mod._records_and_frequencies(records)[1]
        assert np.array_equal(ml.linear.matrix, tomo_mod._invert(freqs).matrix)

    def test_no_linear_estimate_when_the_hv_block_is_empty(self):
        records = [CountRecord(s.index, "".join(s.label), None, int(s.index == 10), 1)
                   for s in settings_table()]
        assert ml_reconstruct(records).linear is None

    # an H/V block that counted nothing has no trace to normalize by, whatever
    # the totals: the first divided by zero, the second by a trace of -2.4e-16
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("counts, totals", [
        ([0] * 16, [1] * 15 + [10]),
        ([0] * 4 + [500] * 12, [1000] * 15 + [2000]),
    ])
    def test_no_linear_estimate_when_the_hv_block_is_empty_at_unequal_totals(self, counts, totals):
        records = [CountRecord(s.index, "".join(s.label), None, c, n)
                   for s, c, n in zip(settings_table(), counts, totals)]
        ml = ml_reconstruct(records)
        assert ml.converged
        assert ml.linear is None

    @staticmethod
    def _records_at(total):
        """Exact counts of a mixed product state at ``total`` shots per setting."""
        truth = traced_joint_state(prepare_product_state(ProductStateParams(1.1, 0.7)))
        return [CountRecord(r.setting_index, r.label, None, round(r.expected_probability * total),
                            total) for r in simulate_counts(truth, shots=1000)]

    # at the largest float, the mean of the 16 totals overflowed: the gap came out NaN
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_totals_above_the_largest_budget_are_refused(self):
        records = self._records_at(int(sys.float_info.max))
        with pytest.raises(InvalidArgument, match=r"^total_shots must be at most 1e\+305$"):
            ml_reconstruct(records)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_the_largest_budget_gives_a_finite_gap(self):
        ml = ml_reconstruct(self._records_at(tomo_mod.SHOTS_MAX))
        assert ml.converged and math.isfinite(ml.optimality_gap)
        assert math.isfinite(ml.log_likelihood)

    @staticmethod
    def _records_with(counts, total):
        return [CountRecord(s.index, "".join(s.label), None, int(c), total)
                for s, c in zip(settings_table(), counts)]

    # 16 records of total 1 with counts of 1e307-3e307 ran to a NaN gap and a
    # -inf likelihood, after numpy overflow warnings
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_counts_far_above_their_totals_are_refused(self):
        records = self._records_with(np.linspace(1e307, 3e307, 16), 1)
        with pytest.raises(InvalidArgument, match=r"^setting 1 \(HH\): counts must be at most "
                                                  r"1000 times total_shots \(1\) and at most 1e\+305$"):
            ml_reconstruct(records)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("total", [1, 1000, 10**200, 10**302, tomo_mod.SHOTS_MAX],
                             ids=["1", "1e3", "1e200", "1e302", "1e305"])
    def test_counts_up_to_the_bound_give_a_finite_gap(self, total):
        bound = min(tomo_mod.SHOTS_MAX, tomo_mod.COUNTS_PER_SHOT_MAX * total)
        counts = [bound if k % 3 else bound // 7 if k % 2 else 0 for k in range(16)]
        ml = ml_reconstruct(self._records_with(counts, total))
        assert math.isfinite(ml.optimality_gap) and math.isfinite(ml.log_likelihood)
        counts[5] += 1
        with pytest.raises(InvalidArgument, match=r"^setting 6 \(RV\): counts must be at most"):
            ml_reconstruct(self._records_with(counts, total))

    # the Frank-Wolfe target's probability at setting 10 rounded to -1.2e-17,
    # so the segment step's bisection met a mixed probability of 0 and divided by it
    @pytest.mark.filterwarnings("error")
    def test_totals_seventeen_decades_apart_run_without_a_warning(self):
        shape = {9: (0, 10**16), 10: (1, 10**17), 12: (0, 10)}
        records = [CountRecord(s.index, "".join(s.label), None, *shape.get(s.index, (0, 1)))
                   for s in settings_table()]
        ml = ml_reconstruct(records)
        assert math.isfinite(ml.optimality_gap)
        assert ml.converged or math.isfinite(ml.log_likelihood)

    # the records load_counts refuses: all totals 0 divided by a zero mean
    # total, one total of 0 among unequal ones raised a bare ZeroDivisionError,
    # and a count of -5 ran to converged=False without an error
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("setting, count, total, others", [
        (1, 0, 0, [0] * 16),
        (7, 111, 0, [1000 + k for k in range(16)]),
        (3, -5, 1000, [1000] * 16),
    ], ids=["zero-totals", "one-zero-total", "negative-count"])
    def test_the_records_load_counts_refuses_are_refused(self, setting, count, total, others):
        records = [CountRecord(r.setting_index, r.label, None,
                               *((count, total) if r.setting_index == setting else (r.counts, other)))
                   for r, other in zip(self._records_at(1000), others)]
        label = settings_table()[setting - 1].label
        with pytest.raises(InvalidArgument, match=re.escape(
                f"setting {setting} ({''.join(label)}): counts must be >= 0 and total_shots >= 1, "
                f"got {count} and {total}") + "$"):
            ml_reconstruct(records)

    # a single count at settings 6 and 8 warned 14 times from the segment step's
    # bisection, where a zero-count setting's mixed probability reached 0
    @pytest.mark.parametrize("nonzero", [(6, 8), (6,), (5,), (1, 2), (16,)],
                             ids=["6-8", "6", "5", "1-2", "16"])
    def test_sparse_records_certify_their_gap_without_warnings(self, nonzero):
        records = self._records_with([int(k in nonzero) for k in range(1, 17)], 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ml = ml_reconstruct(records)
        assert ml.converged and ml.optimality_gap <= ML_TOL
        assert math.isfinite(ml.log_likelihood)
        assert frank_wolfe_gap(ml.rho.matrix, records) <= ML_TOL


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
    rho = project_to_psd(ml_reconstruct(records).linear).matrix
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
                ml = ml_reconstruct(records, tol=ML_TOL)
                empty += ml.linear is None
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


class TestMLIterations:
    def test_newton_ascent_takes_few_iterations(self, ml_ensemble):
        # the Newton ascent reads a mean of 5.70 and a maximum of 11 here; the
        # BFGS ascent it replaced read 19.32 and 65
        iterations = [ml.iterations for _, _, ml in ml_ensemble]
        assert np.mean(iterations) < 10
        assert max(iterations) < 40


class TestNewtonKernel:
    """The likelihood, Hessian and tangent Newton step of ml_reconstruct's ascent over
    the 16 coordinates theta of a Hermitian T, rho = T^2 / Tr(T^2)."""

    @pytest.fixture
    def per_shot(self, rng):
        records = simulate_counts(random_density(rng), shots=1000, noise=True, seed=5)
        counts = np.array([r.counts for r in records], dtype=float) / 1000
        return counts, np.ones(16)

    def test_curvature_is_the_negated_hessian(self, rng, per_shot):
        counts, shots = per_shot
        step = 1e-5
        for _ in range(3):
            theta = rng.normal(size=16)
            state = tomo_mod._likelihood(theta, counts, shots)
            hess = np.empty((16, 16))
            for i in range(16):
                e = np.zeros(16)
                e[i] = step
                hess[:, i] = (tomo_mod._likelihood(theta + e, counts, shots)[1]
                              - tomo_mod._likelihood(theta - e, counts, shots)[1]) / (2 * step)
            m = tomo_mod._curvature(theta, counts, *state[1:])
            assert np.max(np.abs(m + hess)) <= 1e-6 * np.max(np.abs(hess))

    def test_gradient_is_orthogonal_to_theta(self, rng, per_shot):
        counts, shots = per_shot
        for _ in range(3):
            theta = rng.normal(size=16)
            grad = tomo_mod._likelihood(theta, counts, shots)[1]
            assert abs(grad @ theta) <= 1e-12 * np.linalg.norm(grad) * np.linalg.norm(theta)

    def test_tangent_step_is_the_newton_step_on_the_tangent_space(self, rng, per_shot):
        counts, shots = per_shot
        for _ in range(5):
            theta = rng.normal(size=16)  # a full-rank T: an interior rho
            state = tomo_mod._likelihood(theta, counts, shots)
            grad, norm = state[1], state[-1]
            step = np.linalg.solve(tomo_mod._tangent_matrix(theta, counts, *state[1:]), grad)
            proj = np.eye(16) - np.outer(theta, theta) / norm
            m = tomo_mod._curvature(theta, counts, *state[1:])
            assert abs(theta @ step) <= 1e-10 * np.linalg.norm(theta) * np.linalg.norm(step)
            assert (np.linalg.norm(proj @ m @ proj @ step - grad)
                    <= 1e-10 * np.linalg.norm(proj @ m @ proj) * np.linalg.norm(step))

    @staticmethod
    def count_calls(monkeypatch, module, name, calls, change=None):
        """Count calls of ``module.name`` under ``calls[name]``; ``change`` may
        rewrite the result of the n-th call, change(n, result)."""
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            result = original(*args, **kwargs)
            return result if change is None else change(calls[name], result)
        monkeypatch.setattr(module, name, counted)

    def test_a_step_forced_through_the_safeguard_still_converges(self, monkeypatch):
        records = simulate_counts(prepare_product_state(ProductStateParams(1.1, 0.7)).density(),
                                  shots=10000, noise=True, seed=3)
        calls = {}
        # the second tangent matrix is negated, so its step descends and the
        # run falls back to the Frank-Wolfe step
        self.count_calls(monkeypatch, tomo_mod, "_tangent_matrix", calls,
                         lambda n, m: -m if n == 2 else m)
        self.count_calls(monkeypatch, tomo_mod, "_segment_step", calls)
        ml = ml_reconstruct(records, tol=ML_TOL)
        assert calls["_segment_step"] >= 1
        assert ml.converged and ml.iterations < 600
        assert frank_wolfe_gap(ml.rho.matrix, records) <= ML_TOL * 10000

    @staticmethod
    def call_count_inputs(rng):
        """(shots, records): 24 random truths at 1e3-1e5 shots, then two
        command lines on which a tangent step does not ascend,
        ``tomography --noise --theta1 3.0142885722465125 --theta2 0 --shots 1000
        --seed 1463639495`` and ``tomography --channel gad --p 0.545287089768146
        --alpha2-sq 0.9649453287863279 --theta1 2.3909582858942455 --noise
        --shots 10000 --seed 586666819``."""
        for shots in (10**3, 10**4, 10**5):
            for k in range(8):
                truth = random_pure(rng).density() if k % 2 else random_density(rng)
                yield shots, simulate_counts(truth, shots=shots, noise=True, seed=k)
        product = prepare_product_state(ProductStateParams(3.0142885722465125, 0.0)).density()
        yield 1000, simulate_counts(product, shots=1000, noise=True, seed=1463639495)
        gad = lattice_state(GADParams(0.545287089768146, 0.9649453287863279),
                            theta1=2.3909582858942455)
        yield 10000, simulate_counts(gad, shots=10000, noise=True, seed=586666819)

    def test_one_solve_per_newton_step_and_eigvalsh_only_to_validate(self, monkeypatch, rng):
        steps = stalls = 0
        for shots, records in self.call_count_inputs(rng):
            calls = {}
            with monkeypatch.context() as patch:
                for name in ("solve", "eigvalsh"):
                    self.count_calls(patch, np.linalg, name, calls)
                for name in ("_segment_step", "_tangent_matrix"):
                    self.count_calls(patch, tomo_mod, name, calls)
                ml = ml_reconstruct(records, tol=ML_TOL)
            assert ml.converged
            assert frank_wolfe_gap(ml.rho.matrix, records) <= ML_TOL * shots
            newton = ml.iterations - calls.get("_segment_step", 0)
            # the linear inversion, then one solve per tangent matrix
            assert calls["solve"] == 1 + calls["_tangent_matrix"]
            # the final DensityMatrix validation, and nothing inside the ascent
            assert calls["eigvalsh"] == 1
            # tangent steps that were not taken: no ascent, or no Armijo point
            steps, stalls = steps + newton, stalls + calls["_tangent_matrix"] - newton
        assert stalls <= steps / 20

    def test_state_round_trips_through_its_square_root(self, rng):
        states = [random_density(rng).matrix for _ in range(5)]
        states += [random_pure(rng).density().matrix for _ in range(5)]
        states.append(np.eye(4) / 4)
        for rho in states:
            theta = tomo_mod._square_root(*np.linalg.eigh(rho))
            assert np.max(np.abs(tomo_mod._density(theta) - rho)) <= 1e-14


class TestCountFiles:
    def test_round_trip(self, rng, tmp_path):
        records = simulate_counts(random_density(rng), shots=4000, noise=True, seed=1)
        path = tmp_path / "counts.csv"
        save_counts(records, str(path))
        again = load_counts(str(path))
        assert [(r.setting_index, r.label, r.counts, r.total_shots) for r in again] == [
            (r.setting_index, r.label, r.counts, r.total_shots) for r in records
        ]
        out = ml_reconstruct(again).linear
        assert out.dims == (2, 2)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,HH,12\n")
        with pytest.raises(InvalidArgument):
            load_counts(str(path))

    def test_non_integer_field_names_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# index,label,counts,total_shots\n1,HH,12,100\n2,HV,twelve,100\n")
        with pytest.raises(InvalidArgument, match=f"^{re.escape(str(path))}:3: "):
            load_counts(str(path))

    # a negative count once loaded and reconstructed as converged, and a zero
    # total ended in a bare ZeroDivisionError in ml_reconstruct
    @pytest.mark.parametrize("line, message", [
        ("2,HV,-5,100", "counts must be >= 0 and total_shots >= 1, got -5 and 100"),
        ("2,HV,0,0", "counts must be >= 0 and total_shots >= 1, got 0 and 0"),
        ("2,HV,3,-100", "counts must be >= 0 and total_shots >= 1, got 3 and -100"),
    ], ids=["negative-count", "zero-total", "negative-total"])
    def test_impossible_counts_name_their_line(self, tmp_path, line, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"# index,label,counts,total_shots\n1,HH,12,100\n{line}\n")
        with pytest.raises(InvalidArgument, match=f"^{re.escape(str(path))}:3: {message}$"):
            load_counts(str(path))

    def test_counts_above_the_total_still_load(self, tmp_path):
        # a Poisson draw can exceed the nominal total
        path = tmp_path / "counts.csv"
        path.write_text("1,HH,105,100\n")
        assert load_counts(str(path))[0].counts == 105
