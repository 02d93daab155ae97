"""The benchmark's oracles against hand-worked cases.

    python3 -m pytest benchmark/tests
"""

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import compare  # noqa: E402
import oracle  # noqa: E402

PLUS = oracle.qubit(1 / math.sqrt(2), 1 / math.sqrt(2))
STATES = [oracle.prepared_qubit(t) for t in (0.0, 0.7, math.pi / 2, 2.9)]
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


@pytest.mark.parametrize("rho", STATES)
def test_zero_strength_is_identity(rho):
    assert np.allclose(oracle.dephasing(rho, 0.0), rho)
    assert np.allclose(oracle.gad(rho, 0.0, 0.3), rho)
    assert np.allclose(oracle.sgad(rho, 0, 0, 0, 0, 1.1, 2.2, 0.4), rho)
    assert np.allclose(oracle.pauli(rho, 0.0, 0.2, 0.3, 0.5), rho)


@pytest.mark.parametrize("rho", STATES)
@pytest.mark.parametrize("a", [0.0, 0.25, 1.0])
def test_full_damping_reaches_bath_state(rho, a):
    assert np.allclose(oracle.gad(rho, 1.0, a), np.diag([a, 1 - a]))


def test_dephasing_keeps_populations_and_scales_coherence():
    out = oracle.dephasing(PLUS, 0.64)
    assert np.allclose(np.diag(out), [0.5, 0.5])
    assert out[0, 1] == pytest.approx(0.5 * 0.6)
    assert np.allclose(oracle.dephasing(PLUS, 1.0), np.eye(2) / 2)


def test_pauli_flips_match_conjugation():
    rho = np.array([[0.7, 0.2 - 0.3j], [0.2 + 0.3j, 0.3]])
    assert np.allclose(oracle.pauli(rho, 1.0, 1, 0, 0), X @ rho @ X)
    assert np.allclose(oracle.pauli(rho, 1.0, 0, 1, 0), Y @ rho @ Y)
    assert np.allclose(oracle.pauli(rho, 1.0, 0, 0, 1), np.diag([1, -1]) @ rho @ np.diag([1, -1]))


def test_sgad_reduces_to_gad_and_moves_population():
    rho = np.array([[0.6, 0.1 + 0.2j], [0.1 - 0.2j, 0.4]])
    assert np.allclose(oracle.sgad(rho, 0.0, 0.3, 0.3, 0.0, 0.5, 0.9, 0.8), oracle.gad(rho, 0.3, 0.8))
    ground = np.diag([1.0, 0.0]).astype(complex)
    assert np.allclose(oracle.sgad(ground, 1.0, 0, 0, 0, 0, 0, 1.0), np.diag([0.0, 1.0]))


def test_reference_gad_without_damping_is_the_prepared_qubit():
    t1 = 0.3
    assert np.allclose(oracle.reference_gad_marginal(t1, 0.4, 0.0),
                       oracle.qubit(math.cos(2 * t1), math.sin(2 * t1)))


def test_keep_first_of_product():
    a, b = oracle.prepared_qubit(1.2), np.diag([0.3, 0.7])
    assert np.allclose(oracle.keep_first(np.kron(a, b)), a)


def test_fidelity_known_pairs():
    zero, one = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    assert oracle.fidelity(PLUS, PLUS) == pytest.approx(1.0)
    assert oracle.fidelity(zero, one) == pytest.approx(0.0, abs=1e-12)
    assert oracle.fidelity(zero, np.eye(2) / 2) == pytest.approx(0.5)
    p, q = np.array([0.2, 0.8]), np.array([0.6, 0.4])
    assert oracle.fidelity(np.diag(p), np.diag(q)) == pytest.approx(np.sum(np.sqrt(p * q)) ** 2)
    rho = np.array([[0.7, 0.1 - 0.2j], [0.1 + 0.2j, 0.3]])
    psi = np.array([math.cos(0.4), math.sin(0.4) * 1j])
    pure = np.outer(psi, psi.conj())
    expected = float(np.real(psi.conj() @ rho @ psi))
    assert oracle.fidelity(pure, rho) == pytest.approx(expected)
    assert oracle.fidelity(rho, pure) == pytest.approx(expected)


def test_likelihood_on_toy_count_table():
    hh = oracle.setting_projector("HH")
    table = [{"label": "HH", "counts": 10, "total_shots": 10},
             {"label": "VV", "counts": 0, "total_shots": 10}]
    assert oracle.poisson_log_likelihood(hh, table) == pytest.approx(10 * math.log(10) - 10)
    mixed = np.eye(4) / 4
    assert oracle.poisson_log_likelihood(mixed, table) == pytest.approx(
        10 * math.log(2.5) - 2.5 - 2.5)
    missing = table + [{"label": "HV", "counts": 3, "total_shots": 10}]
    assert oracle.poisson_log_likelihood(hh, missing) == -math.inf


def test_likelihood_prefers_the_state_that_made_the_counts():
    truth = np.kron(PLUS, np.diag([0.9, 0.1]))
    labels = [a + b for a in "HVDR" for b in "HVDR"]
    shots = 1000
    table = [{"label": l, "total_shots": shots,
              "counts": round(shots * float(np.real(np.trace(truth @ oracle.setting_projector(l)))))}
             for l in labels]
    assert oracle.poisson_log_likelihood(truth, table) > oracle.poisson_log_likelihood(
        np.eye(4) / 4, table)


def test_basis_projectors_resolve_identity():
    total = sum(oracle.setting_projector(l) for l in ("HH", "HV", "VH", "VV"))
    assert np.allclose(total, np.eye(4))


def test_clipping_and_physical_residual():
    bad = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
    assert oracle.physical_residual(bad) == pytest.approx(0.1)
    fixed = oracle.clipped(bad)
    assert oracle.physical_residual(fixed) < 1e-12
    assert np.allclose(np.diag(fixed), [0.6 / 1.1, 0.5 / 1.1, 0, 0])


def test_compare_verdicts():
    parent = {s: 100.0 + s for s in range(10)}
    faster = {s: 130.0 + s for s in range(10)}
    assert compare.verdict(parent, faster, "higher", 0.25)[0] == "better"
    assert compare.verdict(parent, faster, "lower", 0.25)[0] == "worse"
    assert compare.verdict(parent, dict(parent), "higher", 0.25)[0] == "within"
    noisy = {s: 100.0 * (1 + 0.5 * (s % 2)) for s in range(10)}
    assert compare.verdict(noisy, noisy, "higher", 0.25)[0] == "unresolved"
