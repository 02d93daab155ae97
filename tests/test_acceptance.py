"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import time

import numpy as np

from krausloom.channels import (
    DephasingParams,
    GADParams,
    PauliParams,
    SGADParams,
    apply_operators,
    bloch_vector,
    channel_kraus,
    choi,
    completeness_residual,
)
from krausloom.circuit import (
    REFERENCE_GAD_ANGLES,
    REFERENCE_GAD_FIDELITY_BAND,
    REFERENCE_GAD_MATRIX,
    build_channel_lattice,
    encode_joint_state,
    encode_reservoir_state,
    evolve,
    gad_experiment,
    initial_state,
    output_mode_decomposition,
    stage_unitary,
)
from krausloom.qmath import PureState, density_residuals, fidelity, partial_trace
from krausloom.tomography import (
    ml_reconstruct,
    simulate_counts,
)


def _verdict(n, ok, detail):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _random_qubit(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def _random_density(rng, dim=4):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return m / np.trace(m).real


def test_criterion_1_reference_reproduction():
    t0 = time.perf_counter()
    rho = gad_experiment(*REFERENCE_GAD_ANGLES)
    f = fidelity(rho, REFERENCE_GAD_MATRIX)
    elapsed = time.perf_counter() - t0
    lo, hi = REFERENCE_GAD_FIDELITY_BAND
    _verdict(
        1,
        lo <= f <= hi and elapsed < 1.0,
        f"fidelity {f:.5f} within [{lo}, {hi}], runtime {elapsed * 1000:.0f} ms < 1 s",
    )


def _channel_grid():
    ts = np.linspace(0.0, 1.0, 11)
    grid = []
    grid.append(("dephasing", [DephasingParams(t) for t in ts]))
    grid.append(("gad", [GADParams(t, 0.15 + 0.7 * t) for t in ts]))
    grid.append(
        (
            "sgad",
            [
                SGADParams(0.35 * t, 0.8 * t, 0.6 * t, 0.2 * t, 0.9, 1.7, 0.3 + 0.4 * t)
                for t in ts
            ],
        )
    )
    grid.append(("pauli", [PauliParams(t, 0.5, 0.3, 0.2) for t in ts]))
    return grid


def test_criterion_2_lattice_kraus_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for name, family in _channel_grid():
        for params in family:
            if isinstance(params, PauliParams):
                lattice = build_channel_lattice(params)
                embed_state = encode_reservoir_state
            else:
                lattice = build_channel_lattice(params)
                a2sq = getattr(params, "alpha2_sq", 1.0)
                embed_state = lambda q, a=a2sq: encode_joint_state(q, a)
            u = stage_unitary(lattice, "evolve")
            kset = channel_kraus(params)
            for _ in range(20):
                q = _random_qubit(rng)
                enc = embed_state(q)
                out = PureState(u @ enc.amplitudes, enc.dims)
                rho_lattice = partial_trace(out.density(), (0,)).matrix
                rho_kraus = apply_operators(np.outer(q, q.conj()), kset.operators)
                worst = max(worst, float(np.max(np.abs(rho_lattice - rho_kraus))))
    elapsed = time.perf_counter() - t0
    _verdict(
        2,
        worst < 1e-9 and elapsed < 30.0,
        f"4 channels x 11 params x 20 states, worst deviation {worst:.2e} < 1e-9, "
        f"runtime {elapsed:.1f} s < 30 s",
    )


def test_criterion_3_cptp_property_suite():
    worst_residual = 0.0
    for _, family in _channel_grid():
        for params in family:
            worst_residual = max(worst_residual, completeness_residual(channel_kraus(params)))
    grid = np.linspace(0, 1, 11)
    for p in grid:
        for a2 in grid:
            worst_residual = max(worst_residual, completeness_residual(channel_kraus(GADParams(p, a2))))

    rng = np.random.default_rng(3)
    worst_trace, worst_eig, worst_herm = 0.0, 0.0, 0.0
    families = (
        lambda: DephasingParams(rng.uniform()),
        lambda: GADParams(rng.uniform(), rng.uniform()),
        lambda: SGADParams(*rng.uniform(size=4), rng.uniform(0, 7), rng.uniform(0, 7), rng.uniform()),
        lambda: (lambda q: PauliParams(rng.uniform(), *(q / q.sum())))(rng.uniform(0.01, 1, 3)),
    )
    for i in range(500):
        kset = channel_kraus(families[i % 4]())
        rho = _random_density(rng, 2)
        herm, tdev, lo = density_residuals(apply_operators(rho, kset.operators))
        worst_trace = max(worst_trace, tdev)
        worst_eig = min(worst_eig, lo)
        worst_herm = max(worst_herm, herm)
    ok = (
        worst_residual < 1e-10
        and worst_trace < 1e-10
        and worst_herm < 1e-10
        and worst_eig >= -1e-9
    )
    _verdict(
        3,
        ok,
        f"completeness residual {worst_residual:.2e} < 1e-10; 500 seeded inputs: "
        f"trace dev {worst_trace:.2e}, hermiticity {worst_herm:.2e}, "
        f"min eigenvalue {worst_eig:.2e} >= -1e-9",
    )


def test_criterion_4_mode_contracts():
    worst = 0.0
    thetas = np.linspace(0.2, 2.9, 5)
    ps = np.linspace(0.0, 1.0, 5)

    for theta1 in thetas:
        a1, b1 = np.cos(theta1 / 2), np.sin(theta1 / 2)
        for p in ps:
            lattice = build_channel_lattice(DephasingParams(p), theta1=theta1)
            modes = output_mode_decomposition(evolve(initial_state(lattice), lattice))
            sp, sq = np.sqrt(p), np.sqrt(1 - p)
            for label, want in (
                ("00", [a1, 0]),
                ("10", [b1 * sq, 0]),
                ("11", [b1 * sp, 0]),
                ("01", [0, 0]),
            ):
                worst = max(worst, float(np.max(np.abs(modes[label] - np.asarray(want)))))

    for a2sq in np.linspace(0.05, 0.95, 5):
        a2, b2 = np.sqrt(a2sq), np.sqrt(1 - a2sq)
        theta1 = 1.15
        a1, b1 = np.cos(theta1 / 2), np.sin(theta1 / 2)
        for p in ps:
            lattice = build_channel_lattice(GADParams(p, a2sq), theta1=theta1)
            modes = output_mode_decomposition(evolve(initial_state(lattice), lattice))
            sp, sq = np.sqrt(p), np.sqrt(1 - p)
            for label, want in (
                ("00", [a1 * a2, 0]),
                ("11", [0, b1 * b2]),
                ("01", [a2 * b1 * sp, a1 * b2 * sq]),
                ("10", [a2 * b1 * sq, a1 * b2 * sp]),
            ):
                worst = max(worst, float(np.max(np.abs(modes[label] - np.asarray(want)))))

    for beta in np.linspace(0, 1, 5):
        for mu in np.linspace(0, 1, 5):
            prm = SGADParams(0.27, beta, mu, 0.13, 0.8, 1.4, 0.72)
            theta1 = 0.95
            a1, b1 = np.cos(theta1 / 2), np.sin(theta1 / 2)
            a2, b2 = np.sqrt(prm.alpha2_sq), np.sqrt(1 - prm.alpha2_sq)
            lattice = build_channel_lattice(prm, theta1=theta1)
            modes = output_mode_decomposition(evolve(initial_state(lattice), lattice))
            eph, ela = np.exp(-1j * prm.phi), np.exp(-1j * prm.lam)
            for label, want in (
                ("00", [a1 * a2 * np.sqrt(1 - prm.alpha), b1 * b2 * np.sqrt(prm.nu)]),
                ("01", [b1 * a2 * np.sqrt(beta), a1 * b2 * np.sqrt(1 - mu)]),
                ("10", [b1 * a2 * np.sqrt(1 - beta), a1 * b2 * np.sqrt(mu) * ela]),
                ("11", [a1 * a2 * np.sqrt(prm.alpha) * eph, b1 * b2 * np.sqrt(1 - prm.nu)]),
            ):
                worst = max(worst, float(np.max(np.abs(modes[label] - np.asarray(want)))))

    _verdict(4, worst < 1e-10, f"mode amplitudes across 5x5 grids, worst deviation {worst:.2e} < 1e-10")


def test_criterion_5_tomography_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(200):
        rho = _random_density(rng, 4)
        from krausloom.qmath import DensityMatrix

        truth = DensityMatrix(rho, (2, 2))
        records = simulate_counts(truth, shots=10**12, noise=False)
        out = ml_reconstruct(records).linear
        worst = max(worst, float(np.max(np.abs(out.matrix - rho))))

    fids = []
    for seed in range(50):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        from krausloom.qmath import DensityMatrix

        truth = DensityMatrix(np.outer(v, v.conj()), (2, 2))
        records = simulate_counts(truth, shots=10**4, noise=True, seed=seed)
        ml = ml_reconstruct(records)
        fids.append(fidelity(ml.rho, truth))
    mean_fid = float(np.mean(fids))
    elapsed = time.perf_counter() - t0
    _verdict(
        5,
        worst < 1e-8 and mean_fid >= 0.98 and elapsed < 60.0,
        f"noiseless linear: worst entrywise {worst:.2e} < 1e-8 over 200 states; "
        f"ml mean fidelity {mean_fid:.4f} >= 0.98 over 50 seeds at 1e4 shots; "
        f"runtime {elapsed:.1f} s < 60 s",
    )


def test_criterion_6_depolarizing_shrink():
    rng = np.random.default_rng(6)
    worst = 0.0
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        k = channel_kraus(PauliParams(p, 1 / 3, 1 / 3, 1 / 3))
        for _ in range(20):
            rho = _random_density(rng, 2)
            r_in = np.array(bloch_vector(rho))
            r_out = np.array(bloch_vector(apply_operators(rho, k.operators)))
            worst = max(worst, float(np.max(np.abs(r_out - (1 - 4 * p / 3) * r_in))))
    k34 = channel_kraus(PauliParams(0.75, 1 / 3, 1 / 3, 1 / 3))
    worst_mixed = 0.0
    for _ in range(20):
        q = _random_qubit(rng)
        out = apply_operators(np.outer(q, q.conj()), k34.operators)
        worst_mixed = max(worst_mixed, float(np.max(np.abs(out - np.eye(2) / 2))))
    _verdict(
        6,
        worst < 1e-12 and worst_mixed < 1e-12,
        f"bloch shrink factor (1 - 4p/3) exact to {worst:.2e}; "
        f"p=3/4 sends pure states to I/2 within {worst_mixed:.2e}",
    )


def _pauli_closed_form(alpha, beta, p, q1, q2, q3):
    """Printed output-matrix entries of the reservoir channel.

    The coherence terms are written for the real amplitude pairs the
    reservoir preparation produces; on that domain they coincide with the
    operator-sum action.
    """
    ab_conj = alpha * np.conj(beta)
    conj_ab = np.conj(alpha) * beta
    return np.array(
        [
            [
                (1 - p) * abs(alpha) ** 2
                + p * (q1 * abs(beta) ** 2 + q2 * abs(beta) ** 2 + q3 * abs(alpha) ** 2),
                (1 - p) * ab_conj + p * (q1 * ab_conj - q2 * conj_ab - q3 * alpha * beta),
            ],
            [
                (1 - p) * conj_ab + p * (q1 * conj_ab - q2 * ab_conj - q3 * np.conj(alpha) * beta),
                (1 - p) * abs(beta) ** 2
                + p * (q1 * abs(alpha) ** 2 + q2 * abs(alpha) ** 2 + q3 * abs(beta) ** 2),
            ],
        ],
        dtype=complex,
    )


def test_criterion_7_reservoir_channel_closed_form():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        t = rng.uniform(0, 2 * np.pi)
        alpha, beta = np.cos(t), np.sin(t)  # real pair, as the preparation rotation yields
        q = rng.uniform(0.01, 1, size=3)
        q = q / q.sum()
        p = rng.uniform()
        k = channel_kraus(PauliParams(p, *q))
        rho_in = np.outer([alpha, beta], [alpha, beta])
        out = apply_operators(rho_in.astype(complex), k.operators)
        want = _pauli_closed_form(alpha, beta, p, *q)
        worst = max(worst, float(np.max(np.abs(out - want))))
    _verdict(7, worst < 1e-12, f"closed-form entries match operator sum to {worst:.2e} < 1e-12")


def test_criterion_8_sgad_reduces_to_gad():
    worst = 0.0
    for p in np.linspace(0, 1, 11):
        for a2sq in (0.35, 0.7):
            reduced = channel_kraus(SGADParams(0.0, p, p, 0.0, 0.0, 0.0, a2sq))
            gad = channel_kraus(GADParams(p, a2sq))
            worst = max(worst, float(np.max(np.abs(choi(reduced.operators) - choi(gad.operators)))))
    _verdict(8, worst < 1e-10, f"channel action distance {worst:.2e} < 1e-10 over the p grid")
