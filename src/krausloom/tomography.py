"""Two-qubit state tomography over the 16 path-projection settings.

Settings are pairs of single-qubit rotations applied before projecting on
|00>; the label states are H, V, D = (H+V)/sqrt2 and R = (H+iV)/sqrt2.
Reconstruction offers plain linear inversion and a diluted iterative
maximum-likelihood pass that always returns a physical matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, InvalidState
from .gates import U3Params, u3
from .qmath import (
    DensityMatrix,
    PureState,
    matrix_sqrt_psd,
    partial_trace,
    write_atomic,
)

HALF_PI = math.pi / 2

# The 16 projection settings: (qubit1 label, qubit2 label, U1 angles, U2 angles).
_SETTING_ROWS = (
    ("H", "H", (0, 0, math.pi), (0, 0, math.pi)),
    ("H", "V", (0, 0, math.pi), (math.pi, 0, math.pi)),
    ("V", "V", (math.pi, 0, math.pi), (math.pi, 0, math.pi)),
    ("V", "H", (math.pi, 0, math.pi), (0, 0, math.pi)),
    ("R", "H", (HALF_PI, HALF_PI, HALF_PI), (0, 0, math.pi)),
    ("R", "V", (HALF_PI, HALF_PI, HALF_PI), (math.pi, 0, math.pi)),
    ("D", "V", (HALF_PI, 0, HALF_PI), (math.pi, 0, math.pi)),
    ("D", "H", (HALF_PI, 0, HALF_PI), (0, 0, math.pi)),
    ("D", "R", (HALF_PI, 0, HALF_PI), (HALF_PI, HALF_PI, HALF_PI)),
    ("D", "D", (HALF_PI, 0, HALF_PI), (HALF_PI, 0, HALF_PI)),
    ("R", "D", (HALF_PI, HALF_PI, HALF_PI), (HALF_PI, 0, HALF_PI)),
    ("H", "D", (0, 0, math.pi), (HALF_PI, 0, HALF_PI)),
    ("V", "D", (math.pi, 0, math.pi), (HALF_PI, 0, HALF_PI)),
    ("V", "R", (math.pi, 0, math.pi), (HALF_PI, HALF_PI, HALF_PI)),
    ("H", "R", (0, 0, math.pi), (HALF_PI, HALF_PI, HALF_PI)),
    ("R", "R", (HALF_PI, HALF_PI, HALF_PI), (HALF_PI, HALF_PI, HALF_PI)),
)


@dataclass(frozen=True)
class TomographySetting:
    index: int  # 1-based
    label: tuple[str, str]
    u1: U3Params
    u2: U3Params


def settings_table() -> tuple[TomographySetting, ...]:
    """All 16 settings, in protocol order (rows 1..4 are the H/V block)."""
    return tuple(
        TomographySetting(i + 1, (l1, l2), U3Params(*p1), U3Params(*p2))
        for i, (l1, l2, p1, p2) in enumerate(_SETTING_ROWS)
    )


def projector(setting: TomographySetting) -> PureState:
    """Projection state (U1 (x) U2)|00> of one setting."""
    vec = np.kron(u3(setting.u1)[:, 0], u3(setting.u2)[:, 0])
    return PureState(vec, (2, 2))


def projector_matrix(setting: TomographySetting) -> np.ndarray:
    v = projector(setting).amplitudes
    return np.outer(v, v.conj())


def _projector_stack() -> list[np.ndarray]:
    return [projector_matrix(s) for s in settings_table()]


_COMPLETENESS_CHECKED = False


def assert_informationally_complete() -> None:
    """The 16 vectorized projectors must span the full 16-dim operator space."""
    global _COMPLETENESS_CHECKED
    if _COMPLETENESS_CHECKED:
        return
    stack = np.array([p.reshape(-1) for p in _projector_stack()])
    rank = np.linalg.matrix_rank(stack, tol=1e-10)
    if rank != 16:
        raise InvalidState(f"projector set spans rank {rank} < 16; reconstruction impossible")
    _COMPLETENESS_CHECKED = True


@dataclass(frozen=True)
class CountRecord:
    """Detector counts of one setting, plus the model probability if known."""

    setting_index: int
    label: str
    expected_probability: float | None
    counts: int
    total_shots: int


def _setting_probability(rho: DensityMatrix, setting: TomographySetting) -> tuple[float, float]:
    """(H branch, V branch) probabilities; the V branch is zero for 4x4 input.

    An 8-dim input (two path qubits plus trailing polarization) is measured
    per polarization selection and the branches summed downstream, the way
    the projection stage separates H and V before counting.
    """
    proj = projector_matrix(setting)
    if rho.dims == (2, 2):
        p = float(np.real(np.trace(rho.matrix @ proj)))
        return (min(max(p, 0.0), 1.0), 0.0)
    if rho.dims == (2, 2, 2):
        arr = rho.matrix.reshape(2, 2, 2, 2, 2, 2)
        branches = []
        for pol in (0, 1):
            block = arr[:, :, pol, :, :, pol].reshape(4, 4)
            branches.append(float(np.real(np.trace(block @ proj))))
        return (max(branches[0], 0.0), max(branches[1], 0.0))
    raise InvalidArgument(f"tomography expects dims (2,2) or (2,2,2), got {rho.dims}")


def simulate_counts(
    rho: DensityMatrix, shots: int, noise: bool = False, seed: int | None = None
) -> list[CountRecord]:
    """Synthetic counts for all 16 settings.

    noise off: counts = round(probability * shots), deterministic.
    noise on: one Poisson draw per polarization branch with the given seed.
    """
    if shots <= 0:
        raise InvalidArgument(f"shots must be positive, got {shots}")
    rng = np.random.default_rng(seed)
    records = []
    for setting in settings_table():
        ph, pv = _setting_probability(rho, setting)
        prob = min(ph + pv, 1.0)
        if noise:
            counts = int(rng.poisson(ph * shots)) + int(rng.poisson(pv * shots))
        else:
            counts = int(round(prob * shots))
        records.append(
            CountRecord(setting.index, "".join(setting.label), prob, counts, int(shots))
        )
    return records


def _probabilities_from_records(records) -> np.ndarray:
    recs = sorted(records, key=lambda r: r.setting_index)
    if [r.setting_index for r in recs] != list(range(1, 17)):
        raise InvalidArgument("all 16 settings must be present exactly once")
    totals = {r.total_shots for r in recs}
    if len(totals) == 1:
        # rows 1..4 project onto an orthonormal basis, so their counts sum to
        # the total intensity; normalize everything against that block
        block = sum(r.counts for r in recs[:4])
        if block <= 0:
            raise InvalidArgument("H/V block counts sum to zero; cannot normalize")
        return np.array([r.counts / block for r in recs])
    return np.array([r.counts / r.total_shots for r in recs])


def linear_reconstruct(records) -> DensityMatrix:
    """Invert Tr(rho P_s) = prob_s; Hermitized and trace-normalized, PSD not enforced."""
    assert_informationally_complete()
    probs = _probabilities_from_records(records)
    projs = _projector_stack()
    # Tr(rho P) = vec(P^T) . vec(rho)
    a = np.array([p.T.reshape(-1) for p in projs])
    x = np.linalg.solve(a, probs.astype(complex))
    rho = x.reshape(4, 4)
    rho = (rho + rho.conj().T) / 2
    rho = rho / np.trace(rho).real
    return DensityMatrix(rho, (2, 2), eig_atol=None)


def project_to_psd(m, dims=(2, 2)) -> DensityMatrix:
    """Clip negative eigenvalues and renormalize; idempotent on valid states."""
    mat = m.matrix if isinstance(m, DensityMatrix) else np.asarray(m, dtype=complex)
    herm = float(np.max(np.abs(mat - mat.conj().T)))
    if herm > 1e-8:
        raise InvalidState(f"matrix is not Hermitian (residual {herm:.3e})")
    mat = (mat + mat.conj().T) / 2
    w, v = np.linalg.eigh(mat)
    w = np.clip(w, 0.0, None)
    total = float(np.sum(w))
    if total <= 0:
        raise InvalidState("matrix has no positive weight to normalize")
    rho = (v * (w / total)) @ v.conj().T
    dims = m.dims if isinstance(m, DensityMatrix) else dims
    return DensityMatrix(rho, dims, eig_atol=1e-12)


@dataclass(frozen=True)
class MLReconstruction:
    rho: DensityMatrix
    converged: bool
    iterations: int
    log_likelihood: float


def ml_reconstruct(records, max_iter: int = 600, tol: float = 1e-12) -> MLReconstruction:
    """Iterative maximum-likelihood reconstruction (diluted R rho R).

    The update operator is whitened by G^{-1/2}, G = sum_s P_s, so exact data
    is an exact fixed point even though the settings are not a POVM. When a
    step would lower the Poisson log-likelihood the step is diluted toward
    the identity (factor 0.5 each retry). Converged means the likelihood gain
    dropped below ``tol`` or the state stopped moving; output is strictly
    physical either way.
    """
    assert_informationally_complete()
    recs = sorted(records, key=lambda r: r.setting_index)
    freqs = _probabilities_from_records(recs)
    shots = np.array([r.total_shots for r in recs], dtype=float)
    counts = np.array([r.counts for r in recs], dtype=float)
    projs = _projector_stack()

    g = np.sum(projs, axis=0)
    w, v = np.linalg.eigh(g)
    g_isqrt = (v * (1.0 / np.sqrt(w))) @ v.conj().T

    start = project_to_psd(linear_reconstruct(recs))
    # a whiff of identity keeps every setting probability strictly positive
    rho = (1.0 - 1e-9) * start.matrix + 1e-9 * np.eye(4) / 4.0

    def probabilities(mat):
        return np.maximum(
            np.array([float(np.real(np.trace(mat @ p))) for p in projs]), 1e-300
        )

    def log_likelihood(probs):
        live = counts > 0
        return float(np.sum(counts[live] * np.log(probs[live])) - np.sum(shots * probs))

    probs = probabilities(rho)
    ll = log_likelihood(probs)
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        r_op = np.zeros((4, 4), dtype=complex)
        for f, p, proj in zip(freqs, probs, projs):
            if f > 0:
                r_op += (f / p) * proj
        b_full = g_isqrt @ r_op @ g_isqrt
        epsilon = 1.0
        accepted = False
        for _ in range(40):
            b = (np.eye(4) + epsilon * b_full) / (1.0 + epsilon)
            cand = b @ rho @ b.conj().T
            cand = cand / np.trace(cand).real
            cand_probs = probabilities(cand)
            cand_ll = log_likelihood(cand_probs)
            if cand_ll >= ll - 1e-15:
                accepted = True
                break
            epsilon *= 0.5
        if not accepted:
            break
        gain = cand_ll - ll
        step = float(np.max(np.abs(cand - rho)))
        rho, probs, ll = cand, cand_probs, cand_ll
        if gain < tol or step < 1e-13:
            converged = True
            break

    final = project_to_psd((rho + rho.conj().T) / 2)
    return MLReconstruction(final, converged, it, ll)


def fidelity_to_truth(reconstructed: DensityMatrix, truth: DensityMatrix) -> float:
    """Convenience Uhlmann fidelity, tolerant of linear-inversion output."""
    a = matrix_sqrt_psd(_hermitize(reconstructed.matrix))
    inner = a @ _hermitize(truth.matrix) @ a
    w = np.clip(np.linalg.eigvalsh((inner + inner.conj().T) / 2), 0.0, None)
    return min(float(np.sum(np.sqrt(w)) ** 2), 1.0)


def _hermitize(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


def traced_truth(state) -> DensityMatrix:
    """Two-qubit marginal of a 3-qubit lattice state (drops polarization)."""
    return partial_trace(state.density(), (0, 1))


# -- count files -----------------------------------------------------------------
# One record per line: index,label,counts,total_shots


def save_counts(records, path: str) -> None:
    write_atomic(path, "".join(
        f"{r.setting_index},{r.label},{r.counts},{r.total_shots}\n"
        for r in sorted(records, key=lambda r: r.setting_index)
    ))


def load_counts(path: str) -> list[CountRecord]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise InvalidArgument(f"{path}:{line_no}: expected index,label,counts,total_shots")
            idx, label, counts, total = parts
            records.append(CountRecord(int(idx), label, None, int(counts), int(total)))
    return records
