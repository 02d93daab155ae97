"""Two-qubit state tomography over the 16 path-projection settings.

Settings are pairs of single-qubit rotations applied before projecting on
|00>; the label states are H, V, D = (H+V)/sqrt2 and R = (H+iV)/sqrt2.
The settings are fixed, so their (16, 4, 4) projector stack, the
linear-inversion design matrix and the maximum-likelihood whitening
G^{-1/2} are built once, read-only, when the module loads; counts and both
reconstructions read that one stack. Reconstruction offers plain linear
inversion and a diluted iterative maximum-likelihood pass that always
returns a physical matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, InvalidState
from .gates import U3Params, u3
from .qmath import DensityMatrix, PureState, partial_trace, write_atomic

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


_SETTINGS = tuple(
    TomographySetting(i + 1, (l1, l2), U3Params(*p1), U3Params(*p2))
    for i, (l1, l2, p1, p2) in enumerate(_SETTING_ROWS)
)


def settings_table() -> tuple[TomographySetting, ...]:
    """All 16 settings, in protocol order (rows 1..4 are the H/V block)."""
    return _SETTINGS


def projector(setting: TomographySetting) -> PureState:
    """Projection state (U1 (x) U2)|00> of one setting."""
    vec = np.kron(u3(setting.u1)[:, 0], u3(setting.u2)[:, 0])
    return PureState(vec, (2, 2))


def projector_matrix(setting: TomographySetting) -> np.ndarray:
    v = projector(setting).amplitudes
    return np.outer(v, v.conj())


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


_PROJECTORS = _read_only(np.array([projector_matrix(s) for s in _SETTINGS]))  # (16, 4, 4)
# Tr(rho P_s) = vec(P_s^T) . vec(rho), one row per setting
_DESIGN = _read_only(_PROJECTORS.transpose(0, 2, 1).reshape(16, 16))


def _inverse_sqrt(g: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(g)
    return (v * (1.0 / np.sqrt(w))) @ v.conj().T


_G_ISQRT = _read_only(_inverse_sqrt(_PROJECTORS.sum(axis=0)))


def assert_informationally_complete() -> None:
    """The 16 vectorized projectors must span the full 16-dim operator space."""
    rank = np.linalg.matrix_rank(_DESIGN, tol=1e-10)
    if rank != 16:
        raise InvalidState(f"projector set spans rank {rank} < 16; reconstruction impossible")


assert_informationally_complete()


@dataclass(frozen=True)
class CountRecord:
    """Detector counts of one setting, plus the model probability if known."""

    setting_index: int
    label: str
    expected_probability: float | None
    counts: int
    total_shots: int


def _branch_probabilities(rho: DensityMatrix) -> np.ndarray:
    """Setting probabilities per branch, shape (16, branches).

    A 4x4 input has one branch, clipped to [0, 1]. An 8-dim input (two path
    qubits plus trailing polarization) is measured per polarization
    selection, H then V, each branch clipped at 0 and the branches summed
    downstream, the way the projection stage separates H and V before
    counting.
    """
    if rho.dims == (2, 2):
        return np.clip((_DESIGN @ rho.matrix.reshape(16)).real, 0.0, 1.0)[:, None]
    if rho.dims == (2, 2, 2):
        blocks = np.einsum("iaja->aij", rho.matrix.reshape(4, 2, 4, 2)).reshape(2, 16)
        return np.maximum((blocks @ _DESIGN.T).real.T, 0.0)
    raise InvalidArgument(f"tomography expects dims (2,2) or (2,2,2), got {rho.dims}")


def simulate_counts(
    rho: DensityMatrix, shots: int, noise: bool = False, seed: int | None = None
) -> list[CountRecord]:
    """Synthetic counts for all 16 settings.

    noise off: counts = round(probability * shots), deterministic.
    noise on: one Poisson draw per polarization branch with the given seed,
    setting by setting, H before V.
    """
    if shots <= 0:
        raise InvalidArgument(f"shots must be positive, got {shots}")
    branches = _branch_probabilities(rho)
    probs = np.minimum(branches.sum(axis=1), 1.0)
    if noise:
        counts = np.random.default_rng(seed).poisson(branches * shots).sum(axis=1)
    else:
        counts = [round(float(p) * shots) for p in probs]
    return [
        CountRecord(s.index, "".join(s.label), float(p), int(c), int(shots))
        for s, p, c in zip(_SETTINGS, probs, counts)
    ]


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
    probs = _probabilities_from_records(records)
    rho = np.linalg.solve(_DESIGN, probs.astype(complex)).reshape(4, 4)
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
    recs = sorted(records, key=lambda r: r.setting_index)
    freqs = _probabilities_from_records(recs)
    shots = np.array([r.total_shots for r in recs], dtype=float)
    counts = np.array([r.counts for r in recs], dtype=float)
    live_freqs, live_counts = freqs > 0, counts > 0

    start = project_to_psd(linear_reconstruct(recs))
    # a whiff of identity keeps every setting probability strictly positive
    rho = (1.0 - 1e-9) * start.matrix + 1e-9 * np.eye(4) / 4.0

    def probabilities(mat):
        return np.maximum((_DESIGN @ mat.reshape(16)).real, 1e-300)

    def log_likelihood(probs):
        return float(np.sum(counts[live_counts] * np.log(probs[live_counts]))
                     - np.sum(shots * probs))

    probs = probabilities(rho)
    ll = log_likelihood(probs)
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        r_op = np.tensordot(np.where(live_freqs, freqs / probs, 0.0), _PROJECTORS, axes=1)
        b_full = _G_ISQRT @ r_op @ _G_ISQRT
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
