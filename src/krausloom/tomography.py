"""Two-qubit state tomography over the 16 path-projection settings.

Settings are pairs of single-qubit rotations applied before projecting on
|00>; the label states are H, V, D = (H+V)/sqrt2 and R = (H+iV)/sqrt2.
The settings are fixed, so their (16, 4, 4) projector stack, the
linear-inversion design matrix and the projectors' real (8, 8) forms are
built once, read-only, when the module loads; counts and both
reconstructions read that one stack. Reconstruction offers plain linear
inversion and maximum likelihood: a BFGS ascent of the Poisson likelihood
over rho = T T^dagger / Tr(T T^dagger), which is physical at every step,
stopped once the Frank-Wolfe gap certifies that the likelihood lies within
``tol`` per shot of its maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, InvalidState
from .gates import U3Params, u3
from .qmath import (ATOL_ARITHMETIC, ATOL_STRUCTURAL, HERM_TOL_MEASURED, DensityMatrix,
                    PureState, check_residuals, write_atomic)

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


# Real forms of the projectors: with z = [Re T; Im T] (shape (8, 4), one column
# per column of T), Tr(P_s T T^dagger) = sum over columns of z^T R_s z, where
# R_s = [[Re P_s, -Im P_s], [Im P_s, Re P_s]]; stacked as (16 * 8, 8).
_REAL_FORMS = _read_only(
    np.block([[_PROJECTORS.real, -_PROJECTORS.imag], [_PROJECTORS.imag, _PROJECTORS.real]])
    .reshape(128, 8)
)


def assert_informationally_complete() -> None:
    """The 16 vectorized projectors must span the full 16-dim operator space."""
    rank = np.linalg.matrix_rank(_DESIGN, tol=ATOL_STRUCTURAL)
    if rank != 16:
        raise InvalidState(f"projector set spans rank {rank} < 16; reconstruction impossible")


assert_informationally_complete()


# numpy's Poisson sampler rejects means above int64 max - 10 sqrt(int64 max)
_POISSON_MEAN_MAX = np.iinfo(np.int64).max - 10 * math.sqrt(np.iinfo(np.int64).max)


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
    if noise and seed is not None and seed < 0:
        raise InvalidArgument(f"seed must be non-negative, got {seed}")
    branches = _branch_probabilities(rho)
    probs = np.minimum(branches.sum(axis=1), 1.0)
    if noise:
        means = branches * shots
        if means.max() > _POISSON_MEAN_MAX:
            raise InvalidArgument(
                f"shots {shots} is too large for a Poisson draw (largest mean "
                f"{means.max():.3e}, limit {_POISSON_MEAN_MAX:.3e})"
            )
        counts = np.random.default_rng(seed).poisson(means).sum(axis=1)
    else:
        counts = [round(float(p) * shots) for p in probs]
    return [
        CountRecord(s.index, "".join(s.label), float(p), int(c), int(shots))
        for s, p, c in zip(_SETTINGS, probs, counts)
    ]


def _probabilities_from_records(records) -> np.ndarray | None:
    """Each setting's frequency, in setting order; None when linear inversion
    has nothing to normalize by."""
    recs = sorted(records, key=lambda r: r.setting_index)
    if [r.setting_index for r in recs] != list(range(1, 17)):
        raise InvalidArgument("all 16 settings must be present exactly once")
    totals = {r.total_shots for r in recs}
    if len(totals) == 1:
        # rows 1..4 project onto an orthonormal basis, so their counts sum to
        # the total intensity; normalize everything against that block
        block = sum(r.counts for r in recs[:4])
        return np.array([r.counts / block for r in recs]) if block > 0 else None
    return np.array([r.counts / r.total_shots for r in recs])


def hv_block_empty(records) -> bool:
    """True when every setting has the same total and the H/V block (settings
    1..4) counted nothing, which leaves linear inversion undefined. Tiny shot
    budgets do this; maximum likelihood still runs, from I/4."""
    return _probabilities_from_records(records) is None


def linear_reconstruct(records) -> DensityMatrix:
    """Invert Tr(rho P_s) = prob_s; Hermitized and trace-normalized, PSD not enforced."""
    probs = _probabilities_from_records(records)
    if probs is None:
        raise InvalidArgument("H/V block counts sum to zero; cannot normalize")
    rho = np.linalg.solve(_DESIGN, probs.astype(complex)).reshape(4, 4)
    rho = (rho + rho.conj().T) / 2
    rho = rho / np.trace(rho).real
    return DensityMatrix(rho, (2, 2), eig_atol=None)


def project_to_psd(m, dims=(2, 2)) -> DensityMatrix:
    """Clip negative eigenvalues and renormalize; idempotent on valid states."""
    mat = m.matrix if isinstance(m, DensityMatrix) else np.asarray(m, dtype=complex)
    check_residuals(np.max(np.abs(mat - mat.conj().T)), HERM_TOL_MEASURED,
                    "matrix is not Hermitian (residual {:.3e})")
    mat = (mat + mat.conj().T) / 2
    w, v = np.linalg.eigh(mat)
    w = np.clip(w, 0.0, None)
    total = float(np.sum(w))
    if total <= 0:
        raise InvalidState("matrix has no positive weight to normalize")
    rho = (v * (w / total)) @ v.conj().T
    dims = m.dims if isinstance(m, DensityMatrix) else dims
    return DensityMatrix(rho, dims, eig_atol=ATOL_ARITHMETIC)


@dataclass(frozen=True)
class MLReconstruction:
    rho: DensityMatrix
    converged: bool
    iterations: int
    log_likelihood: float
    optimality_gap: float  # Frank-Wolfe bound on (maximum - log_likelihood), in nats
    linear: DensityMatrix | None  # the linear estimate the ascent started from


def _likelihood(z: np.ndarray, counts: np.ndarray, shots: np.ndarray):
    """Log-likelihood of rho = T T^dagger / Tr(T T^dagger), z = [Re T; Im T]
    flattened, with its gradient in z, the probabilities p_s and the weights
    g_s = c_s / p_s - N_s of the likelihood's gradient G = sum_s g_s P_s in rho."""
    rz = (_REAL_FORMS @ z.reshape(8, 4)).reshape(16, 32)
    norm = z @ z
    probs = np.maximum(rz @ z / norm, 1e-300)
    weights = counts / probs - shots
    ll = counts @ np.log(probs) - shots @ probs
    grad = (2.0 / norm) * (weights @ rz - (weights @ probs) * z)
    return ll, grad, probs, weights


def _factor(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """z = [Re T; Im T] flattened, for T = V sqrt(W), so that T T^dagger = V W V^dagger."""
    t = v * np.sqrt(np.clip(w, 0.0, None))
    return np.concatenate([t.real, t.imag]).reshape(32)


def _start(linear: DensityMatrix | None) -> np.ndarray:
    """z of the linear estimate with its negative eigenvalues clipped, mixed
    with 1e-9 of I/4 so that it is full rank; z of I/4 without an estimate."""
    if linear is None:
        return _factor(np.full(4, 0.25), np.eye(4))
    w, v = np.linalg.eigh(linear.matrix)
    w = np.clip(w, 0.0, None)
    return _factor((1.0 - 1e-9) * w / np.sum(w) + 1e-9 / 4.0, v)


def _curvature(z, grad, probs, weights, counts) -> np.ndarray:
    """M = -Hessian of the likelihood in z, from what ``_likelihood`` returns.

    With n = z.z, D_s = dp_s/dz = (2/n)(R_s z - p_s z) and g = sum_s w_s D_s,
    M = sum_s (c_s / p_s^2) D_s D_s^T
        - (2/n) [(sum_s w_s R_s) (x) I_4 - (w.p) I - z g^T - g z^T].
    """
    norm = z @ z
    rz = (_REAL_FORMS @ z.reshape(8, 4)).reshape(16, 32)
    d = (2.0 / norm) * (rz - probs[:, None] * z)
    forms = np.kron(np.tensordot(weights, _REAL_FORMS.reshape(16, 8, 8), axes=1), np.eye(4))
    inner = forms - (weights @ probs) * np.eye(32) - np.outer(z, grad) - np.outer(grad, z)
    return (d.T * (counts / probs / probs)) @ d - (2.0 / norm) * inner


def _inverse_curvature(z, grad, probs, weights, counts) -> np.ndarray:
    """Inverse of M, shifted by max(0, -lambda_min) + 1e-2 lambda_max to be
    positive definite: T -> T U leaves rho unchanged, so M is flat along those
    gauge directions, and it is indefinite away from the maximum. Only the
    eigenvalues are taken: OpenBLAS hands part of a 32x32 eigh with
    eigenvectors to a worker thread, and eigvalsh and inv stay on the caller's."""
    m = _curvature(z, grad, probs, weights, counts)
    lam = np.linalg.eigvalsh(m)
    return np.linalg.inv(m + (max(0.0, -lam[0]) + 1e-2 * lam[-1]) * np.eye(32))


def _density(z: np.ndarray) -> np.ndarray:
    t = z[:16].reshape(4, 4) + 1j * z[16:].reshape(4, 4)
    rho = t @ t.conj().T
    return rho / np.trace(rho).real


def _frank_wolfe_gap(probs: np.ndarray, weights: np.ndarray):
    """Delta = lambda_max(G) - Tr(rho G) and the top eigenvector of G.

    The likelihood is concave in rho and G is its gradient, so Delta bounds
    how far the likelihood lies below its maximum over density matrices.
    """
    w, v = np.linalg.eigh((weights @ _PROJECTORS.reshape(16, 16)).reshape(4, 4))
    return float(w[-1] - weights @ probs), v[:, -1]


def _segment_step(probs: np.ndarray, target: np.ndarray, counts: np.ndarray,
                  shots: np.ndarray) -> float:
    """The gamma in [0, 1) that maximises the likelihood at probabilities
    (1 - gamma) probs + gamma target, by bisection on its derivative, which
    decreases in gamma because the likelihood is concave."""
    diff = target - probs
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if counts @ (diff / (probs + mid * diff)) > shots @ diff:
            lo = mid
        else:
            hi = mid
    return lo


def ml_reconstruct(records, max_iter: int = 600, tol: float = 1e-7) -> MLReconstruction:
    """Maximum-likelihood reconstruction by quasi-Newton ascent, stopped on a
    certified optimality gap.

    The objective is the Poisson log-likelihood
    l(rho) = sum_{c_s > 0} c_s log p_s - sum_s N_s p_s, p_s = Tr(rho P_s),
    over rho = T T^dagger / Tr(T T^dagger) with T a free complex 4x4 matrix
    (James, Kwiat, Munro & White, PRA 64, 052312 (2001)): every iterate is a
    density matrix and the ascent over the 32 real entries of T is
    unconstrained. BFGS with Armijo backtracking climbs from the clipped
    linear estimate mixed with 1e-9 of the identity, which is full rank, or
    from I/4 when the H/V block is empty and there is no linear estimate.
    Its inverse-Hessian estimate starts from the likelihood's own curvature
    in z, shifted to be positive definite (Nocedal & Wright, Numerical
    Optimization, 2nd ed., sec. 6.1), and is seeded again that way after
    each Frank-Wolfe step. ``linear`` in the result is that linear estimate,
    or None.

    Once |grad_z l| |z| <= tol * N, N the mean of the records' total_shots,
    the Frank-Wolfe gap Delta = lambda_max(G) - Tr(rho G), with
    G = sum_s (c_s / p_s - N_s) P_s, bounds the distance to the maximum. The
    run has converged when Delta <= tol * N; otherwise one line-searched step
    rho <- (1 - gamma) rho + gamma |v><v| toward the top eigenvector v of G
    leaves the face the ascent stalled on, and BFGS resumes. ``tol`` is a gap
    per shot. ``iterations`` counts both kinds of step; a run that reaches
    ``max_iter`` stops with converged=False. The output is strictly physical
    either way.
    """
    recs = sorted(records, key=lambda r: r.setting_index)
    linear = None if hv_block_empty(recs) else linear_reconstruct(recs)
    shots = np.array([r.total_shots for r in recs], dtype=float)
    scale = float(np.mean(shots))
    # per shot, so that tol and the line search do not depend on the budget
    counts = np.array([r.counts for r in recs], dtype=float) / scale
    shots = shots / scale

    z = _start(linear)
    ll, grad, probs, weights = _likelihood(z, counts, shots)
    inv_hess = _inverse_curvature(z, grad, probs, weights, counts)
    stalled = False
    it = 0
    while it < max_iter:
        if stalled or math.sqrt((grad @ grad) * (z @ z)) <= tol:
            gap, top = _frank_wolfe_gap(probs, weights)
            if gap <= tol:
                break
            vertex = np.outer(top, top.conj())
            gamma = _segment_step(probs, (_DESIGN @ vertex.reshape(16)).real, counts, shots)
            if gamma == 0.0:
                break
            z = _factor(*np.linalg.eigh((1.0 - gamma) * _density(z) + gamma * vertex))
            ll, grad, probs, weights = _likelihood(z, counts, shots)
            inv_hess = _inverse_curvature(z, grad, probs, weights, counts)
            stalled = False
            it += 1
            continue
        step = inv_hess @ grad
        slope, t = grad @ step, 1.0
        for _ in range(60):
            cand = _likelihood(z + t * step, counts, shots)
            if cand[0] >= ll + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            stalled = True
            continue
        s, y = t * step, grad - cand[1]
        sy = s @ y
        if sy > 0:  # BFGS update of the inverse Hessian
            hy = inv_hess @ y / sy
            u = ((1.0 + y @ hy) / sy) * s - hy
            inv_hess += u[:, None] * s - s[:, None] * hy
        z = z + s
        ll, grad, probs, weights = cand
        it += 1

    gap, _ = _frank_wolfe_gap(probs, weights)
    # T T^dagger is PSD by construction; validate it once
    final = DensityMatrix(_density(z), (2, 2), eig_atol=ATOL_ARITHMETIC)
    return MLReconstruction(final, gap <= tol, it, float(ll * scale), gap * scale, linear)


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
