"""Two-qubit state tomography over the 16 path-projection settings.

Settings are pairs of single-qubit rotations applied before projecting on
|00>; the label states are H, V, D = (H+V)/sqrt2 and R = (H+iV)/sqrt2.
The settings are fixed, so their (16, 4, 4) projector stack, the
linear-inversion design matrix and the projectors' quadratic forms in a
Hermitian T are built once, read-only, when the module loads; counts and
both reconstructions read that one stack. Reconstruction is maximum
likelihood, started from linear inversion, which the result carries as
``linear`` (None when the H/V block counted nothing). It is a damped Newton
ascent of the Poisson likelihood over rho = T^2 / Tr(T^2), T = T^dagger,
which is physical at every step, stopped once the Frank-Wolfe gap certifies
that the likelihood lies within ``tol`` per shot of its maximum. The
likelihood does not depend on the scale of T, so each Newton step is taken
on the tangent space orthogonal to it: one 16x16 solve, with no eigenvalue
shift. Where that step does not ascend, the Frank-Wolfe step toward the
gradient's top eigenvector replaces it.
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


# An orthonormal basis of the Hermitian 4x4 matrices, Tr(B_j B_k) = delta_jk: the
# four diagonal units, then U + U^dagger for U = E_jk / sqrt2 and U = i E_jk / sqrt2, j < k.
_BASIS = np.zeros((16, 4, 4), dtype=complex)
_BASIS[range(4), range(4), range(4)] = 1.0
_BASIS[range(4, 16), [0, 0, 0, 1, 1, 2] * 2, [1, 2, 3, 2, 3, 3] * 2] = (
    [math.sqrt(0.5)] * 6 + [1j * math.sqrt(0.5)] * 6)
_BASIS[4:] += _BASIS[4:].conj().transpose(0, 2, 1)
_BASIS = _read_only(_BASIS.reshape(16, 16))  # row k: B_k flattened
# With T = sum_k theta_k B_k, Tr(P_s T^2) = theta^T A_s theta, where
# A_s[j, k] = Re Tr(P_s B_j B_k); symmetrized, shape (16, 16, 16).
_FORMS = (_DESIGN @ (_BASIS.reshape(16, 1, 4, 4) @ _BASIS.reshape(1, 16, 4, 4))
          .reshape(256, 16).T).real.reshape(16, 16, 16)
_FORMS = _read_only((_FORMS + _FORMS.transpose(0, 2, 1)) / 2)
_DIAGONAL = np.diag_indices(16)


def assert_informationally_complete() -> None:
    """The 16 vectorized projectors must span the full 16-dim operator space."""
    rank = np.linalg.matrix_rank(_DESIGN, tol=ATOL_STRUCTURAL)
    if rank != 16:
        raise InvalidState(f"projector set spans rank {rank} < 16; reconstruction impossible")


assert_informationally_complete()


# The largest shot budget. ML multiplies its likelihood and gap per shot by the
# mean total; up to 1e305 both products stay finite while below 1.7e3 per shot.
SHOTS_MAX = 10**305
# A count may exceed its total, as a Poisson draw may, but by at most this
# factor: ML's counts per shot then stay small enough for its weights c_s / p_s.
COUNTS_PER_SHOT_MAX = 1000
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
    if shots > SHOTS_MAX:
        raise InvalidArgument(f"shots must be at most {SHOTS_MAX:.0e}")
    if noise and seed is not None and seed < 0:
        raise InvalidArgument(f"seed must be non-negative, got {seed}")
    branches = _branch_probabilities(rho)
    probs = np.minimum(branches.sum(axis=1), 1.0)
    if noise:
        means = branches * shots
        if means.max() > _POISSON_MEAN_MAX:
            raise InvalidArgument(
                f"shots {shots:.3e} is too large for a Poisson draw (largest mean "
                f"{means.max():.3e}, limit {_POISSON_MEAN_MAX:.3e})"
            )
        counts = np.random.default_rng(seed).poisson(means).sum(axis=1)
    else:
        counts = [round(float(p) * shots) for p in probs]
    return [
        CountRecord(s.index, "".join(s.label), float(p), int(c), int(shots))
        for s, p, c in zip(_SETTINGS, probs, counts)
    ]


def _check_counts(record: CountRecord, where: str) -> None:
    """Refuse a negative count or a total below 1, naming the record by
    ``where``; a count above its total is legal, as Poisson draws make them."""
    if not (record.counts >= 0 and record.total_shots >= 1):
        raise InvalidArgument(f"{where}: counts must be >= 0 and total_shots >= 1, "
                              f"got {record.counts} and {record.total_shots}")


def _records_and_frequencies(records):
    """The records in setting order, and each setting's frequency. The
    frequencies are None when the H/V block (settings 1..4) counted nothing,
    whatever the totals: linear inversion then has no trace to normalize by."""
    recs = sorted(records, key=lambda r: r.setting_index)
    if [r.setting_index for r in recs] != list(range(1, 17)):
        raise InvalidArgument("all 16 settings must be present exactly once")
    for r in recs:
        _check_counts(r, f"setting {r.setting_index} ({r.label})")
    # rows 1..4 project onto an orthonormal basis, so their counts sum to the
    # total intensity
    block = sum(r.counts for r in recs[:4])
    if block == 0:
        return recs, None
    if len({r.total_shots for r in recs}) == 1:  # normalize everything against that block
        return recs, np.array([r.counts / block for r in recs])
    return recs, np.array([r.counts / r.total_shots for r in recs])


def _invert(freqs: np.ndarray) -> DensityMatrix:
    rho = np.linalg.solve(_DESIGN, freqs.astype(complex)).reshape(4, 4)
    rho = (rho + rho.conj().T) / 2
    return DensityMatrix(rho / np.trace(rho).real, (2, 2), eig_atol=None)


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


def _likelihood(theta: np.ndarray, counts: np.ndarray, shots: np.ndarray):
    """Log-likelihood of rho = T^2 / Tr(T^2), T = sum_k theta_k B_k, with its
    gradient in theta (orthogonal to theta), the probabilities p_s, the weights
    g_s = c_s / p_s - N_s of its gradient G = sum_s g_s P_s in rho, the rows
    A_s theta and n = theta.theta = Tr(T^2)."""
    forms_theta = _FORMS @ theta
    norm = theta @ theta
    probs = np.maximum(forms_theta @ theta / norm, 1e-300)
    weights = counts / probs - shots
    ll = counts @ np.log(probs) - shots @ probs
    grad = (2.0 / norm) * (weights @ forms_theta - (weights @ probs) * theta)
    return ll, grad, probs, weights, forms_theta, norm


def _square_root(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """theta of the Hermitian square root T = V sqrt(W) V^dagger, so that T^2 = V W V^dagger."""
    t = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    return (_BASIS.conj() @ t.reshape(16)).real


def _start(linear: DensityMatrix | None) -> np.ndarray:
    """theta of the linear estimate with its negative eigenvalues clipped,
    mixed with 1e-9 of I/4 so that it is full rank; theta of I/4 without an
    estimate."""
    if linear is None:
        return _square_root(np.full(4, 0.25), np.eye(4))
    w, v = np.linalg.eigh(linear.matrix)
    w = np.clip(w, 0.0, None)
    return _square_root((1.0 - 1e-9) * w / np.sum(w) + 1e-9 / 4.0, v)


def _curvature(theta, counts, grad, probs, weights, forms_theta, norm) -> np.ndarray:
    """M = -Hessian of the likelihood in theta, from what ``_likelihood`` returns.

    With D_s = dp_s/dtheta = (2/n)(A_s theta - p_s theta) and g = sum_s w_s D_s,
    M = sum_s (c_s / p_s^2) D_s D_s^T
        - (2/n) [sum_s w_s A_s - (w.p) I - theta g^T - g theta^T].
    """
    d = (2.0 / norm) * (forms_theta - probs[:, None] * theta)
    outer = theta[:, None] * grad
    inner = (weights @ _FORMS.reshape(16, 256)).reshape(16, 16) - outer - outer.T
    inner[_DIAGONAL] -= weights @ probs
    return (d.T * (counts / probs / probs)) @ d - (2.0 / norm) * inner


def _tangent_matrix(theta, counts, grad, probs, weights, forms_theta, norm) -> np.ndarray:
    """A = M - (theta g^T + g theta^T)/n + (c/n) theta theta^T, c the mean
    diagonal of the tangent block.

    The likelihood is flat along the scale of T, so M theta = g and theta.g = 0:
    on theta-perp, A is P M P with P = I - theta theta^T / n, and A theta = c theta.
    For g orthogonal to theta, A s = g therefore gives s orthogonal to theta, the
    exact Newton step on the tangent space (Absil, Mahony & Sepulchre,
    Optimization Algorithms on Matrix Manifolds (2008), ch. 6), whatever c > 0 is.
    """
    m = _curvature(theta, counts, grad, probs, weights, forms_theta, norm)
    outer = theta[:, None] * grad
    m -= (outer + outer.T) / norm
    m += (m.trace() / (16 * norm)) * theta[:, None] * theta
    return m


def _density(theta: np.ndarray) -> np.ndarray:
    t = (theta @ _BASIS).reshape(4, 4)
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
    decreases in gamma because the likelihood is concave. The sum runs over
    the settings with c_s > 0 only, as the likelihood's does: a zero count's
    mixed probability may reach 0, and 0 / 0 is not 0. The target's
    probabilities are clipped at 0: a rounding-negative one would let a
    counted setting's mixed probability cross 0 just below gamma = 1."""
    diff = np.maximum(target, 0.0) - probs
    drift = shots @ diff
    seen = counts > 0
    counts, probs, moved = counts[seen], probs[seen], diff[seen]
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if counts @ (moved / (probs + mid * moved)) > drift:
            lo = mid
        else:
            hi = mid
    return lo


def ml_reconstruct(records, max_iter: int = 600, tol: float = 1e-7) -> MLReconstruction:
    """Maximum-likelihood reconstruction by damped Newton ascent, stopped on a
    certified optimality gap.

    The objective is the Poisson log-likelihood
    l(rho) = sum_{c_s > 0} c_s log p_s - sum_s N_s p_s, p_s = Tr(rho P_s),
    over rho = T^2 / Tr(T^2), T = T^dagger (James, Kwiat, Munro & White, PRA
    64, 052312 (2001), with T gauge-fixed to the Hermitian square root): every
    iterate is a density matrix, and the ascent over the 16 coordinates theta
    of T is unconstrained. Each step is the exact Newton step on the tangent
    space orthogonal to theta (``_tangent_matrix``), one solve, backtracked by
    Armijo (Nocedal & Wright, Numerical Optimization, 2nd ed., ch. 3), from the
    clipped linear estimate mixed with 1e-9 of the identity, which is full
    rank, or from I/4 when the H/V block is empty. ``linear`` in the result
    is that linear estimate, or None.

    Once |grad_theta l| |theta| <= tol * N, N the mean total_shots, or once a
    Newton step does not ascend or finds no Armijo point, the Frank-Wolfe gap
    Delta = lambda_max(G) - Tr(rho G), G = sum_s (c_s / p_s - N_s) P_s, bounds
    the distance to the maximum. The run has converged when Delta <= tol * N
    (``tol`` is a gap per shot); otherwise one line-searched step
    rho <- (1 - gamma) rho + gamma |v><v| toward the top eigenvector v of G
    (Jaggi, ICML 2013) leaves the face the ascent stalled on. ``iterations``
    counts both kinds of step; a run that reaches ``max_iter`` stops with
    converged=False. The output is strictly physical either way. A negative
    count or a total below 1, which ``load_counts`` refuses too, a total above
    SHOTS_MAX, or a count above SHOTS_MAX or above COUNTS_PER_SHOT_MAX times its
    total, raises InvalidArgument naming the record.
    """
    recs, freqs = _records_and_frequencies(records)
    if max(r.total_shots for r in recs) > SHOTS_MAX:
        raise InvalidArgument(f"total_shots must be at most {SHOTS_MAX:.0e}")
    for r in recs:
        if not r.counts <= min(SHOTS_MAX, COUNTS_PER_SHOT_MAX * r.total_shots):
            raise InvalidArgument(
                f"setting {r.setting_index} ({r.label}): counts must be at most {COUNTS_PER_SHOT_MAX} "
                f"times total_shots ({r.total_shots:.3g}) and at most {SHOTS_MAX:.0e}")
    linear = None if freqs is None else _invert(freqs)
    shots = np.array([r.total_shots for r in recs], dtype=float)
    scale = float(np.mean(shots))
    # per shot, so that tol and the line search do not depend on the budget
    counts = np.array([r.counts for r in recs], dtype=float) / scale
    shots = shots / scale

    theta = _start(linear)
    state = _likelihood(theta, counts, shots)
    gap, stalled, it = None, False, 0  # gap: the Frank-Wolfe gap at theta, once computed
    while it < max_iter:
        ll, grad, probs, weights, _, norm = state
        if stalled or math.sqrt((grad @ grad) * norm) <= tol:
            gap, top = _frank_wolfe_gap(probs, weights)
            if gap <= tol:
                break
            vertex = np.outer(top, top.conj())
            gamma = _segment_step(probs, (_DESIGN @ vertex.reshape(16)).real, counts, shots)
            if gamma == 0.0:
                break
            theta = _square_root(*np.linalg.eigh((1.0 - gamma) * _density(theta) + gamma * vertex))
            state = _likelihood(theta, counts, shots)
        else:
            step = np.linalg.solve(_tangent_matrix(theta, counts, *state[1:]), grad)
            slope, t = grad @ step, 1.0
            if not slope > 0.0:  # not an ascent: M is indefinite on the tangent space
                stalled = True
                continue
            for _ in range(60):
                cand = _likelihood(theta + t * step, counts, shots)
                if cand[0] >= ll + 1e-4 * t * slope:
                    break
                t *= 0.5
            else:
                stalled = True
                continue
            theta, state = theta + t * step, cand
        gap, stalled = None, False
        it += 1

    if gap is None:
        gap, _ = _frank_wolfe_gap(*state[2:4])
    # T^2 is PSD by construction; validate it once
    final = DensityMatrix(_density(theta), (2, 2), eig_atol=ATOL_ARITHMETIC)
    return MLReconstruction(final, gap <= tol, it, float(state[0] * scale), gap * scale, linear)


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
            try:  # four fields, and integers but for the label
                idx, label, counts, total = line.split(",")
                record = CountRecord(int(idx), label, None, int(counts), int(total))
            except ValueError as exc:
                raise InvalidArgument(
                    f"{path}:{line_no}: expected index,label,counts,total_shots ({exc})") from exc
            _check_counts(record, f"{path}:{line_no}")
            records.append(record)
    return records
