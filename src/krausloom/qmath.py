"""Complex linear algebra substrate: states, density matrices, traces, fidelity.

Conventions used throughout the package:

* Tensor factors are ordered left to right, the left factor being the
  slowest-varying index of the composite vector (numpy ``kron`` order).
* Qubit basis states are indexed 0/1; the polarization qubit uses 0 = H,
  1 = V.
* Unitaries are plain complex ndarrays; ``unitarity_residual`` checks them.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidArgument, InvalidState

# Tolerance tiers. Arithmetic: values that should be exact up to rounding.
# Structural: matrix-shaped invariants (hermiticity, completeness, unitarity).
# Spectral: eigenvalue-level statements, the loosest tier.
ATOL_ARITHMETIC = 1e-12
ATOL_STRUCTURAL = 1e-10
ATOL_SPECTRAL = 1e-9

# Reconstructed matrices from real measurements carry eigenvalue noise well
# above ATOL_SPECTRAL; fidelity accepts them up to this bound.
PSD_TOL_MEASURED = 1e-6


def structural_atol() -> float:
    """Structural tolerance, overridable through KRAUSLOOM_TOL (testing only)."""
    raw = os.environ.get("KRAUSLOOM_TOL")
    if raw is None:
        return ATOL_STRUCTURAL
    try:
        value = float(raw)
    except ValueError as exc:
        raise InvalidArgument(f"KRAUSLOOM_TOL is not a number: {raw!r}") from exc
    if not (value > 0 and math.isfinite(value)):
        raise InvalidArgument(f"KRAUSLOOM_TOL must be a positive finite number, got {value}")
    return value


def _as_matrix(obj) -> np.ndarray:
    """Accept a DensityMatrix, a PureState (as |psi><psi|) or a bare ndarray."""
    if isinstance(obj, DensityMatrix):
        return obj.matrix
    if isinstance(obj, PureState):
        return np.outer(obj.amplitudes, obj.amplitudes.conj())
    return np.asarray(obj, dtype=complex)


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitude vector over a product of subsystems."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __init__(self, amplitudes, dims: Sequence[int]):
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        dims = tuple(int(d) for d in dims)
        if not np.all(np.isfinite(amps)):
            raise InvalidState("state amplitudes must be finite")
        if math.prod(dims) != amps.size:
            raise InvalidState(f"dims {dims} do not multiply to vector length {amps.size}")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > ATOL_ARITHMETIC:
            raise InvalidState(f"state norm deviates from 1 by {abs(norm - 1.0):.3e}")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()), self.dims)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix with subsystem dims.

    The eigenvalue check may be relaxed (``eig_atol``) or skipped
    (``eig_atol=None``) for intermediate results such as raw linear-inversion
    output, which is Hermitian and normalized but not guaranteed PSD.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __init__(
        self,
        matrix,
        dims: Sequence[int],
        *,
        herm_atol: float = ATOL_STRUCTURAL,
        trace_atol: float = ATOL_STRUCTURAL,
        eig_atol: float | None = ATOL_SPECTRAL,
    ):
        mat = np.asarray(matrix, dtype=complex)
        dims = tuple(int(d) for d in dims)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvalidState(f"density matrix must be square, got shape {mat.shape}")
        if math.prod(dims) != mat.shape[0]:
            raise InvalidState(f"dims {dims} do not multiply to matrix size {mat.shape[0]}")
        if not np.all(np.isfinite(mat)):
            raise InvalidState("density matrix entries must be finite")
        check_densities(mat, herm_atol=herm_atol, trace_atol=trace_atol, eig_atol=eig_atol)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class DensityReport:
    """Diagnostics from validate_density; the caller decides pass/fail."""

    hermiticity_residual: float
    trace_deviation: float
    min_eigenvalue: float

    def ok(
        self,
        herm_atol: float = ATOL_STRUCTURAL,
        trace_atol: float = ATOL_STRUCTURAL,
        eig_atol: float = ATOL_SPECTRAL,
    ) -> bool:
        return (
            self.hermiticity_residual <= herm_atol
            and self.trace_deviation <= trace_atol
            and self.min_eigenvalue >= -eig_atol
        )


def density_residuals(mats, *, eig: bool = True):
    """(hermiticity residual, trace deviation, minimum eigenvalue) of one
    square matrix, or arrays of them over a stack of shape (B, d, d).

    The eigenvalue is None when ``eig`` is false.
    """
    mats = np.asarray(mats, dtype=complex)
    adj = dagger(mats)
    herm = np.abs(mats - adj).max(axis=(-2, -1))
    tdev = np.abs(mats.trace(axis1=-2, axis2=-1) - 1.0)
    lo = np.linalg.eigvalsh((mats + adj) / 2).min(axis=-1) if eig else None
    return herm, tdev, lo


def check_densities(
    mats,
    *,
    herm_atol: float = ATOL_STRUCTURAL,
    trace_atol: float = ATOL_STRUCTURAL,
    eig_atol: float | None = ATOL_SPECTRAL,
    first_index: int = 0,
) -> None:
    """Raise InvalidState unless every matrix of ``mats`` is a density matrix.

    ``mats`` is one matrix or a stack; a failing stack entry is named by its
    index plus ``first_index``. ``eig_atol=None`` skips the eigenvalue check.
    """
    herm, tdev, lo = density_residuals(mats, eig=eig_atol is not None)
    bad = (herm > herm_atol) | (tdev > trace_atol)
    if eig_atol is not None:
        bad = bad | (lo < -eig_atol)
    if not bad.any():
        return
    i = int(np.argmax(bad))
    where = f"point {first_index + i}: " if np.ndim(mats) == 3 else ""
    herm, tdev = np.ravel(herm)[i], np.ravel(tdev)[i]
    if herm > herm_atol:
        raise InvalidState(f"{where}hermiticity residual {herm:.3e} exceeds {herm_atol:.1e}")
    if tdev > trace_atol:
        raise InvalidState(f"{where}trace deviates from 1 by {tdev:.3e}")
    raise InvalidState(f"{where}minimum eigenvalue {np.ravel(lo)[i]:.3e} below -{eig_atol:.1e}")


def validate_density(rho) -> DensityReport:
    """Measure the three density-matrix invariants without judging them."""
    mat = _as_matrix(rho)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InvalidArgument(f"expected a square matrix, got shape {mat.shape}")
    return DensityReport(*(float(x) for x in density_residuals(mat)))


def dagger(m) -> np.ndarray:
    """Conjugate transpose; of each matrix, for a stack of them."""
    return np.asarray(m, dtype=complex).conj().swapaxes(-1, -2)


def tensor(a, b):
    """Kronecker product; the left operand varies slowest.

    Two PureStates give a PureState, two DensityMatrices a DensityMatrix,
    two bare arrays a bare array. dims lists concatenate.
    """
    if isinstance(a, PureState) and isinstance(b, PureState):
        return PureState(np.kron(a.amplitudes, b.amplitudes), a.dims + b.dims)
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        return DensityMatrix(np.kron(a.matrix, b.matrix), a.dims + b.dims)
    if isinstance(a, (PureState, DensityMatrix)) or isinstance(b, (PureState, DensityMatrix)):
        raise InvalidArgument("tensor operands must be both states, both densities, or both arrays")
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Trace out every subsystem not listed in ``keep`` (original order kept)."""
    keep = tuple(int(k) for k in keep)
    n = len(rho.dims)
    if len(keep) == 0:
        raise InvalidArgument("keep set must be nonempty")
    if len(set(keep)) != len(keep) or any(k < 0 or k >= n for k in keep):
        raise InvalidArgument(f"keep indices {keep} invalid for {n} subsystems")
    keep = tuple(sorted(keep))
    traced = [i for i in range(n) if i not in keep]

    arr = rho.matrix.reshape(rho.dims + rho.dims)
    dims = list(rho.dims)
    for idx in sorted(traced, reverse=True):
        arr = np.trace(arr, axis1=idx, axis2=idx + len(dims))
        del dims[idx]
    d = math.prod(dims)
    out = arr.reshape(d, d)
    return DensityMatrix(out, dims, eig_atol=None)


def fidelity(rho, sigma, *, psd_tol: float = PSD_TOL_MEASURED) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, in [0, 1].

    Accepts DensityMatrix or bare Hermitian arrays. Eigenvalues slightly
    below zero (down to ``-psd_tol``) are clipped; anything lower raises.
    The trace runs over the support of rho: with rho = W W^dagger, W built
    from the eigenvalues of rho above rounding level (d * eps * ||rho||),
    F = (Tr sqrt(W^dagger sigma W))^2. A rounding-level eigenvalue (~1e-17)
    would otherwise add its square root (~3e-9) to the trace.
    """
    a = _as_matrix(rho)
    b = _as_matrix(sigma)
    if a.shape != b.shape:
        raise InvalidArgument(f"dimension mismatch: {a.shape} vs {b.shape}")
    w, v = np.linalg.eigh((a + a.conj().T) / 2)
    for name, lo in (("rho", w[0]), ("sigma", np.linalg.eigvalsh((b + b.conj().T) / 2)[0])):
        if lo < -psd_tol:
            raise InvalidState(f"{name} has eigenvalue {lo:.3e} below -{psd_tol:.1e}")
    support = w > a.shape[0] * np.finfo(float).eps * np.abs(w).max()
    root = v[:, support] * np.sqrt(w[support])
    inner = root.conj().T @ b @ root
    lam = np.clip(np.linalg.eigvalsh((inner + inner.conj().T) / 2), 0.0, None)
    return min(float(np.sum(np.sqrt(lam)) ** 2), 1.0)


def unitarity_residual(u: np.ndarray):
    """Frobenius norm of U^dagger U - I; an array of them for a stack of matrices."""
    u = np.asarray(u, dtype=complex)
    res = np.linalg.norm(dagger(u) @ u - np.eye(u.shape[-1]), axis=(-2, -1))
    return float(res) if res.ndim == 0 else res


def assert_unitary(u: np.ndarray, atol: float | None = None) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    tol = structural_atol() if atol is None else atol
    res = unitarity_residual(u)
    if res > tol:
        raise InvalidState(f"unitarity residual {res:.3e} exceeds {tol:.1e}")
    return u


# -- serialization ------------------------------------------------------------
# Density matrices and states travel as {"dims": [...], "re": ..., "im": ...}
# with full double precision; matrices use row-major nested lists.


def density_to_payload(rho: DensityMatrix) -> dict:
    return matrix_to_payload(rho.matrix, rho.dims)


def matrix_to_payload(matrix: np.ndarray, dims: Sequence[int]) -> dict:
    """The density payload of a matrix already checked, e.g. one of a checked stack."""
    return {"dims": list(dims), "re": matrix.real.tolist(), "im": matrix.imag.tolist()}


def density_from_payload(payload: dict, **tol_kwargs) -> DensityMatrix:
    try:
        mat = np.asarray(payload["re"], dtype=float) + 1j * np.asarray(payload["im"], dtype=float)
        dims = payload["dims"]
    except (KeyError, TypeError) as exc:
        raise InvalidArgument(f"bad density payload: {exc}") from exc
    return DensityMatrix(mat, dims, **tol_kwargs)


def state_to_payload(psi: PureState) -> dict:
    return {
        "dims": list(psi.dims),
        "re": psi.amplitudes.real.tolist(),
        "im": psi.amplitudes.imag.tolist(),
    }


def state_from_payload(payload: dict) -> PureState:
    try:
        amps = np.asarray(payload["re"], dtype=float) + 1j * np.asarray(payload["im"], dtype=float)
        dims = payload["dims"]
    except (KeyError, TypeError) as exc:
        raise InvalidArgument(f"bad state payload: {exc}") from exc
    return PureState(amps, dims)


def write_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through ``path.tmp`` and ``os.replace``, so
    that ``path`` keeps its old content until the new one is complete."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_json(payload: dict, path: str) -> None:
    write_atomic(path, json.dumps(payload, sort_keys=True, indent=1) + "\n")


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
