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
# above ATOL_SPECTRAL; fidelity accepts them up to PSD_TOL_MEASURED, and
# tomography.project_to_psd an anti-Hermitian part up to HERM_TOL_MEASURED.
PSD_TOL_MEASURED = 1e-6
HERM_TOL_MEASURED = 1e-8


def structural_atol() -> float:
    """The structural tolerance, read at each completeness and unitarity check
    through this one function, so that a test can patch it."""
    return ATOL_STRUCTURAL


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
        check_residuals(abs(float(np.linalg.norm(amps)) - 1.0), ATOL_ARITHMETIC,
                        "state norm deviates from 1 by {:.3e}")
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

    def __init__(self, matrix, dims: Sequence[int], *, eig_atol: float | None = ATOL_SPECTRAL):
        mat = np.asarray(matrix, dtype=complex)
        dims = tuple(int(d) for d in dims)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvalidState(f"density matrix must be square, got shape {mat.shape}")
        if math.prod(dims) != mat.shape[0]:
            raise InvalidState(f"dims {dims} do not multiply to matrix size {mat.shape[0]}")
        if not np.all(np.isfinite(mat)):
            raise InvalidState("density matrix entries must be finite")
        check_densities(mat, eig_atol=eig_atol)
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


def check_residuals(res, tol: float, message: str, *, error=InvalidState,
                    first_index: int = 0) -> None:
    """Raise ``error`` for the first residual of ``res`` above ``tol``: the one
    test of every invariant the package enforces. ``res`` is one residual or an
    array over a stack; the text is ``message.format(r)`` for the failing r,
    prefixed, for stack entry i, with ``point {first_index + i}: ``."""
    res = np.asarray(res)
    bad = res > tol
    if not bad.any():
        return
    if res.ndim == 0:
        raise error(message.format(float(res)))
    i = int(np.argmax(bad))
    raise error(f"point {first_index + i}: " + message.format(float(res[i])))


def check_densities(mats, *, eig_atol: float | None = ATOL_SPECTRAL, first_index: int = 0) -> None:
    """Raise InvalidState unless every matrix of ``mats``, one or a stack, is a
    density matrix: Hermitian and of unit trace to ATOL_STRUCTURAL, and no
    eigenvalue below -eig_atol (``None`` skips that). ``check_residuals`` tests
    one invariant at a time, in that order, over the whole stack."""
    herm, tdev, lo = density_residuals(mats, eig=eig_atol is not None)
    check_residuals(herm, ATOL_STRUCTURAL,
                    f"hermiticity residual {{:.3e}} exceeds {ATOL_STRUCTURAL:.1e}",
                    first_index=first_index)
    check_residuals(tdev, ATOL_STRUCTURAL, "trace deviates from 1 by {:.3e}",
                    first_index=first_index)
    if eig_atol is not None:  # -lo is above eig_atol, so "-{}" prints lo itself
        check_residuals(-lo, eig_atol, f"minimum eigenvalue -{{:.3e}} below -{eig_atol:.1e}",
                        first_index=first_index)


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
    F = (Tr sqrt(W^dagger sigma W))^2, and the eigenvalues of W^dagger sigma W
    are kept by the same rule. A rounding-level eigenvalue (~1e-17) of either
    would otherwise add its square root (~3e-9) to the trace.
    """
    a = _as_matrix(rho)
    b = _as_matrix(sigma)
    if a.shape != b.shape:
        raise InvalidArgument(f"dimension mismatch: {a.shape} vs {b.shape}")
    w, v = np.linalg.eigh((a + a.conj().T) / 2)
    for name, lo in (("rho", w[0]), ("sigma", np.linalg.eigvalsh((b + b.conj().T) / 2)[0])):
        check_residuals(-lo, psd_tol, f"{name} has eigenvalue -{{:.3e}} below -{psd_tol:.1e}")
    rounding = a.shape[0] * np.finfo(float).eps  # per unit of the largest |eigenvalue|
    support = w > rounding * np.abs(w).max()
    root = v[:, support] * np.sqrt(w[support])
    inner = root.conj().T @ b @ root
    lam = np.linalg.eigvalsh((inner + inner.conj().T) / 2)  # empty when rho is 0
    lam = lam[lam > rounding * np.abs(lam).max(initial=0.0)]
    return min(float(np.sum(np.sqrt(lam)) ** 2), 1.0)


def unitarity_residual(u: np.ndarray):
    """Frobenius norm of U^dagger U - I; an array of them for a stack of matrices."""
    u = np.asarray(u, dtype=complex)
    res = np.linalg.norm(dagger(u) @ u - np.eye(u.shape[-1]), axis=(-2, -1))
    return float(res) if res.ndim == 0 else res


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


def _json_text(payload: dict) -> str:
    """The JSON text of a payload, the same on stdout and in files. Private, so
    that a traced run charges the encoding to the caller that writes it."""
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def save_json(payload: dict, path: str) -> None:
    write_atomic(path, _json_text(payload))


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
