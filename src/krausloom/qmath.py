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
import numbers
import os
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InternalConsistencyError, InvalidArgument, InvalidState, KrausloomError

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


def _subsystem_dims(dims: Sequence[int]) -> tuple[int, ...]:
    """``dims`` as a tuple of ints; each must be a positive integer, not a bool."""
    dims = tuple(dims)
    if not all(isinstance(d, numbers.Integral) and not isinstance(d, bool) and d > 0
               for d in dims):
        raise InvalidState(f"dims must be positive integers, got {list(dims)}")
    return tuple(int(d) for d in dims)


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitude vector over a product of subsystems."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __init__(self, amplitudes, dims: Sequence[int]):
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        dims = _subsystem_dims(dims)
        if not np.all(np.isfinite(amps)):
            raise InvalidState("state amplitudes must be finite")
        if math.prod(dims) != amps.size:
            raise InvalidState(f"dims {dims} do not multiply to vector length {amps.size}")
        check_residuals(abs(float(np.linalg.norm(amps)) - 1.0), ATOL_ARITHMETIC, _NORM)
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
        dims = _subsystem_dims(dims)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvalidState(f"density matrix must be square, got shape {mat.shape}")
        if math.prod(dims) != mat.shape[0]:
            raise InvalidState(f"dims {dims} do not multiply to matrix size {mat.shape[0]}")
        if not np.all(np.isfinite(mat)):
            raise InvalidState("density matrix entries must be finite")
        check_densities(mat, eig_atol=eig_atol)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dims", dims)

    @classmethod
    def _of(cls, matrix: np.ndarray, dims: tuple[int, ...]) -> "DensityMatrix":
        """A density matrix already checked, e.g. one of a checked stack."""
        rho = object.__new__(cls)
        object.__setattr__(rho, "matrix", matrix)
        object.__setattr__(rho, "dims", dims)
        return rho

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def density_residuals(mats, *, eig: bool = True):
    """(hermiticity residual, trace deviation, minimum eigenvalue) of one
    square matrix, or arrays of them over a stack of shape (B, d, d).

    The eigenvalue is None when ``eig`` is false, and nan where LAPACK
    refuses a matrix that is not finite; its hermiticity residual is nan then.
    """
    mats = np.asarray(mats, dtype=complex)
    adj = dagger(mats)
    herm = np.abs(mats - adj).max(axis=(-2, -1))
    tdev = np.abs(mats.trace(axis1=-2, axis2=-1) - 1.0)
    if not eig:
        return herm, tdev, None
    try:
        lo = np.linalg.eigvalsh((mats + adj) / 2).min(axis=-1)
    except np.linalg.LinAlgError:
        lo = np.full(np.shape(herm), np.nan)
    return herm, tdev, lo


def _within_tolerance(res, tol: float):
    """Whether a residual, or each of an array of them, passes: at most ``tol``.
    A nan residual never passes."""
    return res <= tol


def check_residuals(res, tol: float, message: str, *, error=InvalidState,
                    first_index: int = 0) -> None:
    """Raise ``error`` for the first residual of ``res`` that is not
    ``_within_tolerance``: the one test of every invariant the package enforces.
    ``res`` is one residual or an array over a stack; the text is
    ``message.format(r)`` for the failing r, prefixed, for stack entry i, with
    ``point {first_index + i}: ``. A float residual that passes costs one comparison."""
    if isinstance(res, float) and _within_tolerance(res, tol):  # np.float64 included
        return
    res = np.asarray(res)
    ok = _within_tolerance(res, tol)
    if ok.all():
        return
    if res.ndim == 0:
        raise error(message.format(float(res)))
    i = int(np.argmax(~ok))
    raise error(f"point {first_index + i}: " + message.format(float(res[i])))


def _check_rows(rows, *, first_index: int = 0) -> np.ndarray:
    """Check (residual, tolerance, message) rows, each over the same B points,
    and return their (K, B) record. The record is compared with its tolerance
    column once; only when a residual fails are the rows walked through
    ``check_residuals`` in order, so the first failing row names its first
    failing point. The rows are the package's own invariants, so a failure
    raises InternalConsistencyError."""
    record = np.array([res for res, _, _ in rows])
    if not _within_tolerance(record, np.array([tol for _, tol, _ in rows])[:, None]).all():
        for res, tol, message in rows:
            check_residuals(res, tol, message, error=InternalConsistencyError,
                            first_index=first_index)
    return record


_UNITARITY = "layer composition unitarity residual {:.3e}"
_NORM = "state norm deviates from 1 by {:.3e}"
_HERMITICITY = f"hermiticity residual {{:.3e}} exceeds {ATOL_STRUCTURAL:.1e}"
_TRACE = "trace deviates from 1 by {:.3e}"


def _density_rows(herm, tdev, lo, eig_atol: float | None = ATOL_SPECTRAL) -> list:
    """The (residual, tolerance, message) rows of a ``density_residuals``
    triple, in the order they are checked: hermiticity and trace to
    ATOL_STRUCTURAL, then -lo to eig_atol unless that is None."""
    rows = [(herm, ATOL_STRUCTURAL, _HERMITICITY), (tdev, ATOL_STRUCTURAL, _TRACE)]
    if eig_atol is not None:  # -lo is above eig_atol, so "-{}" prints lo itself
        rows.append((-lo, eig_atol, f"minimum eigenvalue -{{:.3e}} below -{eig_atol:.1e}"))
    return rows


def check_densities(mats, *, eig_atol: float | None = ATOL_SPECTRAL, first_index: int = 0) -> None:
    """Raise InvalidState unless every matrix of ``mats``, one or a stack, is a
    density matrix: each row of ``_density_rows`` goes through
    ``check_residuals``, one invariant at a time over the whole stack."""
    for res, tol, message in _density_rows(*density_residuals(mats, eig=eig_atol is not None),
                                          eig_atol):
        check_residuals(res, tol, message, first_index=first_index)


def dagger(m) -> np.ndarray:
    """Conjugate transpose; of each matrix, for a stack of them."""
    return np.asarray(m, dtype=complex).conj().swapaxes(-1, -2)


def partial_trace(rho: DensityMatrix, keep: Iterable[int], *,
                  eig_atol: float | None = None) -> DensityMatrix:
    """Trace out every subsystem not listed in ``keep`` (original order kept).
    The result is checked as ``DensityMatrix(..., eig_atol=eig_atol)``: by
    default without its eigenvalues, which a checked input already bounds."""
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
    return DensityMatrix(out, dims, eig_atol=eig_atol)


def fidelity(rho, sigma, *, psd_tol: float | Sequence[float] = PSD_TOL_MEASURED):
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, in [0, 1].

    Accepts DensityMatrix or bare Hermitian arrays. ``rho`` is one matrix, for
    one float, or a sequence or (k, d, d) stack of them, for a list of k
    floats, each bit for bit the float of its own call; ``psd_tol`` is then
    one value for all or one per rho. The rhos share one stacked ``eigh`` and
    sigma's eigenvalue check runs once. Eigenvalues slightly below zero (down
    to ``-psd_tol``) are clipped; anything lower raises, rho by rho, each
    rho's check before sigma's, as the single calls in turn would.
    The trace runs over the support of rho: with rho = W W^dagger, W built
    from the eigenvalues of rho above rounding level (d * eps * ||rho||),
    F = (Tr sqrt(W^dagger sigma W))^2, and the eigenvalues of W^dagger sigma W
    are kept by the same rule. A rounding-level eigenvalue (~1e-17) of either
    would otherwise add its square root (~3e-9) to the trace.
    """
    single = isinstance(rho, (DensityMatrix, PureState)) or np.ndim(rho) == 2
    a = _as_matrix(rho)[None] if single else np.array([_as_matrix(r) for r in rho])
    b = _as_matrix(sigma)
    if a.shape[1:] != b.shape:
        raise InvalidArgument(f"dimension mismatch: {a.shape[1:]} vs {b.shape}")
    tols = [psd_tol] * len(a) if isinstance(psd_tol, (int, float)) else list(psd_tol)
    if len(tols) != len(a):
        raise InvalidArgument(f"{len(tols)} psd_tol values for {len(a)} matrices")
    w, v = np.linalg.eigh((a + a.conj().swapaxes(1, 2)) / 2)
    rounding = b.shape[0] * np.finfo(float).eps  # per unit of the largest |eigenvalue|
    out, sigma_lo = [], None
    for k, tol in enumerate(tols):
        wk, vk = w[k], v[k]  # indexing; iterating over an ndarray costs microseconds
        check_residuals(-wk[0], tol, f"rho has eigenvalue -{{:.3e}} below -{tol:.1e}")
        if sigma_lo is None:  # measured once, after the first rho's check as in a single call
            sigma_lo = np.linalg.eigvalsh((b + b.conj().T) / 2)[0]
        check_residuals(-sigma_lo, tol, f"sigma has eigenvalue -{{:.3e}} below -{tol:.1e}")
        support = wk > rounding * np.abs(wk).max()
        root = vk[:, support] * np.sqrt(wk[support])
        inner = root.conj().T @ b @ root
        lam = np.linalg.eigvalsh((inner + inner.conj().T) / 2)  # empty when rho is 0
        lam = lam[lam > rounding * np.abs(lam).max(initial=0.0)]
        out.append(min(float(np.sum(np.sqrt(lam)) ** 2), 1.0))
    return out[0] if single else out


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
    """The payload of a matrix or an amplitude vector already checked, e.g. one
    of a checked stack."""
    return {"dims": list(dims), "re": matrix.real.tolist(), "im": matrix.imag.tolist()}


def _real(name: str, value):
    """The one rule for a number in an input file: a JSON number, or nested lists
    of them, as floats. Any other value raises TypeError naming ``name``."""
    if isinstance(value, list):
        return [_real(name, v) for v in value]
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be real numbers, got {value!r}")
    return float(value)


def _read_payload(payload: dict, what: str, build):
    """``build(payload)``. A package error keeps its type; a missing key or a value
    that cannot be read is InvalidArgument("bad <what> payload: ...")."""
    try:
        return build(payload)
    except KrausloomError:  # package errors are ValueErrors too; they keep their type
        raise
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise InvalidArgument(f"bad {what} payload: {exc}") from exc


def _entries(payload: dict) -> np.ndarray:
    re, im = np.asarray(_real("re", payload["re"])), np.asarray(_real("im", payload["im"]))
    with np.errstate(invalid="ignore"):  # an infinite im reads as nan + inf j, refused as not finite
        return re + 1j * im


def state_to_payload(psi: PureState) -> dict:
    return matrix_to_payload(psi.amplitudes, psi.dims)


def state_from_payload(payload: dict) -> PureState:
    return _read_payload(payload, "state", lambda p: PureState(_entries(p), p["dims"]))


def write_atomic(path: str, text) -> None:
    """Write ``text``, a string or an iterable of text chunks written in turn,
    to ``path`` through ``path.tmp`` and ``os.replace``, so that ``path`` keeps
    its old content until the new one is complete. A failure, in a chunk's
    making too, removes ``path.tmp``."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _json_text(payload: dict) -> str:
    """The JSON text of a payload, the same on stdout and in files: byte for byte
    ``json.dumps(payload, sort_keys=True, indent=1) + "\\n"``. Private, so that a
    traced run charges the encoding to the caller that writes it."""
    return _json_value(payload, "\n") + "\n"


def _json_chunks(payload: dict, key: str, items) -> Iterator[str]:
    """``_json_text`` of ``payload`` with the list of ``items`` under ``key``, in
    chunks, one per item, so that the list is never held. ``key`` sorts after
    every other key of ``payload``, and ``items`` holds at least one item."""
    rest = sorted((k, v) for k, v in payload.items() if k != key)
    yield "{" + "".join(["\n " + _json_key(k) + ": " + _json_value(v, "\n ") + "," for k, v in rest])
    yield "\n " + _json_key(key) + ": ["
    for i, item in enumerate(items):
        yield ("," if i else "") + "\n  " + _json_value(item, "\n  ")
    yield "\n ]\n}\n"


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_key(key) -> str:
    if not isinstance(key, (str, int, float)) and key is not None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
    return _json_str(key if isinstance(key, str) else _json_value(key, ""))


def _json_value(value, newline: str) -> str:
    """``value`` as json writes it, in json's order of type tests, each line
    after the first starting with ``newline``."""
    if isinstance(value, str):
        return _json_str(value)
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _JSON_NONFINITE.get(text, text)
    inner = newline + " "
    sep = "," + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if all(type(v) is float for v in value):  # a row of floats: one join
            body = sep.join(map(float.__repr__, value))
            if "n" not in body:  # json spells nan and inf otherwise
                return "[" + inner + body + newline + "]"
        return "[" + inner + sep.join([_json_value(v, inner) for v in value]) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [_json_key(k) + ": " + _json_value(v, inner) for k, v in sorted(value.items())]
        return "{" + inner + sep.join(items) + newline + "}"
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def save_json(payload: dict, path: str) -> None:
    write_atomic(path, _json_text(payload))


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
