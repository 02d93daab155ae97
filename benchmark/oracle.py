"""Reference computations the benchmark checks krausloom's outputs against.

Everything here is written from the channel definitions and plain linear
algebra, with numpy only; nothing is imported from krausloom, so a fault in
the program cannot hide in its own oracle.
"""

from __future__ import annotations

import math

import numpy as np

# Label states of the 16 tomography settings (H = 0, V = 1).
LABEL_STATES = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
    "R": np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0),
}


def qubit(c: float, s: float) -> np.ndarray:
    """Density matrix of the real pure qubit c|0> + s|1>."""
    return np.array([[c * c, c * s], [c * s, s * s]], dtype=complex)


def prepared_qubit(theta: float) -> np.ndarray:
    """System qubit of the half-angle preparation: cos(theta/2)|0> + sin(theta/2)|1>."""
    return qubit(math.cos(theta / 2.0), math.sin(theta / 2.0))


def dephasing(rho: np.ndarray, p: float) -> np.ndarray:
    """Populations kept, coherences scaled by sqrt(1 - p)."""
    out = rho.copy()
    out[0, 1] *= math.sqrt(1.0 - p)
    out[1, 0] *= math.sqrt(1.0 - p)
    return out


def gad(rho: np.ndarray, p: float, a: float) -> np.ndarray:
    """Damping with probability p toward the bath state diag(a, 1 - a)."""
    r00 = (1.0 - p) * rho[0, 0].real + p * a
    c = math.sqrt(1.0 - p) * rho[0, 1]
    return np.array([[r00, c], [np.conj(c), 1.0 - r00]], dtype=complex)


def sgad(rho, alpha, beta, mu, nu, phi, lam, a) -> np.ndarray:
    """Squeezed damping: the ground-bath share a moves populations with rates
    (alpha up, beta down), the excited share 1 - a with (mu up, nu down), and
    each share mixes the two coherences with the phase of its upward move."""
    b = 1.0 - a
    r00, r11, r01 = rho[0, 0].real, rho[1, 1].real, rho[0, 1]
    up = a * alpha + b * mu
    down = a * beta + b * nu
    keep = a * math.sqrt((1 - alpha) * (1 - beta)) + b * math.sqrt((1 - mu) * (1 - nu))
    swap = a * math.sqrt(alpha * beta) * np.exp(1j * phi) + b * math.sqrt(mu * nu) * np.exp(1j * lam)
    o00 = (1.0 - up) * r00 + down * r11
    o01 = keep * r01 + swap * np.conj(r01)
    return np.array([[o00, o01], [np.conj(o01), 1.0 - o00]], dtype=complex)


def pauli(rho: np.ndarray, p: float, q1: float, q2: float, q3: float) -> np.ndarray:
    """Bloch components shrink: x by 1 - 2p(q2 + q3), y by 1 - 2p(q1 + q3),
    z by 1 - 2p(q1 + q2)."""
    x = 2.0 * rho[0, 1].real
    y = -2.0 * rho[0, 1].imag
    z = (rho[0, 0] - rho[1, 1]).real
    x *= 1.0 - 2.0 * p * (q2 + q3)
    y *= 1.0 - 2.0 * p * (q1 + q3)
    z *= 1.0 - 2.0 * p * (q1 + q2)
    return 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]], dtype=complex)


def channel_output(family: str, params: dict, theta1: float) -> np.ndarray:
    """Closed-form output of one channel family on the half-angle prepared qubit."""
    rho = prepared_qubit(theta1)
    if family == "dephasing":
        return dephasing(rho, params["p"])
    if family == "gad":
        return gad(rho, params["p"], params["alpha2_sq"])
    if family == "sgad":
        return sgad(rho, *(params[k] for k in ("alpha", "beta", "mu", "nu", "phi", "lam")),
                    params["alpha2_sq"])
    if family == "pauli":
        return pauli(rho, params["p"], params["q1"], params["q2"], params["q3"])
    raise ValueError(f"unknown channel family {family!r}")


def reference_gad_marginal(theta1: float, theta2: float, theta3: float) -> np.ndarray:
    """System qubit after the two-plate damping run at mount angles theta1..3:
    the qubit cos 2t1|0> + sin 2t1|1> under GAD(p = sin^2 2t3, a = sin^2 2t2)."""
    rho = qubit(math.cos(2 * theta1), math.sin(2 * theta1))
    return gad(rho, math.sin(2 * theta3) ** 2, math.sin(2 * theta2) ** 2)


def keep_first(rho: np.ndarray) -> np.ndarray:
    """Marginal of the first qubit of a two-qubit density matrix."""
    return np.einsum("ajbj->ab", rho.reshape(2, 2, 2, 2))


def hermitize(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2.0


def psd_part(m: np.ndarray) -> np.ndarray:
    """Hermitian part with negative eigenvalues set to zero (trace not renormalised)."""
    w, v = np.linalg.eigh(hermitize(m))
    return (v * np.clip(w, 0.0, None)) @ v.conj().T


def clipped(m: np.ndarray) -> np.ndarray:
    """Nearest-by-clipping physical state: PSD part, renormalised to unit trace."""
    p = psd_part(m)
    return p / np.trace(p).real


def physical_residual(m: np.ndarray) -> float:
    """Largest of the hermiticity residual, |trace - 1| and the negative part of
    the smallest eigenvalue; 0 for a valid density matrix."""
    herm = float(np.max(np.abs(m - m.conj().T)))
    tdev = abs(complex(np.trace(m)) - 1.0)
    neg = max(0.0, -float(np.min(np.linalg.eigvalsh(hermitize(m)))))
    return max(herm, tdev, neg)


def _sqrtm_psd(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Uhlmann fidelity as the squared trace norm of sqrt(A) sqrt(B), after
    clipping both arguments to their PSD parts."""
    s = np.linalg.svd(_sqrtm_psd(psd_part(a)) @ _sqrtm_psd(psd_part(b)), compute_uv=False)
    return min(float(np.sum(s)) ** 2, 1.0)


def setting_projector(label: str) -> np.ndarray:
    """Projector |l1 l2><l1 l2| of a two-letter setting label such as 'HD'."""
    v = np.kron(LABEL_STATES[label[0]], LABEL_STATES[label[1]])
    return np.outer(v, v.conj())


def poisson_log_likelihood(rho: np.ndarray, counts: list[dict]) -> float:
    """sum_s c_s log(N_s p_s) - N_s p_s, p_s = Tr(rho P_s), over the count records
    of a tomography payload ({label, counts, total_shots}); -inf when a setting
    with counts has zero model probability."""
    total = 0.0
    for rec in counts:
        prob = max(float(np.real(np.trace(rho @ setting_projector(rec["label"])))), 0.0)
        mean = rec["total_shots"] * prob
        c = rec["counts"]
        if c > 0:
            if mean <= 0.0:
                return -math.inf
            total += c * math.log(mean)
        total -= mean
    return total


def matrix_from_payload(payload: dict) -> np.ndarray:
    return np.asarray(payload["re"], dtype=float) + 1j * np.asarray(payload["im"], dtype=float)
