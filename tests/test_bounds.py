"""Tests that pin the bounds of the package's checks. Each one with a "Kills"
docstring fails when its bound is loosened to the wrong value it names, and
passes at the bound the package uses."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from krausloom import channels
from krausloom import circuit
from krausloom.channels import DephasingParams, GADParams, SGADParams
from krausloom.cli import main
from krausloom.errors import InternalConsistencyError, InvalidArgument
from krausloom.qmath import fidelity, partial_trace


def test_a_kraus_set_off_by_1e_6_exits_3(monkeypatch, capsys):
    """Kills CONSISTENCY_TOL 1e-9 -> 1e-3, under which this point passes."""
    build, labels = channels._FAMILY_OPS[DephasingParams]
    monkeypatch.setitem(channels._FAMILY_OPS, DephasingParams,
                        (lambda params: build(SimpleNamespace(p=params.p + 1e-6)), labels))
    assert main(["channel", "--channel", "dephasing", "--p", "0.3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("internal consistency failure: point 0: lattice and Kraus channels "
                            "deviate by 5.976e-07 (tolerance 1e-09)\n")


def test_a_scaled_encoding_fails_the_norm_check(monkeypatch):
    """Kills the lattice output norm bound 1e-12 -> 1e-3 in lattice_block."""
    encode = circuit._encode
    monkeypatch.setattr(circuit, "_encode", lambda *args: (1 + 1e-9) * encode(*args))
    with pytest.raises(InternalConsistencyError,
                       match=r"^point 0: state norm deviates from 1 by 1\.000e-09$"):
        circuit.lattice_state(GADParams(0.3, 0.8))


def test_fidelity_keeps_a_small_support_eigenvalue():
    """Kills a 1e-6 relative support threshold in fidelity, which reads 0 here."""
    f = fidelity(np.diag([1 - 1e-8, 1e-8, 0, 0]), np.diag([0, 1.0, 0, 0]))
    assert f == pytest.approx(1e-8, rel=1e-6)


@pytest.mark.parametrize("seed", [None, 5])
def test_fidelity_to_a_rank_deficient_truth_holds_its_digits(seed):
    """The GAD truth (p = 0.3, alpha2_sq = 0.8) has two eigenvalues at rounding
    level; recomputing it one ulp of theta1 away must not move F beyond
    rounding. Without the trim of W^dagger sigma W their square roots move F
    by about 4e-9."""
    def truth(theta1):
        joint = circuit.lattice_state(GADParams(0.3, 0.8), theta1=theta1)
        return partial_trace(joint, (0, 1))

    rho = np.eye(4) / 4
    if seed is not None:
        g = np.random.default_rng(seed).normal(size=(4, 4, 2)) @ [1, 1j]
        rho = g @ g.conj().T / np.trace(g @ g.conj().T).real
    here, next_ulp = truth(math.pi / 2), truth(np.nextafter(math.pi / 2, 4.0))
    assert abs(fidelity(rho, here) - fidelity(rho, next_ulp)) <= 1e-13


def test_sgad_phases_must_be_finite():
    for name, phases in (("phi", (math.nan, 0.0)), ("lam", (0.0, math.inf))):
        with pytest.raises(InvalidArgument, match=f"^{name} must be finite, got"):
            SGADParams(0.1, 0.2, 0.3, 0.4, *phases, 0.5)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_probabilities_reject_nonfinite_values(value):
    with pytest.raises(InvalidArgument, match=r"^p must lie in \[0, 1\]"):
        DephasingParams(value)
