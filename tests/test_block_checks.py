"""The checks of a sweep block: every lattice point is checked for unitarity,
norm, its joint density (hermiticity, trace, minimum eigenvalue), its
reduced output (hermiticity, trace) and its Kraus output (hermiticity,
trace, minimum eigenvalue), in that order of invariants, each over every
point of the block. These tests pin which failure a block reports, by
exception type and message, when one or two of those checks fail, and
count the measurements a one-point op makes."""

import math

import numpy as np
import pytest

from krausloom import circuit, qmath
from krausloom.channels import GADParams, ParamStack
from krausloom.cli import main
from krausloom.errors import InternalConsistencyError

POINTS = [GADParams(0.2, 0.9), GADParams(0.4, 0.8), GADParams(0.6, 0.7)]
SYSTEM_INPUT = circuit._qubit_amplitudes("theta1", math.pi / 2)


def _reference():
    """The block's reduced outputs and joint densities, unfaulted."""
    _, reduced, joint = circuit.lattice_block(ParamStack(POINTS), SYSTEM_INPUT, None,
                                              first_index=0)[:3]
    return reduced.copy(), joint.copy()


class _Faults:
    """Faults injected into a block, at most one per invariant and point.

    Unitarity, norm and the Kraus outputs are faulted in the data: the kernel's
    unitary, the encoded inputs or the Kraus outputs of one point of the
    3-point block. The joint
    density is psi psi^dagger and the reduced output's trace is the squared
    norm, so no input fails their checks while the norm check passes; those
    faults go into the residuals that ``density_residuals`` measures for the
    faulted point's matrix, which is found by its value.
    """

    def __init__(self, monkeypatch):
        self.unitary, self.encoded, self.kraus, self.measured = {}, {}, {}, []
        reduced, joint = _reference()
        self.targets = {"joint": joint, "reduced": reduced}
        chain, encode, apply_operators = circuit._chain, circuit._encode, circuit.apply_operators
        measure = qmath.density_residuals

        def faulty_chain(*args):
            u = chain(*args)
            if u.ndim == 3 and len(u) == len(POINTS) and self.unitary:
                u = u.copy()
                for point, scale in self.unitary.items():
                    u[point] *= scale
            return u

        def faulty_encode(*args):
            vec = encode(*args)
            if vec.ndim == 3 and len(vec) == len(POINTS) and self.encoded:
                vec = vec.copy()
                for point, scale in self.encoded.items():
                    vec[point] *= scale
            return vec

        def faulty_apply(*args):
            out = apply_operators(*args).copy()
            for point, fault in (self.kraus.items() if len(out) == len(POINTS) else ()):
                out[point] = fault(out[point])
            return out

        def faulty_measure(mats, **kwargs):
            triple = [None if r is None else np.array(r, dtype=float) for r in measure(mats, **kwargs)]
            if np.ndim(mats) == 3:
                for k, mat in enumerate(mats):
                    for target, field, value in self.measured:
                        if mat.shape == target.shape and np.array_equal(mat, target) \
                                and triple[field] is not None:
                            triple[field][k] = value
            return tuple(triple)

        monkeypatch.setattr(circuit, "_chain", faulty_chain)
        monkeypatch.setattr(circuit, "_encode", faulty_encode)
        monkeypatch.setattr(circuit, "apply_operators", faulty_apply)
        monkeypatch.setattr(qmath, "density_residuals", faulty_measure)
        monkeypatch.setattr(circuit, "density_residuals", faulty_measure, raising=False)

    def inject(self, row: str, point: int) -> None:
        kind, value = FAULTS[row]
        if kind == "unitary":
            self.unitary[point] = value
        elif kind == "encoded":
            self.encoded[point] = value
        elif kind == "kraus":
            self.kraus[point] = value
        else:
            target, field = kind
            self.measured.append((self.targets[target][point], field, value))


def _add_at(i, j, value):
    def fault(rho):
        rho = rho.copy()
        rho[i, j] += value
        return rho
    return fault


FAULTS = {  # row -> (where, fault)
    "unitarity": ("unitary", 1 + 1e-6),
    "norm": ("encoded", 1 + 1e-9),
    "joint hermiticity": (("joint", 0), 2e-10),
    "joint trace": (("joint", 1), 3e-10),
    "joint eigenvalue": (("joint", 2), -4e-9),
    "reduced hermiticity": (("reduced", 0), 5e-10),
    "reduced trace": (("reduced", 1), 6e-10),
    "kraus hermiticity": ("kraus", _add_at(0, 1, 7e-10)),
    "kraus trace": ("kraus", _add_at(0, 0, 8e-10)),
    "kraus eigenvalue": ("kraus", lambda rho: np.diag([1 + 9e-9, -9e-9]).astype(complex)),
    # a nan residual fails where it is measured
    "unitarity nan": ("unitary", np.nan),
    "norm nan": ("encoded", np.nan),
    "kraus nan": ("kraus", _add_at(0, 0, np.nan)),
}
MESSAGES = {
    "unitarity": "layer composition unitarity residual 5.657e-06",
    "norm": "state norm deviates from 1 by 1.000e-09",
    "joint hermiticity": "hermiticity residual 2.000e-10 exceeds 1.0e-10",
    "joint trace": "trace deviates from 1 by 3.000e-10",
    "joint eigenvalue": "minimum eigenvalue -4.000e-09 below -1.0e-09",
    "reduced hermiticity": "hermiticity residual 5.000e-10 exceeds 1.0e-10",
    "reduced trace": "trace deviates from 1 by 6.000e-10",
    "kraus hermiticity": "hermiticity residual 7.000e-10 exceeds 1.0e-10",
    "kraus trace": "trace deviates from 1 by 8.000e-10",
    "kraus eigenvalue": "minimum eigenvalue -9.000e-09 below -1.0e-09",
    "unitarity nan": "layer composition unitarity residual nan",
    "norm nan": "state norm deviates from 1 by nan",
    "kraus nan": "hermiticity residual nan exceeds 1.0e-10",
}
ROWS = list(FAULTS)[:10]  # in the order the block checks them


def _sweep_fails_with(monkeypatch, faults, message, first=0):
    injected = _Faults(monkeypatch)
    for row, point in faults:
        injected.inject(row, point)
    points = [GADParams(0.1, 0.5)] * first + POINTS
    with pytest.raises(InternalConsistencyError) as info:
        for _ in circuit.channel_sweep(points):
            pass
    assert type(info.value) is InternalConsistencyError
    assert str(info.value) == message


@pytest.mark.parametrize("row", list(FAULTS))
@pytest.mark.parametrize("point", [0, 1, 2])
def test_one_fault_names_its_check_and_point(monkeypatch, row, point):
    _sweep_fails_with(monkeypatch, [(row, point)], f"point {point}: {MESSAGES[row]}")


@pytest.mark.parametrize("first, second", [
    (ROWS[a], ROWS[b]) for a in range(len(ROWS)) for b in range(a + 1, len(ROWS))])
def test_the_earlier_check_wins_over_an_earlier_point(monkeypatch, first, second):
    # the later check fails at point 0, the earlier one only at point 2
    _sweep_fails_with(monkeypatch, [(first, 2), (second, 0)], f"point 2: {MESSAGES[first]}")


@pytest.mark.parametrize("row", ROWS)
def test_one_check_failing_twice_names_the_first_point(monkeypatch, row):
    _sweep_fails_with(monkeypatch, [(row, 2), (row, 1)], f"point 1: {MESSAGES[row]}")


@pytest.mark.parametrize("row", ["norm", "joint eigenvalue", "kraus trace"])
def test_a_block_counts_points_from_its_sweep_start(monkeypatch, row):
    # the block of points 64..66 of a sweep; the faulted point is the block's point 1
    _sweep_fails_with(monkeypatch, [(row, 1)], f"point 65: {MESSAGES[row]}", first=64)


def test_a_reduced_output_has_no_eigenvalue_check(monkeypatch):
    injected = _Faults(monkeypatch)
    injected.measured.append((injected.targets["reduced"][1], 2, -0.5))
    assert len(list(circuit.channel_sweep(POINTS))) == 1


@pytest.mark.parametrize("row", ROWS[:7])
def test_lattice_outputs_checks_its_rows_alone(monkeypatch, row):
    injected = _Faults(monkeypatch)
    injected.inject(row, 1)
    with pytest.raises(InternalConsistencyError) as info:
        circuit.lattice_block(ParamStack(POINTS), SYSTEM_INPUT, None, first_index=4)[:3]
    assert str(info.value) == f"point 5: {MESSAGES[row]}"


def test_a_block_carries_its_record_row_by_row():
    block, = circuit.channel_sweep(POINTS)
    reduced, joint = _reference()
    herm, tdev, lo = qmath.density_residuals(joint)
    k_herm, k_tdev, k_lo = qmath.density_residuals(block.kraus)
    r_herm, r_tdev, _ = qmath.density_residuals(reduced, eig=False)
    assert block.residuals.shape == (10, len(POINTS))
    for row, want in zip(block.residuals[2:], (herm, tdev, -lo, r_herm, r_tdev,
                                               k_herm, k_tdev, -k_lo)):
        assert np.array_equal(row, want)
    assert (block.residuals[:2] <= 1e-12).all()


# -- measured once ------------------------------------------------------------------


class _Calls:
    """Counts ``density_residuals`` passes and ``eigvalsh`` calls, and notes
    when ``lattice_block`` returns."""

    def __init__(self, monkeypatch):
        self.events = []
        measure, eigvalsh, outputs = qmath.density_residuals, np.linalg.eigvalsh, circuit.lattice_block

        def counted_measure(*args, **kwargs):
            self.events.append("density_residuals")
            return measure(*args, **kwargs)

        def counted_eigvalsh(*args, **kwargs):
            self.events.append("eigvalsh")
            return eigvalsh(*args, **kwargs)

        def noted_outputs(*args, **kwargs):
            result = outputs(*args, **kwargs)
            self.events.append("lattice_block")
            return result

        monkeypatch.setattr(qmath, "density_residuals", counted_measure)
        monkeypatch.setattr(circuit, "density_residuals", counted_measure, raising=False)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
        monkeypatch.setattr(circuit, "lattice_block", noted_outputs)


@pytest.mark.parametrize("argv", [
    ["--channel", "gad", "--p", "0.3", "--alpha2-sq", "0.8"],
    ["--channel", "dephasing", "--p", "0.3"],
    ["--channel", "pauli", "--p", "0.4", "--q1", "0.3", "--q2", "0.5", "--q3", "0.2"],
])
def test_a_channel_point_measures_each_density_once(monkeypatch, capsys, argv):
    calls = _Calls(monkeypatch)
    assert main(["channel", *argv]) == 0
    assert calls.events.count("density_residuals") <= 2
    assert calls.events.count("eigvalsh") <= 2


def test_lattice_state_measures_nothing_after_lattice_outputs(monkeypatch):
    calls = _Calls(monkeypatch)
    circuit.lattice_state(GADParams(0.3, 0.8), theta1=1.1)
    after = calls.events[calls.events.index("lattice_block") + 1:]
    assert "density_residuals" not in after and "eigvalsh" not in after


def test_reproduce_gad_measures_its_traced_density_once(monkeypatch, capsys):
    # two block passes for the lattice, one for the traced joint density with
    # its eigenvalues; hermiticity and trace are not measured a second time
    calls = _Calls(monkeypatch)
    assert main(["reproduce-gad"]) == 0
    assert calls.events.count("density_residuals") == 3
