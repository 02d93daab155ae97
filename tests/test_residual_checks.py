"""check_residuals, the one test of every invariant the package enforces:
its messages, its point prefix and the order in which density invariants
are checked."""

from types import SimpleNamespace

import numpy as np
import pytest

from krausloom import channels
from krausloom import circuit
from krausloom.channels import DephasingParams
from krausloom.cli import main
from krausloom.errors import (InternalConsistencyError, InvalidArgument, InvalidChannel,
                              InvalidState)
from krausloom.qmath import check_densities, check_residuals, fidelity


class TestCheckResiduals:
    def test_a_residual_at_the_bound_passes(self):
        check_residuals(1e-3, 1e-3, "residual {:.3e}")
        check_residuals(np.array([0.0, 1e-3]), 1e-3, "residual {:.3e}")

    def test_a_scalar_failure_has_no_point_prefix(self):
        with pytest.raises(InvalidState, match=r"^residual 2\.000e-03$"):
            check_residuals(np.float64(2e-3), 1e-3, "residual {:.3e}")

    def test_a_stack_names_its_first_failure_from_first_index(self):
        with pytest.raises(InvalidChannel, match=r"^point 12: residual 5\.000e\+00$"):
            check_residuals(np.array([0.0, 5.0, 7.0]), 1.0, "residual {:.3e}",
                            error=InvalidChannel, first_index=11)

    def test_a_one_point_stack_is_still_named(self):
        with pytest.raises(InternalConsistencyError, match="^point 0: "):
            check_residuals(np.array([2.0]), 1.0, "residual {:.3e}",
                            error=InternalConsistencyError)

    def test_a_message_without_a_field_is_kept_as_is(self):
        with pytest.raises(InvalidArgument, match="^system amplitudes must be normalized$"):
            circuit.encode_joint_state((1.0, 1e-5), 0.5)

    def test_densities_are_checked_one_invariant_at_a_time(self):
        # point 0 fails the eigenvalue check, point 1 hermiticity, which is checked first
        negative = np.diag([1.5, -0.5]).astype(complex)
        skewed = np.array([[0.5, 1e-3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(InvalidState, match=r"^point 4: hermiticity residual 1\.000e-03"):
            check_densities(np.stack([negative, skewed]), first_index=3)

    def test_eigenvalue_message_prints_the_eigenvalue(self):
        negative = np.diag([1.5, -0.5])
        with pytest.raises(InvalidState, match=r"^minimum eigenvalue -5\.000e-01 below -1\.0e-09$"):
            check_densities(negative.astype(complex))
        with pytest.raises(InvalidState, match=r"^sigma has eigenvalue -5\.000e-01 below -1\.0e-06"):
            fidelity(np.eye(2) / 2, negative)


def test_a_failing_grid_point_stops_its_block_before_any_file(monkeypatch, capsys, tmp_path):
    build, labels = channels._FAMILY_OPS[DephasingParams]

    def shifted_at_half(params):
        return build(SimpleNamespace(p=params.p + np.where(params.p == 0.5, 1e-6, 0.0)))

    monkeypatch.setitem(channels._FAMILY_OPS, DephasingParams, (shifted_at_half, labels))
    out = tmp_path / "sweep"
    assert main(["channel", "--channel", "dephasing", "--grid", "0:1:3", "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("internal consistency failure: point 1: ")
    assert not out.exists() or not any(out.iterdir())


class TestNanResiduals:
    def test_a_nan_residual_fails(self):
        with pytest.raises(InvalidState, match="^residual nan$"):
            check_residuals(np.nan, 1.0, "residual {:.3e}")
        with pytest.raises(InvalidState, match="^point 6: residual nan$"):
            check_residuals(np.array([0.0, np.nan, 5.0]), 1.0, "residual {:.3e}", first_index=5)

    def test_a_kraus_set_with_a_nan_entry_is_rejected(self):
        with pytest.raises(InvalidChannel, match="^completeness residual nan exceeds tolerance$"):
            channels.KrausSet([[[np.nan, 0], [0, 1]]])


def _reference_check(res, tol, message, *, error=InvalidState, first_index=0):
    """check_residuals with one array path for every residual: the reference
    the one-comparison pass of a float residual must agree with."""
    res = np.asarray(res)
    bad = ~(res <= tol)
    if not bad.any():
        return
    if res.ndim == 0:
        raise error(message.format(float(res)))
    i = int(np.argmax(bad))
    raise error(f"point {first_index + i}: " + message.format(float(res[i])))


RESIDUAL_FORMS = {
    "float": float,
    "np.float64": np.float64,
    "int": int,
    "0-d": np.array,
    "(1,)": lambda r: np.array([r]),
    "(B,)": lambda r: np.array([0.0, r, r]),
}
PREFIXES = {"(1,)": "point 7: ", "(B,)": "point 8: "}


@pytest.mark.parametrize("form, value, want", [
    (form, value, want)
    for form in RESIDUAL_FORMS
    for value, want in ((0.5, None), (1.0, None), (2.0, "residual 2.000e+00"),
                        (float("nan"), "residual nan"))
    if not (form == "int" and value != value)
])
def test_every_residual_form_passes_and_fails_as_the_reference(form, value, want):
    res = RESIDUAL_FORMS[form](value)
    for check in (check_residuals, _reference_check):
        if want is None:
            check(res, 1.0, "residual {:.3e}", error=InvalidChannel, first_index=7)
            continue
        with pytest.raises(InvalidChannel) as info:
            check(res, 1.0, "residual {:.3e}", error=InvalidChannel, first_index=7)
        assert type(info.value) is InvalidChannel
        assert str(info.value) == PREFIXES.get(form, "") + want
