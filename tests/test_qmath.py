import json
import math

import numpy as np
import pytest
from conftest import random_density, random_pure
from hypothesis import given, settings
from hypothesis import strategies as st

from krausloom.errors import InvalidArgument, InvalidState
from krausloom.gates import U3Params, u3
from krausloom.qmath import (
    ATOL_ARITHMETIC,
    ATOL_STRUCTURAL,
    DensityMatrix,
    PureState,
    _json_text,
    check_densities,
    dagger,
    density_from_payload,
    density_to_payload,
    fidelity,
    partial_trace,
    state_from_payload,
    state_to_payload,
    structural_atol,
    tensor,
    save_json,
    unitarity_residual,
    validate_density,
    write_atomic,
)

I2 = np.eye(2)


class TestTensor:
    def test_identity_case(self):
        assert np.array_equal(tensor(I2, I2), np.eye(4))

    def test_basis_case(self):
        ket0 = PureState([1, 0], (2,))
        ket1 = PureState([0, 1], (2,))
        out = tensor(ket0, ket1)
        assert out.dims == (2, 2)
        np.testing.assert_array_equal(out.amplitudes, [0, 1, 0, 0])

    def test_diagonal_expansion(self):
        # kron of diag(a,b) and diag(c,d) expanded by hand: diag(ac, ad, bc, bd)
        a, b, c, d = 1.5, -0.5, 2.0, 3.0
        out = tensor(np.diag([a, b]), np.diag([c, d]))
        np.testing.assert_array_equal(out, np.diag([a * c, a * d, b * c, b * d]))

    def test_associative_exactly_on_representable_entries(self, rng):
        # dyadic entries keep every product exact, so equality is bitwise
        ms = [
            (rng.integers(-8, 8, size=(2, 2)) + 1j * rng.integers(-8, 8, size=(2, 2))) / 4.0
            for _ in range(3)
        ]
        left = tensor(tensor(ms[0], ms[1]), ms[2])
        right = tensor(ms[0], tensor(ms[1], ms[2]))
        assert np.array_equal(left, right)

    def test_associative_within_rounding_generally(self, rng):
        ms = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)]
        left = tensor(tensor(ms[0], ms[1]), ms[2])
        right = tensor(ms[0], tensor(ms[1], ms[2]))
        np.testing.assert_allclose(left, right, rtol=1e-15)

    def test_dims_concatenate(self, rng):
        rho = tensor(random_density(rng, (2,)), random_density(rng, (2, 2)))
        assert rho.dims == (2, 2, 2)

    def test_mixed_operands_rejected(self, rng):
        with pytest.raises(InvalidArgument):
            tensor(random_density(rng, (2,)), I2)


class TestPartialTrace:
    def test_bell_marginal(self):
        bell = PureState(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2))
        out = partial_trace(bell.density(), keep=(0,))
        np.testing.assert_allclose(out.matrix, I2 / 2, atol=1e-15)

    def test_product_marginal(self, rng):
        rho_s = random_density(rng, (2,))
        rho_e = random_density(rng, (2,))
        joint = tensor(rho_s, rho_e)
        out = partial_trace(joint, keep=(0,))
        np.testing.assert_allclose(out.matrix, rho_s.matrix, atol=1e-14)

    def test_trace_preserved(self, rng):
        for _ in range(20):
            rho = random_density(rng, (2, 2, 2))
            keep = ((0,), (1,), (0, 2), (0, 1, 2))[rng.integers(4)]
            out = partial_trace(rho, keep)
            assert abs(np.trace(out.matrix) - np.trace(rho.matrix)) < 1e-12

    def test_keeps_original_order(self, rng):
        rho = random_density(rng, (2, 2, 2))
        out = partial_trace(rho, keep=(2, 0))
        again = partial_trace(rho, keep=(0, 2))
        np.testing.assert_array_equal(out.matrix, again.matrix)

    def test_empty_keep_rejected(self, rng):
        with pytest.raises(InvalidArgument):
            partial_trace(random_density(rng), keep=())


class TestFidelity:
    def test_self_fidelity(self, rng):
        rho = random_density(rng)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_states(self):
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        assert fidelity(p0, p1) == pytest.approx(0.0, abs=1e-12)

    def test_mixed_vs_pure_closed_form(self):
        # commuting pair: F = (sum_i sqrt(p_i q_i))^2 = (sqrt(0.5 * 1))^2
        assert fidelity(I2 / 2, np.diag([1.0, 0.0])) == pytest.approx(0.5, abs=1e-12)

    def test_symmetric(self, rng):
        for _ in range(10):
            a, b = random_density(rng), random_density(rng)
            assert abs(fidelity(a, b) - fidelity(b, a)) < 1e-9

    def test_unit_iff_equal_for_pure_target(self, rng):
        for _ in range(10):
            psi = random_pure(rng)
            phi = random_pure(rng)
            assert fidelity(psi.density(), psi.density()) == pytest.approx(1.0, abs=1e-10)
            overlap = abs(np.vdot(psi.amplitudes, phi.amplitudes)) ** 2
            # sqrt of clipped near-zero eigenvalues limits accuracy to ~1e-8
            assert fidelity(psi.density(), phi.density()) == pytest.approx(overlap, abs=1e-7)

    def test_rejects_far_from_psd(self):
        bad = np.diag([1.5, -0.5])
        with pytest.raises(InvalidState):
            fidelity(bad, I2 / 2)

    @pytest.mark.parametrize("rank", [1, 2])
    def test_rank_deficient_rho_matches_support_closed_form(self, rng, rank):
        # rho = W W^dagger with W of full column rank: F = (Tr sqrt(W^dagger sigma W))^2
        for _ in range(20):
            w = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
            w /= np.linalg.norm(w)
            sigma = random_density(rng).matrix
            want = np.sum(np.sqrt(np.linalg.eigvalsh(w.conj().T @ sigma @ w))) ** 2
            assert abs(fidelity(w @ w.conj().T, sigma) - want) <= 1e-13

    def test_full_rank_matches_square_root_of_every_eigenvalue(self, rng):
        def sqrt_everywhere(a, b):
            """Reference: sqrt(rho) from every eigenvalue of rho, clipped at 0."""
            w, v = np.linalg.eigh(a)
            sq = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
            inner = sq @ b @ sq
            lam = np.clip(np.linalg.eigvalsh((inner + inner.conj().T) / 2), 0.0, None)
            return min(float(np.sum(np.sqrt(lam)) ** 2), 1.0)

        for dims in ((2,), (2, 2), (2, 2, 2)):
            for _ in range(30):
                a, b = random_density(rng, dims).matrix, random_density(rng, dims).matrix
                assert abs(fidelity(a, b) - sqrt_everywhere(a, b)) <= 1e-12

    def test_zero_support_gives_zero(self):
        assert fidelity(np.zeros((2, 2)), I2 / 2) == 0.0


class TestStackedFidelity:
    """fidelity of a sequence or stack of rhos against one sigma: one stacked
    eigh for the rhos, sigma's check once, and each value bit for bit that of
    its own call."""

    @staticmethod
    def rhos(rng):
        """Random full-rank, rank-1, rank-2 and zero 4x4 rhos."""
        out = [random_density(rng).matrix]
        for rank in (1, 2):
            w = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
            out.append(w @ w.conj().T / np.linalg.norm(w) ** 2)
        return out + [np.zeros((4, 4))]

    def test_each_value_is_its_single_call(self, rng):
        for _ in range(10):
            rhos = self.rhos(rng)
            for sigma in (random_density(rng).matrix, rhos[1], rhos[2]):
                for a in rhos:
                    for b in rhos:
                        got = fidelity([a, b], sigma, psd_tol=(1e-6, math.inf))
                        assert got == [fidelity(a, sigma, psd_tol=1e-6),
                                       fidelity(b, sigma, psd_tol=math.inf)]
                assert fidelity(np.array(rhos), sigma) == [fidelity(r, sigma) for r in rhos]

    def test_density_matrices_in_a_sequence(self, rng):
        a, b, sigma = random_density(rng), random_pure(rng).density(), random_density(rng)
        assert fidelity((a, b), sigma) == [fidelity(a, sigma), fidelity(b, sigma)]

    def test_a_failing_rho_raises_as_it_does_alone(self, rng):
        good, sigma = random_density(rng).matrix, random_density(rng).matrix
        bad = np.diag([1.5, -0.5, 0.0, 0.0])
        with pytest.raises(InvalidState) as alone:
            fidelity(bad, sigma)
        for rhos, tols in (([good, bad], 1e-6), ([bad, good], (1e-6, math.inf))):
            with pytest.raises(InvalidState) as stacked:
                fidelity(rhos, sigma, psd_tol=tols)
            assert str(stacked.value) == str(alone.value)
        assert fidelity([bad, good], sigma, psd_tol=(1.0, 1e-6))[1] == fidelity(good, sigma)

    def test_a_failing_sigma_raises_as_the_first_single_call(self, rng):
        good = random_density(rng).matrix
        with pytest.raises(InvalidState) as alone:
            fidelity(good, np.diag([1.5, -0.5, 0.0, 0.0]), psd_tol=1e-3)
        with pytest.raises(InvalidState) as stacked:
            fidelity([good, good], np.diag([1.5, -0.5, 0.0, 0.0]), psd_tol=(1e-3, 1e-6))
        assert str(stacked.value) == str(alone.value)

    def test_one_tolerance_per_rho(self, rng):
        with pytest.raises(InvalidArgument):
            fidelity([I2 / 2, I2 / 2], I2 / 2, psd_tol=(1e-6,))

    def test_a_tomography_op_takes_its_fidelities_in_four_lapack_calls(self, monkeypatch, capsys):
        from krausloom import cli

        calls, in_fidelity = [], []
        for name in ("eigh", "eigvalsh", "solve", "svd", "cholesky", "inv"):
            def counted(*args, _call=getattr(np.linalg, name), _name=name, **kwargs):
                calls.append(_name)
                return _call(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)

        def counted_fidelity(*args, _call=cli.fidelity, **kwargs):
            start = len(calls)
            try:
                return _call(*args, **kwargs)
            finally:
                in_fidelity.extend(calls[start:])
        monkeypatch.setattr(cli, "fidelity", counted_fidelity)

        assert cli.main(["tomography", "--channel", "gad", "--p", "0.3", "--alpha2-sq", "0.8",
                         "--noise", "--shots", "1000", "--seed", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fidelity_linear"] is not None and payload["fidelity_ml"] > 0.9
        # one stacked eigh of both estimates, sigma's check, one inner eigvalsh each
        assert sorted(in_fidelity) == ["eigh", "eigvalsh", "eigvalsh", "eigvalsh"]


class TestDagger:
    def test_identity(self):
        np.testing.assert_array_equal(dagger(I2), I2)

    def test_conjugate_transpose_by_definition(self):
        m = np.array([[0, 1j], [0, 0]])
        np.testing.assert_array_equal(dagger(m), np.array([[0, 0], [-1j, 0]]))

    def test_involution_exact(self, rng):
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.array_equal(dagger(dagger(m)), m)

    def test_u3_unitarity_via_dagger(self, rng):
        for _ in range(25):
            p = U3Params(*rng.uniform(0, 2 * np.pi, size=3))
            g = u3(p)
            np.testing.assert_allclose(dagger(g) @ g, I2, atol=1e-14)


class TestValidateDensity:
    def test_maximally_mixed(self):
        rep = validate_density(I2 / 2)
        assert rep.hermiticity_residual == 0.0
        assert rep.trace_deviation == 0.0
        assert rep.min_eigenvalue == pytest.approx(0.5)

    def test_trace_deviation_arithmetic(self):
        rep = validate_density(np.diag([0.5, 0.6]))
        assert rep.trace_deviation == pytest.approx(0.1, abs=1e-15)

    def test_nonsquare_rejected(self):
        with pytest.raises(InvalidArgument):
            validate_density(np.zeros((2, 3)))

    def test_unitary_conjugation_bounded_residuals(self, rng):
        for _ in range(10):
            rho = random_density(rng, (2, 2))
            rep_in = validate_density(rho)
            p = U3Params(*rng.uniform(0, 2 * np.pi, size=3))
            un = np.kron(u3(p), u3(p))
            rep_out = validate_density(un @ rho.matrix @ dagger(un))
            floor = ATOL_ARITHMETIC
            assert rep_out.hermiticity_residual <= 10 * max(rep_in.hermiticity_residual, floor)
            assert rep_out.trace_deviation <= 10 * max(rep_in.trace_deviation, floor)
            assert rep_out.min_eigenvalue >= min(rep_in.min_eigenvalue, 0) - 10 * floor


class TestInvariants:
    def test_state_norm_enforced(self):
        with pytest.raises(InvalidState):
            PureState([1.0, 1.0], (2,))

    def test_state_finite_enforced(self):
        with pytest.raises(InvalidState):
            PureState([np.nan, 0.0], (2,))

    def test_density_psd_enforced(self):
        with pytest.raises(InvalidState):
            DensityMatrix(np.diag([1.5, -0.5]), (2,))

    def test_density_eig_check_can_be_deferred(self):
        m = DensityMatrix(np.diag([1.5, -0.5]), (2,), eig_atol=None)
        assert validate_density(m).min_eigenvalue == pytest.approx(-0.5)

    def test_unitarity_residual(self, rng):
        p = U3Params(*rng.uniform(0, 2 * np.pi, size=3))
        assert unitarity_residual(u3(p)) < 1e-14
        assert unitarity_residual(np.diag([1.0, 2.0])) > 1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False), min_size=4, max_size=4))
def test_partial_trace_preserves_trace_property(amps):
    v = np.asarray(amps, dtype=complex)
    if np.linalg.norm(v) < 1e-3:
        return
    psi = PureState(v / np.linalg.norm(v), (2, 2))
    rho = psi.density()
    for keep in ((0,), (1,)):
        out = partial_trace(rho, keep)
        assert abs(np.trace(out.matrix) - 1.0) < 1e-12


def test_structural_tol_is_the_constant(monkeypatch):
    monkeypatch.setenv("KRAUSLOOM_TOL", "1e-6")  # no longer read
    assert structural_atol() == ATOL_STRUCTURAL == 1e-10


class TestSerialization:
    def test_density_round_trip(self, rng):
        rho = random_density(rng, (2, 2))
        again = density_from_payload(density_to_payload(rho))
        assert np.array_equal(again.matrix, rho.matrix)
        assert again.dims == rho.dims

    def test_state_round_trip(self, rng):
        psi = random_pure(rng, (2, 2, 2))
        again = state_from_payload(state_to_payload(psi))
        assert np.array_equal(again.amplitudes, psi.amplitudes)

    def test_bad_payload_rejected(self):
        with pytest.raises(InvalidArgument):
            density_from_payload({"re": [[1]]})

    @pytest.mark.parametrize("payload", [
        {"dims": [2], "re": [[1.0, "x"], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
        {"dims": [2], "re": [[1.0, 0.0], [0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
        {"dims": 2, "re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
    ], ids=["string-entry", "ragged-row", "scalar-dims"])
    def test_unreadable_density_payload_is_invalid_argument(self, payload):
        with pytest.raises(InvalidArgument, match="^bad density payload: "):
            density_from_payload(payload)

    def test_payload_dims_keep_their_invalid_state(self):
        with pytest.raises(InvalidState, match="dims must be positive integers"):
            state_from_payload({"dims": [-2, -4], "re": [1.0] + [0.0] * 7, "im": [0.0] * 8})


class TestDims:
    @pytest.mark.parametrize("dims", [[-2, -4], [2.5, 2, 2], [True, 2], [0, 2], ["2", 2],
                                      [2.0, 2, 2]],
                             ids=["negative", "fractional", "bool", "zero", "string", "float"])
    def test_each_dim_is_a_positive_integer(self, dims):
        # checked before the sizes, so one 8-dim input serves every case
        with pytest.raises(InvalidState, match="dims must be positive integers"):
            PureState(np.eye(8)[0], dims)
        with pytest.raises(InvalidState, match="dims must be positive integers"):
            DensityMatrix(np.eye(8) / 8, dims)

    def test_numpy_integers_are_dims(self):
        rho = DensityMatrix(np.eye(4) / 4, np.array([2, 2]))
        assert rho.dims == (2, 2) and all(type(d) is int for d in rho.dims)


class TestAtomicWrite:
    def test_save_json_bytes(self, tmp_path):
        import json

        path = tmp_path / "p.json"
        payload = {"b": [0.1, 1e-17], "a": {"z": 1, "y": "s"}}
        save_json(payload, str(path))
        assert path.read_text() == json.dumps(payload, sort_keys=True, indent=1) + "\n"
        assert [p.name for p in tmp_path.iterdir()] == ["p.json"]

    def test_stdout_and_file_share_one_json_text(self, tmp_path, capsys):
        from krausloom.cli import _emit

        payload = {"b": [0.1, 1e-17, -0.0], "a": {"z": 1, "y": "s\u00e9"}, "c": [[1.5, 2], []]}
        want = (
            '{\n "a": {\n  "y": "s\\u00e9",\n  "z": 1\n },\n "b": [\n  0.1,\n  1e-17,\n  -0.0\n ],'
            '\n "c": [\n  [\n   1.5,\n   2\n  ],\n  []\n ]\n}\n'
        )
        _emit(payload, "json", None)
        assert capsys.readouterr().out == want
        for write in (lambda path: _emit(payload, "json", path), lambda path: save_json(payload, path)):
            path = tmp_path / "p.json"
            write(str(path))
            assert path.read_bytes() == want.encode()

    def test_failed_write_leaves_old_file(self, tmp_path):
        path = tmp_path / "out.txt"
        write_atomic(str(path), "old\n")
        with pytest.raises(TypeError):
            write_atomic(str(path), None)
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


class TestStackedChecks:
    def test_unitarity_residual_per_matrix(self):
        stack = np.stack([np.eye(2), 2 * np.eye(2)]).astype(complex)
        np.testing.assert_allclose(unitarity_residual(stack), [0.0, 3 * np.sqrt(2)])
        assert isinstance(unitarity_residual(np.eye(2)), float)

    def test_check_densities_names_the_failing_point(self):
        good = np.diag([0.5, 0.5]).astype(complex)
        bad = np.diag([1.5, -0.5]).astype(complex)
        check_densities(np.stack([good, good]))
        with pytest.raises(InvalidState, match="point 7: minimum eigenvalue"):
            check_densities(np.stack([good, bad]), first_index=6)
        check_densities(np.stack([good, bad]), eig_atol=None)
        with pytest.raises(InvalidState, match="^trace deviates"):
            check_densities(2 * good)


# -- the JSON writer: byte for byte json.dumps(sort_keys=True, indent=1) --------

def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, indent=1) + "\n"


JSON_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-17]),
)
JSON_LEAVES = st.one_of(
    st.text(st.characters(exclude_categories=())),  # non-ASCII, control characters, lone surrogates
    st.booleans(),
    st.integers(),
    st.sampled_from([2**63, -(2**63) - 1, 10**30]),
    JSON_FLOATS,
    JSON_FLOATS.map(np.float64),
    st.none(),
    st.lists(st.one_of(JSON_FLOATS, JSON_FLOATS.map(np.float64)), max_size=5),  # matrix rows
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(st.characters(exclude_categories=()), max_size=4), children,
                        max_size=4),
    ),
    max_leaves=30,
)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(JSON_VALUES)
def test_json_text_is_json_dumps(value):
    assert _json_text(value) == _dumps(value)


@pytest.mark.parametrize("value", [
    {}, [], (), {"a": [], "b": {}}, [[]], {1: "int key", 2.5: None}, {True: 0, False: 1}, {None: 1},
    {math.nan: 0, np.float64(-math.inf): 1}, [0.5, math.nan, 2.0], [0.5, 1, "s", None],
])
def test_json_text_edge_shapes(value):
    assert _json_text(value) == _dumps(value)


@pytest.mark.parametrize("bad", [np.int64(3), {1, 2}, b"x"])
@pytest.mark.parametrize("place", [
    lambda b: b, lambda b: [0.5, 1.5, b], lambda b: {"a": 1, "b": [b]}, lambda b: {"k": {"z": b}},
])
def test_json_text_raises_where_json_dumps_does(bad, place):
    with pytest.raises(TypeError) as want:
        _dumps(place(bad))
    with pytest.raises(TypeError) as got:
        _json_text(place(bad))
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("value", [{(1, 2): 0}, {"a": 0, 1: 1}])
def test_json_text_rejects_keys_as_json_dumps_does(value):
    with pytest.raises(TypeError) as want:
        _dumps(value)
    with pytest.raises(TypeError) as got:
        _json_text(value)
    assert str(got.value) == str(want.value)


def test_every_cli_json_output_is_json_dumps_text(tmp_path, capsys):
    from krausloom.channels import DephasingParams
    from krausloom.circuit import build_channel_lattice, circuit_to_payload
    from krausloom.cli import main

    circ = tmp_path / "circ.json"
    save_json(circuit_to_payload(build_channel_lattice(DephasingParams(0.3))), str(circ))
    commands = [
        ["channel", "--channel", "dephasing", "--p", "0.3"],
        ["channel", "--channel", "gad", "--p", "0.3", "--alpha2-sq", "0.8"],
        ["channel", "--channel", "sgad", "--sgad-alpha", "0.3", "--sgad-beta", "0.2",
         "--sgad-mu", "0.5", "--sgad-nu", "0.4", "--alpha2-sq", "0.8"],
        ["channel", "--channel", "pauli", "--p", "0.4", "--q1", "0.3", "--q2", "0.5", "--q3", "0.2"],
        ["tomography", "--channel", "gad", "--p", "0.3", "--alpha2-sq", "0.8", "--noise",
         "--shots", "1000", "--seed", "1"],
        ["reproduce-gad", "--emit-theory", str(tmp_path / "theory.json")],
        ["prepare", "--theta1", "1.1", "--theta2", "0.7"],
        ["channel-dump", "--channel", "sgad", "--sgad-alpha", "0.1", "--sgad-beta", "0.3",
         "--sgad-mu", "0.2", "--sgad-nu", "0.05", "--alpha2-sq", "0.8"],
        ["evolve", "--circuit", str(circ)],
    ]
    texts = []
    for argv in commands:
        assert main(argv) == 0, argv
        texts.append(capsys.readouterr().out)
    grid = tmp_path / "grid"
    assert main(["channel", "--channel", "gad", "--alpha2-sq", "0.75", "--grid", "0:1:5",
                 "--out", str(grid)]) == 0
    files = [circ, tmp_path / "theory.json", *sorted(grid.iterdir())]
    assert len(files) == 8
    texts += [path.read_text(encoding="utf-8") for path in files]
    for text in texts:
        assert text == _dumps(json.loads(text))
