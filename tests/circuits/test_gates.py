"""Unit tests for the gate taxonomy and matrices."""

import copy
import math
import pickle

import numpy as np
import pytest

from repro.circuits.gates import (
    Gate,
    GateError,
    gate_matrix,
    matrices_equal_up_to_phase,
    one_qubit_matrix,
    two_qubit_matrix,
)


class TestGateConstruction:
    def test_basic_gate(self):
        g = Gate("cx", (0, 1))
        assert g.name == "cx"
        assert g.qubits == (0, 1)
        assert g.params == ()

    def test_name_lowercased(self):
        assert Gate("CZ", (0, 1)).name == "cz"

    def test_params_coerced_to_float(self):
        g = Gate("rz", (0,), (1,))
        assert g.params == (1.0,)
        assert isinstance(g.params[0], float)

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(GateError):
            Gate("cx", (1, 1))

    def test_negative_qubit_rejected(self):
        with pytest.raises(GateError):
            Gate("h", (-1,))

    def test_wrong_arity_rejected(self):
        with pytest.raises(GateError):
            Gate("cx", (0,))
        with pytest.raises(GateError):
            Gate("h", (0, 1))

    def test_wrong_param_count_rejected(self):
        with pytest.raises(GateError):
            Gate("rz", (0,))
        with pytest.raises(GateError):
            Gate("u3", (0,), (0.1,))

    def test_frozen(self):
        g = Gate("h", (0,))
        with pytest.raises(AttributeError):
            g.name = "x"

    def test_non_string_name_rejected(self):
        with pytest.raises(GateError, match="name must be a str"):
            Gate(1, (0,))

    @pytest.mark.parametrize("bad", [1.5, "2", np.float64(1.0), None])
    def test_non_integral_qubit_rejected(self, bad):
        with pytest.raises(GateError, match="must be integers"):
            Gate("cz", (0, bad))

    def test_numpy_int_qubits_normalised(self):
        g = Gate("cz", (np.int64(3), np.int32(1)))
        assert g.qubits == (3, 1)
        assert all(type(q) is int for q in g.qubits)


class TestTrustedConstructor:
    def test_trusted_equals_validated(self):
        trusted = Gate.trusted("rzz", (2, 0), (0.5,))
        validated = Gate("rzz", (2, 0), (0.5,))
        assert trusted == validated
        assert hash(trusted) == hash(validated)
        assert repr(trusted) == repr(validated)
        assert Gate.trusted("h", (0,)).params == ()

    @pytest.mark.parametrize(
        "round_trip",
        [
            lambda g: pickle.loads(pickle.dumps(g)),
            lambda g: pickle.loads(pickle.dumps(g, protocol=2)),
            copy.copy,
            copy.deepcopy,
        ],
        ids=["pickle", "pickle-protocol-2", "copy", "deepcopy"],
    )
    def test_round_trips_skip_validation(self, round_trip, monkeypatch):
        gates = [Gate("u3", (4,), (0.1, 0.2, 0.3)), Gate("cx", (1, 0))]

        def no_validation(self, *args, **kwargs):
            raise AssertionError("round trip ran Gate validation")

        monkeypatch.setattr(Gate, "__init__", no_validation)
        for g in gates:
            back = round_trip(g)
            assert back == g and hash(back) == hash(g)
            assert type(back.name) is str and type(back.qubits) is tuple


class TestGateProperties:
    def test_one_qubit_classification(self):
        assert Gate("h", (0,)).is_one_qubit
        assert not Gate("cx", (0, 1)).is_one_qubit
        assert not Gate("measure", (0,)).is_one_qubit

    def test_two_qubit_classification(self):
        assert Gate("cz", (0, 1)).is_two_qubit
        assert Gate("rzz", (0, 1), (0.5,)).is_two_qubit
        assert not Gate("ccx", (0, 1, 2)).is_two_qubit

    def test_entangling(self):
        assert Gate("cx", (0, 1)).is_entangling
        assert Gate("ccx", (0, 1, 2)).is_entangling
        assert not Gate("rz", (0,), (0.1,)).is_entangling

    def test_symmetric(self):
        assert Gate("cz", (0, 1)).is_symmetric
        assert Gate("swap", (0, 1)).is_symmetric
        assert not Gate("cx", (0, 1)).is_symmetric

    def test_diagonal(self):
        assert Gate("rz", (0,), (0.1,)).is_diagonal
        assert Gate("cz", (0, 1)).is_diagonal
        assert not Gate("h", (0,)).is_diagonal
        assert not Gate("cx", (0, 1)).is_diagonal

    def test_directive(self):
        assert Gate("measure", (0,)).is_directive
        assert Gate("barrier", (0, 1, 2)).is_directive
        assert not Gate("x", (0,)).is_directive

    def test_remapped(self):
        g = Gate("cx", (0, 1)).remapped({0: 5, 1: 3})
        assert g.qubits == (5, 3)
        assert g.name == "cx"

    def test_key_canonical(self):
        assert Gate("cx", (3, 1)).key() == (1, 3)
        assert Gate("cx", (1, 3)).key() == (1, 3)

    def test_key_requires_two_qubits(self):
        with pytest.raises(GateError):
            Gate("h", (0,)).key()


class TestMatrices:
    def test_pauli_algebra(self):
        x = one_qubit_matrix(Gate("x", (0,)))
        y = one_qubit_matrix(Gate("y", (0,)))
        z = one_qubit_matrix(Gate("z", (0,)))
        assert np.allclose(x @ x, np.eye(2))
        assert np.allclose(x @ y, 1j * z)

    def test_h_squared_identity(self):
        h = one_qubit_matrix(Gate("h", (0,)))
        assert np.allclose(h @ h, np.eye(2))

    def test_s_is_sqrt_z(self):
        s = one_qubit_matrix(Gate("s", (0,)))
        z = one_qubit_matrix(Gate("z", (0,)))
        assert np.allclose(s @ s, z)

    def test_t_is_sqrt_s(self):
        t = one_qubit_matrix(Gate("t", (0,)))
        s = one_qubit_matrix(Gate("s", (0,)))
        assert np.allclose(t @ t, s)

    def test_sdg_tdg_inverses(self):
        for a, b in (("s", "sdg"), ("t", "tdg")):
            m1 = one_qubit_matrix(Gate(a, (0,)))
            m2 = one_qubit_matrix(Gate(b, (0,)))
            assert np.allclose(m1 @ m2, np.eye(2))

    def test_sx_squared_is_x(self):
        sx = one_qubit_matrix(Gate("sx", (0,)))
        x = one_qubit_matrix(Gate("x", (0,)))
        assert np.allclose(sx @ sx, x)

    def test_rz_diagonal(self):
        m = one_qubit_matrix(Gate("rz", (0,), (0.7,)))
        assert abs(m[0, 1]) == 0 and abs(m[1, 0]) == 0

    def test_rx_pi_is_x_up_to_phase(self):
        m = one_qubit_matrix(Gate("rx", (0,), (math.pi,)))
        x = one_qubit_matrix(Gate("x", (0,)))
        assert matrices_equal_up_to_phase(m, x)

    def test_ry_pi_is_y_up_to_phase(self):
        m = one_qubit_matrix(Gate("ry", (0,), (math.pi,)))
        y = one_qubit_matrix(Gate("y", (0,)))
        assert matrices_equal_up_to_phase(m, y)

    def test_u2_is_u3_half_pi(self):
        u2 = one_qubit_matrix(Gate("u2", (0,), (0.3, 0.9)))
        u3 = one_qubit_matrix(Gate("u3", (0,), (math.pi / 2, 0.3, 0.9)))
        assert np.allclose(u2, u3)

    def test_p_equals_u1(self):
        p = one_qubit_matrix(Gate("p", (0,), (0.4,)))
        u1 = one_qubit_matrix(Gate("u1", (0,), (0.4,)))
        assert np.allclose(p, u1)

    def test_cx_unitary(self):
        m = two_qubit_matrix(Gate("cx", (0, 1)))
        assert np.allclose(m @ m.conj().T, np.eye(4))
        assert np.allclose(m @ m, np.eye(4))

    def test_cz_symmetric_matrix(self):
        m = two_qubit_matrix(Gate("cz", (0, 1)))
        swap = two_qubit_matrix(Gate("swap", (0, 1)))
        assert np.allclose(swap @ m @ swap, m)

    def test_swap_action(self):
        m = two_qubit_matrix(Gate("swap", (0, 1)))
        v01 = np.zeros(4)
        v01[1] = 1.0  # |01>
        assert np.allclose(m @ v01, np.eye(4)[2])  # -> |10>

    def test_rzz_diagonal(self):
        m = two_qubit_matrix(Gate("rzz", (0, 1), (0.5,)))
        assert np.allclose(m, np.diag(np.diag(m)))

    def test_rzz_2pi_identity_up_to_phase(self):
        m = two_qubit_matrix(Gate("rzz", (0, 1), (2 * math.pi,)))
        assert matrices_equal_up_to_phase(m, np.eye(4))

    def test_rxx_unitary(self):
        m = two_qubit_matrix(Gate("rxx", (0, 1), (0.8,)))
        assert np.allclose(m @ m.conj().T, np.eye(4))

    def test_ryy_unitary(self):
        m = two_qubit_matrix(Gate("ryy", (0, 1), (0.8,)))
        assert np.allclose(m @ m.conj().T, np.eye(4))

    def test_cp_pi_is_cz(self):
        m = two_qubit_matrix(Gate("cp", (0, 1), (math.pi,)))
        cz = two_qubit_matrix(Gate("cz", (0, 1)))
        assert np.allclose(m, cz)

    def test_gate_matrix_dispatch(self):
        assert gate_matrix(Gate("h", (0,))).shape == (2, 2)
        assert gate_matrix(Gate("cx", (0, 1))).shape == (4, 4)
        with pytest.raises(GateError):
            gate_matrix(Gate("ccx", (0, 1, 2)))

    def test_matrices_equal_up_to_phase_detects_difference(self):
        x = one_qubit_matrix(Gate("x", (0,)))
        z = one_qubit_matrix(Gate("z", (0,)))
        assert not matrices_equal_up_to_phase(x, z)

    def test_matrices_equal_up_to_phase_accepts_phase(self):
        h = one_qubit_matrix(Gate("h", (0,)))
        assert matrices_equal_up_to_phase(h, np.exp(1j * 0.37) * h)
