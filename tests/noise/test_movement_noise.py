"""Tests pinning the movement-noise models to the paper's quoted values."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.parameters import neutral_atom_params
from repro.noise import movement_noise
from repro.noise import (
    atom_loss_probability,
    cooling_fidelity,
    heating_gate_factor,
    movement_decoherence_fidelity,
    movement_heating_fidelity,
    movement_loss_fidelity,
)


@pytest.fixture
def params():
    return neutral_atom_params()


class TestAtomLoss:
    def test_paper_values(self, params):
        """Sec. IV: F=0.708 @ n=30, 0.998 @ n=20, 0.999998 @ n=15."""
        assert 1 - atom_loss_probability(30, params) == pytest.approx(0.708, abs=0.002)
        assert 1 - atom_loss_probability(20, params) == pytest.approx(0.998, abs=0.001)
        assert 1 - atom_loss_probability(15, params) == pytest.approx(
            0.999998, abs=1e-5
        )

    def test_zero_nvib_no_loss(self, params):
        assert atom_loss_probability(0.0, params) == 0.0

    def test_monotone_in_nvib(self, params):
        probs = [atom_loss_probability(n, params) for n in (5, 15, 25, 33, 40)]
        assert probs == sorted(probs)

    def test_half_at_nmax(self, params):
        assert atom_loss_probability(params.n_vib_max, params) == pytest.approx(
            0.5, abs=0.01
        )

    def test_loss_fidelity_product(self, params):
        f = movement_loss_fidelity([20.0, 20.0], params)
        single = 1 - atom_loss_probability(20.0, params)
        assert f == pytest.approx(single**2)


class TestHeating:
    def test_factor_formula(self, params):
        nv = 10.0
        expected = 1 - params.lam * (1 - params.f_2q) * nv
        assert heating_gate_factor(nv, params) == pytest.approx(expected)

    def test_factor_clamped(self, params):
        assert heating_gate_factor(1e9, params) == 0.0

    def test_cold_gate_unaffected(self, params):
        assert heating_gate_factor(0.0, params) == 1.0

    def test_product_over_gates(self, params):
        f = movement_heating_fidelity([1.0, 2.0], params)
        assert f == pytest.approx(
            heating_gate_factor(1.0, params) * heating_gate_factor(2.0, params)
        )


class TestCoolingAndDecoherence:
    def test_cooling_cost(self, params):
        assert cooling_fidelity(10, params) == pytest.approx(params.f_2q**10)

    def test_no_cooling_free(self, params):
        assert cooling_fidelity(0, params) == 1.0

    def test_decoherence_paper_example(self, params):
        """Sec. IV: one move, 10 qubits, T1=1.5 s -> 0.998."""
        raw = params.with_overrides(t1=1.5)
        f = movement_decoherence_fidelity(1, 10, raw)
        assert f == pytest.approx(0.998, abs=0.001)

    def test_decoherence_scales_with_qubits(self, params):
        """Paper: 0.99 for 50 qubits, 0.98 for 100 qubits (T1=1.5)."""
        raw = params.with_overrides(t1=1.5)
        assert movement_decoherence_fidelity(1, 50, raw) == pytest.approx(
            0.99, abs=0.002
        )
        assert movement_decoherence_fidelity(1, 100, raw) == pytest.approx(
            0.98, abs=0.003
        )

    def test_no_moves_no_decoherence(self, params):
        assert movement_decoherence_fidelity(0, 100, params) == 1.0


def scalar_loss_fidelity(n_vibs, params):
    """The reference: a sequential product of the scalar loss model."""
    f = 1.0
    for nv in n_vibs:
        f *= 1.0 - atom_loss_probability(nv, params)
    return f


#: n_vib samples as the router logs them, weighted toward zero (atoms that
#: never heated) and the neighbourhood of n_vib_max, where erf turns over.
N_VIBS = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=80.0),
    st.floats(min_value=32.0, max_value=34.0),
    st.integers(min_value=0, max_value=60),
)


class TestLossFidelityVectorized:
    """The chunked array path equals the scalar product exactly (==)."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(N_VIBS, max_size=40), st.integers(min_value=1, max_value=9))
    def test_matches_scalar_product(self, n_vibs, chunk):
        params = neutral_atom_params()
        # Small chunks make the cross-chunk running product carry often.
        with mock.patch.object(movement_noise, "LOSS_CHUNK", chunk):
            got = movement_loss_fidelity(n_vibs, params)
        assert got == scalar_loss_fidelity(n_vibs, params)

    def test_empty_log(self, params):
        assert movement_loss_fidelity([], params) == 1.0

    def test_all_zero_log(self, params):
        assert movement_loss_fidelity([0.0] * 10, params) == 1.0

    def test_longer_than_one_chunk(self, params):
        rng = np.random.default_rng(5)
        n = 2 * movement_noise.LOSS_CHUNK + 123
        # mostly mild heating, so the product stays far from underflow
        n_vibs = rng.uniform(0.0, 16.0, n).tolist()
        n_vibs[::7] = [0.0] * len(n_vibs[::7])
        n_vibs[3::1999] = [params.n_vib_max] * len(n_vibs[3::1999])
        want = scalar_loss_fidelity(n_vibs, params)
        assert 1e-3 < want < 0.5
        assert movement_loss_fidelity(n_vibs, params) == want
