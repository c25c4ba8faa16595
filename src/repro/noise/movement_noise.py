"""Atom-movement overhead models (Sec. IV, Eqs. 1-2).

Four multiplicative fidelity terms characterize movement:

* ``F_mov_heating`` — heating degrades each two-qubit gate in proportion to
  the pair's vibrational quantum number (Eq. 2);
* ``F_mov_loss`` — hot atoms escape the trap with an erf-model probability;
* ``F_mov_cooling`` — swapping an overheated AOD with a pre-cooled twin
  costs 2 CZ per atom;
* ``F_mov_deco`` — qubits decohere for the duration of every move.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from ..hardware.parameters import HardwareParams


def heating_gate_factor(n_vib: float, params: HardwareParams) -> float:
    """Per-gate heating fidelity factor: ``1 - lam * (1 - f2q) * n_vib``.

    Clamped at 0 — beyond that the gate is certainly lost.
    """
    val = 1.0 - params.lam * (1.0 - params.f_2q) * n_vib
    return max(val, 0.0)


def movement_heating_fidelity(
    gate_n_vibs: Sequence[float], params: HardwareParams
) -> float:
    """Eq. 2 over all executed 2Q gates.

    *gate_n_vibs* is typically a :class:`~repro.core.program.ProgramStore`
    n_vib column consumed as-is (no per-gate objects); the product runs in
    column order, which is gate execution order.
    """
    f = 1.0
    for nv in gate_n_vibs:
        f *= heating_gate_factor(nv, params)
    return f


def movement_heating_fidelity_array(
    gate_n_vibs: np.ndarray, params: HardwareParams
) -> float:
    """Eq. 2 over the ``n_vib`` column array (the vectorized fast path).

    Bit-identical to :func:`movement_heating_fidelity` on the same values:
    the per-gate factor ``max(1 - (lam * (1 - f2q)) * n, 0)`` is computed
    elementwise in float64 (IEEE ops match the scalar path exactly), and
    the running product accumulates sequentially in column order.
    """
    coef = params.lam * (1.0 - params.f_2q)
    factors = np.maximum(
        1.0 - coef * np.asarray(gate_n_vibs, dtype=np.float64), 0.0
    )
    f = 1.0
    for v in factors.tolist():
        f *= v
    return f


def atom_loss_probability(n_vib: float, params: HardwareParams) -> float:
    """Sec. IV loss model: ``1 - 0.5 (1 + erf((n_max - n) / sqrt(2 n)))``.

    Zero at ``n_vib = 0``; ~0.5 at ``n_vib = n_max``; approaches 1 beyond.
    """
    if n_vib <= 0.0:
        return 0.0
    from scipy.special import erf  # on first use: see movement_loss_fidelity

    z = (params.n_vib_max - n_vib) / math.sqrt(2.0 * n_vib)
    return 1.0 - 0.5 * (1.0 + float(erf(z)))


#: Loss samples scored per numpy call in :func:`movement_loss_fidelity`;
#: bounds its temporaries however long the loss log grows.
LOSS_CHUNK = 4096


def movement_loss_fidelity(
    move_n_vibs: Sequence[float], params: HardwareParams
) -> float:
    """Probability no atom is lost across all (atom, move) events.

    Bit-identical to the product of ``1 - atom_loss_probability(n)`` over
    *move_n_vibs* in order: the loss terms are the same IEEE operations on
    arrays (``sqrt`` is correctly rounded, ``erf`` is the same ufunc), and
    ``multiply.accumulate`` carries the running product sequentially,
    ``r[i] = r[i - 1] * a[i]``, seeded with the previous chunks' product.

    ``scipy.special`` (~0.3 s, 26 MB) is imported here on first use, not
    at module import, so processes that never score fidelity (the
    service daemon and its clients) never load it.
    """
    from scipy.special import erf

    f = 1.0
    buf = np.empty(LOSS_CHUNK + 1)
    for start in range(0, len(move_n_vibs), LOSS_CHUNK):
        n = np.asarray(move_n_vibs[start : start + LOSS_CHUNK], dtype=np.float64)
        cold = n <= 0.0  # never heated: no loss (and no sqrt of n <= 0)
        safe = np.where(cold, 1.0, n)
        z = (params.n_vib_max - safe) / np.sqrt(2.0 * safe)
        loss = np.where(cold, 0.0, 1.0 - 0.5 * (1.0 + erf(z)))
        run = buf[: len(n) + 1]
        run[0] = f
        run[1:] = 1.0 - loss
        f = float(np.multiply.accumulate(run, out=run)[-1])
    return f


def cooling_fidelity(num_cooling_cz: int, params: HardwareParams) -> float:
    """Fidelity cost of cooling swaps: ``f2q ** (2 * N_AOD)`` per event."""
    return params.f_2q**num_cooling_cz


def movement_decoherence_fidelity(
    num_moving_stages: int, num_qubits: int, params: HardwareParams
) -> float:
    """``prod_i exp(-N * T_mov / T1)`` over stages with movement."""
    exponent = -num_moving_stages * num_qubits * params.t_per_move / params.t1
    return math.exp(exponent)
