"""Ablation: SWAP insertion vs atom transfers for intra-array conflicts.

The paper argues (Sec. I & II) that resolving conflicts with SLM<->AOD atom
transfers — as solver-based prior work allows — risks atom loss (0.68% per
transfer) that compounds on iterative workloads, which is why Atomique
routes with SWAPs + movement instead.  This benchmark quantifies that
design choice: transfers eliminate all SWAP CZs yet end up with *lower*
overall fidelity on QSim/QAOA workloads once the loss term is charged.
"""

from conftest import full_scale

from repro.analysis import geometric_mean
from repro.baselines import compile_on_atomique, compile_with_transfers
from repro.experiments import raa_for
from repro.generators import qaoa_random, qaoa_regular, qsim_random


def _workloads():
    jobs = [
        qaoa_regular(20, 4, seed=20),
        qaoa_random(20, seed=21),
        qsim_random(20, seed=22),
        qsim_random(30, seed=23),
    ]
    if full_scale():
        jobs += [qaoa_regular(40, 5, seed=40), qsim_random(40, seed=41)]
    return jobs


def test_ablation_swap_vs_transfer(record_rows):
    def run():
        out = {"Atomique": [], "Atomique-Transfer": []}
        for circ in _workloads():
            out["Atomique"].append(compile_on_atomique(circ, raa_for(circ)))
            out["Atomique-Transfer"].append(
                compile_with_transfers(circ, raa_for(circ))
            )
        return out

    results = run()
    rows = []
    for arch, ms in results.items():
        for m in ms:
            row = m.row()
            row["transfers"] = int(m.extras.get("num_transfers", 0))
            rows.append(row)
    record_rows("ablation_transfers", rows)

    # transfers remove the SWAP overhead entirely ...
    for swap_m, tr_m in zip(results["Atomique"], results["Atomique-Transfer"]):
        assert tr_m.num_2q_gates <= swap_m.num_2q_gates
    # ... but the loss term costs more than it saves, on geometric mean.
    f_swap = geometric_mean(
        [m.total_fidelity for m in results["Atomique"]], floor=1e-6
    )
    f_transfer = geometric_mean(
        [m.total_fidelity for m in results["Atomique-Transfer"]], floor=1e-6
    )
    assert f_swap > f_transfer
