"""Ablation: the gate-frequency decay factor gamma (Sec. III-A).

The paper introduces the gamma^layer decay ("for gates in the later layers,
we have less control over the qubit positions") without publishing a value.
This sweep quantifies the knob: decayed weighting (gamma < 1) should never
do worse than unweighted counting (gamma = 1) on SWAP insertion, and overly
aggressive decay (gamma -> 0.5) starts ignoring most of the circuit.
"""

from repro.analysis import geometric_mean
from repro.baselines import compile_on_atomique
from repro.core.compiler import AtomiqueConfig
from repro.experiments import raa_for
from repro.generators import qaoa_regular, qsim_random


def _workloads():
    return [
        qsim_random(20, seed=20),
        qsim_random(30, seed=30),
        qaoa_regular(20, 4, seed=20),
        qaoa_regular(40, 5, seed=40),
    ]


def test_ablation_gamma_sweep(record_rows):
    gammas = [0.5, 0.8, 0.95, 1.0]

    def run():
        out = {}
        for gamma in gammas:
            cfg = AtomiqueConfig(gamma=gamma)
            out[gamma] = [
                compile_on_atomique(c, raa_for(c), cfg) for c in _workloads()
            ]
        return out

    results = run()
    rows = []
    for gamma, ms in results.items():
        for m in ms:
            rows.append(
                {
                    "gamma": gamma,
                    "benchmark": m.benchmark,
                    "swaps": int(m.extras["num_swaps"]),
                    "2q": m.num_2q_gates,
                    "fidelity": round(m.total_fidelity, 4),
                }
            )
    record_rows("ablation_gamma", rows)

    swaps = {
        g: sum(m.extras["num_swaps"] for m in ms) for g, ms in results.items()
    }
    fid = {
        g: geometric_mean([m.total_fidelity for m in ms], floor=1e-6)
        for g, ms in results.items()
    }
    # the default (0.95) is never beaten badly by the extremes
    assert swaps[0.95] <= min(swaps.values()) * 1.5
    assert fid[0.95] >= max(fid.values()) * 0.9
