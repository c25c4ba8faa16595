"""Fig. 25: additional CNOTs from SWAP insertion per architecture.

Paper shape: Atomique's additional CNOTs (mean 27) are consistently and
dramatically below all fixed-coupling baselines (mean 544-770), because the
complete multipartite coupling graph needs SWAPs only for intra-array pairs.
"""

from conftest import full_scale

from repro.analysis import geometric_mean
from repro.experiments import run_main_comparison
from repro.generators.suite import main_suite


def _suite():
    specs = main_suite()
    if full_scale():
        return specs
    keep = {"HHL-7", "Mermin-Bell-10", "BV-50", "QSim-rand-20", "QAOA-regu5-40"}
    return [s for s in specs if s.name in keep]


def test_fig25_additional_cnots(record_rows):
    results = run_main_comparison(_suite())
    rows = []
    for arch, ms in results.items():
        for m in ms:
            rows.append(
                {
                    "benchmark": m.benchmark,
                    "arch": arch,
                    "additional_cnot": m.additional_cnots,
                }
            )
    record_rows("fig25_additional_cnot", rows)

    means = {
        arch: geometric_mean([max(m.additional_cnots, 1) for m in ms])
        for arch, ms in results.items()
    }
    assert means["Atomique"] == min(means.values())
    for arch, mean in means.items():
        if arch != "Atomique":
            assert mean > 2 * means["Atomique"]
