"""Fig. 13: depth / 2Q gates / fidelity across the five architectures.

Paper headline (geometric means): Atomique reduces 2Q gates by 5.6x / 3.4x /
3.5x / 2.8x and depth by 3.7x / 3.5x / 3.2x / 2.2x versus Superconducting,
Baker-Long-Range, FAA-Rectangular and FAA-Triangular.  The shape asserted
here: Atomique wins every geometric mean, Superconducting loses fidelity
catastrophically on deep circuits, FAA-Triangular is the strongest FAA.
"""

from conftest import full_scale

from repro.analysis import geometric_mean
from repro.experiments import improvement_over, run_main_comparison, summarize
from repro.generators.suite import main_suite


def _suite():
    specs = main_suite()
    if full_scale():
        return specs
    # drop the two slowest rows (QV-32, LiH-8 dominate runtime) by default
    skip = {"QV-32", "LiH-8"}
    return [s for s in specs if s.name not in skip]


def test_fig13_main_comparison(record_rows):
    results = run_main_comparison(_suite())
    rows = []
    for arch, ms in results.items():
        for m in ms:
            rows.append(m.row())
    record_rows("fig13_per_benchmark", rows)
    record_rows("fig13_summary", summarize(results))

    factors = improvement_over(results)
    record_rows(
        "fig13_improvements",
        [
            {"baseline": arch, **{k: round(v, 2) for k, v in f.items()}}
            for arch, f in factors.items()
        ],
    )

    # Shape assertions (paper's who-wins structure).
    fid = {
        a: geometric_mean([m.total_fidelity for m in ms], floor=1e-6)
        for a, ms in results.items()
    }
    g2q = {a: geometric_mean([m.num_2q_gates for m in ms]) for a, ms in results.items()}
    depth = {a: geometric_mean([m.depth for m in ms]) for a, ms in results.items()}
    assert fid["Atomique"] == max(fid.values())
    assert g2q["Atomique"] == min(g2q.values())
    assert depth["Atomique"] == min(depth.values())
    assert fid["Superconducting"] == min(fid.values())
    # every baseline needs at least ~1.5x more 2Q gates
    for arch in ("Superconducting", "FAA-Rectangular", "FAA-Triangular"):
        assert factors[arch]["2q_reduction"] > 1.5
