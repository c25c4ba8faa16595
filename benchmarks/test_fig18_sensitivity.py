"""Fig. 18: sensitivity analysis over hardware parameters.

Asserted shapes:
(a/b) time-per-move has an interior optimum (too fast -> heating/loss,
      too slow -> decoherence);
(c)   larger atom distance hurts (heating grows with D^2);
(d)   the cooling threshold has an interior optimum;
(e)   Atomique gains more than FAA from longer coherence, crossing over
      around T1 ~ 1 s;
(f)   at 2Q fidelity 0.9999+ the FAAs catch up or win.
"""

from conftest import full_scale

from repro.experiments import error_breakdown, run_sensitivity
from repro.generators import qaoa_regular, qsim_random


def _benchmarks():
    if full_scale():
        from repro.experiments.fig18 import default_benchmarks

        return default_benchmarks()
    return [qsim_random(20, seed=20), qaoa_regular(40, 5, seed=40)]


def _points_to_rows(points):
    return [
        {
            "param": p.parameter,
            "value": p.value,
            "benchmark": p.benchmark,
            "arch": p.architecture,
            "fidelity": round(p.fidelity, 4),
        }
        for p in points
    ]


def _fid(points, value, arch, benchmark=None):
    sel = [
        p
        for p in points
        if p.value == value
        and p.architecture == arch
        and (benchmark is None or p.benchmark == benchmark)
    ]
    assert sel, f"no points for {value}/{arch}"
    prod = 1.0
    for p in sel:
        prod *= max(p.fidelity, 1e-9)
    return prod ** (1 / len(sel))


def test_fig18a_time_per_move(record_rows):
    values = [100e-6, 300e-6, 1000e-6]
    points = run_sensitivity("t_per_move", values, _benchmarks())
    record_rows("fig18a_time_per_move", _points_to_rows(points))
    mid = _fid(points, 300e-6, "Atomique")
    fast = _fid(points, 100e-6, "Atomique")
    slow = _fid(points, 1000e-6, "Atomique")
    assert mid >= fast and mid >= slow  # interior optimum near 300 us
    # FAA is insensitive to the knob
    assert abs(
        _fid(points, 100e-6, "FAA-Rectangular")
        - _fid(points, 1000e-6, "FAA-Rectangular")
    ) < 1e-9


def test_fig18c_atom_distance(record_rows):
    values = [15e-6, 60e-6]
    points = run_sensitivity(
        "atom_distance", values, _benchmarks(), ["Atomique"]
    )
    record_rows("fig18c_atom_distance", _points_to_rows(points))
    assert _fid(points, 15e-6, "Atomique") > _fid(points, 60e-6, "Atomique")


def test_fig18d_cooling_threshold(record_rows):
    # use a long-distance setting so cooling actually engages
    from repro.experiments.fig18 import params_for

    base = params_for("atom_distance", 60e-6)
    values = [1.0, 15.0, 45.0]
    from repro.core.compiler import AtomiqueConfig
    from repro.core.router import RouterConfig
    from repro.baselines import compile_on_atomique
    from repro.experiments.common import raa_for
    from repro.hardware.raa import RAAArchitecture

    rows = []
    fids = {}
    for thr in values:
        params = base.with_overrides(n_vib_cooling_threshold=thr)
        prod = 1.0
        for circ in _benchmarks():
            shape = raa_for(circ)
            arch = RAAArchitecture(shape.slm_shape, shape.aod_shapes, params)
            cfg = AtomiqueConfig(router=RouterConfig(cooling_threshold=thr))
            m = compile_on_atomique(circ, arch, cfg)
            prod *= max(m.total_fidelity, 1e-9)
            rows.append(
                {
                    "threshold": thr,
                    "benchmark": circ.name,
                    "fidelity": round(m.total_fidelity, 4),
                    "cooling_events": m.extras["cooling_events"],
                }
            )
        fids[thr] = prod ** (1 / len(_benchmarks()))
    record_rows("fig18d_cooling_threshold", rows)
    # the paper's optimal window (12-25) beats both extremes
    assert fids[15.0] >= fids[1.0]
    assert fids[15.0] >= fids[45.0]


def test_fig18e_coherence_time(record_rows):
    values = [0.1, 15.0, 100.0]
    points = run_sensitivity(
        "t1", values, _benchmarks(), ["FAA-Rectangular", "Atomique"]
    )
    record_rows("fig18e_coherence", _points_to_rows(points))
    # RAA gains more from coherence than FAA does
    raa_gain = _fid(points, 100.0, "Atomique") / max(
        _fid(points, 0.1, "Atomique"), 1e-9
    )
    faa_gain = _fid(points, 100.0, "FAA-Rectangular") / max(
        _fid(points, 0.1, "FAA-Rectangular"), 1e-9
    )
    assert raa_gain > faa_gain
    # and wins outright at long coherence
    assert _fid(points, 100.0, "Atomique") > _fid(points, 100.0, "FAA-Rectangular")


def test_fig18f_two_qubit_fidelity(record_rows):
    values = [0.99, 0.9975, 0.99995]
    points = run_sensitivity(
        "f_2q", values, _benchmarks(), ["FAA-Triangular", "Atomique"]
    )
    record_rows("fig18f_2q_fidelity", _points_to_rows(points))
    # at today's fidelity Atomique wins ...
    assert _fid(points, 0.9975, "Atomique") > _fid(points, 0.9975, "FAA-Triangular")
    # ... and the FAA gap narrows (or flips) as 2Q error vanishes.
    gap_now = _fid(points, 0.9975, "Atomique") / _fid(points, 0.9975, "FAA-Triangular")
    gap_future = _fid(points, 0.99995, "Atomique") / _fid(
        points, 0.99995, "FAA-Triangular"
    )
    assert gap_future < gap_now


def test_fig18_bottom_error_breakdown(record_rows):
    rows = error_breakdown("t_per_move", [100e-6, 300e-6, 1000e-6])
    for r in rows:
        r["value"] = r["value"]
        for k in list(r):
            if isinstance(r[k], float) and k != "value":
                r[k] = round(r[k], 5)
    record_rows("fig18_bottom_breakdown", rows)
    by_value = {r["value"]: r for r in rows}
    # decoherence grows with move time; heating+loss shrink
    assert (
        by_value[1000e-6]["Move Decoherence"] > by_value[100e-6]["Move Decoherence"]
    )
    assert (
        by_value[100e-6]["Move Heating"] + by_value[100e-6]["Move Atom Loss"]
        >= by_value[1000e-6]["Move Heating"] + by_value[1000e-6]["Move Atom Loss"]
    )
