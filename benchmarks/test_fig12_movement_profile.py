"""Fig. 12: the constant-jerk atom-movement pattern.

Regenerates the four panels (jerk, acceleration, velocity, distance vs
time) for the paper's reference move (15 um in 300 us) and asserts their
shapes: constant negative jerk, linearly decreasing acceleration crossing
zero mid-move, parabolic velocity vanishing at both endpoints, and a
monotone S-curve distance reaching 15 um.
"""

import numpy as np

from repro.core.kinematics import hop_profile
from repro.hardware.parameters import neutral_atom_params


def test_fig12_movement_pattern(record_rows):
    params = neutral_atom_params()
    profile = hop_profile(1, params)
    series = profile.sample(13)
    rows = [
        {
            "t_us": round(t * 1e6, 1),
            "jerk_um_per_us3": round(j * 1e6 / 1e18, 8),
            "accel_um_per_us2": round(a * 1e6 / 1e12, 6),
            "velo_m_per_s": round(v, 4),
            "dist_um": round(x * 1e6, 3),
        }
        for t, j, a, v, x in zip(
            series["time"],
            series["jerk"],
            series["acceleration"],
            series["velocity"],
            series["position"],
        )
    ]
    record_rows("fig12_movement_pattern", rows)

    # Shape assertions mirroring the four panels of Fig. 12.
    assert np.ptp(series["jerk"]) == 0.0 and series["jerk"][0] < 0
    accel = series["acceleration"]
    assert accel[0] > 0 > accel[-1]
    assert np.allclose(np.diff(accel, 2), 0.0, atol=1e-6)  # linear
    velo = series["velocity"]
    assert velo[0] == 0.0 and abs(velo[-1]) < 1e-12
    assert velo.argmax() == len(velo) // 2
    dist = series["position"]
    assert np.all(np.diff(dist) >= 0)
    assert abs(dist[-1] * 1e6 - 15.0) < 1e-9  # 15 um, paper's pitch
    # peak speed ~ 0.075 m/s, matching Fig. 12's ~0.05-0.08 m/s panel
    assert 0.05 < profile.peak_velocity < 0.10
