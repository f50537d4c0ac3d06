"""Dense reference for the verifier's reduced rank report and oracle.

The rank identities assembled in full (every stacked matrix formed from the
dense block-diagonal lifts), and the subspace oracle's containment test run
on the whole replayed maps, noise phase included.  ``verify`` computes the
same ranks and verdicts with the noise phase eliminated slot by slot; the
tests require the two to agree.
"""

import numpy as np

from xsdof import matcore, verify
from xsdof.channel import lift_rows
from xsdof.schemes import carried_map, side_info


def _phase_lifts(transcript):
    """Lifted per-phase row maps ``H_p`` (receiver 1) and ``G_p`` (receiver 2)."""
    m = transcript.config.effective_m
    states = transcript.states
    h, g = {}, {}
    for p, slots in enumerate(transcript.phase_ranges(), start=1):
        if slots:
            h[p] = lift_rows(states.rows(1, slots), m)
            g[p] = lift_rows(states.rows(2, slots), m)
    return h, g


def stacked_matrices(transcript):
    """The identities' matrices by name; a leakage matrix is ``None``
    without a noise phase."""
    m, n = transcript.config.effective_m, transcript.config.n
    r1, r2, r3, r4 = transcript.phase_ranges()
    sels = transcript.selections
    h, g = _phase_lifts(transcript)
    w2, w4 = m * len(r2), m * len(r4)
    s2 = side_info(g[2], sels.get("side_info_rx2"))
    s3 = side_info(h[3], sels.get("side_info_rx1"))
    out = {
        "rate_rx1": np.vstack([h[2], carried_map(transcript, h[4], "phi1", w4) @ s2]),
        "rate_rx2": np.vstack([g[3], carried_map(transcript, g[4], "phi2", w4) @ s3]),
        "leak_rx2": None,
        "leak_rx1": None,
    }
    if r1:
        mix_rx2 = carried_map(transcript, g[2], "theta1", w2) @ h[1]
        mix_rx1 = carried_map(transcript, h[3], "theta2", w2) @ g[1]
        out["leak_rx2"] = np.vstack([g[1], mix_rx2])
        out["leak_rx1"] = np.vstack([h[1], mix_rx1])
    return out


def dense_ranks(transcript, rel_tol=matcore.DEFAULT_REL_TOL):
    """``(rate_rank_rx1, rate_rank_rx2, leak_defect_rx1, leak_defect_rx2)``
    from the dense stacked matrices."""
    n = transcript.config.n
    r1, r2, _, _ = transcript.phase_ranges()
    leak_rows = n * (len(r1) + len(r2))
    mats = stacked_matrices(transcript)

    def defect(name):
        mat = mats[name]
        return leak_rows if mat is None else leak_rows - matcore.rank_value(mat, rel_tol)

    return (
        matcore.rank_value(mats["rate_rx1"], rel_tol),
        matcore.rank_value(mats["rate_rx2"], rel_tol),
        defect("leak_rx1"),
        defect("leak_rx2"),
    )


def dense_oracle(transcript, rel_tol=matcore.DEFAULT_REL_TOL):
    """Both receivers' containment verdicts on the whole replayed maps."""
    noise_rx1, noise_rx2 = verify._replay_group(transcript, "u")
    rx1 = verify.columns_contained(noise_rx1, verify._replay_group(transcript, "v2")[0], rel_tol)
    rx2 = verify.columns_contained(noise_rx2, verify._replay_group(transcript, "v1")[1], rel_tol)
    return rx1, rx2
