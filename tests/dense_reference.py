"""Dense reference for the reduced decoder, rank report and oracle.

The decoder's stacked system solved whole (the fresh-phase rows' dense
block-diagonal lift stacked on the final-phase rows, one SVD solve), the
rank identities assembled in full (every stacked matrix formed from the
dense block-diagonal lifts), the precoded maps as a dense lift times a
precoder, and the subspace oracle's containment test run on the whole
replayed maps, noise phase included.  ``schemes.decode``, ``schemes.carried_map``
and ``verify`` compute the same symbols, maps, ranks and verdicts slot by
slot; the tests require the two to agree.
"""

import numpy as np

from xsdof import matcore, schemes, verify
from xsdof.channel import lift_rows
from xsdof.errors import DecodeFailure
from xsdof.knowledge import Node
from xsdof.schemes import side_info


def carried_map(transcript, lifted, name, width):
    """The dense lift ``lifted`` restricted to the inputs precoder
    ``name``'s carriers fill (``width`` per transmitter), times that
    precoder: the map from the precoder's input to the outputs."""
    cols = schemes._carrier_span(getattr(transcript.spec, name), width)
    return lifted[:, cols] @ getattr(transcript.precoders, name)


def _own_rows_lift(view, slots, m_eff):
    """[lift(h_own,tx1) | lift(h_own,tx2)] from the instantaneous CSI grants."""
    return lift_rows(np.array([view.own_csi_rows(t) for t in slots]), m_eff)


def _cross_rows_lift(view, slots, m_eff, other_rx):
    """The other receiver's lifted rows over ``slots``, via delayed CSI."""
    return lift_rows(np.array([view.delayed_csi(t)[other_rx - 1] for t in slots]), m_eff)


def _stacked_outputs(view, slots):
    return np.array([view.own_output(t) for t in slots], dtype=complex).reshape(-1)


def dense_decode(transcript, receiver):
    """``schemes.decode`` by one SVD solve of the whole stacked system
    ``[own_f; F]``, ``n*(t2+t4) x 2m*t2``, with the same view reads, condition
    limit, residual check and exceptions."""
    transcript.check_complete()
    m = transcript.config.effective_m
    r1, r2, r3, r4 = transcript.phase_ranges()
    if receiver is Node.RX1:
        other, fresh, side, theta, mine, theirs = 2, r2, r3, "theta1", "phi2", "phi1"
    else:
        other, fresh, side, theta, mine, theirs = 1, r3, r2, "theta2", "phi1", "phi2"
    w2, w4 = m * len(fresh), m * len(r4)
    view = transcript.knowledge.view(receiver, transcript.horizon, decoder=True)

    own_f = _own_rows_lift(view, fresh, m)
    cross_f = _cross_rows_lift(view, fresh, m, other)
    own4 = _own_rows_lift(view, r4, m)
    mix = schemes._placed(transcript, theta, _stacked_outputs(view, r1), w2)
    y_side = side_info(transcript, _stacked_outputs(view, side))
    y_final = _stacked_outputs(view, r4) - carried_map(transcript, own4, mine, w4) @ y_side

    overheard = side_info(transcript, cross_f)
    a = np.vstack([own_f, carried_map(transcript, own4, theirs, w4) @ overheard])
    rhs = np.concatenate([_stacked_outputs(view, fresh), y_final]) - a @ mix
    sol = matcore.solve_full_column_rank(a, rhs, condition_limit=matcore.CONDITION_LIMIT)
    residual = np.linalg.norm(a @ sol.x - rhs)
    if residual > schemes.DECODE_TOL * max(np.linalg.norm(rhs), 1.0):
        raise DecodeFailure(f"decode residual {residual:.3e} exceeds tolerance")
    return sol.x


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
    h, g = _phase_lifts(transcript)
    w2, w4 = m * len(r2), m * len(r4)
    s2 = side_info(transcript, g[2])
    s3 = side_info(transcript, h[3])
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
    noise_rx1, noise_rx2 = schemes.linear_response(transcript, "u")
    rx1 = verify.columns_contained(noise_rx1, schemes.linear_response(transcript, "v2")[0], rel_tol)
    rx2 = verify.columns_contained(noise_rx2, schemes.linear_response(transcript, "v1")[1], rel_tol)
    return rx1, rx2
