"""Dense reference for the reduced decoder, rank report and oracle.

The decoder's stacked system solved whole (the fresh-phase rows' dense
block-diagonal lift stacked on the final-phase rows, one SVD solve), the
rank identities assembled in full (every stacked matrix formed from the
dense block-diagonal lifts), the precoded maps as a dense lift times a
precoder, and the subspace oracle's containment test run on the whole
replayed maps, noise phase included.  ``schemes.decode``, ``schemes.carried_map``
and ``verify`` compute the same symbols, maps, ranks and verdicts slot by
slot; the tests require the two to agree.

Also the precoder draw with every rank decided by an SVD, where
``schemes.draw_precoders`` certifies by Cholesky first; the slot-by-slot
channel-state draw that ``channel.generate_states`` makes in one batch: one
draw and one rank check per slot, in a loop; and the slot-by-slot encoder
that ``schemes._Run`` runs a phase at a time: one channel product per slot,
and one solve per slot to recover a peer's inputs.
"""

import numpy as np

from xsdof import channel, matcore, schemes, verify
from xsdof.channel import lift_rows
from xsdof.errors import DecodeFailure, InvalidInput, UnauthorizedAccess
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


def svd_precoders(spec, config, pln, rng):
    """``schemes.draw_precoders`` with each candidate's full rank decided by
    :func:`matcore.rank_value` alone, in the same draw order."""
    m, n = config.effective_m, config.n
    t1, t2, _, t3 = pln.phase_lengths
    drawn = {}
    sizes = (("theta1", t2, t1), ("theta2", t2, t1), ("phi1", t3, t2), ("phi2", t3, t2))
    for name, t_phase, t_prev in sizes:
        shape = (len(schemes.CARRIERS[getattr(spec, name)]) * m * t_phase, n * t_prev)
        for _ in range(schemes.MAX_PRECODER_DRAWS):
            cand = matcore.random_matrix(*shape, rng)
            if matcore.rank_value(cand) == min(shape):
                drawn[name] = cand
                break
        else:
            raise AssertionError(f"{name} of shape {shape} failed rank target")
    return schemes.Precoders(**drawn)


def loop_states(config, horizon, rng):
    """``generate_states(config, horizon, rng).blocks`` drawn slot by slot:
    ``h11, h12, h21, h22`` by one :func:`matcore.random_matrix` call each,
    then one :func:`matcore.rank_value` of the slot's stacked matrix, the
    slot redrawn until it is full rank."""
    n, m = config.n, config.m
    want = min(2 * n, 2 * m)
    blocks = np.empty((horizon, 2, 2, n, m), dtype=complex)
    for slot in blocks:
        for _ in range(channel.MAX_STATE_DRAWS):
            for block in slot.reshape(4, n, m):
                block[...] = matcore.random_matrix(n, m, rng)
            if matcore.rank_value(channel._stacked(slot)) == want:
                break
        else:
            raise InvalidInput("could not draw a full-rank channel state")
    return blocks


def loop_recover_peer_inputs(view, config, slots, own_inputs):
    """``knowledge.recover_peer_inputs`` by one full-column-rank solve per
    slot, reading each slot's fed-back output and then its delayed CSI."""
    m_eff = config.effective_m
    me = view.node.index
    peer = 2 if me == 1 else 1
    recovered = []
    for slot, own_x in zip(slots, own_inputs):
        y = view.fed_back_output(me, slot)
        row = view.delayed_csi(slot)[me - 1, :, :, :m_eff]
        h_own, h_peer = row[me - 1], row[peer - 1]
        recovered.append(matcore.solve_full_column_rank(h_peer, y - h_own @ own_x).x)
    return recovered


def loop_rebuild_receiver_output(view, config, slots, x1_list, x2_list, target_rx):
    """``knowledge.rebuild_receiver_output`` by one pair of products per slot."""
    m_eff = config.effective_m
    parts = []
    for slot, x1, x2 in zip(slots, x1_list, x2_list):
        h1, h2 = view.delayed_csi(slot)[target_rx - 1, :, :, :m_eff]
        parts.append(h1 @ x1 + h2 @ x2)
    return np.concatenate(parts)


class LoopRun(schemes._Run):
    """The encoder state of ``schemes.run``, sending and reconstructing slot
    by slot: per slot, one channel product ``y_j = h_j1 x1 + h_j2 x2`` and
    one ledger advance; per acquired slot, one solve."""

    def send(self, slots, x):
        tr = self.transcript
        m, m_eff = tr.config.m, tr.config.effective_m
        for idx, slot in enumerate(slots):
            x1 = np.zeros(m, dtype=complex)
            x2 = np.zeros(m, dtype=complex)
            x1[:m_eff] = x[1][idx * m_eff : (idx + 1) * m_eff]
            x2[:m_eff] = x[2][idx * m_eff : (idx + 1) * m_eff]
            state = tr.states[slot]
            (h11, h12), (h21, h22) = state
            y1, y2 = h11 @ x1 + h12 @ x2, h21 @ x1 + h22 @ x2
            tr.inputs.append((x1, x2))
            tr.outputs.append((y1, y2))
            tr.knowledge.advance_slot(slot, (y1, y2), state)

    def acquire_output(self, node, target_rx, slots, at_slot):
        view = self.transcript.knowledge.view(node, at_slot)
        try:
            return np.concatenate([view.fed_back_output(target_rx, t) for t in slots])
        except UnauthorizedAccess:
            pass
        config = self.transcript.config
        own = [self.transcript.inputs[t - 1][node.index - 1][: config.effective_m] for t in slots]
        peer = loop_recover_peer_inputs(view, config, slots, own)
        x1s, x2s = (own, peer) if node.index == 1 else (peer, own)
        return loop_rebuild_receiver_output(view, config, slots, x1s, x2s, target_rx)
