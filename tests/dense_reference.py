"""Dense reference for the reduced decoder, rank report and oracle.

The decoder's stacked system solved whole (the fresh-phase rows' dense
block-diagonal lift stacked on the final-phase rows, one SVD solve), the
rank identities assembled in full (every stacked matrix formed from the
dense block-diagonal lifts), the precoded maps as a dense lift times a
precoder, the reduced maps of the rank report and the decoder as a dense
map times a scattered block-diagonal matrix (:func:`reduced_maps`; the
oracle's reduced noise map is the dense replay times :func:`scattered`
null bases), the block solve's residual over every row
(:func:`all_rows_residual`), and the subspace oracle's containment test
run on the whole replayed maps, noise phase included, by numpy's SVD alone
(:func:`reference_contained`), whose maps come from the dense replay
alone.
``schemes.decode``, ``schemes.carried_map`` and ``verify`` compute the
same symbols, maps, ranks and verdicts slot by slot; the tests require the
two to agree.  Every cut here reads ``matcore.REL_TOL`` at call time, as
the code it checks does.

The replay through dense lifts and dense precoder products
(:func:`dense_linear_response`): both receivers' whole maps of a symbol
group, the reference the tests check the ledger engine's recorded outputs
against.  :func:`dense_eavesdropper_map` cuts from it the one map
``schemes.linear_response`` forms, which places the group's identity
phase's slot blocks, multiplies the precoders that read them slot by slot,
applies the channel by batched per-slot products and eliminates the noise
phase on a null basis.

Also the precoder draw with every rank decided by an SVD, where
``schemes.draw_precoders`` certifies by Cholesky first; the slot-by-slot
channel-state draw that ``channel.generate_states`` makes in one batch: one
draw and one rank check per slot, in a loop; and the slot-by-slot encoder
that ``schemes._Run`` runs a phase at a time: one channel product per slot,
and one solve per slot to recover a peer's inputs.
"""

import numpy as np

from xsdof import channel, matcore, schemes
from xsdof.channel import lift_rows
from xsdof.errors import DecodeFailure, SingularSystem, UnauthorizedAccess
from xsdof.knowledge import Node
from xsdof.schemes import side_info


def carried_map(transcript, lifted, name, width):
    """The dense lift ``lifted`` restricted to the inputs precoder
    ``name``'s carriers fill (``width`` per transmitter), times that
    precoder: the map from the precoder's input to the outputs."""
    cols = schemes._carrier_span(getattr(transcript.spec, name), width)
    return lifted[:, cols] @ getattr(transcript.precoders, name)


def state_rows(states, rx, slots):
    """Receiver ``rx``'s blocks ``(h_rx1, h_rx2)`` of the state sequence
    ``states`` at the 1-based ``slots``, as a ``(len(slots), 2, n, m)``
    array: the input of ``channel.diagonal_blocks`` and ``lift_rows``."""
    return states.blocks[np.asarray(slots, dtype=int) - 1, rx - 1]


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
    ``[own_f; F]``, ``n*(t2+t4) x 2m*t2``, with the same view reads, rank
    cut, residual check and exceptions."""
    transcript.check_complete()
    m = transcript.config.effective_m
    r1, r2, r3, r4 = transcript.phase_ranges()
    if receiver is Node.RX1:
        other, fresh, side, theta, mine, theirs = 2, r2, r3, "theta1", "phi2", "phi1"
    else:
        other, fresh, side, theta, mine, theirs = 1, r3, r2, "theta2", "phi1", "phi2"
    w2, w4 = m * len(fresh), m * len(r4)
    view = transcript.knowledge.view(receiver, transcript.horizon)

    own_f = _own_rows_lift(view, fresh, m)
    cross_f = _cross_rows_lift(view, fresh, m, other)
    own4 = _own_rows_lift(view, r4, m)
    mix = schemes._placed(transcript, theta, _stacked_outputs(view, r1), w2)
    y_side = side_info(transcript, _stacked_outputs(view, side))
    y_final = _stacked_outputs(view, r4) - carried_map(transcript, own4, mine, w4) @ y_side

    overheard = side_info(transcript, cross_f)
    a = np.vstack([own_f, carried_map(transcript, own4, theirs, w4) @ overheard])
    rhs = np.concatenate([_stacked_outputs(view, fresh), y_final]) - a @ mix
    x = matcore.solve_full_column_rank(a, rhs)
    residual = np.linalg.norm(a @ x - rhs)
    if residual > schemes.DECODE_TOL * max(np.linalg.norm(rhs), 1.0):
        raise DecodeFailure(f"decode residual {residual:.3e} exceeds tolerance")
    return x


def _phase_lifts(transcript):
    """Lifted per-phase row maps ``H_p`` (receiver 1) and ``G_p`` (receiver 2)."""
    m = transcript.config.effective_m
    states = transcript.states
    h, g = {}, {}
    for p, slots in enumerate(transcript.phase_ranges(), start=1):
        if slots:
            h[p] = lift_rows(state_rows(states, 1, slots), m)
            g[p] = lift_rows(state_rows(states, 2, slots), m)
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


def dense_ranks(transcript):
    """The rank report's ``rate_ranks + leak_defects``, each an ``(rx1,
    rx2)`` pair, from the dense stacked matrices."""
    n = transcript.config.n
    r1, r2, _, _ = transcript.phase_ranges()
    leak_rows = n * (len(r1) + len(r2))
    mats = stacked_matrices(transcript)

    def defect(name):
        mat = mats[name]
        return leak_rows if mat is None else leak_rows - matcore.rank(mat).value

    return (
        matcore.rank(mats["rate_rx1"]).value,
        matcore.rank(mats["rate_rx2"]).value,
        defect("leak_rx1"),
        defect("leak_rx2"),
    )


def scattered(blocks):
    """The dense block-diagonal matrix with the ``(t, r, w)`` diagonal
    ``blocks``: slot ``s``'s block at rows ``s * r`` and columns ``s * w``."""
    t, r, w = blocks.shape
    out = np.zeros((t * r, t * w), dtype=complex)
    for s, block in enumerate(blocks):
        out[s * r : (s + 1) * r, s * w : (s + 1) * w] = block
    return out


def reduced_map(transcript, left, blocks, basis, retransmit):
    """``left`` times the dense block-diagonal matrix with diagonal ``blocks
    @ basis``, through ``side_info`` when ``retransmit``: the product
    ``matcore.times_block_diagonal`` forms slot by slot, scattered whole."""
    lifted = scattered(blocks @ basis)
    return left @ (side_info(transcript, lifted) if retransmit else lifted)


def reduced_maps(transcript):
    """``(map, scale)`` by name: the decoder's two reduced systems
    (``decode_rx1``, ``decode_rx2``), whose ranks are the rate identities',
    and the rank report's two leakage maps (``leak_rx2``, ``leak_rx1``),
    each a dense precoded lift times :func:`reduced_map`, with the rank
    cut's scale.  The decoder's null basis is its fresh-phase lift's
    alone, the report's comes from the batch its pair is decided in."""
    m = transcript.config.effective_m
    r1, r2, r3, r4 = transcript.phase_ranges()
    h, g = _phase_lifts(transcript)
    w2, w4 = m * len(r2), m * len(r4)

    def blocks(rx, slots):
        return channel.diagonal_blocks(state_rows(transcript.states, rx, slots), m)

    g1, h1 = matcore.slot_null_bases(np.stack([blocks(2, r1), blocks(1, r1)]))
    (own1,) = matcore.slot_null_bases(blocks(1, r2)[None])
    (own2,) = matcore.slot_null_bases(blocks(2, r3)[None])
    maps = {
        "leak_rx2": (carried_map(transcript, g[2], "theta1", w2), blocks(1, r1), g1, False),
        "leak_rx1": (carried_map(transcript, h[3], "theta2", w2), blocks(2, r1), h1, False),
        "decode_rx1": (carried_map(transcript, h[4], "phi1", w4), blocks(2, r2), own1, True),
        "decode_rx2": (carried_map(transcript, g[4], "phi2", w4), blocks(1, r3), own2, True),
    }
    return {
        name: (reduced_map(transcript, left, diag, null.basis, retransmit), null.largest)
        for name, (left, diag, null, retransmit) in maps.items()
    }


def all_rows_residual(noise, secret, rows):
    """``||secret - noise B^-1 secret[rows]||_F`` with ``B = noise[rows]``,
    over every row: the block solve's residual with the solved rows'
    round-off kept."""
    return float(np.linalg.norm(secret - noise @ (np.linalg.inv(noise[rows]) @ secret[rows])))


def reference_contained(a, s, scale=0.0):
    """rank([A | S]) == rank(A), straight from numpy's SVD, each cut at
    ``matcore.REL_TOL`` times the larger of the matrix's largest singular
    value and ``scale``."""
    def rank(x):
        sv = np.linalg.svd(x, compute_uv=False) if x.size else np.zeros(0)
        return int(np.count_nonzero(sv > matcore.REL_TOL * max(sv.max(initial=0.0), scale)))
    return rank(np.hstack([a, s])) == rank(a)


def dense_oracle(transcript):
    """Both receivers' containment verdicts on the whole maps of the dense
    replay."""
    noise_rx1, noise_rx2 = dense_linear_response(transcript, "u")
    rx1 = reference_contained(noise_rx1, dense_linear_response(transcript, "v2")[0])
    rx2 = reference_contained(noise_rx2, dense_linear_response(transcript, "v1")[1])
    return rx1, rx2


def _placed(transcript, name, values, width):
    """Precoder ``name`` times the whole map ``values``, on the stacked
    ``[x1; x2]`` rows (``width`` per transmitter) of its carriers."""
    out = np.zeros((2 * width,) + values.shape[1:], dtype=complex)
    span = schemes._carrier_span(getattr(transcript.spec, name), width)
    out[span] = getattr(transcript.precoders, name) @ values
    return out


def group_symbols(transcript, group):
    """Symbol group ``group``'s sent symbols, both transmitters' stacked:
    ``[u1; u2]``, ``[v11; v21]`` or ``[v12; v22]``."""
    symbols = transcript.symbols
    return np.concatenate([symbols.u1, symbols.u2]) if group == "u" else getattr(symbols, group)


def dense_linear_response(transcript, group):
    """Both receivers' whole coefficient maps of symbol group ``group``, in
    the run's row order, through dense matrices: per phase, each
    receiver's dense lift ``[lift(h_j1) | lift(h_j2)]`` times the whole
    stacked input, and every precoder times the whole stacked map, zero
    inputs included.  The group enters as the permutation that takes its
    symbols in slot order (slot ``s``'s ``[x1 | x2]`` inputs together) to
    the lift's ``[x1 stack; x2 stack]`` order."""
    m = transcript.config.effective_m
    r1, r2, r3, r4 = transcript.phase_ranges()
    dims = {name: len(group_symbols(transcript, name)) for name in ("u", "v1", "v2")}
    # row i*m*t + s*m + b of the lift's input is slot-order symbol s*2m + i*m + b
    order = np.arange(dims[group]).reshape(-1, 2, m).swapaxes(0, 1).reshape(-1)
    u, v1, v2 = (
        np.eye(d, dtype=complex)[order] if name == group else np.zeros((d, dims[group]), complex)
        for name, d in dims.items()
    )

    def send(slots, x):
        return tuple(lift_rows(state_rows(transcript.states, rx, slots), m) @ x for rx in (1, 2))

    y1p1, y2p1 = send(r1, u)
    y1p2, y2p2 = send(r2, _placed(transcript, "theta1", y1p1, m * len(r2)) + v1)
    y1p3, y2p3 = send(r3, _placed(transcript, "theta2", y2p1, m * len(r2)) + v2)
    y1p4, y2p4 = send(r4, _placed(transcript, "phi1", side_info(transcript, y2p2), m * len(r4))
                      + _placed(transcript, "phi2", side_info(transcript, y1p3), m * len(r4)))
    return (np.concatenate([y1p1, y1p2, y1p3, y1p4]),
            np.concatenate([y2p1, y2p2, y2p3, y2p4]))


def dense_eavesdropper_map(transcript, rx, group, basis=None):
    """``schemes.linear_response(transcript, rx, group, basis)`` cut from
    :func:`dense_linear_response`: receiver ``rx + 1``'s whole map with
    the rows of the noise phase, its own fresh phase, the other fresh phase
    and the final phase, in that order, and for ``u`` its rows past its own
    fresh phase times the :func:`scattered` ``basis``."""
    bounds = transcript.config.n * np.cumsum((0,) + transcript.plan.phase_lengths)
    order = (0, 1, 2, 3) if rx == 0 else (0, 2, 1, 3)
    rows = np.concatenate([np.arange(bounds[p], bounds[p + 1]) for p in order])
    whole = dense_linear_response(transcript, group)[rx][rows]
    if group != "u":
        return whole
    t1, t2, t3, _ = transcript.plan.phase_lengths
    return whole[transcript.config.n * (t1 + (t2, t3)[rx]):] @ scattered(basis)


def replayed_outputs(transcript, replay=dense_linear_response):
    """Both receivers' stacked outputs from ``replay``'s maps: each group's
    maps times its sent symbols in slot order, summed over the groups."""
    m = transcript.config.effective_m
    return sum(
        np.stack(replay(transcript, group))
        @ schemes._per_slot(group_symbols(transcript, group), m).reshape(-1)
        for group in ("u", "v1", "v2")
    )


def svd_precoders(spec, config, pln, rng):
    """``schemes.draw_precoders`` with each candidate's full rank decided by
    :func:`matcore.rank` alone, in the same draw order; a deficient
    candidate raises :class:`SingularSystem`."""
    m, n = config.effective_m, config.n
    t1, t2, _, t4 = pln.phase_lengths
    drawn = {}
    mixed, read = n * t1, schemes.retransmitted_rows(spec, config) * t2
    sizes = (("theta1", t2, mixed), ("theta2", t2, mixed), ("phi1", t4, read), ("phi2", t4, read))
    for name, t_phase, cols in sizes:
        shape = (len(schemes.CARRIERS[getattr(spec, name)]) * m * t_phase, cols)
        cand = matcore.random_matrix(*shape, rng)
        if matcore.rank(cand).value != min(shape):
            raise SingularSystem(f"{name} of shape {shape} is rank deficient")
        drawn[name] = cand
    return schemes.Precoders(**drawn)


def loop_states(config, horizon, rng):
    """``generate_states(config, horizon, rng).blocks`` drawn slot by slot:
    ``h11, h12, h21, h22`` by one :func:`matcore.random_matrix` call each,
    then one :func:`matcore.rank` of the slot's stacked matrix; a slot
    below full rank raises :class:`SingularSystem`."""
    n, m = config.n, config.m
    blocks = np.empty((horizon, 2, 2, n, m), dtype=complex)
    for slot in blocks:
        for block in slot.reshape(4, n, m):
            block[...] = matcore.random_matrix(n, m, rng)
        stacked = channel.diagonal_blocks(slot, m).reshape(2 * n, 2 * m)
        if matcore.rank(stacked).value != min(2 * n, 2 * m):
            raise SingularSystem("a channel state draw is rank deficient")
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
        recovered.append(matcore.solve_full_column_rank(h_peer, y - h_own @ own_x))
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
