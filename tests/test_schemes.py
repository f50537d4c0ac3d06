"""Scheme engine tests: plans, precoders, runs, decoding, accounting."""

from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

from dense_reference import LoopRun, dense_decode, svd_precoders
from xsdof import matcore, schemes, verify
from xsdof.channel import AntennaConfig, FeedbackModel, lift_rows
from xsdof.cli import run_trial
from xsdof.errors import DecodeFailure, InvalidInput, RegimeError, UnauthorizedAccess
from xsdof.knowledge import ItemKind, KnowledgeBase, Node
from xsdof.schemes import SchemeId, variant


def applicable_pairs():
    """(scheme, m, n, tx1_only) for every size the plan accepts, plus scheme
    C's tx1-only run mode at (2, 3) and (3, 4)."""
    out = []
    for scheme in SchemeId:
        for m, n in [(2, 3), (3, 4), (1, 1), (4, 4), (3, 3)]:
            try:
                schemes.plan(variant(scheme), AntennaConfig(m, n))
            except RegimeError:
                continue
            out.append(pytest.param(scheme, m, n, False, id=f"{scheme}-{m}-{n}"))
    for m, n in [(2, 3), (3, 4)]:
        out.append(pytest.param(SchemeId.C, m, n, True, id=f"{SchemeId.C}-{m}-{n}-tx1"))
    return out


class TestPlan:
    def test_scheme_a(self):
        p = schemes.plan(variant(SchemeId.A), AntennaConfig(2, 3))
        assert p.phase_lengths == (9, 3, 3, 1)
        assert p.symbols_per_receiver == 12
        assert p.horizon == 16  # == 4 m^2

    def test_scheme_c(self):
        p = schemes.plan(variant(SchemeId.C), AntennaConfig(2, 3))
        assert p.phase_lengths == (9, 2, 2, 1)
        assert p.symbols_per_receiver == 8
        assert p.horizon == 14

    def test_scheme_b(self):
        p = schemes.plan(variant(SchemeId.B), AntennaConfig(1, 1))
        assert p.phase_lengths == (1, 1, 1, 1)
        assert p.symbols_per_receiver == 2
        assert schemes.plan(variant(SchemeId.B), AntennaConfig(4, 4)).symbols_per_receiver == 8

    def test_scheme_e(self):
        p = schemes.plan(variant(SchemeId.E), AntennaConfig(2, 3))
        assert p.phase_lengths == (0, 3, 3, 1)  # an empty noise phase
        assert p.symbols_per_receiver == 12
        assert p.horizon == 7  # == (2m-n)(2m+n)

    def test_scheme_d_matches_a(self):
        for m, n in [(2, 3), (3, 4), (1, 1)]:
            assert schemes.plan(variant(SchemeId.D), AntennaConfig(m, n)) == schemes.plan(
                variant(SchemeId.A), AntennaConfig(m, n)
            )

    def test_effective_antenna_reduction(self):
        # surplus transmit antennas are ignored by the plan
        assert schemes.plan(variant(SchemeId.A), AntennaConfig(4, 3)) == schemes.plan(
            variant(SchemeId.A), AntennaConfig(3, 3)
        )
        assert schemes.plan(variant(SchemeId.B), AntennaConfig(4, 2)).symbols_per_receiver == 4

    def test_regime_refusals(self):
        with pytest.raises(RegimeError):
            schemes.plan(variant(SchemeId.A), AntennaConfig(1, 3))
        with pytest.raises(RegimeError):
            schemes.plan(variant(SchemeId.C), AntennaConfig(2, 4))  # boundary 2m = n refuses too
        with pytest.raises(RegimeError):
            schemes.plan(variant(SchemeId.B), AntennaConfig(2, 3))

    def test_dof_targets(self):
        assert schemes.plan(variant(SchemeId.A), AntennaConfig(2, 3)).dof_target() == F(3, 4)
        assert schemes.plan(variant(SchemeId.C), AntennaConfig(2, 3)).dof_target() == F(4, 7)
        assert schemes.plan(variant(SchemeId.E), AntennaConfig(2, 3)).dof_target() == F(12, 7)
        assert schemes.plan(variant(SchemeId.B), AntennaConfig(1, 1)).dof_target() == F(1, 2)
        assert schemes.plan(variant(SchemeId.B), AntennaConfig(4, 4)).dof_target() == F(2)


class TestPrecoders:
    def test_shapes_scheme_a(self):
        cfg = AntennaConfig(2, 3)
        spec = variant(SchemeId.A)
        p = schemes.draw_precoders(spec, cfg, schemes.plan(spec, cfg), matcore.substream(1, "p"))
        # the fresh-phase mixing spans both transmitters' antennas (2m*t2 rows)
        assert p.theta1.shape == (12, 27)
        assert p.theta2.shape == (12, 27)
        # final-phase combiners: 2m*t3 rows acting on the n*t2 padded vector
        assert p.phi1.shape == (4, 9)
        assert p.phi2.shape == (4, 9)

    def test_shapes_scheme_b(self):
        cfg = AntennaConfig(4, 4)
        spec = variant(SchemeId.B)
        p = schemes.draw_precoders(spec, cfg, schemes.plan(spec, cfg), matcore.substream(2, "p"))
        for mat in (p.theta1, p.theta2, p.phi1, p.phi2):
            assert mat.shape == (4, 4)
            assert matcore.rank_value(mat) == 4

    def test_shapes_scheme_c(self):
        cfg = AntennaConfig(2, 3)
        spec = variant(SchemeId.C)
        p = schemes.draw_precoders(spec, cfg, schemes.plan(spec, cfg), matcore.substream(3, "p"))
        assert p.theta1.shape == (4, 27)
        assert p.phi1.shape == (2, 6)

    def test_shapes_scheme_d(self):
        cfg = AntennaConfig(2, 3)
        spec = variant(SchemeId.D)
        p = schemes.draw_precoders(spec, cfg, schemes.plan(spec, cfg), matcore.substream(6, "p"))
        assert p.theta1.shape == p.theta2.shape == (12, 27)
        assert p.phi1.shape == p.phi2.shape == (4, 9)

    def test_shapes_scheme_c_tx1_only(self):
        # the run mode moves carriers between single transmitters: C's shapes
        # and, for the same seed, C's very precoders
        cfg = AntennaConfig(2, 3)
        tx1 = schemes.run(variant(SchemeId.C, True), cfg, seed=3).precoders
        assert tx1.theta1.shape == tx1.theta2.shape == (4, 27)
        assert tx1.phi1.shape == tx1.phi2.shape == (2, 6)
        plain = schemes.run(variant(SchemeId.C), cfg, seed=3).precoders
        for name in ("theta1", "theta2", "phi1", "phi2"):
            assert np.array_equal(getattr(tx1, name), getattr(plain, name))

    def test_scheme_e_has_no_mixers(self):
        cfg = AntennaConfig(2, 3)
        spec = variant(SchemeId.E)
        p = schemes.draw_precoders(spec, cfg, schemes.plan(spec, cfg), matcore.substream(4, "p"))
        # nothing to mix: 2m*t2 rows, no columns
        assert p.theta1.shape == p.theta2.shape == (12, 0)
        assert p.phi1.shape == (4, 9)

    def test_deterministic(self):
        cfg = AntennaConfig(2, 3)
        spec = variant(SchemeId.A)
        pln = schemes.plan(spec, cfg)
        a = schemes.draw_precoders(spec, cfg, pln, matcore.substream(5, "p"))
        b = schemes.draw_precoders(spec, cfg, pln, matcore.substream(5, "p"))
        assert np.array_equal(a.theta1, b.theta1)
        assert np.array_equal(a.phi2, b.phi2)


class _DeficientRng:
    """A real generator, except that draw ``k`` of ``deficient`` comes back
    with its first row and first column zero, so the candidate misses full
    rank whatever its shape.  Records each draw's shape."""

    def __init__(self, seed, deficient):
        self.rng, self.deficient, self.shapes = matcore.substream(seed, "p"), deficient, []

    def standard_normal(self, shape):
        z = self.rng.standard_normal(shape)
        if len(self.shapes) in self.deficient:
            z[..., 0, :] = 0.0
            z[..., :, 0] = 0.0
        self.shapes.append(shape)
        return z


class TestPrecoderCertificate:
    @pytest.mark.parametrize("scheme,m,n", [(SchemeId.A, 4, 4), (SchemeId.C, 4, 5)])
    def test_deficient_candidate_is_redrawn(self, scheme, m, n):
        # A(4,4)'s precoders are tall (128 x 64), C(4,5)'s wide (48 x 125,
        # 36 x 60); the second draw redraws theta1, the fifth phi1
        cfg, spec = AntennaConfig(m, n), variant(scheme)
        pln = schemes.plan(spec, cfg)
        stub = _DeficientRng(11, {0, 3})
        got = schemes.draw_precoders(spec, cfg, pln, stub)
        assert len(stub.shapes) == 6
        assert stub.shapes[0] == stub.shapes[1] and stub.shapes[3] == stub.shapes[4]
        rng = matcore.substream(11, "p")
        draws = [matcore.random_matrix(*shape[1:], rng) for shape in stub.shapes]
        for name, index in (("theta1", 1), ("theta2", 2), ("phi1", 4), ("phi2", 5)):
            assert getattr(got, name).tobytes() == draws[index].tobytes(), name

    @pytest.mark.parametrize("scheme,m,n,tx1_only", applicable_pairs())
    def test_bit_identical_to_svd_rank_draws(self, scheme, m, n, tx1_only):
        cfg, spec = AntennaConfig(m, n), variant(scheme, tx1_only)
        pln = schemes.plan(spec, cfg)
        for seed in range(3):
            got = schemes.draw_precoders(spec, cfg, pln, matcore.substream(seed, "precoders"))
            want = svd_precoders(spec, cfg, pln, matcore.substream(seed, "precoders"))
            for name in ("theta1", "theta2", "phi1", "phi2"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    def test_generic_draws_need_no_svd(self, monkeypatch):
        calls = []
        rank = matcore.rank
        monkeypatch.setattr(matcore, "rank", lambda *args: calls.append(1) or rank(*args))
        for scheme, m, n in ((SchemeId.A, 4, 4), (SchemeId.C, 4, 5), (SchemeId.E, 4, 4)):
            cfg, spec = AntennaConfig(m, n), variant(scheme)
            schemes.draw_precoders(spec, cfg, schemes.plan(spec, cfg), matcore.substream(1, "p"))
        assert calls == []


class TestRun:
    def test_transcript_shape(self):
        transcript = schemes.run(variant(SchemeId.A), AntennaConfig(2, 3), seed=5)
        assert transcript.horizon == 16
        assert len(transcript.inputs) == 16
        assert transcript.inputs[0][0].shape == (2,)

    def test_run_is_deterministic(self):
        a = schemes.run(variant(SchemeId.A), AntennaConfig(2, 3), seed=11)
        b = schemes.run(variant(SchemeId.A), AntennaConfig(2, 3), seed=11)
        for (xa1, xa2), (xb1, xb2) in zip(a.inputs, b.inputs):
            assert np.array_equal(xa1, xb1) and np.array_equal(xa2, xb2)

    def test_surplus_antennas_stay_silent(self):
        transcript = schemes.run(variant(SchemeId.B), AntennaConfig(4, 2), seed=1)
        for x1, x2 in transcript.inputs:
            assert not x1[2:].any() and not x2[2:].any()

    def test_scheme_a_needs_delayed_csi(self):
        spec = replace(variant(SchemeId.A), model=FeedbackModel.ASYM_FB_ONLY)
        with pytest.raises(UnauthorizedAccess):
            schemes.run(spec, AntennaConfig(2, 3), seed=2)

    def test_scheme_d_reads_no_transmitter_csi(self):
        spec = replace(variant(SchemeId.D), model=FeedbackModel.SYM_FB_NO_CSIT)
        transcript = schemes.run(spec, AntennaConfig(2, 3), seed=2)
        for receiver in (Node.RX1, Node.RX2):  # decoding reads receiver CSI
            assert verify.decode_error(transcript, receiver) <= schemes.DECODE_TOL
        assert not [
            rec
            for rec in transcript.access_log
            if rec.node.is_transmitter and rec.kind is ItemKind.DELAYED_CSI
        ]

    def test_scheme_b_runs_under_any_model(self):
        for model in FeedbackModel:
            spec = replace(variant(SchemeId.B), model=model)
            transcript = schemes.run(spec, AntennaConfig(2, 2), seed=3)
            assert verify.decode_error(transcript, Node.RX1) < 1e-8

    def test_tx1_only_requires_scheme_c(self):
        with pytest.raises(InvalidInput):
            variant(SchemeId.A, tx1_only=True)

    def test_tx1_only_tx2_reads_nothing(self):
        transcript = schemes.run(variant(SchemeId.C, True), AntennaConfig(2, 3), seed=3)
        for receiver in (Node.RX1, Node.RX2):  # decoding reads receiver CSI
            assert verify.decode_error(transcript, receiver) <= schemes.DECODE_TOL
        own = (ItemKind.OWN_MESSAGE_SYMBOLS, ItemKind.OWN_NOISE_SYMBOLS)
        reads = [
            rec
            for rec in transcript.access_log
            if rec.node is Node.TX2 and rec.granted and rec.kind not in own
        ]
        assert reads == []

    def test_bad_mutation_rejected(self):
        with pytest.raises(InvalidInput):
            schemes.run(variant(SchemeId.A), AntennaConfig(2, 3), seed=1, mutation="nope")
        with pytest.raises(InvalidInput):
            schemes.run(variant(SchemeId.B), AntennaConfig(1, 1), seed=1, mutation="skip_phase1")


def _encoder_cases():
    """(scheme, m, n, tx1_only, mutation): every encoder path, the
    reconstruction through delayed CSI (A, C's tx1-only mode, E), surplus
    antennas (A(4,2)) and A's mutants."""
    cases = [(SchemeId.A, 2, 3, False, None), (SchemeId.C, 2, 3, True, None),
             (SchemeId.E, 2, 3, False, None), (SchemeId.D, 2, 3, False, None),
             (SchemeId.B, 1, 1, False, None), (SchemeId.A, 4, 2, False, None)]
    cases += [(SchemeId.A, 2, 3, False, mutation) for mutation in schemes.MUTATIONS]
    return [pytest.param(*case, id=f"{case[0].value}{case[1]}{case[2]}"
                         + ("-tx1" if case[3] else "") + (f"-{case[4]}" if case[4] else ""))
            for case in cases]


def _encode_with(monkeypatch, encoder, spec, config, **kwargs):
    """``schemes.run`` with encoder state class ``encoder``: the ledger's
    access log, and the transcript or the :class:`UnauthorizedAccess` that
    aborted the run."""
    ledgers = []

    class Recorded(KnowledgeBase):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            ledgers.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(schemes, "_Run", encoder)
        patch.setattr(schemes, "KnowledgeBase", Recorded)
        try:
            outcome = schemes.run(spec, config, **kwargs)
        except UnauthorizedAccess as exc:
            outcome = exc
    return ledgers[0].log, outcome


class TestPhaseEncoder:
    """The encoder sends and reconstructs a phase at a time; the per-slot
    encoder of ``dense_reference`` must read the same items in the same
    order and send the same bits."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("scheme,m,n,tx1_only,mutation", _encoder_cases())
    def test_same_reads_and_bits_as_per_slot(self, monkeypatch, scheme, m, n, tx1_only,
                                             mutation, seed):
        spec, config = variant(scheme, tx1_only), AntennaConfig(m, n)
        log, got = _encode_with(monkeypatch, schemes._Run, spec, config, seed=seed,
                                mutation=mutation)
        ref_log, want = _encode_with(monkeypatch, LoopRun, spec, config, seed=seed,
                                     mutation=mutation)
        assert log == ref_log  # every (node, kind, key, at_slot, granted) record
        for field in ("inputs", "outputs"):
            ours, theirs = np.array(getattr(got, field)), np.array(getattr(want, field))
            assert ours.shape == theirs.shape and ours.dtype == theirs.dtype
            assert ours.tobytes() == theirs.tobytes(), field

    @pytest.mark.parametrize("scheme,tx1_only", [(SchemeId.A, False), (SchemeId.E, False),
                                                 (SchemeId.C, True)])
    def test_denied_read_aborts_at_the_same_read(self, monkeypatch, scheme, tx1_only):
        spec = replace(variant(scheme, tx1_only), model=FeedbackModel.ASYM_FB_ONLY)
        log, got = _encode_with(monkeypatch, schemes._Run, spec, AntennaConfig(2, 3), seed=4)
        ref_log, want = _encode_with(monkeypatch, LoopRun, spec, AntennaConfig(2, 3), seed=4)
        assert isinstance(got, UnauthorizedAccess) and isinstance(want, UnauthorizedAccess)
        assert str(got) == str(want)
        assert log == ref_log and not log[-1].granted


class TestDecode:
    @pytest.mark.parametrize("scheme,m,n,tx1_only", applicable_pairs())
    def test_decode_equals_sent_everywhere(self, scheme, m, n, tx1_only):
        """Invariant: 100 seeded trials per applicable pair, zero failures."""
        config = AntennaConfig(m, n)
        spec = variant(scheme, tx1_only)
        target = schemes.plan(spec, config).dof_target()
        for seed in range(100):
            report = run_trial(spec, config, seed=seed, with_oracle=False)
            assert report.decode_ok, (scheme, m, n, tx1_only, seed)
            assert report.dof_rx1 == target and report.dof_rx2 == target
            assert report.attempts == 1, "no null-set resample expected at these sizes"

    def test_phase4_side_information_sufficiency(self):
        # the selected overheard rows complete a full-rank square system
        for seed in range(20):
            transcript = schemes.run(variant(SchemeId.A), AntennaConfig(2, 3), seed=seed)
            r2 = transcript.phase_ranges()[1]
            h2 = lift_rows(transcript.states.rows(1, r2), 2)
            g2 = lift_rows(transcript.states.rows(2, r2), 2)
            stacked = np.vstack([h2, schemes.side_info(transcript, g2)[:3]])
            assert stacked.shape == (12, 12)
            assert matcore.rank_value(stacked) == 12

    def test_scheme_c_needs_the_final_phase(self):
        # the fresh-phase equations alone never close the system
        transcript = schemes.run(variant(SchemeId.C), AntennaConfig(2, 3), seed=4)
        r2 = transcript.phase_ranges()[1]
        h2 = lift_rows(transcript.states.rows(1, r2), 2)
        assert h2.shape == (6, 8)
        assert matcore.rank_value(h2) == 6 < 8

    def test_scheme_c_stacked_system_full_column_rank(self):
        for seed in range(10):
            transcript = schemes.run(variant(SchemeId.C), AntennaConfig(2, 3), seed=seed)
            assert verify.decode_error(transcript, Node.RX1) < 1e-8
            assert verify.decode_error(transcript, Node.RX2) < 1e-8

    @pytest.mark.parametrize("scheme,m,n,tx1_only", [
        (SchemeId.A, 2, 3, False), (SchemeId.C, 2, 3, True), (SchemeId.E, 2, 3, False),
        (SchemeId.B, 1, 1, False),
    ])
    def test_ledger_reads(self, scheme, m, n, tx1_only):
        """One decode reads, in this order and each once: its fresh slots'
        own-row CSI, their delayed CSI, the final slots' own-row CSI, then
        its outputs of the noise, overheard, final and fresh phases."""
        transcript = schemes.run(variant(scheme, tx1_only), AntennaConfig(m, n), seed=3)
        r1, r2, r3, r4 = transcript.phase_ranges()
        log = transcript.access_log
        for node, fresh, side in ((Node.RX1, r2, r3), (Node.RX2, r3, r2)):
            expected = (
                [(node, ItemKind.INSTANT_CSI_OWN_ROW, t, True) for t in fresh]
                + [(node, ItemKind.DELAYED_CSI, t, True) for t in fresh]
                + [(node, ItemKind.INSTANT_CSI_OWN_ROW, t, True) for t in r4]
                + [(node, ItemKind.RECEIVED_OUTPUT, t, True) for t in r1 + side + r4 + fresh]
            )
            for decoder in (schemes.decode, dense_decode):
                start = len(log)
                decoder(transcript, node)
                assert [(r.node, r.kind, r.key, r.granted) for r in log[start:]] == expected

    def test_perturbed_final_output_fails_the_residual(self):
        # scheme C's stacked system is tall (A's is square and absorbs any
        # output), so a final-phase output moved off its range still gets a
        # least-squares solution, which only the residual check refuses
        transcript = schemes.run(variant(SchemeId.C), AntennaConfig(2, 3), seed=4)
        slot = transcript.phase_ranges()[3][0]
        y = transcript.outputs[slot - 1][0]
        transcript.knowledge.grant(
            Node.RX1, ItemKind.RECEIVED_OUTPUT, slot, y + 1.0, available_from=slot
        )
        for decoder in (schemes.decode, dense_decode):
            with pytest.raises(DecodeFailure):
                decoder(transcript, Node.RX1)
        assert verify.decode_error(transcript, Node.RX2) < 1e-8

    def test_decode_rejects_transmit_nodes(self):
        transcript = schemes.run(variant(SchemeId.B), AntennaConfig(1, 1), seed=0)
        with pytest.raises(InvalidInput):
            schemes.decode(transcript, Node.TX1)


def _dense_linear_response(transcript, u, v1, v2):
    """The replay through dense block-diagonal lifts: per phase, each
    receiver's ``[lift(h_j1) | lift(h_j2)]`` from ``matcore.block_diag``
    times the whole stacked input."""
    m = transcript.config.effective_m
    r1, r2, r3, r4 = transcript.phase_ranges()

    def send(slots, x):
        states = [transcript.states[t] for t in slots]
        return tuple(
            np.hstack([matcore.block_diag([s[rx - 1, i - 1][:, :m] for s in states])
                       for i in (1, 2)]) @ x
            for rx in (1, 2)
        )

    if r1:
        y1p1, y2p1 = send(r1, u)
        x2s = schemes._placed(transcript, "theta1", y1p1, m * len(r2)) + v1
        x3s = schemes._placed(transcript, "theta2", y2p1, m * len(r2)) + v2
    else:
        y1p1 = y2p1 = np.zeros((0,) + u.shape[1:], complex)
        x2s, x3s = v1, v2
    y1p2, y2p2 = send(r2, x2s)
    y1p3, y2p3 = send(r3, x3s)
    x4s = (schemes._placed(transcript, "phi1", schemes.side_info(transcript, y2p2), m * len(r4))
           + schemes._placed(transcript, "phi2", schemes.side_info(transcript, y1p3), m * len(r4)))
    y1p4, y2p4 = send(r4, x4s)
    return (np.concatenate([y1p1, y1p2, y1p3, y1p4]),
            np.concatenate([y2p1, y2p2, y2p3, y2p4]))


def _replay_cases():
    """Every spec variant at (2, 3) ((3, 3) for B), plus larger sizes and the mutants."""
    cases = [(scheme, 3 if scheme is SchemeId.B else 2, 3, tx1_only, None)
             for scheme, tx1_only in schemes.SPECS]
    cases += [(SchemeId.A, 4, 4, False, None), (SchemeId.C, 4, 5, False, None),
              (SchemeId.B, 1, 1, False, None)]
    cases += [(SchemeId.A, 3, 4, False, mutation) for mutation in schemes.MUTATIONS]
    return [pytest.param(*case, id=f"{case[0].value}{case[1]}{case[2]}"
                         + ("-tx1" if case[3] else "") + (f"-{case[4]}" if case[4] else ""))
            for case in cases]


class TestReplay:
    @pytest.mark.parametrize("scheme,m,n,tx1_only,mutation", _replay_cases())
    def test_per_slot_replay_equals_dense_lifts(self, scheme, m, n, tx1_only, mutation):
        transcript = schemes.run(variant(scheme, tx1_only), AntennaConfig(m, n), seed=3,
                                 mutation=mutation)
        dims = {name: len(getattr(transcript.symbols, name)) for name in ("u", "v1", "v2")}
        for group in dims:  # identity group, the others zero
            got = schemes.linear_response(transcript, group)
            want = _dense_linear_response(transcript, **{
                name: np.eye(d, dtype=complex) if name == group
                else np.zeros((d, dims[group]), complex)
                for name, d in dims.items()
            })
            for y, ref in zip(got, want):
                assert y.shape == ref.shape
                assert np.linalg.norm(y - ref) <= 1e-12 * max(np.linalg.norm(ref), 1e-300)

    @pytest.mark.parametrize("scheme,m,n,tx1_only", applicable_pairs())
    def test_linear_replay_reproduces_run(self, scheme, m, n, tx1_only):
        transcript = schemes.run(variant(scheme, tx1_only), AntennaConfig(m, n), seed=13)
        assert verify.replay_matches_recorded(transcript)

    @pytest.mark.parametrize("group", ["u", "v1", "v2"])
    def test_perturbed_map_is_caught(self, monkeypatch, group):
        transcript = schemes.run(variant(SchemeId.A), AntennaConfig(2, 3), seed=13)
        replay = schemes.linear_response

        def perturbed(transcript, name):
            maps = replay(transcript, name)
            if name == group:
                maps[1][0, 0] += 1e-3
            return maps

        monkeypatch.setattr(schemes, "linear_response", perturbed)
        assert not verify.replay_matches_recorded(transcript)

    @pytest.mark.parametrize("mutation", [None, "skip_phase1"])
    def test_skipped_zero_products_change_no_bit(self, monkeypatch, mutation):
        # the secret replays feed three of their four precoder products zeros
        spec = variant(SchemeId.A)
        transcript = schemes.run(spec, AntennaConfig(3, 4), seed=5, mutation=mutation)
        skipped = {group: schemes.linear_response(transcript, group) for group in ("u", "v1", "v2")}

        def always_multiplied(transcript, name, values, width):
            out = np.zeros((2 * width,) + values.shape[1:], dtype=complex)
            span = schemes._carrier_span(getattr(transcript.spec, name), width)
            np.matmul(getattr(transcript.precoders, name), values, out=out[span])
            return out

        monkeypatch.setattr(schemes, "_placed", always_multiplied)
        for group, maps in skipped.items():
            for got, want in zip(maps, schemes.linear_response(transcript, group)):
                assert np.array_equal(got, want), group


class TestSideInfo:
    def test_selects_the_first_rows_of_every_slot(self):
        # A(2,3): 2m - n = 1 row of each slot's 3, over the 3 slots of phase 2
        transcript = schemes.run(variant(SchemeId.A), AntennaConfig(2, 3), seed=5)
        values = np.arange(18, dtype=complex).reshape(9, 2) + 1
        out = schemes.side_info(transcript, values)
        assert out.shape == values.shape
        np.testing.assert_array_equal(out[:3], values[[0, 3, 6]])
        assert not out[3:].any()

    @pytest.mark.parametrize("scheme,m,n", [(SchemeId.B, 3, 3), (SchemeId.C, 2, 3)])
    def test_unselected_specs_pass_through(self, scheme, m, n):
        transcript = schemes.run(variant(scheme), AntennaConfig(m, n), seed=5)
        values = np.ones((n * transcript.plan.phase_lengths[1], 2), complex)
        assert schemes.side_info(transcript, values) is values

    def test_zero_column_map_keeps_its_shape(self):
        # E has no noise symbols: its u maps have no columns
        transcript = schemes.run(variant(SchemeId.E), AntennaConfig(2, 3), seed=5)
        maps = schemes.linear_response(transcript, "u")
        assert [y.shape for y in maps] == [(21, 0), (21, 0)]
        assert schemes.side_info(transcript, np.zeros((9, 0), complex)).shape == (9, 0)


class TestTranscriptJson:
    def test_skip_phase1_keeps_an_empty_noise_phase(self):
        spec = variant(SchemeId.A)
        transcript = schemes.run(spec, AntennaConfig(2, 3), seed=1, mutation="skip_phase1")
        assert transcript.plan.phase_lengths == (0, 3, 3, 1)
        assert transcript.phase_ranges()[0] == []
        assert transcript.precoders.theta1.shape == transcript.precoders.theta2.shape == (12, 0)
        assert transcript.plan.to_jsonable()["phase_lengths"] == [3, 3, 1]
        assert len(transcript.inputs) == 7
        # the empty phase reads nothing from the ledger: 32 reads, 2 of them denied
        log = transcript.access_log
        assert len(log) == 32 and sum(not rec.granted for rec in log) == 2
