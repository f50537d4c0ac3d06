"""Scheme engine tests: plans, precoders, runs, decoding, accounting."""

from fractions import Fraction as F

import numpy as np
import pytest

from xsdof import matcore, schemes, verify
from xsdof.channel import AntennaConfig, FeedbackModel, lift_rows
from xsdof.cli import run_trial
from xsdof.errors import InvalidInput, RegimeError, UnauthorizedAccess
from xsdof.knowledge import ItemKind, Node
from xsdof.schemes import SchemeId


def applicable_pairs():
    """(scheme, m, n, tx1_only) for every size the plan accepts, plus scheme
    C's tx1-only run mode at (2, 3) and (3, 4)."""
    out = []
    for scheme in SchemeId:
        for m, n in [(2, 3), (3, 4), (1, 1), (4, 4), (3, 3)]:
            try:
                schemes.plan(scheme, AntennaConfig(m, n))
            except RegimeError:
                continue
            out.append(pytest.param(scheme, m, n, False, id=f"{scheme}-{m}-{n}"))
    for m, n in [(2, 3), (3, 4)]:
        out.append(pytest.param(SchemeId.C, m, n, True, id=f"{SchemeId.C}-{m}-{n}-tx1"))
    return out


class TestPlan:
    def test_scheme_a(self):
        p = schemes.plan(SchemeId.A, AntennaConfig(2, 3))
        assert p.phase_lengths == (9, 3, 3, 1)
        assert p.symbols_per_receiver == 12
        assert p.horizon == 16  # == 4 m^2

    def test_scheme_c(self):
        p = schemes.plan(SchemeId.C, AntennaConfig(2, 3))
        assert p.phase_lengths == (9, 2, 2, 1)
        assert p.symbols_per_receiver == 8
        assert p.horizon == 14

    def test_scheme_b(self):
        p = schemes.plan(SchemeId.B, AntennaConfig(1, 1))
        assert p.phase_lengths == (1, 1, 1, 1)
        assert p.symbols_per_receiver == 2
        assert schemes.plan(SchemeId.B, AntennaConfig(4, 4)).symbols_per_receiver == 8

    def test_scheme_e(self):
        p = schemes.plan(SchemeId.E, AntennaConfig(2, 3))
        assert p.phase_lengths == (0, 3, 3, 1)  # an empty noise phase
        assert p.symbols_per_receiver == 12
        assert p.horizon == 7  # == (2m-n)(2m+n)

    def test_scheme_d_matches_a(self):
        for m, n in [(2, 3), (3, 4), (1, 1)]:
            assert schemes.plan(SchemeId.D, AntennaConfig(m, n)) == schemes.plan(
                SchemeId.A, AntennaConfig(m, n)
            )

    def test_effective_antenna_reduction(self):
        # surplus transmit antennas are ignored by the plan
        assert schemes.plan(SchemeId.A, AntennaConfig(4, 3)) == schemes.plan(
            SchemeId.A, AntennaConfig(3, 3)
        )
        assert schemes.plan(SchemeId.B, AntennaConfig(4, 2)).symbols_per_receiver == 4

    def test_regime_refusals(self):
        with pytest.raises(RegimeError):
            schemes.plan(SchemeId.A, AntennaConfig(1, 3))
        with pytest.raises(RegimeError):
            schemes.plan(SchemeId.C, AntennaConfig(2, 4))  # boundary 2m = n refuses too
        with pytest.raises(RegimeError):
            schemes.plan(SchemeId.B, AntennaConfig(2, 3))

    def test_dof_targets(self):
        assert schemes.plan(SchemeId.A, AntennaConfig(2, 3)).dof_target() == F(3, 4)
        assert schemes.plan(SchemeId.C, AntennaConfig(2, 3)).dof_target() == F(4, 7)
        assert schemes.plan(SchemeId.E, AntennaConfig(2, 3)).dof_target() == F(12, 7)
        assert schemes.plan(SchemeId.B, AntennaConfig(1, 1)).dof_target() == F(1, 2)
        assert schemes.plan(SchemeId.B, AntennaConfig(4, 4)).dof_target() == F(2)


class TestPrecoders:
    def test_shapes_scheme_a(self):
        cfg = AntennaConfig(2, 3)
        p = schemes.draw_precoders(
            SchemeId.A, cfg, schemes.plan(SchemeId.A, cfg), matcore.substream(1, "p")
        )
        # the fresh-phase mixing spans both transmitters' antennas (2m*t2 rows)
        assert p.theta1.shape == (12, 27)
        assert p.theta2.shape == (12, 27)
        # final-phase combiners: 2m*t3 rows acting on the n*t2 padded vector
        assert p.phi1.shape == (4, 9)
        assert p.phi2.shape == (4, 9)

    def test_shapes_scheme_b(self):
        cfg = AntennaConfig(4, 4)
        p = schemes.draw_precoders(
            SchemeId.B, cfg, schemes.plan(SchemeId.B, cfg), matcore.substream(2, "p")
        )
        for mat in (p.theta1, p.theta2, p.phi1, p.phi2):
            assert mat.shape == (4, 4)
            assert matcore.rank_value(mat) == 4

    def test_shapes_scheme_c(self):
        cfg = AntennaConfig(2, 3)
        p = schemes.draw_precoders(
            SchemeId.C, cfg, schemes.plan(SchemeId.C, cfg), matcore.substream(3, "p")
        )
        assert p.theta1.shape == (4, 27)
        assert p.phi1.shape == (2, 6)

    def test_shapes_scheme_d(self):
        cfg = AntennaConfig(2, 3)
        p = schemes.draw_precoders(
            SchemeId.D, cfg, schemes.plan(SchemeId.D, cfg), matcore.substream(6, "p")
        )
        assert p.theta1.shape == p.theta2.shape == (12, 27)
        assert p.phi1.shape == p.phi2.shape == (4, 9)

    def test_shapes_scheme_c_tx1_only(self):
        # the run mode moves carriers between single transmitters: C's shapes
        # and, for the same seed, C's very precoders
        cfg = AntennaConfig(2, 3)
        tx1 = schemes.run(SchemeId.C, cfg, seed=3, tx1_only=True).precoders
        assert tx1.theta1.shape == tx1.theta2.shape == (4, 27)
        assert tx1.phi1.shape == tx1.phi2.shape == (2, 6)
        plain = schemes.run(SchemeId.C, cfg, seed=3).precoders
        for name in ("theta1", "theta2", "phi1", "phi2"):
            assert np.array_equal(getattr(tx1, name), getattr(plain, name))

    def test_scheme_e_has_no_mixers(self):
        cfg = AntennaConfig(2, 3)
        p = schemes.draw_precoders(
            SchemeId.E, cfg, schemes.plan(SchemeId.E, cfg), matcore.substream(4, "p")
        )
        # nothing to mix: 2m*t2 rows, no columns
        assert p.theta1.shape == p.theta2.shape == (12, 0)
        assert p.phi1.shape == (4, 9)

    def test_deterministic(self):
        cfg = AntennaConfig(2, 3)
        pln = schemes.plan(SchemeId.A, cfg)
        a = schemes.draw_precoders(SchemeId.A, cfg, pln, matcore.substream(5, "p"))
        b = schemes.draw_precoders(SchemeId.A, cfg, pln, matcore.substream(5, "p"))
        assert np.array_equal(a.theta1, b.theta1)
        assert np.array_equal(a.phi2, b.phi2)


class TestRun:
    def test_transcript_shape(self):
        transcript = schemes.run(SchemeId.A, AntennaConfig(2, 3), seed=5)
        assert transcript.horizon == 16
        assert len(transcript.inputs) == 16
        assert transcript.inputs[0][0].shape == (2,)
        assert transcript.selections["side_info_rx2"] == (0, 3, 6)

    def test_run_is_deterministic(self):
        a = schemes.run(SchemeId.A, AntennaConfig(2, 3), seed=11)
        b = schemes.run(SchemeId.A, AntennaConfig(2, 3), seed=11)
        for (xa1, xa2), (xb1, xb2) in zip(a.inputs, b.inputs):
            assert np.array_equal(xa1, xb1) and np.array_equal(xa2, xb2)

    def test_surplus_antennas_stay_silent(self):
        transcript = schemes.run(SchemeId.B, AntennaConfig(4, 2), seed=1)
        for x1, x2 in transcript.inputs:
            assert not x1[2:].any() and not x2[2:].any()

    def test_scheme_a_needs_delayed_csi(self):
        with pytest.raises(UnauthorizedAccess):
            schemes.run(SchemeId.A, AntennaConfig(2, 3), FeedbackModel.ASYM_FB_ONLY, seed=2)

    def test_scheme_d_reads_no_transmitter_csi(self):
        transcript = schemes.run(SchemeId.D, AntennaConfig(2, 3), seed=2)
        for receiver in (Node.RX1, Node.RX2):  # decoding reads receiver CSI
            assert verify.decode_error(transcript, receiver) <= schemes.DECODE_TOL
        assert not [
            rec
            for rec in transcript.access_log
            if rec.node.is_transmitter and rec.kind is ItemKind.DELAYED_CSI
        ]

    def test_scheme_b_runs_under_any_model(self):
        for model in FeedbackModel:
            transcript = schemes.run(SchemeId.B, AntennaConfig(2, 2), model, seed=3)
            assert verify.decode_error(transcript, Node.RX1) < 1e-8

    def test_tx1_only_requires_scheme_c(self):
        with pytest.raises(InvalidInput):
            schemes.run(SchemeId.A, AntennaConfig(2, 3), seed=1, tx1_only=True)

    def test_tx1_only_tx2_reads_nothing(self):
        transcript = schemes.run(SchemeId.C, AntennaConfig(2, 3), seed=3, tx1_only=True)
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
            schemes.run(SchemeId.A, AntennaConfig(2, 3), seed=1, mutation="nope")
        with pytest.raises(InvalidInput):
            schemes.run(SchemeId.B, AntennaConfig(1, 1), seed=1, mutation="skip_phase1")


class TestDecode:
    @pytest.mark.parametrize("scheme,m,n,tx1_only", applicable_pairs())
    def test_decode_equals_sent_everywhere(self, scheme, m, n, tx1_only):
        """Invariant: 100 seeded trials per applicable pair, zero failures."""
        config = AntennaConfig(m, n)
        target = schemes.plan(scheme, config).dof_target()
        for seed in range(100):
            report = run_trial(scheme, config, seed=seed, tx1_only=tx1_only, with_oracle=False)
            assert report.decode_ok, (scheme, m, n, tx1_only, seed)
            assert report.dof_rx1 == target and report.dof_rx2 == target
            assert report.attempts == 1, "no null-set resample expected at these sizes"

    def test_phase4_side_information_sufficiency(self):
        # the selected overheard rows complete a full-rank square system
        for seed in range(20):
            transcript = schemes.run(SchemeId.A, AntennaConfig(2, 3), seed=seed)
            r2 = transcript.phase_ranges()[1]
            h2 = lift_rows(transcript.states.rows(1, r2), 2)
            g2 = lift_rows(transcript.states.rows(2, r2), 2)
            sel = list(transcript.selections["side_info_rx2"])
            stacked = np.vstack([h2, g2[sel, :]])
            assert stacked.shape == (12, 12)
            assert matcore.rank_value(stacked) == 12

    def test_scheme_c_needs_the_final_phase(self):
        # the fresh-phase equations alone never close the system
        transcript = schemes.run(SchemeId.C, AntennaConfig(2, 3), seed=4)
        r2 = transcript.phase_ranges()[1]
        h2 = lift_rows(transcript.states.rows(1, r2), 2)
        assert h2.shape == (6, 8)
        assert matcore.rank_value(h2) == 6 < 8

    def test_scheme_c_stacked_system_full_column_rank(self):
        for seed in range(10):
            transcript = schemes.run(SchemeId.C, AntennaConfig(2, 3), seed=seed)
            assert verify.decode_error(transcript, Node.RX1) < 1e-8
            assert verify.decode_error(transcript, Node.RX2) < 1e-8

    def test_decode_rejects_transmit_nodes(self):
        transcript = schemes.run(SchemeId.B, AntennaConfig(1, 1), seed=0)
        with pytest.raises(InvalidInput):
            schemes.decode(transcript, Node.TX1)


def _dense_linear_response(transcript, u, v1, v2):
    """The replay through dense block-diagonal lifts: per phase, each
    receiver's ``[lift(h_j1) | lift(h_j2)]`` from ``matcore.block_diag``
    times the whole stacked input."""
    m, sels = transcript.config.effective_m, transcript.selections
    r1, r2, r3, r4 = transcript.phase_ranges()

    def send(slots, x):
        states = [transcript.states[t] for t in slots]
        return tuple(
            np.hstack([matcore.block_diag([s.block(rx, i)[:, :m] for s in states])
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
    x4s = (schemes._placed(transcript, "phi1",
                           schemes.side_info(y2p2, sels.get("side_info_rx2")), m * len(r4))
           + schemes._placed(transcript, "phi2",
                             schemes.side_info(y1p3, sels.get("side_info_rx1")), m * len(r4)))
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
        transcript = schemes.run(scheme, AntennaConfig(m, n), seed=3, tx1_only=tx1_only,
                                 mutation=mutation)
        sym = transcript.symbols
        dims = {name: len(getattr(sym, name)) for name in ("u", "v1", "v2")}
        rng = np.random.default_rng(1)
        replays = [{name: getattr(sym, name) for name in dims}]  # plain
        for group in dims:  # identity group, the others zero
            replays.append({name: np.eye(d) if name == group else np.zeros((d, dims[group]))
                            for name, d in dims.items()})
        replays.append({name: rng.standard_normal((d, 3)) + 1j * rng.standard_normal((d, 3))
                        for name, d in dims.items()})  # matrix
        for groups in replays:
            groups = {name: np.asarray(g, dtype=complex) for name, g in groups.items()}
            got = schemes.linear_response(transcript, **groups)
            want = _dense_linear_response(transcript, **groups)
            for y, ref in zip(got, want):
                assert y.shape == ref.shape
                assert np.linalg.norm(y - ref) <= 1e-12 * max(np.linalg.norm(ref), 1e-300)

    @pytest.mark.parametrize("scheme,m,n,tx1_only", applicable_pairs())
    def test_linear_replay_reproduces_run(self, scheme, m, n, tx1_only):
        transcript = schemes.run(scheme, AntennaConfig(m, n), seed=13, tx1_only=tx1_only)
        assert verify.replay_matches_recorded(transcript)

    @pytest.mark.parametrize("scheme,m,n,tx1_only", [
        pytest.param(SchemeId.A, 2, 3, False, id="A"),
        pytest.param(SchemeId.B, 3, 3, False, id="B"),
        pytest.param(SchemeId.C, 2, 3, False, id="C"),
        pytest.param(SchemeId.C, 2, 3, True, id="C-tx1"),
        pytest.param(SchemeId.D, 2, 3, False, id="D"),
        pytest.param(SchemeId.E, 2, 3, False, id="E"),
    ])
    def test_matrix_replay_equals_column_replays(self, scheme, m, n, tx1_only):
        transcript = schemes.run(scheme, AntennaConfig(m, n), seed=5, tx1_only=tx1_only)
        rng = np.random.default_rng(0)
        dims = {name: len(getattr(transcript.symbols, name)) for name in ("u", "v1", "v2")}
        groups = {
            name: rng.standard_normal((d, 3)) + 1j * rng.standard_normal((d, 3))
            for name, d in dims.items()
        }
        y1, y2 = schemes.linear_response(transcript, **groups)
        assert y1.shape == y2.shape == (n * transcript.horizon, 3)
        for j in range(3):
            c1, c2 = schemes.linear_response(
                transcript, **{name: g[:, j] for name, g in groups.items()}
            )
            for whole, col in ((y1[:, j], c1), (y2[:, j], c2)):
                assert np.linalg.norm(whole - col) <= 1e-12 * np.linalg.norm(col)

    def test_replay_rejects_mismatched_groups(self):
        transcript = schemes.run(SchemeId.B, AntennaConfig(1, 1), seed=0)
        with pytest.raises(InvalidInput):
            schemes.linear_response(transcript, u=np.eye(2), v1=np.zeros(2), v2=np.zeros(2))


class TestTranscriptJson:
    def test_audit_document(self):
        import json

        transcript = schemes.run(SchemeId.A, AntennaConfig(2, 3), seed=1)
        doc = json.loads(schemes.transcript_to_json(transcript))
        assert doc["scheme"] == "A"
        assert doc["plan"]["phase_lengths"] == [9, 3, 3, 1]
        assert len(doc["slots"]) == 16
        assert doc["precoder_digests"]["theta1"]
        assert any(not rec["granted"] for rec in doc["access_log"]) or doc["access_log"]

    def test_skip_phase1_keeps_an_empty_noise_phase(self):
        import json

        transcript = schemes.run(SchemeId.A, AntennaConfig(2, 3), seed=1, mutation="skip_phase1")
        assert transcript.plan.phase_lengths == (0, 3, 3, 1)
        assert transcript.phase_ranges()[0] == []
        assert transcript.precoders.theta1.shape == transcript.precoders.theta2.shape == (12, 0)
        doc = json.loads(schemes.transcript_to_json(transcript))
        assert doc["plan"]["phase_lengths"] == [3, 3, 1]
        assert len(doc["slots"]) == 7
        # the empty phase reads nothing from the ledger: 32 reads, 2 of them denied
        log = transcript.access_log
        assert len(log) == 32 and sum(not rec.granted for rec in log) == 2
