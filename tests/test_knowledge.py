"""Ledger and capability-view tests: who can read what, and when."""

import numpy as np
import pytest

from xsdof import matcore, schemes
from xsdof.channel import AntennaConfig, FeedbackModel, apply_channel, generate_states
from xsdof.errors import ProtocolViolation, UnauthorizedAccess
from xsdof.knowledge import (
    AccessRecord,
    ItemKind,
    KnowledgeBase,
    Node,
    availability,
    recover_peer_inputs,
    rebuild_receiver_output,
)
from xsdof.schemes import SchemeId, variant


def drive(model, config=AntennaConfig(2, 3), slots=4, seed=2):
    """Advance a knowledge base through `slots` slots of random traffic."""
    rng = matcore.substream(seed, "drive")
    states = generate_states(config, slots, rng)
    kb = KnowledgeBase(model)
    sent = []
    for t in range(1, slots + 1):
        x1 = matcore.random_vector(config.m, rng)
        x2 = matcore.random_vector(config.m, rng)
        outputs = apply_channel(states[t], x1, x2)
        kb.advance_slot(t, outputs, states[t])
        sent.append((x1, x2, outputs))
    return kb, states, sent


def assert_slot_view(payload, states, t, rx=None):
    """``payload`` is slot ``t``'s state (receiver ``rx``'s row pair of it,
    if given): a read-only view into the sequence's state array."""
    want = states[t] if rx is None else states[t][rx - 1]
    np.testing.assert_array_equal(payload, want)
    assert np.shares_memory(payload, states.blocks) and not payload.flags.writeable


class TestAdvanceSlot:
    def test_asym_fb_only_grants(self):
        kb, _, sent = drive(FeedbackModel.ASYM_FB_ONLY)
        view = kb.view(Node.TX1, slot=4)
        np.testing.assert_array_equal(view.fed_back_output(1, 3), sent[2][2][0])
        with pytest.raises(UnauthorizedAccess):
            view.fed_back_output(2, 3)  # the other receiver's output: never
        with pytest.raises(UnauthorizedAccess):
            view.delayed_csi(3)  # no CSI under feedback-only

    def test_sym_fb_grants_both_outputs_no_csi(self):
        kb, _, sent = drive(FeedbackModel.SYM_FB_NO_CSIT)
        for tx in (Node.TX1, Node.TX2):
            view = kb.view(tx, slot=2)
            np.testing.assert_array_equal(view.fed_back_output(1, 1), sent[0][2][0])
            np.testing.assert_array_equal(view.fed_back_output(2, 1), sent[0][2][1])
            with pytest.raises(UnauthorizedAccess):
                view.delayed_csi(1)

    def test_double_advance_rejected(self):
        kb, states, sent = drive(FeedbackModel.ASYM_FB_ONLY, slots=2)
        with pytest.raises(ProtocolViolation):
            kb.advance_slot(2, sent[1][2], states[2])

    def test_tx1_only_model(self):
        kb, _, _ = drive(FeedbackModel.ASYM_FB_DCSIT_TX1_ONLY)
        assert kb.view(Node.TX1, 3).delayed_csi(2) is not None
        with pytest.raises(UnauthorizedAccess):
            kb.view(Node.TX2, 3).delayed_csi(2)


class TestViews:
    def test_nothing_fed_back_at_slot_one(self):
        for model in FeedbackModel:
            kb, _, _ = drive(model, slots=1)
            view = kb.view(Node.TX2, slot=1)
            with pytest.raises(UnauthorizedAccess):
                view.fed_back_output(2, 1)
            with pytest.raises(UnauthorizedAccess):
                view.delayed_csi(1)

    def test_feedback_is_one_slot_delayed(self):
        kb, states, sent = drive(FeedbackModel.ASYM_FB_DELAYED_CSIT)
        view = kb.view(Node.TX1, slot=3)
        np.testing.assert_array_equal(view.fed_back_output(1, 2), sent[1][2][0])
        assert_slot_view(view.delayed_csi(2), states, 2)
        with pytest.raises(UnauthorizedAccess):
            view.fed_back_output(1, 3)  # same-slot output not yet fed back
        with pytest.raises(UnauthorizedAccess):
            view.delayed_csi(3)

    def test_transmitters_hear_nothing_directly(self):
        kb, _, _ = drive(FeedbackModel.SYM_FB_NO_CSIT)
        with pytest.raises(UnauthorizedAccess):
            kb.view(Node.TX1, 2).own_output(1)

    def test_receiver_omniscience_of_self(self):
        kb, states, sent = drive(FeedbackModel.ASYM_FB_ONLY)
        view = kb.view(Node.RX1, slot=4)
        for t in range(1, 5):
            np.testing.assert_array_equal(view.own_output(t), sent[t - 1][2][0])
            rows = view.own_csi_rows(t)
            assert_slot_view(rows, states, t, rx=1)
            h11, h12 = rows
            np.testing.assert_array_equal(h11, states.blocks[t - 1, 0, 0])
            np.testing.assert_array_equal(h12, states.blocks[t - 1, 0, 1])
        assert_slot_view(view.delayed_csi(3), states, 3)

    def test_access_log_records_denials(self):
        kb, _, _ = drive(FeedbackModel.ASYM_FB_ONLY, slots=2)
        with pytest.raises(UnauthorizedAccess):
            kb.view(Node.TX2, 2).delayed_csi(1)
        rec = kb.log[-1]
        assert rec.node is Node.TX2 and rec.kind is ItemKind.DELAYED_CSI
        assert not rec.granted

    @pytest.mark.parametrize("node,read,kind,key", [
        (Node.RX1, lambda view: view.fed_back_output(1, 1), ItemKind.FED_BACK_OUTPUT, (1, 1)),
        (Node.TX1, lambda view: view.own_output(1), ItemKind.RECEIVED_OUTPUT, 1),
        (Node.TX2, lambda view: view.own_csi_rows(1), ItemKind.INSTANT_CSI_OWN_ROW, 1),
    ], ids=["rx-fed-back-output", "tx-own-output", "tx-own-csi-rows"])
    def test_reads_of_the_wrong_node_type_are_logged(self, node, read, kind, key):
        # symmetric feedback hands every output to both transmitters, yet
        # never to a receiver, nor a receiver's own output or CSI to a transmitter
        kb, _, _ = drive(FeedbackModel.SYM_FB_NO_CSIT, slots=2)
        before = len(kb.log)
        with pytest.raises(UnauthorizedAccess):
            read(kb.view(node, 2))
        assert kb.log[before:] == [AccessRecord(node, kind, key, 2, False)]


class TestModelMonotonicity:
    def test_asym_fb_subset_of_richer_models(self):
        granted = {}
        for model in (
            FeedbackModel.ASYM_FB_ONLY,
            FeedbackModel.ASYM_FB_DELAYED_CSIT,
            FeedbackModel.SYM_FB_NO_CSIT,
            FeedbackModel.ASYM_FB_DCSIT_TX1_ONLY,
        ):
            kb, _, _ = drive(model)
            granted[model] = set(kb.items)
        base = granted[FeedbackModel.ASYM_FB_ONLY]
        for richer in (
            FeedbackModel.ASYM_FB_DELAYED_CSIT,
            FeedbackModel.SYM_FB_NO_CSIT,
            FeedbackModel.ASYM_FB_DCSIT_TX1_ONLY,
        ):
            assert base <= granted[richer]


class TestReconstruction:
    def test_recover_peer_noise_exactly(self):
        # phase-1 style traffic: transmitter 1 infers what transmitter 2 sent
        config = AntennaConfig(2, 3)
        kb, states, sent = drive(FeedbackModel.ASYM_FB_DELAYED_CSIT, config=config)
        view = kb.view(Node.TX1, slot=5)
        own = [x1 for x1, _, _ in sent]
        peer = recover_peer_inputs(view, config, [1, 2, 3, 4], own)
        truth = [x2 for _, x2, _ in sent]
        for got, want in zip(peer, truth):
            assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_rebuilt_output_matches_recorded(self):
        config = AntennaConfig(2, 3)
        kb, states, sent = drive(FeedbackModel.ASYM_FB_DELAYED_CSIT, config=config)
        view = kb.view(Node.TX1, slot=5)
        own = [x1 for x1, _, _ in sent]
        peer = recover_peer_inputs(view, config, [1, 2, 3, 4], own)
        rebuilt = rebuild_receiver_output(view, config, [1, 2, 3, 4], own, peer, target_rx=2)
        recorded = np.concatenate([y2 for _, _, (_, y2) in sent])
        assert np.linalg.norm(rebuilt - recorded) <= 1e-8 * np.linalg.norm(recorded)

    def test_reconstruction_denied_without_csi(self):
        config = AntennaConfig(2, 3)
        kb, _, sent = drive(FeedbackModel.ASYM_FB_ONLY, config=config)
        view = kb.view(Node.TX1, slot=5)
        with pytest.raises(UnauthorizedAccess):
            recover_peer_inputs(view, config, [1, 2], [x1 for x1, _, _ in sent[:2]])


def run_withholding(monkeypatch, withheld, spec, config, **kwargs):
    """``schemes.run`` on a ledger that never grants the items ``withheld``,
    ``(node, kind, key)`` triples: encoders must then fail, not guess."""

    class Withholding(KnowledgeBase):
        def grant(self, node, kind, key, payload, available_from):
            if (node, kind, key) not in withheld:
                super().grant(node, kind, key, payload, available_from)

    with monkeypatch.context() as patch:
        patch.setattr(schemes, "KnowledgeBase", Withholding)
        return schemes.run(spec, config, **kwargs)


class TestNoClairvoyance:
    def test_withholding_a_granted_item_aborts(self, monkeypatch):
        config = AntennaConfig(2, 3)
        baseline = schemes.run(variant(SchemeId.A), config, seed=4)
        assert baseline.horizon == 16
        with pytest.raises(UnauthorizedAccess):
            run_withholding(
                monkeypatch,
                {(Node.TX1, ItemKind.FED_BACK_OUTPUT, (1, 1))},
                variant(SchemeId.A),
                config,
                seed=4,
            )
        with pytest.raises(UnauthorizedAccess):
            run_withholding(
                monkeypatch,
                {(Node.TX2, ItemKind.DELAYED_CSI, 2)},
                variant(SchemeId.A),
                config,
                seed=4,
            )

    def test_withholding_own_symbols_aborts(self, monkeypatch):
        # encoders read their own noise and messages through their views too
        config = AntennaConfig(2, 3)
        for item in ((ItemKind.OWN_NOISE_SYMBOLS, "noise"), (ItemKind.OWN_MESSAGE_SYMBOLS, "v22")):
            with pytest.raises(UnauthorizedAccess):
                run_withholding(monkeypatch, {(Node.TX2,) + item}, variant(SchemeId.A), config,
                                seed=4)

    def test_withholding_rx_output_breaks_decode(self, monkeypatch):
        config = AntennaConfig(2, 3)
        transcript = run_withholding(
            monkeypatch,
            {(Node.RX1, ItemKind.RECEIVED_OUTPUT, 16)},
            variant(SchemeId.A),
            config,
            seed=4,
        )
        with pytest.raises(UnauthorizedAccess):
            schemes.decode(transcript, Node.RX1)


class TestAvailabilityTable:
    def test_every_granted_read_is_allowed(self):
        # audit a full scheme run, decode included, against the reference table
        for scheme, model in (
            (SchemeId.A, FeedbackModel.ASYM_FB_DELAYED_CSIT),
            (SchemeId.D, FeedbackModel.SYM_FB_NO_CSIT),
            (SchemeId.C, FeedbackModel.ASYM_FB_ONLY),
        ):
            transcript = schemes.run(variant(scheme), AntennaConfig(2, 3), seed=6)
            schemes.decode(transcript, Node.RX1)
            schemes.decode(transcript, Node.RX2)
            for rec in transcript.knowledge.log:
                if rec.granted:
                    assert availability(
                        model, rec.node, rec.kind, rec.key, rec.at_slot, transcript.horizon
                    ), rec
