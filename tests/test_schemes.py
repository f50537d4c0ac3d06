"""Scheme engine tests: plans, precoders, runs, decoding, accounting."""

from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

from dense_reference import (
    LoopRun,
    dense_decode,
    dense_linear_response,
    state_rows,
    svd_precoders,
)
from xsdof import matcore, schemes, verify
from xsdof.channel import AntennaConfig, FeedbackModel, lift_rows
from xsdof.cli import run_trial
from xsdof.errors import (
    DecodeFailure,
    InvalidInput,
    RegimeError,
    SingularSystem,
    UnauthorizedAccess,
)
from xsdof.knowledge import ItemKind, KnowledgeBase, Node
from xsdof.schemes import SchemeId, variant


def decode_error(transcript, receiver):
    """The relative error of ``receiver``'s decoded symbols."""
    return verify.decode_error(transcript, receiver, schemes.decode(transcript, receiver).symbols)


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
        # final-phase combiners: 2m*t4 rows acting on the (2m-n)*t2 retransmitted rows
        assert p.phi1.shape == (4, 3)
        assert p.phi2.shape == (4, 3)

    def test_shapes_scheme_b(self):
        cfg = AntennaConfig(4, 4)
        spec = variant(SchemeId.B)
        p = schemes.draw_precoders(spec, cfg, schemes.plan(spec, cfg), matcore.substream(2, "p"))
        for mat in (p.theta1, p.theta2, p.phi1, p.phi2):
            assert mat.shape == (4, 4)
            assert matcore.rank(mat).value == 4

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
        assert p.phi1.shape == p.phi2.shape == (4, 3)

    def test_shapes_scheme_c_tx1_only(self):
        # the run mode moves carriers between single transmitters: for the
        # same seed, C's very mixing matrices; it selects 2m - n = 1 row of
        # each overheard slot where C retransmits all 3, so its phi are
        # narrower
        cfg = AntennaConfig(2, 3)
        tx1 = schemes.run(variant(SchemeId.C, True), cfg, seed=3).precoders
        assert tx1.theta1.shape == tx1.theta2.shape == (4, 27)
        assert tx1.phi1.shape == tx1.phi2.shape == (2, 2)
        plain = schemes.run(variant(SchemeId.C), cfg, seed=3).precoders
        assert plain.phi1.shape == plain.phi2.shape == (2, 6)
        for name in ("theta1", "theta2"):
            assert np.array_equal(getattr(tx1, name), getattr(plain, name))

    @pytest.mark.parametrize("m,n", [(2, 3), (3, 4), (3, 5)])
    def test_final_precoders_read_only_the_retransmitted_rows(self, m, n):
        # every phi column meets one retransmitted row: none meets padding
        cfg = AntennaConfig(m, n)
        for spec in schemes.SPECS.values():
            if spec.phases == "single-slot":
                continue  # scheme B needs m >= n
            pln = schemes.plan(spec, cfg)
            p = schemes.draw_precoders(spec, cfg, pln, matcore.substream(1, "p"))
            take = 2 * m - n if spec.selected else n
            assert p.phi1.shape[1] == p.phi2.shape[1] == take * pln.phase_lengths[1], spec

    def test_scheme_e_has_no_mixers(self):
        cfg = AntennaConfig(2, 3)
        spec = variant(SchemeId.E)
        p = schemes.draw_precoders(spec, cfg, schemes.plan(spec, cfg), matcore.substream(4, "p"))
        # nothing to mix: 2m*t2 rows, no columns
        assert p.theta1.shape == p.theta2.shape == (12, 0)
        assert p.phi1.shape == (4, 3)

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
    rank whatever its shape; with ``row=False`` only its first column is
    zero.  Records each draw's shape."""

    def __init__(self, seed, deficient, row=True):
        self.rng, self.deficient, self.shapes = matcore.substream(seed, "p"), deficient, []
        self.row = row

    def standard_normal(self, shape):
        z = self.rng.standard_normal(shape)
        if len(self.shapes) in self.deficient:
            if self.row:
                z[..., 0, :] = 0.0
            z[..., :, 0] = 0.0
        self.shapes.append(shape)
        return z


class TestPrecoderCertificate:
    @pytest.mark.parametrize("scheme,m,n", [(SchemeId.A, 4, 4), (SchemeId.C, 4, 5)])
    def test_deficient_candidate_raises(self, monkeypatch, scheme, m, n):
        # A(4,4)'s precoders are tall (128 x 64), C(4,5)'s wide (48 x 125,
        # 36 x 60); the second draw, theta2, is deficient and nothing is
        # redrawn.  The certified theta1 takes no SVD, the reference's does.
        cfg, spec = AntennaConfig(m, n), variant(scheme)
        pln = schemes.plan(spec, cfg)
        ranked, rank = [], matcore.rank
        monkeypatch.setattr(matcore, "rank", lambda a, *args: ranked.append(1) or rank(a, *args))
        for draw, svds in ((schemes.draw_precoders, 1), (svd_precoders, 2)):
            ranked.clear()
            stub = _DeficientRng(11, {1})
            with pytest.raises(SingularSystem, match="theta2"):
                draw(spec, cfg, pln, stub)
            assert len(stub.shapes) == 2 and len(ranked) == svds, draw

    def test_deficient_retransmission_combiner_raises(self):
        # A(2,3)'s phi1 is 4 x 3, every column meeting one retransmitted
        # row; a zero first column leaves it rank 2, so the third draw
        # (phi1) raises
        cfg, spec = AntennaConfig(2, 3), variant(SchemeId.A)
        for draw in (schemes.draw_precoders, svd_precoders):
            stub = _DeficientRng(11, {2}, row=False)
            with pytest.raises(SingularSystem, match="phi1"):
                draw(spec, cfg, schemes.plan(spec, cfg), stub)
            assert len(stub.shapes) == 3 and stub.shapes[2] == (2, 4, 3), draw

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
            assert decode_error(transcript, receiver) <= schemes.DECODE_TOL
        assert not [
            rec
            for rec in transcript.knowledge.log
            if rec.node.is_transmitter and rec.kind is ItemKind.DELAYED_CSI
        ]

    def test_scheme_b_runs_under_any_model(self):
        for model in FeedbackModel:
            spec = replace(variant(SchemeId.B), model=model)
            transcript = schemes.run(spec, AntennaConfig(2, 2), seed=3)
            assert decode_error(transcript, Node.RX1) < 1e-8

    def test_tx1_only_requires_scheme_c(self):
        with pytest.raises(InvalidInput):
            variant(SchemeId.A, tx1_only=True)

    def test_tx1_only_tx2_reads_nothing(self):
        transcript = schemes.run(variant(SchemeId.C, True), AntennaConfig(2, 3), seed=3)
        for receiver in (Node.RX1, Node.RX2):  # decoding reads receiver CSI
            assert decode_error(transcript, receiver) <= schemes.DECODE_TOL
        own = (ItemKind.OWN_MESSAGE_SYMBOLS, ItemKind.OWN_NOISE_SYMBOLS)
        reads = [
            rec
            for rec in transcript.knowledge.log
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
            assert report.dof == target
            assert report.attempts == 1, "no null-set resample expected at these sizes"

    def test_phase4_side_information_sufficiency(self):
        # the selected overheard rows complete a full-rank square system
        for seed in range(20):
            transcript = schemes.run(variant(SchemeId.A), AntennaConfig(2, 3), seed=seed)
            r2 = transcript.phase_ranges()[1]
            h2 = lift_rows(state_rows(transcript.states, 1, r2), 2)
            g2 = lift_rows(state_rows(transcript.states, 2, r2), 2)
            stacked = np.vstack([h2, schemes.side_info(transcript, g2)])
            assert stacked.shape == (12, 12)
            assert matcore.rank(stacked).value == 12

    def test_scheme_c_needs_the_final_phase(self):
        # the fresh-phase equations alone never close the system
        transcript = schemes.run(variant(SchemeId.C), AntennaConfig(2, 3), seed=4)
        r2 = transcript.phase_ranges()[1]
        h2 = lift_rows(state_rows(transcript.states, 1, r2), 2)
        assert h2.shape == (6, 8)
        assert matcore.rank(h2).value == 6 < 8

    def test_scheme_c_stacked_system_full_column_rank(self):
        for seed in range(10):
            transcript = schemes.run(variant(SchemeId.C), AntennaConfig(2, 3), seed=seed)
            assert decode_error(transcript, Node.RX1) < 1e-8
            assert decode_error(transcript, Node.RX2) < 1e-8

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
        log = transcript.knowledge.log
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
        assert decode_error(transcript, Node.RX2) < 1e-8

    @pytest.mark.parametrize("scheme,m,n,svd_solves",
                             [(SchemeId.A, 4, 4, 0), (SchemeId.C, 4, 5, 1)])
    def test_square_reduced_system_takes_no_svd(self, monkeypatch, scheme, m, n, svd_solves):
        # A's reduced system is square (64 x 64): certified, solved by LU;
        # C's is tall (45 x 36) and goes to the SVD
        transcript = schemes.run(variant(scheme), AntennaConfig(m, n), seed=7)
        shapes = []
        solve = matcore.solve_full_column_rank
        monkeypatch.setattr(matcore, "solve_full_column_rank",
                            lambda a, b, scale: shapes.append(np.shape(a)) or solve(a, b, scale))
        for receiver in (Node.RX1, Node.RX2):
            assert decode_error(transcript, receiver) < 1e-8
        assert len(shapes) == 2 * svd_solves
        assert all(rows > cols for rows, cols in shapes)

    def test_refused_decode_is_decided_once(self, monkeypatch):
        # phi1_zero starves receiver 1's 3 x 3 reduced system: the refusing
        # SVD's rank gives the rate rank, with no second SVD
        transcript = schemes.run(variant(SchemeId.A), AntennaConfig(2, 3), seed=7,
                                 mutation="phi1_zero")
        monkeypatch.setattr(matcore, "rank", None)
        with pytest.raises(SingularSystem) as refused:
            schemes.decode(transcript, Node.RX1)
        assert refused.value.rank == 0 and refused.value.rate_rank == 9

    def test_decode_rejects_transmit_nodes(self):
        transcript = schemes.run(variant(SchemeId.B), AntennaConfig(1, 1), seed=0)
        with pytest.raises(InvalidInput):
            schemes.decode(transcript, Node.TX1)


def _replay_cases():
    """Every spec row at (2,3), (4,4), (4,5) and (3,5) where its plan
    applies, unmutated and with every mutant it accepts; B also at (3,3)
    and (1,1), and A(3,4)'s mutants."""
    cases = [(SchemeId.B, 3, 3, False, None), (SchemeId.B, 1, 1, False, None)]
    cases += [(SchemeId.A, 3, 4, False, mutation) for mutation in schemes.MUTATIONS]
    for (scheme, tx1_only), spec in schemes.SPECS.items():
        for m, n in ((2, 3), (4, 4), (4, 5), (3, 5)):
            try:
                schemes.plan(spec, AntennaConfig(m, n))
            except RegimeError:
                continue
            for mutation in (None,) + schemes.MUTATIONS:
                if mutation != "skip_phase1" or scheme not in (SchemeId.B, SchemeId.C):
                    cases.append((scheme, m, n, tx1_only, mutation))
    return [pytest.param(*case, id=f"{case[0].value}{case[1]}{case[2]}"
                         + ("-tx1" if case[3] else "") + (f"-{case[4]}" if case[4] else ""))
            for case in cases]


class TestReplay:
    @pytest.mark.parametrize("scheme,m,n,tx1_only,mutation", _replay_cases())
    def test_per_slot_replay_equals_dense_lifts(self, scheme, m, n, tx1_only, mutation):
        # the slot-by-slot products agree with dense ones to round-off
        transcript = schemes.run(variant(scheme, tx1_only), AntennaConfig(m, n), seed=3,
                                 mutation=mutation)
        for group in ("u", "v1", "v2"):
            got = schemes.linear_response(transcript, group)
            for y, ref in zip(got, dense_linear_response(transcript, group)):
                assert y.shape == ref.shape
                assert np.linalg.norm(y - ref) <= 1e-12 * max(np.linalg.norm(ref), 1e-300)
        assert verify.replay_matches_recorded(transcript)

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
    def test_skipped_zero_products_change_no_bit(self, mutation):
        # rows the replay writes without a product (its group's identity
        # phase) or not at all (a secret group's zero phases) equal the
        # dense reference's bit for bit
        transcript = schemes.run(variant(SchemeId.A), AntennaConfig(3, 4), seed=5,
                                 mutation=mutation)
        bounds = transcript.config.n * np.cumsum((0,) + transcript.plan.phase_lengths)
        unmultiplied = {"u": (1,), "v1": (1, 2, 3), "v2": (1, 2, 3)}
        for group, phases in unmultiplied.items():
            got = schemes.linear_response(transcript, group)
            for y, ref in zip(got, dense_linear_response(transcript, group)):
                for p in phases:
                    rows = slice(bounds[p - 1], bounds[p])
                    assert np.array_equal(y[rows], ref[rows]), (group, p)


class TestSideInfo:
    def test_selects_the_first_rows_of_every_slot(self):
        # every spec row: the first take rows of each slot's n, in slot
        # order, as a new array; take = 2m - n where the spec selects
        for spec in schemes.SPECS.values():
            m, n = (3, 3) if spec.phases == "single-slot" else (2, 3)
            transcript = schemes.run(spec, AntennaConfig(m, n), seed=5)
            take = schemes.retransmitted_rows(spec, transcript.config)
            assert take == (2 * m - n if spec.selected else n), spec
            t = transcript.plan.phase_lengths[1]
            values = np.arange(n * t * 2, dtype=complex).reshape(n * t, 2) + 1
            out = schemes.side_info(transcript, values)
            assert out.shape == (take * t, 2), spec
            for s in range(t):
                np.testing.assert_array_equal(out[s * take : (s + 1) * take],
                                              values[s * n : s * n + take])
            assert not np.shares_memory(out, values)
            np.testing.assert_array_equal(schemes.side_info(transcript, values[:, 0]), out[:, 0])

    @pytest.mark.parametrize("scheme,m,n", [(SchemeId.B, 3, 3), (SchemeId.C, 2, 3)])
    def test_unselected_specs_pass_through(self, scheme, m, n):
        transcript = schemes.run(variant(scheme), AntennaConfig(m, n), seed=5)
        values = np.arange(n * transcript.plan.phase_lengths[1] * 2, dtype=complex).reshape(-1, 2)
        np.testing.assert_array_equal(schemes.side_info(transcript, values), values)

    def test_zero_column_map_keeps_its_shape(self):
        # E has no noise symbols: its u maps have no columns; A(2,3)'s
        # selection keeps 1 row of each of the 3 slots
        transcript = schemes.run(variant(SchemeId.E), AntennaConfig(2, 3), seed=5)
        maps = schemes.linear_response(transcript, "u")
        assert [y.shape for y in maps] == [(21, 0), (21, 0)]
        assert schemes.side_info(transcript, np.zeros((9, 0), complex)).shape == (3, 0)


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
        log = transcript.knowledge.log
        assert len(log) == 32 and sum(not rec.granted for rec in log) == 2
