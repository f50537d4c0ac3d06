"""Verifier tests: rank identities, the subspace oracle, and their agreement."""

import dataclasses
import importlib
import itertools
import pkgutil
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xsdof
from dense_reference import (
    all_rows_residual,
    dense_decode,
    dense_linear_response,
    dense_oracle,
    dense_ranks,
    reduced_maps,
    reference_contained,
    scattered,
    stacked_matrices,
    state_rows,
)
from dense_reference import carried_map as dense_carried_map
from xsdof import channel, knowledge, matcore, schemes, verify
from xsdof.channel import AntennaConfig, lift_rows
from xsdof.errors import DecodeFailure, InvalidTranscript, SingularSystem
from xsdof.knowledge import Node
from xsdof.schemes import SchemeId, variant


def transcript_for(scheme, m, n, seed=7, tx1_only=False, **kw):
    return schemes.run(variant(scheme, tx1_only), AntennaConfig(m, n), seed=seed, **kw)


#: (scheme, m, n, mode, seeds) on which the rank report and the oracle must
#: agree: every variant, the ladder's sizes and the three mutants.  ``mode``
#: is a mutation, or ``"tx1_only"`` for scheme C's tx1-only row.
AGREEMENT_CASES = [
    (SchemeId.A, 2, 3, None, range(5)),
    (SchemeId.B, 4, 4, None, range(5)),
    (SchemeId.C, 2, 3, None, range(5)),
    (SchemeId.C, 2, 3, "tx1_only", range(5)),
    (SchemeId.D, 2, 3, None, range(5)),
    (SchemeId.E, 2, 3, None, range(5)),
    (SchemeId.A, 4, 4, None, range(2)),
    (SchemeId.C, 4, 5, None, range(2)),
    (SchemeId.E, 4, 4, None, range(2)),
    (SchemeId.A, 3, 4, "theta1_zero", range(2)),
    (SchemeId.A, 3, 4, "phi1_zero", range(2)),
    (SchemeId.A, 3, 4, "skip_phase1", range(2)),
]


def agreement_transcripts(extra=()):
    for scheme, m, n, mode, seeds in AGREEMENT_CASES + list(extra):
        kw = {"tx1_only": True} if mode == "tx1_only" else {"mutation": mode}
        for seed in seeds:
            yield (scheme, m, n, mode, seed), transcript_for(scheme, m, n, seed, **kw)


#: Largest relative difference allowed between the slot-by-slot decoder and
#: the dense solve: both decode to 1e-12 or better at these sizes, so the
#: elimination changes only round-off.
DENSE_DECODE_RTOL = 1e-9

#: Largest relative difference allowed between a precoded map from slot
#: blocks and the dense lift times the precoder: the sums differ only in
#: the lift's zero terms.
DENSE_MAP_RTOL = 1e-12

#: The phase (index into ``phase_ranges``) each precoder's output is sent in.
PRECODER_PHASES = {"theta1": 1, "theta2": 2, "phi1": 3, "phi2": 3}


def _decoded(decoder, transcript, receiver):
    """The decoded symbols, or the class of the exception the decoder raised."""
    try:
        return decoder(transcript, receiver)
    except (SingularSystem, DecodeFailure) as exc:
        return type(exc)


def _symbols(transcript, receiver):
    """``schemes.decode``'s symbols alone, as ``dense_decode`` returns them."""
    return schemes.decode(transcript, receiver).symbols


def decode_error(transcript, receiver):
    """The relative error of ``receiver``'s decoded symbols."""
    return verify.decode_error(transcript, receiver, _symbols(transcript, receiver))


def report_for(transcript):
    """The rank report of ``transcript`` on its decoder's rate ranks: both
    receivers decoded first, as ``verify.run_trial`` does, a refused
    decode giving the rate rank its exception carries."""
    ranks = []
    for receiver in (Node.RX1, Node.RX2):
        try:
            ranks.append(schemes.decode(transcript, receiver).rate_rank)
        except (SingularSystem, DecodeFailure) as exc:
            ranks.append(exc.rate_rank)
    return verify.secrecy_rank_report(transcript, tuple(ranks))


def _check_carried_maps(case, transcript) -> set:
    """Check ``schemes.carried_map`` from slot blocks against the dense lift
    times the precoder, for every precoder and both receivers; returns the
    ``(carrier, column count > 0)`` pairs checked."""
    m = transcript.config.effective_m
    ranges = transcript.phase_ranges()
    blocks = transcript.states.slot_blocks()
    seen = set()
    for name, phase in PRECODER_PHASES.items():
        slots = ranges[phase]
        for rx in (1, 2):
            got = schemes.carried_map(transcript, blocks[rx - 1, np.asarray(slots) - 1], name)
            lifted = lift_rows(state_rows(transcript.states, rx, slots), m)
            want = dense_carried_map(transcript, lifted, name, m * len(slots))
            assert got.shape == want.shape, (case, name, rx)
            diff = np.linalg.norm(got - want)
            assert diff <= DENSE_MAP_RTOL * np.linalg.norm(want), (case, name, rx, diff)
        seen.add((getattr(transcript.spec, name), want.shape[1] > 0))
    return seen


class TestDenseDecoder:
    def test_agrees_with_dense_decode(self):
        """Same symbols to DENSE_DECODE_RTOL, or the same exception class;
        and the same precoded maps to DENSE_MAP_RTOL."""
        raised = {}
        carried = set()
        for case, transcript in agreement_transcripts():
            carried |= _check_carried_maps(case, transcript)
            for receiver in (Node.RX1, Node.RX2):
                got = _decoded(_symbols, transcript, receiver)
                want = _decoded(dense_decode, transcript, receiver)
                if isinstance(want, type):
                    assert got is want, (case, receiver)
                    raised[case[3], case[4], receiver] = want
                else:
                    assert not isinstance(got, type), (case, receiver, got)
                    diff = np.linalg.norm(got - want) / np.linalg.norm(want)
                    assert diff <= DENSE_DECODE_RTOL, (case, receiver, diff)
        # the one mutant that breaks a decode: phi1_zero starves receiver 1's system
        assert raised == {("phi1_zero", seed, Node.RX1): SingularSystem for seed in range(2)}
        # both-transmitter and single-carrier rows, and skip_phase1's empty mixing
        assert carried == {(c, True) for c in ("both", "tx1", "tx2")} | {("both", False)}


class TestNoDenseLift:
    def test_trials_build_no_dense_lift(self, monkeypatch):
        """A trial (run, decode, rank report, oracle) never calls a dense
        lift: each is replaced by a raiser under every name a module of the
        package binds it to."""
        dense = (channel.lift_rows, channel.lift_phase, matcore.block_diag)

        def refuse(*args, **kwargs):
            raise AssertionError("a trial built a dense block-diagonal lift")

        patched = set()
        for info in pkgutil.iter_modules(xsdof.__path__):
            module = importlib.import_module(f"xsdof.{info.name}")
            for attr, value in list(vars(module).items()):
                if any(value is fn for fn in dense):
                    monkeypatch.setattr(module, attr, refuse)
                    patched.add((info.name, attr))
        assert {("channel", "lift_rows"), ("verify", "lift_rows")} <= patched
        cases = [
            (variant(SchemeId.A), 2, 3, None),
            (variant(SchemeId.B), 4, 4, None),
            (variant(SchemeId.C, True), 2, 3, None),
            (variant(SchemeId.E), 2, 3, None),
            (variant(SchemeId.A), 2, 3, "skip_phase1"),
        ]
        for spec, m, n, mutation in cases:
            report = verify.run_trial(spec, AntennaConfig(m, n), seed=7, mutation=mutation)
            assert report.decode_ok and report.oracle[0] is not None, (spec, mutation)

    def test_replay_uses_no_report_product(self, monkeypatch):
        """The replay stays independent of the rank report's reduction: no
        carried map, no per-slot null basis and no product with a
        block-diagonal factor's slot blocks, under any name a module of the
        package binds them to."""
        cases = [
            (variant(SchemeId.A), 3, 4, None),
            (variant(SchemeId.B), 4, 4, None),
            (variant(SchemeId.C), 4, 5, None),
            (variant(SchemeId.C, True), 2, 3, None),
            (variant(SchemeId.E), 2, 3, None),
            (variant(SchemeId.A), 2, 3, "skip_phase1"),
        ]
        transcripts = [schemes.run(spec, AntennaConfig(m, n), seed=7, mutation=mutation)
                       for spec, m, n, mutation in cases]

        def refuse(*args, **kwargs):
            raise AssertionError("the replay used the rank report's reduction")

        report = (schemes.carried_map, matcore.slot_null_bases, matcore.times_block_diagonal)
        patched = set()
        for info in pkgutil.iter_modules(xsdof.__path__):
            module = importlib.import_module(f"xsdof.{info.name}")
            for attr, value in list(vars(module).items()):
                if any(value is fn for fn in report):
                    monkeypatch.setattr(module, attr, refuse)
                    patched.add((info.name, attr))
        assert ("matcore", "times_block_diagonal") in patched
        for transcript in transcripts:
            for group in ("u", "v1", "v2"):
                schemes.linear_response(transcript, group)
            assert verify.replay_matches_recorded(transcript)


class TestSecrecyRankReport:
    def test_scheme_a_dimensions_and_targets(self):
        report = report_for(transcript_for(SchemeId.A, 2, 3))
        audited = {name: (r, c) for name, r, c in report.matrices_audited}
        assert audited["rate_rx1"] == (12, 12)  # n*t2 + n*t3 rows, 2m*t2 columns
        assert audited["leak_rx2"] == (36, 36)  # n*(t1+t2) square
        assert report.rate_target == 12
        assert report.rate_ranks == (12, 12)
        assert report.leak_defects == (0, 0)
        assert not report.advisory

    def test_scheme_b_targets(self):
        for m, n in [(1, 1), (4, 4)]:
            report = report_for(transcript_for(SchemeId.B, m, n))
            assert report.rate_target == 2 * n
            assert report.rate_ranks == (2 * n, 2 * n)
            assert report.leak_defects == (0, 0)

    def test_scheme_d_matches_a(self):
        ra = report_for(transcript_for(SchemeId.A, 2, 3))
        rd = report_for(transcript_for(SchemeId.D, 2, 3))
        assert rd.rate_ranks == ra.rate_ranks
        assert rd.leak_defects == (0, 0)

    def test_scheme_c_advisory_defect(self):
        # the feedback-only construction cannot cloak (n - m)*t2 dimensions:
        # its fresh-phase mixing rides on one transmitter's m antennas only
        report = report_for(transcript_for(SchemeId.C, 2, 3))
        assert report.advisory
        assert report.rate_ranks[0] == report.rate_target == 8
        assert report.leak_defects == (2, 2)

    def test_shared_phase1_channel_needs_the_scale_floor(self):
        # both receivers hear the noise phase through the same blocks, so
        # each one's phase-1 map already explains the other's and every
        # noise mix the eavesdropper sees: after the elimination both
        # reduced leakage matrices are round-off, which the scale floor
        # keeps at rank 0, and each identity falls short by n*t2 = 9
        transcript = transcript_for(SchemeId.A, 2, 3)
        blocks = transcript.states.blocks.copy()
        blocks[:9, 0] = blocks[:9, 1]
        transcript.states = dataclasses.replace(transcript.states, blocks=blocks)
        report = report_for(transcript)
        assert report.leak_defects == (9, 9)
        assert dense_ranks(transcript)[2:] == (9, 9)
        assert verify.equivocation_subspace_check(transcript) == (False, False)
        assert dense_oracle(transcript) == (False, False)

    def test_scheme_e_negative_control(self):
        report = report_for(transcript_for(SchemeId.E, 2, 3))
        assert report.advisory
        assert report.leak_defects == (9, 9)

    def test_tolerance_insensitivity(self, monkeypatch):
        # the rank decisions, the decoder's included, hold at 1e-7 and 1e-11
        # just as at 1e-9
        transcript = transcript_for(SchemeId.A, 2, 3)
        base = report_for(transcript)
        for tol in (1e-7, 1e-11):
            monkeypatch.setattr(matcore, "REL_TOL", tol)
            other = report_for(transcript)
            assert other.rate_ranks == base.rate_ranks
            assert other.leak_defects == base.leak_defects

    def test_rank_runs_only_on_maps_the_certificate_cannot_prove(self, monkeypatch):
        shapes = []
        rank = matcore.rank
        monkeypatch.setattr(matcore, "rank", lambda a, *args: shapes.append(np.shape(a))
                            or rank(a, *args))
        for case, transcript in agreement_transcripts(WORKLOAD_CASES):
            shapes.clear()
            report_for(transcript)
            assert shapes == REPORT_RANKED.get(case[:4], []), case

    def test_incomplete_transcript_rejected(self):
        transcript = transcript_for(SchemeId.B, 1, 1)
        transcript.inputs = transcript.inputs[:-1]
        with pytest.raises(InvalidTranscript):
            verify.secrecy_rank_report(transcript, (2, 2))


class TestOneRateDecision:
    """Each receiver's rate system is formed and decided once a trial, by
    its decoder, at the cut of the stacked ``[G; F]``; the rank report
    reads that decision."""

    def test_one_formation_and_certificate_per_rate_system(self, monkeypatch):
        products, certified, null_bases = [], [], []
        times, certify = matcore.times_block_diagonal, matcore.full_rank_certified
        slot_null_bases = matcore.slot_null_bases
        monkeypatch.setattr(matcore, "times_block_diagonal",
                            lambda *args: products.append(times(*args)) or products[-1])
        monkeypatch.setattr(matcore, "full_rank_certified",
                            lambda a, scale=0.0: certified.append(a) or certify(a, scale))
        monkeypatch.setattr(matcore, "slot_null_bases",
                            lambda blocks: null_bases.append(1) or slot_null_bases(blocks))
        report = verify.run_trial(variant(SchemeId.A), AntennaConfig(2, 3), seed=7)
        assert report.decode_ok and report.oracle == (True, True)
        assert report.secrecy.rate_ranks == (12, 12)
        # A(2,3): a rate system F N is n t4 x (2m - n) t2 = 3 x 3; the
        # leakage maps are 9 x 9 and the oracle's reduced noise maps 21 x 9
        rate_systems = [product for product in products if product.shape == (3, 3)]
        assert len(rate_systems) == 2
        assert [sum(a is system for a in certified) for system in rate_systems] == [1, 1]
        # each decoder's fresh-phase lift, and one phase-1 pair that the
        # report and the oracle share
        assert len(null_bases) == 3

    @pytest.mark.parametrize("factor,refused", [(1e-9, True), (1e-6, False)])
    def test_decoder_cuts_at_the_stacked_scale(self, monkeypatch, factor, refused):
        # phi1 and phi2 scaled at draw time: F N shrinks with them, G does
        # not.  At 1e-9 two of F N's three singular values fall below the
        # cut of the stacked [G; F], which is floored at G's scale, so both
        # rate ranks are 10 of 12 and the decoder refuses a system it could
        # solve at F N's own scale; at 1e-6 every one stays above the cut
        draw = schemes.draw_precoders

        def scaled(*args):
            drawn = draw(*args)
            return dataclasses.replace(drawn, phi1=factor * drawn.phi1, phi2=factor * drawn.phi2)

        monkeypatch.setattr(schemes, "draw_precoders", scaled)
        transcript = transcript_for(SchemeId.A, 2, 3)
        rate_rank = 10 if refused else 12
        for receiver in (Node.RX1, Node.RX2):
            if refused:
                with pytest.raises(SingularSystem) as singular:
                    schemes.decode(transcript, receiver)
                assert singular.value.rate_rank == rate_rank
            else:
                assert schemes.decode(transcript, receiver).rate_rank == rate_rank
                assert decode_error(transcript, receiver) <= schemes.DECODE_TOL
        report = report_for(transcript)
        assert report.rate_ranks == (rate_rank,) * 2 == dense_ranks(transcript)[:2]

    def test_report_and_oracle_share_the_null_bases(self, monkeypatch):
        # run_trial takes one batched SVD of both receivers' phase-1 blocks
        # and hands the same objects to the report, receiver 2's first, and
        # to the oracle; they equal the bases each takes without them
        handed = {}
        report, oracle = verify.secrecy_rank_report, verify.equivocation_subspace_check

        def report_spy(transcript, rate_ranks, nulls=None):
            handed["report"] = nulls
            return report(transcript, rate_ranks, nulls)

        def oracle_spy(transcript, nulls=None):
            handed["oracle"] = nulls
            return oracle(transcript, nulls)

        monkeypatch.setattr(verify, "secrecy_rank_report", report_spy)
        monkeypatch.setattr(verify, "equivocation_subspace_check", oracle_spy)
        trial = verify.run_trial(variant(SchemeId.A), AntennaConfig(2, 3), seed=7)
        for_report, for_oracle = handed["report"], handed["oracle"]
        assert all(isinstance(null, matcore.SlotNullBases) for null in for_oracle)
        assert for_report[0] is for_oracle[1] and for_report[1] is for_oracle[0]
        monkeypatch.undo()
        transcript = transcript_for(SchemeId.A, 2, 3)
        t1 = transcript.plan.phase_lengths[0]
        phase1 = transcript.states.slot_blocks()[:, :t1]
        for shared, own in zip(for_report, matcore.slot_null_bases(phase1[[1, 0]])):
            np.testing.assert_array_equal(shared.basis, own.basis)
            np.testing.assert_array_equal(shared.ranks, own.ranks)
            assert shared.largest == own.largest
        assert trial.secrecy == verify.secrecy_rank_report(transcript, trial.secrecy.rate_ranks)
        assert trial.oracle == verify.equivocation_subspace_check(transcript) == (True, True)


class TestSubspaceOracle:
    def test_clean_schemes_pass(self):
        assert verify.equivocation_subspace_check(transcript_for(SchemeId.A, 2, 3)) == (True, True)
        assert verify.equivocation_subspace_check(transcript_for(SchemeId.B, 1, 1)) == (True, True)
        assert verify.equivocation_subspace_check(transcript_for(SchemeId.D, 2, 3)) == (True, True)

    def test_mutant_without_mixing_is_caught(self):
        transcript = transcript_for(SchemeId.A, 2, 3, mutation="theta1_zero")
        # receiver 2 sees the unmixed noise; the mirror side still mixes
        assert verify.equivocation_subspace_check(transcript) == (True, False)

    def test_no_noise_fails_both(self):
        transcript = transcript_for(SchemeId.E, 2, 3)
        assert verify.equivocation_subspace_check(transcript) == (False, False)

    @staticmethod
    def _containment_inputs(monkeypatch, transcript):
        """The (noise, secret) pairs the oracle hands ``columns_contained``, in call order."""
        seen = []
        contained = verify.columns_contained

        def spy(noise, secret, *args):
            seen.append((noise, secret))
            return contained(noise, secret, *args)

        monkeypatch.setattr(verify, "columns_contained", spy)
        verdicts = verify.equivocation_subspace_check(transcript)
        return verdicts, seen

    def test_observation_maps_shapes(self, monkeypatch):
        # A(2,3): t1 = 9 noise slots of 7; 2m - n = 1 null column per slot;
        # the rows of the other receiver's 3 fresh slots and the final slot
        transcript = transcript_for(SchemeId.A, 2, 3)
        verdicts, seen = self._containment_inputs(monkeypatch, transcript)
        assert verdicts == (True, True)
        assert len(seen) == 2
        for noise, secret in seen:
            assert noise.shape == (12, 9) and secret.shape == (12, 12)
        # each secret map stores the receiver's own fresh phase before the
        # other's, so the kept rows end it: a view for both receivers
        assert not seen[0][1].flags.owndata and not seen[1][1].flags.owndata

    def test_shared_noise_replay(self, monkeypatch):
        transcript = transcript_for(SchemeId.A, 2, 3, mutation="theta1_zero")
        groups = []
        replay = schemes.linear_response

        def counted(transcript, group, **kw):
            groups.append(group)
            return replay(transcript, group, **kw)

        monkeypatch.setattr(schemes, "linear_response", counted)
        verdicts, seen = self._containment_inputs(monkeypatch, transcript)
        assert verdicts == (True, False)
        # each receiver's secret replay, then its own noise replay
        assert groups == ["v2", "u", "v1", "u"]
        monkeypatch.setattr(schemes, "linear_response", replay)
        # the secret maps on the noise maps' rows, bit for bit: receiver 1's
        # phase 3 and 4 (rows 36 on), receiver 2's phase 2 (27 to 36) and 4
        # (45 on); receiver 2's noise map is exactly zero without theta1
        v2, v1 = replay(transcript, "v2")[0], replay(transcript, "v1")[1]
        np.testing.assert_array_equal(seen[0][1], v2[36:])
        np.testing.assert_array_equal(seen[1][1], np.vstack([v1[27:36], v1[45:]]))
        assert not np.any(seen[1][0]) and np.all(np.linalg.norm(seen[0][0], axis=0) > 0)
        # whole eavesdropper maps: receiver 1's in the run's phase order,
        # receiver 2's with its own fresh phase (36 to 45) first
        np.testing.assert_array_equal(replay(transcript, "v2", eavesdropper=True)[0], v2)
        np.testing.assert_array_equal(replay(transcript, "v1", eavesdropper=True)[1],
                                      np.vstack([v1[:27], v1[36:45], v1[27:36], v1[45:]]))

    def test_reduced_noise_replay_matches_dense(self):
        """Each receiver's noise map of its null-basis input against the
        dense replay past the noise phase times the scattered bases: equal
        to REDUCED_MAP_RTOL on the kept rows, and round-off on the own
        fresh phase's rows it drops."""
        for case, transcript in agreement_transcripts():
            n = transcript.config.n
            t1, t2, t3, _ = transcript.plan.phase_lengths
            nulls = matcore.slot_null_bases(transcript.states.slot_blocks()[:, :t1])
            got = schemes.linear_response(
                transcript, "u", eavesdropper=True, bases=[null.basis for null in nulls])
            dense = dense_linear_response(transcript, "u")
            for rx, null in enumerate(nulls):
                past = dense[rx][n * t1:]
                product = past @ scattered(null.basis)
                own = slice(0, n * t2) if rx == 0 else slice(n * t2, n * (t2 + t3))
                kept = np.delete(product, np.arange(own.start, own.stop), axis=0)
                assert got[rx].shape == kept.shape, case
                # theta1_zero's receiver 2 is exactly zero, the dense product
                # round-off: relative to the unreduced map there
                scale = np.linalg.norm(kept if np.any(got[rx]) else past)
                diff = np.linalg.norm(got[rx] - kept)
                assert diff <= REDUCED_MAP_RTOL * scale, (case, rx, diff)
                dropped = np.linalg.norm(product[own])
                assert dropped <= REDUCED_MAP_RTOL * np.linalg.norm(past), (case, rx, dropped)

    @pytest.mark.parametrize("group,rx", [("v2", 0), ("v1", 1)])
    def test_secret_in_noise_phase_is_refused(self, monkeypatch, group, rx):
        replay = schemes.linear_response

        def leaky(transcript, name, **kw):
            maps = replay(transcript, name, **kw)
            if name == group:
                maps[rx][0, 0] = 1.0  # a secret symbol heard in slot 1
            return maps

        monkeypatch.setattr(schemes, "linear_response", leaky)
        with pytest.raises(InvalidTranscript, match="noise phase"):
            verify.equivocation_subspace_check(transcript_for(SchemeId.A, 2, 3))

    @pytest.mark.parametrize("group,rx,row", [("v2", 0, 0), ("v1", 1, 8)])
    def test_secret_in_own_fresh_phase_is_refused(self, monkeypatch, group, rx, row):
        # A(2,3): 27 noise-phase rows, then 9 rows for each fresh phase; an
        # eavesdropper's secret map stores its own fresh phase first
        # (receiver 1's phase 2, receiver 2's phase 3), so row 8 is
        # receiver 2's last own row and the next its first kept one
        replay = schemes.linear_response

        def leaky(transcript, name, **kw):
            maps = replay(transcript, name, **kw)
            if name == group:
                maps[rx][27 + row, 0] = 1e-300  # a trace at any scale is refused
            return maps

        monkeypatch.setattr(schemes, "linear_response", leaky)
        with pytest.raises(InvalidTranscript, match="own fresh phase"):
            verify.equivocation_subspace_check(transcript_for(SchemeId.A, 2, 3))

    @pytest.mark.parametrize("group,rx,row", [("v2", 0, 36), ("v1", 1, 36)])
    def test_secret_across_slots_in_other_fresh_phase_is_refused(
        self, monkeypatch, group, rx, row
    ):
        # A(2,3): the other receiver's fresh phase is rows 36 to 45 of
        # either eavesdropper's map (receiver 1's phase 3, receiver 2's
        # phase 2, stored after its own); its first slot's rows meet only
        # columns 0 to 3
        replay = schemes.linear_response

        def smeared(transcript, name, **kw):
            maps = replay(transcript, name, **kw)
            if name == group:
                maps[rx][row, 4] = 1e-300  # slot 1's output reached by slot 2's symbols
            return maps

        monkeypatch.setattr(schemes, "linear_response", smeared)
        with pytest.raises(InvalidTranscript, match="other receiver's fresh phase"):
            verify.equivocation_subspace_check(transcript_for(SchemeId.A, 2, 3))

    @pytest.mark.parametrize("rx", [0, 1])
    def test_noise_across_slots_is_refused(self, rx):
        # the oracle takes G from the states' phase-1 slot blocks: those are
        # the diagonal blocks of the dense noise replay's phase-1 rows, bit
        # for bit, and rows where slot 2's noise reaches slot 1's output are
        # not block diagonal
        transcript = transcript_for(SchemeId.A, 2, 3)
        m, n = transcript.config.effective_m, transcript.config.n
        t1 = transcript.plan.phase_lengths[0]
        rows = dense_linear_response(transcript, "u")[rx][:n * t1]
        what = "the noise map's phase-1 rows"
        np.testing.assert_array_equal(verify._slot_blocks(rows, n, m, t1, what),
                                      transcript.states.slot_blocks()[rx, :t1])
        rows[0, 4] = 1.0  # slot 1's output reached by slot 2's noise
        with pytest.raises(InvalidTranscript, match="noise map's phase-1 rows are not block"):
            verify._slot_blocks(rows, n, m, t1, what)

    def test_agreement_with_rank_report(self):
        for case, transcript in agreement_transcripts():
            report = report_for(transcript)
            assert verify.equivocation_subspace_check(transcript) == tuple(
                defect == 0 for defect in report.leak_defects), case

    @pytest.mark.parametrize("tol", [1e-9, 1e-7, 1e-11])
    def test_reduced_matches_dense(self, monkeypatch, tol):
        # the slot-by-slot elimination against the stacked matrices and the
        # whole replayed maps, noise phase included, every cut at ``tol``
        for case, transcript in agreement_transcripts([(SchemeId.A, 5, 5, None, [7])]):
            with monkeypatch.context() as patch:  # the draws stay at the default cut
                patch.setattr(matcore, "REL_TOL", tol)
                report = report_for(transcript)
                assert report.rate_ranks + report.leak_defects == dense_ranks(transcript), case
                assert verify.equivocation_subspace_check(transcript) == dense_oracle(
                    transcript), case
                if case[:3] == (SchemeId.A, 5, 5) and tol == 1e-11:
                    # the block guard fails at this cut: the rank pair decides receiver 1
                    assert _oracle_exits(patch, transcript)[1][0] is None
            shapes = {name: mat.shape for name, mat in stacked_matrices(transcript).items()
                      if mat is not None}
            assert {name: (r, c) for name, r, c in report.matrices_audited
                    if name in shapes} == shapes, case

    def test_two_replays_per_receiver(self, monkeypatch):
        calls = []
        replay = schemes.linear_response

        def counted(transcript, group, **kw):
            maps = replay(transcript, group, **kw)
            calls.append((group, kw["eavesdropper"], [y is not None for y in maps]))
            return maps

        monkeypatch.setattr(schemes, "linear_response", counted)
        verify.equivocation_subspace_check(transcript_for(SchemeId.A, 2, 3))
        # per receiver, the secret replay of its map alone, then the noise
        # replay of its reduced map alone
        want = [("v2", True, [True, False]), ("u", True, [True, False]),
                ("v1", True, [False, True]), ("u", True, [False, True])]
        assert calls == want
        calls.clear()
        verify.run_trial(variant(SchemeId.A), AntennaConfig(2, 3), seed=7)
        assert calls == want
        calls.clear()
        verify.run_trial(variant(SchemeId.A), AntennaConfig(2, 3), seed=7, with_oracle=False)
        assert calls == []


#: Every spec row at each of these configurations where its regime allows
#: it, and the three mutants of scheme A, seed 7: the cases the slot-by-slot
#: products are checked against the dense reference on.
SLOT_PRODUCT_CONFIGS = [(2, 3), (4, 4), (4, 5), (3, 5)]

#: Largest relative difference allowed between a reduced map formed slot by
#: slot and the dense one: the sums differ only in the lift's zero terms.
REDUCED_MAP_RTOL = 1e-12


def slot_product_transcripts(configs=SLOT_PRODUCT_CONFIGS, seeds=(7,)):
    for (m, n), seed in itertools.product(configs, seeds):
        for (scheme, tx1_only), spec in schemes.SPECS.items():
            if spec.phases == "single-slot" and m < n:
                continue  # scheme B needs m >= n
            yield (scheme, m, n, tx1_only, seed), schemes.run(spec, AntennaConfig(m, n), seed=seed)
        for mutation in schemes.MUTATIONS:
            yield (SchemeId.A, m, n, mutation, seed), transcript_for(
                SchemeId.A, m, n, seed, mutation=mutation)


def _block_residuals(monkeypatch, transcript):
    """``(noise, secret, rows, residual)`` of every receiver whose block
    solve reached the guard, the residual being the one the guard read."""
    solved, residuals = [], []
    block, guard = verify._solved_contained, verify._bounds_cleared

    def block_spy(noise, secret, rows, blocks, scale):
        solved.append((noise, secret, rows))
        return block(noise, secret, rows, blocks, scale)

    def guard_spy(noise_norms, secret, weakest, residual, scale):
        residuals.append((*solved[-1], residual))
        return guard(noise_norms, secret, weakest, residual, scale)

    with monkeypatch.context() as patch:
        patch.setattr(verify, "_solved_contained", block_spy)
        patch.setattr(verify, "_bounds_cleared", guard_spy)
        verify.equivocation_subspace_check(transcript)
    return residuals


class TestSlotProducts:
    def test_reduced_maps_match_dense(self, monkeypatch):
        """The decoder's reduced systems, whose rate ranks the rank report
        reads, and the report's leakage maps, formed from slot blocks,
        against the dense map times the scattered block diagonal: to
        REDUCED_MAP_RTOL, and of the same rank at the cut."""
        products = []
        times = matcore.times_block_diagonal
        monkeypatch.setattr(matcore, "times_block_diagonal",
                            lambda *args: products.append(times(*args)) or products[-1])
        order = ("decode_rx1", "decode_rx2", "leak_rx2", "leak_rx1")
        for case, transcript in slot_product_transcripts():
            products.clear()
            report_for(transcript)
            assert len(products) == len(order), case
            want = reduced_maps(transcript)
            for name, got in zip(order, products):
                dense, scale = want[name]
                assert got.shape == dense.shape, (case, name)
                diff = np.linalg.norm(got - dense)
                assert diff <= REDUCED_MAP_RTOL * np.linalg.norm(dense), (case, name, diff)
                assert matcore.rank(got, scale).value == matcore.rank(dense, scale).value, (
                    case, name)

    def test_block_solve_residual_matches_all_rows(self, monkeypatch):
        """The block solve's residual, from the unsolved rows and the
        secret's slot blocks, against the residual over every row: within
        REDUCED_MAP_RTOL of the secret's norm, since the solved rows hold
        only the inverse's round-off."""
        reached = 0
        for case, transcript in slot_product_transcripts():
            residuals = _block_residuals(monkeypatch, transcript)
            for noise, secret, rows, residual in residuals:
                diff = abs(residual - all_rows_residual(noise, secret, rows))
                assert diff <= REDUCED_MAP_RTOL * np.linalg.norm(secret), (case, diff)
            reached += len(residuals)
        # every receiver with a square, invertible block: A, D, theta1_zero
        # (one receiver; the other's block is zero) and phi1_zero at every
        # configuration, B(4,4), and both C rows at (4,4), where 2m - n = n
        # makes C's block square too
        assert reached == 34


#: Configurations of the leak exit's cross-check corpus, each at seeds 1 to
#: 3: every spec row where its regime allows it and the three mutants.
LEAK_EXIT_CONFIGS = [(2, 3), (3, 4), (4, 4), (4, 5), (3, 5)]


def _contained_calls(monkeypatch, transcript):
    """Every ``columns_contained`` call of one oracle run, as ``(noise,
    secret, scale, verdict, ranked)``, ``ranked`` being the column counts of
    the matrices ``matcore.rank`` was asked about during the call."""
    calls, ranked = [], []
    contained, rank = verify.columns_contained, matcore.rank

    def contained_spy(noise, secret, scale=0.0, solved=None):
        ranked.clear()
        verdict = contained(noise, secret, scale, solved)
        calls.append((noise, secret, scale, verdict, list(ranked)))
        return verdict

    with monkeypatch.context() as patch:
        patch.setattr(verify, "columns_contained", contained_spy)
        patch.setattr(matcore, "rank",
                      lambda a, scale=0.0: ranked.append(np.shape(a)[1]) or rank(a, scale))
        verify.equivocation_subspace_check(transcript)
    return calls


class TestLeakExitCorpus:
    def test_every_oracle_call_matches_the_reference(self, monkeypatch):
        """Each verdict equals the reference at the call's scale, and each
        leak is proved by the certificate: the noise rank is the only rank
        taken, with no joint SVD."""
        leaks = 0
        for case, transcript in slot_product_transcripts(LEAK_EXIT_CONFIGS, (1, 2, 3)):
            calls = _contained_calls(monkeypatch, transcript)
            assert len(calls) == 2, case
            for rx, (noise, secret, scale, verdict, ranked) in enumerate(calls):
                assert verdict == reference_contained(noise, secret, scale), (case, rx)
                if not verdict:
                    leaks += 1
                    assert ranked == [noise.shape[1]], (case, rx)
        # 9 a configuration and seed: both receivers of C, of C's tx1-only
        # row, of E and of skip_phase1, and receiver 2 of theta1_zero; but
        # 5 at (4,4), where C's two rows have no defect
        assert leaks == 3 * (4 * 9 + 5)

    def test_eigenvectors_are_orthonormal_within_the_inflation(self, monkeypatch):
        """The scale inflation assumes ``||V^H V - I||_2 <= 2 slack``, ``slack
        = 32 (k + w) u``; on the corpus's leaks the eigenvectors are
        orthonormal to within a few ``k u``."""
        u = matcore.UNIT_ROUNDOFF
        for case, transcript in slot_product_transcripts(LEAK_EXIT_CONFIGS, (1,)):
            for noise, secret, scale, verdict, _ in _contained_calls(monkeypatch, transcript):
                r, k = matcore.rank(noise, scale).value, noise.shape[1]
                if verdict or not r:
                    continue
                vectors = np.linalg.eigh(noise.conj().T @ noise)[1][:, k - r:]
                drift = np.linalg.norm(vectors.conj().T @ vectors - np.eye(r), 2)
                assert drift <= 8 * k * u <= 2 * 32 * (k + secret.shape[1]) * u, case


#: The benchmark's configurations that ``AGREEMENT_CASES`` leaves out, one
#: seed each: the ranks suite's A(3,4) and B(1,1), the mutant suite's A(2,3)
#: mutants, and the ladder's A(5,5) and A(6,6).
WORKLOAD_CASES = [
    (SchemeId.A, 3, 4, None, [7]),
    (SchemeId.B, 1, 1, None, [7]),
    (SchemeId.A, 2, 3, "theta1_zero", [7]),
    (SchemeId.A, 2, 3, "phi1_zero", [7]),
    (SchemeId.A, 2, 3, "skip_phase1", [7]),
    (SchemeId.A, 5, 5, None, [7]),
    (SchemeId.A, 6, 6, None, [7]),
]

#: Receivers whose containment the block solve decides, by agreement or
#: workload case; every other receiver is decided by the rank pair.  A, B
#: and D's block is square, ``(2m-n) t1`` wide; C's is not, E and
#: ``skip_phase1`` have no noise columns, and ``theta1_zero`` zeroes receiver
#: 2's block.
BLOCK_SOLVED = {
    (SchemeId.A, 2, 3, None): (True, True),
    (SchemeId.B, 4, 4, None): (True, True),
    (SchemeId.C, 2, 3, None): (False, False),
    (SchemeId.C, 2, 3, "tx1_only"): (False, False),
    (SchemeId.D, 2, 3, None): (True, True),
    (SchemeId.E, 2, 3, None): (False, False),
    (SchemeId.A, 4, 4, None): (True, True),
    (SchemeId.C, 4, 5, None): (False, False),
    (SchemeId.E, 4, 4, None): (False, False),
    (SchemeId.A, 3, 4, "theta1_zero"): (True, False),
    (SchemeId.A, 3, 4, "phi1_zero"): (True, True),
    (SchemeId.A, 3, 4, "skip_phase1"): (False, False),
    (SchemeId.A, 3, 4, None): (True, True),
    (SchemeId.B, 1, 1, None): (True, True),
    (SchemeId.A, 2, 3, "theta1_zero"): (True, False),
    (SchemeId.A, 2, 3, "phi1_zero"): (True, True),
    (SchemeId.A, 2, 3, "skip_phase1"): (False, False),
    (SchemeId.A, 5, 5, None): (True, True),
    (SchemeId.A, 6, 6, None): (True, True),
}

#: Shapes of the reduced maps the decoders and the rank report hand to
#: ``matcore.rank``, by agreement or workload case and the same on every
#: seed: the maps that ``matcore.full_rank_certified`` cannot prove full
#: rank.  Scheme C's two leak maps are deficient by its defect, and
#: ``theta1_zero`` zeroes receiver 2's leak map.  ``phi1_zero`` starves
#: receiver 1's decode system, whose rank the refusing SVD solve decides.
#: E's and ``skip_phase1``'s leak maps have no columns, rank 0 with no SVD;
#: every map of A, B and D is certified, and C's tall decode systems are
#: decided by the solve's own SVD.
REPORT_RANKED = {
    (SchemeId.C, 2, 3, None): [(6, 9), (6, 9)],
    (SchemeId.C, 2, 3, "tx1_only"): [(6, 9), (6, 9)],
    (SchemeId.C, 4, 5, None): [(60, 75), (60, 75)],
    (SchemeId.A, 3, 4, "theta1_zero"): [(32, 32)],
    (SchemeId.A, 2, 3, "theta1_zero"): [(9, 9)],
}

#: Least ratio between the bounds the block solve proves on the ``k``-th and
#: the ``(k+1)``-th singular value of ``[noise | secret]``: the evidence
#: that its containment verdict is no tolerance accident.
BLOCK_SOLVE_GAP = 1e6


def _oracle_exits(monkeypatch, transcript):
    """The oracle's verdicts and, per receiver, the block solve's guard
    arguments ``(noise_norms, secret, weakest, residual, scale)`` where it
    decided, else None."""
    solved = []
    block, guard = verify._solved_contained, verify._bounds_cleared

    def solved_spy(noise, secret, rows, blocks, scale):
        seen = []

        def guard_spy(noise_norms, secret, weakest, residual, scale):
            seen.append((noise_norms, secret, weakest, residual, scale))
            return guard(noise_norms, secret, weakest, residual, scale)

        monkeypatch.setattr(verify, "_bounds_cleared", guard_spy)
        try:
            decided = block(noise, secret, rows, blocks, scale)
        finally:
            monkeypatch.setattr(verify, "_bounds_cleared", guard)
        solved.append(seen[0] if decided == 3 else None)
        return decided

    monkeypatch.setattr(verify, "_solved_contained", solved_spy)
    verdicts = verify.equivocation_subspace_check(transcript)
    monkeypatch.setattr(verify, "_solved_contained", block)
    return verdicts, solved


class TestBlockSolve:
    def test_exit_and_margins_of_every_agreement_case(self, monkeypatch):
        cut = matcore.REL_TOL
        for case, transcript in agreement_transcripts(WORKLOAD_CASES):
            verdicts, solved = _oracle_exits(monkeypatch, transcript)
            assert tuple(entry is not None for entry in solved) == BLOCK_SOLVED[case[:4]], case
            assert verdicts == dense_oracle(transcript), case
            for noise_norms, secret, weakest, residual, scale in filter(None, solved):
                secret_norms = np.linalg.norm(secret, axis=0)
                largest_cut = cut * max(
                    np.hypot(np.linalg.norm(noise_norms), np.linalg.norm(secret_norms)), scale)
                smallest_cut = cut * max(noise_norms.max(), secret_norms.max(), scale)
                assert weakest > largest_cut, case
                assert residual * verify.CONTAINMENT_GUARD <= smallest_cut, case
                assert weakest >= BLOCK_SOLVE_GAP * residual, (case, weakest / residual)

    def test_joint_rank_runs_only_where_no_exit_decides(self, monkeypatch):
        shapes, eighs = [], []
        rank, eigh = matcore.rank, np.linalg.eigh
        a44, c45 = transcript_for(SchemeId.A, 4, 4), transcript_for(SchemeId.C, 4, 5)
        e44 = transcript_for(SchemeId.E, 4, 4)
        monkeypatch.setattr(matcore, "rank", lambda a, *args: shapes.append(np.shape(a))
                            or rank(a, *args))
        monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(np.shape(a)) or eigh(a))
        assert verify.equivocation_subspace_check(a44) == (True, True)
        assert shapes == [] and eighs == []  # the block solve decided
        assert verify.equivocation_subspace_check(c45) == (False, False)
        # per receiver the whole reduced map, the other fresh phase's 60 x 75
        # block and the final phase's 45 rows; the certificate proves the
        # leak, so the joint matrix with the 96 secret columns is never ranked
        assert shapes == [(105, 75)] * 2 and eighs == [(75, 75)] * 2
        shapes.clear()
        eighs.clear()
        assert verify.equivocation_subspace_check(e44) == (False, False)
        # no noise columns: rank 0 with no SVD, and the probe is the secret
        # column alone, with no eigenvector
        assert shapes == [(128, 0)] * 2 and eighs == []

    def test_guard_refusal_reuses_the_bounds(self, monkeypatch):
        # with the guard band out of reach the block solve refuses A(4,4)'s
        # containments, but its bounds still prove the noise rank and rule
        # out a leak: no rank of the noise and no eigh of the leak exit, and
        # the joint SVD gives the same verdicts
        transcript = transcript_for(SchemeId.A, 4, 4)
        want = verify.equivocation_subspace_check(transcript)
        shapes, eighs = [], []
        rank, eigh = matcore.rank, np.linalg.eigh
        monkeypatch.setattr(verify, "CONTAINMENT_GUARD", 1e30)
        monkeypatch.setattr(matcore, "rank", lambda a, *args: shapes.append(np.shape(a))
                            or rank(a, *args))
        monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(np.shape(a)) or eigh(a))
        verdicts, solved = _oracle_exits(monkeypatch, transcript)
        assert verdicts == want == (True, True)
        assert solved == [None, None]  # the guard refused both
        # per receiver the joint matrix alone: 128 rows, 64 noise columns and
        # 128 secret columns
        assert shapes == [(128, 192)] * 2 and eighs == []

    def test_singular_or_non_square_blocks_fall_through(self, joint_rank_calls):
        rng = np.random.default_rng(8)
        a = _gaussian(rng, 30, 8)
        s, blocks = _spanned_secret(rng, a, slice(0, 8), (1, 8, 3))
        assert verify.columns_contained(a, s, solved=(slice(0, 8), blocks))
        assert joint_rank_calls == []  # the block solve decided: no rank at all
        singular = a.copy()
        singular[:8] = 0.0
        for rows in (slice(0, 7), slice(0, 8)):
            joint_rank_calls.clear()
            # the secret's rows in ``rows`` are zero: block diagonal for any slots
            secret = singular @ _gaussian(rng, 8, 3)
            zeros = np.zeros((1, rows.stop, 3), dtype=complex)
            assert verify.columns_contained(singular, secret, solved=(rows, zeros))
            assert joint_rank_calls == [8, 11]  # the rank pair decided

    def test_block_solve_leaves_a_leak_to_the_certificate(self, joint_rank_calls):
        rng = np.random.default_rng(9)
        a, s = _gaussian(rng, 30, 8), _gaussian(rng, 30, 2)
        # rows 4 to 12 are two slots of 4 rows, each meeting its own column
        blocks = _gaussian(rng, 8, 1).reshape(2, 4, 1)
        s[4:12] = _slot_diagonal(blocks)
        assert not reference_contained(a, s)
        assert not verify.columns_contained(a, s, solved=(slice(4, 12), blocks))
        # the block's bound proves the noise rank and the certificate the
        # leak: no SVD at all
        assert joint_rank_calls == []


@pytest.mark.slow
def test_large_configuration_a88(monkeypatch):
    # opt-in (-m slow): the ladder's next rung, against the whole-map oracle
    calls, certified, solves, stacks = [], [], [], []
    rank, certify, rank_value = matcore.rank, matcore.full_rank_certified, matcore.rank_value
    svd_solve = matcore.solve_full_column_rank

    def certify_spy(a, scale=0.0):
        passed = certify(a, scale)
        certified.append((np.shape(a), scale > 0, passed))
        return passed

    monkeypatch.setattr(matcore, "rank", lambda *args: calls.append(1) or rank(*args))
    monkeypatch.setattr(matcore, "full_rank_certified", certify_spy)
    def rank_value_spy(a, scale=0.0):
        got = rank_value(a, scale)
        if np.ndim(a) == 3:  # a stack: each matrix as rank decides it alone
            stacks.append(np.shape(a))
            assert got.tolist() == [rank(one, scale).value for one in a]
        return got

    monkeypatch.setattr(matcore, "rank_value", rank_value_spy)
    products = []
    times = matcore.times_block_diagonal

    def times_spy(left, blocks):
        product = times(left, blocks)
        products.append(product.shape)
        return product

    monkeypatch.setattr(matcore, "times_block_diagonal", times_spy)
    transcript = transcript_for(SchemeId.A, 8, 8, seed=1)
    assert calls == []  # all four precoders certified without an SVD
    # the state draw's stack of 16 x 16 slots by one certificate at their
    # own cuts, with no batched SVD; then each precoder from its 512 x 512
    # top block, at the whole candidate's scale
    horizon = transcript.states.horizon
    assert certified == [((horizon, 16, 16), False, True)] + [((512, 512), True, True)] * 4
    assert stacks == [(horizon, 16, 16)]
    certified.clear()
    monkeypatch.setattr(matcore, "solve_full_column_rank",
                        lambda a, b, scale: solves.append(1) or svd_solve(a, b, scale))
    report = report_for(transcript)
    assert report.rate_ranks == (report.rate_target,) * 2
    # both receivers' 512 x 512 reduced systems certified at G's scale and
    # solved by LU, then the report's two leakage maps certified: no SVD
    assert certified == [((512, 512), True, True)] * 4
    assert calls == [] and solves == []
    # the decoder's two reduced systems and the report's two leakage maps,
    # each formed slot by slot
    assert products == [(512, 512)] * 4
    for receiver in (Node.RX1, Node.RX2):
        assert decode_error(transcript, receiver) < 1e-6
    monkeypatch.setattr(matcore, "rank", rank)
    verdicts, solved = _oracle_exits(monkeypatch, transcript)
    assert verdicts == dense_oracle(transcript) == (True, True)
    assert all(entry is not None for entry in solved)
    # the residual from the unsolved rows keeps the all-rows one's margin
    residuals = _block_residuals(monkeypatch, transcript)
    assert len(residuals) == 2
    for noise, secret, rows, residual in residuals:
        assert abs(residual / all_rows_residual(noise, secret, rows) - 1) <= 0.01


def _gaussian(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _slot_diagonal(blocks):
    """The block-diagonal rows with ``(t, r, w)`` slot blocks ``blocks``:
    slot ``s``'s ``r`` rows meet only the ``w`` columns from ``s * w``, as
    the oracle's secret map does in the other receiver's fresh phase
    (``w = 2m``, slot ``s``'s inputs)."""
    t, r, w = blocks.shape
    out = np.zeros((t, r, t, w), dtype=complex)
    out[np.arange(t), :, np.arange(t)] = blocks
    return out.reshape(t * r, t * w)


def _spanned_secret(rng, a, rows, shape, scale=1.0):
    """A secret in the column span of ``a`` whose rows ``rows`` are block
    diagonal, with random slot blocks of ``shape`` ``(t, r, w)`` and
    entries of size ``scale``: ``(secret, blocks)``.  Those rows are set
    exactly, the others are ``a`` times the solution of the block."""
    t, r, w = shape
    blocks = scale * _gaussian(rng, t * r, w).reshape(shape)
    solved = _slot_diagonal(blocks)
    secret = a @ np.linalg.solve(a[rows], solved)
    secret[rows] = solved
    return secret, blocks


@pytest.fixture
def joint_rank_calls(monkeypatch):
    """Column counts of every matrix ``matcore.rank`` is asked about."""
    cols = []
    rank = matcore.rank

    def spy(a, scale=0.0):
        cols.append(np.shape(a)[1])
        return rank(a, scale)

    monkeypatch.setattr(matcore, "rank", spy)
    return cols


class TestColumnsContained:
    @pytest.mark.parametrize("shape,spread", [
        ((12, 9), 0), ((105, 75), 0), ((30, 8), 12), ((1, 5), 3), ((0, 3), 0), ((4, 0), 0),
    ])
    def test_column_norms_match_numpy(self, shape, spread):
        # the guard's column norms from the real and imaginary views, on
        # columns whose scales spread over 10**(2 * spread)
        rng = np.random.default_rng(3)
        x = _gaussian(rng, *shape) * 10.0 ** rng.uniform(-spread, spread, shape[1])
        got, want = verify._column_norms(x), np.linalg.norm(x, axis=0)
        assert got.shape == want.shape == (shape[1],)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)

    def test_contained_span(self, joint_rank_calls):
        rng = np.random.default_rng(1)
        a = _gaussian(rng, 30, 8)
        s, blocks = _spanned_secret(rng, a, slice(0, 8), (1, 8, 5))
        assert reference_contained(a, s)
        assert verify.columns_contained(a, s, solved=(slice(0, 8), blocks))
        assert joint_rank_calls == []  # the block solve decided: no SVD
        assert verify.columns_contained(a, s)
        assert joint_rank_calls == [8, 13]  # without a block, the rank pair

    def test_random_secret_leaks(self, joint_rank_calls):
        rng = np.random.default_rng(2)
        a, s = _gaussian(rng, 30, 8), _gaussian(rng, 30, 5)
        assert not reference_contained(a, s)
        assert not verify.columns_contained(a, s)
        # the certificate proves the leak from the noise rank: no joint SVD
        assert joint_rank_calls == [8]

    def test_rank_deficient_noise_takes_rank_pair(self, joint_rank_calls):
        # a containment takes the rank pair; a leak is proved from the noise
        # rank and its top 4 eigenvectors, with no joint SVD
        rng = np.random.default_rng(3)
        a = _gaussian(rng, 30, 4) @ _gaussian(rng, 4, 8)  # rank 4 of 8 columns
        for s, want, calls in ((a @ _gaussian(rng, 8, 3), True, [8, 11]),
                               (_gaussian(rng, 30, 3), False, [8])):
            joint_rank_calls.clear()
            assert reference_contained(a, s) is want
            assert verify.columns_contained(a, s) is want
            assert joint_rank_calls == calls

    @pytest.mark.parametrize("offset", [1e-9, 1e-10, 1e-8])
    def test_residual_in_guard_band_falls_back(self, joint_rank_calls, offset):
        # the residual is at least ``offset``, inside the guard band below the
        # unit cut, while the block's bound clears the largest cut
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(_gaussian(rng, 30, 9))
        a, out = q[:, :8], q[:, 8:]  # unit orthonormal columns
        s = a @ _gaussian(rng, 8, 1) / 3 + offset * out
        blocks = s[:8].reshape(1, 8, 1)  # one slot: any rows are block diagonal
        want = reference_contained(a, s)
        assert verify.columns_contained(a, s, solved=(slice(0, 8), blocks)) == want
        # the block's bound proved the noise rank: the joint SVD alone
        assert joint_rank_calls == [9]

    def test_noise_direction_lost_to_joint_cut_falls_back(self, joint_rank_calls):
        # a zero residual, but the noise direction 1e-8 is kept by its own
        # cut and dropped by the joint's, so the block's bound lies under
        # the largest cut and the joint rank falls short
        a = np.zeros((4, 2), dtype=complex)
        a[0, 0], a[1, 1] = 1.0, 1e-8
        s = np.array([1e3, 0, 0, 0], dtype=complex)[:, None]
        assert not reference_contained(a, s)
        blocks = s[:2].reshape(1, 2, 1)  # one slot: any rows are block diagonal
        assert not verify.columns_contained(a, s, solved=(slice(0, 2), blocks))
        assert joint_rank_calls == [2, 3]

    def test_round_off_noise_needs_the_scale_floor(self, joint_rank_calls):
        # a noise map left at round-off by an elimination: relative to its
        # own scale it has full rank, but against the scale of the
        # eliminated block it has rank 0
        rng = np.random.default_rng(6)
        a = 1e-16 * _gaussian(rng, 30, 8)
        rows = slice(0, 8)
        inside, inside_blocks = _spanned_secret(rng, a, rows, (1, 8, 3), scale=1e-16)
        # two slots of 4 rows, each meeting its own 4 columns
        outside, outside_blocks = _gaussian(rng, 30, 8), _gaussian(rng, 8, 4).reshape(2, 4, 4)
        outside[rows] = _slot_diagonal(outside_blocks)
        # a secret in its span: the block solve confirms it at the noise's
        # own scale; the scale floor puts the block's bound under the cut,
        # and the rank pair finds rank 0 on both sides
        assert verify.columns_contained(a, inside, solved=(rows, inside_blocks))
        assert joint_rank_calls == []
        assert verify.columns_contained(a, inside, scale=1.0, solved=(rows, inside_blocks))
        assert joint_rank_calls == [8, 11]
        # an O(1) secret of the same rank: the round-off swallows it at the
        # noise's own scale (the certificate cannot prove a leak, and the
        # rank pair finds 8 on both sides), and it leaks at the eliminated
        # block's, where the noise has rank 0 and the certificate proves it
        joint_rank_calls.clear()
        assert verify.columns_contained(a, outside, solved=(rows, outside_blocks))
        assert not verify.columns_contained(a, outside, scale=1.0, solved=(rows, outside_blocks))
        assert joint_rank_calls == [8, 16, 8]

    def test_secret_summing_to_zero_leaves_the_exit_undecided(self, joint_rank_calls):
        # two secret columns off the noise span that cancel in the probe's
        # equal-weight column: the exit proves nothing, and the joint SVD
        # finds the leak
        rng = np.random.default_rng(10)
        a, x = _gaussian(rng, 30, 8), _gaussian(rng, 30, 1)
        s = np.hstack([x, -x])
        assert not reference_contained(a, s)
        assert not verify._certified_leak(a, s, 8, 0.0)
        assert not verify.columns_contained(a, s)
        assert joint_rank_calls == [8, 10]

    @pytest.mark.parametrize("offset,calls", [
        (1e-5, [8]), (1e-8, [8, 9]), (1e-9, [8, 9]), (1e-10, [8, 9])])
    def test_leak_planted_around_the_joint_cut(self, joint_rank_calls, offset, calls):
        # as in test_residual_in_guard_band_falls_back, with no block: a
        # direction off the unit noise span of size ``offset``, above, at
        # and below the unit cut.  Only a leak well clear of the
        # certificate's round-off term (about 1e-6 here) is proved by it
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(_gaussian(rng, 30, 9))
        a, out = q[:, :8], q[:, 8:]  # unit orthonormal columns
        s = a @ _gaussian(rng, 8, 1) / 3 + offset * out
        assert verify.columns_contained(a, s) == reference_contained(a, s)
        assert joint_rank_calls == calls

    def test_secret_inside_rank_deficient_noise_is_never_a_leak(self):
        rng = np.random.default_rng(11)
        for trial in range(24):
            rank = 1 + trial % 6
            a = _gaussian(rng, 24, rank) @ _gaussian(rng, rank, 8)
            s = a @ _gaussian(rng, 8, 1 + trial % 3)
            for scale in (0.0, 1.0):
                assert matcore.rank(a, scale).value == rank
                assert not verify._certified_leak(a, s, rank, scale), (trial, scale)
                assert verify.columns_contained(a, s, scale), (trial, scale)
                assert reference_contained(a, s, scale), (trial, scale)

    def test_full_row_rank_noise_takes_no_probe(self, joint_rank_calls):
        # the joint rank cannot exceed the 6 rows: a wide probe would be
        # certified full row rank, which proves no leak
        rng = np.random.default_rng(12)
        a, s = _gaussian(rng, 6, 10), _gaussian(rng, 6, 3)
        assert reference_contained(a, s)
        assert not verify._certified_leak(a, s, 6, 0.0)
        assert verify.columns_contained(a, s)
        assert joint_rank_calls == [10, 13]

    def test_noise_without_columns(self, joint_rank_calls):
        rng = np.random.default_rng(5)
        empty = np.zeros((30, 0), dtype=complex)
        assert verify.columns_contained(empty, np.zeros((30, 4), dtype=complex))
        assert not verify.columns_contained(empty, _gaussian(rng, 30, 4))
        assert reference_contained(empty, np.zeros((30, 4))) and not reference_contained(
            empty, _gaussian(rng, 30, 4)
        )

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(4, 24),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_planted_overlap_matches_reference(self, rows, data, seed):
        cols = data.draw(st.integers(1, rows - 1), label="noise columns")
        rank = data.draw(st.integers(1, cols), label="noise rank")
        outside = data.draw(st.integers(0, min(3, rows - rank)), label="secret columns off span")
        inside = data.draw(st.integers(0, 3), label="secret columns in span")
        rng = np.random.default_rng(seed)
        a = _gaussian(rng, rows, rank) @ _gaussian(rng, rank, cols)
        s = np.hstack([a @ _gaussian(rng, cols, inside), _gaussian(rng, rows, outside)])
        want = reference_contained(a, s)
        assert want == (outside == 0)
        assert verify.columns_contained(a, s) == want

    @settings(max_examples=80, deadline=None)
    @given(
        rows=st.integers(2, 20),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_planted_leak_rank_and_scale_match_reference(self, rows, data, seed):
        # the leak exit never calls a leak the joint SVD would not: planted
        # noise rank, leak rank off the noise span, and a scale floor from
        # none to one that cuts the larger singular values
        cols = data.draw(st.integers(0, rows), label="noise columns")
        rank = data.draw(st.integers(0, cols), label="noise rank")
        width = data.draw(st.integers(1, 4), label="secret columns")
        leak = data.draw(st.integers(0, min(width, rows - rank)), label="leak rank")
        scale = data.draw(st.sampled_from([0.0, 1.0, 1e6, 1e9, 1e10]), label="scale")
        rng = np.random.default_rng(seed)
        a = _gaussian(rng, rows, rank) @ _gaussian(rng, rank, cols)
        s = a @ _gaussian(rng, cols, width) + _gaussian(rng, rows, leak) @ _gaussian(
            rng, leak, width)
        want = reference_contained(a, s, scale)
        if scale == 0.0:
            assert want == (leak == 0)
        assert verify.columns_contained(a, s, scale) == want


class TestEmpiricalDof:
    @pytest.mark.parametrize(
        "scheme,m,n,want",
        [
            (SchemeId.A, 2, 3, F(3, 4)),
            (SchemeId.B, 1, 1, F(1, 2)),
            (SchemeId.B, 4, 4, F(2)),
            (SchemeId.C, 2, 3, F(4, 7)),
            (SchemeId.D, 2, 3, F(3, 4)),
            (SchemeId.E, 2, 3, F(12, 7)),
        ],
    )
    def test_values(self, scheme, m, n, want):
        report = verify.run_trial(variant(scheme), AntennaConfig(m, n), seed=7, with_oracle=False)
        assert report.dof == want

    def test_matches_region_corner(self):
        from xsdof import regions

        def dof(scheme, m, n):
            spec = variant(scheme)
            report = verify.run_trial(spec, AntennaConfig(m, n), seed=7, with_oracle=False)
            return report.dof

        assert dof(SchemeId.A, 2, 3) == regions.symmetric_corner(2, 3, "asym-fb-dcsit").point[0]
        assert dof(SchemeId.D, 2, 3) == regions.symmetric_corner(2, 3, "sym-fb").point[0]
        assert dof(SchemeId.B, 4, 4) == regions.symmetric_corner(4, 4, "asym-fb").point[0]
        assert dof(SchemeId.C, 2, 3) == regions.symmetric_corner(2, 3, "asym-fb").point[0]
        assert dof(SchemeId.E, 2, 3) == regions.dof_symmetric_corner(2, 3)[0]


class TestMutants:
    def test_each_mutant_caught(self):
        config = AntennaConfig(2, 3)
        for mutation in schemes.MUTATIONS:
            for seed in range(5):
                assert verify.run_mutant(config, seed, mutation), (mutation, seed)

    def test_mutant_signatures(self):
        config = AntennaConfig(2, 3)
        out = verify.run_trial(variant(SchemeId.A), config, seed=0, mutation="theta1_zero")
        assert out.secrecy.leak_defects[1] > 0 and out.decode_ok
        out = verify.run_trial(variant(SchemeId.A), config, seed=0, mutation="phi1_zero")
        assert out.decode_errors[0] is None and not out.decoded[0]  # singular solve
        assert out.decoded[1] and out.secrecy.rate_ranks[0] < out.secrecy.rate_target
        # receiver 1's refused decode, as written out: derived from the pair
        record = out.to_jsonable()
        assert record["decode"]["rx1"] == {"ok": False, "relative_error": None}
        assert record["decode"]["rx2"]["ok"] is True
        assert out.dof is None and record["empirical_dof"] is None
        out = verify.run_trial(variant(SchemeId.A), config, seed=0, mutation="skip_phase1")
        assert out.secrecy.leak_defects[0] > 0 and out.secrecy.leak_defects[1] > 0
        assert out.decode_ok  # decoding survives, secrecy does not

    def test_decoder_crash_is_not_a_catch(self, monkeypatch):
        def crash(transcript, receiver):
            raise RuntimeError("decoder bug")

        monkeypatch.setattr(schemes, "decode", crash)
        with pytest.raises(RuntimeError, match="decoder bug"):
            verify.run_mutant(AntennaConfig(2, 3), 0, "phi1_zero")


class TestResample:
    def test_singular_decode_resamples_at_the_derived_seed(self, monkeypatch):
        decode = schemes.decode
        calls = []

        def singular_once(transcript, receiver):
            calls.append(receiver)
            if len(calls) == 1:
                raise SingularSystem("null-set draw")
            return decode(transcript, receiver)

        monkeypatch.setattr(schemes, "decode", singular_once)
        spec, config = variant(SchemeId.A), AntennaConfig(2, 3)
        report = verify.run_trial(spec, config, seed=7)
        assert report.attempts == 2 and report.seed == 7
        retry = schemes.run(spec, config, seed=verify._resample_seed(7, 1))
        errs = [decode_error(retry, rx) for rx in (Node.RX1, Node.RX2)]
        assert list(report.decode_errors) == errs
        assert report.decode_ok and report.dof == retry.plan.dof_target()
        assert report.secrecy == report_for(retry)
        oracle = verify.equivocation_subspace_check(retry)
        assert report.oracle == oracle
        first = schemes.run(spec, config, seed=7)
        assert decode_error(first, Node.RX1) != errs[0]  # the retry's own draw


    @pytest.mark.parametrize("mutation", [None, "phi1_zero"])
    @pytest.mark.parametrize("fault", ["generate_states", "draw_precoders", "encoder"])
    def test_singular_run_resamples_at_the_derived_seed(self, monkeypatch, fault, mutation):
        # a deficient state or precoder draw, or a singular reconstruction
        # solve of the encoder, fails the first attempt, mutant or not;
        # phi1_zero's singular decode is still recorded, not resampled
        spec, config = variant(SchemeId.A), AntennaConfig(2, 3)
        want = verify.run_trial(spec, config, seed=verify._resample_seed(7, 1), mutation=mutation)
        if fault == "encoder":
            calls = _singular_first_solves(monkeypatch, 1)
        else:
            calls = _deficient_first_draws(monkeypatch, fault, 1)
        report = verify.run_trial(spec, config, seed=7, mutation=mutation)
        assert report.attempts == 2 and report.seed == 7 and len(calls) > 1
        assert _outcome(report) == _outcome(want)
        assert report.decode_ok is (mutation is None)

    def test_resamples_run_out(self, monkeypatch):
        calls = _deficient_first_draws(monkeypatch, "generate_states", verify.MAX_RESAMPLES)
        with pytest.raises(SingularSystem, match="kept drawing singular systems"):
            verify.run_trial(variant(SchemeId.A), AntennaConfig(2, 3), seed=7)
        assert len(calls) == verify.MAX_RESAMPLES


class _ZeroRng:
    """A generator whose every draw is zero: any matrix drawn from it is
    rank deficient."""

    def standard_normal(self, shape):
        return np.zeros(shape)


def _deficient_first_draws(monkeypatch, name, draws):
    """Patch ``schemes.<name>``, a draw taking its generator last, so that
    its first ``draws`` calls draw from :class:`_ZeroRng`; returns the list
    of its calls."""
    draw, calls = getattr(schemes, name), []

    def deficient(*args):
        calls.append(args)
        return draw(*args[:-1], _ZeroRng() if len(calls) <= draws else args[-1])

    monkeypatch.setattr(schemes, name, deficient)
    return calls


def _singular_first_solves(monkeypatch, solves):
    """Make the encoder's first ``solves`` reconstruction solves raise
    :class:`SingularSystem`; returns the list of its solves."""
    solve, calls = knowledge.solve_full_column_rank, []

    def singular(*args):
        calls.append(args)
        if len(calls) <= solves:
            raise SingularSystem("singular reconstruction")
        return solve(*args)

    monkeypatch.setattr(knowledge, "solve_full_column_rank", singular)
    return calls


def _outcome(report):
    """A trial report as written out, less its seed and attempt count."""
    out = report.to_jsonable()
    del out["seed"], out["attempts"]
    return out


@pytest.fixture(scope="module")
def clean_reports():
    """One real A(2,3) and E(2,3) trial: rate 12/12 both, defects 0 and 9."""
    config = AntennaConfig(2, 3)
    return {s: verify.run_trial(variant(s), config, seed=7) for s in (SchemeId.A, SchemeId.E)}


#: The pair behind each field a flip names by its JSON key, less the receiver.
PAIRS = {"rate_rank": "rate_ranks", "leak_defect": "leak_defects", "oracle": "oracle"}


def _flip(report, field, value):
    """``report`` with one receiver's entry of one pair set to ``value``;
    ``field`` is ``[secrecy.]<key>_rx<j>``, naming receiver ``j``'s entry."""
    owner, _, key = field.rpartition(".")
    name, rx = key.rsplit("_rx", 1)
    target = report.secrecy if owner else report
    pair = list(getattr(target, PAIRS[name]))
    pair[int(rx) - 1] = value
    flipped = dataclasses.replace(target, **{PAIRS[name]: tuple(pair)})
    return dataclasses.replace(report, secrecy=flipped) if owner else flipped


AGREE, RATE, ZERO, NEG = "report/oracle agreement", "rate ranks", "zero leakage", "negative control"


class TestClaimChecks:
    def test_clean_reports(self, clean_reports):
        def fields(r):
            s = r.secrecy
            return (*s.rate_ranks, s.rate_target, *s.leak_defects, *r.oracle)

        assert fields(clean_reports[SchemeId.A]) == (12, 12, 12, 0, 0, True, True)
        assert fields(clean_reports[SchemeId.E]) == (12, 12, 12, 9, 9, False, False)

    @pytest.mark.parametrize("leakage,names", [
        ("zero", [RATE, AGREE, ZERO]),
        ("advisory", [RATE, AGREE]),
        ("positive", [RATE, AGREE, NEG]),
    ])
    def test_check_names_per_claim(self, clean_reports, leakage, names):
        checks = verify.claim_checks([clean_reports[SchemeId.A]], leakage)
        assert [name for name, _ in checks] == names

    @pytest.mark.parametrize("scheme,leakage,field,value,failed", [
        (SchemeId.A, "zero", None, None, set()),
        (SchemeId.A, "advisory", None, None, set()),
        (SchemeId.A, "positive", None, None, {NEG}),
        (SchemeId.A, "zero", "secrecy.rate_rank_rx1", 11, {RATE}),
        (SchemeId.A, "advisory", "secrecy.rate_rank_rx2", 11, {RATE}),
        (SchemeId.A, "zero", "secrecy.leak_defect_rx2", 1, {ZERO, AGREE}),
        (SchemeId.A, "advisory", "secrecy.leak_defect_rx1", 1, {AGREE}),
        (SchemeId.A, "zero", "oracle_rx1", False, {AGREE}),
        (SchemeId.A, "zero", "oracle_rx2", None, set()),
        (SchemeId.E, "positive", None, None, set()),
        (SchemeId.E, "advisory", None, None, set()),
        (SchemeId.E, "zero", None, None, {ZERO}),
        (SchemeId.E, "positive", "secrecy.rate_rank_rx2", 11, {RATE}),
        (SchemeId.E, "positive", "secrecy.leak_defect_rx1", 0, {NEG, AGREE}),
        (SchemeId.E, "positive", "oracle_rx2", True, {AGREE}),
        (SchemeId.E, "positive", "oracle_rx1", None, set()),
    ])
    def test_one_flipped_field(self, clean_reports, scheme, leakage, field, value, failed):
        report = clean_reports[scheme]
        if field is not None:
            report = _flip(report, field, value)
        checks = verify.claim_checks([clean_reports[scheme], report], leakage)
        assert {name for name, passed in checks if not passed} == failed
