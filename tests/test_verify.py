"""Verifier tests: rank identities, the subspace oracle, and their agreement."""

import dataclasses
import importlib
import pkgutil
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xsdof
from dense_reference import dense_decode, dense_oracle, dense_ranks, stacked_matrices
from dense_reference import carried_map as dense_carried_map
from xsdof import channel, matcore, schemes, verify
from xsdof.channel import AntennaConfig, lift_rows
from xsdof.errors import DecodeFailure, IllConditioned, InvalidTranscript, SingularSystem
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
    except (SingularSystem, IllConditioned, DecodeFailure) as exc:
        return type(exc)


def _check_carried_maps(case, transcript) -> set:
    """Check ``schemes.carried_map`` from slot blocks against the dense lift
    times the precoder, for every precoder and both receivers; returns the
    ``(carrier, column count > 0)`` pairs checked."""
    m = transcript.config.effective_m
    ranges = transcript.phase_ranges()
    blocks = transcript.states.slot_blocks(m)
    seen = set()
    for name, phase in PRECODER_PHASES.items():
        slots = ranges[phase]
        for rx in (1, 2):
            got = schemes.carried_map(transcript, blocks[rx - 1, np.asarray(slots) - 1], name)
            lifted = lift_rows(transcript.states.rows(rx, slots), m)
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
                got = _decoded(schemes.decode, transcript, receiver)
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
            assert report.decode_ok and report.oracle_rx1 is not None, (spec, mutation)


class TestSecrecyRankReport:
    def test_scheme_a_dimensions_and_targets(self):
        report = verify.secrecy_rank_report(transcript_for(SchemeId.A, 2, 3))
        audited = {name: (r, c) for name, r, c in report.matrices_audited}
        assert audited["rate_rx1"] == (12, 12)  # n*t2 + n*t3 rows, 2m*t2 columns
        assert audited["leak_rx2"] == (36, 36)  # n*(t1+t2) square
        assert report.rate_target == 12
        assert report.rate_rank_rx1 == 12 and report.rate_rank_rx2 == 12
        assert report.leak_defect_rx1 == 0 and report.leak_defect_rx2 == 0
        assert not report.advisory

    def test_scheme_b_targets(self):
        for m, n in [(1, 1), (4, 4)]:
            report = verify.secrecy_rank_report(transcript_for(SchemeId.B, m, n))
            assert report.rate_target == 2 * n
            assert report.rate_rank_rx1 == 2 * n and report.rate_rank_rx2 == 2 * n
            assert report.leak_defect_rx1 == 0 and report.leak_defect_rx2 == 0

    def test_scheme_d_matches_a(self):
        ra = verify.secrecy_rank_report(transcript_for(SchemeId.A, 2, 3))
        rd = verify.secrecy_rank_report(transcript_for(SchemeId.D, 2, 3))
        assert (rd.rate_rank_rx1, rd.rate_rank_rx2) == (ra.rate_rank_rx1, ra.rate_rank_rx2)
        assert (rd.leak_defect_rx1, rd.leak_defect_rx2) == (0, 0)

    def test_scheme_c_advisory_defect(self):
        # the feedback-only construction cannot cloak (n - m)*t2 dimensions:
        # its fresh-phase mixing rides on one transmitter's m antennas only
        report = verify.secrecy_rank_report(transcript_for(SchemeId.C, 2, 3))
        assert report.advisory
        assert report.rate_rank_rx1 == report.rate_target == 8
        assert report.leak_defect_rx1 == 2 and report.leak_defect_rx2 == 2

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
        report = verify.secrecy_rank_report(transcript)
        assert (report.leak_defect_rx1, report.leak_defect_rx2) == (9, 9)
        assert dense_ranks(transcript)[2:] == (9, 9)
        assert verify.equivocation_subspace_check(transcript) == (False, False)
        assert dense_oracle(transcript) == (False, False)

    def test_scheme_e_negative_control(self):
        report = verify.secrecy_rank_report(transcript_for(SchemeId.E, 2, 3))
        assert report.advisory
        assert report.leak_defect_rx1 == 9 and report.leak_defect_rx2 == 9

    def test_tolerance_insensitivity(self):
        # the rank decisions hold at 1e-7 and 1e-11 just as at 1e-9
        transcript = transcript_for(SchemeId.A, 2, 3)
        base = verify.secrecy_rank_report(transcript)
        for tol in (1e-7, 1e-11):
            other = verify.secrecy_rank_report(transcript, rel_tol=tol)
            assert (other.rate_rank_rx1, other.rate_rank_rx2) == (
                base.rate_rank_rx1,
                base.rate_rank_rx2,
            )
            assert (other.leak_defect_rx1, other.leak_defect_rx2) == (
                base.leak_defect_rx1,
                base.leak_defect_rx2,
            )

    def test_incomplete_transcript_rejected(self):
        transcript = transcript_for(SchemeId.B, 1, 1)
        transcript.inputs = transcript.inputs[:-1]
        with pytest.raises(InvalidTranscript):
            verify.secrecy_rank_report(transcript)


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
        # A(2,3): t1 = 9 noise slots of 7; 2m - n = 1 null column per slot
        transcript = transcript_for(SchemeId.A, 2, 3)
        verdicts, seen = self._containment_inputs(monkeypatch, transcript)
        assert verdicts == (True, True)
        assert len(seen) == 2
        for noise, secret in seen:
            assert noise.shape == (21, 9) and secret.shape == (21, 12)
            assert secret.flags.owndata  # the rest of the replay is not kept alive

    def test_shared_noise_replay(self, monkeypatch):
        transcript = transcript_for(SchemeId.A, 2, 3, mutation="theta1_zero")
        groups = []
        replay = schemes.linear_response

        def counted(transcript, group):
            groups.append(group)
            return replay(transcript, group)

        monkeypatch.setattr(schemes, "linear_response", counted)
        verdicts, seen = self._containment_inputs(monkeypatch, transcript)
        assert verdicts == (True, False)
        assert groups.count("u") == 1  # one noise replay serves both receivers
        monkeypatch.setattr(schemes, "linear_response", replay)
        noise = replay(transcript, "u")
        p1 = 3 * 9
        # receiver 1 against v2, receiver 2 against v1, each on its own noise
        # half past phase 1, times the null bases of its own phase-1 blocks
        for (got_noise, got_secret), rx, group in zip(seen, (0, 1), ("v2", "v1")):
            rows = transcript.states.rows(rx + 1, range(1, 10))[..., :2]
            (g_null,) = matcore.slot_null_bases(rows.transpose(0, 2, 1, 3).reshape(1, 9, 3, 4))
            np.testing.assert_array_equal(got_noise, g_null.apply(noise[rx][p1:]))
            np.testing.assert_array_equal(got_secret, replay(transcript, group)[rx][p1:])

    @pytest.mark.parametrize("group,rx", [("v2", 0), ("v1", 1)])
    def test_secret_in_noise_phase_is_refused(self, monkeypatch, group, rx):
        replay = schemes.linear_response

        def leaky(transcript, name):
            maps = replay(transcript, name)
            if name == group:
                maps[rx][0, 0] = 1.0  # a secret symbol heard in slot 1
            return maps

        monkeypatch.setattr(schemes, "linear_response", leaky)
        with pytest.raises(InvalidTranscript, match="noise phase"):
            verify.equivocation_subspace_check(transcript_for(SchemeId.A, 2, 3))

    @pytest.mark.parametrize("group,rx,row", [("v2", 0, 0), ("v1", 1, 9)])
    def test_secret_in_own_fresh_phase_is_refused(self, monkeypatch, group, rx, row):
        # A(2,3): 27 noise-phase rows, then 9 rows for each fresh phase;
        # receiver 1's own is phase 2, receiver 2's phase 3
        replay = schemes.linear_response

        def leaky(transcript, name):
            maps = replay(transcript, name)
            if name == group:
                maps[rx][27 + row, 0] = 1e-300  # a trace at any scale is refused
            return maps

        monkeypatch.setattr(schemes, "linear_response", leaky)
        with pytest.raises(InvalidTranscript, match="own fresh phase"):
            verify.equivocation_subspace_check(transcript_for(SchemeId.A, 2, 3))

    @pytest.mark.parametrize("rx", [0, 1])
    def test_noise_across_slots_is_refused(self, monkeypatch, rx):
        replay = schemes.linear_response

        def smeared(transcript, name):
            maps = replay(transcript, name)
            if name == "u":
                maps[rx][0, 2] = 1.0  # slot 1's output reached by slot 2's noise
            return maps

        monkeypatch.setattr(schemes, "linear_response", smeared)
        with pytest.raises(InvalidTranscript, match="block diagonal"):
            verify.equivocation_subspace_check(transcript_for(SchemeId.A, 2, 3))

    def test_agreement_with_rank_report(self):
        for case, transcript in agreement_transcripts():
            report = verify.secrecy_rank_report(transcript)
            assert verify.equivocation_subspace_check(transcript) == (
                report.leak_defect_rx1 == 0,
                report.leak_defect_rx2 == 0,
            ), case

    @pytest.mark.parametrize("rel_tol", [1e-9, 1e-7, 1e-11])
    def test_reduced_matches_dense(self, rel_tol):
        # the slot-by-slot elimination against the stacked matrices and the
        # whole replayed maps, noise phase included
        for case, transcript in agreement_transcripts([(SchemeId.A, 5, 5, None, [7])]):
            report = verify.secrecy_rank_report(transcript, rel_tol)
            got = (report.rate_rank_rx1, report.rate_rank_rx2,
                   report.leak_defect_rx1, report.leak_defect_rx2)
            assert got == dense_ranks(transcript, rel_tol), case
            assert verify.equivocation_subspace_check(transcript, rel_tol) == dense_oracle(
                transcript, rel_tol
            ), case
            shapes = {name: mat.shape for name, mat in stacked_matrices(transcript).items()
                      if mat is not None}
            assert {name: (r, c) for name, r, c in report.matrices_audited
                    if name in shapes} == shapes, case

    def test_two_replays_per_receiver(self, monkeypatch):
        calls = []
        replay = schemes.linear_response

        def counted(*args, **kw):
            calls.append(1)
            return replay(*args, **kw)

        monkeypatch.setattr(schemes, "linear_response", counted)
        verify.equivocation_subspace_check(transcript_for(SchemeId.A, 2, 3))
        assert len(calls) == 3  # one shared noise replay, one secret replay per receiver
        calls.clear()
        verify.run_trial(variant(SchemeId.A), AntennaConfig(2, 3), seed=7)
        assert len(calls) == 3
        calls.clear()
        verify.run_trial(variant(SchemeId.A), AntennaConfig(2, 3), seed=7, with_oracle=False)
        assert calls == []


#: Receivers whose containment the block solve decides, by agreement case.
#: A, B and D's block is square, ``(2m-n) t1`` wide; C's is not, E and
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
    (SchemeId.A, 5, 5, None): (True, True),
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
    block, guard = verify._solved_contained, verify._clearly_contained

    def solved_spy(noise, secret, rows, rel_tol, scale):
        seen = []

        def guard_spy(noise_norms, secret, weakest, residual, rel_tol, scale):
            seen.append((noise_norms, secret, weakest, residual, scale))
            return guard(noise_norms, secret, weakest, residual, rel_tol, scale)

        monkeypatch.setattr(verify, "_clearly_contained", guard_spy)
        try:
            decided = block(noise, secret, rows, rel_tol, scale)
        finally:
            monkeypatch.setattr(verify, "_clearly_contained", guard)
        solved.append(seen[0] if decided else None)
        return decided

    monkeypatch.setattr(verify, "_solved_contained", solved_spy)
    verdicts = verify.equivocation_subspace_check(transcript)
    monkeypatch.setattr(verify, "_solved_contained", block)
    return verdicts, solved


class TestBlockSolve:
    def test_exit_and_margins_of_every_agreement_case(self, monkeypatch):
        rel_tol = matcore.DEFAULT_REL_TOL
        for case, transcript in agreement_transcripts([(SchemeId.A, 5, 5, None, [7])]):
            verdicts, solved = _oracle_exits(monkeypatch, transcript)
            assert tuple(entry is not None for entry in solved) == BLOCK_SOLVED[case[:4]], case
            assert verdicts == dense_oracle(transcript), case
            for noise_norms, secret, weakest, residual, scale in filter(None, solved):
                secret_norms = np.linalg.norm(secret, axis=0)
                largest_cut = rel_tol * max(
                    np.hypot(np.linalg.norm(noise_norms), np.linalg.norm(secret_norms)), scale)
                smallest_cut = rel_tol * max(noise_norms.max(), secret_norms.max(), scale)
                assert weakest > largest_cut, case
                assert residual * verify.CONTAINMENT_GUARD <= smallest_cut, case
                assert weakest >= BLOCK_SOLVE_GAP * residual, (case, weakest / residual)

    def test_qr_is_skipped_where_the_block_decides(self, monkeypatch):
        calls = []
        qr = matcore.qr
        monkeypatch.setattr(matcore, "qr", lambda a: calls.append(np.shape(a)) or qr(a))
        assert verify.equivocation_subspace_check(transcript_for(SchemeId.A, 4, 4)) == (True, True)
        assert calls == []
        assert verify.equivocation_subspace_check(transcript_for(SchemeId.C, 4, 5)) == (
            False, False)
        assert calls == [(165, 75), (165, 75)]  # the whole reduced map, 60 x 75 block

    def test_singular_or_non_square_blocks_fall_through(self, joint_rank_calls):
        rng = np.random.default_rng(8)
        a = _gaussian(rng, 30, 8)
        s = a @ _gaussian(rng, 8, 3)
        assert verify.columns_contained(a, s, rows=slice(0, 8))
        assert joint_rank_calls == []  # no QR, no rank at all
        singular = a.copy()
        singular[:8] = 0.0
        for rows in (slice(0, 7), slice(0, 8)):
            joint_rank_calls.clear()
            assert verify.columns_contained(singular, singular @ _gaussian(rng, 8, 3), rows=rows)
            assert joint_rank_calls == [8]  # the QR's base rank: the projection decided

    def test_block_solve_leaves_a_leak_to_the_rank_pair(self, joint_rank_calls):
        rng = np.random.default_rng(9)
        a, s = _gaussian(rng, 30, 8), _gaussian(rng, 30, 2)
        assert not verify.columns_contained(a, s, rows=slice(4, 12))
        assert joint_rank_calls == [8, 10]


@pytest.mark.slow
def test_large_configuration_a88(monkeypatch):
    # opt-in (-m slow): the ladder's next rung, against the whole-map oracle
    calls = []
    rank = matcore.rank
    monkeypatch.setattr(matcore, "rank", lambda *args: calls.append(1) or rank(*args))
    transcript = transcript_for(SchemeId.A, 8, 8, seed=1)
    assert calls == []  # all four precoders certified without an SVD
    monkeypatch.setattr(matcore, "rank", rank)
    verdicts, solved = _oracle_exits(monkeypatch, transcript)
    assert verdicts == dense_oracle(transcript) == (True, True)
    assert all(entry is not None for entry in solved)


def _reference_contained(a, s, tol=1e-9):
    """rank([A | S]) == rank(A), straight from numpy's SVD."""
    def rank(x):
        sv = np.linalg.svd(x, compute_uv=False) if x.size else np.zeros(0)
        return int(np.count_nonzero(sv > tol * sv[0])) if sv.size and sv[0] > 0 else 0
    return rank(np.hstack([a, s])) == rank(a)


def _gaussian(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


@pytest.fixture
def joint_rank_calls(monkeypatch):
    """Column counts of every matrix ``matcore.rank`` is asked about."""
    cols = []
    rank = matcore.rank

    def spy(a, rel_tol=matcore.DEFAULT_REL_TOL, scale=0.0):
        cols.append(np.shape(a)[1])
        return rank(a, rel_tol, scale)

    monkeypatch.setattr(matcore, "rank", spy)
    return cols


class TestColumnsContained:
    def test_contained_span(self, joint_rank_calls):
        rng = np.random.default_rng(1)
        a = _gaussian(rng, 30, 8)
        s = a @ _gaussian(rng, 8, 5)
        assert _reference_contained(a, s)
        assert verify.columns_contained(a, s)
        assert joint_rank_calls == [8]  # the base rank only: no joint SVD

    def test_random_secret_leaks(self, joint_rank_calls):
        rng = np.random.default_rng(2)
        a, s = _gaussian(rng, 30, 8), _gaussian(rng, 30, 5)
        assert not _reference_contained(a, s)
        assert not verify.columns_contained(a, s)
        assert joint_rank_calls == [8, 13]  # a leak is always confirmed by the rank pair

    def test_rank_deficient_noise_takes_rank_pair(self, joint_rank_calls):
        rng = np.random.default_rng(3)
        a = _gaussian(rng, 30, 4) @ _gaussian(rng, 4, 8)  # rank 4 of 8 columns
        for s, want in ((a @ _gaussian(rng, 8, 3), True), (_gaussian(rng, 30, 3), False)):
            joint_rank_calls.clear()
            assert _reference_contained(a, s) is want
            assert verify.columns_contained(a, s) is want
            assert joint_rank_calls == [8, 11]

    @pytest.mark.parametrize("offset", [1e-9, 1e-10, 1e-8])
    def test_residual_in_guard_band_falls_back(self, joint_rank_calls, offset):
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(_gaussian(rng, 30, 9))
        a, out = q[:, :8], q[:, 8:]  # unit orthonormal columns
        s = a @ _gaussian(rng, 8, 1) / 3 + offset * out
        assert verify.columns_contained(a, s) == _reference_contained(a, s)
        assert joint_rank_calls == [8, 9]

    def test_noise_direction_lost_to_joint_cut_falls_back(self, joint_rank_calls):
        # a zero residual, but the noise direction 1e-8 is kept by its own
        # cut and dropped by the joint's, so the joint rank falls short
        a = np.zeros((4, 2), dtype=complex)
        a[0, 0], a[1, 1] = 1.0, 1e-8
        s = np.array([1e3, 0, 0, 0], dtype=complex)[:, None]
        assert not _reference_contained(a, s)
        assert not verify.columns_contained(a, s)
        assert joint_rank_calls == [2, 3]

    def test_round_off_noise_needs_the_scale_floor(self, joint_rank_calls):
        # a noise map left at round-off by an elimination, against an O(1)
        # secret of the same rank: relative to its own scale the round-off
        # counts as full rank and swallows the secret, but against the scale
        # of the eliminated block it has rank 0 and the secret leaks
        rng = np.random.default_rng(6)
        a, s = 1e-16 * _gaussian(rng, 30, 8), _gaussian(rng, 30, 8)
        assert verify.columns_contained(a, s)
        joint_rank_calls.clear()
        assert not verify.columns_contained(a, s, scale=1.0)
        assert joint_rank_calls == [8, 16]

    def test_noise_without_columns(self, joint_rank_calls):
        rng = np.random.default_rng(5)
        empty = np.zeros((30, 0), dtype=complex)
        assert verify.columns_contained(empty, np.zeros((30, 4), dtype=complex))
        assert not verify.columns_contained(empty, _gaussian(rng, 30, 4))
        assert _reference_contained(empty, np.zeros((30, 4))) and not _reference_contained(
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
        want = _reference_contained(a, s)
        assert want == (outside == 0)
        assert verify.columns_contained(a, s) == want


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
        assert (report.dof_rx1, report.dof_rx2) == (want, want)

    def test_matches_region_corner(self):
        from xsdof import regions

        def dof(scheme, m, n):
            spec = variant(scheme)
            report = verify.run_trial(spec, AntennaConfig(m, n), seed=7, with_oracle=False)
            assert report.dof_rx1 == report.dof_rx2
            return report.dof_rx1

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
        assert out.secrecy.leak_defect_rx2 > 0 and out.decode_ok
        out = verify.run_trial(variant(SchemeId.A), config, seed=0, mutation="phi1_zero")
        assert out.decode_err_rx1 is None and not out.decode_ok_rx1  # singular solve
        assert out.decode_ok_rx2 and out.secrecy.rate_rank_rx1 < out.secrecy.rate_target
        out = verify.run_trial(variant(SchemeId.A), config, seed=0, mutation="skip_phase1")
        assert out.secrecy.leak_defect_rx1 > 0 and out.secrecy.leak_defect_rx2 > 0
        assert out.decode_ok  # decoding survives, secrecy does not

    def test_decoder_crash_is_not_a_catch(self, monkeypatch):
        def crash(transcript, receiver):
            raise RuntimeError("decoder bug")

        monkeypatch.setattr(schemes, "decode", crash)
        with pytest.raises(RuntimeError, match="decoder bug"):
            verify.run_mutant(AntennaConfig(2, 3), 0, "phi1_zero")


@pytest.fixture(scope="module")
def clean_reports():
    """One real A(2,3) and E(2,3) trial: rate 12/12 both, defects 0 and 9."""
    config = AntennaConfig(2, 3)
    return {s: verify.run_trial(variant(s), config, seed=7) for s in (SchemeId.A, SchemeId.E)}


def _flip(report, field, value):
    if field.startswith("secrecy."):
        secrecy = dataclasses.replace(report.secrecy, **{field.split(".")[1]: value})
        return dataclasses.replace(report, secrecy=secrecy)
    return dataclasses.replace(report, **{field: value})


AGREE, RATE, ZERO, NEG = "report/oracle agreement", "rate ranks", "zero leakage", "negative control"


class TestClaimChecks:
    def test_clean_reports(self, clean_reports):
        def fields(r):
            s = r.secrecy
            return (s.rate_rank_rx1, s.rate_rank_rx2, s.rate_target,
                    s.leak_defect_rx1, s.leak_defect_rx2, r.oracle_rx1, r.oracle_rx2)

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
