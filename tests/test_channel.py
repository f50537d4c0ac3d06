"""Channel model tests: state generation, the state array, the noiseless map, lifting."""

import numpy as np
import pytest

from dense_reference import loop_states, state_rows
from xsdof import channel, matcore
from xsdof.channel import (
    AntennaConfig,
    FeedbackModel,
    Regime,
    apply_channel,
    generate_states,
    lift_phase,
    lift_rows,
)
from xsdof.errors import InvalidInput, InvalidShape, SingularSystem


def make_states(m, n, horizon, seed=1):
    return generate_states(AntennaConfig(m, n), horizon, matcore.substream(seed, "states"))


class TestAntennaConfig:
    def test_regimes(self):
        assert AntennaConfig(1, 3).regime is Regime.DEGENERATE
        assert AntennaConfig(2, 3).regime is Regime.MID
        assert AntennaConfig(5, 4).regime is Regime.HIGH
        # boundaries fold into the smaller regime; formulas agree there
        assert AntennaConfig(2, 4).regime is Regime.DEGENERATE
        assert AntennaConfig(3, 3).regime is Regime.MID
        assert AntennaConfig(4, 4).regime is Regime.MID

    def test_effective_antennas(self):
        assert AntennaConfig(4, 2).effective_m == 2
        assert AntennaConfig(2, 3).effective_m == 2

    def test_rejects_zero(self):
        with pytest.raises(InvalidInput):
            AntennaConfig(0, 1)


class TestGenerateStates:
    def test_stacked_rank_every_slot(self):
        seq = make_states(2, 3, 16)
        assert seq.horizon == 16
        for t in range(1, 17):
            (h11, h12), (h21, h22) = seq[t]
            joint = channel.diagonal_blocks(seq[t], 2).reshape(6, 4)
            np.testing.assert_array_equal(joint, np.block([[h11, h12], [h21, h22]]))
            assert matcore.rank(joint).value == 4

    def test_high_regime_rank(self):
        seq = make_states(4, 3, 5)
        for slot in seq.blocks:
            assert matcore.rank(channel.diagonal_blocks(slot, 4).reshape(6, 8)).value == 6

    def test_singleton_horizon(self):
        assert make_states(2, 2, 1).horizon == 1

    def test_determinism(self):
        a, b = make_states(2, 3, 4, seed=9), make_states(2, 3, 4, seed=9)
        assert np.array_equal(a.blocks, b.blocks)

    def test_one_based_indexing(self):
        seq = make_states(1, 1, 3)
        assert seq[1].shape == (2, 2, 1, 1)
        assert np.array_equal(seq[1], seq.blocks[0])
        with pytest.raises(InvalidInput):
            seq[0]
        with pytest.raises(InvalidInput):
            seq[4]

    def test_array_and_views_agree(self):
        seq = make_states(3, 4, 5, seed=11)
        assert seq.blocks.shape == (5, 2, 2, 4, 3)
        assert not seq.blocks.flags.writeable
        assert seq.horizon == 5
        for t in range(1, 6):
            state = seq[t]
            assert np.shares_memory(state, seq.blocks) and not state.flags.writeable
            for j in (1, 2):
                for i in (1, 2):
                    assert np.array_equal(state[j - 1, i - 1], seq.blocks[t - 1, j - 1, i - 1])
            np.testing.assert_array_equal(state_rows(seq, 2, [t])[0], state[1])

    def test_slot_blocks_are_the_lift_diagonal(self):
        assert make_states(2, 3, 4, seed=12).slot_blocks().shape == (2, 4, 3, 4)
        seq = make_states(3, 2, 4, seed=12)  # the first effective_m = 2 antennas only
        blocks = seq.slot_blocks()
        assert blocks.shape == (2, 4, 2, 4)
        for j in (1, 2):
            rows = state_rows(seq, j, range(1, 5))
            lifted = lift_rows(rows, 2)
            assert np.array_equal(channel.diagonal_blocks(rows, 2), blocks[j - 1])
            for t in range(4):
                # slot t's rows meet its columns in both transmitters' stacks
                cols = np.r_[2 * t : 2 * t + 2, 8 + 2 * t : 8 + 2 * t + 2]
                assert np.array_equal(blocks[j - 1, t], lifted[2 * t : 2 * t + 2][:, cols])

    def test_draw_order_is_slot_then_block(self):
        # h11, h12, h21, h22 of slot 1, then slot 2: the order seeds depend on
        rng = matcore.substream(4, "states")
        seq = generate_states(AntennaConfig(2, 3), 2, matcore.substream(4, "states"))
        for t in (1, 2):
            for j, i in ((1, 1), (1, 2), (2, 1), (2, 2)):
                assert np.array_equal(seq[t][j - 1, i - 1], matcore.random_matrix(3, 2, rng))

    @pytest.mark.parametrize("horizon", [1, 16, 144])
    @pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (4, 3), (4, 5), (6, 6)])
    def test_batched_draw_matches_slot_loop(self, m, n, horizon):
        config = AntennaConfig(m, n)
        for seed in range(3):
            seq = generate_states(config, horizon, matcore.substream(seed, "states"))
            want = loop_states(config, horizon, matcore.substream(seed, "states"))
            assert seq.blocks.tobytes() == want.tobytes()

    def test_certified_draw_makes_no_rank_call(self, monkeypatch):
        certified, ranked = _spy_rank_checks(monkeypatch)
        monkeypatch.setattr(matcore, "rank", None)  # no per-slot rank is left
        make_states(2, 3, 16)
        # one stacked certificate proves every slot: no SVD at all
        assert certified == [(16, 6, 4)] and ranked == []


def _spy_rank_checks(monkeypatch):
    """The stack shapes handed to ``matcore.full_rank_certified`` and to the
    SVD, as two lists filled call by call; each ``matcore.rank_value`` of a
    stack is checked, matrix by matrix, against ``matcore.rank``."""
    certified, ranked = [], []
    certify, svd, rank_value = matcore.full_rank_certified, np.linalg.svd, matcore.rank_value
    rank = matcore.rank

    def certify_spy(a, *args):
        certified.append(np.shape(a))
        return certify(a, *args)

    def svd_spy(a, *args, **kwargs):
        ranked.append(np.shape(a))
        return svd(a, *args, **kwargs)

    def rank_value_spy(a, scale=0.0):
        got = rank_value(a, scale)
        with pytest.MonkeyPatch.context() as unspied:
            unspied.setattr(np.linalg, "svd", svd)
            assert got.tolist() == [rank(one, scale).value for one in a]
        return got

    monkeypatch.setattr(matcore, "full_rank_certified", certify_spy)
    monkeypatch.setattr(np.linalg, "svd", svd_spy)
    monkeypatch.setattr(matcore, "rank_value", rank_value_spy)
    return certified, ranked


class _PlantedRng:
    """A real generator, except that draw ``k`` of ``planted`` comes back
    with its entries ``planted[k]`` (an index) times ``factor``.  Records
    each draw's shape."""

    def __init__(self, seed, planted, factor=0.0):
        self.rng, self.planted, self.factor = matcore.substream(seed, "states"), planted, factor
        self.shapes = []

    def standard_normal(self, shape):
        z = self.rng.standard_normal(shape)
        if len(self.shapes) in self.planted:
            z[self.planted[len(self.shapes)]] *= self.factor
        self.shapes.append(shape)
        return z


class TestDeficientDraw:
    def test_deficient_slot_raises_after_one_check(self, monkeypatch):
        # slot 4 drawn zero: nothing is redrawn
        certified, ranked = _spy_rank_checks(monkeypatch)
        stub = _PlantedRng(6, {0: np.s_[3]})
        with pytest.raises(SingularSystem, match=r"slots \[4\]"):
            generate_states(AntennaConfig(2, 3), 5, stub)
        assert stub.shapes == [(5, 2, 2, 2, 3, 2)]
        assert certified == [(5, 6, 4)] and ranked == [(5, 6, 4)]

    def test_full_rank_draw_the_certificate_misses_is_kept(self, monkeypatch):
        # slot 3's first transmit antenna scaled by 1e-7: too close to the
        # cut for the certificate, clear of it for the SVD
        planted = {0: np.s_[2, :, 0, ..., 0]}
        certified, ranked = _spy_rank_checks(monkeypatch)
        seq = generate_states(AntennaConfig(2, 3), 5, _PlantedRng(6, planted, 1e-7))
        assert certified == [(5, 6, 4)] and ranked == [(5, 6, 4)]
        want = matcore.random_matrix(3, 2, _PlantedRng(6, planted, 1e-7), batch=(5, 2, 2))
        assert seq.blocks.tobytes() == want.tobytes()

    def test_slot_loop_reference_raises_too(self):
        # the loop draws slot 4's h11, h12, h21 and h22 as draws 12 to 15
        stub = _PlantedRng(6, dict.fromkeys(range(12, 16), np.s_[...]))
        with pytest.raises(SingularSystem):
            loop_states(AntennaConfig(2, 3), 5, stub)
        assert len(stub.shapes) == 16


class TestApplyChannel:
    def test_zero_inputs(self):
        state = make_states(2, 3, 1)[1]
        y1, y2 = apply_channel(state, np.zeros(2), np.zeros(2))
        assert not y1.any() and not y2.any()

    def test_identity_channel(self):
        state = make_states(2, 2, 1)[1].copy()
        state[0] = np.eye(2), np.zeros((2, 2))
        e1 = np.array([1.0, 0.0])
        y1, _ = apply_channel(state, e1, np.zeros(2))
        np.testing.assert_array_equal(y1, e1)

    def test_matches_reordered_accumulation(self):
        # oracle: accumulate the two terms in the opposite order, entrywise
        state = make_states(3, 4, 1, seed=5)[1]
        r = matcore.substream(5, "x")
        x1, x2 = matcore.random_vector(3, r), matcore.random_vector(3, r)
        y1, y2 = apply_channel(state, x1, x2)
        (h11, h12), (h21, h22) = state
        alt1 = h12 @ x2 + h11 @ x1
        alt2 = h22 @ x2 + h21 @ x1
        assert np.linalg.norm(y1 - alt1) <= 1e-12 * max(np.linalg.norm(alt1), 1.0)
        assert np.linalg.norm(y2 - alt2) <= 1e-12 * max(np.linalg.norm(alt2), 1.0)

    def test_linearity(self):
        state = make_states(2, 3, 1, seed=6)[1]
        r = matcore.substream(6, "x")
        x1, x2 = matcore.random_vector(2, r), matcore.random_vector(2, r)
        w1, w2 = matcore.random_vector(2, r), matcore.random_vector(2, r)
        alpha = complex(r.standard_normal(), r.standard_normal())
        ya = apply_channel(state, alpha * x1 + w1, alpha * x2 + w2)
        yb = apply_channel(state, x1, x2)
        yc = apply_channel(state, w1, w2)
        for a, b, c in zip(ya, yb, yc):
            np.testing.assert_allclose(a, alpha * b + c, atol=1e-12)

    def test_shape_mismatch(self):
        state = make_states(2, 3, 1)[1]
        with pytest.raises(InvalidShape):
            apply_channel(state, np.zeros(3), np.zeros(2))

    @pytest.mark.parametrize("m,n,horizon", [(2, 3, 9), (1, 1, 1), (4, 2, 5), (3, 3, 4)])
    def test_stack_equals_per_slot_calls(self, m, n, horizon):
        seq = make_states(m, n, horizon, seed=8)
        x1, x2 = matcore.random_matrix(horizon, m, matcore.substream(8, "x"), batch=(2,))
        y1, y2 = apply_channel(seq.blocks, x1, x2)
        for t in range(horizon):
            one = apply_channel(seq.blocks[t], x1[t], x2[t])
            assert y1[t].tobytes() == one[0].tobytes() and y2[t].tobytes() == one[1].tobytes()
        assert y1.shape == y2.shape == (horizon, n)

    def test_stack_shape_mismatch(self):
        seq = make_states(2, 3, 4)
        with pytest.raises(InvalidShape):
            apply_channel(seq.blocks, np.zeros((3, 2)), np.zeros((4, 2)))
        with pytest.raises(InvalidShape):
            apply_channel(seq.blocks, np.zeros(2), np.zeros(2))


class TestLiftPhase:
    def test_single_slot_unchanged(self):
        seq = make_states(2, 3, 1)
        np.testing.assert_array_equal(lift_phase([seq[1]], (1, 1)), seq[1][0, 0])

    def test_lift_rank(self):
        seq = make_states(2, 3, 3, seed=7)
        lifted = lift_phase(seq.blocks, (1, 1))
        assert lifted.shape == (9, 6)
        assert matcore.rank(lifted).value == 6  # sum of per-slot ranks

    def test_concatenation_equals_union(self):
        seq = make_states(2, 3, 4, seed=8)
        first = lift_phase(seq.blocks[:2], (2, 1))
        second = lift_phase(seq.blocks[2:], (2, 1))
        union = lift_phase(seq.blocks, (2, 1))
        np.testing.assert_array_equal(matcore.block_diag([first, second]), union)

    def test_empty_range_rejected(self):
        with pytest.raises(InvalidInput):
            lift_phase([], (1, 1))

    def test_lifting_commutes_with_channel(self):
        seq = make_states(2, 3, 3, seed=9)
        r = matcore.substream(9, "x")
        xs = [(matcore.random_vector(2, r), matcore.random_vector(2, r)) for _ in range(3)]
        per_slot = np.concatenate(
            [apply_channel(seq[t], x1, x2)[0] for t, (x1, x2) in enumerate(xs, start=1)]
        )
        stacked = np.concatenate(
            [np.concatenate([x1 for x1, _ in xs]), np.concatenate([x2 for _, x2 in xs])]
        )
        lifted = lift_rows(state_rows(seq, 1, [1, 2, 3])) @ stacked
        np.testing.assert_allclose(lifted, per_slot, atol=1e-12)

    @pytest.mark.parametrize("m,n,horizon,m_eff", [(2, 3, 4, None), (4, 2, 3, 2), (1, 1, 1, None)])
    def test_lift_rows_equals_block_diag(self, m, n, horizon, m_eff):
        seq = make_states(m, n, horizon, seed=13)
        width = m if m_eff is None else m_eff
        for rx in (1, 2):
            reference = np.hstack([
                matcore.block_diag([seq[t][rx - 1, i - 1][:, :width] for t in range(1, horizon + 1)])
                for i in (1, 2)
            ])
            lifted = lift_rows(state_rows(seq, rx, range(1, horizon + 1)), m_eff)
            assert lifted.shape == (n * horizon, 2 * width * horizon)
            assert np.array_equal(lifted, reference)

    def test_lift_rows_of_an_empty_range_is_empty(self):
        seq = make_states(2, 3, 2)
        assert lift_rows(state_rows(seq, 1, [])).shape == (0, 0)
        assert lift_rows(state_rows(seq, 2, []), 1).shape == (0, 0)
        with pytest.raises(InvalidInput):
            lift_rows(seq.blocks)  # both receivers' blocks: ndim 5

    def test_effective_column_restriction(self):
        seq = make_states(4, 2, 2, seed=10)
        lifted = lift_phase(seq.blocks, (1, 2), m_eff=2)
        assert lifted.shape == (4, 4)


class TestFeedbackModel:
    def test_tables(self):
        m = FeedbackModel.ASYM_FB_DELAYED_CSIT
        assert m.feedback_sources(1) == (1,) and m.feedback_sources(2) == (2,)
        assert m.grants_delayed_csi(1) and m.grants_delayed_csi(2)
        m = FeedbackModel.SYM_FB_NO_CSIT
        assert m.feedback_sources(1) == (1, 2) and m.feedback_sources(2) == (1, 2)
        assert not m.grants_delayed_csi(1)
        m = FeedbackModel.ASYM_FB_ONLY
        assert m.feedback_sources(2) == (2,) and not m.grants_delayed_csi(2)
        m = FeedbackModel.ASYM_FB_DCSIT_TX1_ONLY
        assert m.grants_delayed_csi(1) and not m.grants_delayed_csi(2)
