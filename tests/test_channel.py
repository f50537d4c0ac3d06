"""Channel model tests: state generation, the state array, the noiseless map, lifting."""

import numpy as np
import pytest

from xsdof import matcore
from xsdof.channel import (
    AntennaConfig,
    FeedbackModel,
    Regime,
    apply_channel,
    generate_states,
    lift_phase,
    lift_rows,
)
from xsdof.errors import InvalidInput, InvalidShape


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
        for state in seq.states:
            assert matcore.rank_value(state.stacked()) == 4

    def test_high_regime_rank(self):
        seq = make_states(4, 3, 5)
        for state in seq.states:
            assert matcore.rank_value(state.stacked()) == 6

    def test_singleton_horizon(self):
        assert make_states(2, 2, 1).horizon == 1

    def test_determinism(self):
        a, b = make_states(2, 3, 4, seed=9), make_states(2, 3, 4, seed=9)
        for sa, sb in zip(a.states, b.states):
            assert np.array_equal(sa.stacked(), sb.stacked())

    def test_one_based_indexing(self):
        seq = make_states(1, 1, 3)
        assert seq[1] is seq.states[0]
        with pytest.raises(InvalidInput):
            seq[0]
        with pytest.raises(InvalidInput):
            seq[4]

    def test_array_and_views_agree(self):
        seq = make_states(3, 4, 5, seed=11)
        assert seq.blocks.shape == (5, 2, 2, 4, 3)
        assert not seq.blocks.flags.writeable
        for t, state in enumerate(seq.states, start=1):
            assert state.slot == t
            for j in (1, 2):
                for i in (1, 2):
                    block = state.block(j, i)
                    assert np.array_equal(block, seq.blocks[t - 1, j - 1, i - 1])
                    assert np.shares_memory(block, seq.blocks)
            np.testing.assert_array_equal(seq.rows(2, [t])[0], [state.h21, state.h22])

    def test_draw_order_is_slot_then_block(self):
        # h11, h12, h21, h22 of slot 1, then slot 2: the order seeds depend on
        rng = matcore.substream(4, "states")
        seq = generate_states(AntennaConfig(2, 3), 2, matcore.substream(4, "states"))
        for state in seq.states:
            for j, i in ((1, 1), (1, 2), (2, 1), (2, 2)):
                assert np.array_equal(state.block(j, i), matcore.random_matrix(3, 2, rng))


class TestApplyChannel:
    def test_zero_inputs(self):
        state = make_states(2, 3, 1)[1]
        y1, y2 = apply_channel(state, np.zeros(2), np.zeros(2))
        assert not y1.any() and not y2.any()

    def test_identity_channel(self):
        base = make_states(2, 2, 1)[1]
        state = type(base)(np.eye(2), np.zeros((2, 2)), base.h21, base.h22, slot=1)
        e1 = np.array([1.0, 0.0])
        y1, _ = apply_channel(state, e1, np.zeros(2))
        np.testing.assert_array_equal(y1, e1)

    def test_matches_reordered_accumulation(self):
        # oracle: accumulate the two terms in the opposite order, entrywise
        state = make_states(3, 4, 1, seed=5)[1]
        r = matcore.substream(5, "x")
        x1, x2 = matcore.random_vector(3, r), matcore.random_vector(3, r)
        y1, y2 = apply_channel(state, x1, x2)
        alt1 = state.h12 @ x2 + state.h11 @ x1
        alt2 = state.h22 @ x2 + state.h21 @ x1
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


class TestLiftPhase:
    def test_single_slot_unchanged(self):
        seq = make_states(2, 3, 1)
        np.testing.assert_array_equal(lift_phase([seq[1]], (1, 1)), seq[1].h11)

    def test_lift_rank(self):
        seq = make_states(2, 3, 3, seed=7)
        lifted = lift_phase(seq.states, (1, 1))
        assert lifted.shape == (9, 6)
        assert matcore.rank_value(lifted) == 6  # sum of per-slot ranks

    def test_concatenation_equals_union(self):
        seq = make_states(2, 3, 4, seed=8)
        first = lift_phase(seq.states[:2], (2, 1))
        second = lift_phase(seq.states[2:], (2, 1))
        union = lift_phase(seq.states, (2, 1))
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
        lifted = lift_rows(seq.rows(1, [1, 2, 3])) @ stacked
        np.testing.assert_allclose(lifted, per_slot, atol=1e-12)

    @pytest.mark.parametrize("m,n,horizon,m_eff", [(2, 3, 4, None), (4, 2, 3, 2), (1, 1, 1, None)])
    def test_lift_rows_equals_block_diag(self, m, n, horizon, m_eff):
        seq = make_states(m, n, horizon, seed=13)
        width = m if m_eff is None else m_eff
        for rx in (1, 2):
            reference = np.hstack([
                matcore.block_diag([s.block(rx, i)[:, :width] for s in seq.states]) for i in (1, 2)
            ])
            lifted = lift_rows(seq.rows(rx, range(1, horizon + 1)), m_eff)
            assert lifted.shape == (n * horizon, 2 * width * horizon)
            assert np.array_equal(lifted, reference)

    def test_lift_rows_rejects_empty_range(self):
        seq = make_states(2, 3, 2)
        with pytest.raises(InvalidInput):
            lift_rows(seq.rows(1, []))

    def test_effective_column_restriction(self):
        seq = make_states(4, 2, 2, seed=10)
        lifted = lift_phase(seq.states, (1, 2), m_eff=2)
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

    def test_from_key(self):
        assert FeedbackModel.from_key("sym-fb") is FeedbackModel.SYM_FB_NO_CSIT
        with pytest.raises(InvalidInput):
            FeedbackModel.from_key("bogus")
