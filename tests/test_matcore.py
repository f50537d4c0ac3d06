"""Unit tests for the complex matrix layer.

Derived expectations come from independent constructions: low-rank
matrices are built as outer products, solve targets by forward
multiplication, block ranks by summing per-block constructions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xsdof import matcore
from xsdof.channel import lift_rows
from xsdof.errors import (
    IllConditioned,
    InvalidInput,
    InvalidMatrix,
    InvalidShape,
    SingularSystem,
)


def rng(seed=0):
    return matcore.substream(seed, "test")


class TestRank:
    def test_identity(self):
        assert matcore.rank_value(np.eye(2)) == 2

    def test_zero_matrix(self):
        report = matcore.rank(np.zeros((3, 3)))
        assert report.value == 0

    def test_rank_one_outer_product(self):
        # oracle: a column times a row has rank exactly 1 by construction
        col = np.array([[1.0], [2.0]])
        row = np.array([[1.0, 2.0]])
        report = matcore.rank(col @ row)
        assert report.value == 1
        assert report.smallest_kept_singular_value > report.largest_dropped_singular_value

    def test_constructed_rank_r(self):
        r = rng(1)
        for want in (1, 2, 3, 4):
            a = matcore.random_matrix(6, want, r) @ matcore.random_matrix(want, 5, r)
            assert matcore.rank_value(a) == want

    def test_permutation_invariance(self):
        r = rng(2)
        a = matcore.random_matrix(5, 3, r) @ matcore.random_matrix(3, 7, r)
        base = matcore.rank_value(a)
        for _ in range(10):
            rows = r.permutation(a.shape[0])
            cols = r.permutation(a.shape[1])
            assert matcore.rank_value(a[rows][:, cols]) == base

    def test_rejects_non_finite(self):
        bad = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(InvalidMatrix):
            matcore.rank(bad)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(InvalidInput):
            matcore.rank(np.eye(2), rel_tol=0.0)

    def test_scale_floors_the_cut(self):
        tiny = 1e-12 * np.eye(3)
        assert matcore.rank_value(tiny) == 3  # relative to its own scale
        assert matcore.rank(tiny, scale=1.0).value == 0
        assert matcore.rank(np.eye(3), scale=1e-3).value == 3  # a lower floor is no floor


class TestSolveSquare:
    def test_identity(self):
        b = np.array([1 + 1j, 2.0, -3.0])
        out = matcore.solve_square(np.eye(3), b)
        np.testing.assert_allclose(out.x, b)

    def test_diagonal(self):
        out = matcore.solve_square(np.diag([2.0, 4.0]), np.array([2.0, 8.0]))
        np.testing.assert_allclose(out.x, [1.0, 2.0])
        assert out.condition == pytest.approx(2.0)

    def test_forward_multiply_oracle(self):
        r = rng(3)
        a = matcore.random_matrix(6, 6, r)
        x_true = matcore.random_vector(6, r)
        out = matcore.solve_square(a, a @ x_true)
        assert np.linalg.norm(out.x - x_true) <= 1e-8 * np.linalg.norm(x_true)

    def test_forward_multiply_up_to_64(self):
        r = rng(4)
        for side in (2, 8, 16, 64):
            a = matcore.random_matrix(side, side, r)
            x_true = matcore.random_vector(side, r)
            out = matcore.solve_square(a, a @ x_true, condition_limit=matcore.CONDITION_LIMIT)
            assert np.linalg.norm(out.x - x_true) <= 1e-8 * np.linalg.norm(x_true)

    def test_singular_raises(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularSystem):
            matcore.solve_square(a, np.ones(2))

    def test_shape_mismatch(self):
        with pytest.raises(InvalidShape):
            matcore.solve_square(np.eye(3), np.ones(2))
        with pytest.raises(InvalidShape):
            matcore.solve_square(np.ones((2, 3)), np.ones(2))

    def test_matrix_rhs(self):
        r = rng(5)
        a = matcore.random_matrix(4, 4, r)
        x_true = matcore.random_matrix(4, 3, r)
        out = matcore.solve_square(a, a @ x_true)
        np.testing.assert_allclose(out.x, x_true, atol=1e-10)


class TestSolveFullColumnRank:
    def test_tall_consistent(self):
        r = rng(6)
        a = matcore.random_matrix(7, 4, r)
        x_true = matcore.random_vector(4, r)
        out = matcore.solve_full_column_rank(a, a @ x_true)
        assert np.linalg.norm(out.x - x_true) <= 1e-8 * np.linalg.norm(x_true)

    def test_wide_rejected(self):
        with pytest.raises(InvalidShape):
            matcore.solve_full_column_rank(np.ones((2, 3)), np.ones(2))


class TestStackedSolve:
    @pytest.mark.parametrize("t,r,c", [(1, 3, 2), (9, 3, 2), (4, 5, 5), (16, 8, 3)])
    def test_equals_per_matrix_solves_bit_for_bit(self, t, r, c):
        g = rng(t + r + c)
        a = matcore.random_matrix(r, c, g, batch=(t,))
        b = matcore.random_matrix(t, r, g)
        b_cols = matcore.random_matrix(r, 2, g, batch=(t,))
        for rhs in (b, b_cols):  # a vector, then two right-hand sides, per matrix
            stacked = matcore.solve_full_column_rank(a, rhs)
            alone = [matcore.solve_full_column_rank(a_s, b_s) for a_s, b_s in zip(a, rhs)]
            assert stacked.x.tobytes() == np.array([s.x for s in alone]).tobytes()
            assert stacked.condition == max(s.condition for s in alone)

    def test_one_deficient_slot_is_singular(self):
        g = rng(20)
        a = matcore.random_matrix(4, 3, g, batch=(5,))
        a[2, :, 2] = a[2, :, 0] + a[2, :, 1]  # slot 2's columns are dependent
        with pytest.raises(SingularSystem):
            matcore.solve_full_column_rank(a, np.ones((5, 4)))

    def test_condition_is_the_worst_slot(self):
        g = rng(21)
        a = matcore.random_matrix(4, 3, g, batch=(3,))
        a[1, :, 2] = a[1, :, 0] + 1e-7 * a[1, :, 2]  # only slot 1 is ill-conditioned
        worst = matcore.solve_full_column_rank(a[1], np.ones(4)).condition
        assert matcore.solve_full_column_rank(a, np.ones((3, 4))).condition == worst
        with pytest.raises(IllConditioned):
            matcore.solve_full_column_rank(a, np.ones((3, 4)), condition_limit=worst / 2)
        matcore.solve_full_column_rank(a, np.ones((3, 4)), condition_limit=worst * 2)

    @pytest.mark.parametrize("rhs_shape", [(3, 5), (2, 4), (4,), (3, 4, 2, 1), (2, 4, 1)])
    def test_mismatched_stack_shapes_rejected(self, rhs_shape):
        a = matcore.random_matrix(4, 3, rng(22), batch=(3,))
        with pytest.raises(InvalidShape):
            matcore.solve_full_column_rank(a, np.ones(rhs_shape))

    def test_wide_stack_rejected(self):
        with pytest.raises(InvalidShape):
            matcore.solve_full_column_rank(np.ones((2, 2, 3)), np.ones((2, 2)))

    def test_four_dimensional_system_rejected(self):
        with pytest.raises(InvalidMatrix):
            matcore.solve_full_column_rank(np.ones((2, 2, 4, 3)), np.ones((2, 2, 4)))


class TestRandomMatrix:
    def test_seeded_determinism(self):
        a = matcore.random_matrix(2, 3, matcore.substream(42, "draw"))
        b = matcore.random_matrix(2, 3, matcore.substream(42, "draw"))
        assert np.array_equal(a, b)

    def test_full_rank_draw(self):
        a = matcore.random_matrix(4, 4, matcore.substream(7, "draw"))
        assert matcore.rank_value(a) == 4

    def test_degenerate_shape(self):
        a = matcore.random_matrix(1, 1, matcore.substream(0, "draw"))
        assert a.shape == (1, 1)
        assert a[0, 0] != 0

    def test_substreams_independent_of_order(self):
        # drawing stream "b" first must not change stream "a"
        a_first = matcore.random_matrix(3, 3, matcore.substream(9, "a"))
        matcore.random_matrix(5, 5, matcore.substream(9, "b"))
        a_again = matcore.random_matrix(3, 3, matcore.substream(9, "a"))
        assert np.array_equal(a_first, a_again)

    def test_call_sequence_replays_bit_identical(self):
        def sequence(seed):
            r = matcore.substream(seed, "seq")
            out = [matcore.random_matrix(2, 2, r), matcore.random_vector(5, r)]
            out.append(matcore.random_matrix(3, 4, r))
            return out

        for x, y in zip(sequence(11), sequence(11)):
            assert np.array_equal(x, y)

    def test_empty_shape_draws_nothing(self):
        # an empty precoder (no noise phase to mix) leaves the stream as it was
        r = rng(12)
        assert matcore.random_matrix(12, 0, r).shape == (12, 0)
        assert matcore.random_matrix(0, 3, r).shape == (0, 3)
        assert matcore.random_vector(0, r).shape == (0,)
        assert np.array_equal(matcore.random_matrix(2, 3, r), matcore.random_matrix(2, 3, rng(12)))
        with pytest.raises(InvalidInput):
            matcore.random_matrix(-1, 3, rng())


    def test_batch_is_one_draw_per_matrix_in_order(self):
        # the stack equals one unbatched call per matrix, in C order
        stack = matcore.random_matrix(3, 2, rng(13), batch=(4, 2, 2))
        assert stack.shape == (4, 2, 2, 3, 2)
        r = rng(13)
        for index in np.ndindex(4, 2, 2):
            assert np.array_equal(stack[index], matcore.random_matrix(3, 2, r))
        assert matcore.random_matrix(3, 2, rng(), batch=(0, 2)).shape == (0, 2, 3, 2)
        with pytest.raises(InvalidInput):
            matcore.random_matrix(3, 2, rng(), batch=(2, -1))


@pytest.fixture
def rank_calls(monkeypatch):
    """Shapes of the matrices ``matcore.rank`` (the SVD fallback) is asked about."""
    shapes = []
    rank = matcore.rank

    def spy(a, rel_tol=matcore.DEFAULT_REL_TOL, scale=0.0):
        shapes.append(np.shape(a))
        return rank(a, rel_tol, scale)

    monkeypatch.setattr(matcore, "rank", spy)
    return shapes


def _planted(rows, cols, singular_values, seed):
    """A ``rows x cols`` matrix with the given ``min(rows, cols)`` singular
    values, between random factors with orthonormal columns."""
    r = rng(seed)
    k = min(rows, cols)
    u, _ = np.linalg.qr(matcore.random_matrix(rows, k, r))
    v, _ = np.linalg.qr(matcore.random_matrix(cols, k, r))
    return (u * np.asarray(singular_values, dtype=float)[:k]) @ v.conj().T


class TestHasFullRank:
    @pytest.mark.parametrize("shape", [(7, 3), (3, 7), (5, 5), (1, 1), (432, 216)])
    def test_gaussian_draws_are_certified_without_an_svd(self, rank_calls, shape):
        assert matcore.has_full_rank(matcore.random_matrix(*shape, rng(30)))
        assert rank_calls == []

    @pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0)])
    def test_empty_shapes_have_full_rank_zero(self, rank_calls, shape):
        assert matcore.has_full_rank(np.zeros(shape, dtype=complex))
        assert rank_calls == []

    @pytest.mark.parametrize("shape", [(6, 4), (4, 6), (5, 5)])
    def test_deficient_and_zero_matrices_fall_back_and_fail(self, rank_calls, shape):
        r = rng(31)
        low = matcore.random_matrix(shape[0], 2, r) @ matcore.random_matrix(2, shape[1], r)
        for a in (low, np.zeros(shape, dtype=complex)):
            rank_calls.clear()
            assert not matcore.has_full_rank(a)
            assert rank_calls == [shape]

    @pytest.mark.parametrize("shape", [(9, 5), (5, 9)])
    def test_nearly_deficient_matrix_reaches_the_svd(self, rank_calls, shape):
        # sigma_min = 1e-8 sigma_max: above the 1e-9 cut, so full rank, but
        # below what the Cholesky factor can certify through the round-off term
        a = _planted(*shape, [1.0, 0.7, 0.5, 0.3, 1e-8], seed=32)
        assert matcore.rank_value(a) == 5
        rank_calls.clear()
        assert matcore.has_full_rank(a)
        assert rank_calls == [shape]
        rank_calls.clear()
        assert not matcore.has_full_rank(a, rel_tol=1e-7)  # now below the cut
        assert rank_calls == [shape]

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInput):
            matcore.has_full_rank(np.eye(2), rel_tol=1.0)
        with pytest.raises(InvalidMatrix):
            matcore.has_full_rank(np.array([[1.0, np.inf]]))

    @settings(max_examples=80, deadline=None)
    @given(
        rows=st.integers(0, 12),
        cols=st.integers(0, 12),
        exponent=st.floats(-16.0, 0.0),
        rel_tol=st.sampled_from([1e-7, 1e-9, 1e-11]),
        seed=st.integers(0, 2**16),
    )
    def test_certificate_implies_svd_full_rank(self, rows, cols, exponent, rel_tol, seed):
        # the smallest singular value swept from 1 down past every cut: a
        # pass without the fallback is a proof the SVD keeps all of them
        k = min(rows, cols)
        if k:
            a = _planted(rows, cols, [1.0] * (k - 1) + [10.0**exponent], seed)
        else:
            a = np.zeros((rows, cols), dtype=complex)
        calls = []
        rank = matcore.rank
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(matcore, "rank", lambda *args: calls.append(1) or rank(*args))
            got = matcore.has_full_rank(a, rel_tol)
        svd_full = matcore.rank(a, rel_tol).value == k
        assert got == svd_full
        if not calls:
            assert svd_full


class TestBatchRank:
    @staticmethod
    def _each(stack, rel_tol=matcore.DEFAULT_REL_TOL):
        flat = stack.reshape((-1,) + stack.shape[-2:])
        return np.array([matcore.rank(a, rel_tol).value for a in flat])

    def test_random_stacks(self):
        for shape in ((6, 4, 4), (5, 3, 6), (7, 6, 2), (2, 3, 4, 5)):
            stack = matcore.random_matrix(*shape[-2:], rng(20), batch=shape[:-2])
            got = matcore.batch_rank(stack)
            assert got.shape == shape[:-2]
            assert np.array_equal(got.reshape(-1), self._each(stack))
            assert np.all(got == min(shape[-2:]))

    def test_deficient_zero_and_tiny_slots(self):
        # each slot is cut at its own scale: a slot scaled by 1e-12 keeps its rank
        r = rng(21)
        stack = matcore.random_matrix(4, 4, r, batch=(5,))
        stack[1] = matcore.random_matrix(4, 2, r) @ matcore.random_matrix(2, 4, r)
        stack[2] = 0.0
        stack[3] = 1e-12 * stack[3]
        stack[4] = 1e-12 * (matcore.random_matrix(4, 3, r) @ matcore.random_matrix(3, 4, r))
        got = matcore.batch_rank(stack)
        assert got.tolist() == [4, 2, 0, 4, 3]
        assert np.array_equal(got, self._each(stack))

    def test_tolerance_matches_rank(self):
        # singular values 1, 1e-4, 1e-8: the cut sits where rank puts it
        stack = np.array([np.diag([1.0, 1e-4, 1e-8]), np.diag([2.0, 2e-4, 2e-8])], dtype=complex)
        for rel_tol in (1e-9, 1e-6, 1e-2):
            assert np.array_equal(matcore.batch_rank(stack, rel_tol), self._each(stack, rel_tol))
        with pytest.raises(InvalidInput):
            matcore.batch_rank(stack, rel_tol=1.0)


class TestBlockDiag:
    def test_identity_blocks(self):
        out = matcore.block_diag([np.eye(2), np.eye(3)])
        np.testing.assert_array_equal(out, np.eye(5))

    def test_singleton(self):
        a = matcore.random_matrix(2, 3, rng(8))
        np.testing.assert_array_equal(matcore.block_diag([a]), a)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            matcore.block_diag([])

    def test_rank_is_sum_of_block_ranks(self):
        r = rng(9)
        for trial in range(5):
            blocks, want = [], 0
            for _ in range(4):
                rk = int(r.integers(1, 3))
                rows, cols = int(r.integers(rk, 5)), int(r.integers(rk, 5))
                blocks.append(
                    matcore.random_matrix(rows, rk, r) @ matcore.random_matrix(rk, cols, r)
                )
                want += rk
            assert matcore.rank_value(matcore.block_diag(blocks)) == want

    def test_generic_lift_rank(self):
        r = rng(10)
        blocks = [matcore.random_matrix(3, 2, r) for _ in range(4)]
        out = matcore.block_diag(blocks)
        assert out.shape == (12, 8)
        assert matcore.rank_value(out) == 4 * 2

    def test_off_block_entries_exactly_zero(self):
        out = matcore.block_diag([np.ones((2, 2)), np.ones((1, 3))])
        assert out[0, 2] == 0 and out[2, 0] == 0
        assert np.count_nonzero(out) == 7


class TestQr:
    def test_factors(self):
        a = matcore.random_matrix(7, 4, rng(11))
        q, r = matcore.qr(a)
        assert q.shape == (7, 4) and r.shape == (4, 4)
        np.testing.assert_allclose(q @ r, a, atol=1e-12)
        np.testing.assert_allclose(q.conj().T @ q, np.eye(4), atol=1e-12)
        assert np.array_equal(r, np.triu(r))

    def test_rank_of_r_is_rank_of_a(self):
        r_ = rng(12)
        a = matcore.random_matrix(8, 2, r_) @ matcore.random_matrix(2, 5, r_)
        _, r = matcore.qr(a)
        assert matcore.rank_value(r) == matcore.rank_value(a) == 2

    def test_rejects_non_finite(self):
        a = np.ones((3, 2), dtype=complex)
        a[1, 1] = np.nan
        with pytest.raises(InvalidMatrix):
            matcore.qr(a)


def _slot_stack(rows):
    """The ``(t, n, 2m)`` slot blocks ``[h_j1 | h_j2]`` of ``(t, 2, n, m)`` rows."""
    t, _, n, m = rows.shape
    return rows.transpose(0, 2, 1, 3).reshape(t, n, 2 * m)


def _random_rows(t, n, m, r):
    return np.array([[matcore.random_matrix(n, m, r) for _ in range(2)] for _ in range(t)])


def _one(blocks):
    """The null bases of the one block-diagonal matrix with these blocks."""
    (null,) = matcore.slot_null_bases(blocks[None])
    return null


class TestSlotNullBases:
    def test_annihilates_the_blocks(self):
        blocks = _slot_stack(_random_rows(5, 3, 2, rng(13)))
        null = _one(blocks)
        largest = max(np.linalg.norm(b, 2) for b in blocks)
        assert null.largest == pytest.approx(largest, rel=1e-12)
        assert np.max(np.abs(blocks @ null.basis)) <= 1e-12 * largest

    def test_orthonormal_columns(self):
        null = _one(_slot_stack(_random_rows(4, 3, 4, rng(14))))
        for basis in null.basis:
            np.testing.assert_allclose(basis.conj().T @ basis, np.eye(5), atol=1e-12)

    def test_width_is_columns_minus_min_rank(self):
        for n, m in ((3, 2), (4, 4), (2, 3)):
            null = _one(_slot_stack(_random_rows(3, n, m, rng(15))))
            assert null.basis.shape == (3, 2 * m, 2 * m - n)
            assert list(null.ranks) == [n] * 3 and null.rank == 3 * n

    def test_deficient_slot_pads_the_others(self):
        r = rng(16)
        blocks = _slot_stack(_random_rows(4, 3, 2, r))
        blocks[2] = matcore.random_matrix(3, 2, r) @ matcore.random_matrix(2, 4, r)  # rank 2
        null = _one(blocks)
        assert list(null.ranks) == [3, 3, 2, 3] and null.rank == 11
        assert null.basis.shape == (4, 4, 2)
        norms = np.linalg.norm(null.basis, axis=1)
        # full-rank slots: one zero column, then their one null vector
        np.testing.assert_array_equal(norms[[0, 1, 3], 0], 0.0)
        np.testing.assert_allclose(norms[[0, 1, 3], 1], 1.0)
        np.testing.assert_allclose(norms[2], 1.0)  # the deficient slot's two
        assert np.max(np.abs(blocks @ null.basis)) <= 1e-12 * null.largest

    def test_cut_is_relative_to_the_whole_matrix(self):
        # as for the block-diagonal matrix: a slot at round-off scale next
        # to O(1) slots has rank 0, although its own singular values are flat
        blocks = _slot_stack(_random_rows(3, 3, 2, rng(18)))
        blocks[1] *= 1e-12
        null = _one(blocks)
        assert list(null.ranks) == [3, 0, 3]
        assert null.rank == matcore.rank_value(matcore.block_diag(list(blocks)))
        assert null.basis.shape == (3, 4, 4)

    def test_matrices_are_cut_at_their_own_scale(self):
        r = rng(19)
        big = _slot_stack(_random_rows(2, 3, 2, r))
        small = 1e-12 * _slot_stack(_random_rows(2, 3, 2, r))
        one, other = matcore.slot_null_bases(np.stack([big, small]))
        alone = _one(small)
        assert list(one.ranks) == list(other.ranks) == [3, 3]
        assert other.largest == alone.largest and other.largest < 1e-10
        np.testing.assert_allclose(np.abs(other.basis), np.abs(alone.basis), atol=1e-12)

    def test_apply_in_lift_order(self):
        r = rng(17)
        t, n, m = 4, 3, 2
        rows = _random_rows(t, n, m, r)
        null = _one(_slot_stack(rows))
        w = null.basis.shape[2]
        dense = np.zeros((2 * t * m, t * w), dtype=complex)
        for s, basis in enumerate(null.basis):
            for i in range(2):  # transmitter i + 1's stack
                dense[i * t * m + s * m : i * t * m + (s + 1) * m, s * w : (s + 1) * w] = (
                    basis[i * m : (i + 1) * m]
                )
        for lifted in (lift_rows(_random_rows(t, n, m, r)), matcore.random_matrix(7, 2 * t * m, r)):
            np.testing.assert_allclose(null.apply(lifted), lifted @ dense, atol=1e-12)
        # the blocks' own lift is annihilated
        assert np.max(np.abs(null.apply(lift_rows(rows)))) <= 1e-12 * null.largest

    def test_apply_blocks_equals_apply_of_the_lift(self):
        r = rng(20)
        t, n, m = 4, 3, 2
        blocks = _slot_stack(_random_rows(t, n, m, r))
        blocks[1] = matcore.random_matrix(3, 2, r) @ matcore.random_matrix(2, 4, r)  # padded basis
        null = _one(blocks)
        w = null.basis.shape[2]
        for n_rows in (n, 5):
            rows = np.array([[matcore.random_matrix(n_rows, m, r) for _ in range(2)]
                             for _ in range(t)])
            product = null.apply_blocks(_slot_stack(rows))
            assert product.shape == (t * n_rows, t * w)
            np.testing.assert_allclose(product, null.apply(lift_rows(rows)), rtol=0, atol=1e-13)
            for s in range(t):  # block diagonal, with exact zeros off the diagonal
                off = np.delete(product[s * n_rows : (s + 1) * n_rows], np.s_[s * w : (s + 1) * w], 1)
                assert not off.any()

    @pytest.mark.parametrize("shape", [(0, 3, 4), (0, 0, 3, 4), (0, 2, 3, 4)])
    def test_rejects_a_stack_without_blocks(self, shape):
        # a wrong ndim, or no matrix at all (k = 0)
        with pytest.raises(InvalidInput):
            matcore.slot_null_bases(np.zeros(shape, dtype=complex))

    def test_empty_phase(self):
        # t = 0: an empty block-diagonal matrix, of rank 0 and with nothing to eliminate
        nulls = matcore.slot_null_bases(np.zeros((2, 0, 3, 4), dtype=complex))
        assert len(nulls) == 2
        for null in nulls:
            assert null.rank == 0 and null.largest == 0.0
            assert null.basis.shape == (0, 4, 0)
            assert null.apply(np.zeros((5, 0), dtype=complex)).shape == (5, 0)
            assert null.apply_blocks(np.zeros((0, 5, 4), dtype=complex)).shape == (0, 0)
