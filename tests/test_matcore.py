"""Unit tests for the complex matrix layer.

Derived expectations come from independent constructions: low-rank
matrices are built as outer products, solve targets by forward
multiplication, block ranks by summing per-block constructions.
"""

import numpy as np
import pytest

from xsdof import matcore
from xsdof.errors import InvalidInput, InvalidMatrix, InvalidShape, SingularSystem


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

    def test_rejects_empty_shape(self):
        with pytest.raises(InvalidInput):
            matcore.random_matrix(0, 3, rng())


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
