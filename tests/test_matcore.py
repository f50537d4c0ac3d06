"""Unit tests for the complex matrix layer.

Derived expectations come from independent constructions: low-rank
matrices are built as outer products, solve targets by forward
multiplication, block ranks by summing per-block constructions.
"""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xsdof
from xsdof import matcore
from xsdof.channel import lift_rows
from xsdof.errors import InvalidInput, InvalidMatrix, InvalidShape, SingularSystem


def rng(seed=0):
    return matcore.substream(seed, "test")


class TestRank:
    def test_identity(self):
        assert matcore.rank(np.eye(2)).value == 2

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
            assert matcore.rank(a).value == want

    def test_permutation_invariance(self):
        r = rng(2)
        a = matcore.random_matrix(5, 3, r) @ matcore.random_matrix(3, 7, r)
        base = matcore.rank(a).value
        for _ in range(10):
            rows = r.permutation(a.shape[0])
            cols = r.permutation(a.shape[1])
            assert matcore.rank(a[rows][:, cols]).value == base

    def test_rejects_non_finite(self):
        bad = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(InvalidMatrix):
            matcore.rank(bad)

    @pytest.mark.parametrize("where", ["real nan", "imag inf", "transposed", "stack"])
    def test_as_matrix_finds_each_non_finite_entry(self, where):
        # a non-finite entry in either part, whether the last axis is
        # contiguous (one pass over the float view) or not
        a = matcore.random_matrix(4, 3, rng(9)).astype(complex)
        if where == "stack":
            a = np.stack([a, a, a])
            a[2, 3, 1] = complex(1.0, -np.inf)
        else:
            a[1, 2] = complex(np.nan, 1.0) if where == "real nan" else complex(1.0, np.inf)
        if where == "transposed":
            a = a.T
            assert a.strides[-1] != a.itemsize
        with pytest.raises(InvalidMatrix, match="non-finite"):
            matcore.as_matrix(a, stack=where == "stack")
        finite = np.nan_to_num(a, nan=0.0, posinf=0.0, neginf=0.0)
        np.testing.assert_array_equal(matcore.as_matrix(finite, stack=True), finite)

    def test_scale_floors_the_cut(self):
        tiny = 1e-12 * np.eye(3)
        assert matcore.rank(tiny).value == 3  # relative to its own scale
        assert matcore.rank(tiny, scale=1.0).value == 0
        assert matcore.rank(np.eye(3), scale=1e-3).value == 3  # a lower floor is no floor


class TestSolveSquare:
    def test_identity(self):
        b = np.array([1 + 1j, 2.0, -3.0])
        np.testing.assert_allclose(matcore.solve_square(np.eye(3), b), b)

    def test_diagonal(self):
        out = matcore.solve_square(np.diag([2.0, 4.0]), np.array([2.0, 8.0]))
        np.testing.assert_allclose(out, [1.0, 2.0])

    def test_forward_multiply_oracle(self):
        r = rng(3)
        a = matcore.random_matrix(6, 6, r)
        x_true = matcore.random_vector(6, r)
        out = matcore.solve_square(a, a @ x_true)
        assert np.linalg.norm(out - x_true) <= 1e-8 * np.linalg.norm(x_true)

    def test_forward_multiply_up_to_64(self):
        r = rng(4)
        for side in (2, 8, 16, 64):
            a = matcore.random_matrix(side, side, r)
            x_true = matcore.random_vector(side, r)
            out = matcore.solve_square(a, a @ x_true)
            assert np.linalg.norm(out - x_true) <= 1e-8 * np.linalg.norm(x_true)

    def test_singular_raises(self):
        # exactly singular, and condition number 1e10: above the 1e9 that the
        # rank cut allows, so the cut alone refuses it
        for a in (np.array([[1.0, 2.0], [2.0, 4.0]]), np.diag([1.0, 1e-10])):
            with pytest.raises(SingularSystem):
                matcore.solve_square(a, np.ones(2))

    @pytest.mark.parametrize("side", [3, 64])
    def test_scale_floors_the_cut(self, side):
        # the cut of rank(a, scale), on the certified LU route and the SVD
        # route alike: a well-conditioned system at scale 1e-12 is solved at
        # its own scale and refused under a floor of 1, which puts every
        # singular value below the cut
        a = 1e-12 * matcore.random_matrix(side, side, rng(9))
        x_true = matcore.random_vector(side, rng(10))
        for solve in (matcore.solve_square, matcore.solve_full_column_rank):
            out = solve(a, a @ x_true)
            assert np.linalg.norm(out - x_true) <= 1e-6 * np.linalg.norm(x_true)
            assert matcore.rank(a, 1.0).value < side
            with pytest.raises(SingularSystem):
                solve(a, a @ x_true, 1.0)
            # a floor below the largest singular value is no floor
            np.testing.assert_array_equal(solve(a, a @ x_true, 1e-13), out)

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
        np.testing.assert_allclose(out, x_true, atol=1e-10)


    def test_shape_checked_before_any_factorization(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("factorized before the shapes were checked")

        monkeypatch.setattr(matcore, "full_rank_certified", refuse)
        monkeypatch.setattr(matcore, "solve_full_column_rank", refuse)
        monkeypatch.setattr(np.linalg, "solve", refuse)
        for a, b in ((np.eye(3), np.ones(2)), (np.ones((2, 3)), np.ones(2)),
                     (np.eye(2), np.ones((2, 2, 1)))):
            with pytest.raises(InvalidShape):
                matcore.solve_square(a, b)

    def test_certified_system_takes_no_svd(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a certified system reached the SVD")

        monkeypatch.setattr(matcore, "solve_full_column_rank", refuse)
        r = rng(7)
        a = matcore.random_matrix(64, 64, r)
        x_true = matcore.random_matrix(64, 2, r)
        out = matcore.solve_square(a, a @ x_true)
        assert np.linalg.norm(out - x_true) <= 1e-8 * np.linalg.norm(x_true)

    @pytest.mark.parametrize("ratio", [1e-8, 1e-10])
    def test_planted_conditioning_falls_back_to_the_svd(self, monkeypatch, ratio):
        # sigma_min = 1e-8 sigma_max is above the cut but too close for the
        # certificate; 1e-10 sigma_max is below the cut
        r = rng(8)
        q1, _ = np.linalg.qr(matcore.random_matrix(8, 8, r))
        q2, _ = np.linalg.qr(matcore.random_matrix(8, 8, r))
        a = (q1 * np.geomspace(1.0, ratio, 8)) @ q2.conj().T
        x_true = matcore.random_vector(8, r)
        assert not matcore.full_rank_certified(a)
        calls = []
        svd = matcore.solve_full_column_rank
        monkeypatch.setattr(matcore, "solve_full_column_rank",
                            lambda a, b, scale: calls.append(1) or svd(a, b, scale))
        if ratio > matcore.REL_TOL:
            out = matcore.solve_square(a, a @ x_true)
            assert np.linalg.norm(out - x_true) <= 1e-6 * np.linalg.norm(x_true)
        else:
            with pytest.raises(SingularSystem):
                matcore.solve_square(a, a @ x_true)
        assert calls == [1]


class TestSolveFullColumnRank:
    def test_tall_consistent(self):
        r = rng(6)
        a = matcore.random_matrix(7, 4, r)
        x_true = matcore.random_vector(4, r)
        out = matcore.solve_full_column_rank(a, a @ x_true)
        assert np.linalg.norm(out - x_true) <= 1e-8 * np.linalg.norm(x_true)

    def test_refusal_carries_the_rank_its_svd_decided(self):
        # rank 2 of 3 at the cut of rank(a, scale), floor included; a stack
        # carries none
        a = _planted(5, 3, [1.0, 1e-3, 1e-12], seed=12)
        for scale, want in ((0.0, 2), (1e7, 1)):
            with pytest.raises(SingularSystem) as refused:
                matcore.solve_full_column_rank(a, np.ones(5), scale)
            assert refused.value.rank == matcore.rank(a, scale).value == want
        with pytest.raises(SingularSystem) as refused:
            matcore.solve_full_column_rank(a[None], np.ones((1, 5)))
        assert refused.value.rank is None

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
            assert stacked.tobytes() == np.array(alone).tobytes()

    def test_one_deficient_slot_is_singular(self):
        g = rng(20)
        a = matcore.random_matrix(4, 3, g, batch=(5,))
        a[2, :, 2] = a[2, :, 0] + a[2, :, 1]  # slot 2's columns are dependent
        with pytest.raises(SingularSystem):
            matcore.solve_full_column_rank(a, np.ones((5, 4)))

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
        assert matcore.rank(a).value == 4

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

    @pytest.mark.parametrize("rows,cols,batch", [
        (432, 216, ()), (3, 2, (4, 2)), (5, 1, (3,)), (0, 3, ()), (4, 0, (2,)), (2, 3, (0, 2)),
    ])
    def test_equals_the_complex_expression_bit_for_bit(self, rows, cols, batch):
        # the parts written into the real and imaginary views against the
        # complex sum divided by sqrt(2), on the same stream
        z = rng(14).standard_normal(batch + (2, rows, cols))
        want = (z[..., 0, :, :] + 1j * z[..., 1, :, :]) / 2.0**0.5
        got = matcore.random_matrix(rows, cols, rng(14), batch=batch)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.fixture
def rank_calls(monkeypatch):
    """Shapes of the matrices ``matcore.rank`` (the SVD fallback) is asked about."""
    shapes = []
    rank = matcore.rank

    def spy(a, scale=0.0):
        shapes.append(np.shape(a))
        return rank(a, scale)

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
    """Full-rank decisions by ``matcore.rank_value``: the certificate first,
    the SVD rank only where it cannot certify."""

    @pytest.mark.parametrize("shape", [(7, 3), (3, 7), (5, 5), (1, 1), (432, 216)])
    def test_gaussian_draws_are_certified_without_an_svd(self, rank_calls, shape):
        assert matcore.rank_value(matcore.random_matrix(*shape, rng(30))) == min(shape)
        assert rank_calls == []

    @pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0)])
    def test_empty_shapes_have_full_rank_zero(self, rank_calls, shape):
        assert matcore.rank_value(np.zeros(shape, dtype=complex)) == 0
        assert rank_calls == []

    @pytest.mark.parametrize("shape", [(6, 4), (4, 6), (5, 5)])
    def test_deficient_and_zero_matrices_fall_back_and_fail(self, rank_calls, shape):
        r = rng(31)
        low = matcore.random_matrix(shape[0], 2, r) @ matcore.random_matrix(2, shape[1], r)
        for a, value in ((low, 2), (np.zeros(shape, dtype=complex), 0)):
            rank_calls.clear()
            assert matcore.rank_value(a) == value
            assert rank_calls == [shape]

    @pytest.mark.parametrize("shape", [(9, 5), (5, 9)])
    def test_nearly_deficient_matrix_reaches_the_svd(self, rank_calls, monkeypatch, shape):
        # sigma_min = 1e-8 sigma_max: above the 1e-9 cut, so full rank, but
        # below what the Cholesky factor can certify through the round-off term
        a = _planted(*shape, [1.0, 0.7, 0.5, 0.3, 1e-8], seed=32)
        assert matcore.rank(a).value == 5
        rank_calls.clear()
        assert matcore.rank_value(a) == 5
        assert rank_calls == [shape]
        rank_calls.clear()
        monkeypatch.setattr(matcore, "REL_TOL", 1e-7)
        assert matcore.rank_value(a) == 4  # now below the cut
        assert rank_calls == [shape]

    @pytest.mark.parametrize("shape", [(9, 5), (5, 9)])
    def test_scale_floor_below_the_cut_fails_the_certificate(self, shape):
        # sigma_min = 1e-3 sigma_max: certified at its own scale, but a floor
        # of 1e7 puts the cut at 1e-2, where the SVD rank is 4 of 5, so the
        # certificate must not pass
        a = _planted(*shape, [1.0, 0.7, 0.5, 0.3, 1e-3], seed=33)
        assert matcore.full_rank_certified(a)
        assert not matcore.full_rank_certified(a, 1e7)
        assert matcore.rank(a, 1e7).value == matcore.rank_value(a, 1e7) == 4

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidMatrix):
            matcore.rank_value(np.array([[1.0, np.inf]]))

    @settings(max_examples=120, deadline=None)
    @given(
        rows=st.integers(0, 12),
        cols=st.integers(0, 12),
        exponent=st.floats(-16.0, 0.0),
        tol=st.sampled_from([1e-7, 1e-9, 1e-11]),
        floor=st.sampled_from([0.0, 0.5, 30.0, 1e6]),
        seed=st.integers(0, 2**16),
    )
    def test_certificate_implies_svd_full_rank(self, rows, cols, exponent, tol, floor, seed):
        # the smallest singular value swept from 1 down past every cut, the
        # scale floor at 0, below sigma_max and above it: a certificate is a
        # proof the SVD keeps all of them at that floor, and rank_value is
        # the SVD's answer whichever path decides it
        k = min(rows, cols)
        if k:
            planted = [1.0] * (k - 1) + [10.0**exponent]
            a = _planted(rows, cols, planted, seed)
        else:
            planted = [0.0]
            a = np.zeros((rows, cols), dtype=complex)
        scale = floor * max(planted)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(matcore, "REL_TOL", tol)
            certified = matcore.full_rank_certified(a, scale)
            svd_full = matcore.rank(a, scale).value == k
            assert matcore.rank_value(a, scale) == matcore.rank(a, scale).value
        if certified:
            assert svd_full


class TestStackedCertificate:
    """``full_rank_certified`` on a ``(t, r, c)`` stack: one batched Gram
    product and Cholesky factorization, each matrix at its own cut."""

    @staticmethod
    def _each(stack, scale=0.0):
        return all(matcore.full_rank_certified(a, scale) for a in stack)

    @pytest.mark.parametrize("shape", [(6, 5, 3), (6, 3, 5), (4, 4, 4), (16, 6, 4)])
    def test_equals_all_of_the_per_matrix_certificates(self, shape):
        t, rows, cols = shape
        r = rng(40)
        stack = matcore.random_matrix(rows, cols, r, batch=(t,))
        assert (matcore.full_rank_certified(stack), self._each(stack)) == (True, True)
        # each matrix at its own scale: a slot scaled by 1e-12 still passes,
        # and a floor far above every slot's scale fails them all
        tiny = stack.copy()
        tiny[0] *= 1e-12
        assert (matcore.full_rank_certified(tiny), self._each(tiny)) == (True, True)
        assert (matcore.full_rank_certified(stack, 1e12), self._each(stack, 1e12)) == (
            False, False)
        # one planted deficient slot fails the stack
        k = min(rows, cols)
        deficient = stack.copy()
        deficient[2] = matcore.random_matrix(rows, k - 1, r) @ matcore.random_matrix(k - 1, cols, r)
        assert (matcore.full_rank_certified(deficient), self._each(deficient)) == (False, False)
        assert matcore.rank_value(deficient)[2] == k - 1

    @pytest.mark.parametrize("shape", [(0, 3, 2), (0, 2, 3), (3, 0, 2), (3, 2, 0)])
    def test_empty_stacks_pass(self, shape):
        assert matcore.full_rank_certified(np.zeros(shape, dtype=complex))

    @settings(max_examples=60, deadline=None)
    @given(
        t=st.integers(1, 5),
        rows=st.integers(1, 8),
        cols=st.integers(1, 8),
        exponents=st.lists(st.floats(-16.0, 0.0), min_size=5, max_size=5),
        floor=st.sampled_from([0.0, 0.5, 1e6]),
        seed=st.integers(0, 2**16),
    )
    def test_stack_is_all_of_its_matrices(self, t, rows, cols, exponents, floor, seed):
        # each slot's smallest singular value swept from 1 down past the cut:
        # the stack passes iff every slot does, and a pass proves the
        # batched SVD rank full in every slot
        k = min(rows, cols)
        stack = np.stack([_planted(rows, cols, [1.0] * (k - 1) + [10.0**e], seed + i)
                          for i, e in enumerate(exponents[:t])])
        certified = matcore.full_rank_certified(stack, floor)
        assert certified == self._each(stack, floor)
        if certified:
            assert all(matcore.rank(a, floor).value == k for a in stack)
            assert np.all(matcore.rank_value(stack, floor) == k)


class TestStackedRankValue:
    """``rank_value`` on a ``(t, r, c)`` stack: one stacked certificate, and
    where it fails one batched SVD, each matrix at ``rank``'s cut."""

    @staticmethod
    def _each(stack, scale=0.0):
        return np.array([matcore.rank(a, scale).value for a in stack])

    def test_random_stacks_are_certified_without_an_svd(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "svd", None)
        for shape in ((6, 4, 4), (5, 3, 6), (7, 6, 2)):
            stack = matcore.random_matrix(*shape[1:], rng(20), batch=shape[:1])
            got = matcore.rank_value(stack)
            assert got.shape == shape[:1] and np.all(got == min(shape[1:]))
        assert matcore.rank_value(np.zeros((0, 3, 2), dtype=complex)).shape == (0,)

    @pytest.mark.parametrize("scale", [0.0, 1e-13, 1.0])
    def test_deficient_zero_and_tiny_slots(self, scale):
        # each slot is cut at its own scale, floored at ``scale``: a slot
        # scaled by 1e-12 keeps its rank unless the floor is above it
        r = rng(21)
        stack = matcore.random_matrix(4, 4, r, batch=(6,))
        stack[1] = matcore.random_matrix(4, 2, r) @ matcore.random_matrix(2, 4, r)
        stack[2] = 0.0
        stack[3] = 1e-12 * stack[3]
        stack[4] = 1e-12 * (matcore.random_matrix(4, 3, r) @ matcore.random_matrix(3, 4, r))
        got = matcore.rank_value(stack, scale)
        assert np.array_equal(got, self._each(stack, scale))
        tiny = [4, 3] if scale < 1e-12 else [0, 0]
        assert got.tolist() == [4, 2, 0, *tiny, 4]

    def test_tolerance_matches_rank(self, monkeypatch):
        # singular values 1, 1e-4, 1e-8: the cut sits where rank puts it
        stack = np.array([np.diag([1.0, 1e-4, 1e-8]), np.diag([2.0, 2e-4, 2e-8])], dtype=complex)
        for tol, want in ((1e-9, 3), (1e-6, 2), (1e-2, 1)):
            monkeypatch.setattr(matcore, "REL_TOL", tol)
            assert matcore.rank_value(stack).tolist() == [want, want]
            assert np.array_equal(matcore.rank_value(stack), self._each(stack))

    def test_one_certificate_then_one_svd(self, monkeypatch):
        certified, svds = [], []
        certify, svd = matcore.full_rank_certified, np.linalg.svd
        monkeypatch.setattr(matcore, "full_rank_certified",
                            lambda a, scale=0.0: certified.append(np.shape(a)) or certify(a, scale))
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: svds.append(a.shape) or svd(a, **kw))
        stack = matcore.random_matrix(6, 4, rng(22), batch=(5,))
        stack[3, :, 0] = 0.0
        assert matcore.rank_value(stack).tolist() == [4, 4, 4, 3, 4]
        assert certified == [(5, 6, 4)] and svds == [(5, 6, 4)]

    def test_rejects_non_finite_entries(self):
        stack = matcore.random_matrix(3, 3, rng(23), batch=(2,))
        stack[1, 2, 2] = np.nan
        with pytest.raises(InvalidMatrix):
            matcore.rank_value(stack)


class TestTopBlock:
    """A tall ``r x c`` matrix with ``r >= 2c`` is first certified from its
    top ``c x c`` block, at ``max(||a||_F, scale)``."""

    @staticmethod
    def _spy(monkeypatch):
        certified = []
        certify = matcore.full_rank_certified

        def spy(a, scale=0.0):
            passed = certify(a, scale)
            certified.append((np.shape(a), scale, passed))
            return passed

        monkeypatch.setattr(matcore, "full_rank_certified", spy)
        return certified

    @pytest.mark.parametrize("shape", [(8, 4), (128, 64), (9, 3)])
    def test_a_pass_forms_no_whole_matrix_gram(self, monkeypatch, rank_calls, shape):
        a = matcore.random_matrix(*shape, rng(24))
        certified = self._spy(monkeypatch)
        assert matcore.rank_value(a) == shape[1]
        c = shape[1]
        assert certified == [((c, c), np.linalg.norm(a), True)] and rank_calls == []
        # a floor above ||a||_F is the block's scale
        certified.clear()
        assert matcore.rank_value(a, 1e12) == matcore.rank(a, 1e12).value == 0
        assert certified[0] == ((c, c), 1e12, False)

    def test_a_deficient_top_block_falls_back_to_the_whole_matrix(self, monkeypatch, rank_calls):
        a = matcore.random_matrix(8, 4, rng(25))
        a[:4, 0] = 0.0
        certified = self._spy(monkeypatch)
        assert matcore.rank_value(a) == matcore.rank(a).value == 4
        assert [(shape, passed) for shape, _, passed in certified] == [
            ((4, 4), False), ((8, 4), True)]
        assert rank_calls == [(8, 4)]  # the test's own call: rank_value took no SVD

    @pytest.mark.parametrize("shape", [(7, 4), (4, 8)])
    def test_other_shapes_are_certified_whole(self, monkeypatch, shape):
        certified = self._spy(monkeypatch)
        assert matcore.rank_value(matcore.random_matrix(*shape, rng(26))) == min(shape)
        assert certified == [(shape, 0.0, True)]


class TestNonFiniteScale:
    """A non-finite ``scale`` leaves no cut to clear: it fails the
    certificate, and the SVD rank or the validation decides."""

    @pytest.mark.parametrize("scale", [np.nan, np.inf])
    def test_fails_the_certificate(self, scale):
        assert not matcore.full_rank_certified(np.zeros((3, 3)), scale)
        assert not matcore.full_rank_certified(np.eye(3), scale)
        zeros = np.zeros((3, 3))
        assert matcore.rank_value(zeros, scale) == matcore.rank(zeros, scale).value == 0
        assert matcore.rank_value(zeros[None], scale).tolist() == [0]

    @pytest.mark.parametrize("scale", [np.nan, np.inf])
    @pytest.mark.parametrize("solve", [matcore.solve_square, matcore.solve_full_column_rank])
    def test_solves_refuse_at_the_rank_cut(self, solve, scale):
        # the solves cut where matcore.rank does: a NaN floor is ignored,
        # so the zero system is still refused, carrying the same rank 0
        with pytest.raises(SingularSystem) as singular:
            solve(np.zeros((3, 3)), np.ones(3), scale)
        assert singular.value.rank == matcore.rank(np.zeros((3, 3)), scale).value == 0

    def test_non_finite_entry_below_the_top_block_is_rejected(self):
        # the top block is finite and ||a||_F is NaN: the block must not
        # pass, so that the whole matrix is validated
        a = matcore.random_matrix(8, 3, rng(27))
        a[6, 1] = np.nan
        assert not matcore.full_rank_certified(a[:3], np.linalg.norm(a))
        with pytest.raises(InvalidMatrix):
            matcore.rank_value(a)


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
            assert matcore.rank(matcore.block_diag(blocks)).value == want

    def test_generic_lift_rank(self):
        r = rng(10)
        blocks = [matcore.random_matrix(3, 2, r) for _ in range(4)]
        out = matcore.block_diag(blocks)
        assert out.shape == (12, 8)
        assert matcore.rank(out).value == 4 * 2

    def test_off_block_entries_exactly_zero(self):
        out = matcore.block_diag([np.ones((2, 2)), np.ones((1, 3))])
        assert out[0, 2] == 0 and out[2, 0] == 0
        assert np.count_nonzero(out) == 7


def _slot_stack(rows):
    """The ``(t, n, 2m)`` slot blocks ``[h_j1 | h_j2]`` of ``(t, 2, n, m)`` rows."""
    t, _, n, m = rows.shape
    return rows.transpose(0, 2, 1, 3).reshape(t, n, 2 * m)


def _random_rows(t, n, m, r):
    return np.array([[matcore.random_matrix(n, m, r) for _ in range(2)] for _ in range(t)])


def _slot_order(t, m):
    """The lift-order columns ``[x1 stack | x2 stack]`` of ``t`` slots of
    ``m`` inputs each, in slot order: slot ``s``'s ``[x1 | x2]`` together."""
    return np.arange(2 * t * m).reshape(2, t, m).swapaxes(0, 1).reshape(-1)


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
        assert null.rank == matcore.rank(matcore.block_diag(list(blocks))).value
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

    def test_times_null_basis_in_slot_order(self):
        # a map whose columns are in slot order (slot s's [x1 | x2] inputs
        # together) times the block-diagonal null basis
        r = rng(17)
        t, n, m = 4, 3, 2
        rows = _random_rows(t, n, m, r)
        blocks = _slot_stack(rows)
        null = _one(blocks)
        dense = matcore.block_diag(list(null.basis))
        lifted = matcore.block_diag(list(_slot_stack(_random_rows(t, n, m, r))))
        for left in (lifted, matcore.random_matrix(7, 2 * t * m, r)):
            np.testing.assert_allclose(matcore.times_block_diagonal(left, null.basis),
                                       left @ dense, atol=1e-12)
        # the blocks' own block-diagonal matrix is annihilated
        own = matcore.times_block_diagonal(matcore.block_diag(list(blocks)), null.basis)
        assert np.max(np.abs(own)) <= 1e-12 * null.largest

    def test_times_block_diagonal_equals_the_dense_product(self):
        r = rng(20)
        t, n, m = 4, 3, 2
        blocks = _slot_stack(_random_rows(t, n, m, r))
        blocks[1] = matcore.random_matrix(3, 2, r) @ matcore.random_matrix(2, 4, r)  # padded basis
        null = _one(blocks)
        w = null.basis.shape[2]
        for n_rows, take in ((n, n), (5, 5), (5, 2)):
            rows = np.array([[matcore.random_matrix(n_rows, m, r) for _ in range(2)]
                             for _ in range(t)])
            # the lift times the null basis, each slot cut to its first ``take`` rows
            diagonal = _slot_stack(rows)[:, :take] @ null.basis
            dense = matcore.block_diag(list(diagonal))
            if take == n_rows:
                np.testing.assert_allclose(
                    dense, matcore.times_block_diagonal(lift_rows(rows)[:, _slot_order(t, m)],
                                                        null.basis), rtol=0, atol=1e-13)
            left = matcore.random_matrix(7, t * take, r)
            product = matcore.times_block_diagonal(left, diagonal)
            assert product.shape == (7, t * w)
            np.testing.assert_allclose(product, left @ dense, rtol=0, atol=1e-13)

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
            assert matcore.times_block_diagonal(np.zeros((5, 0)), null.basis).shape == (5, 0)
            diagonal = np.zeros((0, 5, 4), dtype=complex) @ null.basis
            assert matcore.times_block_diagonal(np.zeros((7, 0)), diagonal).shape == (7, 0)


class TestOneCut:
    """Every rank decision reads the one module constant ``matcore.REL_TOL``."""

    @staticmethod
    def _verdicts(a):
        """Whether each rank decider calls the tall ``a`` full column rank."""
        k = a.shape[1]
        (null,) = matcore.slot_null_bases(a[None, None])
        try:
            matcore.solve_full_column_rank(a, np.ones(a.shape[0]))
            solved = True
        except SingularSystem:
            solved = False
        return [
            matcore.rank(a).value == k,
            matcore.rank_value(a) == k,
            int(matcore.rank_value(a[None])[0]) == k,
            null.rank == k,
            solved,
        ]

    def test_all_deciders_flip_together(self, monkeypatch):
        # sigma_min = 1e-8 sigma_max: kept at the 1e-9 default, dropped at 1e-7
        a = _planted(9, 5, [1.0, 0.7, 0.5, 0.3, 1e-8], seed=33)
        assert matcore.REL_TOL == 1e-9
        assert self._verdicts(a) == [True] * 5
        monkeypatch.setattr(matcore, "REL_TOL", 1e-7)
        assert self._verdicts(a) == [False] * 5

    def test_no_function_takes_a_tolerance(self):
        seen = 0
        for info in pkgutil.iter_modules(xsdof.__path__):
            module = importlib.import_module(f"xsdof.{info.name}")
            owned = [v for v in vars(module).values()
                     if getattr(v, "__module__", None) == module.__name__]
            for obj in owned + [f for c in owned if inspect.isclass(c) for f in vars(c).values()]:
                if inspect.isfunction(obj):
                    seen += 1
                    assert "rel_tol" not in inspect.signature(obj).parameters, obj.__qualname__
        assert seen > 50
