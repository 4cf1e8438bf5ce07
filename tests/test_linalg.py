import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radiomap.linalg import (
    NotPositiveDefiniteError,
    cholesky,
    cholesky_stack,
    solve_cholesky,
)


def random_spd(rng, k):
    a = rng.normal(size=(k, k))
    return a @ a.T + k * np.eye(k)


def cholesky_one_by_one(m):
    # one matrix, pivot by pivot, with 1-D dot products: the reference for every factor in a stack
    k = m.shape[0]
    tol = 1e-12 * max(float(np.diag(m).max(initial=0.0)), 0.0)
    lower = np.zeros_like(m)
    for i in range(k):
        pivot = m[i, i] - float(lower[i, :i] @ lower[i, :i])
        if pivot <= tol:
            raise NotPositiveDefiniteError(i, pivot)
        lower[i, i] = math.sqrt(pivot)
        lower[i + 1 :, i] = (m[i + 1 :, i] - lower[i + 1 :, :i] @ lower[i, :i]) / lower[i, i]
    return lower


def random_spd_stack(rng, k, size):
    return np.array([rng.uniform(0.1, 1e3) * random_spd(rng, k) for _ in range(size)])


def indefinite():
    m = np.eye(5)
    m[0, 1] = m[1, 0] = 2.0  # pivot 1 is 1 - 2^2
    return m


def near_singular_gaussian():
    # the joint covariance at a grid point for a Gaussian kernel at spacing ratio 5e-4
    from radiomap import CorrelationModel, Point, build_square_scenario, covariance_matrix

    model = CorrelationModel("gaussian", sigma=5.0, xc=640.0 / 5e-4)
    scn = build_square_scenario(640.0, Point(-100.0, 0.0), 15.3, 3.76, model)
    return covariance_matrix(model, [Point(80.0, 80.0), *scn.sensors])


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(cholesky(np.eye(3)), np.eye(3))

    def test_two_by_two_hand_computation(self):
        lower = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
        assert np.allclose(lower, [[2.0, 0.0], [1.0, math.sqrt(2.0)]], rtol=1e-15)

    def test_indefinite_matrix_names_pivot(self):
        with pytest.raises(NotPositiveDefiniteError) as exc:
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert exc.value.pivot_index == 1
        assert "pivot 1" in str(exc.value)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            cholesky(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_exactly_symmetric_accepted(self):
        m = random_spd(np.random.default_rng(3), 5)
        assert np.array_equal(m, m.T)
        lower = cholesky(m)
        assert np.allclose(lower @ lower.T, m, atol=1e-12 * np.abs(m).max(), rtol=0)

    def test_asymmetry_within_tolerance_accepted(self):
        # the tolerance is 1e-9 of the largest magnitude; the factor reads the lower triangle
        m = 1e3 * random_spd(np.random.default_rng(4), 4)
        nudged = m.copy()
        nudged[0, 3] += 0.5e-9 * np.abs(m).max()
        assert np.array_equal(cholesky(nudged), cholesky(m))

    def test_asymmetry_beyond_tolerance_rejected(self):
        m = 1e3 * random_spd(np.random.default_rng(4), 4)
        m[0, 3] += 2e-9 * np.abs(m).max()
        with pytest.raises(ValueError, match="symmetric"):
            cholesky(m)

    def test_nan_entry_rejected(self):
        # a NaN pair is symmetric in position but equals nothing, itself included
        m = np.eye(3)
        m[0, 2] = m[2, 0] = math.nan
        with pytest.raises(ValueError, match="symmetric"):
            cholesky(m)

    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=50, deadline=None)
    def test_reconstruction(self, k, seed):
        m = random_spd(np.random.default_rng(seed), k)
        lower = cholesky(m)
        assert np.allclose(lower @ lower.T, m, atol=1e-8 * np.abs(m).max(), rtol=0)
        assert np.array_equal(lower, np.tril(lower))


class TestCholeskyStack:
    @pytest.mark.parametrize("size", [1, 2, 17])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_each_factor_matches_its_matrix_alone_bit_for_bit(self, k, size):
        stack = random_spd_stack(np.random.default_rng(100 * k + size), k, size)
        lower = cholesky(stack)
        assert lower.shape == stack.shape
        for m, factor in zip(stack, lower):
            assert factor.tobytes() == cholesky(m).tobytes() == cholesky_one_by_one(m).tobytes()
        as_value, error = cholesky_stack(stack.copy())
        assert error is None and as_value.tobytes() == lower.tobytes()

    def test_leading_axes_kept(self):
        stack = random_spd_stack(np.random.default_rng(5), 3, 6)
        assert cholesky(stack.reshape(2, 3, 3, 3)).tobytes() == cholesky(stack).tobytes()

    def test_single_matrix_error_has_index_zero(self):
        with pytest.raises(NotPositiveDefiniteError) as exc:
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert exc.value.index == 0

    @pytest.mark.parametrize("i", [0, 3, 16])
    @pytest.mark.parametrize(
        "bad",
        [indefinite(), near_singular_gaussian()],
        ids=["indefinite", "near-singular-gaussian"],
    )
    def test_failing_matrix_named_by_index_and_pivot(self, i, bad):
        with pytest.raises(NotPositiveDefiniteError) as alone:
            cholesky(bad)
        with pytest.raises(NotPositiveDefiniteError, match=f"^{alone.value}$"):
            cholesky_one_by_one(bad)
        stack = random_spd_stack(np.random.default_rng(i), 5, 17)
        stack[i] = bad
        with pytest.raises(NotPositiveDefiniteError) as exc:
            cholesky(stack)
        assert exc.value.index == i
        assert exc.value.pivot_index == alone.value.pivot_index
        assert exc.value.pivot_value == alone.value.pivot_value
        assert str(exc.value) == str(alone.value)
        # as a value: the same error, the factors before it kept, and every entry finite
        lower, error = cholesky_stack(stack.copy())
        assert (error.index, error.pivot_index, error.pivot_value) == (i, exc.value.pivot_index, exc.value.pivot_value)
        assert all(factor.tobytes() == cholesky(m).tobytes() for m, factor in zip(stack[:i], lower[:i]))
        assert np.isfinite(lower).all()

    def test_lowest_failing_matrix_wins_over_an_earlier_pivot(self):
        # matrix 1 fails at pivot 3 only; matrix 2 fails at pivot 1
        stack = np.array([np.eye(5), near_singular_gaussian(), indefinite()])
        with pytest.raises(NotPositiveDefiniteError) as exc:
            cholesky(stack)
        assert (exc.value.index, exc.value.pivot_index) == (1, 3)
        _, error = cholesky_stack(stack)
        assert (error.index, error.pivot_index) == (1, 3)

    @pytest.mark.parametrize("i", [0, 5, 16])
    def test_asymmetric_matrix_anywhere_rejected(self, i):
        stack = random_spd_stack(np.random.default_rng(7), 4, 17)
        stack[i, 0, 3] += 2e-9 * np.abs(stack[i]).max()
        with pytest.raises(ValueError, match="symmetric"):
            cholesky(stack)

    @pytest.mark.parametrize("i", [0, 5, 16])
    def test_nan_matrix_anywhere_rejected(self, i):
        stack = random_spd_stack(np.random.default_rng(8), 4, 17)
        stack[i, 0, 2] = stack[i, 2, 0] = math.nan
        with pytest.raises(ValueError, match="symmetric"):
            cholesky(stack)

    def test_asymmetry_tolerance_is_per_matrix(self):
        # a nudge within a small matrix's tolerance is not forgiven by a larger neighbour's scale
        small = random_spd(np.random.default_rng(9), 4)
        small[0, 3] += 2e-9 * np.abs(small).max()
        big = 1e6 * random_spd(np.random.default_rng(10), 4)
        with pytest.raises(ValueError, match="symmetric"):
            cholesky(np.array([big, small]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            cholesky(np.ones((3, 2, 3)))

    def test_stack_factored_in_its_own_storage_when_writable(self):
        stack = random_spd_stack(np.random.default_rng(11), 4, 3)
        kept = stack.copy()
        lower, _ = cholesky_stack(stack)
        assert np.shares_memory(lower, stack) and lower.tobytes() == cholesky(kept).tobytes()
        read_only = np.broadcast_to(kept[0], (2, 4, 4))
        lower, _ = cholesky_stack(read_only)
        assert np.array_equal(read_only[1], kept[0]) and lower[1].tobytes() == cholesky(kept[0]).tobytes()
        before = kept.copy()
        cholesky(kept)
        assert kept.tobytes() == before.tobytes()  # cholesky factors a copy


def solve(m, b):
    return solve_cholesky(cholesky(m), b)


class TestSolveCholesky:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.0])
        assert np.array_equal(solve(np.eye(3), b), b)

    def test_diagonal(self):
        x = solve(np.diag([2.0, 4.0]), np.array([2.0, 8.0]))
        assert np.allclose(x, [1.0, 2.0], rtol=1e-15)

    def test_random_system_residual(self):
        # verified by substitution into the original system
        rng = np.random.default_rng(7)
        m = random_spd(rng, 5)
        b = rng.normal(size=5)
        x = solve(m, b)
        assert np.abs(m @ x - b).max() <= 1e-8 * np.abs(b).max()

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=50, deadline=None)
    def test_recovers_known_solution(self, k, seed):
        rng = np.random.default_rng(seed)
        m = random_spd(rng, k)
        x = rng.normal(size=k)
        got = solve(m, m @ x)
        assert np.allclose(got, x, rtol=1e-7, atol=1e-7 * np.abs(x).max())

    def test_columns_solve_as_single_vectors(self):
        rng = np.random.default_rng(9)
        m = random_spd(rng, 6)
        b = rng.normal(size=(6, 3))
        got = solve(m, b)
        for j in range(3):
            assert np.allclose(got[:, j], solve(m, b[:, j]), rtol=1e-12, atol=0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            solve(np.eye(3), np.ones(2))

    @pytest.mark.parametrize("k, size", [(1, 1), (4, 9), (5, 3)])
    def test_each_stacked_solve_matches_its_factor_alone_bit_for_bit(self, k, size):
        # right-hand sides laid out as the analytic engine passes them: transposed (N, k) rows
        rng = np.random.default_rng(k * 10 + size)
        lower = cholesky(np.array([random_spd(rng, k) for _ in range(size)]))
        rows = rng.normal(size=(size, 37, k))
        got = solve_cholesky(lower, np.swapaxes(rows, 1, 2))
        assert got.shape == (size, k, 37)
        for j in range(size):
            assert got[j].tobytes() == solve_cholesky(lower[j], rows[j].T).tobytes()

    def test_stacked_dimension_mismatch(self):
        with pytest.raises(ValueError, match="matrix is 3x3, vector has 2"):
            solve_cholesky(np.stack([np.eye(3)] * 2), np.ones((2, 2, 4)))
