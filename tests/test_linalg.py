import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radiomap.linalg import (
    NotPositiveDefiniteError,
    cholesky,
    quadratic_form,
    solve_cholesky,
    solve_spd,
)


def random_spd(rng, k):
    a = rng.normal(size=(k, k))
    return a @ a.T + k * np.eye(k)


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


class TestSolveSpd:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.0])
        assert np.array_equal(solve_spd(np.eye(3), b), b)

    def test_diagonal(self):
        x = solve_spd(np.diag([2.0, 4.0]), np.array([2.0, 8.0]))
        assert np.allclose(x, [1.0, 2.0], rtol=1e-15)

    def test_random_system_residual(self):
        # verified by substitution into the original system
        rng = np.random.default_rng(7)
        m = random_spd(rng, 5)
        b = rng.normal(size=5)
        x = solve_spd(m, b)
        assert np.abs(m @ x - b).max() <= 1e-8 * np.abs(b).max()

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=50, deadline=None)
    def test_recovers_known_solution(self, k, seed):
        rng = np.random.default_rng(seed)
        m = random_spd(rng, k)
        x = rng.normal(size=k)
        got = solve_spd(m, m @ x)
        assert np.allclose(got, x, rtol=1e-7, atol=1e-7 * np.abs(x).max())

    def test_factored_solve_matches(self):
        rng = np.random.default_rng(9)
        m = random_spd(rng, 6)
        b = rng.normal(size=6)
        assert np.array_equal(solve_cholesky(cholesky(m), b), solve_spd(m, b))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            solve_spd(np.eye(3), np.ones(2))


class TestQuadraticForm:
    def test_identity(self):
        assert quadratic_form(np.eye(2), np.array([3.0, 4.0])) == 25.0

    def test_zero_vector(self):
        assert quadratic_form(np.eye(4), np.zeros(4)) == 0.0

    def test_hand_computation(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert quadratic_form(m, np.array([1.0, 1.0])) == 6.0

    def test_nonnegative_on_spd(self):
        rng = np.random.default_rng(13)
        m = random_spd(rng, 5)
        for _ in range(50):
            assert quadratic_form(m, rng.normal(size=5)) >= 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            quadratic_form(np.eye(3), np.ones(4))
