"""Small dense SPD linear algebra: Cholesky, solves, quadratic forms.

Covariance matrices in this package are at most (n+1) x (n+1) with n = 4 by
default, so a plain O(k^3) factorization is the whole story. The value this
module adds over a library call is the failure contract: a non-positive
pivot raises NotPositiveDefiniteError naming the pivot index, which callers
use to distinguish coincident-point covariances from genuine bugs.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "NotPositiveDefiniteError",
    "cholesky",
    "solve_cholesky",
    "solve_spd",
    "quadratic_form",
]

# A pivot must exceed this fraction of the largest diagonal entry.
_PIVOT_RTOL = 1e-12


class NotPositiveDefiniteError(ValueError):
    """Raised when a Cholesky pivot is not positive (within tolerance)."""

    def __init__(self, pivot_index: int, pivot_value: float):
        self.pivot_index = pivot_index
        self.pivot_value = pivot_value
        super().__init__(
            f"matrix is not positive definite: pivot {pivot_index} is {pivot_value:.6g}"
        )


def _check_symmetric(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if (m == m.T).all():  # the common case, built symmetric; NaN never equals itself
        return m
    scale = np.abs(m).max()
    if np.isnan(scale) or not np.allclose(m, m.T, atol=1e-9 * max(scale, 1.0), rtol=0.0):
        raise ValueError("matrix is not symmetric")
    return m


def cholesky(m: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L @ L.T == m, for symmetric positive definite m."""
    m = _check_symmetric(m)
    k = m.shape[0]
    tol = _PIVOT_RTOL * max(float(np.diag(m).max(initial=0.0)), 0.0)
    lower = np.zeros_like(m)
    for i in range(k):
        pivot = m[i, i] - float(lower[i, :i] @ lower[i, :i])
        if pivot <= tol:
            raise NotPositiveDefiniteError(i, pivot)
        lii = math.sqrt(pivot)
        lower[i, i] = lii
        if i + 1 < k:
            lower[i + 1 :, i] = (m[i + 1 :, i] - lower[i + 1 :, :i] @ lower[i, :i]) / lii
    return lower


def solve_cholesky(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L @ L.T) x = b given a precomputed Cholesky factor L.

    b is one right-hand side of length k, or a (k, m) array of m of them.
    """
    lower = np.asarray(lower, dtype=float)
    b = np.asarray(b, dtype=float)
    k = lower.shape[0]
    if b.shape[0] != k:
        raise ValueError(f"dimension mismatch: matrix is {k}x{k}, vector has {b.shape[0]}")
    y = np.zeros_like(b)
    for i in range(k):
        y[i] = (b[i] - lower[i, :i] @ y[:i]) / lower[i, i]
    x = np.zeros_like(b)
    for i in range(k - 1, -1, -1):
        x[i] = (y[i] - lower[i + 1 :, i] @ x[i + 1 :]) / lower[i, i]
    return x


def solve_spd(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve m x = b for symmetric positive definite m (never forms an inverse)."""
    return solve_cholesky(cholesky(m), b)


def quadratic_form(m: np.ndarray, a: np.ndarray) -> float:
    """a.T @ m @ a."""
    m = np.asarray(m, dtype=float)
    a = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if a.shape[0] != m.shape[0]:
        raise ValueError(f"dimension mismatch: matrix is {m.shape[0]}x{m.shape[0]}, vector has {a.shape[0]}")
    return float(a @ m @ a)
