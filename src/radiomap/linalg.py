"""Small dense SPD linear algebra: a Cholesky factor and solves against it.

Covariance matrices in this package are at most (n+1) x (n+1) with n = 4 by
default, so a plain O(k^3) factorization is the whole story. The value this
module adds over a library call is the failure contract: a non-positive
pivot gives a NotPositiveDefiniteError naming the pivot index, which callers
use to distinguish coincident-point covariances from genuine bugs.

cholesky_stack() factors a (..., k, k) stack of matrices in one pass, pivot
by pivot over the whole stack, in the stack's own storage, and returns the
lowest failing matrix's error as a value; cholesky() raises it. A 2-D
matrix is a stack of one. Each pivot's dot products go through np.matmul
with the operands a single matrix would give it, so every factor in a stack
has the bits of that matrix factored alone, and a failing matrix reports
the pivot it would report alone.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NotPositiveDefiniteError",
    "cholesky",
    "cholesky_stack",
    "solve_cholesky",
]

# A pivot must exceed this fraction of the largest diagonal entry.
_PIVOT_RTOL = 1e-12


class NotPositiveDefiniteError(ValueError):
    """Raised when a Cholesky pivot is not positive (within tolerance).

    index is the position of the lowest failing matrix in the flattened
    stack (0 for a single matrix); the message is that matrix's alone.
    """

    def __init__(self, pivot_index: int, pivot_value: float, index: int = 0):
        self.pivot_index = pivot_index
        self.pivot_value = pivot_value
        self.index = index
        super().__init__(
            f"matrix is not positive definite: pivot {pivot_index} is {pivot_value:.6g}"
        )


def _check_symmetric(m: np.ndarray) -> np.ndarray:
    """m as a float array of square matrices, each symmetric to within 1e-9 of its largest magnitude."""
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    mt = np.swapaxes(m, -2, -1)
    if (m == mt).all():  # the common case, built symmetric; NaN never equals itself
        return m
    scale = np.abs(m).max(axis=(-2, -1))
    atol = 1e-9 * np.maximum(scale, 1.0)[..., None, None]
    if np.isnan(scale).any() or not np.isclose(m, mt, atol=atol, rtol=0.0).all():
        raise ValueError("matrix is not symmetric")
    return m


def cholesky_stack(m: np.ndarray) -> tuple[np.ndarray, NotPositiveDefiniteError | None]:
    """Lower-triangular factors of a (..., k, k) stack of symmetric matrices, and the lowest failing matrix's error.

    The error is None when every matrix is positive definite; otherwise it
    is the NotPositiveDefiniteError of the lowest-indexed failing matrix,
    whose entry of the result is not a factor. The factors are written over
    m's own storage when m is a writable C-contiguous float array, so a
    stack is never held twice: pass a copy to keep m. The factorization
    reads only m's lower triangle.
    """
    m = _check_symmetric(np.require(m, float, ["C", "W"]))
    k = m.shape[-1]
    lower = m.reshape(-1, k, k)
    tol = _PIVOT_RTOL * np.maximum(np.diagonal(lower, axis1=1, axis2=2).max(axis=1, initial=0.0), 0.0)
    first = None  # (matrix, pivot index, pivot value) of the lowest failing matrix so far
    for i in range(k):
        row = lower[:, i, None, :i]        # (N, 1, i): row i of the factors so far
        col = row.transpose(0, 2, 1)       # the same entries as an (N, i, 1) column
        pivot = lower[:, i, i] - np.matmul(row, col)[:, 0, 0]
        bad = pivot <= tol
        if bad.any():
            j = int(np.argmax(bad))
            if first is None or j < first[0]:
                first = (j, i, float(pivot[j]))
            # a failed matrix runs on as the identity, so the rest stays finite
            lower[bad] = np.eye(k)
            tol[bad] = 0.0
            pivot[bad] = 1.0
        lii = np.sqrt(pivot, out=pivot)
        lower[:, i, i] = lii
        if i + 1 < k:
            below = lower[:, i + 1 :, i]  # column i of the matrices, below the diagonal
            if i:
                below -= np.matmul(lower[:, i + 1 :, :i], col)[:, :, 0]
            below /= lii[:, None]
    lower[:, ~np.tri(k, dtype=bool)] = 0.0  # the entries above the diagonal
    error = None if first is None else NotPositiveDefiniteError(first[1], first[2], first[0])
    return lower.reshape(m.shape), error


def cholesky(m: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L @ L.T == m, for each symmetric positive definite matrix of a (..., k, k) stack.

    cholesky_stack() on a copy of m, raising its error if any matrix fails.
    """
    lower, error = cholesky_stack(np.array(m, dtype=float))
    if error is not None:
        raise error
    return lower


def solve_cholesky(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L @ L.T) x = b given a precomputed Cholesky factor L.

    lower is one (k, k) factor, with b one right-hand side of length k or a
    (k, m) array of m of them; or a (..., k, k) stack of factors, with b the
    (..., k, m) stack of their right-hand sides. One factor runs as a stack
    of one. Each substitution step goes through np.matmul with the operands
    a single factor would give it, so each solve in a stack has the bits it
    has alone.
    """
    lower = np.asarray(lower, dtype=float)
    b = np.asarray(b, dtype=float)
    shape = b.shape
    if lower.ndim == 2:
        lower, b = lower[None], b.reshape((1, shape[0], -1))
    k = lower.shape[-1]
    if b.shape[-2] != k:
        raise ValueError(f"dimension mismatch: matrix is {k}x{k}, vector has {b.shape[-2]}")
    diagonal = np.diagonal(lower, axis1=-2, axis2=-1)[..., None]
    y = np.zeros_like(b)
    for i in range(k):
        known = (lower[..., i, None, :i] @ y[..., :i, :])[..., 0, :]  # row i of L against y so far
        y[..., i, :] = (b[..., i, :] - known) / diagonal[..., i, :]
    x = np.zeros_like(b)
    for i in range(k - 1, -1, -1):
        known = (lower[..., None, i + 1 :, i] @ x[..., i + 1 :, :])[..., 0, :]  # column i of L against x so far
        x[..., i, :] = (y[..., i, :] - known) / diagonal[..., i, :]
    return x.reshape(shape)
