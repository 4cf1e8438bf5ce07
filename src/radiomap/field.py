"""Ground-truth synthesis: median powers and correlated shadow fading.

Shadow values at a query point and its n sensors are drawn jointly from the
zero-mean Gaussian with covariance given by the scenario's correlation
model: s = L z, where L is the Cholesky factor of the (n+1) x (n+1) joint
covariance (query point first) and z is a vector of independent standard
normals. joint_factors() assembles these covariances for N points from
the C0 rows and Cn of one model or of every model of a sweep (which builds
them once, as stacks: analysis.sweep_setup) as one stack and
factors it in one call, returning the lowest failure as a value. Each
point's factor has the bits of the same matrix factored alone, and
joint_cholesky() is the stack at one point.

emitter_log_distances() takes an array of points' emitter distances once,
for the median powers (median_powers) and the log-distance fit alike.

Reproducibility contract
------------------------
Normals are produced by the inverse normal CDF applied to uniforms from a
Philox-4x64 counter stream keyed by (master_seed, point_index). Each
realization owns an aligned block of raw 64-bit words; realization r uses
words [r * W, r * W + n + 1) with W = 4 * ceil((n+1)/4). A raw word x maps
to the uniform ((x >> 11) + 0.5) * 2^-53, the sum rounded to a double;
where x >> 11 is 2^53 - 1 the sum rounds up to 2^53, and the word maps to
1 - 2^-53 instead. So every uniform lies in the open interval (0, 1), and
every normal is finite. The variates for (master_seed, point_index,
realization_index) are therefore a pure function of those three integers,
independent of how many realizations are requested, in what order, or on
how many threads. A realization's shadows are its point's joint factor
times its normals, one BLAS product per point, with the same bits whatever
the call holds: any number of points or realizations, either layout, any
worker or BLAS thread count. One realization is the first column of a
two-column product, as numpy's one-column gemv has other bits.
sample_shadow() is that statement for one realization.
Each stream's generator is seeded explicitly and keyed through its state:
the words of Philox(key=...), without the OS entropy that Philox(key=...)
reads first and the key then overrides.

The inverse CDF is scipy.special.ndtri. It is imported at the first draw,
not with this module: importing scipy.special costs a fresh interpreter
that has loaded numpy about 0.29 s on a 2-core Xeon VM (median of 8, on
one BLAS thread or on the default pool alike), and analytic runs never
draw a normal, so they never pay it.
Later draws find it in sys.modules. Where it is imported changes no bit.

Layout
------
Blocks of realizations are stored sensor-major: one contiguous row per
variate (the query point first, then each sensor), each row running over
all realizations. The functions return the documented (realizations,
variates) shapes as transposed views of those rows, so every elementwise
pass and every sum over sensors runs along whole contiguous rows, and the
row correlation is one (n+1, n+1) x (n+1, R) product.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import Point, Scenario, coordinates
from .correlation import covariance_stack, cross_covariance_stack
from .linalg import NotPositiveDefiniteError, cholesky_stack

__all__ = [
    "emitter_log_distances",
    "median_powers",
    "median_power",
    "joint_factors",
    "joint_cholesky",
    "standard_normal_block",
    "sample_shadow",
    "correlate_normals",
]


def emitter_log_distances(scn: Scenario, xy: np.ndarray) -> np.ndarray:
    """log10 of each row's distance from the emitter, for an (N, 2) coordinate array.

    Taken per element with math.hypot and math.log10, whose last bits
    numpy's hypot and log10 do not always share. ValueError names the first
    row at the emitter.
    """
    d = list(map(math.hypot, (xy[:, 0] - scn.emitter.x).tolist(), (xy[:, 1] - scn.emitter.y).tolist()))
    if 0.0 in d:
        x, y = xy[d.index(0.0)].tolist()
        raise ValueError(f"zero emitter distance at point ({x}, {y})")
    return np.array(list(map(math.log10, d)))


def median_powers(scn: Scenario, log_distances: np.ndarray) -> np.ndarray:
    """Median received power a_db + 10 * gamma * log10(d) in dB at log10 emitter distances (d in meters from 1 m)."""
    return scn.a_db + 10.0 * scn.gamma * log_distances


def median_power(scn: Scenario, p: Point) -> float:
    """Median received power at one point: median_powers() of its emitter_log_distances()."""
    return float(median_powers(scn, emitter_log_distances(scn, coordinates([p])))[0])


def joint_factors(c_0: np.ndarray, c_n: np.ndarray) -> tuple[np.ndarray, NotPositiveDefiniteError | None]:
    """Cholesky factors of the joint covariances over [p, sensors] (p first), one per row of c_0, and the first failure.

    c_0 holds the (..., N, n) point-sensor covariances and c_n the (..., n, n)
    sensor covariances of one model or of a stack of them; the factors are
    their (..., N, n+1, n+1) stack, built in one allocation and factored in
    place by one cholesky_stack() call. The error is None when every joint
    covariance is positive definite; otherwise its index is the lowest
    failing point's in the flattened (model, point) stack.
    """
    n = c_n.shape[-1]
    stack = np.empty((*c_0.shape[:-1], n + 1, n + 1))
    stack[..., 1:, 1:] = c_n[..., None, :, :]
    stack[..., 0, 0] = c_n[..., None, 0, 0]  # sigma^2, the kernel at zero distance
    stack[..., 0, 1:] = stack[..., 1:, 0] = c_0
    return cholesky_stack(stack)


def joint_cholesky(scn: Scenario, p0: Point) -> np.ndarray:
    """Cholesky factor of the joint covariance over [p0, sensors] (p0 first): joint_factors at one point, raising its error."""
    model, sensors = [scn.correlation], coordinates(scn.sensors)
    c_0 = cross_covariance_stack(model, coordinates([p0]), sensors)[0]
    lower, error = joint_factors(c_0, covariance_stack(model, sensors)[0])
    if error is not None:
        raise error
    return lower[0]


def _normal_rows(raw: np.ndarray, n_variates: int, out: np.ndarray) -> np.ndarray:
    """Standard normals into the (n_variates, R) rows of out from an (R, W) block of raw words; raw is overwritten."""
    # Every map below is elementwise, so dropping the padding words first
    # gives the same bits as transforming them and slicing afterwards.
    raw >>= np.uint64(11)
    out[...] = raw[:, :n_variates].T  # exact below 2^53; np.add would take a 64 KB buffer
    out += 0.5  # exact below 2^52, rounded to even above
    out *= 2.0**-53
    np.minimum(out, 1.0 - 2.0**-53, out=out)  # the one sum that rounds up to 2^53 would give u = 1
    from scipy.special import ndtri

    return ndtri(out, out=out)


def standard_normal_block(
    master_seed: int,
    point_index: int,
    n_variates: int,
    realizations: int,
    first_realization: int = 0,
    out: np.ndarray | None = None,
    bitgen: np.random.Philox | None = None,
) -> np.ndarray:
    """(realizations, n_variates) standard normals for consecutive realizations.

    Row k holds the variates of realization ``first_realization + k``. The
    array is the transposed view of sensor-major rows, one per variate:
    out's (n_variates, realizations) rows, if given, which the normals
    overwrite. bitgen, if given, is a Philox generator that the call keys
    afresh and draws from, whatever its state: a caller drawing many
    streams saves building one per stream (about 15 us each on a 2-core
    Xeon VM).
    """
    # Philox advances in ticks of 4 raw words; aligned blocks keep
    # single-realization access O(1).
    words = 4 * ((n_variates + 3) // 4)
    if bitgen is None:
        bitgen = np.random.Philox(0)  # an explicit seed reads no OS entropy
    # counter 0 and no buffered word, as Philox(key=...) starts
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, np.uint64), "key": np.array([master_seed, point_index], dtype=np.uint64)},
        "buffer": np.zeros(4, np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    if first_realization:
        bitgen.advance(first_realization * (words // 4))
    if out is None:
        out = np.empty((n_variates, realizations))
    return _normal_rows(bitgen.random_raw(realizations * words).reshape(realizations, words), n_variates, out).T


def _correlate_rows(z: np.ndarray, lower: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Rows of z through the lower-triangular factor: out[..., r, :] = lower @ z[..., r, :], as one matmul.

    Leading axes, if any, stack points, each through its own factor by one
    BLAS gemm. The result is the transposed view of sensor-major rows. A
    gemm column's bits depend on neither the other columns nor the thread
    count; normals in either layout are multiplied as contiguous rows, and
    one realization as the first column of two (see the module docstring).
    out, if given, is the (..., n+1, R) block of contiguous rows to fill.
    """
    zt = np.ascontiguousarray(z.swapaxes(-1, -2))
    if out is None:
        out = np.empty(zt.shape)
    if zt.shape[-1] == 1:
        out[...] = np.matmul(lower, np.concatenate((zt, zt), axis=-1))[..., :1]
    else:
        np.matmul(lower, zt, out=out)
    return out.swapaxes(-1, -2)


def _check_stream_keys(**keys: int) -> None:
    """Raise ValueError naming the first of the keys that does not fit in an unsigned 64-bit integer."""
    for name, value in keys.items():
        if not 0 <= value < 2**64:
            raise ValueError(f"{name} must fit in an unsigned 64-bit integer, got {value}")


def sample_shadow(
    scn: Scenario, p0: Point, master_seed: int, point_index: int = 0, realization_index: int = 0
) -> tuple[float, np.ndarray]:
    """One joint shadow draw at (p0, sensors): (s0, s of shape (n,)), a pure function of the three integers.

    Each integer must fit in an unsigned 64-bit integer; ValueError names
    the first that does not. The draw is row realization_index of what
    correlate_normals(joint_cholesky(scn, p0), standard_normal_block(master_seed,
    point_index, n + 1, R)) gives for any R above realization_index.
    """
    _check_stream_keys(master_seed=master_seed, point_index=point_index, realization_index=realization_index)
    z = standard_normal_block(master_seed, point_index, scn.n_sensors + 1, 1, first_realization=realization_index)
    s0, s = correlate_normals(joint_cholesky(scn, p0), z)
    return float(s0[0]), s[0]


def correlate_normals(lower: np.ndarray, z: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Joint shadow rows from (R, n+1) standard normals through a joint factor: (s0 of shape (R,), s of shape (R, n)).

    lower is a point's joint Cholesky factor (query point first). s.T holds
    one contiguous row per sensor. The normals depend on the stream alone,
    not on the correlation model, so one block drawn at a point serves
    every model there. out, if given, is an (n+1, R) block of contiguous
    rows that receives the query point's row, then each sensor's; s0 and s
    are then views of it. A (P, n+1, n+1) stack of factors takes a
    (P, R, n+1) stack of normals, each point's with the bits it has alone,
    and every shape above gains the leading axis P.
    """
    joint = _correlate_rows(z, lower, out)
    return joint[..., 0], joint[..., 1:]
