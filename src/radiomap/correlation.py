"""Spatial correlation kernels and covariance construction for shadow fading.

Three kernels are supported, all returning covariances in dB^2 (not
normalized coefficients):

* exponential:  sigma^2 * exp(-d / xc)
* gaussian:     sigma^2 * exp(-(d / xc)^2)
* elliptical:   sigma^2 * exp(-d_eff / xc)  with geometric anisotropy

The elliptical kernel rotates the displacement by -rotation, shrinks the
major-axis component by 1/axis_ratio, and feeds the resulting effective
distance to the exponential form; with axis_ratio = 1 it reduces exactly to
the exponential kernel.

The formulas are written once, in cross_covariance_stack(), over (N, 2) and
(M, 2) coordinate arrays (geometry.coordinates) and a sequence of models
that differ in sigma and xc alone, as a sweep over spacing ratios does: the
effective distances are the same for all of them, so they are computed
once, and matrix k of a stack has the bits of the same matrix built for
models[k] alone. covariance_stack() is its case of one point set, and the
Point entries (correlation, cross_covariance, covariance_matrix,
cross_covariance_matrix) are its cases of one model, one row or one pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Point, coordinates

__all__ = [
    "EXPONENTIAL",
    "GAUSSIAN",
    "ELLIPTICAL",
    "KERNEL_KINDS",
    "CorrelationModel",
    "correlation",
    "covariance_matrix",
    "covariance_stack",
    "cross_covariance",
    "cross_covariance_matrix",
    "cross_covariance_stack",
]

EXPONENTIAL = "exponential"
GAUSSIAN = "gaussian"
ELLIPTICAL = "elliptical"
KERNEL_KINDS = (EXPONENTIAL, GAUSSIAN, ELLIPTICAL)


@dataclass(frozen=True)
class CorrelationModel:
    """Shadow-fading correlation kernel with its parameters.

    axis_ratio (major/minor) and rotation (radians, major-axis direction)
    only apply to the elliptical kernel and are ignored otherwise.
    """

    kind: str
    sigma: float
    xc: float
    axis_ratio: float = 3.3
    rotation: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}, expected one of {KERNEL_KINDS}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.xc <= 0:
            raise ValueError(f"correlation distance must be positive, got {self.xc}")
        if self.axis_ratio < 1:
            raise ValueError(f"axis ratio must be >= 1, got {self.axis_ratio}")


def _shared_shape(models: list[CorrelationModel]) -> CorrelationModel:
    """The first model, once every model is checked to differ from it in sigma and xc alone."""
    if not models:
        raise ValueError("need at least one correlation model")
    first = models[0]
    shape = (first.kind, first.axis_ratio, first.rotation)
    if any((m.kind, m.axis_ratio, m.rotation) != shape for m in models[1:]):
        raise ValueError("the models of a stack must differ in sigma and xc alone")
    return first


def cross_covariance_stack(models: list[CorrelationModel], a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(K, N, M) covariances between the rows of (N, 2) and (M, 2) coordinate arrays, matrix k under models[k].

    The package's one kernel: every covariance is an entry of one of its
    stacks. Where d / xc or its square overflows, the correlation is exactly
    0; a sigma whose square overflows raises OverflowError naming sigma.
    """
    shape = _shared_shape(models)
    dx = b[None, :, 0] - a[:, None, 0]
    dy = b[None, :, 1] - a[:, None, 1]
    if shape.kind == ELLIPTICAL:  # the displacement in the ellipse frame, its major axis shrunk
        c = math.cos(shape.rotation)
        s = math.sin(shape.rotation)
        dx, dy = (c * dx + s * dy) / shape.axis_ratio, -s * dx + c * dy
    d = np.hypot(dx, dy)
    try:
        var = np.array([m.sigma**2 for m in models])[:, None, None]
    except OverflowError:
        raise OverflowError(f"sigma^2 overflows a double at sigma = {max(m.sigma for m in models)!r} dB") from None
    xc = np.array([m.xc for m in models])[:, None, None]
    with np.errstate(over="ignore"):
        r = d / xc
        if shape.kind == GAUSSIAN:
            r = r**2
    return var * np.exp(-r)


def covariance_stack(models: list[CorrelationModel], xy: np.ndarray) -> np.ndarray:
    """(K, k, k) stack of the models' covariance matrices over the rows of xy; each symmetric with sigma^2 diagonal."""
    return cross_covariance_stack(models, xy, xy)


def correlation(model: CorrelationModel, p: Point, q: Point) -> float:
    """Shadow-fading covariance between two locations, in dB^2."""
    return float(cross_covariance(model, p, [q])[0])


def covariance_matrix(model: CorrelationModel, points: list[Point]) -> np.ndarray:
    """k x k covariance matrix over a point set: covariance_stack() of one model."""
    return covariance_stack([model], coordinates(points))[0]


def cross_covariance(model: CorrelationModel, p0: Point, points: list[Point]) -> np.ndarray:
    """Covariances of the shadow value at p0 against each listed point: cross_covariance_matrix() at p0."""
    return cross_covariance_matrix(model, [p0], points)[0]


def cross_covariance_matrix(model: CorrelationModel, queries: list[Point], points: list[Point]) -> np.ndarray:
    """(len(queries), len(points)) array whose row i is cross_covariance(model, queries[i], points)."""
    return cross_covariance_stack([model], coordinates(queries), coordinates(points))[0]
