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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Point, distance

__all__ = [
    "EXPONENTIAL",
    "GAUSSIAN",
    "ELLIPTICAL",
    "KERNEL_KINDS",
    "CorrelationModel",
    "effective_distance",
    "correlation",
    "covariance_matrix",
    "cross_covariance",
    "cross_covariance_matrix",
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


def effective_distance(model: CorrelationModel, p: Point, q: Point) -> float:
    """Distance that enters the kernel: Euclidean, or anisotropy-corrected.

    For the elliptical kernel the displacement is rotated into the ellipse
    frame and the major-axis component divided by the axis ratio, so the
    locus of constant effective distance is an ellipse.
    """
    if model.kind != ELLIPTICAL:
        return distance(p, q)
    dx = q.x - p.x
    dy = q.y - p.y
    c = math.cos(model.rotation)
    s = math.sin(model.rotation)
    major = c * dx + s * dy
    minor = -s * dx + c * dy
    return math.hypot(major / model.axis_ratio, minor)


def correlation(model: CorrelationModel, p: Point, q: Point) -> float:
    """Shadow-fading covariance between two locations, in dB^2."""
    d = effective_distance(model, p, q)
    if model.kind == GAUSSIAN:
        return model.sigma**2 * math.exp(-((d / model.xc) ** 2))
    return model.sigma**2 * math.exp(-d / model.xc)


def covariance_matrix(model: CorrelationModel, points: list[Point]) -> np.ndarray:
    """k x k covariance matrix over a point set; symmetric with sigma^2 diagonal."""
    k = len(points)
    if k < 1:
        raise ValueError("need at least one point")
    m = np.empty((k, k))
    for i in range(k):
        m[i, i] = model.sigma**2
        for j in range(i + 1, k):
            v = correlation(model, points[i], points[j])
            m[i, j] = v
            m[j, i] = v
    return m


def cross_covariance(model: CorrelationModel, p0: Point, points: list[Point]) -> np.ndarray:
    """Covariances of the shadow value at p0 against each listed point."""
    return np.array([correlation(model, p0, q) for q in points])


def cross_covariance_matrix(model: CorrelationModel, queries: list[Point], points: list[Point]) -> np.ndarray:
    """(len(queries), len(points)) array whose row i is cross_covariance(model, queries[i], points)."""
    q = np.array([(p.x, p.y) for p in queries], dtype=float).reshape(-1, 2)
    s = np.array([(p.x, p.y) for p in points], dtype=float).reshape(-1, 2)
    dx = s[None, :, 0] - q[:, None, 0]
    dy = s[None, :, 1] - q[:, None, 1]
    if model.kind == ELLIPTICAL:  # as in effective_distance
        c = math.cos(model.rotation)
        sn = math.sin(model.rotation)
        dx, dy = (c * dx + sn * dy) / model.axis_ratio, -sn * dx + c * dy
    d = np.hypot(dx, dy)
    if model.kind == GAUSSIAN:
        return model.sigma**2 * np.exp(-((d / model.xc) ** 2))
    return model.sigma**2 * np.exp(-d / model.xc)
