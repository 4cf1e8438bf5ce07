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

The stack functions covariance_stack() and cross_covariance_stack() take a
sequence of models that differ in sigma and xc alone, as a sweep over
spacing ratios does: the effective distances are the same for all of them,
so they are computed once, and matrix k of a stack has the bits of the same
matrix built for models[k] alone. covariance_matrix() and
cross_covariance_matrix() are their stacks of one.
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


def _kernel(model: CorrelationModel, d: float) -> float:
    """The model's covariance at effective distance d, in dB^2."""
    if model.kind == GAUSSIAN:
        return model.sigma**2 * math.exp(-((d / model.xc) ** 2))
    return model.sigma**2 * math.exp(-d / model.xc)


def correlation(model: CorrelationModel, p: Point, q: Point) -> float:
    """Shadow-fading covariance between two locations, in dB^2."""
    return _kernel(model, effective_distance(model, p, q))


def _shared_shape(models: list[CorrelationModel]) -> CorrelationModel:
    """The first model, once every model is checked to differ from it in sigma and xc alone."""
    if not models:
        raise ValueError("need at least one correlation model")
    first = models[0]
    shape = (first.kind, first.axis_ratio, first.rotation)
    if any((m.kind, m.axis_ratio, m.rotation) != shape for m in models[1:]):
        raise ValueError("the models of a stack must differ in sigma and xc alone")
    return first


def covariance_stack(models: list[CorrelationModel], points: list[Point]) -> np.ndarray:
    """(K, k, k) stack of the models' covariance matrices over a point set; each symmetric with sigma^2 diagonal."""
    k = len(points)
    if k < 1:
        raise ValueError("need at least one point")
    shape = _shared_shape(models)
    pairs = [(i, j, effective_distance(shape, points[i], points[j])) for i in range(k) for j in range(i + 1, k)]
    out = np.empty((len(models), k, k))
    for m, model in zip(out, models):
        np.fill_diagonal(m, model.sigma**2)
        for i, j, d in pairs:
            m[i, j] = m[j, i] = _kernel(model, d)
    return out


def covariance_matrix(model: CorrelationModel, points: list[Point]) -> np.ndarray:
    """k x k covariance matrix over a point set: covariance_stack() of one model."""
    return covariance_stack([model], points)[0]


def cross_covariance(model: CorrelationModel, p0: Point, points: list[Point]) -> np.ndarray:
    """Covariances of the shadow value at p0 against each listed point."""
    return np.array([correlation(model, p0, q) for q in points])


def cross_covariance_stack(models: list[CorrelationModel], queries: list[Point], points: list[Point]) -> np.ndarray:
    """(K, len(queries), len(points)) stack; row i of matrix k is cross_covariance(models[k], queries[i], points)."""
    shape = _shared_shape(models)
    q = np.array([(p.x, p.y) for p in queries], dtype=float).reshape(-1, 2)
    s = np.array([(p.x, p.y) for p in points], dtype=float).reshape(-1, 2)
    dx = s[None, :, 0] - q[:, None, 0]
    dy = s[None, :, 1] - q[:, None, 1]
    if shape.kind == ELLIPTICAL:  # as in effective_distance
        c = math.cos(shape.rotation)
        sn = math.sin(shape.rotation)
        dx, dy = (c * dx + sn * dy) / shape.axis_ratio, -sn * dx + c * dy
    d = np.hypot(dx, dy)
    var = np.array([m.sigma**2 for m in models])[:, None, None]
    xc = np.array([m.xc for m in models])[:, None, None]
    if shape.kind == GAUSSIAN:
        return var * np.exp(-((d / xc) ** 2))
    return var * np.exp(-d / xc)


def cross_covariance_matrix(model: CorrelationModel, queries: list[Point], points: list[Point]) -> np.ndarray:
    """(len(queries), len(points)) array whose row i is cross_covariance(model, queries[i], points)."""
    return cross_covariance_stack([model], queries, points)[0]
