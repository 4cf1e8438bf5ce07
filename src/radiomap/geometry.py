"""Locations, distances, and scenario construction.

Everything here is a plain value type: coordinates are meters stored as
floats, and all functions are pure. A Scenario bundles the ground truth a
simulation needs (emitter, sensors, propagation constants, correlation
model); a QueryGrid is the (N, 2) coordinate array of interior points a
radio map is evaluated at. Points serve the one-point API, and
coordinates() is their one conversion to an (N, 2) array.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .correlation import CorrelationModel

__all__ = [
    "DegenerateGeometryError",
    "Point",
    "Scenario",
    "QueryGrid",
    "distance",
    "coordinates",
    "build_square_scenario",
    "make_grid",
]


class DegenerateGeometryError(ValueError):
    """The emitter sits on a sensor or a query point, or the log-distance fit is singular."""


@dataclass(frozen=True)
class Point:
    """A 2-D location in meters."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"point coordinates must be finite, got ({self.x}, {self.y})")


def distance(p: Point, q: Point) -> float:
    """Euclidean distance between two points in meters."""
    return math.hypot(p.x - q.x, p.y - q.y)


def coordinates(points: Sequence[Point]) -> np.ndarray:
    """(N, 2) array whose row i is (points[i].x, points[i].y)."""
    return np.array([(p.x, p.y) for p in points], dtype=float).reshape(-1, 2)


@dataclass(frozen=True)
class Scenario:
    """Ground-truth world: emitter, sensors, propagation constants, correlation.

    Received power at distance d from the emitter is modeled as
    ``a_db + 10 * gamma * log10(d) + shadow``, with d in meters (the
    reference distance is 1 m), where the shadow term is zero-mean Gaussian
    with the spatial covariance given by ``correlation``.
    """

    emitter: Point
    sensors: tuple[Point, ...]
    a_db: float
    gamma: float
    correlation: "CorrelationModel"

    def __post_init__(self) -> None:
        object.__setattr__(self, "sensors", tuple(self.sensors))
        if len(self.sensors) <= 2:
            raise ValueError(f"need more than 2 sensors, got {len(self.sensors)}")
        if self.gamma <= 0:
            raise ValueError(f"path-loss exponent must be positive, got {self.gamma}")
        for i, s in enumerate(self.sensors):
            if distance(self.emitter, s) <= 0.0:
                raise DegenerateGeometryError(f"emitter coincides with sensor {i} at ({s.x}, {s.y})")

    @property
    def sigma(self) -> float:
        """Shadow-fading standard deviation in dB (single source: the correlation model)."""
        return self.correlation.sigma

    @property
    def n_sensors(self) -> int:
        return len(self.sensors)

    def sensor_distances(self) -> list[float]:
        """Emitter-to-sensor distances, in sensor order."""
        return [distance(self.emitter, s) for s in self.sensors]


@dataclass(frozen=True, eq=False)
class QueryGrid:
    """Cell-centered lattice of query points strictly inside the sensor square (make_grid).

    xy is the (resolution^2, 2) array of coordinates: row j * resolution + i
    holds point (i, j) at ((i + 0.5) * (side / resolution), (j + 0.5) *
    (side / resolution)), so i (x) varies fastest. The row index also keys
    the point's random substream in the simulation harness. make_grid
    makes xy read-only, and every surface of a sweep shares it.
    """

    resolution: int
    xy: np.ndarray

    def __post_init__(self) -> None:
        if self.xy.shape != (self.resolution**2, 2):
            raise ValueError(f"grid xy has shape {self.xy.shape}, expected ({self.resolution**2}, 2)")


def build_square_scenario(
    side: float,
    emitter: Point,
    a_db: float,
    gamma: float,
    correlation: "CorrelationModel",
) -> Scenario:
    """Scenario with four sensors on the corners of a side-by-side square.

    Sensor order is fixed: (0,0), (0,side), (side,side), (side,0). Weight
    vectors and CSV columns downstream rely on this ordering.
    """
    if side <= 0:
        raise ValueError(f"square side must be positive, got {side}")
    sensors = (
        Point(0.0, 0.0),
        Point(0.0, side),
        Point(side, side),
        Point(side, 0.0),
    )
    return Scenario(emitter=emitter, sensors=sensors, a_db=a_db, gamma=gamma, correlation=correlation)


def make_grid(side: float, resolution: int) -> QueryGrid:
    """Cell-centered resolution x resolution lattice over the (0, side) square.

    Cell-centering keeps every query point strictly interior, so no query
    ever lands on a sensor (where several interpolators degenerate).
    """
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    if side <= 0:
        raise ValueError(f"square side must be positive, got {side}")
    # i + 0.5 is exact, so each coordinate is the one rounded product (i + 0.5) * step
    c = (np.arange(resolution) + 0.5) * (side / resolution)
    xy = np.column_stack((np.tile(c, resolution), np.repeat(c, resolution)))
    xy.setflags(write=False)
    return QueryGrid(resolution, xy)
