import numpy as np
import pytest
from hypothesis import given, strategies as st

from radiomap import CorrelationModel, Point, build_square_scenario, distance, make_grid
from radiomap.geometry import QueryGrid, Scenario

coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_distance_pythagorean():
    assert distance(Point(0, 0), Point(3, 4)) == 5.0


def test_distance_identity():
    assert distance(Point(0, 0), Point(0, 0)) == 0.0


def test_distance_diagonal():
    assert distance(Point(0, 0), Point(640, 640)) == pytest.approx(905.0967, abs=1e-4)


@given(coord, coord, coord, coord)
def test_distance_symmetric(ax, ay, bx, by):
    p, q = Point(ax, ay), Point(bx, by)
    assert distance(p, q) == distance(q, p)
    assert distance(p, q) >= 0.0


@given(coord, coord, coord, coord, coord, coord)
def test_distance_triangle_inequality(ax, ay, bx, by, cx, cy):
    a, b, c = Point(ax, ay), Point(bx, by), Point(cx, cy)
    slack = 1e-9 * (1.0 + distance(a, b) + distance(b, c))
    assert distance(a, c) <= distance(a, b) + distance(b, c) + slack


def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        Point(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Point(0.0, float("inf"))


class TestBuildSquareScenario:
    def test_reference_square(self, table_scenario):
        assert [(s.x, s.y) for s in table_scenario.sensors] == [
            (0.0, 0.0),
            (0.0, 640.0),
            (640.0, 640.0),
            (640.0, 0.0),
        ]
        assert table_scenario.a_db == 15.3
        assert table_scenario.gamma == 3.76
        assert table_scenario.sigma == 5.0

    def test_unit_square(self):
        model = CorrelationModel("exponential", sigma=1.0, xc=1.0)
        scn = build_square_scenario(1.0, Point(-1.0, -1.0), 0.0, 2.0, model)
        assert len(scn.sensors) == 4
        assert scn.sensors[2] == Point(1.0, 1.0)

    def test_emitter_on_sensor_is_degenerate(self):
        model = CorrelationModel("exponential", sigma=5.0, xc=640.0)
        with pytest.raises(ValueError, match="sensor"):
            build_square_scenario(640.0, Point(0.0, 0.0), 15.3, 3.76, model)

    def test_too_few_sensors_rejected(self):
        model = CorrelationModel("exponential", sigma=5.0, xc=640.0)
        with pytest.raises(ValueError, match="more than 2"):
            Scenario(
                emitter=Point(-1.0, 0.0),
                sensors=(Point(0.0, 0.0), Point(1.0, 0.0)),
                a_db=0.0,
                gamma=2.0,
                correlation=model,
            )

    def test_nonpositive_side_rejected(self):
        model = CorrelationModel("exponential", sigma=5.0, xc=640.0)
        with pytest.raises(ValueError, match="side"):
            build_square_scenario(0.0, Point(-1.0, 0.0), 0.0, 2.0, model)


class TestMakeGrid:
    def test_reference_resolution(self):
        grid = make_grid(640.0, 64)
        assert grid.xy.shape == (4096, 2)

    def test_single_cell_center(self):
        grid = make_grid(2.0, 1)
        assert grid.xy.tolist() == [[1.0, 1.0]]

    def test_two_by_two_cell_centers(self):
        grid = make_grid(640.0, 2)
        assert grid.xy.tolist() == [
            [160.0, 160.0],
            [480.0, 160.0],
            [160.0, 480.0],
            [480.0, 480.0],
        ]

    @pytest.mark.parametrize("side", [640.0, 0.1])
    @pytest.mark.parametrize("resolution", [1, 2, 3, 64, 256])
    def test_coordinates_are_the_one_point_products_bit_for_bit(self, side, resolution):
        step = side / resolution
        want = [((i + 0.5) * step, (j + 0.5) * step) for j in range(resolution) for i in range(resolution)]
        assert make_grid(side, resolution).xy.tobytes() == np.array(want).tobytes()

    def test_coordinates_are_read_only(self):
        # every surface of a sweep shares the grid's array
        with pytest.raises(ValueError):
            make_grid(640.0, 4).xy[0, 0] = 1.0

    def test_shape_must_match_resolution(self):
        with pytest.raises(ValueError, match="expected"):
            QueryGrid(4, np.zeros((15, 2)))

    def test_points_strictly_interior(self):
        grid = make_grid(640.0, 64)
        for x, y in grid.xy.tolist():
            assert 0.0 < x < 640.0
            assert 0.0 < y < 640.0

    def test_positive_distances_in_reference_setup(self, table_scenario):
        grid = make_grid(640.0, 64)
        for p in (Point(x, y) for x, y in grid.xy.tolist()):
            assert distance(p, table_scenario.emitter) > 0.0
            for s in table_scenario.sensors:
                assert distance(p, s) > 0.0

    def test_invalid_resolution(self):
        with pytest.raises(ValueError):
            make_grid(640.0, 0)
