import math

import numpy as np
import pytest

from conescan.geometry import wrap_angle
from conescan.view_planner import (
    ViewCircle,
    Waypoint,
    arc_path,
    fine_localization_circle,
    forward_view_offset,
    ground_footprint_width,
    lawnmower_path,
    next_best_view,
)


def rows_of(waypoints):
    """Group a boustrophedon path into (start, end) row pairs."""
    assert len(waypoints) % 2 == 0
    return [(waypoints[i], waypoints[i + 1]) for i in range(0, len(waypoints), 2)]


class TestLawnmower:
    def test_narrow_region_single_row(self, cam):
        width = ground_footprint_width(cam, 12.0)
        region = (0.0, 0.0, 40.0, width * 0.9)
        path = lawnmower_path(region, 12.0, cam, overlap=0.2)
        assert len(rows_of(path)) == 1
        assert path[0].position[1] == pytest.approx(width * 0.45)

    def test_overlap_doubling_row_count(self, cam):
        width = ground_footprint_width(cam, 12.0)
        region = (0.0, 0.0, 40.0, 4.0 * width)
        n0 = len(rows_of(lawnmower_path(region, 12.0, cam, overlap=0.0)))
        n5 = len(rows_of(lawnmower_path(region, 12.0, cam, overlap=0.5)))
        assert abs(n5 - 2 * n0) <= 1

    def test_rows_at_altitude_with_heading_yaw(self, cam):
        path = lawnmower_path((0, 0, 30, 60), 12.0, cam, overlap=0.25)
        for i, (start, end) in enumerate(rows_of(path)):
            expected_yaw = 0.0 if i % 2 == 0 else math.pi
            assert start.yaw == expected_yaw and end.yaw == expected_yaw
            assert start.position[2] == 12.0 and end.position[2] == 12.0
            assert start.position[1] == end.position[1]

    def test_footprint_union_covers_region(self, cam):
        # rasterize at 0.5 m; every cell center must fall in some row's swath,
        # reconstructed from the waypoints and the camera geometry alone
        altitude = 12.0
        region = (0.0, 0.0, 35.0, 47.0)
        path = lawnmower_path(region, altitude, cam, overlap=0.3)
        width = ground_footprint_width(cam, altitude)
        offset = forward_view_offset(cam, altitude)
        xs = np.arange(region[0] + 0.25, region[2], 0.5)
        ys = np.arange(region[1] + 0.25, region[3], 0.5)
        xx, yy = np.meshgrid(xs, ys, indexing="ij")
        covered = np.zeros(xx.shape, dtype=bool)
        for start, end in rows_of(path):
            heading = 1.0 if start.yaw == 0.0 else -1.0
            x_lo, x_hi = sorted(
                [start.position[0] + heading * offset,
                 end.position[0] + heading * offset]
            )
            y = start.position[1]
            covered |= (
                (xx >= x_lo - 1e-9) & (xx <= x_hi + 1e-9)
                & (np.abs(yy - y) <= width / 2 + 1e-9)
            )
        assert covered.all()


class TestFineLocalizationCircle:
    def test_unit_tangent_radius(self):
        circle = fine_localization_circle([10, 20, 2], 12.0, math.radians(45))
        assert circle.radius == pytest.approx(10.0)
        assert circle.center == pytest.approx([10, 20, 12])

    def test_steep_mount_angle_radius(self):
        circle = fine_localization_circle([0, 0, 2], 12.0, math.radians(55))
        assert circle.radius == pytest.approx(10.0 / math.tan(math.radians(55)))

    def test_depression_angle_from_any_circle_point(self):
        center = np.array([3.0, -4.0, 1.5])
        gamma = math.radians(55)
        circle = fine_localization_circle(center, 12.0, gamma)
        for az in np.linspace(-math.pi, math.pi, 37):
            p = circle.point_at(az)
            horiz = np.linalg.norm(p[:2] - center[:2])
            depression = math.atan2(p[2] - center[2], horiz)
            assert depression == pytest.approx(gamma, abs=1e-9)

    def test_target_above_flight_plane_rejected(self):
        with pytest.raises(ValueError):
            fine_localization_circle([0, 0, 12.5], 12.0, math.radians(55))


def camera_axis_at(position, target):
    """Unit optical-axis direction for a camera at `position` aimed at `target`."""
    d = np.asarray(target, dtype=float) - np.asarray(position, dtype=float)
    return d / np.linalg.norm(d)


def line_angle(a, b):
    return math.acos(min(1.0, abs(float(np.dot(a, b)))))


class TestNextBestView:
    CENTER = np.array([10.0, 20.0, 2.0])

    def circle(self):
        return fine_localization_circle(self.CENTER, 12.0, math.radians(45))

    def test_rising_eigenvector_worked_example(self):
        v = np.array([1.0, 0.0, 0.5])
        v /= np.linalg.norm(v)
        current = Waypoint([0.0, 20.0, 12.0], 0.0)
        nbv = next_best_view(self.circle(), v, current, self.CENTER)
        assert nbv.position == pytest.approx([20, 20, 12], abs=1e-9)
        assert abs(wrap_angle(nbv.yaw - math.pi)) < 1e-9

    def test_horizontal_eigenvector_takes_farthest_point(self):
        circle = self.circle()
        current = Waypoint(circle.point_at(0.0), 0.0)
        nbv = next_best_view(circle, np.array([0.3, 0.9, 0.0]), current, self.CENTER)
        assert circle.azimuth_of(nbv.position) == pytest.approx(math.pi, abs=1e-9)

    def test_vertical_eigenvector_keeps_azimuth(self):
        circle = self.circle()
        current = Waypoint(circle.point_at(0.7), 0.0)
        nbv = next_best_view(circle, np.array([0.0, 0.0, 1.0]), current, self.CENTER)
        assert circle.azimuth_of(nbv.position) == pytest.approx(0.7, abs=1e-9)

    def test_yaw_faces_center(self):
        rng = np.random.default_rng(0)
        circle = self.circle()
        for _ in range(50):
            v = rng.standard_normal(3)
            v[2] = abs(v[2]) + 0.05
            v /= np.linalg.norm(v)
            nbv = next_best_view(circle, v, Waypoint([0, 0, 12], 0.0), self.CENTER)
            expected = math.atan2(self.CENTER[1] - nbv.position[1],
                                  self.CENTER[0] - nbv.position[0])
            assert abs(wrap_angle(nbv.yaw - expected)) < 1e-9

    def test_sweep_optimality(self):
        # no circle point beats the planned view by more than 1e-6 rad
        rng = np.random.default_rng(1)
        circle = self.circle()
        azimuths = np.linspace(-math.pi, math.pi, 360, endpoint=False)
        for _ in range(100):
            v = rng.standard_normal(3)
            v[2] = abs(v[2])
            v /= np.linalg.norm(v)
            if math.hypot(v[0], v[1]) < 1e-6 or v[2] < 1e-6:
                continue
            nbv = next_best_view(circle, v, Waypoint([0, 0, 12], 0.0), self.CENTER)
            best = line_angle(camera_axis_at(nbv.position, self.CENTER), v)
            for az in azimuths:
                candidate = line_angle(
                    camera_axis_at(circle.point_at(az), self.CENTER), v)
                assert candidate >= best - 1e-6


class TestArcPath:
    CENTER = np.array([0.0, 0.0, 1.0])

    def circle(self):
        return fine_localization_circle(self.CENTER, 11.0, math.radians(45))

    def assert_yaw_on_center(self, waypoints):
        for wp in waypoints:
            expected = math.atan2(self.CENTER[1] - wp.position[1],
                                  self.CENTER[0] - wp.position[0])
            assert abs(wrap_angle(wp.yaw - expected)) < 1e-9

    def test_already_at_view(self):
        circle = self.circle()
        nbv = Waypoint(circle.point_at(0.3),
                       math.atan2(-circle.point_at(0.3)[1], -circle.point_at(0.3)[0]))
        path, swept = arc_path(nbv, nbv, circle, self.CENTER, math.radians(15))
        assert path[0] is nbv and len(path) == 1 + 24
        assert swept == 2.0 * math.pi
        assert np.allclose(path[-1].position, nbv.position, atol=1e-9)

    def test_quarter_arc_azimuths(self):
        circle = self.circle()
        current = Waypoint(circle.point_at(0.0), 0.0)
        nbv = Waypoint(circle.point_at(math.pi / 2), 0.0)
        path, swept = arc_path(current, nbv, circle, self.CENTER, math.radians(30))
        azimuths = [math.degrees(circle.azimuth_of(w.position)) for w in path]
        assert azimuths == pytest.approx([0, 30, 60, 90], abs=1e-9)
        assert swept == pytest.approx(math.pi / 2, abs=1e-12)

    def test_shorter_arc_goes_clockwise(self):
        circle = self.circle()
        current = Waypoint(circle.point_at(0.0), 0.0)
        nbv = Waypoint(circle.point_at(-math.pi / 2), 0.0)
        path, swept = arc_path(current, nbv, circle, self.CENTER, math.radians(30))
        azimuths = [math.degrees(circle.azimuth_of(w.position)) for w in path]
        assert azimuths == pytest.approx([0, -30, -60, -90], abs=1e-9)
        assert swept == pytest.approx(math.pi / 2, abs=1e-12)

    def test_off_circle_start_enters_radially(self):
        circle = self.circle()
        current = Waypoint([2.0, 2.0, 11.0], 0.5)
        nbv_az = math.pi / 2
        nbv = Waypoint(circle.point_at(nbv_az), 0.0)
        path, swept = arc_path(current, nbv, circle, self.CENTER, math.radians(15))
        assert path[0] is current
        entry = path[1]
        assert circle.azimuth_of(entry.position) == pytest.approx(math.pi / 4, abs=1e-9)
        for wp in path[1:]:
            radial = np.linalg.norm(wp.position[:2] - circle.center[:2])
            assert abs(radial - circle.radius) < 1e-9
        assert swept == pytest.approx(math.pi / 4, abs=1e-12)

    def test_on_circle_yaw_points_at_center(self):
        circle = self.circle()
        current = Waypoint(circle.point_at(1.0), 0.0)
        nbv = Waypoint(circle.point_at(-2.0), 0.0)
        path, _ = arc_path(current, nbv, circle, self.CENTER, math.radians(10))
        self.assert_yaw_on_center(path[1:])

    @pytest.mark.parametrize("step, n", ((math.radians(20), 18), (2.0, 4)),
                             ids=("20_degrees", "at_least_4"))
    def test_on_circle_within_one_step_laps(self, step, n):
        # round(2 pi / step) waypoints after current, but never fewer than 4
        circle = self.circle()
        current = Waypoint(circle.point_at(0.3), 0.0)
        nbv = Waypoint(circle.point_at(0.3 + 0.5 * step), 0.0)
        path, swept = arc_path(current, nbv, circle, self.CENTER, step)
        assert path[0] is current and len(path) == 1 + n
        assert swept == 2.0 * math.pi
        azimuths = [circle.azimuth_of(w.position) for w in path]
        for k, az in enumerate(azimuths):
            assert wrap_angle(az - 0.3 - 2.0 * math.pi * k / n) == pytest.approx(0.0, abs=1e-9)
        self.assert_yaw_on_center(path[1:])

    def test_off_circle_within_one_step_does_not_lap(self):
        circle = self.circle()
        step = math.radians(20)
        current = Waypoint(0.9 * circle.point_at(0.3) + 0.1 * circle.center, 0.0)
        nbv = Waypoint(circle.point_at(0.3 + 0.5 * step), 0.0)
        path, swept = arc_path(current, nbv, circle, self.CENTER, step)
        assert len(path) == 3  # current, the radial entry, the view
        assert np.allclose(path[-1].position, nbv.position, atol=1e-9)
        assert swept == pytest.approx(0.5 * step, abs=1e-12)

    def test_swept_angle_is_the_azimuth_gap(self):
        circle = self.circle()
        current = Waypoint(circle.point_at(1.0), 0.0)
        nbv = Waypoint(circle.point_at(-2.0), 0.0)
        _, swept = arc_path(current, nbv, circle, self.CENTER, math.radians(10))
        assert swept == abs(wrap_angle(circle.azimuth_of(nbv.position)
                                       - circle.azimuth_of(current.position)))
