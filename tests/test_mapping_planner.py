import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conescan.geometry import CameraRig, wrap_angle
from conescan.localizer import ParticleSet
from conescan.mapping_planner import (
    MIN_CYLINDER_RADIUS,
    Cylinder,
    circle_waypoints,
    coverage_samples,
    fit_cylinder,
    mapping_path,
    scan_circles,
)
from conescan.view_planner import ViewCircle

from conftest import same_bits


def cloud(points):
    return ParticleSet(np.asarray(points, dtype=float))


def band_oracle(height, band):
    """Smallest circle count whose stacked bands reach the cylinder top."""
    n = 1
    while n * band < height - 1e-9:
        n += 1
    return n


class TestFitCylinder:
    def test_unit_cube_corners(self):
        signs = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1)
                          for sz in (-1, 1)], dtype=float)
        cyl = fit_cylinder(cloud(0.5 * signs))
        assert cyl.axis_xy == pytest.approx([0, 0])
        assert cyl.z_bottom == -0.5 and cyl.z_top == 0.5
        assert cyl.radius == pytest.approx(math.sqrt(0.5))
        assert cyl.height == 1.0

    def test_single_plane_degenerate(self):
        rng = np.random.default_rng(0)
        pts = np.column_stack([rng.uniform(-1, 1, 50), rng.uniform(-1, 1, 50),
                               np.full(50, 3.0)])
        cyl = fit_cylinder(cloud(pts))
        assert cyl.height == 0.0
        assert cyl.z_bottom == cyl.z_top == 3.0

    def test_containment_random_clouds(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            pts = rng.normal(rng.uniform(-20, 20, 3), rng.uniform(0.1, 2.0),
                             size=(60, 3))
            cyl = fit_cylinder(cloud(pts))
            radial = np.linalg.norm(pts[:, :2] - cyl.axis_xy, axis=1)
            assert np.all(radial <= cyl.radius + 1e-9)
            assert np.all(pts[:, 2] >= cyl.z_bottom - 1e-9)
            assert np.all(pts[:, 2] <= cyl.z_top + 1e-9)

    @pytest.mark.parametrize("n", (2, 3, 60, 1_000, 100_000))
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3))
    def test_bitwise_equal_to_the_row_norms(self, n, seed, scale):
        rng = np.random.default_rng(seed)
        pts = scale * rng.standard_normal((n, 3)) + rng.uniform(-50, 50, 3)
        axis = pts.mean(axis=0)[:2]
        radial = np.linalg.norm(pts[:, :2] - axis, axis=1)
        cyl = fit_cylinder(cloud(pts))
        assert same_bits(cyl.axis_xy, axis)
        assert cyl.z_bottom == pts[:, 2].min() and cyl.z_top == pts[:, 2].max()
        assert cyl.radius.hex() == max(float(radial.max()), MIN_CYLINDER_RADIUS).hex()

    def test_radius_floor(self):
        pts = np.array([[0, 0, 0], [0, 0, 1.0], [0, 0, 2.0]])
        assert fit_cylinder(cloud(pts)).radius == MIN_CYLINDER_RADIUS

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError):
            fit_cylinder(cloud(np.ones((10, 3))))


class TestScanCircles:
    def test_default_angles_single_circle(self, cam):
        # band height 3 (tan 75 - tan 35) ~ 9.10 m covers the 4 m body at once
        cyl = Cylinder(axis_xy=[5, 5], z_bottom=0.0, z_top=4.0, radius=1.0)
        plan = scan_circles(cyl, cam, standoff=3.0, n_per_circle=36)
        band = 3.0 * (math.tan(math.radians(75)) - math.tan(math.radians(35)))
        assert band == pytest.approx(9.0955, abs=1e-3)
        assert len(plan.circles) == 1
        expected_altitude = 3.0 * math.tan(math.radians(75))
        assert plan.circles[0].center[2] == pytest.approx(expected_altitude, abs=1e-9)

    def test_height_just_above_band_needs_two(self, cam):
        band = 3.0 * (math.tan(math.radians(75)) - math.tan(math.radians(35)))
        cyl = Cylinder(axis_xy=[0, 0], z_bottom=0.0, z_top=band + 0.05, radius=1.0)
        plan = scan_circles(cyl, cam, standoff=3.0, n_per_circle=36)
        assert len(plan.circles) == 2
        assert plan.circles[1].center[2] - plan.circles[0].center[2] == pytest.approx(band)

    def test_orbit_radius_is_cylinder_plus_standoff(self, cam):
        cyl = Cylinder(axis_xy=[2, -1], z_bottom=0.0, z_top=2.0, radius=1.7)
        plan = scan_circles(cyl, cam, standoff=3.0, n_per_circle=36)
        for circle in plan.circles:
            assert circle.radius == pytest.approx(1.7 + 3.0)

    def test_circle_count_matches_band_oracle(self, cam):
        rng = np.random.default_rng(2)
        band = 3.0 * (math.tan(math.radians(75)) - math.tan(math.radians(35)))
        for _ in range(200):
            height = rng.uniform(0.2, 40.0)
            cyl = Cylinder(axis_xy=[0, 0], z_bottom=0.0, z_top=height, radius=1.0)
            plan = scan_circles(cyl, cam, standoff=3.0, n_per_circle=36)
            assert len(plan.circles) == band_oracle(height, band)

    def test_band_union_covers_body(self, cam):
        rng = np.random.default_rng(3)
        for _ in range(100):
            height = rng.uniform(0.2, 30.0)
            cyl = Cylinder(axis_xy=[0, 0], z_bottom=-2.0, z_top=-2.0 + height,
                           radius=1.0)
            plan = scan_circles(cyl, cam, standoff=3.0, n_per_circle=36)
            lo = plan.circles[0].center[2] - 3.0 * math.tan(plan.gamma_low)
            hi = plan.circles[-1].center[2] - 3.0 * math.tan(plan.gamma_high)
            assert lo <= cyl.z_bottom + 1e-9
            assert hi >= cyl.z_top - 1e-9
            # consecutive bands join without gaps
            for a, b in zip(plan.circles, plan.circles[1:]):
                top_a = a.center[2] - 3.0 * math.tan(plan.gamma_high)
                bottom_b = b.center[2] - 3.0 * math.tan(plan.gamma_low)
                assert bottom_b <= top_a + 1e-9

    def test_wider_scan_angle_never_needs_more_circles(self):
        cyl = Cylinder(axis_xy=[0, 0], z_bottom=0.0, z_top=12.0, radius=1.0)
        counts = []
        for beta_deg in (20, 30, 40, 50):
            rig = CameraRig(fx=500, fy=500, cx=320, cy=240, width=640, height=480,
                            gamma=math.radians(55), beta=math.radians(beta_deg))
            plan = scan_circles(cyl, rig, standoff=3.0, n_per_circle=36)
            counts.append(len(plan.circles))
        assert counts == sorted(counts, reverse=True)

    def test_standoff_distance_to_surface(self, cam):
        cyl = Cylinder(axis_xy=[4, 9], z_bottom=0.0, z_top=3.0, radius=2.0)
        plan = scan_circles(cyl, cam, standoff=3.0, n_per_circle=36)
        for wp in plan.all_waypoints():
            to_axis = np.linalg.norm(wp.position[:2] - cyl.axis_xy)
            assert abs(to_axis - cyl.radius - 3.0) < 1e-9


class TestCircleWaypoints:
    def test_four_point_azimuths(self):
        circle = ViewCircle(center=[0, 0, 5], radius=4.0)
        wps = circle_waypoints(circle, 4, [0, 0])
        azimuths = [math.degrees(math.atan2(w.position[1], w.position[0]))
                    for w in wps]
        assert azimuths == pytest.approx([0, 90, 180, -90])

    def test_yaw_hits_axis(self):
        circle = ViewCircle(center=[3, -2, 5], radius=6.0)
        for wp in circle_waypoints(circle, 12, [3, -2]):
            direction = np.array([math.cos(wp.yaw), math.sin(wp.yaw)])
            to_axis = np.array([3, -2]) - wp.position[:2]
            assert abs(wrap_angle(wp.yaw - math.atan2(to_axis[1], to_axis[0]))) < 1e-9
            unit = to_axis / np.linalg.norm(to_axis)
            cross_z = direction[0] * unit[1] - direction[1] * unit[0]
            assert cross_z == pytest.approx(0.0, abs=1e-9)

    def test_chord_sum_approaches_circumference(self):
        circle = ViewCircle(center=[0, 0, 5], radius=7.0)
        wps = circle_waypoints(circle, 72, [0, 0])
        chords = 0.0
        for a, b in zip(wps, wps[1:] + wps[:1]):
            chords += np.linalg.norm(a.position - b.position)
        assert chords == pytest.approx(2 * math.pi * 7.0, rel=0.01)


class TestCoverage:
    def test_planned_orbits_cover_everything(self, cam):
        cyl = Cylinder(axis_xy=[0, 0], z_bottom=0.0, z_top=4.0, radius=1.5)
        plan = scan_circles(cyl, cam, standoff=3.0, n_per_circle=72)
        assert coverage_samples(plan, cam, cyl, 10_000)[1].mean() >= 0.99

    def test_empty_plan_is_zero(self, cam):
        cyl = Cylinder(axis_xy=[0, 0], z_bottom=0.0, z_top=4.0, radius=1.5)
        empty = scan_circles(cyl, cam, standoff=3.0, n_per_circle=36)
        empty = type(empty)(circles=[], waypoints=[], gamma_low=empty.gamma_low,
                            gamma_high=empty.gamma_high)
        assert coverage_samples(empty, cam, cyl, 1000)[1].mean() == 0.0

    def test_single_low_circle_misses_top(self, cam):
        # a tall body with one circle placed for the bottom band only
        band = 3.0 * (math.tan(math.radians(75)) - math.tan(math.radians(35)))
        cyl = Cylinder(axis_xy=[0, 0], z_bottom=0.0, z_top=band + 3.0, radius=1.5)
        full = scan_circles(cyl, cam, standoff=3.0, n_per_circle=72)
        partial = type(full)(circles=full.circles[:1], waypoints=full.waypoints[:1],
                             gamma_low=full.gamma_low, gamma_high=full.gamma_high)
        samples, covered = coverage_samples(partial, cam, cyl, 10_000)
        assert covered.mean() < 1.0
        assert samples[~covered][:, 2].min() > band - 1e-6  # only the top is missing

    def test_far_side_occluded_from_single_waypoint(self, cam):
        cyl = Cylinder(axis_xy=[0, 0], z_bottom=0.0, z_top=4.0, radius=1.5)
        plan = scan_circles(cyl, cam, standoff=3.0, n_per_circle=36)
        single = type(plan)(circles=plan.circles[:1],
                            waypoints=[[plan.waypoints[0][0]]],
                            gamma_low=plan.gamma_low, gamma_high=plan.gamma_high)
        samples, covered = coverage_samples(single, cam, cyl, 5000)
        wp = plan.waypoints[0][0]
        for s, c in zip(samples, covered):
            if c:
                normal = s[:2] - np.asarray(cyl.axis_xy)
                assert normal @ (wp.position[:2] - s[:2]) > 0


class TestMappingPath:
    def test_descends_then_orbits_then_climbs(self, cam):
        cyl = Cylinder(axis_xy=[0, 0], z_bottom=0.0, z_top=10.0, radius=1.0)
        plan = scan_circles(cyl, cam, standoff=3.0, n_per_circle=8)
        assert len(plan.circles) == 2
        path = mapping_path(plan, start_position=[10.0, 0.0, 30.0])
        first_orbit = plan.waypoints[0][0]
        assert path[0].position[:2] == pytest.approx(first_orbit.position[:2])
        assert path[0].position[2] == 30.0
        # each orbit closes on its entry azimuth before the vertical transit
        n = 8
        assert path[1 + n].position == pytest.approx(path[1].position)
        assert path[2 + n].position[:2] == pytest.approx(path[1].position[:2])
        assert path[2 + n].position[2] > path[1].position[2]
