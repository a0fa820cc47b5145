import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conescan.geometry import BBox, PoseSE3, camera_to_world_pose, project_points, wrap_angle
from conescan.simulator import (
    PASS_THROUGH_TURN,
    DetectionDelay,
    NoiseModel,
    TruthPoints,
    WaypointFollower,
    make_target,
    perturb_pose,
    simulate_detector,
    simulate_klt,
    substream,
)
from conescan.view_planner import Waypoint

from conftest import identity_pose, project_truth, random_pose, scale_and_angle


def reference_visible(pix, depth, cam):
    """Rows in front of the camera and inside the image, as simulate_klt
    first computed them for each projection it was given."""
    return ((depth > 0)
            & (pix[:, 0] >= 0) & (pix[:, 0] < cam.width)
            & (pix[:, 1] >= 0) & (pix[:, 1] < cam.height))


def reference_klt(prev, curr, cam, noise, rng):
    """simulate_klt with two visibility passes per call and two (n, 2) draws."""
    prev_pix, curr_pix = prev.pix[9:], curr.pix[9:]
    keep = (reference_visible(prev_pix, prev.depth[9:], cam)
            & reference_visible(curr_pix, curr.depth[9:], cam))
    n = int(keep.sum())
    if n < 4:
        return None
    noisy_prev = prev_pix[keep] + noise.klt_pixel_sigma * rng.standard_normal((n, 2))
    noisy_curr = curr_pix[keep] + noise.klt_pixel_sigma * rng.standard_normal((n, 2))
    return noisy_prev, noisy_curr


def overhead_world_to_cam(position):
    """World->camera for a camera at `position` looking straight down."""
    rot = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    cam_to_world = PoseSE3(rot, np.asarray(position, dtype=float))
    return cam_to_world.inverse()


class TestSubstream:
    def test_reproducible(self):
        a = substream(7, "detector").uniform(size=5)
        b = substream(7, "detector").uniform(size=5)
        assert np.array_equal(a, b)

    def test_named_streams_differ(self):
        a = substream(7, "detector").uniform(size=5)
        b = substream(7, "klt").uniform(size=5)
        c = substream(8, "detector").uniform(size=5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_indexed_streams_differ(self):
        a = substream(7, "particles", 0).uniform(size=5)
        b = substream(7, "particles", 1).uniform(size=5)
        assert not np.array_equal(a, b)


class TestMakeTarget:
    def test_features_on_surface(self):
        rng = np.random.default_rng(0)
        tg = make_target(0, [5, 5, 1], [1.0, 0.8, 0.6], 200, rng)
        rel = (tg.features - tg.center) / tg.half_extents
        assert np.all(np.abs(rel) <= 1 + 1e-12)
        on_face = np.isclose(np.abs(rel), 1.0).any(axis=1)
        assert on_face.all()


def fly(waypoints, v_max=1.0, a_max=1.0, dt=0.1, yaw_rate=1.5):
    """(position, yaw, velocity) of every tick from rest at the origin until
    the last waypoint is reached."""
    follower = WaypointFollower(np.zeros(3), 0.0, v_max, a_max, yaw_rate)
    follower.set_path(waypoints)
    ticks = []
    while not follower.done:
        ticks.append(follower.step(dt))
    return ticks


def turning_path(turn, n=6, side=1.0):
    """n legs of `side` metres from the origin along +x, turning left by `turn`
    at each waypoint; each waypoint's yaw is the heading of the leg to it."""
    pos, heading, wps = np.zeros(3), 0.0, []
    for _ in range(n):
        pos = pos + side * np.array([math.cos(heading), math.sin(heading), 0.0])
        wps.append(Waypoint(pos, heading))
        heading += turn
    return wps


def speeds_on_reaching(waypoints, dt=0.1):
    """Speed at the end of each tick in which a waypoint is reached, flying
    from rest at the origin with v_max = a_max = 1."""
    follower = WaypointFollower(np.zeros(3), 0.0, 1.0, 1.0, 1.5)
    follower.set_path(waypoints)
    speeds = []
    while not follower.done:
        seen = follower.waypoints_reached
        _, _, velocity = follower.step(dt)
        speeds += [float(np.linalg.norm(velocity))] * (follower.waypoints_reached - seen)
    assert follower.waypoints_reached == len(waypoints)
    return speeds


def distance_to_polyline(p, points) -> float:
    best = math.inf
    for a, b in zip(points, points[1:]):
        ab = b - a
        t = float(np.clip((p - a) @ ab / (ab @ ab), 0.0, 1.0))
        best = min(best, float(np.linalg.norm(p - (a + t * ab))))
    return best


class TestWaypointFollower:
    def test_ten_meter_trapezoid_takes_eleven_seconds(self):
        # 1 s accelerate + 9 s cruise + 1 s decelerate
        ticks = fly([Waypoint([10, 0, 0], 0.0)])
        assert len(ticks) == 110
        position, _, velocity = ticks[-1]
        assert position == pytest.approx([10, 0, 0], abs=1e-9)
        assert np.linalg.norm(velocity) == pytest.approx(0.0, abs=1e-9)

    def test_empty_path_immediate(self):
        assert fly([]) == []

    def test_kinematic_limits_every_tick(self):
        wps = [Waypoint([7, 3, 2], 1.0), Waypoint([-4, 1, 5], -2.0),
               Waypoint([0, 0, 0], 0.0)]
        v_max, a_max, dt = 1.0, 1.0, 0.1
        prev_v = np.zeros(3)
        for _, _, velocity in fly(wps, v_max, a_max, dt):
            assert np.linalg.norm(velocity) <= v_max + 1e-9
            assert np.linalg.norm(velocity - prev_v) <= a_max * dt + 1e-9
            prev_v = velocity

    def test_yaw_rate_bounded(self):
        yaw_rate = 1.5
        prev_yaw = 0.0
        for _, yaw, _ in fly([Waypoint([0.1, 0, 0], 3.0)], yaw_rate=yaw_rate):
            assert abs(wrap_angle(yaw - prev_yaw)) <= yaw_rate * 0.1 + 1e-9
            prev_yaw = yaw
        assert prev_yaw == pytest.approx(3.0, abs=1e-9)

    def test_waypoints_reached_in_order(self):
        follower = WaypointFollower(np.zeros(3), 0.0, 1.0, 1.0, 1.5)
        wps = [Waypoint([2, 0, 0], 0.0), Waypoint([2, 2, 0], 0.0)]
        follower.set_path(wps)
        seen = 0
        while not follower.done:
            follower.step(0.1)
            if follower.waypoints_reached > seen:
                seen = follower.waypoints_reached
                target = wps[seen - 1]
                assert np.linalg.norm(follower.position - target.position) < 0.2
        assert follower.waypoints_reached == 2
        assert np.linalg.norm(follower.position - wps[-1].position) < 0.2
        assert abs(wrap_angle(follower.yaw - wps[-1].yaw)) < 0.05

    def test_replan_mid_motion_brakes_first(self):
        follower = WaypointFollower(np.zeros(3), 0.0, 1.0, 1.0, 1.5)
        follower.set_path([Waypoint([10, 0, 0], 0.0)])
        prev_v = np.zeros(3)
        for _ in range(30):  # cruise at full speed
            _, _, v = follower.step(0.1)
            prev_v = v
        follower.set_path([Waypoint([0, 5, 0], 0.0)])
        while not follower.done:
            _, _, v = follower.step(0.1)
            assert np.linalg.norm(v - prev_v) <= 1.0 * 0.1 + 1e-9
            assert np.linalg.norm(v) <= 1.0 + 1e-9
            prev_v = v

    @pytest.mark.parametrize("turn_deg", [10.0, 15.0, 29.0])
    def test_shallow_turn_waypoints_passed_at_speed(self, turn_deg):
        # an orbit turns 10 degrees per waypoint and a fine arc 15
        speeds = speeds_on_reaching(turning_path(math.radians(turn_deg)))
        assert min(speeds[:-1]) > 0.5
        assert speeds[-1] == 0.0

    @pytest.mark.parametrize("waypoints, passed", [
        # a 90 degree corner, then the last waypoint
        ([Waypoint([3, 0, 0], 0.0), Waypoint([3, 3, 0], 0.0)], []),
        # the middle leg slews yaw by 3 rad (2 s) over 1 m (1 s at v_max):
        # both of its ends are stops, though the path turns by under 6 degrees
        ([Waypoint([2, 0, 0], 0.0), Waypoint([3, 0.1, 0], 3.0),
          Waypoint([5, 0.2, 0], 3.0)], []),
        # the same path without the slew is flown through
        ([Waypoint([2, 0, 0], 0.0), Waypoint([3, 0.1, 0], 0.0),
          Waypoint([5, 0.2, 0], 0.0)], [0, 1]),
    ])
    def test_corners_last_waypoint_and_yaw_bound_legs_end_at_rest(self, waypoints, passed):
        # a leg ending at rest leaves a tick at most a_max * dt of acceleration
        for i, speed in enumerate(speeds_on_reaching(waypoints)):
            if i in passed:
                assert speed > 0.5, i
            else:
                assert speed <= 0.1 + 1e-9, i

    def test_end_speed_lowered_to_what_a_short_next_leg_brakes_from(self):
        # a 5.7 degree turn onto a 0.2 m leg that ends at a corner: the
        # waypoint is passed no faster than sqrt(2 a_max 0.2), not at cruise
        short = math.hypot(0.2, 0.02)
        wps = [Waypoint([5, 0, 0], 0.0), Waypoint([5.2, 0.02, 0], 0.0),
               Waypoint([5.2, 3, 0], 0.0)]
        speeds = speeds_on_reaching(wps)
        assert 0.3 < speeds[0] <= math.sqrt(2.0 * short) + 1e-9
        prev = np.zeros(3)
        for position, _, _ in fly(wps):
            assert np.linalg.norm(position - prev) <= 1.0 * 0.1 + 1e-9
            prev = position

    @pytest.mark.parametrize("turn_deg", [10.0, 15.0, 29.0])
    def test_velocity_jump_at_a_pass_through_is_bounded(self, turn_deg):
        # turning by theta at speed v changes the velocity by 2 v sin(theta / 2)
        bound = 1.0 * 0.1 + 2.0 * 1.0 * math.sin(PASS_THROUGH_TURN / 2.0)
        velocities = [np.zeros(3)] + [v for _, _, v in fly(turning_path(math.radians(turn_deg)))]
        jumps = [np.linalg.norm(b - a) for a, b in zip(velocities, velocities[1:])]
        assert 0.1 + 1e-9 < max(jumps) <= bound + 1e-9

    def test_replan_while_passing_brakes_along_the_old_legs(self):
        follower = WaypointFollower(np.zeros(3), 0.0, 1.0, 1.0, 1.5)
        old = turning_path(math.radians(15.0), n=8)
        follower.set_path(old)
        # at cruise 0.3 m before the third waypoint, so the 0.5 m stop lies past it
        while not (follower.waypoints_reached == 2
                   and np.linalg.norm(old[2].position - follower.position) < 0.3):
            _, _, prev_v = follower.step(0.1)
        assert np.linalg.norm(prev_v) == pytest.approx(1.0)
        rest = follower.rest_position
        new = [Waypoint([0, 5, 0], 0.0)]
        follower.set_path(new)
        assert distance_to_polyline(rest, [old[2].position, old[3].position]) < 1e-12
        assert np.linalg.norm(rest - old[2].position) > 0.1
        old_line = [np.zeros(3)] + [wp.position for wp in old]
        new_line = [rest] + [wp.position for wp in new]
        bound = 1.0 * 0.1 + 2.0 * 1.0 * math.sin(PASS_THROUGH_TURN / 2.0)
        while not follower.done:
            position, _, v = follower.step(0.1)
            assert min(distance_to_polyline(position, old_line),
                       distance_to_polyline(position, new_line)) < 1e-12
            assert np.linalg.norm(v - prev_v) <= bound + 1e-9
            prev_v = v
        assert np.linalg.norm(follower.position - new[0].position) < 1e-9


class TestDetectionDelay:
    def test_zero_latency_passes_frames_through(self):
        delay = DetectionDelay(0)
        for frame in (["a"], [], ["b", "c"]):
            assert delay.push(frame) == frame

    @pytest.mark.parametrize("latency", [1, 3])
    def test_latency_delivers_empty_then_capture_order(self, latency):
        delay = DetectionDelay(latency)
        frames = [[f"box{i}"] for i in range(6)]
        delivered = [delay.push(frame) for frame in frames]
        assert delivered == [[]] * latency + frames[:len(frames) - latency]


class TestTruthPoints:
    @staticmethod
    def place(where, cam, rng):
        """A camera-frame target center: in view, behind the camera, in front
        but out of frame, or straddling the image plane."""
        depth = {"ahead": rng.uniform(2, 40), "behind": -rng.uniform(2, 40),
                 "aside": rng.uniform(2, 40), "straddle": rng.uniform(-0.5, 0.5)}[where]
        u, v = rng.uniform(0, cam.width), rng.uniform(0, cam.height)
        if where == "aside":
            off = rng.uniform(200, 3000)
            u = -off if rng.uniform() < 0.5 else cam.width + off
        x = (u - cam.cx) / cam.fx * abs(depth)
        y = (v - cam.cy) / cam.fy * abs(depth)
        return np.array([x, y, depth])

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), survey_pose=st.booleans(),
           placements=st.lists(st.sampled_from(["ahead", "behind", "aside", "straddle"]),
                               min_size=1, max_size=4))
    def test_slices_equal_separate_projections(self, cam, seed, survey_pose, placements):
        # one projection per frame must give each target the bits that its
        # own block, and the center / corner / feature calls it replaced, give
        rng = np.random.default_rng(seed)
        if survey_pose:
            c2w = camera_to_world_pose(rng.uniform(-30, 30, 3),
                                       rng.uniform(-math.pi, math.pi), cam.gamma)
        else:
            c2w = random_pose(rng)
        targets = [
            make_target(i, c2w.apply(self.place(where, cam, rng)),
                        rng.uniform(0.1, 2.0, 3), int(rng.integers(4, 40)), rng)
            for i, where in enumerate(placements)
        ]
        # world-to-camera poses made as the runner makes them, one frame apart
        prev_w2c = perturb_pose(c2w, NoiseModel(), rng).inverse()
        w2c = c2w.inverse()
        truth = TruthPoints(targets)
        prev = truth.split(*project_points(truth.points, prev_w2c, cam), cam)
        curr = truth.split(*project_points(truth.points, w2c, cam), cam)
        assert len(prev) == len(curr) == len(targets)
        # the kept previous frame still equals a fresh projection at its pose
        for pose, frame in ((prev_w2c, prev), (w2c, curr)):
            for tg, proj in zip(targets, frame):
                block = np.vstack([tg.center, tg.corners(), tg.features])
                parts = [(proj.pix, proj.depth, block),
                         (proj.pix[:1], proj.depth[:1], tg.center),
                         (proj.pix[1:9], proj.depth[1:9], tg.corners()),
                         (proj.feature_pix, proj.depth[9:], tg.features)]
                for pix, depth, points in parts:
                    fresh_pix, fresh_depth = project_points(points, pose, cam)
                    assert np.array_equal(pix, fresh_pix)
                    assert np.array_equal(depth, fresh_depth)
                # the frame's one mask gives each target visible() of its rows
                assert np.array_equal(proj.visible,
                                      reference_visible(proj.pix, proj.depth, cam))
        # one box per target, the min / max of its corners, from one gather;
        # none when a corner is behind, the box misses the image or has no area
        for tg, proj in zip(targets, curr):
            corners, depth = proj.pix[1:9], proj.depth[1:9]
            u0, v0, u1, v1 = (corners[:, 0].min(), corners[:, 1].min(),
                              corners[:, 0].max(), corners[:, 1].max())
            seen = (not (depth <= 0).any() and u1 > 0 and v1 > 0
                    and u0 < cam.width and v0 < cam.height and u0 < u1 and v0 < v1)
            expected = BBox(u0, v0, u1, v1) if seen else None
            assert proj.box == expected
        # and with every other target, the KLT pair of the reference arithmetic
        for a, b in zip(prev, curr):
            seed_rng = int(rng.integers(0, 2**32))
            got = simulate_klt(a, b, NoiseModel(), np.random.default_rng(seed_rng))
            ref = reference_klt(a, b, cam, NoiseModel(), np.random.default_rng(seed_rng))
            if ref is None:
                assert got is None
            else:
                assert [x.tobytes() for x in got] == [x.tobytes() for x in ref]

    def test_no_targets_project_no_rows(self, cam):
        truth = TruthPoints([])
        assert truth.points.shape == (0, 3)
        assert truth.split(*project_points(truth.points, identity_pose(), cam), cam) == []

    def test_points_and_corners_are_read_only(self):
        tg = make_target(0, [1.0, 2.0, 0.5], [0.5, 0.4, 0.5], 6, np.random.default_rng(0))
        assert tg.corners() is tg.corners()
        with pytest.raises(ValueError):
            tg.corners()[0, 0] = 0.0
        with pytest.raises(ValueError):
            TruthPoints([tg]).points[0, 0] = 0.0


class TestSimulateDetector:
    def quiet(self, **kw):
        base = dict(detector_pixel_sigma=0.0, detect_prob=1.0,
                    false_positive_rate=0.0)
        base.update(kw)
        return NoiseModel(**base)

    def test_noiseless_box_is_exact_projected_aabb(self, cam):
        rng = np.random.default_rng(1)
        tg = make_target(0, [0.3, -0.2, 0.4], [0.5, 0.4, 0.4], 10, rng)
        w2c = overhead_world_to_cam([0, 0, 10])
        dets = simulate_detector(project_truth([tg], w2c, cam), cam, self.quiet(), rng)
        assert len(dets) == 1
        pix, depth = project_points(tg.corners(), w2c, cam)
        assert np.all(depth > 0)
        expected = [pix[:, 0].min(), pix[:, 1].min(), pix[:, 0].max(), pix[:, 1].max()]
        assert dets[0].as_array() == pytest.approx(expected, abs=1e-9)

    def test_box_dimensions_from_pinhole_arithmetic(self, cam):
        # near-face corners dominate the projected square: fx * extent / depth
        rng = np.random.default_rng(2)
        half = np.array([1.0, 1.0, 0.01])
        tg = make_target(0, [0, 0, 5.0], half, 10, rng)
        w2c = overhead_world_to_cam([0, 0, 15.0])
        det = simulate_detector(project_truth([tg], w2c, cam), cam, self.quiet(), rng)[0]
        near_depth = 15.0 - 5.01
        assert det.width == pytest.approx(cam.fx * 2.0 / near_depth, rel=1e-6)
        assert det.height == pytest.approx(cam.fy * 2.0 / near_depth, rel=1e-6)

    def test_detect_prob_zero_leaves_only_false_positives(self, cam):
        rng = np.random.default_rng(3)
        tg = make_target(0, [0, 0, 0.4], [0.5, 0.5, 0.4], 10, rng)
        noise = self.quiet(detect_prob=0.0, false_positive_rate=2.0)
        w2c = overhead_world_to_cam([0, 0, 10])
        pix, _ = project_points(tg.corners(), w2c, cam)
        true_box = [pix[:, 0].min(), pix[:, 1].min(), pix[:, 0].max(), pix[:, 1].max()]
        truth = project_truth([tg], w2c, cam)
        for _ in range(50):
            for det in simulate_detector(truth, cam, noise, rng):
                assert det.as_array() != pytest.approx(true_box, abs=1e-6)

    def test_out_of_frame_target_not_detected(self, cam):
        rng = np.random.default_rng(4)
        tg = make_target(0, [50, 0, 0.4], [0.5, 0.5, 0.4], 10, rng)
        truth = project_truth([tg], overhead_world_to_cam([0, 0, 10]), cam)
        dets = simulate_detector(truth, cam, self.quiet(), rng)
        assert dets == []

    def test_noisy_boxes_enclose_silhouette(self, cam):
        # a ~100 px box with 2 px edge noise keeps >= 95% of silhouette
        # samples, viewed at the working mount depression
        from conescan.geometry import camera_to_world_pose

        rng = np.random.default_rng(5)
        tg = make_target(0, [0, 0, 0.9], [1.0, 1.0, 0.9], 300, rng)
        noise = self.quiet(detector_pixel_sigma=2.0)
        ahead = 9.0 / math.tan(cam.gamma)
        w2c = camera_to_world_pose([-ahead, 0, 9.9], 0.0, cam.gamma).inverse()
        sil_pix, _ = project_points(tg.features, w2c, cam)
        truth = project_truth([tg], w2c, cam)
        inside = 0
        total = 0
        for _ in range(1000):
            det = simulate_detector(truth, cam, noise, rng)[0]
            inside += np.count_nonzero(
                (sil_pix[:, 0] >= det.u_min) & (sil_pix[:, 0] <= det.u_max)
                & (sil_pix[:, 1] >= det.v_min) & (sil_pix[:, 1] <= det.v_max)
            )
            total += len(sil_pix)
        assert inside / total >= 0.95

    def test_deterministic_given_stream(self, cam):
        tg = make_target(0, [0, 0, 0.4], [0.5, 0.5, 0.4], 10,
                         np.random.default_rng(6))
        noise = NoiseModel(detector_pixel_sigma=2.0, detect_prob=0.7,
                           false_positive_rate=0.5)
        truth = project_truth([tg], overhead_world_to_cam([0, 0, 10]), cam)
        runs = []
        for _ in range(2):
            rng = substream(42, "detector")
            frames = [simulate_detector(truth, cam, noise, rng)
                      for _ in range(20)]
            runs.append([[d.as_array().tolist() for d in f] for f in frames])
        assert runs[0] == runs[1]


class TestSimulateKlt:
    def test_identical_poses_zero_noise(self, cam):
        rng = np.random.default_rng(7)
        tg = make_target(0, [0, 0, 0.4], [0.5, 0.5, 0.4], 30, rng)
        noise = NoiseModel(klt_pixel_sigma=0.0)
        (proj,) = project_truth([tg], overhead_world_to_cam([0, 0, 10]), cam)
        prev, curr = simulate_klt(proj, proj, noise, rng)
        assert np.array_equal(prev, curr)
        assert len(prev) >= 4

    def test_camera_roll_recovered_as_rotation(self, cam):
        # rotate the camera about its optical axis; the fitted similarity
        # should report the same angle to within half a degree
        from conescan.bbox_tracker import estimate_similarity

        rng = np.random.default_rng(8)
        tg = make_target(0, [0, 0, 0.4], [1.0, 1.0, 0.4], 20, rng)
        noise = NoiseModel(klt_pixel_sigma=1.0)
        w2c_prev = overhead_world_to_cam([0, 0, 10])
        roll = math.radians(10)
        c, s = math.cos(roll), math.sin(roll)
        rz = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
        w2c_curr = PoseSE3(rz @ w2c_prev.rotation, rz @ w2c_prev.translation)
        (prev,) = project_truth([tg], w2c_prev, cam)
        (curr,) = project_truth([tg], w2c_curr, cam)
        pair = simulate_klt(prev, curr, noise, rng)
        assert pair is not None
        scale, theta = scale_and_angle(estimate_similarity(pair[0], pair[1]))
        assert abs(theta) == pytest.approx(roll, abs=math.radians(0.5))
        assert scale == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("n_features", [4, 5, 30, 200])
    def test_one_draw_equals_two_draws(self, cam, n_features):
        # one (2, n, 2) draw is the stream of two (n, 2) draws, in order
        rng = np.random.default_rng(n_features)
        tg = make_target(0, [0, 0, 0.4], [1.0, 1.0, 0.4], n_features, rng)
        w2c = overhead_world_to_cam([0, 0, 10])
        (prev,) = project_truth([tg], w2c, cam)
        shifted = PoseSE3(w2c.rotation, w2c.translation + [0.3, -0.2, 0.1])
        (curr,) = project_truth([tg], shifted, cam)
        noise = NoiseModel(klt_pixel_sigma=1.7)
        for seed in range(20):
            got = simulate_klt(prev, curr, noise, np.random.default_rng(seed))
            ref = reference_klt(prev, curr, cam, noise, np.random.default_rng(seed))
            assert [x.tobytes() for x in got] == [x.tobytes() for x in ref]

    def test_reads_the_given_masks(self, cam):
        # the KLT matcher drops what the frame's masks drop, with no mask of
        # its own: a feature marked hidden at either frame is left out
        rng = np.random.default_rng(15)
        tg = make_target(0, [0, 0, 0.4], [1.0, 1.0, 0.4], 30, rng)
        (proj,) = project_truth([tg], overhead_world_to_cam([0, 0, 10]), cam)
        noise = NoiseModel(klt_pixel_sigma=0.0)
        prev_pix, _ = simulate_klt(proj, proj, noise, rng)
        hidden = proj.visible.copy()
        hidden[9:][np.flatnonzero(hidden[9:])[:3]] = False
        prev = proj._replace(visible=hidden)
        for pair in (simulate_klt(prev, proj, noise, rng), simulate_klt(proj, prev, noise, rng)):
            assert np.array_equal(pair[0], proj.feature_pix[hidden[9:]])
            assert len(pair[0]) == len(prev_pix) - 3

    def test_out_of_frame_unavailable(self, cam):
        rng = np.random.default_rng(9)
        tg = make_target(0, [100, 0, 0.4], [0.5, 0.5, 0.4], 30, rng)
        noise = NoiseModel()
        (proj,) = project_truth([tg], overhead_world_to_cam([0, 0, 10]), cam)
        assert simulate_klt(proj, proj, noise, rng) is None

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), survey_pose=st.booleans(),
           where=st.sampled_from(["ahead", "behind", "aside", "straddle"]),
           sigma=st.one_of(st.just(0.0), st.floats(0.0, 100.0)))
    def test_none_or_two_equal_finite_pixel_arrays(self, cam, seed, survey_pose, where,
                                                   sigma):
        # estimate_similarity, the pair's one reader, re-checks none of this
        rng = np.random.default_rng(seed)
        if survey_pose:
            c2w = camera_to_world_pose(rng.uniform(-30, 30, 3),
                                       rng.uniform(-math.pi, math.pi), cam.gamma)
        else:
            c2w = random_pose(rng)
        tg = make_target(0, c2w.apply(TestTruthPoints.place(where, cam, rng)),
                         rng.uniform(0.1, 2.0, 3), int(rng.integers(4, 40)), rng)
        moved = NoiseModel(pose_sigma_xyz=rng.uniform(0, 2), yaw_sigma=rng.uniform(0, 0.5))
        (prev,) = project_truth([tg], perturb_pose(c2w, moved, rng).inverse(), cam)
        (curr,) = project_truth([tg], c2w.inverse(), cam)
        pair = simulate_klt(prev, curr, NoiseModel(klt_pixel_sigma=sigma), rng)
        n = np.count_nonzero(prev.feature_visible & curr.feature_visible)
        if n < 4:
            assert pair is None
            return
        p, q = pair
        assert p.dtype == q.dtype == np.float64
        assert p.shape == q.shape == (n, 2)
        assert np.isfinite(p).all() and np.isfinite(q).all()


class TestPerturbPose:
    def test_zero_noise_is_identity(self):
        rng = np.random.default_rng(10)
        pose = random_pose(rng)
        out = perturb_pose(pose, NoiseModel(pose_sigma_xyz=0.0, yaw_sigma=0.0), rng)
        assert np.allclose(out.rotation, pose.rotation)
        assert np.allclose(out.translation, pose.translation)

    def test_translation_unbiased(self):
        rng = np.random.default_rng(11)
        pose = random_pose(rng)
        noise = NoiseModel(pose_sigma_xyz=0.3, yaw_sigma=0.0)
        n = 10_000
        samples = np.stack(
            [perturb_pose(pose, noise, rng).translation for _ in range(n)]
        )
        se = 0.3 / math.sqrt(n)
        assert np.all(np.abs(samples.mean(axis=0) - pose.translation) < 3 * se)

    def test_yaw_noise_spins_about_world_z(self):
        rng = np.random.default_rng(12)
        pose = random_pose(rng)
        noise = NoiseModel(pose_sigma_xyz=0.0, yaw_sigma=0.1)
        out = perturb_pose(pose, noise, rng)
        # world z axis expressed in the rotated frame is unchanged
        delta = out.rotation @ pose.rotation.T
        assert delta[2, 2] == pytest.approx(1.0, abs=1e-12)
        assert abs(np.linalg.det(delta) - 1.0) < 1e-9
