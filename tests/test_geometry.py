import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conescan.geometry import (
    ROW_BLOCK,
    BBox,
    CameraRig,
    DegenerateConeError,
    PoseSE3,
    back_project_direction,
    blocked_matmul,
    camera_to_world_pose,
    cone_contains,
    cone_normals,
    project_points,
    row_blocks,
    to_euclidean,
    wrap_angle,
)
from conescan.simulator import NoiseModel, perturb_pose

from conftest import identity_pose, random_pose, random_rotation, stock_camera


def lift(box):
    """The stacked homogeneous 6-vector of a box's corners."""
    return [box.u_min, box.v_min, 1.0, box.u_max, box.v_max, 1.0]


class TestHomogeneousConversions:
    def test_drop(self):
        assert to_euclidean([0, 0, 1, 10, 10, 1]) == BBox(0, 0, 10, 10)
        assert to_euclidean([5, 5, 1, 5.5, 6, 1]) == BBox(5, 5, 5.5, 6)

    def test_round_trip_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            lo = rng.uniform(-100, 100, size=2)
            hi = lo + rng.uniform(0.1, 200, size=2)
            box = BBox(lo[0], lo[1], hi[0], hi[1])
            assert to_euclidean(lift(box)) == box

    @given(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3),
           st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
    def test_round_trip_property(self, u, v, w, h):
        box = BBox(u, v, u + w, v + h)
        assert to_euclidean(lift(box)) == box


class TestBBox:
    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            BBox(10, 0, 0, 10)
        with pytest.raises(ValueError):
            BBox(0, 10, 10, 10)

    def test_corners_clockwise_order(self):
        corners = BBox(1, 2, 3, 4).corners_clockwise()
        assert np.array_equal(corners, [[1, 2], [3, 2], [3, 4], [1, 4]])


class TestProjection:
    def test_principal_point(self, cam):
        pose = identity_pose()
        pix, depth = project_points([0, 0, 5], pose, cam)
        assert pix[0] == pytest.approx([320, 240])
        assert depth == pytest.approx([5.0])

    def test_lateral_offset(self, cam):
        # u = cx + fx * x / z = 320 + 500 * (1 / 5)
        pix, _ = project_points([1, 0, 5], identity_pose(), cam)
        assert pix[0] == pytest.approx([420, 240], abs=1e-12)

    def test_behind_camera_has_negative_depth(self, cam):
        # callers mask on depth; a point behind the camera must not pass
        _, depth = project_points([[0, 0, -1], [0, 0, 0], [0, 0, 2]],
                                  identity_pose(), cam)
        assert depth.tolist() == [-1.0, 0.0, 2.0]


class TestBackProjection:
    def test_optical_axis(self, cam):
        assert back_project_direction([cam.cx, cam.cy], cam) == pytest.approx([0, 0, 1])

    def test_unit_offset(self, cam):
        # K^-1 arithmetic: x = (u - cx) / fx = fx / fx = 1
        direction = back_project_direction([cam.cx + cam.fx, cam.cy], cam)
        assert direction == pytest.approx([1, 0, 1])

    def test_inverse_pair(self, cam):
        rng = np.random.default_rng(2)
        pose = identity_pose()
        for _ in range(100):
            pixel = rng.uniform([0, 0], [cam.width, cam.height])
            direction = back_project_direction(pixel, cam)
            for mu in (0.5, 1.0, 10.0):
                pix, _ = project_points(mu * direction, pose, cam)
                assert np.max(np.abs(pix - pixel)) < 1e-9

    def test_round_trip_with_pose(self, cam):
        # full loop: pixel -> ray -> world point -> pixel
        rng = np.random.default_rng(3)
        for _ in range(50):
            cam_to_world = random_pose(rng)
            pixel = rng.uniform([0, 0], [cam.width, cam.height])
            mu = rng.uniform(0.1, 50)
            world = cam_to_world.apply(mu * back_project_direction(pixel, cam))
            pix, _ = project_points(world, cam_to_world.inverse(), cam)
            assert np.max(np.abs(pix - pixel)) < 1e-9


def _centered_box_corners(cam, half_u=50.0, half_v=40.0):
    return BBox(cam.cx - half_u, cam.cy - half_v,
                cam.cx + half_u, cam.cy + half_v).corners_clockwise()


class TestCone:
    def test_center_ray_strictly_inside(self, cam):
        normals = cone_normals(_centered_box_corners(cam), cam)
        center_dir = back_project_direction([cam.cx, cam.cy], cam)
        assert np.all(normals @ center_dir > 0)

    def test_corner_ray_lies_on_two_faces(self, cam):
        corners = _centered_box_corners(cam)
        normals = cone_normals(corners, cam)
        for i in range(4):
            dots = normals @ back_project_direction(corners[i], cam)
            on_faces = np.abs(dots) < 1e-12
            assert on_faces.sum() == 2
            assert np.all(dots[~on_faces] > 0)

    def test_far_outside_pixel_violates(self, cam):
        normals = cone_normals(_centered_box_corners(cam), cam)
        outside_dir = back_project_direction([cam.cx + 500, cam.cy], cam)
        assert not cone_contains(normals, outside_dir).any()

    @settings(max_examples=400, deadline=None)
    @given(u0=st.floats(-1500, 2100), v0=st.floats(-1500, 2000),
           w=st.one_of(st.floats(0, 1e-8), st.floats(1e-8, 900)),
           h=st.one_of(st.floats(0, 1e-8), st.floats(1e-8, 900)),
           intrinsics=st.sampled_from([(500.0, 500.0, 320.0, 240.0),
                                       (431.7, 612.3, 0.0, 0.0),
                                       (1e-3, 2e-3, 123.4, -56.7)]))
    def test_normals_equal_np_cross(self, u0, v0, w, h, intrinsics):
        # boxes inside, straddling and outside the image, down to zero area;
        # tobytes() compares signed zeros too
        fx, fy, cx, cy = intrinsics
        cam = CameraRig(fx=fx, fy=fy, cx=cx, cy=cy, width=640, height=480,
                        gamma=math.radians(55.0), beta=math.radians(40.0))
        u1, v1 = u0 + w, v0 + h
        corners = np.array([[u0, v0], [u1, v0], [u1, v1], [u0, v1]])
        dirs = np.column_stack([back_project_direction(c, cam) for c in corners])
        expected = np.cross(dirs.T, np.roll(dirs.T, -1, axis=0))
        if np.any(np.linalg.norm(expected, axis=1) < 1e-12):
            with pytest.raises(DegenerateConeError):
                cone_normals(corners, cam)
        else:
            assert cone_normals(corners, cam).tobytes() == expected.tobytes()

    def test_degenerate_box_rejected(self, cam):
        flat = np.array([[0, 0], [10, 0], [10, 0], [0, 0]], dtype=float)
        with pytest.raises(DegenerateConeError):
            cone_normals(flat, cam)

    def test_point_on_axis_inside_centered_box(self, cam):
        normals = cone_normals(_centered_box_corners(cam), cam)
        assert cone_contains(normals, [0, 0, 7.5]).all()

    def test_mirrored_point_is_outside(self, cam):
        # all four inequalities flip sign under point negation
        normals = cone_normals(_centered_box_corners(cam), cam)
        point = np.array([0.1, -0.2, 5.0])
        assert cone_contains(normals, point).all()
        assert not cone_contains(normals, -point).any()

    def test_scale_invariance(self, cam):
        rng = np.random.default_rng(4)
        normals = cone_normals(_centered_box_corners(cam), cam)
        points = rng.uniform(-3, 3, size=(100, 3))
        base = cone_contains(normals, points)
        for s in (1e-3, 0.5, 7.0, 1e4):
            assert np.array_equal(cone_contains(normals, s * points), base)


class TestPoseSE3:
    def test_identity_round_trip(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            pose = random_pose(rng)
            pts = rng.standard_normal((10, 3))
            assert np.allclose(pose.inverse().apply(pose.apply(pts)), pts, atol=1e-9)

    def test_rejects_non_rotation(self):
        with pytest.raises(ValueError):
            PoseSE3(2 * np.eye(3), np.zeros(3))
        with pytest.raises(ValueError):
            PoseSE3(np.diag([1.0, 1.0, -1.0]), np.zeros(3))


# Row counts around one and two blocks, and a cloud.
BLOCKED_SIZES = (ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 17, 100_000)


class TestRowBlocks:
    @pytest.mark.parametrize("n", (0, 1, 2, *BLOCKED_SIZES, 2 * ROW_BLOCK + 1))
    def test_blocks_cover_the_rows_with_no_single_row_block(self, n):
        blocks = row_blocks(n)
        assert [i for b in blocks for i in range(n)[b]] == list(range(n))
        sizes = [b.stop - b.start for b in blocks]
        assert max(sizes) <= ROW_BLOCK + 1 and (n < 2 or min(sizes) > 1)

    # sizes within one block pin the one-block case, which every product takes
    @pytest.mark.parametrize("n", (1, 2, 3, 4, 256, 1_000, *BLOCKED_SIZES))
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_blocked_products_equal_one_whole_product(self, n, seed):
        cam = stock_camera()
        rng = np.random.default_rng(seed)
        pose = random_pose(rng)
        points = rng.uniform(-50.0, 50.0, size=(n, 3))
        whole = points @ pose.rotation.T + pose.translation
        assert np.array_equal(pose.apply(points), whole)
        # generate_particles hands apply the transpose of a (3, n) array
        points_f = np.asfortranarray(points)
        assert np.array_equal(pose.apply(points_f),
                              points_f @ pose.rotation.T + pose.translation)

        corners = np.sort(rng.uniform(0, 640, 2)), np.sort(rng.uniform(0, 480, 2))
        normals = cone_normals(BBox(corners[0][0], corners[1][0], corners[0][1],
                                    corners[1][1]).corners_clockwise(), cam)
        face_products = whole @ normals.T
        assert np.array_equal(blocked_matmul(whole, normals.T), face_products)
        assert np.array_equal(cone_contains(normals, whole),
                              np.all(face_products > 0.0, axis=1))

        # the particle-generation product: corner rays (3, 4) times weights (4, n)
        dirs = np.vstack([rng.uniform(-1.0, 1.0, (2, 4)), np.ones((1, 4))])
        coeffs = 1.0 - rng.uniform(size=(4, n))
        assert np.array_equal(blocked_matmul(dirs, coeffs), dirs @ coeffs)


class TestCameraPose:
    def test_level_heading_east_looks_down_forward(self):
        pose = camera_to_world_pose([0, 0, 10], 0.0, math.radians(55))
        optical_axis = pose.rotation[:, 2]
        assert optical_axis[2] < 0  # depressed below horizontal
        assert optical_axis[0] > 0  # forward along +x heading
        assert optical_axis[1] == pytest.approx(0, abs=1e-12)
        assert math.asin(-optical_axis[2]) == pytest.approx(math.radians(55))

    def test_target_ahead_projects_to_principal_point(self, cam):
        depression = cam.gamma
        altitude = 12.0
        ahead = altitude / math.tan(depression)
        pose = camera_to_world_pose([0, 0, altitude], 0.0, depression)
        pix, depth = project_points([ahead, 0, 0], pose.inverse(), cam)
        assert pix[0] == pytest.approx([cam.cx, cam.cy], abs=1e-9)
        assert depth == pytest.approx([altitude / math.sin(depression)])

    def test_rotation_is_right_handed(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            yaw = rng.uniform(-math.pi, math.pi)
            gamma = rng.uniform(0.1, 1.4)
            rot = camera_to_world_pose([0, 0, 0], yaw, gamma).rotation
            assert np.linalg.det(rot) == pytest.approx(1.0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3),
       st.floats(-10, 10), st.floats(0.01, 1.56),
       st.floats(0, 1), st.floats(0, 1), st.integers(0, 2**32 - 1))
def test_built_poses_pass_public_checks(position, yaw, depression,
                                        pose_sigma, yaw_sigma, seed):
    # camera_to_world_pose, inverse and perturb_pose skip the checks of
    # PoseSE3(...); what they build must still satisfy them
    c2w = camera_to_world_pose(position, yaw, depression)
    noise = NoiseModel(pose_sigma_xyz=pose_sigma, yaw_sigma=yaw_sigma)
    noisy = perturb_pose(c2w, noise, np.random.default_rng(seed))
    for pose in (c2w, c2w.inverse(), noisy, noisy.inverse()):
        PoseSE3(pose.rotation, pose.translation)
        assert pose.translation.shape == (3,)
        assert pose.rotation.dtype == pose.translation.dtype == np.float64


@given(st.floats(-50, 50))
def test_wrap_angle_range(a):
    w = wrap_angle(a)
    assert -math.pi < w <= math.pi
    assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-9)
    assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-9)
