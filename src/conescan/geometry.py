"""Pinhole camera model, SE(3) poses, bounding boxes and back-projected cones.

Conventions: camera frame is z forward, x right (image u), y down (image v);
world frame is z up. Pixels are continuous reals, never quantized here.
"""

import math
from dataclasses import dataclass

import numpy as np


# Products whose row count grows with a particle cloud are computed in blocks of
# this many rows, which keeps each block's product under 2**18 multiply-adds. The
# OpenBLAS 0.3.31 bundled with numpy 2.4.6 hands a larger product to its thread
# pool; on a 2-vCPU machine a (65,536 x 3) @ (3 x 3) product then took about 30 ms
# on up to a third of calls, against 0.3-0.5 ms for the same product in 16,384-row
# blocks, which never stalled. Rows are independent, so the blocks give the same
# bits as one `@`; do not merge them back into one product.
ROW_BLOCK = 16_384


def row_blocks(n: int) -> list:
    """Slices covering n rows in blocks of ROW_BLOCK. A last block of one row
    joins the block before it: numpy computes a one-row product with another
    BLAS kernel, whose bits differ from those of the same row in a larger block."""
    starts = list(range(0, max(n - 1, 1), ROW_BLOCK))
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def blocked_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for 2-D float arrays, computed over row_blocks of a's rows, or of
    b's columns when b has more columns than a has rows."""
    out = np.empty((a.shape[0], b.shape[1]))
    if a.shape[0] >= b.shape[1]:
        for rows in row_blocks(a.shape[0]):
            np.matmul(a[rows], b, out=out[rows])
    else:
        for cols in row_blocks(b.shape[1]):
            np.matmul(a, b[:, cols], out=out[:, cols])
    return out


class DegenerateConeError(ValueError):
    """Bounding-box corners do not span a proper four-face cone."""


def vector_norm(v: np.ndarray) -> float:
    """np.linalg.norm of a contiguous float (n,) array, bit for bit: its own
    1-D formula, sqrt(v . v), without its Python wrapper."""
    return math.sqrt(v.dot(v))


def wrap_angle(a: float) -> float:
    """Normalize an angle to (-pi, pi]."""
    w = (a + math.pi) % (2.0 * math.pi) - math.pi
    return math.pi if w == -math.pi else w


@dataclass(frozen=True)
class PoseSE3:
    """Rigid transform x_out = rotation @ x_in + translation, from a float (3, 3)
    rotation matrix and a float (3,) translation, taken as given."""

    rotation: np.ndarray
    translation: np.ndarray

    def inverse(self) -> "PoseSE3":
        return PoseSE3(self.rotation.T, -self.rotation.T @ self.translation)

    def apply(self, points):
        """Transform a float (3,) point or (n, 3) array of points."""
        if len(points) > ROW_BLOCK:
            out = blocked_matmul(points, self.rotation.T)
            for k in range(3):  # column by column: an (n, 3) + (3,) broadcast loops per row
                out[:, k] += self.translation[k]
            return out
        return points @ self.rotation.T + self.translation


@dataclass(frozen=True)
class CameraRig:
    """Pinhole intrinsics plus mount depression and vertical scan angles.

    gamma is the depression of the optical axis below horizontal; beta is the
    vertical scanning angle used by the mapping planner and must fit strictly
    inside the vertical field of view. The defaults are the stock camera.
    """

    fx: float = 500.0
    fy: float = 500.0
    cx: float = 320.0
    cy: float = 240.0
    width: int = 640
    height: int = 480
    gamma: float = math.radians(55.0)
    beta: float = math.radians(40.0)

    @property
    def vfov(self) -> float:
        return 2.0 * math.atan(self.height / (2.0 * self.fy))

    @property
    def hfov(self) -> float:
        return 2.0 * math.atan(self.width / (2.0 * self.fx))


@dataclass(frozen=True)
class BBox:
    """Axis-aligned pixel bounding box, corners as Euclidean coordinates."""

    u_min: float
    v_min: float
    u_max: float
    v_max: float

    def __post_init__(self):
        if not (self.u_min < self.u_max and self.v_min < self.v_max):
            raise ValueError("box must satisfy u_min < u_max and v_min < v_max")

    @property
    def center(self) -> np.ndarray:
        return np.array(
            [(self.u_min + self.u_max) / 2.0, (self.v_min + self.v_max) / 2.0]
        )

    @property
    def width(self) -> float:
        return self.u_max - self.u_min

    @property
    def height(self) -> float:
        return self.v_max - self.v_min

    @property
    def area(self) -> float:
        return self.width * self.height

    def corners_clockwise(self) -> np.ndarray:
        """Corners in clockwise image order (v down): TL, TR, BR, BL."""
        return np.array(
            [
                [self.u_min, self.v_min],
                [self.u_max, self.v_min],
                [self.u_max, self.v_max],
                [self.u_min, self.v_max],
            ]
        )


def to_euclidean(x: np.ndarray) -> BBox:
    """Drop the homogeneous entries of a stacked float (6,) vector back to a box."""
    u_min, v_min, _, u_max, v_max, _ = x.tolist()
    return BBox(u_min, v_min, u_max, v_max)


def project_points(points: np.ndarray, world_to_cam: PoseSE3, cam: CameraRig):
    """Vectorized projection of a float (n, 3) array of world points.

    Returns (pixels (n, 2), depths (n,)). Rows with depth <= 0 carry meaningless
    pixels; callers must mask on depth.
    """
    x, y, z = world_to_cam.apply(points).T
    safe_z = np.where(np.abs(z) < 1e-300, 1e-300, z)
    pix = np.empty((len(z), 2))
    u, v = pix.T  # fx * x / safe_z + cx and fy * y / safe_z + cy, built in place
    np.add(np.divide(np.multiply(x, cam.fx, out=u), safe_z, out=u), cam.cx, out=u)
    np.add(np.divide(np.multiply(y, cam.fy, out=v), safe_z, out=v), cam.cy, out=v)
    return pix, z


def back_project_direction(pixel, cam: CameraRig) -> np.ndarray:
    """Camera-frame ray direction K^-1 (u, v, 1); unit depth component."""
    u, v = float(pixel[0]), float(pixel[1])
    return np.array([(u - cam.cx) / cam.fx, (v - cam.cy) / cam.fy, 1.0])


def cone_normals(corners: np.ndarray, cam: CameraRig) -> np.ndarray:
    """Inward normals of the four cone faces back-projected from box corners.

    Corners are a (4, 2) array in clockwise image order; each face passes
    through the camera origin so membership reduces to sign tests.
    """
    # rays (x, y, 1) = K^-1 (u, v, 1), as back_project_direction gives them
    rays = [((u - cam.cx) / cam.fx, (v - cam.cy) / cam.fy)
            for u, v in corners.tolist()]
    normals = []
    for (x0, y0), (x1, y1) in zip(rays, rays[1:] + rays[:1]):
        # ray i x ray i+1, multiply then subtract as np.cross does; a product
        # with the unit depth is exact, so it is left out
        n = (y0 - y1, x1 - x0, x0 * y1 - y0 * x1)
        if math.sqrt(n[0] * n[0] + n[1] * n[1] + n[2] * n[2]) < 1e-12:
            raise DegenerateConeError("zero-area bounding box")
        normals.append(n)
    return np.array(normals)


def cone_contains(normals: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Strict membership mask for (n, 3) camera-frame points: every face's
    product is > 0, tested one face column at a time (NaN is outside)."""
    side = blocked_matmul(points, normals.T)
    inside = side[:, 0] > 0.0
    for k in range(1, side.shape[1]):
        inside &= side[:, k] > 0.0
    return inside


def camera_to_world_pose(position: np.ndarray, yaw: float, depression: float) -> PoseSE3:
    """Camera pose from a hovering body: heading yaw, optical axis depressed.

    Returns the camera->world transform; the rotation columns are the camera
    x (image right), y (image down) and z (optical axis) axes in world frame.
    """
    cy, sy = math.cos(yaw), math.sin(yaw)
    cg, sg = math.cos(depression), math.sin(depression)
    x0, x1, x2 = sy, -cy, 0.0
    z0, z1, z2 = cg * cy, cg * sy, -sg
    rot = np.array([  # columns x, y = z cross x, z
        [x0, z1 * x2 - z2 * x1, z0],
        [x1, z2 * x0 - z0 * x2, z1],
        [x2, z0 * x1 - z1 * x0, z2],
    ])
    return PoseSE3(rot, position)


def bearing(from_xy, to_xy) -> float:
    """Horizontal bearing angle from one point to another."""
    return math.atan2(to_xy[1] - from_xy[1], to_xy[0] - from_xy[0])
