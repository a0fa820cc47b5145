"""Cylinder fit and stacked-circle scan planning for close-range mapping.

The converged cloud is wrapped in a vertical cylinder; orbit circles are
stacked so the vertical scan band (the cone between the steep and shallow
scanning rays) tiles the cylinder wall from bottom to top. A frustum-coverage
check over the planned waypoints stands in for the downstream dense mapper.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import CameraRig, bearing
from .localizer import ParticleSet, gaussian_summary
from .view_planner import ViewCircle, Waypoint

MIN_CYLINDER_RADIUS = 0.1


@dataclass(frozen=True)
class Cylinder:
    axis_xy: np.ndarray
    z_bottom: float
    z_top: float
    radius: float

    @property
    def height(self) -> float:
        return self.z_top - self.z_bottom


@dataclass(frozen=True)
class ScanPlan:
    circles: list  # ViewCircles on the cylinder axis, center z = orbit altitude
    waypoints: list  # one waypoint list per circle
    gamma_low: float  # steep ray, covers the bottom edge of each band
    gamma_high: float  # shallow ray, covers the top edge

    def all_waypoints(self):
        return [wp for circle_wps in self.waypoints for wp in circle_wps]


def fit_cylinder(ps: ParticleSet) -> Cylinder:
    """Smallest vertical cylinder containing the cloud, axis through the mean.

    The radius is the largest sqrt(dx*dx + dy*dy), np.linalg.norm's arithmetic
    on each row's offset (dx, dy), worked one offset column at a time; sqrt is
    correctly rounded and never decreasing, so the root of the largest sum is
    the largest root. The radius is floored at MIN_CYLINDER_RADIUS, so a cloud
    that resampling without re-injected noise collapsed to one point gets a
    floor-radius cylinder of zero height."""
    pts = ps.points
    axis = gaussian_summary(ps).mean[:2]  # the cached mean of the cloud
    squares = pts[:, 0] - axis[0]
    squares *= squares
    dy = pts[:, 1] - axis[1]
    squares += dy * dy
    radius = math.sqrt(squares.max())
    z_bottom, z_top = float(pts[:, 2].min()), float(pts[:, 2].max())
    return Cylinder(
        axis_xy=axis,
        z_bottom=z_bottom,
        z_top=z_top,
        radius=max(radius, MIN_CYLINDER_RADIUS),
    )


def scan_circles(cyl: Cylinder, cam: CameraRig, standoff: float, n_per_circle: int) -> ScanPlan:
    """Stack orbit circles so the scan bands tile the cylinder wall.

    Band geometry is evaluated at the near surface (horizontal distance =
    standoff), which is conservative. The first circle's band bottom sits
    exactly at the cylinder bottom; circles step up by the band height until
    the top is reached. cam and standoff are validated scenario values:
    standoff > 0, and gamma > beta/2, so the shallow ray points downward.
    """
    gamma_low, gamma_high = cam.gamma + cam.beta / 2.0, cam.gamma - cam.beta / 2.0
    tan_steep, tan_shallow = math.tan(gamma_low), math.tan(gamma_high)
    band_height = standoff * (tan_steep - tan_shallow)
    height = cyl.height
    n_circles = max(1, math.ceil(height / band_height - 1e-9))

    orbit_radius = cyl.radius + standoff
    first_altitude = cyl.z_bottom + standoff * tan_steep
    circles = []
    waypoint_lists = []
    for k in range(n_circles):
        altitude = first_altitude + k * band_height
        circle = ViewCircle(
            center=np.array([cyl.axis_xy[0], cyl.axis_xy[1], altitude]),
            radius=orbit_radius,
        )
        circles.append(circle)
        waypoint_lists.append(circle_waypoints(circle, n_per_circle, cyl.axis_xy))
    return ScanPlan(circles=circles, waypoints=waypoint_lists,
                    gamma_low=gamma_low, gamma_high=gamma_high)


def circle_waypoints(circle: ViewCircle, n_per_circle: int, axis_xy: np.ndarray) -> list:
    """Equally spaced orbit waypoints, yaw locked on the cylinder axis.

    All circles start at azimuth zero so consecutive circles join at a matching
    azimuth with a straight vertical transit.
    """
    wps = []
    for i in range(n_per_circle):
        pos = circle.point_at(2.0 * math.pi * i / n_per_circle)
        wps.append(Waypoint(pos, bearing(pos[:2], axis_xy)))
    return wps


def coverage_samples(
    plan: ScanPlan, cam: CameraRig, cyl: Cylinder, n_surface_samples: int
):
    """Uniform wall samples plus a per-sample covered mask for the plan.

    A wall sample counts as covered when some waypoint sees it inside the
    vertical scan band and the horizontal field of view, with the cylinder not
    occluding it (outward wall normal facing the waypoint). Each waypoint tests
    only the samples still uncovered that face it: covered is an OR over the
    waypoints, and each sample's test is its own elementwise arithmetic.
    """
    height = max(cyl.height, 1e-6)
    circumference = 2.0 * math.pi * cyl.radius
    n_az = int(np.clip(round(math.sqrt(n_surface_samples * circumference / height)),
                       8, n_surface_samples))
    n_z = max(1, round(n_surface_samples / n_az))
    az = 2.0 * math.pi * (np.arange(n_az) + 0.5) / n_az
    zs = cyl.z_bottom + height * (np.arange(n_z) + 0.5) / n_z
    az_grid, z_grid = np.meshgrid(az, zs, indexing="ij")
    sx = cyl.axis_xy[0] + cyl.radius * np.cos(az_grid).ravel()
    sy = cyl.axis_xy[1] + cyl.radius * np.sin(az_grid).ravel()
    sz = z_grid.ravel()
    samples = np.column_stack([sx, sy, sz])

    covered = np.zeros(sx.shape, dtype=bool)
    half_hfov = cam.hfov / 2.0
    normal_x, normal_y = sx - cyl.axis_xy[0], sy - cyl.axis_xy[1]  # outward
    for wp in plan.all_waypoints():
        qx, qy, qz = wp.position
        facing = normal_x * (qx - sx) + normal_y * (qy - sy) > 0
        open_ = np.flatnonzero(facing & ~covered)
        dx, dy = sx[open_] - qx, sy[open_] - qy
        dist_h = np.hypot(dx, dy)
        depression = np.arctan2(qz - sz[open_], dist_h)
        in_band = (depression >= plan.gamma_high) & (depression <= plan.gamma_low)
        rel_bearing = np.arctan2(dy, dx) - wp.yaw
        rel_bearing = (rel_bearing + math.pi) % (2.0 * math.pi) - math.pi
        in_fov = np.abs(rel_bearing) <= half_hfov
        covered[open_[in_band & in_fov]] = True
        if covered.all():
            break
    return samples, covered


def mapping_path(plan: ScanPlan, start_position: np.ndarray) -> list:
    """Flyable waypoint sequence: descend onto the first circle, orbit, step up.

    Each circle is closed back to its entry azimuth; circles are joined by a
    vertical transit at the shared azimuth. The approach inserts a waypoint
    above the first orbit point at the start altitude.
    """
    first = plan.waypoints[0][0]
    path = []
    if start_position[2] > first.position[2]:
        above = np.array([first.position[0], first.position[1], start_position[2]])
        path.append(Waypoint(above, first.yaw))
    for wps in plan.waypoints:
        path.extend(wps)
        path.append(wps[0])  # close the orbit before transiting upward
    return path
