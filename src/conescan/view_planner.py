"""Search and fine-localization view planning.

The lawn-mower survey covers a rectangle with boustrophedon rows sized by the
camera's ground footprint; fine localization constrains the camera to a circle
around the cloud center and picks the circle point whose optical axis best
aligns with the cloud's smallest principal direction.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import CameraRig, bearing, wrap_angle


@dataclass(frozen=True)
class Waypoint:
    position: np.ndarray
    yaw: float

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=float).reshape(3)
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "yaw", wrap_angle(float(self.yaw)))


@dataclass(frozen=True)
class ViewCircle:
    center: np.ndarray  # (x, y, flight altitude)
    radius: float

    def __post_init__(self):
        object.__setattr__(
            self, "center", np.asarray(self.center, dtype=float).reshape(3)
        )

    def point_at(self, azimuth: float) -> np.ndarray:
        return self.center + self.radius * np.array(
            [math.cos(azimuth), math.sin(azimuth), 0.0]
        )

    def azimuth_of(self, position) -> float:
        rel = np.asarray(position, dtype=float)[:2] - self.center[:2]
        return math.atan2(rel[1], rel[0])


def ground_footprint_width(cam: CameraRig, altitude: float) -> float:
    """Cross-track extent of the image at the center-ray ground point."""
    slant = altitude / math.sin(cam.gamma)
    return cam.width * slant / cam.fx


def forward_view_offset(cam: CameraRig, altitude: float) -> float:
    """Along-heading distance from the camera to the viewed center ground point."""
    return altitude / math.tan(cam.gamma)


def lawnmower_path(region, altitude: float, cam: CameraRig, overlap: float):
    """Boustrophedon survey rows whose swept footprints cover the region.

    Rows are spaced by footprint width times (1 - overlap). Waypoints are
    shifted against the forward view offset so the viewed strip, not the
    vehicle track, spans the region. A region narrower than one footprint gets
    a single centered row.
    """
    x0, y0, x1, y1 = (float(v) for v in region)
    width = ground_footprint_width(cam, altitude)
    offset = forward_view_offset(cam, altitude)
    extent = y1 - y0
    if extent <= width:
        rows = [0.5 * (y0 + y1)]
    else:
        step = width * (1.0 - overlap)
        n = 1 + math.ceil((extent - width) / step - 1e-12)
        rows = [y0 + width / 2.0 + k * step for k in range(n)]

    waypoints = []
    for i, y in enumerate(rows):
        if i % 2 == 0:
            start, end, yaw = x0 - offset, x1 - offset, 0.0
        else:
            start, end, yaw = x1 + offset, x0 + offset, math.pi
        waypoints.append(Waypoint(np.array([start, y, altitude]), yaw))
        waypoints.append(Waypoint(np.array([end, y, altitude]), yaw))
    return waypoints


def fine_localization_circle(center, altitude: float, gamma: float) -> ViewCircle:
    """Circle at flight altitude from which the center is seen at depression
    gamma, the camera's, which config.validate keeps in (0, pi/2)."""
    c = np.asarray(center, dtype=float).reshape(3)
    if altitude <= c[2]:
        raise ValueError("flight altitude must be above the target center")
    radius = (altitude - c[2]) / math.tan(gamma)
    return ViewCircle(center=np.array([c[0], c[1], altitude]), radius=radius)


def next_best_view(
    circle: ViewCircle, v_min, current: Waypoint, cloud_center
) -> Waypoint:
    """Circle point whose camera axis best aligns with the smallest eigenvector.

    With a rising eigenvector the optimum sits at the azimuth of its horizontal
    projection. A purely horizontal eigenvector has its optimum at infinity, so
    the farthest circle point from the current position is used instead; a
    purely vertical one makes all azimuths equivalent and the current azimuth
    is kept. v_min has z >= 0, as PcaSummary.smallest_eigenvector is signed.
    """
    v = np.asarray(v_min, dtype=float).reshape(3)
    horiz = math.hypot(v[0], v[1])
    if horiz < 1e-9:
        azimuth = circle.azimuth_of(current.position)
    elif v[2] < 1e-12:
        rel = circle.center[:2] - current.position[:2]
        if np.linalg.norm(rel) < 1e-12:
            azimuth = circle.azimuth_of(current.position)
        else:
            azimuth = math.atan2(rel[1], rel[0])
    else:
        azimuth = math.atan2(v[1], v[0])
    pos = circle.point_at(azimuth)
    target = np.asarray(cloud_center, dtype=float)
    return Waypoint(pos, bearing(pos, target))


def arc_path(
    current: Waypoint,
    nbv: Waypoint,
    circle: ViewCircle,
    cloud_center,
    angular_step: float,
):
    """The fine arc from the current pose, and the angle it sweeps.

    Returns (path, swept_angle); path starts at current. On the circle and
    less than one angular_step from the view, the arc is a full lap of at
    least 4 waypoints for azimuth diversity, sweeping 2 pi. Otherwise it
    enters the circle radially and takes the shorter arc to the view. Every
    on-circle waypoint keeps its yaw on the cloud center. nbv must lie on the
    circle, as next_best_view places it.
    """
    target = np.asarray(cloud_center, dtype=float)
    rel = current.position[:2] - circle.center[:2]
    radial = np.linalg.norm(rel)
    if radial < 1e-12:
        entry_azimuth = circle.azimuth_of(nbv.position)
    else:
        entry_azimuth = math.atan2(rel[1], rel[0])
    sweep = wrap_angle(circle.azimuth_of(nbv.position) - entry_azimuth)

    if abs(radial - circle.radius) < 1e-6 and abs(sweep) < angular_step:
        n = max(4, int(round(2.0 * math.pi / angular_step)))
        azimuths = [entry_azimuth + 2.0 * math.pi * k / n for k in range(1, n + 1)]
        swept = 2.0 * math.pi
    else:
        n_interior = int(math.floor(abs(sweep) / angular_step - 1e-9))
        direction = math.copysign(1.0, sweep) if sweep != 0 else 1.0
        azimuths = ([entry_azimuth]
                    + [entry_azimuth + direction * k * angular_step
                       for k in range(1, n_interior + 1)]
                    + [entry_azimuth + sweep])
        swept = abs(sweep)

    path = [current]
    for az in azimuths:
        pos = circle.point_at(az)
        if np.linalg.norm(pos - path[-1].position) < 1e-9:
            continue
        path.append(Waypoint(pos, bearing(pos, target)))
    return path, swept
