"""Deterministic synthetic world: UAV kinematics, noisy detector, feature tracker.

Everything the estimation stack would get from real hardware is generated
here from ground truth plus explicit, seeded noise. Targets are axis-aligned
boxes carrying surface feature points so the detector sees an exact projected
bounding box and the feature tracker sees real correspondences. Each frame
projects all ground truth once (`TruthPoints`) and computes, once, which of
those rows are visible (in front of the camera and inside the image) and each
target's true box; the detector reads the frame's projection, and the
feature tracker this frame's and the last one's, visibility masks included.
"""

import hashlib
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import BBox, CameraRig, PoseSE3, vector_norm, wrap_angle

def substream(seed: int, *key) -> np.random.Generator:
    """Named, order-independent RNG substream of one scenario seed."""
    parts = [int(seed)]  # config.validate keeps a scenario seed in [0, 2**32)
    for item in key:
        if isinstance(item, str):
            digest = hashlib.sha256(item.encode()).digest()
            parts.append(int.from_bytes(digest[:8], "little"))
        else:
            parts.append(int(item) & 0xFFFFFFFFFFFFFFFF)
    return np.random.default_rng(np.random.SeedSequence(parts))


_CORNER_SIGNS = np.array(
    [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
    dtype=float,
)


@dataclass(frozen=True)
class TargetTruth:
    id: int
    center: np.ndarray
    features: np.ndarray  # (k, 3) surface points
    corners: np.ndarray  # (8, 3) box corners, read-only


def corner_boxes(pix: np.ndarray, depth: np.ndarray, corner_rows: np.ndarray,
                 cam: CameraRig) -> list:
    """Each target's true `BBox` over its projected corners, or None when a
    corner lies behind the camera, the box misses the image or it has no
    area. Row t of the (targets, 8) index array `corner_rows` holds target
    t's corner rows of the frame's projection; one gather serves every target."""
    corners = pix.take(corner_rows, axis=0)
    lows = np.minimum.reduce(corners, axis=1).tolist()
    highs = np.maximum.reduce(corners, axis=1).tolist()
    behind = np.logical_or.reduce(depth.take(corner_rows) <= 0, axis=1).tolist()
    boxes = []
    for (u0, v0), (u1, v1), back in zip(lows, highs, behind):
        seen = not back and u1 > 0 and v1 > 0 and u0 < cam.width and v0 < cam.height
        boxes.append(BBox(u0, v0, u1, v1) if seen and u0 < u1 and v0 < v1 else None)
    return boxes


class TargetProjection(NamedTuple):
    """One target's ground truth projected at one pose, rows in `TruthPoints`
    order: center, 8 corners, features. Rows behind the camera carry
    meaningless pixels. `box` is the target's true box, or None, from the
    frame's one `corner_boxes` call; the detector and the KLT matcher both
    read it.
    `visible` marks the rows in front of the camera and inside the image; it
    is a slice of the frame's one mask over all truth rows, so the detector
    reads the center's entry, and the KLT matcher the features' entries of
    this frame and the last, without recomputing them."""

    pix: np.ndarray  # (9 + k, 2)
    box: BBox  # or None, see corner_boxes
    visible: np.ndarray  # (9 + k,) bool

    @property
    def feature_pix(self) -> np.ndarray:
        return self.pix[9:]

    @property
    def feature_visible(self) -> np.ndarray:
        return self.visible[9:]


class TruthPoints:
    """Every target's center, 8 corners and features stacked in one read-only
    (n, 3) array, so that a frame projects all ground truth in one call;
    `split` cuts that projection into one `TargetProjection` per target.
    Rows are transformed independently, so a target's slice carries the same
    bits as projecting its block alone."""

    def __init__(self, targets):
        blocks = [np.vstack([tg.center, tg.corners, tg.features]) for tg in targets]
        self.points = np.vstack(blocks) if blocks else np.empty((0, 3))
        self.points.flags.writeable = False
        ends = np.cumsum([len(b) for b in blocks], dtype=int).tolist()
        self._bounds = list(zip([0] + ends[:-1], ends))
        self._corner_rows = np.array([range(a + 1, a + 9) for a, _ in self._bounds],
                                     dtype=np.intp).reshape(-1, 8)

    def split(self, pix: np.ndarray, depth: np.ndarray, cam: CameraRig) -> list:
        """One `TargetProjection` per target of the frame's projection, with
        the visibility mask of every row and every corner box made once."""
        inside = pix >= 0  # 0 <= u < width and 0 <= v < height
        inside &= pix < (cam.width, cam.height)
        visible = np.logical_and.reduce(inside, axis=1)
        visible &= depth > 0
        boxes = corner_boxes(pix, depth, self._corner_rows, cam)
        return [TargetProjection(pix[a:b], box, visible[a:b])
                for (a, b), box in zip(self._bounds, boxes)]


def make_target(
    target_id: int, center, half_extents, n_features: int, rng: np.random.Generator
) -> TargetTruth:
    """Target box with feature points scattered over its surface."""
    center = np.asarray(center, dtype=float)
    half = np.asarray(half_extents, dtype=float)
    areas = np.array([half[1] * half[2], half[0] * half[2], half[0] * half[1]])
    probs = np.repeat(areas / areas.sum() / 2.0, 2)
    faces = rng.choice(6, size=n_features, p=probs)
    pts = rng.uniform(-1.0, 1.0, size=(n_features, 3))
    for i, f in enumerate(faces):
        pts[i, f // 2] = 1.0 if f % 2 else -1.0
    corners = center + _CORNER_SIGNS * half
    corners.flags.writeable = False
    return TargetTruth(target_id, center, center + pts * half, corners)


@dataclass
class NoiseModel:
    pose_sigma_xyz: float = 0.2
    yaw_sigma: float = 0.01
    detector_pixel_sigma: float = 2.0
    detect_prob: float = 0.95
    false_positive_rate: float = 0.05  # expected spurious boxes per frame
    detection_latency_frames: int = 0  # frames between capture and delivery
    klt_pixel_sigma: float = 1.0


class DetectionDelay:
    """FIFO that delivers each frame's detections a fixed number of frames late.

    Zero latency passes frames straight through. Late frames come out in
    capture order; the first `latency` frames deliver empty lists.
    """

    def __init__(self, latency_frames: int):
        self.latency = int(latency_frames)
        self._queue = []

    def push(self, detections):
        self._queue.append(list(detections))
        if len(self._queue) > self.latency:
            return self._queue.pop(0)
        return []


# A waypoint where the path turns by less than this is passed at speed: a fine
# arc turns 15 degrees per waypoint and an orbit 10, a survey corner 90.
PASS_THROUGH_TURN = math.radians(30.0)


class _Leg:
    """Analytic trapezoidal move between two poses, yaw slewed at bounded rate.

    `profile` sets the speeds: the move starts at v0 and ends at v1, each
    capped at v_max, and v1 is lowered to what accelerating over the whole
    leg reaches, so the next leg can start at this leg's v1.
    """

    def __init__(self, p0, yaw0, p1, yaw1, yaw_rate, counts_waypoint):
        self.p0 = p0
        self.p1 = p1
        self.yaw0 = yaw0
        self.dyaw = wrap_angle(yaw1 - yaw0)
        self.length = vector_norm(self.p1 - self.p0)
        self.direction = (
            (self.p1 - self.p0) / self.length if self.length > 0 else np.zeros(3)
        )
        self.t_yaw = abs(self.dyaw) / yaw_rate
        self.yaw_rate = yaw_rate
        self.counts_waypoint = counts_waypoint  # reaching its end reaches a waypoint

    def profile(self, v0, v1, v_max, a_max):
        """Time the move from speed v0 to speed v1; returns the leg."""
        self.a = a_max
        self.v0 = min(v0, v_max)
        if self.length > 0:
            self.v1 = min(v1, v_max, math.sqrt(self.v0**2 + 2.0 * self.a * self.length))
            # accelerate from v0, cruise at v_peak, decelerate to v1
            v_peak = min(v_max, math.sqrt(self.a * self.length
                                          + 0.5 * (self.v0**2 + self.v1**2)))
            v_peak = max(v_peak, self.v0, self.v1)
            self.t_acc = (v_peak - self.v0) / self.a
            d_acc = self.v0 * self.t_acc + 0.5 * self.a * self.t_acc**2
            self.t_dec = (v_peak - self.v1) / self.a
            d_dec = self.v1 * self.t_dec + 0.5 * self.a * self.t_dec**2
            d_cruise = max(0.0, self.length - d_acc - d_dec)
            self.t_cruise = d_cruise / v_peak
            self.v_peak = v_peak
            self.t_move = self.t_acc + self.t_cruise + self.t_dec
        else:
            self.v1 = self.v_peak = 0.0
            self.t_acc = self.t_cruise = self.t_dec = self.t_move = 0.0
        self.duration = max(self.t_move, self.t_yaw)
        return self

    def sample(self, t: float):
        """Position, yaw and speed at leg time t (clamped to the duration)."""
        t = min(max(t, 0.0), self.duration)
        tm = min(t, self.t_move)
        if tm < self.t_acc:
            dist = self.v0 * tm + 0.5 * self.a * tm**2
            speed = self.v0 + self.a * tm
        elif tm < self.t_acc + self.t_cruise:
            dt = tm - self.t_acc
            dist = self.v0 * self.t_acc + 0.5 * self.a * self.t_acc**2 + self.v_peak * dt
            speed = self.v_peak
        else:
            remaining = self.t_move - tm
            dist = self.length - (self.v1 * remaining + 0.5 * self.a * remaining**2)
            speed = self.v1 + self.a * remaining
        if tm >= self.t_move:
            dist, speed = self.length, self.v1
        ty = min(t, self.t_yaw)
        yaw = self.yaw0 + math.copysign(self.yaw_rate * ty, self.dyaw)
        if ty >= self.t_yaw:
            yaw = self.yaw0 + self.dyaw
        return self.p0 + dist * self.direction, wrap_angle(yaw), speed


class WaypointFollower:
    """Deterministic waypoint playback under velocity/acceleration limits.

    A waypoint where the path turns by less than `PASS_THROUGH_TURN` is passed
    at up to cruise speed, and the next leg starts at that speed. Corners, a
    path's last waypoint and both ends of a yaw-bound leg, one whose yaw slew
    outlasts its length flown at v_max, are reached at rest.
    """

    def __init__(self, position, yaw, v_max: float, a_max: float, yaw_rate: float):
        self.position = position
        self.yaw = wrap_angle(yaw)
        self.velocity = np.zeros(3)
        self.v_max = v_max
        self.a_max = a_max
        self.yaw_rate = yaw_rate
        self._legs = []
        self._leg_t = 0.0
        self._reached = 0  # waypoints of the current path fully reached

    @property
    def done(self) -> bool:
        return not self._legs

    @property
    def waypoints_reached(self) -> int:
        return self._reached

    @property
    def rest_position(self) -> np.ndarray:
        """Where braking along the legs being flown comes to rest, which is
        where a path set now starts."""
        return self._brake()[1].copy()

    def _brake(self):
        """The legs that brake from the current speed to rest along the legs
        being flown, at the current yaw, and the point where they stop; no
        legs at rest. No pass-through is faster than the legs after it can
        brake from, so the stop comes before their end."""
        speed = vector_norm(self.velocity)
        pos, brake = self.position, []
        for leg in self._legs:
            if speed <= 1e-9:
                break
            left = vector_norm(leg.p1 - pos)
            need = speed**2 / (2.0 * self.a_max)
            if need < left or leg.v1 == 0:
                end, v_end = pos + leg.direction * min(need, left), 0.0
            else:  # through the waypoint that ends this leg
                end, v_end = leg.p1, math.sqrt(speed**2 - 2.0 * self.a_max * left)
            part = _Leg(pos, self.yaw, end, self.yaw, self.yaw_rate,
                        counts_waypoint=False)
            if part.length > 0:
                brake.append(part.profile(speed, v_end, self.v_max, self.a_max))
            pos, speed = end, v_end
        return brake, pos

    def set_path(self, waypoints):
        """Replace the goal queue; a moving vehicle first brakes to rest along
        the legs it is flying, and the new path starts from rest there."""
        self._legs, pos = self._brake()
        self._leg_t = 0.0
        self._reached = 0
        yaw = self.yaw
        # zero-duration legs are never kept, so `done` flips promptly
        legs = []
        for wp in waypoints:
            leg = _Leg(pos, yaw, wp.position, wp.yaw, self.yaw_rate, counts_waypoint=True)
            if leg.length > 0 or leg.t_yaw > 0:
                legs.append(leg)
            else:
                self._reached += 1  # already there
            pos, yaw = wp.position, wp.yaw
        v0 = 0.0
        for leg, v1 in zip(legs, self._end_speeds(legs)):
            v0 = leg.profile(v0, v1, self.v_max, self.a_max).v1
        self._legs += legs

    def _end_speeds(self, legs) -> list:
        """Each leg's end speed: v_max where the path turns by less than
        PASS_THROUGH_TURN and neither leg meeting there is yaw-bound, else 0;
        then lowered, from the last leg back, to what the next leg can brake
        from over its length."""
        def yaw_bound(leg):
            return leg.t_yaw > leg.length / self.v_max

        cos_cutoff = math.cos(PASS_THROUGH_TURN)
        ends = [self.v_max if (float(leg.direction @ nxt.direction) > cos_cutoff
                               and not yaw_bound(leg) and not yaw_bound(nxt)) else 0.0
                for leg, nxt in zip(legs, legs[1:])] + [0.0]
        for k in range(len(legs) - 2, -1, -1):
            ends[k] = min(ends[k], math.sqrt(ends[k + 1]**2
                                             + 2.0 * self.a_max * legs[k + 1].length))
        return ends

    def step(self, dt: float):
        """Advance sim time by dt; returns (position, yaw, velocity), arrays
        the follower replaces but never writes into, so a caller may keep them."""
        remaining = dt
        while self._legs and remaining > 0:
            leg = self._legs[0]
            advance = min(remaining, leg.duration - self._leg_t)
            self._leg_t += advance
            remaining -= advance
            pos, yaw, speed = leg.sample(self._leg_t)
            self.position, self.yaw = pos, yaw
            self.velocity = speed * leg.direction
            if leg.duration - self._leg_t <= 1e-12:
                self._legs.pop(0)
                self._leg_t = 0.0
                if leg.counts_waypoint:
                    self._reached += 1
        return self.position, self.yaw, self.velocity


def _clamp(x, hi) -> float:
    """np.clip(x, 0, hi) as a float, bitwise, for any x but NaN."""
    return float(min(max(0.0, x), hi))


def simulate_detector(projections, cam: CameraRig, noise: NoiseModel,
                      rng: np.random.Generator):
    """Noisy detections: perturbed true boxes plus Poisson false positives.

    `projections` holds one `TargetProjection` per target, from the frame's
    single projection of `TruthPoints` at the true pose. A target is detectable
    when its center is visible (in front of the camera and inside the image)
    and it has a true box (see `corner_boxes`).
    """
    detections = []

    def add(u_min, v_min, u_max, v_max):
        """Clip a box to the image and keep it if any area is left."""
        u_min, u_max = _clamp(u_min, cam.width), _clamp(u_max, cam.width)
        v_min, v_max = _clamp(v_min, cam.height), _clamp(v_max, cam.height)
        if u_min < u_max and v_min < v_max:
            detections.append(BBox(u_min, v_min, u_max, v_max))

    for proj in projections:
        if not proj.visible[0]:
            continue
        if rng.uniform() >= noise.detect_prob:
            continue
        if proj.box is None:
            continue
        b, sigma = proj.box, noise.detector_pixel_sigma
        e0, e1, e2, e3 = rng.standard_normal(4).tolist()
        add(b.u_min + sigma * e0, b.v_min + sigma * e1,
            b.u_max + sigma * e2, b.v_max + sigma * e3)

    for _ in range(rng.poisson(noise.false_positive_rate)):
        cu = rng.uniform(0, cam.width)
        cv = rng.uniform(0, cam.height)
        w = rng.uniform(10, 60)
        h = rng.uniform(10, 60)
        add(cu - w / 2, cv - h / 2, cu + w / 2, cv + h / 2)
    return detections


def simulate_klt(prev: TargetProjection, curr: TargetProjection, noise: NoiseModel,
                 rng: np.random.Generator):
    """Noisy pixel correspondences of one target's surface features.

    `prev` and `curr` are the target's projections at the previous and the
    current frame's true pose; a runner keeps the previous frame's projection,
    and its visibility mask, rather than projecting again. Returns
    (prev_pixels, curr_pixels) for features visible at both poses, or None
    when fewer than 4 are covisible. Both noise draws come from one
    (2, n, 2) call, the same stream as two (n, 2) calls.
    """
    keep = prev.feature_visible & curr.feature_visible
    n = np.count_nonzero(keep)
    if n < 4:
        return None
    jitter = noise.klt_pixel_sigma * rng.standard_normal((2, n, 2))
    # compress copies the kept rows as feature_pix[keep] does, with less dispatch
    return (prev.feature_pix.compress(keep, axis=0) + jitter[0],
            curr.feature_pix.compress(keep, axis=0) + jitter[1])


def perturb_pose(pose: PoseSE3, noise: NoiseModel, rng: np.random.Generator) -> PoseSE3:
    """Noisy state-estimator stand-in: jitter translation and world yaw only,
    from one draw of 4 normals, the stream of a draw of 3 and then of 1."""
    e0, e1, e2, e3 = rng.standard_normal(4).tolist()
    x, y, z = pose.translation.tolist()
    sigma = noise.pose_sigma_xyz
    t = np.array([x + sigma * e0, y + sigma * e1, z + sigma * e2])
    dyaw = noise.yaw_sigma * e3
    c, s = math.cos(dyaw), math.sin(dyaw)
    rz = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return PoseSE3(rz @ pose.rotation, t)
