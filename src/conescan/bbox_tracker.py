"""Kalman bounding-box tracking fusing similarity-transform prediction with detections.

The filter state is the four box coordinates. Prediction moves both corners
by one image similarity in stacked 2D-homogeneous coordinates; the update
fuses a detection with an identity observation model. The covariance starts
at measure_noise_px^2 I, a similarity's linear part sR maps v I to s^2 v I,
and both noises are isotropic, so the covariance stays var * I and a track
carries only the variance var.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import BBox, to_euclidean

ACTIVE = "active"
DEREGISTERED = "deregistered"


class SimilarityEstimationError(ValueError):
    """Degenerate correspondences for a similarity fit."""


@dataclass(frozen=True)
class TrackerConfig:
    predict_noise_px: float = 2.0
    measure_noise_px: float = 4.0
    iou_register_threshold: float = 0.3
    entropy_dereg_threshold: float = 19.0


@dataclass(frozen=True)
class BoxTrack:
    id: int
    u: BBox
    var: float  # the box covariance is var * I
    status: str = ACTIVE
    spawn_frame: int = 0
    hits: int = 0  # detections fused: the registering one, then one per update
    dereg_reason: str = ""
    dereg_frame: int = None


def _derive(track: BoxTrack, **changes) -> BoxTrack:
    """A copy of track with some fields changed: dataclasses.replace without
    its per-call field walk and __init__, as BoxTrack has no checks to rerun."""
    new = object.__new__(BoxTrack)
    new.__dict__.update(track.__dict__, **changes)
    return new


def predict(
    track: BoxTrack,
    sim: np.ndarray | None,
    cfg: TrackerConfig,
    noise_scale: float = 1.0,
) -> BoxTrack:
    """Propagate state and variance through the frame's image similarity M,
    the (3, 3) matrix of estimate_similarity, or the identity when sim is None.

    The state moves in stacked homogeneous coordinates, the lifted box
    (u_min, v_min, 1, u_max, v_max, 1) times blockdiag(M, M), as one 6-vector
    product; a 3x3 product per corner gives other bits in a mission. The
    variance scales by s^2, the squared norm of M's first column, and gains
    the process noise, which noise_scale inflates for the fallback, None, where
    the box stays put.
    """
    e2 = cfg.predict_noise_px**2 * noise_scale
    if sim is None:
        return _derive(track, var=track.var + e2)
    motion = np.zeros((6, 6))
    motion[:3, :3] = motion[3:, 3:] = sim
    b = track.u
    x_pred = motion @ np.array([b.u_min, b.v_min, 1.0, b.u_max, b.v_max, 1.0])
    s2 = sim[0, 0] ** 2 + sim[1, 0] ** 2
    return _derive(track, u=to_euclidean(x_pred), var=float(s2 * track.var + e2))


def update(track: BoxTrack, z: BBox, cfg: TrackerConfig) -> BoxTrack:
    """Kalman measurement update with an identity observation model and gain
    k = var / (var + r^2); the posterior variance (1 - k) var is written as
    k r^2, which keeps every digit where 1 - k would cancel. The fused
    detection counts as one more hit."""
    r2 = cfg.measure_noise_px**2
    k = track.var / (track.var + r2)
    u = track.u.as_array()
    u_new = u + k * (z.as_array() - u)
    return _derive(track, u=BBox(*u_new.tolist()), var=k * r2, hits=track.hits + 1)


def iou(a: BBox, b: BBox) -> float:
    """Intersection-over-union of two boxes."""
    iw = min(a.u_max, b.u_max) - max(a.u_min, b.u_min)
    ih = min(a.v_max, b.v_max) - max(a.v_min, b.v_min)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    # BBox.area of each box, in its order of operations
    return inter / ((a.u_max - a.u_min) * (a.v_max - a.v_min)
                    + (b.u_max - b.u_min) * (b.v_max - b.v_min) - inter)


def associate_and_register(
    tracks,
    detections,
    cfg: TrackerConfig,
    frame: int = 0,
    next_id: int = 0,
):
    """Greedy IoU association plus registration of unmatched detections.

    tracks is the live bank, every track active, as TrackerState.step passes
    it. Returns (assignments, new_tracks) where assignments maps track id to
    detection index. A detection overlapping some track above the
    registration threshold but losing the greedy competition is dropped for
    this frame. Registration is sequential, so a detection is also checked
    against tracks registered earlier in the same frame. Each track-detection
    IoU is computed once (``iou`` is symmetric bit for bit).
    """
    pairs = []
    for t in tracks:
        for j, det in enumerate(detections):
            score = iou(t.u, det)
            if score >= cfg.iou_register_threshold:
                pairs.append((score, t.id, j))
    pairs.sort(key=lambda p: (-p[0], p[1], p[2]))

    assignments = {}
    taken_dets = set()
    for score, tid, j in pairs:
        if tid in assignments or j in taken_dets:
            continue
        assignments[tid] = j
        taken_dets.add(j)

    paired = {j for _, _, j in pairs}  # matched, or lost the competition
    new_tracks = []
    for j, det in enumerate(detections):
        if j in paired:
            continue
        if any(iou(det, t.u) >= cfg.iou_register_threshold for t in new_tracks):
            continue
        new_tracks.append(
            BoxTrack(
                id=next_id + len(new_tracks),
                u=det,
                var=cfg.measure_noise_px**2,
                spawn_frame=frame,
                hits=1,
            )
        )
    return assignments, new_tracks


# Entropy of a 4D Gaussian minus half its log-determinant.
_ENTROPY_OFFSET = 2.0 + 2.0 * math.log(2.0 * math.pi)


def bbox_entropy(var: float) -> float:
    """Differential entropy of the 4D box-state Gaussian var * I, in nats:
    the offset plus half of log det(var I) = 4 log var. A variance of 0 or
    less returns -inf as the distinguished minimal value."""
    if var <= 0.0:
        return -math.inf
    return _ENTROPY_OFFSET + 2.0 * math.log(var)


def prune(tracks, image_size, cfg: TrackerConfig, frame: int = None):
    """Deregister tracks fully outside the image or whose entropy exceeds
    cfg.entropy_dereg_threshold.

    tracks are live, every one active, as TrackerState.step passes them.
    """
    width, height = image_size
    threshold = cfg.entropy_dereg_threshold
    out = []
    for t in tracks:
        b = t.u
        outside = b.u_max <= 0 or b.v_max <= 0 or b.u_min >= width or b.v_min >= height
        if outside:
            out.append(_derive(t, status=DEREGISTERED, dereg_reason="bounds",
                               dereg_frame=frame))
        elif bbox_entropy(t.var) > threshold:
            out.append(_derive(t, status=DEREGISTERED, dereg_reason="entropy",
                               dereg_frame=frame))
        else:
            out.append(t)
    return out


def estimate_similarity(prev_points, curr_points) -> np.ndarray:
    """Least-squares similarity between point sets, as the (3, 3) matrix
    [[s cos, -s sin, tx], [s sin, s cos, ty], [0, 0, 1]] that predict takes.

    The points are two equal (n, 2) arrays of finite pixels with n >= 4, as
    simulate_klt returns them. The means are np.mean's own arithmetic,
    np.add.reduce over the rows divided by the count, without its Python
    wrapper. Coincident previous points and a zero-scale fit raise.
    """
    p = np.asarray(prev_points, dtype=float)
    q = np.asarray(curr_points, dtype=float)
    n = len(p)
    p_mean, q_mean = np.add.reduce(p, axis=0) / n, np.add.reduce(q, axis=0) / n
    pc, qc = p - p_mean, q - q_mean
    spread = float((pc * pc).sum())
    if spread < 1e-12:
        raise SimilarityEstimationError("previous points are coincident")
    dot = float((pc * qc).sum())
    cross = float((pc[:, 0] * qc[:, 1] - pc[:, 1] * qc[:, 0]).sum())
    scale = math.hypot(dot, cross) / spread
    if scale < 1e-12:
        raise SimilarityEstimationError("degenerate fit with zero scale")
    theta = math.atan2(cross, dot)
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    t = q_mean - scale * rot @ p_mean
    return np.array([[scale * c, -scale * s, t[0]], [scale * s, scale * c, t[1]],
                     [0, 0, 1.0]])


@dataclass
class TrackerState:
    """Per-run track bank; `step` runs one predict/associate/update/prune frame.

    Live tracks and retired (deregistered) ones are kept apart, so a frame
    costs the live tracks only. `live` stays in id order; `retired` is in
    order of deregistration.
    """

    cfg: TrackerConfig
    image_size: tuple
    live: list = field(default_factory=list)
    retired: list = field(default_factory=list)
    next_id: int = 0

    @property
    def tracks(self) -> list:
        """Every track ever made, retired and live, in id order."""
        return sorted(self.retired + self.live, key=lambda t: t.id)

    def step(self, detections, similarity_by_track, frame: int):
        """Returns the ids of tracks that received a detector update this frame."""
        FALLBACK_NOISE_SCALE = 4.0
        predicted = []
        for t in self.live:
            sim = similarity_by_track.get(t.id)
            if sim is not None:
                try:
                    predicted.append(predict(t, sim, self.cfg))
                    continue
                except ValueError:
                    pass  # motion too violent for the box model; discard it
            predicted.append(predict(t, None, self.cfg, noise_scale=FALLBACK_NOISE_SCALE))

        assignments, new_tracks = associate_and_register(
            predicted, detections, self.cfg, frame=frame, next_id=self.next_id
        )
        self.next_id += len(new_tracks)
        updated = []
        for t in predicted:
            if t.id in assignments:
                updated.append(update(t, detections[assignments[t.id]], self.cfg))
            else:
                updated.append(t)
        self.live = []
        for t in prune(updated + new_tracks, self.image_size, self.cfg, frame=frame):
            (self.live if t.status == ACTIVE else self.retired).append(t)
        return set(assignments)

    def active(self):
        return list(self.live)
