"""Kalman bounding-box tracking fusing similarity-transform prediction with detections.

The filter state is the four box coordinates; prediction happens in stacked
2D-homogeneous coordinates so a single image similarity moves both corners,
while updates happen in Euclidean coordinates where the covariance is
invertible.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geometry import BBox, to_euclidean

ACTIVE = "active"
DEREGISTERED = "deregistered"

_EYE4 = np.eye(4)
_EYE4.flags.writeable = False


class SimilarityEstimationError(ValueError):
    """Too few or degenerate correspondences for a similarity fit."""


@dataclass(frozen=True)
class TrackerConfig:
    predict_noise_px: float = 2.0
    measure_noise_px: float = 4.0
    iou_register_threshold: float = 0.3
    entropy_dereg_threshold: float = 19.0

    @cached_property
    def measure_cov(self) -> np.ndarray:
        """Covariance of one detection, isotropic in the four box coordinates,
        and so of a track registered from one; read-only."""
        cov = self.measure_noise_px**2 * np.eye(4)
        cov.flags.writeable = False
        return cov


@dataclass(frozen=True)
class BoxTrack:
    id: int
    u: BBox
    sigma: np.ndarray
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
    """Propagate state and covariance through the frame's image similarity M,
    the (3, 3) matrix of estimate_similarity, or the identity when sim is None.

    The state moves in stacked homogeneous coordinates, the lifted box
    (u_min, v_min, 1, u_max, v_max, 1) times blockdiag(M, M), as one 6-vector
    product; a 3x3 product per corner gives other bits in a mission.

    The covariance is propagated by congruence plus the process noise, which
    keeps it symmetric PSD. Lifting sigma to 6x6, moving it by
    blockdiag(M, M) and dropping the homogeneous rows again adds only exact
    zeros to the 4x4 congruence A sigma A^T, A = blockdiag(M[:2, :2],
    M[:2, :2]), so the 4x4 form gives the same bits without the 6x6, lift and
    drop products. noise_scale inflates the process noise of the fallback, None.

    For None every product in those congruences is by 1 or 0, so the box
    stays put and the covariance is exactly sigma plus the process noise;
    that case skips the products.
    """
    e2 = cfg.predict_noise_px**2 * noise_scale
    if sim is None:
        sigma_pred = track.sigma + e2 * _EYE4
        return _derive(track, sigma=0.5 * (sigma_pred + sigma_pred.T))
    motion = np.zeros((6, 6))
    motion[:3, :3] = motion[3:, 3:] = sim
    b = track.u
    x_pred = motion @ np.array([b.u_min, b.v_min, 1.0, b.u_max, b.v_max, 1.0])
    a = np.zeros((4, 4))
    a[:2, :2] = a[2:, 2:] = sim[:2, :2]
    sigma_pred = a @ track.sigma @ a.T + e2 * _EYE4
    return _derive(track, u=to_euclidean(x_pred), sigma=0.5 * (sigma_pred + sigma_pred.T))


def update(track: BoxTrack, z: BBox, cfg: TrackerConfig) -> BoxTrack:
    """Kalman measurement update with an identity observation model; the
    fused detection counts as one more hit."""
    u = track.u.as_array()
    gain = track.sigma @ np.linalg.inv(track.sigma + cfg.measure_cov)
    u_new = u + gain @ (z.as_array() - u)
    sigma_new = (_EYE4 - gain) @ track.sigma
    sigma_new = 0.5 * (sigma_new + sigma_new.T)
    return _derive(track, u=BBox(*u_new.tolist()), sigma=sigma_new, hits=track.hits + 1)


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
                sigma=cfg.measure_cov.copy(),
                spawn_frame=frame,
                hits=1,
            )
        )
    return assignments, new_tracks


# Entropy of a 4D Gaussian minus half its log-determinant.
_ENTROPY_OFFSET = 2.0 + 2.0 * math.log(2.0 * math.pi)
# Below the entropy gate by more than this, Hadamard's bound settles the gate.
_GATE_MARGIN = 1e-9


def bbox_entropy(sigma: np.ndarray) -> float:
    """Differential entropy of the 4D box-state Gaussian, in nats.

    sigma is a symmetric 4x4 covariance, as the tracker keeps every track's:
    measure_cov at registration, then each Kalman step's symmetrized output.
    Singular covariances return -inf as the distinguished minimal value.
    """
    sign, logdet = np.linalg.slogdet(sigma)
    if sign <= 0 or not np.isfinite(logdet):
        return -math.inf
    return _ENTROPY_OFFSET + 0.5 * logdet


def _entropy_bound_reaches(sig: np.ndarray, threshold: float) -> bool:
    """False when Hadamard's bound puts the entropy of sig more than
    _GATE_MARGIN below threshold; True when it cannot tell (or sig is not
    finite)."""
    log_bound = 0.0  # log of the product of the row norms
    for row in sig.tolist():
        norm = math.hypot(*row)
        if norm == 0.0:
            return False  # a zero row: det is 0, the entropy -inf
        log_bound += math.log(norm)
    return not _ENTROPY_OFFSET + 0.5 * log_bound < threshold - _GATE_MARGIN


def prune(tracks, image_size, cfg: TrackerConfig, frame: int = None):
    """Deregister tracks fully outside the image or grown past the entropy gate.

    tracks are live, every one active, as TrackerState.step passes them. The
    gate compares the entropy, a constant plus half of log|det sigma|, with
    cfg.entropy_dereg_threshold. Hadamard's inequality,
    |det S| <= prod_i ||row_i(S)||_2, holds for any real matrix, so the row
    norms bound the entropy from above at the cost of four 4-term norms. A
    track whose bound lies more than 1e-9 below the threshold keeps its
    status without the log-determinant. The margin stands far above the
    rounding of slogdet and of the bound, which on the tracker's covariances
    is below 1e-14 nats at entropies near 20, so the gate deregisters exactly
    the tracks that the log-determinant alone would.
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
        elif (_entropy_bound_reaches(t.sigma, threshold)
              and bbox_entropy(t.sigma) > threshold):
            out.append(_derive(t, status=DEREGISTERED, dereg_reason="entropy",
                               dereg_frame=frame))
        else:
            out.append(t)
    return out


def estimate_similarity(prev_points, curr_points) -> np.ndarray:
    """Least-squares similarity between point sets, as the (3, 3) matrix
    [[s cos, -s sin, tx], [s sin, s cos, ty], [0, 0, 1]] that predict takes.

    The means are np.mean's own arithmetic, np.add.reduce over the rows
    divided by the count, without its Python wrapper. Fewer than 2 pairs
    raise before any mean is taken (simulate_klt gives 4 or more). A NaN or
    infinity makes a mean non-finite, and raises.
    """
    p = np.asarray(prev_points, dtype=float)
    q = np.asarray(curr_points, dtype=float)
    if p.ndim != 2 or p.shape != q.shape or p.shape[1] != 2:
        raise SimilarityEstimationError("correspondence lists must be equal (n, 2)")
    n = len(p)
    if n < 2:
        raise SimilarityEstimationError(f"need at least 2 correspondences, got {n}")
    p_mean, q_mean = np.add.reduce(p, axis=0) / n, np.add.reduce(q, axis=0) / n
    if not all(map(math.isfinite, p_mean.tolist() + q_mean.tolist())):
        raise SimilarityEstimationError("correspondences must be finite")
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
