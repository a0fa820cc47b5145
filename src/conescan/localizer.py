"""Particle-based target localization from tracked bounding boxes.

A target hypothesis is a fixed-size cloud of world points seeded inside the
cone back-projected from an enlarged box, then sharpened by perturb / project /
weight / resample rounds against boxes from other viewpoints. PCA and KL
divergence of the cloud drive mission transitions; its entropy is logged.
"""

import math
from concurrent.futures import Executor, Future
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .geometry import (
    BBox,
    CameraRig,
    PoseSE3,
    back_project_direction,
    blocked_matmul,
    cone_contains,
    project_points,
    vector_norm,
)

# Weight assigned in place of exact zeros so a bad box cannot silently
# collapse the cloud; an all-floor frame is skipped instead of resampled.
WEIGHT_FLOOR = 1e-12

# Cone-membership chunks: a cone that holds a fair share of a cloud holds one of
# its first few hundred points, and fourfold growth keeps the full scan of an
# unmatched cloud to a handful of numpy calls.
_FIRST_CHUNK = 256
_CHUNK_GROWTH = 4

# A cloud of this many points or more uses the worker thread its caller hands
# over: it draws its next perturbation there while the frame loop runs, and
# each update weighs the second half of its rows there while the caller weighs
# the first. A smaller cloud does both inline. Handing a draw to the worker and
# waiting for it costs about as much as an inline draw of 10,000 points on a
# 2-vCPU x86-64 host (16,384 points take about 0.7 ms inline); sending the
# 1,000-point draws of the stock two-target mission to the worker made it slower.
WORKER_MIN_POINTS = 16_384

STATUS_ROUGH = "rough"
STATUS_FINE_REQUESTED = "fine_requested"
STATUS_CONVERGED = "converged"
_STATUS_ORDER = {STATUS_ROUGH: 0, STATUS_FINE_REQUESTED: 1, STATUS_CONVERGED: 2}

# Entropy of a 3D Gaussian minus half its log-determinant.
_ENTROPY_OFFSET = 1.5 + 1.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class LocalizerConfig:
    n_particles: int = 1000
    enlarge_factor: float = 1.5
    # a 0.1 m re-injected noise std: at a 55 degree camera depression this
    # isotropic noise is the binding floor on the vertical eigenvalue, and
    # 0.2 m would keep the equilibrium above the fine-convergence gate
    update_noise_var: float = 0.01
    uniform_weight: float = 0.1
    lambda_rough: float = 4.0
    lambda_fine: float = 0.15
    # updates are taken mission.min_update_baseline (3 m) apart, so each one
    # genuinely moves a converged cloud; the per-update information gain settles
    # around 0.02-0.05 nats rather than the near-zero of frame-rate updates
    kl_converged: float = 0.06

    @property
    def gauss_weight(self) -> float:
        """Weight of the Gaussian term of the box likelihood, the rest of the
        uniform term's."""
        return 1.0 - self.uniform_weight


@dataclass(frozen=True)
class ParticleSet:
    points: np.ndarray  # (m, 3) float world points, kept as a read-only view

    def __post_init__(self):
        pts = self.points.view()  # no copy; read-only so the cached statistics stay valid
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @cached_property
    def _stats(self):
        return _cloud_statistics(self.points)


@dataclass(frozen=True)
class GaussianSummary:
    mean: np.ndarray
    cov: np.ndarray

    @cached_property
    def slogdet(self):
        """Sign and log-determinant of the covariance, computed on first use."""
        return np.linalg.slogdet(self.cov)


@dataclass(frozen=True)
class PcaSummary:
    eigenvalues: np.ndarray  # descending
    eigenvectors: np.ndarray  # columns match eigenvalues
    mean: np.ndarray

    @property
    def smallest_eigenvector(self) -> np.ndarray:
        return self.eigenvectors[:, 2]


def _cloud_statistics(points: np.ndarray):
    """A cloud's Gaussian and PCA, read-only, from one mean and one product of the
    centered points. The covariance follows np.cov(points.T, ddof=1)'s arithmetic
    bit for bit, without its second mean and its copy of the points. The
    smallest-variance axis is signed to world z >= 0 (ties on x, then y) for a
    stable direction.

    numpy sums the rows of a C-ordered (n, 3) array one after another from +0.0,
    three columns at a time; the running sum of np.cumsum adds them in the same
    order along each column, in any memory layout, so its last row plus 0.0
    (which turns only a -0.0 sum into numpy's +0.0), over n, is
    points.mean(axis=0) of the C-ordered cloud bit for bit. The running sum is
    written into the centering buffer, so it costs no array."""
    centered = np.empty_like(points)
    mean = np.cumsum(points, axis=0, out=centered)[-1] + 0.0
    mean /= len(points)
    for k in range(3):  # column by column: an (n, 3) - (3,) broadcast loops per row
        np.subtract(points[:, k], mean[k], out=centered[:, k])
    cov = np.dot(centered.T, centered)
    cov *= 1.0 / (len(points) - 1)
    evals, evecs = np.linalg.eigh(cov)
    evals, evecs = evals[::-1], evecs[:, ::-1]  # eigh returns them ascending
    v = evecs[:, 2]
    if v[2] < 0 or (v[2] == 0 and (v[0] < 0 or (v[0] == 0 and v[1] < 0))):
        evecs[:, 2] = -v
    for arr in (mean, cov, evals, evecs):
        arr.flags.writeable = False
    return GaussianSummary(mean, cov), PcaSummary(evals, evecs, mean)


def enlarge(box: BBox, factor: float) -> BBox:
    """Scale a box about its center; corners may leave the image."""
    cu, cv = box.center
    hw, hh = factor * box.width / 2.0, factor * box.height / 2.0
    return BBox(cu - hw, cv - hh, cu + hw, cv + hh)


def generate_particles(
    corners,
    cam_to_world: PoseSE3,
    cam: CameraRig,
    cfg: LocalizerConfig,
    rng: np.random.Generator,
    *,
    max_depth: float,
) -> ParticleSet:
    """Seed a cloud inside the cone spanned by four enlarged box corners.

    The corners span a proper cone: the caller has built its cone_normals
    from them, which rejects a degenerate set. Directions are convex
    combinations of the corner rays with strictly positive coefficients
    (columns normalized by their Manhattan norm), depths uniform in
    (0, max_depth], so every point strictly satisfies the cone membership
    inequalities of its own generating cone.
    """
    dirs = np.column_stack([back_project_direction(c, cam) for c in corners])  # 3x4
    m = cfg.n_particles
    coeffs = 1.0 - rng.uniform(size=(4, m))  # in (0, 1]
    coeffs /= coeffs.sum(axis=0)
    depths = max_depth * (1.0 - rng.uniform(size=m))  # in (0, max_depth]
    pts_cam = blocked_matmul(dirs, coeffs) * depths
    return ParticleSet(cam_to_world.apply(pts_cam.T))


def needs_new_particle_set(existing_sets, normals: np.ndarray, world_to_cam: PoseSE3):
    """Positions of the sets with a point inside the cone; empty means register fresh.

    Each set is tested in chunks of 256, 1,024, 4,096, ... points, in order, and
    its test stops at the first chunk holding a point strictly inside the cone,
    so a matched set usually costs a few hundred points; a set with no point
    inside is tested in full. Every point gets the same `apply` and
    `cone_contains` arithmetic, and so the same in/out decision, as in a
    whole-set test.
    """
    matched = []
    for i, ps in enumerate(existing_sets):
        start, size = 0, _FIRST_CHUNK
        while start < len(ps.points):
            pts_cam = world_to_cam.apply(ps.points[start:start + size])
            if cone_contains(normals, pts_cam).any():
                matched.append(i)
                break
            start, size = start + size, size * _CHUNK_GROWTH
    return matched


def weight_density(pixels: np.ndarray, box: BBox, cfg: LocalizerConfig, out=None):
    """Gaussian-plus-uniform box likelihood for projected pixels.

    The Gaussian sits at the box center with per-axis std of half the box
    extent; the uniform term is supported on the enlarged box. Values are
    floored at WEIGHT_FLOOR. Takes an (n, 2) array of pixels; the result is
    written into out, an (n,) array, or else into a fresh array the caller may
    write to.
    """
    cu, cv = box.center
    su, sv = box.width / 2.0, box.height / 2.0
    norm = 1.0 / (2.0 * math.pi * su * sv)
    quad = ((pixels[:, 0] - cu) / su) ** 2 + ((pixels[:, 1] - cv) / sv) ** 2
    f = np.exp(-0.5 * quad, out=out)
    f *= norm
    f *= cfg.gauss_weight

    support = enlarge(box, cfg.enlarge_factor)
    inside = (
        (pixels[:, 0] >= support.u_min)
        & (pixels[:, 0] <= support.u_max)
        & (pixels[:, 1] >= support.v_min)
        & (pixels[:, 1] <= support.v_max)
    )
    np.add(f, cfg.uniform_weight * (1.0 / support.area), out=f, where=inside)
    np.maximum(f, WEIGHT_FLOOR, out=f)
    return f


def systematic_resample(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Low-variance systematic resampling; returns chosen indices.

    Position j picks the number of cumulative weights at or below it, clipped
    to n - 1, exactly as np.searchsorted(cs, positions, side="right") would.
    The count is taken the other way round, in linear time: each cumulative
    weight counts the positions strictly below it, estimated from the position
    formula and corrected against the positions array itself, which never
    decreases.
    """
    w = weights / weights.sum()
    n = len(w)
    u = rng.uniform()
    padded = np.empty(n + 2)  # the positions between -inf and +inf
    padded[0], padded[-1] = -np.inf, np.inf
    positions = padded[1:-1]
    np.add(np.arange(n), u, out=positions)
    positions /= n
    cs = np.cumsum(w)
    est = cs * n
    est -= u
    np.ceil(est, out=est)
    np.maximum(est, 0, out=est)
    np.minimum(est, n, out=est)
    below = est.astype(np.intp)
    lower, upper = padded[:-1], padded[1:]  # position below - 1, position below
    while True:
        too_many = lower[below] >= cs
        too_few = upper[below] < cs
        if not (too_many.any() or too_few.any()):
            break
        below -= too_many
        below += too_few
    idx = np.bincount(below, minlength=n + 1)[:n]
    np.cumsum(idx, out=idx)
    np.minimum(idx, n - 1, out=idx)
    return idx


def perturb_points(points, rng: np.random.Generator, noise_var: float, out: np.ndarray):
    """points plus the stream's next standard normals scaled by sqrt(noise_var),
    written into out, an array of the points' shape."""
    rng.standard_normal(out=out)
    out *= math.sqrt(noise_var)
    out += points
    return out


@dataclass(frozen=True)
class UpdateResult:
    particles: ParticleSet
    starved: bool


def weigh_rows(rows: slice, perturbed, box: BBox, world_to_cam: PoseSE3,
               cam: CameraRig, cfg: LocalizerConfig, weights: np.ndarray):
    """The box likelihood of the points perturbed[rows], written into
    weights[rows]; a point projecting behind the camera gets the floor weight.

    Each row's weight depends on that row alone, in the same bits whatever
    rows the call covers: past the projection's products, which give a row the
    same bits in any block of two or more rows (geometry.row_blocks), every
    step is elementwise. So calls over a split of the rows into parts of two
    rows or more write what one call over all of them writes.
    """
    pix, depth = project_points(perturbed[rows], world_to_cam, cam)
    out = weight_density(pix, box, cfg, out=weights[rows])
    np.copyto(out, WEIGHT_FLOOR, where=~(depth > 0))


def update_particles(
    ps: ParticleSet,
    perturbed: np.ndarray,
    box: BBox,
    world_to_cam: PoseSE3,
    cam: CameraRig,
    cfg: LocalizerConfig,
    rng: np.random.Generator,
    worker: Optional[Executor] = None,
) -> UpdateResult:
    """One project / weight / resample round of ps, perturbed, against a tracked box.

    perturbed is ps's points perturbed by `perturb_points` with cfg.update_noise_var.
    Points projecting behind the camera get the floor weight. If every weight
    sits at the floor the box carries no information about this cloud: the
    update is skipped and the starved flag raised.

    With a worker, an executor, and a cloud of WORKER_MIN_POINTS rows or more,
    the worker weighs the second half of the rows while the caller weighs the
    first, with the same bits as weighing them all inline; the caller's thread
    does everything else.
    """
    n = len(perturbed)
    weights = np.empty(n)
    args = (perturbed, box, world_to_cam, cam, cfg, weights)
    if worker is None or n < WORKER_MIN_POINTS:
        weigh_rows(slice(0, n), *args)
    else:
        second = worker.submit(weigh_rows, slice(n // 2, n), *args)
        try:
            weigh_rows(slice(0, n // 2), *args)
        finally:
            second.result()  # the worker is done with weights before they are read
    if np.all(weights <= WEIGHT_FLOOR):
        return UpdateResult(ps, starved=True)
    idx = systematic_resample(weights, rng)
    return UpdateResult(ParticleSet(np.take(perturbed, idx, axis=0)),
                        starved=False)


def gaussian_summary(ps: ParticleSet) -> GaussianSummary:
    """Mean and sample covariance of the cloud as a 3D Gaussian."""
    return ps._stats[0]


def pca_summary(ps: ParticleSet) -> PcaSummary:
    """Eigen-decomposition of the sample covariance, eigenvalues descending."""
    return ps._stats[1]


def kl_divergence(n0: GaussianSummary, n1: GaussianSummary) -> float:
    """Closed-form KL divergence D(n0 || n1) between 3D Gaussians, in nats."""
    try:
        np.linalg.cholesky(n1.cov)
    except np.linalg.LinAlgError:
        raise ValueError("second covariance must be nonsingular") from None
    diff = n1.mean - n0.mean
    trace_term = float(np.trace(np.linalg.solve(n1.cov, n0.cov)))
    quad_term = float(diff @ np.linalg.solve(n1.cov, diff))
    _, logdet1 = n1.slogdet
    sign0, logdet0 = n0.slogdet
    if sign0 <= 0:
        return math.inf
    return 0.5 * (trace_term + quad_term - 3.0 + logdet1 - logdet0)


def points_entropy(ps: ParticleSet) -> float:
    """Differential entropy of the cloud's Gaussian approximation, in nats."""
    sign, logdet = gaussian_summary(ps).slogdet
    degenerate = sign <= 0 or not np.isfinite(logdet)
    return -math.inf if degenerate else _ENTROPY_OFFSET + 0.5 * logdet


@dataclass(frozen=True)
class ConvergenceRecord:
    lambda_max: float
    entropy: float
    kl: Optional[float] = None  # None before the second update


def localization_status(rec: ConvergenceRecord, cfg: LocalizerConfig) -> str:
    """Joint eigenvalue / KL gate on one record; a hypothesis keeps the highest
    status any of its records reached. The entropy needs no gate: it is offset +
    1/2 sum log lambda_i <= offset + 1.5 log lambda_max, so a cloud under an
    eigenvalue gate is under the entropy of the isotropic cloud at that gate. The
    two tests differ only for a near-isotropic cloud whose lambda_max is within a
    few ulps of a gate."""
    if rec.lambda_max < cfg.lambda_fine and rec.kl is not None and rec.kl < cfg.kl_converged:
        return STATUS_CONVERGED
    if rec.lambda_max < cfg.lambda_rough:
        return STATUS_FINE_REQUESTED
    return STATUS_ROUGH


@dataclass
class TargetHypothesis:
    """One target's estimate: its current particle set, the random stream that
    perturbs and resamples it, the perturbation for its next update and the
    convergence record of every set it has had.

    `status` only rises (rough, fine_requested, converged) as records are
    added; the mission marks a hypothesis whose fine phase ran out "failed" and
    stops updating it.
    """

    target_id: int
    particles: ParticleSet
    rng: np.random.Generator
    history: list = field(default_factory=list)
    status: str = STATUS_ROUGH
    updates: int = 0
    last_update_camera: np.ndarray = None  # where the last accepted view was taken
    pending: Optional[Future] = None  # the next update's perturbed cloud

    @property
    def center(self) -> np.ndarray:
        return gaussian_summary(self.particles).mean

    @property
    def lambda_max(self) -> float:
        return self.history[-1].lambda_max if self.history else math.inf

    def record(self, cfg: LocalizerConfig, kl: Optional[float]):
        rec = ConvergenceRecord(float(pca_summary(self.particles).eigenvalues[0]),
                                points_entropy(self.particles), kl)
        self.history.append(rec)
        self.status = max(self.status, localization_status(rec, cfg),
                          key=_STATUS_ORDER.__getitem__)
        return rec

    def draw_next(self, noise_var: float, worker: Executor):
        """Start the perturbation of the current cloud for the next update: on
        worker for a cloud of WORKER_MIN_POINTS points or more, inline into a
        finished Future for a smaller one. It takes the stream's next normals,
        as an update drawing its own would: the stream is drawn from nowhere
        else until that update takes the result."""
        points = self.particles.points
        args = (points, self.rng, noise_var, np.empty(points.shape))
        if len(points) >= WORKER_MIN_POINTS:
            self.pending = worker.submit(perturb_points, *args)
        else:
            self.pending = Future()
            self.pending.set_result(perturb_points(*args))


def drop_duplicates(hypotheses, radius: float = 1.0, keep=None):
    """Discard hypotheses whose centers sit within radius of a more-converged one.

    "More converged" means strictly higher status, or equal status with a
    smaller largest eigenvalue; keep, if given, outranks every other and so
    is always kept. Returns the kept ones in id order.
    """
    if len(hypotheses) < 2:
        return list(hypotheses)
    ranked = sorted(
        hypotheses,
        key=lambda h: (h is not keep, -_STATUS_ORDER[h.status], h.lambda_max, h.target_id),
    )
    kept = []
    for h in ranked:
        if not any(vector_norm(h.center - k.center) < radius for k in kept):
            kept.append(h)
    kept.sort(key=lambda h: h.target_id)
    return kept
