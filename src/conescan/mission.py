"""Mission workflow tying tracking, localization and planning together.

One mission is a deterministic loop: fly the search rows while tracking and
opportunistically localizing everything detected; break off to a fine
localization circle when a cloud is promising; orbit-map it once converged;
then resume the search where it was interrupted.
"""

import csv
import json
import math
import shutil
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .bbox_tracker import (
    SimilarityEstimationError,
    TrackerState,
    bbox_entropy,
    estimate_similarity,
    iou,
)
from .config import ScenarioConfig, to_dict, validate
from .geometry import (
    DegenerateConeError,
    camera_to_world_pose,
    cone_normals,
    project_points,
    vector_norm,
)
from .localizer import (
    STATUS_CONVERGED,
    STATUS_ROUGH,
    TargetHypothesis,
    drop_duplicates,
    enlarge,
    gaussian_summary,
    generate_particles,
    kl_divergence,
    needs_new_particle_set,
    pca_summary,
    update_particles,
)
from .mapping_planner import (
    coverage_samples,
    fit_cylinder,
    mapping_path,
    scan_circles,
)
from .simulator import (
    DetectionDelay,
    TruthPoints,
    WaypointFollower,
    make_target,
    perturb_pose,
    simulate_detector,
    simulate_klt,
    substream,
)
from .view_planner import (
    Waypoint,
    arc_path,
    fine_localization_circle,
    lawnmower_path,
    next_best_view,
)

SEARCH = "search"
FINE_LOCALIZE = "fine_localize"
MAP = "map"

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_UNCONVERGED = 2

# A cloud this close to a failed one is taken for the same failed target.
FAILED_TARGET_RADIUS = 1.0


@dataclass
class TargetReport:
    target_id: int
    status: str
    center: list
    eigenvalues: list
    updates: int
    localization_error: float = None
    coverage: float = None
    arc_fraction: float = None


@dataclass
class RunReport:
    targets: list
    duration_s: float
    distance_m: float
    targets_found: int
    targets_total: int
    transitions: list
    seed: int

    @property
    def exit_code(self) -> int:
        return EXIT_OK if self.targets_found >= self.targets_total else EXIT_UNCONVERGED

    def to_dict(self) -> dict:
        return asdict(self)


def _fmt(value) -> str:
    """Shortest round-trip decimal form; numpy scalars print as plain floats."""
    return repr(float(value))


class _RunLog:
    """Streaming CSV/JSON writers for one run directory; each file's columns
    are set here and nowhere else. Without a run directory every writer is
    None and each row method, snapshot and write_json do nothing.

    Building a log touches nothing on disk. open() deletes what an earlier
    run left in the directory, its particle snapshots, plot series and the
    files it wrote at its end, and starts the CSV files.
    """

    def __init__(self, out_dir):
        self.dir = Path(out_dir) if out_dir else None
        self._files = []
        self.tracks = self.path = self.planned = self.metrics = None

    def open(self):
        """Clear the run directory's stale outputs and start the CSV files."""
        if not self.dir:
            return
        shutil.rmtree(self.dir / "plots", ignore_errors=True)
        # written at a run's end: a cut-short rerun must not leave the old ones
        for name in ("coverage.json", "report.json", "config.json"):
            (self.dir / name).unlink(missing_ok=True)
        for stale in (self.dir / "particles").glob("*.json"):
            stale.unlink()
        (self.dir / "particles").mkdir(parents=True, exist_ok=True)
        self.tracks = self._csv(
            "tracks.csv",
            ["frame", "track_id", "u_min", "v_min", "u_max", "v_max",
             "trace_sigma", "entropy", "status"],
        )
        self.path = self._csv("path.csv", ["t", "x", "y", "z", "yaw", "mode"])
        self.planned = self._csv("planned_path.csv", ["phase", "seq", "x", "y", "z", "yaw"])
        self.metrics = self._csv(
            "metrics.csv",
            ["frame", "target_id", "lambda1", "lambda2", "lambda3",
             "entropy", "kl", "status"],
        )

    def _csv(self, name, header):
        fh = open(self.dir / name, "w", newline="")
        self._files.append(fh)
        writer = csv.writer(fh)
        writer.writerow(header)
        return writer

    def row(self, writer, values):
        """Write one row; the row methods build rows only when their writer exists."""
        writer.writerow(values)

    def plan(self, phase, waypoints):
        if self.planned is None:
            return
        for seq, wp in enumerate(waypoints):
            self.row(self.planned,
                     [phase, seq, _fmt(wp.position[0]), _fmt(wp.position[1]),
                      _fmt(wp.position[2]), _fmt(wp.yaw)])

    def pose(self, t, pos, yaw, mode):
        if self.path is None:
            return
        self.row(self.path,
                 [_fmt(t), _fmt(pos[0]), _fmt(pos[1]), _fmt(pos[2]), _fmt(yaw), mode])

    def track_rows(self, frame, tracks):
        """One row per track, in id order."""
        if self.tracks is None:
            return
        for track in sorted(tracks, key=lambda t: t.id):
            self.row(self.tracks,
                     [frame, track.id, _fmt(track.u.u_min), _fmt(track.u.v_min),
                      _fmt(track.u.u_max), _fmt(track.u.v_max),
                      _fmt(4.0 * track.var),
                      _fmt(bbox_entropy(track.var)), track.status])

    def metrics_row(self, frame, hyp):
        if self.metrics is None:
            return
        rec = hyp.history[-1]
        pca = pca_summary(hyp.particles)
        self.row(self.metrics,
                 [frame, hyp.target_id, _fmt(pca.eigenvalues[0]),
                  _fmt(pca.eigenvalues[1]), _fmt(pca.eigenvalues[2]),
                  _fmt(rec.entropy), "" if rec.kl is None else _fmt(rec.kl), hyp.status])

    def snapshot(self, hyp: TargetHypothesis, frame: int, tag: str):
        if not self.dir:
            return
        rec = hyp.history[-1]  # recorded at registration, before any snapshot
        data = {
            "target_id": hyp.target_id,
            "frame": frame,
            "points": hyp.particles.points.tolist(),
            "eigenvalues": pca_summary(hyp.particles).eigenvalues.tolist(),
            "entropy": rec.entropy,
            "kl": rec.kl,
            "status": hyp.status,
        }
        name = f"target{hyp.target_id:03d}_frame{frame:06d}_{tag}.json"
        with open(self.dir / "particles" / name, "w") as fh:
            json.dump(data, fh, sort_keys=True)

    def write_json(self, name, payload):
        if not self.dir:
            return
        with open(self.dir / name, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)

    def close(self):
        for fh in self._files:
            fh.close()
        self._files = []


def emit_plot_data(run_dir) -> list:
    """Derive plot-ready CSV series from a completed run directory."""
    run_dir = Path(run_dir)
    plots = run_dir / "plots"
    plots.mkdir(exist_ok=True)
    written = []

    def read(name):
        """The rows of one of the run log's CSV files, or None without it."""
        src = run_dir / name
        if not src.exists():
            return None
        with open(src) as fh:
            return list(csv.DictReader(fh))

    def write(name, header, rows):
        out = plots / name
        with open(out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
        written.append(out)

    path = read("path.csv")
    if path is not None:
        write("uav_path.csv", ["t", "x", "y", "z"],
              ([r["t"], r["x"], r["y"], r["z"]] for r in path))

    metrics = read("metrics.csv")
    if metrics is not None:
        by_target = {}
        for r in metrics:
            by_target.setdefault(r["target_id"], []).append(r)
        for tid, series in sorted(by_target.items()):
            write(f"convergence_target{int(tid):03d}.csv",
                  ["frame", "lambda_max", "entropy", "kl"],
                  ([r["frame"], r["lambda1"], r["entropy"], r["kl"]] for r in series))

    planned = read("planned_path.csv")
    if planned is not None and path is not None:
        write("planned_vs_flown.csv", ["source", "phase_or_t", "x", "y", "z"],
              [["planned", r["phase"], r["x"], r["y"], r["z"]] for r in planned]
              + [["flown", r["t"], r["x"], r["y"], r["z"]] for r in path])

    for snap in sorted((run_dir / "particles").glob("*.json")):
        with open(snap) as fh:
            points = json.load(fh)["points"]
        write(snap.stem + ".csv", ["x", "y", "z"], points)
    return written


class MissionRunner:
    """Deterministic single-mission executor."""

    def __init__(self, cfg: ScenarioConfig, out_dir=None, dump_particles=False):
        validate(cfg)
        self.cfg = cfg
        self.cam = cfg.camera
        self.noise = cfg.noise
        self.dump_particles = dump_particles
        seed = cfg.seed

        self.targets = [
            make_target(i, t.center, t.half_extents, t.n_features,
                        substream(seed, "target_features", i))
            for i, t in enumerate(cfg.targets)
        ]
        self.truth = TruthPoints(self.targets)
        self.det_rng = substream(seed, "detector")
        self.klt_rng = substream(seed, "klt")
        self.pose_rng = substream(seed, "pose")
        self.detection_delay = DetectionDelay(self.noise.detection_latency_frames)

        self.search_path = lawnmower_path(
            cfg.region, cfg.search_altitude, self.cam, cfg.planner.overlap
        )
        start = self.search_path[0]
        self.follower = WaypointFollower(
            start.position, start.yaw, cfg.uav.v_max, cfg.uav.a_max, cfg.uav.yaw_rate
        )
        self.follower.set_path(self.search_path)

        self.tracker = TrackerState(cfg.tracker, (self.cam.width, self.cam.height))
        self.mode = SEARCH
        self.active = None  # the hypothesis being fine-localized or mapped
        self.resume_index = 0  # survey waypoint the search path starts at
        self.hypotheses = []  # live ones only
        self.finished = []  # (hypothesis, TargetReport) of each done or failed one
        self.mapped = []  # (center, suppression radius, coverage payload) per done target
        self.next_hypothesis_id = 0

        self.frame = 0
        self.t = 0.0
        self.distance = 0.0
        self.transitions = []
        self._prev_truth = None  # last frame's TargetProjection per target
        self._fine = None  # the current fine arc's plan, read in FINE_LOCALIZE
        self._lap_angle = 0.0  # angle circled in the current fine phase
        self._mapping = None  # (coverage payload, suppression radius, arc fraction)

        self.log = _RunLog(out_dir)  # opened and closed by run(), which writes every row
        # the localizer draws and weighs large clouds on it; run() shuts it down,
        # waiting for them
        self._worker = ThreadPoolExecutor(max_workers=1)

    # ------------------------------------------------------------------ utils

    def _transition(self, new_mode, hyp=None, **extra):
        entry = {
            "frame": self.frame,
            "t": round(self.t, 6),
            "from": self.mode,
            "to": new_mode,
            "target": None if hyp is None else hyp.target_id,
        }
        entry.update(extra)
        self.transitions.append(entry)
        self.mode = new_mode
        self.active = hyp

    def _current_waypoint(self) -> Waypoint:
        """Where a path planned now starts: the follower first brakes to rest."""
        return Waypoint(self.follower.rest_position, self.follower.yaw)

    # ------------------------------------------------------------- perception

    def _similarities(self, truth):
        """Per-track image similarity from simulated feature correspondences,
        matched to the target whose true box it overlapped last frame."""
        sims = {}
        if self._prev_truth is None:
            return sims
        for track in self.tracker.live:  # in id order
            best_id, best_iou = None, 0.1
            for tid, prev in enumerate(self._prev_truth):
                if prev.box is None:
                    continue
                score = iou(track.u, prev.box)
                if score > best_iou:
                    best_id, best_iou = tid, score
            if best_id is None:
                continue
            pair = simulate_klt(self._prev_truth[best_id], truth[best_id],
                                self.noise, self.klt_rng)
            if pair is None:
                continue
            try:
                sims[track.id] = estimate_similarity(pair[0], pair[1])
            except SimilarityEstimationError:
                continue
        return sims

    # ------------------------------------------------------------ localization

    def _suppressed(self, normals, world_to_cam) -> bool:
        """Cone points at a finished target (within its suppression radius)."""
        unit = normals / np.linalg.norm(normals, axis=1, keepdims=True)
        for center, radius, _ in self.mapped:
            c_cam = world_to_cam.apply(center)
            if c_cam[2] > -radius and np.all(unit @ c_cam > -radius):
                return True
        return False

    def _above_targets(self, center) -> bool:
        """At or above the survey altitude, which config.validate keeps above
        every target's top: such a cloud is no target."""
        return center[2] >= self.cfg.search_altitude

    def _near_done_target(self, center) -> bool:
        return any(
            vector_norm(center - done_center) <= radius
            for done_center, radius, _ in self.mapped
        )

    def _near_failed_target(self, center) -> bool:
        return any(
            vector_norm(center - hyp.center) <= FAILED_TARGET_RADIUS
            for hyp, entry in self.finished if entry.status == "failed"
        )

    def _has_baseline(self, hyp, cam_pos) -> bool:
        """The view is far enough from the last accepted one to add parallax."""
        return (hyp.last_update_camera is None
                or vector_norm(cam_pos - hyp.last_update_camera)
                >= self.cfg.mission.min_update_baseline)

    def _localize_from_track(self, track, est_c2w, est_w2c):
        lcfg = self.cfg.localizer
        cam_pos = est_c2w.translation
        if self.mode == FINE_LOCALIZE:
            # while circling, a box can only update the circled (always live)
            # cloud, so no other is tested and a view without parallax builds no cone
            if not self._has_baseline(self.active, cam_pos):
                return
            candidates = [self.active]
        else:
            # registration depends on whether any cloud matches
            candidates = self.hypotheses
        corners = enlarge(track.u, lcfg.enlarge_factor).corners_clockwise()
        try:
            normals = cone_normals(corners, self.cam)
        except DegenerateConeError:
            return
        matched = needs_new_particle_set(
            [h.particles for h in candidates], normals, est_w2c)
        for i in matched:
            if self._has_baseline(candidates[i], cam_pos):
                self._update_hypothesis(candidates[i], track.u, est_w2c, cam_pos)
        circling = self.mode == FINE_LOCALIZE  # no fresh registrations while circling
        if matched or circling or self._suppressed(normals, est_w2c):
            return
        hyp_id = self.next_hypothesis_id
        self.next_hypothesis_id += 1
        rng = substream(self.cfg.seed, "particles", hyp_id)
        # depths reach twice the survey height, past the ground along any ray
        # at least 30 degrees below the horizon
        particles = generate_particles(
            corners, est_c2w, self.cam, lcfg, rng, max_depth=2.0 * self.cfg.search_altitude,
        )
        hyp = TargetHypothesis(target_id=hyp_id, particles=particles, rng=rng,
                               last_update_camera=est_c2w.translation.copy())
        self.hypotheses.append(hyp)
        hyp.draw_next(lcfg.update_noise_var, self._worker)  # while record() runs
        hyp.record(lcfg, kl=None)
        self.log.metrics_row(self.frame, hyp)
        self.log.snapshot(hyp, self.frame, "registered")

    def _update_hypothesis(self, hyp, box, est_w2c, cam_pos):
        lcfg = self.cfg.localizer
        pre = gaussian_summary(hyp.particles)
        result = update_particles(hyp.particles, hyp.pending.result(), box, est_w2c,
                                  self.cam, lcfg, hyp.rng, self._worker)
        hyp.particles = result.particles  # the same set when starved
        hyp.draw_next(lcfg.update_noise_var, self._worker)
        if result.starved:
            return
        hyp.updates += 1
        hyp.last_update_camera = cam_pos.copy()
        try:
            kl = kl_divergence(gaussian_summary(hyp.particles), pre)
        except ValueError:
            kl = None
        before = hyp.status
        hyp.record(lcfg, kl)
        self.log.metrics_row(self.frame, hyp)
        if hyp.status != before:
            self.log.snapshot(hyp, self.frame, hyp.status)

    # ------------------------------------------------------------- mode logic

    def _plan_fine_arc(self, hyp):
        """Arc toward the next-best view; a full lap when already there."""
        pca = pca_summary(hyp.particles)
        center = pca.mean
        circle = fine_localization_circle(center, self.cfg.search_altitude, self.cam.gamma)
        current = self._current_waypoint()
        nbv = next_best_view(circle, pca.smallest_eigenvector, current, center)
        path, swept = arc_path(current, nbv, circle, center, self.cfg.planner.angular_step)
        self._fine = {
            "center": center.copy(),
            "path_len": max(len(path) - 1, 1),
            "planned_angle": swept,
        }
        self.follower.set_path(path[1:])
        self.log.plan(FINE_LOCALIZE, path)

    def _fine_progress_angle(self) -> float:
        frac = min(self.follower.waypoints_reached / self._fine["path_len"], 1.0)
        return frac * self._fine["planned_angle"]

    def _enter_fine(self, hyp):
        # only entered from SEARCH, whose path starts at the resume index
        self.resume_index = min(self.resume_index + self.follower.waypoints_reached,
                                len(self.search_path) - 1)
        self._transition(FINE_LOCALIZE, hyp, resume_index=self.resume_index)
        self._lap_angle = 0.0
        self._plan_fine_arc(hyp)

    def _enter_map(self, hyp):
        arc_fraction = None
        if self._fine["planned_angle"] > 0:
            arc_fraction = self._fine_progress_angle() / self._fine["planned_angle"]
        pcfg = self.cfg.planner
        cylinder = fit_cylinder(hyp.particles)
        plan = scan_circles(cylinder, self.cam, pcfg.standoff, pcfg.n_per_circle)
        samples, covered = coverage_samples(plan, self.cam, cylinder,
                                            pcfg.n_surface_samples)
        start = self._current_waypoint()
        path = mapping_path(plan, start.position)
        payload = {
            "target_id": hyp.target_id,
            "circle_altitudes": [float(c.center[2]) for c in plan.circles],
            "orbit_radius": plan.circles[0].radius,
            "covered_fraction": float(covered.mean()),
            "uncovered_samples": samples[~covered][:200].tolist(),
        }
        self._mapping = (payload, self.cfg.mission.suppression_scale * cylinder.radius,
                         arc_fraction)
        self._transition(MAP, hyp, arc_fraction=arc_fraction)
        self.follower.set_path(path)
        self.log.plan(MAP, [start] + path)

    def _retire(self, status, coverage=None, arc_fraction=None):
        """Take the active hypothesis out of the live list as done or failed,
        with its report entry, snapshot it and resume the search."""
        hyp = self.active
        self.hypotheses.remove(hyp)
        hyp.pending = None  # no update follows: let go of the drawn cloud
        self.finished.append((hyp, self._entry(hyp, status, coverage, arc_fraction)))
        self.log.snapshot(hyp, self.frame, status)
        self._resume_search()

    def _resume_search(self):
        self._transition(SEARCH, resume_index=self.resume_index)
        remaining = self.search_path[self.resume_index:]
        self.log.plan(SEARCH, [self._current_waypoint()] + list(remaining))
        self.follower.set_path(remaining)

    def _step_modes(self):
        if self.mode == SEARCH:
            # live hypotheses are rough, fine_requested or converged
            candidates = [h for h in self.hypotheses if h.status != STATUS_ROUGH]
            if not candidates and self.follower.done:
                # the survey is flown: no updated cloud is left unvisited, but a
                # failed target is not circled again
                candidates = [h for h in self.hypotheses if h.updates > 0
                              and not self._near_failed_target(h.center)]
            if candidates:
                self._enter_fine(min(candidates, key=lambda h: h.target_id))
                return False
            return self.follower.done
        if self.mode == FINE_LOCALIZE:
            hyp = self.active
            # fine circles fly at the survey altitude, so a risen cloud has none
            risen = self._above_targets(hyp.center)
            if hyp.status == STATUS_CONVERGED and not risen:
                self._enter_map(hyp)
                return False
            drifted = (
                vector_norm(hyp.center - self._fine["center"])
                > self.cfg.mission.fine_replan_distance
            )
            if risen or self.follower.done or drifted:
                self._lap_angle += self._fine_progress_angle()
                if risen or self._lap_angle >= self.cfg.mission.fine_max_laps * 2.0 * math.pi:
                    hyp.status = "failed"
                    self._retire("failed")
                else:
                    self._plan_fine_arc(hyp)
            return False
        # MAP: the mode is only ever one of the three constants
        if self.follower.done:
            payload, radius, arc_fraction = self._mapping
            self.mapped.append((self.active.center, radius, payload))
            self._retire("done", payload["covered_fraction"], arc_fraction)
        return False

    # ------------------------------------------------------------------- loop

    def _tick(self):
        dt = self.cfg.mission.dt
        prev_pos = self.follower.position  # step binds a new array, never writes this one
        pos, yaw, _ = self.follower.step(dt)
        self.t += dt
        self.frame += 1
        self.distance += vector_norm(pos - prev_pos)

        true_c2w = camera_to_world_pose(pos, yaw, self.cam.gamma)
        est_c2w = perturb_pose(true_c2w, self.noise, self.pose_rng)
        true_w2c = true_c2w.inverse()

        # all ground truth projected once; the next frame's KLT reuses it
        truth = self.truth.split(*project_points(self.truth.points, true_w2c, self.cam),
                                 self.cam)
        detections = self.detection_delay.push(simulate_detector(
            truth, self.cam, self.noise, self.det_rng))
        sims = self._similarities(truth)
        n_retired = len(self.tracker.retired)
        updated = self.tracker.step(detections, sims, self.frame)
        # live tracks, plus a final row for each one retired this frame
        self.log.track_rows(self.frame, self.tracker.live + self.tracker.retired[n_retired:])

        if self.mode != MAP:
            est_w2c = None  # inverted once a frame, when a track is localized
            for track in self.tracker.live:  # in id order
                if track.id not in updated or track.hits < self.cfg.mission.confirm_hits:
                    continue
                if est_w2c is None:
                    est_w2c = est_c2w.inverse()
                self._localize_from_track(track, est_c2w, est_w2c)
            # the circled hypothesis stays live until _retire; another one in a
            # finished target's zone is a duplicate of that target, not a new
            # one, and one at the survey altitude is no target
            kept = drop_duplicates(self.hypotheses, keep=self.active)
            self.hypotheses = [h for h in kept if h is self.active or not (
                self._near_done_target(h.center) or self._above_targets(h.center))]

        finished = self._step_modes()

        self._prev_truth = truth
        self.log.pose(self.t, pos, yaw, self.mode)
        return finished

    def run(self) -> RunReport:
        try:
            self.log.open()
            self.log.plan(SEARCH, self.search_path)
            while self.t < self.cfg.mission.max_sim_time:
                if self._tick():
                    break
            report = self._report()
            if self.dump_particles:
                for hyp in self.hypotheses + [h for h, _ in self.finished
                                              if h.status == "failed"]:
                    self.log.snapshot(hyp, self.frame, "final")
            self.log.write_json("coverage.json", [payload for *_, payload in self.mapped])
            self.log.write_json("report.json", report.to_dict())
            self.log.write_json("config.json", to_dict(self.cfg))
            return report
        finally:
            self._worker.shutdown(wait=True)  # no run leaves a draw or a weighing running
            self.log.close()

    # ----------------------------------------------------------------- report

    def _entry(self, hyp, status, coverage=None, arc_fraction=None) -> TargetReport:
        """A hypothesis's report entry; its error is to the nearest true target."""
        center = hyp.center
        errors = [vector_norm(center - tg.center) for tg in self.targets]
        return TargetReport(
            target_id=hyp.target_id,
            status=status,
            center=[float(v) for v in center],
            eigenvalues=[float(v) for v in pca_summary(hyp.particles).eigenvalues],
            updates=hyp.updates,
            localization_error=float(min(errors)) if errors else None,
            coverage=coverage,
            arc_fraction=arc_fraction,
        )

    def _report(self) -> RunReport:
        """The finished entries as retired, plus one per live hypothesis."""
        entries = [entry for _, entry in self.finished]
        entries += [self._entry(hyp, hyp.status) for hyp in self.hypotheses]
        entries.sort(key=lambda e: e.target_id)
        done = [hyp for hyp, entry in self.finished if entry.status == "done"]
        found = sum(
            any(vector_norm(hyp.center - tg.center) <= self.cfg.mission.found_radius
                for hyp in done)
            for tg in self.targets
        )
        return RunReport(
            targets=entries,
            duration_s=round(self.t, 9),
            distance_m=round(self.distance, 9),
            targets_found=found,
            targets_total=len(self.targets),
            transitions=self.transitions,
            seed=self.cfg.seed,
        )
