"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is stated inline next to its assertion.
"""

import concurrent.futures
import math
import os
import time

import numpy as np
import pytest

from conescan.bbox_tracker import (
    DEREGISTERED,
    TrackerConfig,
    TrackerState,
    bbox_entropy,
    estimate_similarity,
    iou,
    predict,
    update,
)
from conescan.geometry import (
    BBox,
    CameraRig,
    camera_to_world_pose,
    cone_contains,
    cone_normals,
    project_points,
)
from conescan.localizer import (
    GaussianSummary,
    LocalizerConfig,
    ParticleSet,
    generate_particles,
    kl_divergence,
    pca_summary,
    perturb_points,
    points_entropy,
    update_particles,
    weight_density,
    WEIGHT_FLOOR,
)
from conescan.mapping_planner import Cylinder, coverage_samples, scan_circles
from conescan.mission import EXIT_UNCONVERGED, MissionRunner
from conescan.simulator import NoiseModel, make_target, simulate_detector, simulate_klt

from conftest import (box_array, identity_pose, project_truth, similarity_matrix,
                      stock_scenario)
from conescan.view_planner import (
    Waypoint,
    fine_localization_circle,
    next_best_view,
)

CAM = CameraRig()


def _report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# --------------------------------------------------------------- criterion 1

def test_criterion_1_cone_closure():
    """10^6 particles over 100 random boxes/poses all strictly inside."""
    from conftest import random_pose

    rng = np.random.default_rng(101)
    cfg = LocalizerConfig(n_particles=10_000)
    t0 = time.time()
    violations = 0
    total = 0
    for _ in range(100):
        lo = rng.uniform([0, 0], [CAM.width - 60, CAM.height - 60])
        size = rng.uniform(20, 250, size=2)
        box = BBox(lo[0], lo[1], lo[0] + size[0], lo[1] + size[1])
        corners = box.corners_clockwise()
        pose = random_pose(rng)
        ps = generate_particles(corners, pose, CAM, cfg, rng, max_depth=30.0)
        normals = cone_normals(corners, CAM)
        inside = cone_contains(normals, pose.inverse().apply(ps.points))
        violations += int(len(inside) - inside.sum())
        total += len(inside)
    elapsed = time.time() - t0
    _report(
        "criterion 1 (cone closure)",
        violations == 0 and total == 1_000_000 and elapsed < 10.0,
        f"{violations} violations in {total} particles, {elapsed:.1f}s (< 10s)",
    )


# --------------------------------------------------------------- criterion 2

def test_criterion_2_kalman_algebra():
    """Hand-arithmetic examples to 1e-9; 10^4 random steps keep the variance,
    the covariance's one eigenvalue, non-negative."""
    cfg = TrackerConfig()
    e2 = cfg.predict_noise_px**2
    from conescan.bbox_tracker import BoxTrack

    ok = True
    details = []

    track = BoxTrack(id=0, u=BBox(0, 0, 10, 10), var=2.5)
    out = predict(track, similarity_matrix(1, 0, 5, 3), cfg)
    ok &= bool(np.max(np.abs(box_array(out.u) - [5, 3, 15, 13])) < 1e-9)
    ok &= abs(out.var - (2.5 + e2)) < 1e-9

    track = BoxTrack(id=0, u=BBox(1, 2, 3, 4), var=1.0)
    out = predict(track, similarity_matrix(2, 0, 0, 0), cfg)
    ok &= bool(np.max(np.abs(box_array(out.u) - [2, 4, 6, 8])) < 1e-9)
    ok &= abs(out.var - (4 + e2)) < 1e-9

    gain_cfg = TrackerConfig(measure_noise_px=5.0)
    track = BoxTrack(id=0, u=BBox(0, 0, 10, 10), var=100.0)
    out = update(track, BBox(4, 4, 14, 14), gain_cfg)
    ok &= bool(np.max(np.abs(box_array(out.u) - [3.2, 3.2, 13.2, 13.2])) < 1e-9)
    details.append("3 hand examples at 1e-9")

    rng = np.random.default_rng(102)
    min_var = math.inf
    steps = 0
    for _ in range(200):
        track = BoxTrack(id=0, u=BBox(0, 0, 30, 30), var=cfg.measure_noise_px**2)
        for _ in range(50):
            if rng.uniform() < 0.5:
                sim = similarity_matrix(
                    rng.uniform(0.9, 1.1), rng.uniform(-0.15, 0.15),
                    rng.uniform(-4, 4), rng.uniform(-4, 4))
                try:
                    track = predict(track, sim, cfg)
                except ValueError:
                    # motion inverted the box; production falls back the same way
                    track = predict(track, None, cfg, noise_scale=4.0)
            else:
                shift = rng.uniform(-3, 3, size=2)
                arr = box_array(track.u) + np.concatenate([shift, shift])
                track = update(track, BBox(*arr), cfg)
            steps += 1
            min_var = min(min_var, track.var)
    ok &= steps == 10_000 and min_var >= -1e-9
    details.append(f"{steps} random steps, min variance {min_var:.2e} (>= -1e-9)")
    _report("criterion 2 (Kalman algebra)", ok, "; ".join(details))


# --------------------------------------------------------------- criterion 3

def test_criterion_3_entropy_and_kl_oracles():
    """Entropy matches log-det to 1e-9; closed-form KL matches MC within 2%."""
    rng = np.random.default_rng(103)
    t0 = time.time()
    worst_entropy = 0.0
    for _ in range(1000):
        a = rng.standard_normal((4, 4))
        # the mean eigenvalue of a @ a.T + 0.01 I, so the KL draws below stay
        var = float(np.trace(a @ a.T)) / 4.0 + 0.01
        oracle = 2.0 + 2.0 * math.log(2 * math.pi) + 0.5 * math.log(
            float(np.prod(np.linalg.eigvalsh(var * np.eye(4)))))
        worst_entropy = max(worst_entropy, abs(bbox_entropy(var) - oracle))

    def mc_kl(n0, n1, n_samples):
        chol = np.linalg.cholesky(n0.cov)
        x = n0.mean + rng.standard_normal((n_samples, 3)) @ chol.T

        def logpdf(x, mean, cov):
            diff = x - mean
            sol = np.linalg.solve(cov, diff.T).T
            _, logdet = np.linalg.slogdet(cov)
            return -0.5 * (3 * math.log(2 * math.pi) + logdet
                           + np.sum(diff * sol, axis=1))

        return float(np.mean(logpdf(x, n0.mean, n0.cov) - logpdf(x, n1.mean, n1.cov)))

    worst_rel = 0.0
    for _ in range(20):
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        n0 = GaussianSummary(rng.standard_normal(3), a @ a.T + 0.1 * np.eye(3))
        n1 = GaussianSummary(rng.standard_normal(3), b @ b.T + 0.1 * np.eye(3))
        closed = kl_divergence(n0, n1)
        estimate = mc_kl(n0, n1, 1_000_000)
        worst_rel = max(worst_rel, abs(estimate - closed) / closed)
    elapsed = time.time() - t0
    _report(
        "criterion 3 (entropy/KL oracles)",
        worst_entropy < 1e-9 and worst_rel < 0.02 and elapsed < 60.0,
        f"entropy max err {worst_entropy:.1e} (< 1e-9), "
        f"KL max rel err {worst_rel:.3%} (< 2%), {elapsed:.1f}s (< 60s)",
    )


# --------------------------------------------------------------- criterion 4

def _orbit_pose(frame: int, center, radius: float, altitude: float):
    azimuth = math.radians(0.35) * frame
    pos = np.array([center[0] + radius * math.cos(azimuth),
                    center[1] + radius * math.sin(azimuth), altitude])
    yaw = math.atan2(center[1] - pos[1], center[0] - pos[0])
    return camera_to_world_pose(pos, yaw, CAM.gamma)


def test_criterion_4_filter_benefit():
    """Tracked boxes beat raw detections; FP tracks die by entropy within 50."""
    rng_feat = np.random.default_rng(104)
    target = make_target(0, [0.0, 0.0, 0.8], [1.0, 1.0, 0.8], 40, rng_feat)
    noise = NoiseModel(detector_pixel_sigma=3.0, detect_prob=0.8,
                       false_positive_rate=0.1, klt_pixel_sigma=1.0)
    det_rng = np.random.default_rng(1040)
    klt_rng = np.random.default_rng(1041)
    tracker = TrackerState(TrackerConfig(), (CAM.width, CAM.height))
    radius = (12.0 - 0.8) / math.tan(CAM.gamma)

    raw_sq, tracked_sq = [], []
    prev_proj = None
    prev_truth = None
    spawn_truth_iou = {}
    for frame in range(1, 501):
        w2c = _orbit_pose(frame, target.center, radius, 12.0).inverse()
        pix, depth = project_points(target.corners, w2c, CAM)
        assert np.all(depth > 0)
        truth = np.array([pix[:, 0].min(), pix[:, 1].min(),
                          pix[:, 0].max(), pix[:, 1].max()])
        truth_box = BBox(*truth)
        (proj,) = project_truth([target], w2c, CAM)
        detections = simulate_detector([proj], CAM, noise, det_rng)

        sims = {}
        if prev_proj is not None:
            for track in tracker.active():
                if iou(track.u, prev_truth) < 0.1:
                    continue
                pair = simulate_klt(prev_proj, proj, noise, klt_rng)
                if pair is None:
                    continue
                try:
                    sims[track.id] = estimate_similarity(pair[0], pair[1])
                except ValueError:
                    pass
        before_ids = {t.id for t in tracker.tracks}
        assigned = tracker.step(detections, sims, frame)
        for t in tracker.tracks:
            if t.id not in before_ids:
                spawn_truth_iou[t.id] = iou(t.u, truth_box)

        true_dets = [d for d in detections if iou(d, truth_box) >= 0.5]
        if not true_dets:
            continue
        best_det = max(true_dets, key=lambda d: iou(d, truth_box))
        main = max(tracker.active(), key=lambda t: iou(t.u, truth_box), default=None)
        if main is None or main.id not in assigned or iou(main.u, truth_box) < 0.2:
            continue
        raw_sq.extend((box_array(best_det) - truth) ** 2)
        tracked_sq.extend((box_array(main.u) - truth) ** 2)
        prev_proj, prev_truth = proj, truth_box

    raw_rmse = math.sqrt(np.mean(raw_sq))
    tracked_rmse = math.sqrt(np.mean(tracked_sq))

    fp_ok = True
    fp_count = 0
    for t in tracker.tracks:
        if spawn_truth_iou.get(t.id, 1.0) >= 0.2:
            continue  # spawned on the real target
        fp_count += 1
        if t.status == DEREGISTERED:
            fp_ok &= (t.dereg_reason == "entropy"
                      and t.dereg_frame - t.spawn_frame <= 50)
        else:
            fp_ok &= 500 - t.spawn_frame <= 50  # still inside its window

    _report(
        "criterion 4 (filter benefit)",
        tracked_rmse <= raw_rmse and fp_count > 0 and fp_ok,
        f"tracked RMSE {tracked_rmse:.2f} <= raw {raw_rmse:.2f} px over "
        f"{len(raw_sq) // 4} frames; {fp_count} FP tracks all entropy-pruned "
        f"within 50 frames",
    )


# --------------------------------------------------------------- criterion 5

def _convergence_worker(seed: int):
    cfg = stock_scenario(1, seed=seed)
    runner = MissionRunner(cfg)
    report = runner.run()
    truth = np.asarray(cfg.targets[0].center, dtype=float)
    done = [h for h, entry in runner.finished if entry.status == "done"]
    failed = [h for h, entry in runner.finished if entry.status == "failed"]
    hyps = done + runner.hypotheses + failed
    best = max(hyps, key=lambda h: h.updates)
    error = float(np.linalg.norm(best.particles.points.mean(axis=0) - truth))
    return error, best.history[0].lambda_max, best.history[-1].lambda_max


def test_criterion_5_localization_convergence():
    """20 seeds: error < 0.5 m in >= 18; lambda falls in 20/20; < 2 min."""
    t0 = time.time()
    workers = min(4, os.cpu_count() or 1)
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(_convergence_worker, range(20)))
    elapsed = time.time() - t0
    close = sum(1 for err, _, _ in results if err < 0.5)
    shrunk = sum(1 for _, lam0, lam1 in results if lam1 < lam0)
    worst = max(err for err, _, _ in results)
    _report(
        "criterion 5 (localization convergence)",
        close >= 18 and shrunk == 20 and elapsed < 120.0,
        f"error < 0.5 m in {close}/20 (>= 18), lambda shrank in {shrunk}/20, "
        f"worst error {worst:.2f} m, {elapsed:.0f}s (< 120s)",
    )


# --------------------------------------------------------------- criterion 6

def test_criterion_6_nbv_optimality():
    """Planned view beats a 360-point sweep for 100 random converged clouds."""
    rng = np.random.default_rng(106)
    azimuths = np.linspace(-math.pi, math.pi, 360, endpoint=False)
    checked = 0
    worst_margin = 0.0
    while checked < 100:
        center = np.array([rng.uniform(-20, 20), rng.uniform(-20, 20),
                           rng.uniform(0, 2)])
        a = 0.3 * rng.standard_normal((3, 3))
        cov = a @ a.T + 0.01 * np.eye(3)
        ps = ParticleSet(rng.multivariate_normal(center, cov, size=500))
        pca = pca_summary(ps)
        v = pca.smallest_eigenvector
        if math.hypot(v[0], v[1]) < 1e-6 or v[2] < 1e-6:
            continue
        circle = fine_localization_circle(pca.mean, 12.0, CAM.gamma)
        nbv = next_best_view(circle, v, Waypoint([0, 0, 12.0], 0.0), pca.mean)

        def line_angle(p):
            axis = pca.mean - p
            axis = axis / np.linalg.norm(axis)
            return math.acos(min(1.0, abs(float(axis @ v))))

        best = line_angle(nbv.position)
        sweep = min(line_angle(circle.point_at(az)) for az in azimuths)
        worst_margin = max(worst_margin, best - sweep)
        checked += 1
    _report(
        "criterion 6 (NBV optimality)",
        worst_margin <= 1e-6,
        f"100 clouds, worst margin over 360-point sweep {worst_margin:.2e} rad "
        f"(<= 1e-6)",
    )


# --------------------------------------------------------------- criterion 7

def test_criterion_7_mapping_coverage():
    """50 random cylinders: coverage >= 0.99 and exact band-stacking counts."""
    rng = np.random.default_rng(107)
    band = 3.0 * (math.tan(CAM.gamma + CAM.beta / 2) - math.tan(CAM.gamma - CAM.beta / 2))
    worst = 1.0
    counts_ok = True
    for _ in range(50):
        height = rng.uniform(0.3, 25.0)
        z0 = rng.uniform(-2, 2)
        cyl = Cylinder(axis_xy=rng.uniform(-20, 20, size=2), z_bottom=z0,
                       z_top=z0 + height, radius=rng.uniform(0.3, 3.0))
        plan = scan_circles(cyl, CAM, standoff=3.0, n_per_circle=36)
        worst = min(worst, coverage_samples(plan, CAM, cyl, 10_000)[1].mean())
        oracle = 1
        while oracle * band < height - 1e-9:
            oracle += 1
        counts_ok &= len(plan.circles) == oracle
    _report(
        "criterion 7 (mapping coverage)",
        worst >= 0.99 and counts_ok,
        f"worst coverage {worst:.4f} (>= 0.99) at 1e4 samples, circle counts "
        f"match the band-stacking oracle exactly",
    )


# --------------------------------------------------------------- criterion 8

def test_criterion_8_end_to_end_mission(tmp_path):
    """2-target mission: two full cycles, < 0.5 m, >= 0.99 coverage, identical
    bytes across same-seed reruns, < 60 s wall."""
    t0 = time.time()
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    report = MissionRunner(stock_scenario(2, seed=7), out_dir=out_a).run()
    MissionRunner(stock_scenario(2, seed=7), out_dir=out_b).run()
    elapsed = time.time() - t0

    cycles = [(t["from"], t["to"]) for t in report.transitions]
    expected = [("search", "fine_localize"), ("fine_localize", "map"),
                ("map", "search")] * 2
    done = [t for t in report.targets if t.status == "done"]
    byte_identical = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("report.json", "tracks.csv", "path.csv", "metrics.csv",
                     "coverage.json")
    )
    ok = (
        cycles == expected
        and report.targets_found == 2
        and len(done) == 2
        and all(t.localization_error < 0.5 for t in done)
        and all(t.coverage >= 0.99 for t in done)
        and byte_identical
        and elapsed < 60.0
    )
    errs = ", ".join(f"{t.localization_error:.2f}" for t in done)
    _report(
        "criterion 8 (end-to-end mission)",
        ok,
        f"two full cycles, errors [{errs}] m (< 0.5), coverage >= 0.99, "
        f"byte-identical reruns, {elapsed:.0f}s wall (< 60s, two runs)",
    )


# --------------------------------------------------------------- criterion 9

def test_criterion_9_degenerate_inputs():
    """Zero targets, vertical eigenvector, singular covariances, starved
    weights, and bad mapping geometry all take their documented paths."""
    from conescan.config import ConfigError, to_dict, from_dict

    details = []

    report = MissionRunner(stock_scenario(0, seed=1)).run()
    assert report.targets_total == 0 and report.exit_code == 0
    details.append("zero-target mission clean")

    circle = fine_localization_circle([0, 0, 1.0], 12.0, CAM.gamma)
    current = Waypoint(circle.point_at(0.55), 0.0)
    nbv = next_best_view(circle, np.array([0.0, 0.0, 1.0]), current, [0, 0, 1.0])
    assert circle.azimuth_of(nbv.position) == pytest.approx(0.55, abs=1e-9)
    details.append("vertical-eigenvector view keeps azimuth")

    assert bbox_entropy(0.0) == -math.inf
    assert points_entropy(
        ParticleSet(np.outer(np.linspace(0, 1, 50), [1.0, 2.0, -1.0]))
    ) == -math.inf
    with pytest.raises(ValueError):
        kl_divergence(GaussianSummary(np.zeros(3), np.eye(3)),
                      GaussianSummary(np.zeros(3), np.diag([1.0, 1.0, 0.0])))
    details.append("singular covariances signalled")

    rng = np.random.default_rng(109)
    far_cloud = ParticleSet(rng.normal([0, 0, 5], 0.1, size=(500, 3)))
    perturbed = perturb_points(far_cloud.points, rng, LocalizerConfig().update_noise_var,
                               np.empty(far_cloud.points.shape))
    result = update_particles(far_cloud, perturbed, BBox(0, 0, 4, 4), identity_pose(),
                              CAM, LocalizerConfig(), rng)
    assert result.starved and result.particles is far_cloud
    assert weight_density(np.array([[5000.0, 5000.0]]), BBox(0, 0, 4, 4),
                          LocalizerConfig())[0] == WEIGHT_FLOOR
    details.append("all-floor weights skip the update")

    data = to_dict(stock_scenario(0))
    data["camera"]["gamma"] = math.radians(15.0)
    with pytest.raises(ConfigError, match="gamma > beta/2"):
        from_dict(data)
    details.append("mapping-geometry validation names the constraint")

    _report("criterion 9 (degenerate inputs)", True, "; ".join(details))
