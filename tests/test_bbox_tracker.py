import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conescan.bbox_tracker import (
    ACTIVE,
    DEREGISTERED,
    BoxTrack,
    SimilarityEstimationError,
    TrackerConfig,
    TrackerState,
    associate_and_register,
    bbox_entropy,
    estimate_similarity,
    iou,
    predict,
    prune,
    update,
)
from conescan.geometry import BBox, to_euclidean

from conftest import scale_and_angle, similarity_matrix


def make_track(box=(0, 0, 10, 10), var=1.0, track_id=0):
    return BoxTrack(id=track_id, u=BBox(*map(float, box)), var=var)


CFG = TrackerConfig()

# Reference Kalman steps on the full 4x4 covariance, as the tracker first
# wrote them: np.diag / np.eye built per call, the state lifted to 6D.
_REF_LIFT = np.zeros((6, 4))
_REF_LIFT[[0, 1, 3, 4], [0, 1, 2, 3]] = 1.0
_REF_OFFSET = np.array([0, 0, 1, 0, 0, 1.0])
_REF_DROP = np.zeros((4, 6))
_REF_DROP[[0, 1, 2, 3], [0, 1, 3, 4]] = 1.0
_ENTROPY_OFFSET = 2.0 + 2.0 * math.log(2.0 * math.pi)


def reference_predict(u, sigma, sim, cfg, noise_scale=1.0):
    """The box and 4x4 covariance that predict's Kalman formulas give."""
    e2 = cfg.predict_noise_px**2 * noise_scale
    if sim is None:
        sigma_pred = sigma + e2 * np.eye(4)
        return u, 0.5 * (sigma_pred + sigma_pred.T)
    motion = np.zeros((6, 6))
    motion[:3, :3] = sim
    motion[3:, 3:] = sim
    process_cov = np.diag([e2, e2, 0.0, e2, e2, 0.0])
    x = _REF_LIFT @ u.as_array() + _REF_OFFSET
    omega = _REF_LIFT @ sigma @ _REF_LIFT.T
    x_pred = motion @ x
    omega_pred = motion @ omega @ motion.T + process_cov
    u_pred = to_euclidean(x_pred)
    sigma_pred = _REF_DROP @ omega_pred @ _REF_DROP.T
    return u_pred, 0.5 * (sigma_pred + sigma_pred.T)


def reference_update(u, sigma, z, cfg):
    """The box and 4x4 covariance that update's Kalman formulas give."""
    meas = z.as_array()
    measure_cov = cfg.measure_noise_px**2 * np.eye(4)
    gain = sigma @ np.linalg.inv(sigma + measure_cov)
    u_new = u.as_array() + gain @ (meas - u.as_array())
    sigma_new = (np.eye(4) - gain) @ sigma
    return BBox(*u_new), 0.5 * (sigma_new + sigma_new.T)


def reference_dereg(sigma, threshold) -> bool:
    """The entropy gate with the log-determinant of the 4x4 covariance."""
    sign, logdet = np.linalg.slogdet(sigma)
    if sign <= 0 or not np.isfinite(logdet):
        return False
    return _ENTROPY_OFFSET + 0.5 * logdet > threshold


def assert_isotropic(sigma, var, prior=0.0):
    """sigma equals var * I to 1e-12 of the larger of var and the prior
    variance: with var >> r^2 an update's 1 - k cancels digits of the prior
    in the 4x4 (I - K) sigma, which the scalar k r^2 keeps."""
    assert np.abs(sigma - var * np.eye(4)).max() <= 1e-12 * max(var, prior)


def assert_same_box(out, ref, rel=0.0):
    """Boxes equal byte for byte, or to rel of their largest coordinate."""
    a, b = out.as_array(), ref.as_array()
    if rel == 0.0:
        assert a.tobytes() == b.tobytes()
    else:
        assert np.abs(a - b).max() <= rel * max(1.0, float(np.abs(b).max()))


def reference_similarity(prev_points, curr_points):
    """The least-squares similarity with np.mean and np.sum(pc**2), as first
    written."""
    p, q = np.asarray(prev_points, dtype=float), np.asarray(curr_points, dtype=float)
    p_mean, q_mean = p.mean(axis=0), q.mean(axis=0)
    pc, qc = p - p_mean, q - q_mean
    spread = float(np.sum(pc**2))
    dot = float(np.sum(pc * qc))
    cross = float(np.sum(pc[:, 0] * qc[:, 1] - pc[:, 1] * qc[:, 0]))
    scale = math.hypot(dot, cross) / spread
    theta = math.atan2(cross, dot)
    c, s = math.cos(theta), math.sin(theta)
    t = q_mean - scale * np.array([[c, -s], [s, c]]) @ p_mean
    return similarity_matrix(scale, theta, t[0], t[1])


def reference_iou(a, b):
    """Intersection-over-union through the BBox.area property."""
    iw = min(a.u_max, b.u_max) - max(a.u_min, b.u_min)
    ih = min(a.v_max, b.v_max) - max(a.v_min, b.v_min)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (a.area + b.area - inter)


def reference_associate_and_register(tracks, detections, cfg, frame=0, next_id=0):
    """Association and registration as first written: each unmatched detection
    is tested again against every active track's box."""
    active = [t for t in tracks if t.status == ACTIVE]
    pairs = []
    for t in active:
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
    new_tracks = []
    boxes = [t.u for t in active]
    for j, det in enumerate(detections):
        if j in taken_dets:
            continue
        if any(iou(det, b) >= cfg.iou_register_threshold for b in boxes):
            continue
        new_tracks.append(BoxTrack(id=next_id + len(new_tracks), u=det,
                                   var=cfg.measure_noise_px**2, spawn_frame=frame,
                                   hits=1))
        boxes.append(det)
    return assignments, new_tracks


def assert_same_track(out, ref):
    """Equal fields, with u and var compared byte for byte (signed zeros count)."""
    assert_same_box(out.u, ref.u)
    assert np.float64(out.var).tobytes() == np.float64(ref.var).tobytes()
    assert out == ref


def random_var(rng):
    """A variance drawn log-uniformly from 1e-2 to 1e4."""
    return float(10.0 ** rng.uniform(-2.0, 4.0))


def random_track(rng, var):
    u0, v0 = rng.uniform(-100, 700, size=2)
    w, h = rng.uniform(1, 200, size=2)
    return BoxTrack(id=int(rng.integers(0, 100)), u=BBox(u0, v0, u0 + w, v0 + h),
                    var=var, spawn_frame=int(rng.integers(0, 50)),
                    hits=int(rng.integers(1, 20)))


def assert_matches_reference(out, track, ref, box_rel=0.0, **changes):
    """out is track with the reference's box and covariance (as var * I) and
    the given field changes."""
    ref_u, ref_sigma = ref
    assert_same_box(out.u, ref_u, box_rel)
    assert_isotropic(ref_sigma, out.var, prior=track.var)
    assert dataclasses.replace(out, u=track.u, var=track.var) == dataclasses.replace(
        track, **changes)


class TestPredict:
    def test_identity_zero_noise_is_noop(self):
        cfg = TrackerConfig(predict_noise_px=1e-12)
        track = make_track(var=2.5)
        out = predict(track, None, cfg)
        assert out.u.as_array() == pytest.approx(track.u.as_array())
        assert out.var == pytest.approx(track.var, abs=1e-20)

    def test_pure_translation(self):
        # hand-applied homogeneous motion: every coordinate shifts, the
        # variance grows by the process noise only
        track = make_track((0, 0, 10, 10), var=2.5)
        sim = similarity_matrix(1.0, 0.0, 5.0, 3.0)
        out = predict(track, sim, CFG)
        assert out.u.as_array() == pytest.approx([5, 3, 15, 13], abs=1e-9)
        e2 = CFG.predict_noise_px**2
        assert out.var == pytest.approx(2.5 + e2, abs=1e-9)

    def test_uniform_scale_about_origin(self):
        track = make_track((1, 2, 3, 4), var=1.0)
        sim = similarity_matrix(2.0, 0.0, 0.0, 0.0)
        out = predict(track, sim, CFG)
        assert out.u.as_array() == pytest.approx([2, 4, 6, 8], abs=1e-9)
        e2 = CFG.predict_noise_px**2
        assert out.var == pytest.approx(4.0 + e2, abs=1e-9)

    def test_matches_direct_matrix_oracle(self):
        # independent route: explicit lift/drop matrices applied by hand
        rng = np.random.default_rng(0)
        lift = np.zeros((6, 4))
        lift[[0, 1, 3, 4], [0, 1, 2, 3]] = 1.0
        offset = np.array([0, 0, 1, 0, 0, 1.0])
        drop = np.zeros((4, 6))
        drop[[0, 1, 2, 3], [0, 1, 3, 4]] = 1.0
        for _ in range(50):
            track = make_track(
                (0, 0, 10 + rng.uniform(1, 5), 10 + rng.uniform(1, 5)),
                var=rng.uniform(0.5, 4),
            )
            sim = similarity_matrix(
                rng.uniform(0.8, 1.2), rng.uniform(-0.2, 0.2),
                rng.uniform(-5, 5), rng.uniform(-5, 5),
            )
            motion = np.zeros((6, 6))
            motion[:3, :3] = sim
            motion[3:, 3:] = sim
            e2 = CFG.predict_noise_px**2
            noise = np.diag([e2, e2, 0, e2, e2, 0])
            x = lift @ track.u.as_array() + offset
            expected_u = drop @ (motion @ x)
            expected_sigma = drop @ (
                motion @ (lift @ (track.var * np.eye(4)) @ lift.T) @ motion.T + noise
            ) @ drop.T
            out = predict(track, sim, CFG)
            assert out.u.as_array() == pytest.approx(expected_u, abs=1e-9)
            assert out.var * np.eye(4) == pytest.approx(expected_sigma, abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), noise_scale=st.sampled_from([1.0, 4.0]))
    def test_identity_shortcut_equals_full_path(self, seed, noise_scale):
        # None skips the motion; np.eye(3) takes the full homogeneous path,
        # and both must give the same bits
        rng = np.random.default_rng(seed)
        u0, v0 = rng.uniform(-100, 700, size=2)
        w, h = rng.uniform(1, 200, size=2)
        track = BoxTrack(id=5, u=BBox(u0, v0, u0 + w, v0 + h), var=random_var(rng),
                         spawn_frame=2, hits=3)
        fast = predict(track, None, CFG, noise_scale=noise_scale)
        full = predict(track, np.eye(3), CFG, noise_scale=noise_scale)
        assert_same_track(fast, full)
        assert fast.u == track.u

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           noise_scale=st.sampled_from([1.0, 4.0, 0.5]),
           kind=st.sampled_from(["none", "similarity", "violent"]))
    def test_equals_the_reference_formulas(self, seed, noise_scale, kind):
        # the box by the bits of the lifted 6x6 formulas, the variance as
        # their covariance to 1e-12
        rng = np.random.default_rng(seed)
        cfg = TrackerConfig(predict_noise_px=float(rng.uniform(0.1, 10.0)))
        track = random_track(rng, random_var(rng))
        if kind == "none":
            sim = None
        else:
            turn = math.pi if kind == "violent" else 0.3  # pi flips the box
            sim = similarity_matrix(
                rng.uniform(0.5, 2.0), rng.uniform(-turn, turn),
                rng.uniform(-50, 50), rng.uniform(-50, 50))
        sigma = track.var * np.eye(4)
        try:
            ref = reference_predict(track.u, sigma, sim, cfg, noise_scale=noise_scale)
        except ValueError:
            with pytest.raises(ValueError):
                predict(track, sim, cfg, noise_scale=noise_scale)
            return
        assert_matches_reference(predict(track, sim, cfg, noise_scale=noise_scale),
                                 track, ref)

    @pytest.mark.parametrize("prior", ["random", "initial"])
    def test_congruence_equals_the_reference_at_any_rotation(self, prior):
        # s^2 var + e^2 is the reference congruence of var * I to 1e-12, and
        # the box keeps its bits, for rotations across +-pi and scales 0.5-2,
        # on random variances and on the initial one
        rng = np.random.default_rng(13 if prior == "random" else 14)
        cfg = TrackerConfig()
        compared = 0
        for _ in range(1500):
            var = random_var(rng) if prior == "random" else cfg.measure_noise_px**2
            track = random_track(rng, var)
            sim = similarity_matrix(
                rng.uniform(0.5, 2.0), rng.uniform(-math.pi, math.pi),
                rng.uniform(-50, 50), rng.uniform(-50, 50))
            try:
                ref = reference_predict(track.u, var * np.eye(4), sim, cfg)
            except ValueError:  # turned past a right angle: the box flips
                with pytest.raises(ValueError):
                    predict(track, sim, cfg)
                continue
            assert_matches_reference(predict(track, sim, cfg), track, ref)
            compared += 1
        assert compared > 200

    def test_identity_shortcut_on_the_initial_sigma(self):
        track = make_track((3, 4, 50, 60), var=CFG.measure_noise_px**2)
        for scale in (1.0, 4.0):
            fast = predict(track, None, CFG, noise_scale=scale)
            full = predict(track, np.eye(3), CFG, noise_scale=scale)
            assert_same_track(fast, full)

    def test_shared_identity_skips_the_homogeneous_path(self, monkeypatch):
        def refuse(x):
            raise AssertionError("identity predict went through homogeneous coordinates")

        monkeypatch.setattr("conescan.bbox_tracker.to_euclidean", refuse)
        out = predict(make_track(), None, CFG, noise_scale=4.0)
        e2 = 4.0 * CFG.predict_noise_px**2
        assert out.var == 1.0 + e2


class TestUpdate:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_equals_the_reference_formulas(self, seed):
        # the scalar gain is the 4x4 gain of var * I to rounding; the fused
        # detection counts one hit
        rng = np.random.default_rng(seed)
        cfg = TrackerConfig(measure_noise_px=float(rng.uniform(0.1, 10.0)))
        track = random_track(rng, random_var(rng))
        shift = rng.normal(0.0, 5.0, size=4)
        b = track.u
        z = BBox(b.u_min + shift[0], b.v_min + shift[1],
                 b.u_max + max(shift[2], shift[0]) + 1.0,
                 b.v_max + max(shift[3], shift[1]) + 1.0)
        ref = reference_update(track.u, track.var * np.eye(4), z, cfg)
        out = update(track, z, cfg)
        assert_matches_reference(out, track, ref, box_rel=1e-12, hits=track.hits + 1)

    @pytest.mark.parametrize("r", [0.1, 1.0, 4.0])
    @pytest.mark.parametrize("ratio", [1.0, 50.0, 1e3, 1e6, 1e9])
    def test_posterior_variance_is_exact_to_a_few_ulp(self, ratio, r):
        # var r^2 / (var + r^2) in exact rationals; (1 - k) var, where 1 - k
        # cancels, was 2.7e-8 of it off at var = 1e9 r^2 and 19 ulp at 50 r^2
        var = ratio * r * r
        out = update(make_track(var=var), BBox(1, 1, 11, 11), TrackerConfig(measure_noise_px=r))
        v, r2 = Fraction(var), Fraction(r) ** 2
        exact = float(v * r2 / (v + r2))
        assert abs(out.var - exact) <= 4 * math.ulp(exact)

    def test_zero_prior_covariance_ignores_measurement(self):
        track = make_track((0, 0, 10, 10), var=0.0)
        out = update(track, BBox(5, 5, 15, 15), CFG)
        assert out.u == track.u
        assert out.var == pytest.approx(0.0)

    def test_equal_covariances_give_midpoint(self):
        w2 = CFG.measure_noise_px**2
        track = make_track((0, 0, 10, 10), var=w2)
        out = update(track, BBox(4, 4, 14, 14), CFG)
        assert out.u.as_array() == pytest.approx([2, 2, 12, 12], abs=1e-9)

    def test_hand_arithmetic_gain(self):
        # K = 100 / (100 + 25) = 0.8 per coordinate
        cfg = TrackerConfig(measure_noise_px=5.0)
        track = make_track((0, 0, 10, 10), var=100.0)
        out = update(track, BBox(4, 4, 14, 14), cfg)
        assert out.u.as_array() == pytest.approx([3.2, 3.2, 13.2, 13.2], abs=1e-9)
        assert out.var == pytest.approx(20.0, abs=1e-9)

    def test_trace_strictly_decreases(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            var = float(np.sum(rng.standard_normal(4) ** 2)) / 4.0 + 0.1
            out = update(make_track(var=var), BBox(1, 1, 11, 11), CFG)
            assert 4.0 * out.var < 4.0 * var


class TestIoU:
    def test_identical(self):
        assert iou(BBox(0, 0, 10, 10), BBox(0, 0, 10, 10)) == 1.0

    def test_disjoint(self):
        assert iou(BBox(0, 0, 10, 10), BBox(20, 20, 30, 30)) == 0.0

    def test_third_overlap(self):
        assert iou(BBox(0, 0, 10, 10), BBox(5, 0, 15, 10)) == pytest.approx(1 / 3)

    def test_rasterized_pixel_counting_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = np.sort(rng.integers(0, 40, size=2))
            b = np.sort(rng.integers(0, 40, size=2))
            if a[0] == a[1] or b[0] == b[1]:
                continue
            c = np.sort(rng.integers(0, 40, size=2))
            d = np.sort(rng.integers(0, 40, size=2))
            if c[0] == c[1] or d[0] == d[1]:
                continue
            box1 = BBox(a[0], b[0], a[1], b[1])
            box2 = BBox(c[0], d[0], c[1], d[1])
            in1 = np.zeros((40, 40), dtype=bool)
            in2 = np.zeros((40, 40), dtype=bool)
            in1[int(a[0]):int(a[1]), int(b[0]):int(b[1])] = True
            in2[int(c[0]):int(c[1]), int(d[0]):int(d[1])] = True
            union = np.logical_or(in1, in2).sum()
            inter = np.logical_and(in1, in2).sum()
            expected = 0.0 if union == 0 else inter / union
            assert iou(box1, box2) == pytest.approx(expected)

    def test_equals_the_area_form(self):
        # the inlined areas keep BBox.area's order of operations
        rng = np.random.default_rng(11)
        boxes = []
        for _ in range(300):
            u0, v0 = rng.uniform(-50, 700, size=2)
            w, h = rng.uniform(1e-3, 300, size=2)
            boxes.append(BBox(u0, v0, u0 + w, v0 + h))
        for a in boxes[:60]:
            for b in boxes:
                assert iou(a, b) == reference_iou(a, b)

    @given(st.floats(-100, 100), st.floats(-100, 100),
           st.floats(1, 50), st.floats(1, 50),
           st.floats(-100, 100), st.floats(-100, 100),
           st.floats(1, 50), st.floats(1, 50))
    def test_symmetric_and_bounded(self, u1, v1, w1, h1, u2, v2, w2, h2):
        a = BBox(u1, v1, u1 + w1, v1 + h1)
        b = BBox(u2, v2, u2 + w2, v2 + h2)
        assert iou(a, b) == iou(b, a)
        assert 0.0 <= iou(a, b) <= 1.0 + 1e-12


class TestAssociation:
    def test_empty_tracks_register_all(self):
        assignments, new = associate_and_register(
            [], [BBox(0, 0, 10, 10), BBox(50, 50, 60, 60)], CFG
        )
        assert assignments == {}
        assert len(new) == 2
        assert new[0].id == 0 and new[1].id == 1

    def test_identical_detection_assigned_not_registered(self):
        track = make_track((0, 0, 10, 10))
        assignments, new = associate_and_register([track], [BBox(0, 0, 10, 10)], CFG)
        assert assignments == {0: 0}
        assert new == []

    def test_greedy_competition_drops_loser(self):
        # two detections over one track: IoU 0.8 wins, the 0.6 one is neither
        # assigned nor registered because it still overlaps above threshold
        track = make_track((0, 0, 10, 10))
        det_hi = BBox(0, 0, 10, 9)   # IoU 0.9
        det_lo = BBox(0, 3, 10, 10)  # IoU 0.7 vs track
        assignments, new = associate_and_register([track], [det_hi, det_lo], CFG)
        assert assignments == {0: 0}
        assert new == []

    def test_each_track_at_most_one_detection(self):
        tracks = [make_track((0, 0, 10, 10), track_id=0),
                  make_track((100, 0, 110, 10), track_id=1)]
        dets = [BBox(0, 0, 10, 10), BBox(100, 0, 110, 10), BBox(1, 0, 11, 10)]
        assignments, new = associate_and_register(tracks, dets, CFG)
        assert assignments == {0: 0, 1: 1}
        assert new == []
        assert len(set(assignments.values())) == len(assignments)

    def test_coincident_detections_register_once(self):
        # sequential registration shields the second copy in the same frame
        assignments, new = associate_and_register(
            [], [BBox(0, 0, 10, 10), BBox(0, 0, 10, 10)], CFG
        )
        assert len(new) == 1


    # boxes on a coarse grid in a small image, so that overlaps, ties and
    # coincident boxes are common
    _corner = st.integers(0, 12).map(lambda k: 2.5 * k)
    _side = st.integers(1, 8).map(lambda k: 2.5 * k)
    _box = st.builds(lambda u, v, w, h: BBox(u, v, u + w, v + h),
                     _corner, _corner, _side, _side)

    @settings(max_examples=300, deadline=None)
    @given(track_boxes=st.lists(_box, max_size=8),
           detections=st.lists(_box, max_size=10),
           threshold=st.sampled_from([0.05, 0.3, 0.5, 0.9]))
    def test_equals_the_reference_rule(self, track_boxes, detections, threshold):
        # the live bank, as TrackerState.step passes it
        tracks = [dataclasses.replace(make_track(track_id=i), u=box)
                  for i, box in enumerate(track_boxes)]
        cfg = TrackerConfig(iou_register_threshold=threshold)
        out = associate_and_register(tracks, detections, cfg, frame=3, next_id=20)
        ref = reference_associate_and_register(tracks, detections, cfg, frame=3,
                                               next_id=20)
        assert out[0] == ref[0]
        assert len(out[1]) == len(ref[1])
        for got, want in zip(out[1], ref[1]):
            assert_same_track(got, want)

    def test_each_overlap_computed_once(self, monkeypatch):
        calls = []

        def counting_iou(a, b):
            calls.append((a, b))
            return iou(a, b)

        monkeypatch.setattr("conescan.bbox_tracker.iou", counting_iou)
        tracks = [make_track((0, 0, 10, 10), track_id=0),
                  make_track((100, 0, 110, 10), track_id=1),
                  make_track((200, 0, 210, 10), track_id=2)]
        dets = [BBox(0, 0, 10, 9),      # matches track 0
                BBox(0, 3, 10, 10),     # loses track 0 to the first detection
                BBox(400, 0, 410, 10),  # registers
                BBox(500, 0, 510, 10)]  # registers after one test against the last
        assignments, new = associate_and_register(tracks, dets, CFG)
        assert assignments == {0: 0}
        assert [t.u for t in new] == dets[2:]
        # 3 live tracks x 4 detections, then one test of the last detection
        # against the track registered before it in this frame
        assert len(calls) == 3 * 4 + 1


class TestEntropy:
    def test_identity(self):
        expected = 2.0 + 2.0 * math.log(2 * math.pi)
        assert bbox_entropy(1.0) == pytest.approx(expected, abs=1e-12)
        assert bbox_entropy(1.0) == pytest.approx(5.675754, abs=1e-6)

    def test_scaled_identity(self):
        # ln|4I| = 4 ln 4 = ln 256
        expected = 2.0 + 2.0 * math.log(2 * math.pi) + 0.5 * math.log(256.0)
        assert bbox_entropy(4.0) == pytest.approx(expected, abs=1e-12)

    def test_singular_returns_minimal_value(self):
        assert bbox_entropy(0.0) == -math.inf
        assert bbox_entropy(-1.0) == -math.inf

    def test_matches_logdet_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            var = random_var(rng)
            eigs = np.linalg.eigvalsh(var * np.eye(4))
            oracle = 2.0 + 2.0 * math.log(2 * math.pi) + 0.5 * math.log(np.prod(eigs))
            assert bbox_entropy(var) == pytest.approx(oracle, rel=1e-9)


class TestPrune:
    def test_fully_outside_deregistered(self):
        track = make_track((-30, -30, -10, -10))
        out = prune([track], (640, 480), CFG)
        assert out[0].status == DEREGISTERED
        assert out[0].dereg_reason == "bounds"

    def test_half_inside_retained(self):
        track = make_track((-5, 100, 5, 110))
        out = prune([track], (640, 480), CFG)
        assert out[0].status == ACTIVE

    def test_entropy_crossing_count_matches_arithmetic_oracle(self):
        # with identity motion and no updates the per-coordinate variance grows
        # by e^2 (inflated x4) per predict; find the crossing frame two ways
        cfg = TrackerConfig()
        scale = 4.0
        var0 = cfg.measure_noise_px**2
        track = make_track(var=var0)
        steps = 0
        while bbox_entropy(track.var) <= cfg.entropy_dereg_threshold:
            track = predict(track, None, cfg, noise_scale=scale)
            steps += 1
            assert steps < 500

        grow = scale * cfg.predict_noise_px**2
        n = 1
        while (2.0 + 2.0 * math.log(2 * math.pi)
               + 2.0 * math.log(var0 + n * grow)) <= cfg.entropy_dereg_threshold:
            n += 1
        assert steps == n

        pruned = prune([track], (640, 480), cfg)
        assert pruned[0].status == DEREGISTERED
        assert pruned[0].dereg_reason == "entropy"

    @settings(max_examples=400, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["near_gate", "random", "zero"]),
           offset=st.sampled_from([-1e-3, -2e-9, -1e-9, -1e-12, 1e-12, 1e-9, 2e-9,
                                   1e-3]))
    def test_gate_equals_the_log_determinant(self, seed, kind, offset):
        # the threshold is put next to the entropy of var * I, at a variance
        # whose entropy is about the stock 19 or anywhere; the decision must be
        # the slogdet one. The two entropies differ by rounding, below 1e-14
        # nats, so a threshold within that of the entropy may fall either way
        rng = np.random.default_rng(seed)
        if kind == "near_gate":
            var = math.exp((19.0 - _ENTROPY_OFFSET) / 2.0) * rng.uniform(0.999, 1.001)
        elif kind == "random":
            var = random_var(rng)
        else:
            var = 0.0
        sigma = var * np.eye(4)
        if kind == "zero":
            threshold = 19.0 + offset
        else:
            threshold = _ENTROPY_OFFSET + 0.5 * np.linalg.slogdet(sigma)[1] + offset
        track = make_track((10, 10, 50, 50), var=var)
        out = prune([track], (640, 480), TrackerConfig(entropy_dereg_threshold=threshold),
                    frame=7)[0]
        if reference_dereg(sigma, threshold):
            assert (out.status, out.dereg_reason, out.dereg_frame) == (
                DEREGISTERED, "entropy", 7)
        else:
            assert (out.status, out.dereg_reason, out.dereg_frame) == (ACTIVE, "", None)
            assert out is track


class TestEstimateSimilarity:
    def test_pure_translation(self):
        prev = np.array([[0, 0], [10, 0], [0, 10], [10, 10.0]])
        curr = prev + [3, -2]
        m = estimate_similarity(prev, curr)
        scale, theta = scale_and_angle(m)
        assert scale == pytest.approx(1.0, abs=1e-12)
        assert theta == pytest.approx(0.0, abs=1e-12)
        assert m[:2, 2] == pytest.approx([3, -2], abs=1e-12)

    def test_pure_scale(self):
        prev = np.array([[1, 1], [-1, 1], [1, -1], [-1, -1.0]])
        scale, theta = scale_and_angle(estimate_similarity(prev, 1.5 * prev))
        assert scale == pytest.approx(1.5, abs=1e-12)
        assert theta == pytest.approx(0.0, abs=1e-12)

    def test_exact_recovery(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            truth = similarity_matrix(
                rng.uniform(0.5, 2.0), rng.uniform(-math.pi, math.pi),
                rng.uniform(-20, 20), rng.uniform(-20, 20),
            )
            prev = rng.uniform(-30, 30, size=(10, 2))
            hom = np.column_stack([prev, np.ones(10)])
            curr = (truth @ hom.T).T[:, :2]
            est = estimate_similarity(prev, curr)
            assert est == pytest.approx(truth, abs=1e-9)

    def test_noisy_recovery_within_standard_error(self):
        rng = np.random.default_rng(5)
        sigma, n = 0.5, 200
        truth = similarity_matrix(1.1, 0.05, 4.0, -7.0)
        spread = 40.0
        prev = rng.uniform(-spread, spread, size=(n, 2))
        prev -= prev.mean(axis=0)  # centered: translation error decouples
        hom = np.column_stack([prev, np.ones(n)])
        curr = (truth @ hom.T).T[:, :2]
        curr += sigma * rng.standard_normal((n, 2))
        est = estimate_similarity(prev, curr)
        bound = 3 * sigma / math.sqrt(n)
        assert abs(est[0, 2] - 4.0) < bound
        assert abs(est[1, 2] + 7.0) < bound
        r_rms = math.sqrt(np.mean(np.sum(prev**2, axis=1)))
        angular_bound = 3 * sigma / (r_rms * math.sqrt(n))
        scale, theta = scale_and_angle(est)
        assert abs(theta - 0.05) < angular_bound
        assert abs(scale - 1.1) < 3 * angular_bound

    def test_equals_the_reference_arithmetic(self):
        # np.add.reduce over the rows divided by the count is np.mean's own
        # arithmetic, and pc * pc sums as pc**2 does, at every KLT pair size
        rng = np.random.default_rng(12)
        for n in range(2, 201):
            for _ in range(3):
                prev = rng.uniform(-50, 700, size=(n, 2))
                truth = similarity_matrix(
                    rng.uniform(0.5, 2.0), rng.uniform(-math.pi, math.pi),
                    rng.uniform(-50, 50), rng.uniform(-50, 50))
                curr = prev @ truth[:2, :2].T + truth[:2, 2]
                curr += rng.standard_normal((n, 2))
                out = estimate_similarity(prev, curr)
                assert out.tobytes() == reference_similarity(prev, curr).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 60),
           related=st.booleans())
    def test_result_is_an_exact_similarity(self, seed, n, related):
        # the matrix is the formula of the old similarity type's from_params
        # on the fitted scale, angle and translation, exact to the bit
        rng = np.random.default_rng(seed)
        prev = rng.uniform(-50, 700, size=(n, 2))
        if related:
            truth = similarity_matrix(
                rng.uniform(0.5, 2.0), rng.uniform(-math.pi, math.pi),
                rng.uniform(-50, 50), rng.uniform(-50, 50))
            curr = prev @ truth[:2, :2].T + truth[:2, 2] + rng.standard_normal((n, 2))
        else:
            curr = rng.uniform(-50, 700, size=(n, 2))
        m = estimate_similarity(prev, curr)
        assert m.shape == (3, 3) and m.dtype == np.float64
        assert m[2].tolist() == [0.0, 0.0, 1.0]
        assert m[0, 0] == m[1, 1]
        assert m[0, 1] == -m[1, 0]
        assert m.tobytes() == reference_similarity(prev, curr).tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["prev", "curr"])
    def test_non_finite_correspondences_raise(self, bad, side):
        prev = np.array([[0, 0], [10, 0], [0, 10], [10, 10.0]])
        curr = prev + [3, -2]
        (prev if side == "prev" else curr)[2, 1] = bad
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(SimilarityEstimationError):
                estimate_similarity(prev, curr)
        assert caught == []

    def test_too_few_points(self):
        # empty lists divided 0 by 0 for the means: two RuntimeWarnings, then
        # a misleading "must be finite"; the count is checked before the means
        for prev, curr in ((np.empty((0, 2)), np.empty((0, 2))), ([[0, 0]], [[1, 1]])):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(SimilarityEstimationError,
                                   match=rf"got {len(prev)}$"):
                    estimate_similarity(prev, curr)
            assert caught == []

    def test_coincident_points(self):
        prev = np.zeros((5, 2))
        with pytest.raises(SimilarityEstimationError):
            estimate_similarity(prev, prev + 1)


class TestFilterProperties:
    def test_covariance_stays_psd_through_sequences(self):
        # the variance is the covariance's one eigenvalue
        rng = np.random.default_rng(6)
        for _ in range(100):
            track = make_track((0, 0, 20, 20), var=CFG.measure_noise_px**2)
            for _ in range(30):
                if rng.uniform() < 0.5:
                    sim = similarity_matrix(
                        rng.uniform(0.9, 1.1), rng.uniform(-0.1, 0.1),
                        rng.uniform(-3, 3), rng.uniform(-3, 3))
                    track = predict(track, sim, CFG)
                else:
                    shift = rng.uniform(-2, 2, size=2)
                    z = BBox(track.u.u_min + shift[0], track.u.v_min + shift[1],
                             track.u.u_max + shift[0], track.u.v_max + shift[1])
                    track = update(track, z, CFG)
                assert track.var >= -1e-9

    def test_repeated_updates_converge_monotonically(self):
        track = make_track((0, 0, 10, 10), var=50.0)
        z = BBox(5, 5, 15, 15)
        errs = []
        for _ in range(20):
            track = update(track, z, CFG)
            errs.append(np.abs(track.u.as_array() - z.as_array()))
        for prev, curr in zip(errs, errs[1:]):
            assert np.all(curr <= prev + 1e-12)

    def test_entropy_monotone_under_predict_and_update(self):
        track = make_track((0, 0, 10, 10), var=CFG.measure_noise_px**2)
        h0 = bbox_entropy(track.var)
        predicted = predict(track, None, CFG)
        assert bbox_entropy(predicted.var) >= h0
        updated = update(predicted, BBox(1, 1, 11, 11), CFG)
        assert bbox_entropy(updated.var) <= bbox_entropy(predicted.var)

    _step = st.one_of(
        st.tuples(st.just("similarity"), st.floats(0.5, 2.0),
                  st.floats(-math.pi, math.pi), st.floats(-50, 50), st.floats(-50, 50)),
        st.tuples(st.just("fallback")),
        st.tuples(st.just("update"), st.lists(st.floats(-5, 5), min_size=4, max_size=4)),
    )

    @settings(max_examples=300, deadline=None)
    @given(steps=st.lists(_step, min_size=1, max_size=15),
           measure_noise=st.floats(0.1, 10.0), predict_noise=st.floats(0.1, 10.0),
           gate=st.sampled_from([-1e-3, -1e-9, 1e-9, 1e-3]))
    def test_scalar_filter_equals_the_4x4_filter(self, steps, measure_noise,
                                                  predict_noise, gate):
        # at each state that random sequences of TrackerState.step's steps
        # reach (a similarity predict, where a flipped box falls back, a
        # fallback predict and an update), the scalar step is the 4x4 Kalman
        # step of var * I. Each step starts both from the scalar state, as a
        # cancellation in one update would leave the 4x4 chain's later
        # covariances off var * I by more than their own rounding
        cfg = TrackerConfig(measure_noise_px=measure_noise,
                            predict_noise_px=predict_noise)
        track = make_track((100, 50, 180, 120), var=measure_noise**2)
        for kind, *args in steps:
            prior = track.var
            u, sigma = track.u, prior * np.eye(4)
            if kind == "similarity":
                sim = similarity_matrix(*args)
                try:
                    ref = reference_predict(u, sigma, sim, cfg)
                except ValueError:
                    with pytest.raises(ValueError):
                        predict(track, sim, cfg)
                    kind = "fallback"
                else:
                    track = predict(track, sim, cfg)
            if kind == "fallback":
                ref = reference_predict(u, sigma, None, cfg, noise_scale=4.0)
                track = predict(track, None, cfg, noise_scale=4.0)
            elif kind == "update":
                s = args[0]
                z = BBox(u.u_min + s[0], u.v_min + s[1], u.u_max + max(s[2], s[0]) + 1.0,
                         u.v_max + max(s[3], s[1]) + 1.0)
                ref = reference_update(u, sigma, z, cfg)
                track = update(track, z, cfg)
            u, sigma = ref
            assert_same_box(track.u, u, rel=1e-9)
            assert_isotropic(sigma, track.var, prior)
            threshold = _ENTROPY_OFFSET + 0.5 * np.linalg.slogdet(sigma)[1] + gate
            gate_cfg = TrackerConfig(entropy_dereg_threshold=threshold)
            inside = dataclasses.replace(track, u=BBox(10, 10, 50, 50))
            out = prune([inside], (640, 480), gate_cfg)[0]
            assert (out.dereg_reason == "entropy") == reference_dereg(sigma, threshold)


class TestTrackerState:
    def test_step_spawns_updates_and_prunes(self):
        state = TrackerState(CFG, (640, 480))
        state.step([BBox(10, 10, 30, 30)], {}, frame=1)
        assert len(state.active()) == 1
        updated = state.step([BBox(11, 11, 31, 31)], {}, frame=2)
        assert updated == {0}
        assert state.active()[0].hits == 2

    def test_unseen_track_eventually_entropy_pruned(self):
        state = TrackerState(CFG, (640, 480))
        state.step([BBox(10, 10, 30, 30)], {}, frame=1)
        for frame in range(2, 80):
            state.step([], {}, frame)
            if not state.active():
                break
        dead = state.tracks[0]
        assert dead.status == DEREGISTERED
        assert dead.dereg_reason == "entropy"
        assert frame - dead.spawn_frame <= 50

    def test_bank_order_and_live_only_work(self, monkeypatch):
        seen = []  # ids of the tracks passed to predict and prune in one step

        def spy(fn):
            def wrapped(tracks, *args, **kwargs):
                seen.extend(t.id for t in (tracks if isinstance(tracks, list) else [tracks]))
                return fn(tracks, *args, **kwargs)
            return wrapped

        monkeypatch.setattr("conescan.bbox_tracker.predict", spy(predict))
        monkeypatch.setattr("conescan.bbox_tracker.prune", spy(prune))
        state = TrackerState(CFG, (640, 480))
        box_a = BBox(10, 10, 30, 30)
        box_b = BBox(200, 200, 230, 230)
        box_c = BBox(400, 100, 430, 130)
        # track 1 (box_b) goes unseen and retires first; track 0 (box_a) later
        schedule = [[box_a, box_b]] + [[box_a]] * 60 + [[]] * 60 + [[box_c]] * 2
        for frame, dets in enumerate(schedule, start=1):
            retired_ids = {t.id for t in state.retired}
            seen.clear()
            state.step(dets, {}, frame)
            assert retired_ids.isdisjoint(seen)
            assert all(t.status == ACTIVE for t in state.active())
            assert retired_ids.isdisjoint(t.id for t in state.active())
        assert [t.id for t in state.retired] == [1, 0]
        assert [t.id for t in state.tracks] == [0, 1, 2]
        assert [t.status for t in state.tracks] == [DEREGISTERED, DEREGISTERED, ACTIVE]
        assert [t.id for t in state.active()] == [2]
