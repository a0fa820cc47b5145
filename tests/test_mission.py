import csv
import dataclasses
import gc
import hashlib
import json
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from conescan import bbox_tracker, localizer, mission, simulator
from conescan.config import ConfigError, default_scenario
from conescan.geometry import BBox, camera_to_world_pose
from conescan.localizer import LocalizerConfig, TargetHypothesis, enlarge, generate_particles
from conescan.mission import (
    EXIT_OK,
    EXIT_UNCONVERGED,
    MissionRunner,
    emit_plot_data,
    run_scenario,
)
from conescan.view_planner import lawnmower_path


@pytest.fixture(scope="module")
def one_target_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("one_target")
    cfg = default_scenario(1, seed=3)
    report = run_scenario(cfg, out_dir=out)
    return cfg, report, out


@pytest.fixture(scope="module")
def two_target_mission(tmp_path_factory):
    out = tmp_path_factory.mktemp("two_target")
    runner = MissionRunner(default_scenario(2, seed=7), out_dir=out)
    report = runner.run()
    return runner, report, out


@pytest.fixture(scope="module")
def two_target_run(two_target_mission):
    runner, report, out = two_target_mission
    return runner.cfg, report, out


@pytest.fixture(scope="module")
def failure_run(tmp_path_factory):
    """The one-target mission with a fine gate no cloud can pass, so that every
    fine phase fails; it ends with failed hypotheses and `final` snapshots."""
    out = tmp_path_factory.mktemp("failure")
    cfg = default_scenario(1, seed=3)
    cfg.localizer = LocalizerConfig(update_noise_var=0.01, lambda_fine=1e-9)
    runner = MissionRunner(cfg, out_dir=out, dump_particles=True)
    report = runner.run()
    return runner, report, out


@pytest.fixture(scope="module")
def crowded_fine_run(tmp_path_factory):
    """The two-target mission at seed 2, whose fine phases run while another
    hypothesis is live; returns the frames of those fine-phase localizations."""
    out = tmp_path_factory.mktemp("crowded_fine")
    crowded = []

    class Counting(MissionRunner):
        def _localize_from_track(self, *args):
            if (self.mode == mission.FINE_LOCALIZE
                    and any(h is not self.active for h in self.hypotheses)):
                crowded.append(self.frame)
            return super()._localize_from_track(*args)

    report = Counting(default_scenario(2, seed=2), out_dir=out).run()
    return crowded, report, out


@pytest.fixture(scope="module")
def fp_heavy_run(tmp_path_factory):
    """One target under a false-positive storm for 60 s: about 45 live tracks a
    frame, so fallback predicts, many-track association and prune all run hard."""
    out = tmp_path_factory.mktemp("fp_heavy")
    cfg = default_scenario(1, seed=5)
    cfg.noise.false_positive_rate = 1.0
    cfg.noise.detect_prob = 0.6
    cfg.mission.max_sim_time = 60.0
    runner = MissionRunner(cfg, out_dir=out)
    report = runner.run()
    return runner, report, out


def mode_pairs(report):
    return [(t["from"], t["to"]) for t in report.transitions]


class TestZeroTargets:
    def test_pure_lawnmower_traversal(self, tmp_path):
        cfg = default_scenario(0, seed=1)
        report = run_scenario(cfg, out_dir=tmp_path)
        assert report.targets_total == 0 and report.targets_found == 0
        assert report.exit_code == EXIT_OK
        assert report.transitions == []
        assert report.duration_s > 0


class TestOneTarget:
    def test_single_full_cycle(self, one_target_run):
        _, report, _ = one_target_run
        assert mode_pairs(report) == [
            ("search", "fine_localize"),
            ("fine_localize", "map"),
            ("map", "search"),
        ]
        assert report.targets_found == 1
        assert report.exit_code == EXIT_OK

    def test_done_target_quality(self, one_target_run):
        _, report, _ = one_target_run
        done = [t for t in report.targets if t.status == "done"]
        assert len(done) == 1
        assert done[0].localization_error < 0.5
        assert done[0].coverage >= 0.99
        assert done[0].updates > 0

    def test_run_directory_layout(self, one_target_run):
        _, _, out = one_target_run
        for name in ("config.json", "report.json", "tracks.csv", "path.csv",
                     "planned_path.csv", "metrics.csv", "coverage.json"):
            assert (out / name).exists(), name
        assert list((out / "particles").glob("*.json"))

    def test_report_json_matches_object(self, one_target_run):
        _, report, out = one_target_run
        on_disk = json.loads((out / "report.json").read_text())
        assert on_disk == json.loads(json.dumps(report.to_dict()))

    def test_coverage_json_shape(self, one_target_run):
        _, _, out = one_target_run
        payloads = json.loads((out / "coverage.json").read_text())
        assert len(payloads) == 1
        entry = payloads[0]
        assert entry["covered_fraction"] >= 0.99
        assert entry["circle_altitudes"]
        assert isinstance(entry["uncovered_samples"], list)

    def test_resume_waypoint_matches_recorded_index(self, one_target_run):
        cfg, report, _ = one_target_run
        resumes = [t for t in report.transitions if t["to"] == "search"]
        assert resumes
        search_path = lawnmower_path(cfg.region, cfg.search_altitude, cfg.camera,
                                     cfg.planner.overlap)
        indices = [t["resume_index"] for t in resumes]
        assert indices == sorted(indices)
        for t in resumes:
            assert 0 <= t["resume_index"] < len(search_path)

    def test_status_snapshots_exist(self, one_target_run):
        _, report, out = one_target_run
        snaps = sorted((out / "particles").glob("*.json"))
        done_ids = {t.target_id for t in report.targets if t.status == "done"}
        for tid in done_ids:
            tagged = [s for s in snaps if f"target{tid:03d}" in s.name]
            assert any(s.name.endswith("_registered.json") for s in tagged)
            assert any(s.name.endswith("_done.json") for s in tagged)
        payload = json.loads(snaps[0].read_text())
        assert set(payload) == {"target_id", "frame", "points", "eigenvalues",
                                "entropy", "kl", "status"}
        assert len(payload["points"][0]) == 3


class TestTwoTargets:
    def test_two_complete_cycles(self, two_target_run):
        _, report, _ = two_target_run
        assert mode_pairs(report) == [
            ("search", "fine_localize"), ("fine_localize", "map"), ("map", "search"),
            ("search", "fine_localize"), ("fine_localize", "map"), ("map", "search"),
        ]
        assert report.targets_found == 2

    def test_no_target_mapped_twice(self, two_target_run):
        _, report, _ = two_target_run
        mapped = [t["target"] for t in report.transitions if t["to"] == "map"]
        assert len(mapped) == len(set(mapped))

    def test_transition_order_per_target(self, two_target_run):
        _, report, _ = two_target_run
        per_target = {}
        for t in report.transitions:
            if t["target"] is not None:
                per_target.setdefault(t["target"], []).append(t["to"])
        for modes in per_target.values():
            assert modes == ["fine_localize", "map"]


class TestConfigBoundary:
    # the helpers below the runner trust these values, so the runner must refuse
    # them even when a config is changed after it was built and validated
    @pytest.mark.parametrize("path, value", [
        ("planner.overlap", 1.0),
        ("region", (10.0, 0.0, 10.0, 10.0)),
        ("planner.angular_step", 0),
        ("planner.n_per_circle", 3),
        ("planner.n_surface_samples", 0),
        ("localizer.enlarge_factor", 0.5),
        ("noise.detection_latency_frames", -1),
        ("planner.standoff", 0.0),
        ("camera.gamma", math.pi / 2),
        ("camera.gamma", math.radians(15.0)),  # gamma <= beta/2 at the default beta
    ])
    def test_runner_rejects_a_value_changed_after_build(self, path, value):
        cfg = default_scenario(1, seed=3)
        if path == "region":
            cfg.region = value
        else:  # some sections are frozen, so the section is swapped whole
            section, name = path.split(".")
            setattr(cfg, section, dataclasses.replace(getattr(cfg, section), **{name: value}))
        with pytest.raises(ConfigError, match=rf"^{path}: "):
            MissionRunner(cfg)


class TestMultiLegSurvey:
    """A region three survey rows deep, with the target on the middle row."""

    @pytest.fixture(scope="class")
    def multi_leg_run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("multi_leg")
        cfg = default_scenario(1, seed=3)
        cfg.region = (0.0, 0.0, 36.0, 40.0)
        cfg.targets[0].center = (15.0, 20.0, 0.3)
        runner = MissionRunner(cfg, out_dir=out)
        return runner, runner.run(), out

    def test_three_legs_and_the_target_found(self, multi_leg_run):
        runner, report, _ = multi_leg_run
        assert len({float(wp.position[1]) for wp in runner.search_path}) == 3
        assert (report.targets_found, report.targets_total) == (1, 1)
        assert report.exit_code == EXIT_OK

    def test_resume_indices_stay_on_the_survey_and_never_decrease(self, multi_leg_run):
        runner, report, _ = multi_leg_run
        indices = [t["resume_index"] for t in report.transitions if "resume_index" in t]
        assert indices
        assert indices == sorted(indices)
        assert all(0 <= i < len(runner.search_path) for i in indices)

    def test_flown_path_reaches_every_row(self, multi_leg_run):
        runner, _, out = multi_leg_run
        with open(out / "path.csv") as fh:
            flown_y = np.array([float(r["y"]) for r in csv.DictReader(fh)])
        for row_y in {float(wp.position[1]) for wp in runner.search_path}:
            assert np.abs(flown_y - row_y).min() < 1e-6, row_y


# SHA-256 of the run-directory files of the stock missions, the failure mission
# and the false-positive mission (numpy 2.4, x86-64). A glob gets one digest over
# its files' sorted names and bytes. A change that means to alter an output
# updates its digest and says why.
GOLDEN_DIGESTS = {
    "one_target_run": {
        "report.json": "dea2dd1118802f2dc7b8b8140f1d5b8494f8eaa4b9fe3e195582b588995eafb1",
        "path.csv": "ddca79ab9520dae772583349016c26158bbd972f4e8ea71cf6a22559cb4da3fc",
        "planned_path.csv":
            "0864710a9ad3be5842ad52b5392ced7568e73462d5f7fd1bb7d8bf49ece97c1c",
        "metrics.csv": "c6c7bdefd737b3702cad699610bfda7572727067504ff8bc1af66937070ef6de",
        "coverage.json": "63006bdefdf803eb977b68bb6f685d143d8b34850f811e50723d6f2cb92e0896",
        "tracks.csv": "8d5e97863b0801cba910bf8e40dc10c98124b3f9e90dbc50ee5b82abad959685",
        "particles/*.json":
            "0aa998e085fc87fd8253e89a120f6cbf21b9f96525f7b5f8af99a84ca67591d2",
    },
    "two_target_run": {
        "report.json": "1478525f1eec31ea17e3628708e3c4f97c20f7c8aac19140ac3260df648ce6a8",
        "path.csv": "903640f7403554a0c5f34b99dcfdb9736f321031dbfd592816c5101eec86c5d7",
        "planned_path.csv":
            "5fad3e5115e1daa66a68ff0c3b6ef8bc7f66007cce970fe340b253fbec052365",
        "metrics.csv": "6bcb73721c0c46ff2a7237359439c6d46040dce5ac5517a249e5c4a2ba5bb26e",
        "coverage.json": "c0cba163c975eaac36298ce85e6b4d7eabdb5cc899283b2999909f7d036e3a61",
        "tracks.csv": "3afedfbbca79b98a97f37934748dd1eeed25d3bb8c9c5cf74f0e9be83c091af4",
        "particles/*.json":
            "b3628a2b71f3a295f082be385ff2fda849ef198b270ae34fab18c9def412dbf8",
    },
    # failed hypotheses and `final` snapshots, which the stock missions lack
    "failure_run": {
        "report.json": "791ea5577241478c8b7a43208c6337bc1da33619ba75b1518d7c21f12de3216f",
        "particles/*.json":
            "8bee766ff0b6fa2d88702d61b537a2d753bfeb5ffcc3ee99f98db97706cab8f8",
    },
    # fine phases with a second live hypothesis, which no other digested
    # mission has; recorded while every fine-phase box still tested every cloud
    "crowded_fine_run": {
        "report.json": "114bdc8fc719666cdbe910c4116bde2e761e0b1fbd0f4f30867c07079e0e035a",
        "path.csv": "4ad054e7ed261cc3ac13b8f7ebde91d64701e0ada0d727d7b09aea5dc5178b59",
        "planned_path.csv":
            "29e3527a832f6d1a0f59eba5a3f764ab398a42ad050b89b7b44a2d0c29a61010",
        "metrics.csv": "f15b6c4fa984b0f72c1b488f751478c6893b2c32a33b7898609efab025b9d703",
        "tracks.csv": "cc1471bcadfdd113092c6962087909cdef8fec6d6fa1b14721c69bbc00d6d175",
    },
    # a bank of tens of tracks fed mostly by false positives
    "fp_heavy_run": {
        "report.json": "4b675b3b83e08f229d1854b1265dcf0fa21e16da45d8804bccff357142f9a7a8",
        "tracks.csv": "a85dbb7da2dc8fa70db22ac353de4ce3898552a4d7c91f2e7ada88583c001cc0",
    },
}

# the one-target mission cut while it maps (80 s) and while it fine-localizes
# (30 s), end states that no other digested mission reaches
CUT_SHORT_REPORTS = {
    80.0: ("map", "721fa7c55742058fbe290391c1090c2af430a5a64d4546fc3ad8896e2f9be929"),
    30.0: ("fine_localize",
           "c4c7869d96b5619ef7a00d55b9bd5f9790ea7065dce182d93ea95d158f0b9571"),
}

ONE_TARGET_100K_REPORT = "54f71725543a371ff32d2636dd7d1a76077872025da11ea5dfbf7624823d14be"

# the one-target mission cut at 80 s with particle dumps: its target is still
# in MAP, so it has no coverage entry yet and a `final` snapshot of a live cloud
CUT_SHORT_RUN_DIRECTORY = {
    "report.json": "721fa7c55742058fbe290391c1090c2af430a5a64d4546fc3ad8896e2f9be929",
    "coverage.json": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "particles/*.json":
        "ceb179f32d7e50920bcf289f833453435fc44e1d5ed27997c91530c31cd2cc81",
}


def _digest(out, pattern):
    sha = hashlib.sha256()
    paths = sorted(out.glob(pattern))
    assert paths, pattern
    for path in paths:
        if "*" in pattern:
            sha.update(path.name.encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


class TestGoldenDigests:
    @pytest.mark.parametrize("run", sorted(GOLDEN_DIGESTS))
    def test_run_directory_digests(self, run, request):
        _, _, out = request.getfixturevalue(run)
        digests = {name: _digest(out, name) for name in GOLDEN_DIGESTS[run]}
        assert digests == GOLDEN_DIGESTS[run]

    def test_one_target_100k_report_digest(self):
        # the stock one-target mission at the particle count where the localizer
        # dominates, run without a run directory as the benchmark runs it
        cfg = default_scenario(1, seed=3)
        cfg.localizer = dataclasses.replace(cfg.localizer, n_particles=100_000)
        text = json.dumps(run_scenario(cfg).to_dict(), indent=2, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == ONE_TARGET_100K_REPORT

    @pytest.mark.parametrize("max_sim_time", sorted(CUT_SHORT_REPORTS))
    def test_cut_short_report_digest(self, max_sim_time, tmp_path):
        mode, digest = CUT_SHORT_REPORTS[max_sim_time]
        cfg = default_scenario(1, seed=3)
        cfg.mission.max_sim_time = max_sim_time
        report = run_scenario(cfg, out_dir=tmp_path)
        assert report.transitions[-1]["to"] == mode
        assert _digest(tmp_path, "report.json") == digest

    def test_cut_short_run_directory_digest(self, tmp_path):
        cfg = default_scenario(1, seed=3)
        cfg.mission.max_sim_time = 80.0
        report = MissionRunner(cfg, out_dir=tmp_path, dump_particles=True).run()
        assert report.transitions[-1]["to"] == "map"
        digests = {name: _digest(tmp_path, name) for name in CUT_SHORT_RUN_DIRECTORY}
        assert digests == CUT_SHORT_RUN_DIRECTORY


class TestReportAgreesWithLogs:
    @pytest.mark.parametrize("run", ["two_target_run", "failure_run"])
    def test_each_finished_target_has_one_snapshot_and_one_entry(self, run, request):
        _, report, out = request.getfixturevalue(run)
        ids = [t.target_id for t in report.targets]
        assert len(ids) == len(set(ids))
        finished = {t.target_id: t.status for t in report.targets
                    if t.status in ("done", "failed")}
        assert finished
        snapshots = {}  # target id -> [(frame, tag, recorded status)]
        for path in out.glob("particles/*.json"):
            tag = path.stem.split("_", 2)[2]
            if tag in ("done", "failed"):
                data = json.loads(path.read_text())
                snapshots.setdefault(data["target_id"], []).append(
                    (data["frame"], tag, data["status"]))
        assert sorted(snapshots) == sorted(finished)
        for target_id, status in finished.items():
            [(_, tag, recorded)] = snapshots[target_id]
            assert tag == status
            # a done cloud is snapshot as it converged; a failed one as failed
            assert recorded == {"done": "converged", "failed": "failed"}[status]
        done_in_order = sorted((snapshots[i][0][0], i)
                               for i, status in finished.items() if status == "done")
        coverage = json.loads((out / "coverage.json").read_text())
        assert [c["target_id"] for c in coverage] == [i for _, i in done_in_order]


class TestCrowdedFinePhase:
    def test_fine_phases_run_beside_another_hypothesis(self, crowded_fine_run):
        crowded, report, _ = crowded_fine_run
        assert len(crowded) == 456
        assert report.targets_found == report.targets_total == 2


class TestFineLocalizeCandidates:
    """`_localize_from_track` while circling the active hypothesis."""

    BOX = BBox(280.0, 200.0, 360.0, 290.0)

    @pytest.fixture
    def scene(self):
        runner = MissionRunner(default_scenario(2, seed=7))
        cam, lcfg = runner.cam, runner.cfg.localizer
        est_c2w = camera_to_world_pose(np.array([0.0, -12.0, 12.0]), math.pi / 2,
                                       cam.gamma)
        away = est_c2w.translation + [5.0, 0.0, 0.0]  # past the 3 m baseline

        def hypothesis(target_id, last_update_camera):
            # seeded inside the unenlarged box's cone, so inside the matching cone
            rng = np.random.default_rng(target_id)
            particles = generate_particles(self.BOX.corners_clockwise(), est_c2w, cam,
                                           lcfg, rng, max_depth=24.0)
            return TargetHypothesis(target_id=target_id, particles=particles, rng=rng,
                                    last_update_camera=last_update_camera)

        active, other = hypothesis(0, away), hypothesis(1, None)
        runner.hypotheses = [active, other]
        runner.mode, runner.active = mission.FINE_LOCALIZE, active
        track = SimpleNamespace(u=self.BOX)
        return runner, active, other, track, est_c2w

    @staticmethod
    def localize(runner, track, est_c2w):
        runner._localize_from_track(track, est_c2w, est_c2w.inverse())

    def test_below_the_baseline_no_cone_is_built(self, scene, monkeypatch):
        runner, active, other, track, est_c2w = scene
        active.last_update_camera = est_c2w.translation + [1.0, 0.0, 0.0]

        def refuse(*args):
            raise AssertionError("cone work below the baseline")

        monkeypatch.setattr(mission, "cone_normals", refuse)
        monkeypatch.setattr(mission, "needs_new_particle_set", refuse)
        self.localize(runner, track, est_c2w)
        assert active.updates == other.updates == 0
        assert runner.hypotheses == [active, other]

    def test_another_cloud_in_the_cone_is_not_tested(self, scene, monkeypatch):
        runner, active, other, track, est_c2w = scene
        tested, match = [], mission.needs_new_particle_set

        def recording(sets, normals, world_to_cam):
            tested.extend(sets)
            return match(sets, normals, world_to_cam)

        monkeypatch.setattr(mission, "needs_new_particle_set", recording)
        active_particles, other_particles = active.particles, other.particles
        # the other cloud lies inside the cone: searching, it would match
        normals = mission.cone_normals(
            enlarge(self.BOX, runner.cfg.localizer.enlarge_factor).corners_clockwise(),
            runner.cam)
        assert match([other_particles], normals, est_c2w.inverse())
        self.localize(runner, track, est_c2w)
        assert len(tested) == 1 and tested[0] is active_particles
        assert active.updates == 1
        assert other.updates == 0 and other.particles is other_particles

    def test_an_active_hypothesis_no_longer_live_is_not_updated(self, scene, monkeypatch):
        runner, active, other, track, est_c2w = scene
        runner.hypotheses = [other]  # as if dropped as a duplicate this frame
        particles = active.particles
        self.localize(runner, track, est_c2w)
        assert active.updates == other.updates == 0
        assert active.particles is particles
        assert runner.hypotheses == [other]

    def test_search_counts_a_match_without_baseline(self, scene):
        # while searching, a cloud in the cone without parallax takes no update
        # but still stops a new registration
        runner, active, other, track, est_c2w = scene
        runner.mode, runner.active = mission.SEARCH, None
        active.last_update_camera = other.last_update_camera = est_c2w.translation.copy()
        self.localize(runner, track, est_c2w)
        assert active.updates == other.updates == 0
        assert runner.hypotheses == [active, other] and runner.next_hypothesis_id == 0


class TestCloudStatistics:
    def test_one_statistics_pass_per_particle_set(self, monkeypatch):
        passes, made = [], []
        statistics, hypothesis = localizer._cloud_statistics, mission.TargetHypothesis

        def counting(points):
            passes.append(len(points))
            return statistics(points)

        def tracking(**kwargs):
            made.append(hypothesis(**kwargs))
            return made[-1]

        monkeypatch.setattr(localizer, "_cloud_statistics", counting)
        monkeypatch.setattr(mission, "TargetHypothesis", tracking)
        runner = MissionRunner(default_scenario(1, seed=3))
        runner.run()
        kept = runner.hypotheses + [h for h, _ in runner.finished]
        assert any(entry.status == "done" for _, entry in runner.finished)
        assert {id(h) for h in kept} <= {id(h) for h in made}
        # every registration and every accepted update is one new particle set
        per_set = sum(len(h.history) for h in made)
        assert per_set == len(made) + sum(h.updates for h in made)
        assert len(passes) == per_set


class TestDepthPrior:
    def test_registration_seeds_to_twice_the_altitude(self, monkeypatch):
        # the depth prior was a localizer field, so a scenario with its own
        # localizer section kept that depth at any survey altitude
        depths = []
        generate = mission.generate_particles

        def recording(*args, max_depth, **kwargs):
            depths.append(max_depth)
            return generate(*args, max_depth=max_depth, **kwargs)

        monkeypatch.setattr(mission, "generate_particles", recording)
        cfg = dataclasses.replace(default_scenario(1, seed=3), search_altitude=9.0)
        cfg.mission.max_sim_time = 60.0
        MissionRunner(cfg).run()
        assert depths and set(depths) == {18.0}


class TestTruthProjection:
    def test_one_projection_per_frame(self, monkeypatch):
        projected, masks, klt_inputs = [], [], []
        project, klt = mission.project_points, mission.simulate_klt
        split = simulator.TruthPoints.split

        def counting(points, world_to_cam, cam):
            projected.append(project(points, world_to_cam, cam))
            return projected[-1]

        def recording_split(self, pix, depth, cam):
            out = split(self, pix, depth, cam)
            # every target's mask is a slice of the frame's one mask
            frame_masks = {id(proj.visible.base) for proj in out}
            assert len(frame_masks) == 1
            masks.append(out[0].visible.base)
            return out

        def recording(prev, curr, *args):
            klt_inputs.append((runner.frame, prev, curr))
            return klt(prev, curr, *args)

        for module in (mission, simulator):
            monkeypatch.setattr(module, "project_points", counting, raising=False)
        monkeypatch.setattr(simulator.TruthPoints, "split", recording_split)
        monkeypatch.setattr(mission, "simulate_klt", recording)
        runner = MissionRunner(default_scenario(2, seed=7))
        runner.run()
        assert runner.frame > 0 and len(projected) == len(masks) == runner.frame
        # KLT reads the previous frame's projection and visibility mask, not a
        # new projection of its pose or a new mask
        assert klt_inputs
        for frame, prev, curr in klt_inputs:
            assert np.shares_memory(prev.pix, projected[frame - 2][0])
            assert np.shares_memory(curr.pix, projected[frame - 1][0])
            assert np.shares_memory(prev.visible, masks[frame - 2])
            assert np.shares_memory(curr.visible, masks[frame - 1])


@pytest.fixture(scope="class")
def lean_path_mission():
    """The stock two-target mission, counting per frame the corner boxes made,
    the log-determinants the tracker takes and the order of the live bank."""
    counts = {"corner_box": [], "entropy": 0, "unordered_frames": []}
    corner_boxes, entropy, step = (simulator.corner_boxes, bbox_tracker.bbox_entropy,
                                   bbox_tracker.TrackerState.step)

    def counting_corner_boxes(pix, depth, corner_rows, cam):
        boxes = corner_boxes(pix, depth, corner_rows, cam)
        counts["corner_box"] += [runner.frame] * len(boxes)  # one entry per box made
        return boxes

    def counting_entropy(sigma):
        counts["entropy"] += 1
        return entropy(sigma)

    def checking_step(self, detections, sims, frame):
        out = step(self, detections, sims, frame)
        ids = [t.id for t in self.active()]
        if ids != sorted(ids):
            counts["unordered_frames"].append(frame)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "corner_boxes", counting_corner_boxes)
        mp.setattr(bbox_tracker, "bbox_entropy", counting_entropy)
        mp.setattr(bbox_tracker.TrackerState, "step", checking_step)
        runner = MissionRunner(default_scenario(2, seed=7))
        runner.run()
    return runner, counts


class TestLeanTrackerPath:
    def test_live_tracks_in_id_order_every_frame(self, lean_path_mission):
        runner, counts = lean_path_mission
        assert runner.frame == 2671
        assert counts["unordered_frames"] == []

    def test_one_corner_box_per_target_per_frame(self, lean_path_mission):
        runner, counts = lean_path_mission
        per_frame = np.bincount(counts["corner_box"], minlength=runner.frame + 1)
        assert per_frame[1:].max() <= len(runner.targets)
        assert len(counts["corner_box"]) == len(runner.targets) * runner.frame

    def test_one_log_determinant_per_entropy_deregistration(self, lean_path_mission):
        # with no run directory only prune takes log-determinants, and
        # Hadamard's bound lets through only the tracks that then retire
        runner, counts = lean_path_mission
        entropy_retired = [t for t in runner.tracker.retired
                           if t.dereg_reason == "entropy"]
        assert len(entropy_retired) > 100
        assert counts["entropy"] == len(entropy_retired)


class TestTrackLog:
    def test_rows_cover_each_track_while_live(self, two_target_mission):
        runner, _, out = two_target_mission
        with open(out / "tracks.csv") as fh:
            rows = list(csv.DictReader(fh))
        by_id = {}
        for r in rows:
            by_id.setdefault(int(r["track_id"]), []).append(r)
        bank = runner.tracker.tracks
        assert sorted(by_id) == [t.id for t in bank]
        live_rows = 0
        for t in bank:
            frames = [int(r["frame"]) for r in by_id[t.id]]
            last = runner.frame if t.dereg_frame is None else t.dereg_frame
            assert frames == list(range(t.spawn_frame, last + 1)), t.id
            dereg = [int(r["frame"]) for r in by_id[t.id] if r["status"] == "deregistered"]
            assert dereg == ([] if t.dereg_frame is None else [t.dereg_frame]), t.id
            live_rows += last + 1 - t.spawn_frame - (t.dereg_frame is not None)
        # one row per live track per frame, plus one final row per retired track
        assert len(rows) == live_rows + len(runner.tracker.retired)
        assert runner.tracker.retired and runner.tracker.live

    def test_no_track_rows_built_without_a_run_directory(self, monkeypatch, tmp_path):
        def refuse(sigma):
            raise RuntimeError("track row built")

        monkeypatch.setattr("conescan.mission.bbox_entropy", refuse)
        cfg = default_scenario(1, seed=3)
        cfg.mission.max_sim_time = 20.0
        runner = MissionRunner(cfg)
        runner.run()
        assert runner.tracker.next_id > 0
        with pytest.raises(RuntimeError, match="track row built"):
            MissionRunner(cfg, out_dir=tmp_path).run()


    def test_no_rows_formatted_without_a_run_directory(self, monkeypatch, tmp_path):
        # path, planned-path and metrics rows: their values are built only to be written
        def refuse(value):
            raise RuntimeError("row formatted")

        monkeypatch.setattr(mission, "_fmt", refuse)
        cfg = default_scenario(1, seed=3)
        cfg.mission.max_sim_time = 40.0  # registers, updates and starts a fine arc
        report = MissionRunner(cfg).run()
        assert report.transitions[-1]["to"] == "fine_localize"
        with pytest.raises(RuntimeError, match="row formatted"):
            MissionRunner(cfg, out_dir=tmp_path).run()


class TestRunDirectoryRows:
    @pytest.mark.parametrize("run", ["one_target_run", "failure_run"])
    @pytest.mark.parametrize("name", ["tracks.csv", "path.csv", "planned_path.csv",
                                      "metrics.csv"])
    def test_rows_as_wide_as_the_header(self, run, name, request):
        _, _, out = request.getfixturevalue(run)
        with open(out / name, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert rows
        assert {len(r) for r in rows} == {len(header)}
        assert header not in rows  # the header is written once, first


class TestDeterminism:
    def test_same_seed_byte_identical_outputs(self, tmp_path):
        cfg = default_scenario(1, seed=12)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_scenario(cfg, out_dir=out_a)
        run_scenario(default_scenario(1, seed=12), out_dir=out_b)
        for name in ("report.json", "tracks.csv", "path.csv", "metrics.csv",
                     "planned_path.csv", "coverage.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_different_seed_differs(self, tmp_path):
        rep_a = run_scenario(default_scenario(1, seed=1))
        rep_b = run_scenario(default_scenario(1, seed=2))
        assert rep_a.to_dict() != rep_b.to_dict()


class TestDetectionLatency:
    def test_late_detections_change_the_mission(self, one_target_run, tmp_path):
        cfg = default_scenario(1, seed=3)
        cfg.noise.detection_latency_frames = 8
        cfg.mission.max_sim_time = 40.0
        late = run_scenario(cfg, out_dir=tmp_path)
        _, prompt, prompt_out = one_target_run
        prompt_transitions = [t for t in prompt.transitions if t["t"] <= 40.0]
        assert late.transitions and prompt_transitions
        assert late.transitions[0]["frame"] > prompt_transitions[0]["frame"]
        late_path = (tmp_path / "path.csv").read_text().splitlines()
        prompt_path = (prompt_out / "path.csv").read_text().splitlines()
        assert late_path != prompt_path[:len(late_path)]


class TestFlownVersusPlanned:
    def test_follower_stays_on_planned_segments(self, tmp_path):
        cfg = default_scenario(1, seed=4)
        cfg.noise.pose_sigma_xyz = 0.0
        cfg.noise.yaw_sigma = 0.0
        run_scenario(cfg, out_dir=tmp_path)

        with open(tmp_path / "planned_path.csv") as fh:
            planned_rows = list(csv.DictReader(fh))
        blocks = []
        for row in planned_rows:
            if int(row["seq"]) == 0:
                blocks.append([])
            blocks[-1].append([float(row["x"]), float(row["y"]), float(row["z"])])
        segments = []
        for block in blocks:
            pts = np.asarray(block)
            segments.extend((pts[i], pts[i + 1]) for i in range(len(pts) - 1))

        def dist_to_segment(p, a, b):
            ab = b - a
            denom = float(ab @ ab)
            t = 0.0 if denom == 0 else np.clip((p - a) @ ab / denom, 0.0, 1.0)
            return float(np.linalg.norm(p - (a + t * ab)))

        with open(tmp_path / "path.csv") as fh:
            flown = [
                np.array([float(r["x"]), float(r["y"]), float(r["z"])])
                for r in csv.DictReader(fh)
            ]
        worst = max(
            min(dist_to_segment(p, a, b) for a, b in segments) for p in flown[::5]
        )
        assert worst < 0.3


class TestFailurePaths:
    def test_impossible_convergence_gives_failed_target(self, failure_run):
        _, report, _ = failure_run
        assert report.exit_code == EXIT_UNCONVERGED
        assert any(t.status == "failed" for t in report.targets)
        # the fine phase gave up after the configured lap budget
        fine = [t for t in report.transitions if t["to"] == "fine_localize"]
        back = [t for t in report.transitions if t["from"] == "fine_localize"
                and t["to"] == "search"]
        assert fine and back

    def test_mission_always_terminates(self, failure_run):
        runner, report, _ = failure_run
        assert report.duration_s < runner.cfg.mission.max_sim_time

    def test_failed_hypothesis_leaves_the_live_list(self, failure_run):
        runner, report, _ = failure_run
        retired = [h for h, entry in runner.finished if entry.status == "failed"]
        assert retired
        for hyp in retired:
            assert hyp.status == "failed"
            assert sum(h is hyp for h, _ in runner.finished) == 1
            assert not any(h is hyp for h in runner.hypotheses)
        failed = [t.target_id for t in report.targets if t.status == "failed"]
        assert sorted(h.target_id for h in retired) == failed


class TestRunDirectoryReuse:
    def test_rerun_replaces_snapshots_and_drops_plots(self, tmp_path):
        cfg = default_scenario(1, seed=3)
        cfg.mission.max_sim_time = 60.0
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        run_scenario(cfg, out_dir=reused)
        emit_plot_data(reused)
        (reused / "notes.txt").write_text("kept")
        first = {p.name for p in (reused / "particles").glob("*.json")}
        run_scenario(cfg, seed=4, out_dir=reused)
        run_scenario(cfg, seed=4, out_dir=fresh)
        names = {p.name for p in (reused / "particles").glob("*.json")}
        assert names == {p.name for p in (fresh / "particles").glob("*.json")}
        assert first - names  # the seed-3 run made snapshots the seed-4 run does not
        assert not (reused / "plots").exists()
        assert (reused / "notes.txt").read_text() == "kept"

    def test_runner_never_run_leaves_the_directory_alone(self, tmp_path):
        (tmp_path / "particles").mkdir()
        (tmp_path / "plots").mkdir()
        (tmp_path / "particles" / "old.json").write_text("{}")
        (tmp_path / "plots" / "x.csv").write_text("x")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            runner = MissionRunner(default_scenario(1, seed=3), out_dir=tmp_path)
            del runner
            gc.collect()
        assert caught == []
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
            "particles", "particles/old.json", "plots", "plots/x.csv"]


class TestPlotData:
    def test_emit_plot_series(self, one_target_run):
        _, report, out = one_target_run
        written = emit_plot_data(out)
        names = {p.name for p in written}
        assert "uav_path.csv" in names
        assert "planned_vs_flown.csv" in names
        updated = {t.target_id for t in report.targets if t.updates > 0}
        done = {t.target_id for t in report.targets if t.status == "done"}
        for tid in updated | done:
            assert f"convergence_target{tid:03d}.csv" in names
        with open(out / "plots" / "uav_path.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) > 100
        assert set(rows[0]) == {"t", "x", "y", "z"}
