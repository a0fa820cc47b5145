import csv
import dataclasses
import gc
import hashlib
import json
import math
import threading
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conescan import bbox_tracker, localizer, mission, simulator
from conescan.config import ConfigError, from_dict
from conescan.geometry import BBox, CameraRig, camera_to_world_pose
from conescan.localizer import (
    LocalizerConfig,
    ParticleSet,
    TargetHypothesis,
    enlarge,
    generate_particles,
    perturb_points,
    update_particles,
)
from conescan.mission import (
    EXIT_OK,
    EXIT_UNCONVERGED,
    THREADED_DRAW_MIN_POINTS,
    MissionRunner,
    emit_plot_data,
)
from conescan.view_planner import lawnmower_path
from conftest import stock_scenario


def one_target_100k():
    """The stock one-target mission at 100,000 particles, as the benchmark runs it."""
    cfg = stock_scenario(1, seed=3)
    cfg.localizer = dataclasses.replace(cfg.localizer, n_particles=100_000)
    return cfg


@pytest.fixture(scope="module")
def one_target_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("one_target")
    cfg = stock_scenario(1, seed=3)
    report = MissionRunner(cfg, out_dir=out).run()
    return cfg, report, out


@pytest.fixture(scope="module")
def two_target_mission(tmp_path_factory):
    out = tmp_path_factory.mktemp("two_target")
    runner = MissionRunner(stock_scenario(2, seed=7), out_dir=out)
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
    cfg = stock_scenario(1, seed=3)
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

    report = Counting(stock_scenario(2, seed=2), out_dir=out).run()
    return crowded, report, out


@pytest.fixture(scope="module")
def fp_heavy_run(tmp_path_factory):
    """One target under a false-positive storm for 60 s: about 45 live tracks a
    frame, so fallback predicts, many-track association and prune all run hard."""
    out = tmp_path_factory.mktemp("fp_heavy")
    cfg = stock_scenario(1, seed=5)
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
        cfg = stock_scenario(0, seed=1)
        report = MissionRunner(cfg, out_dir=tmp_path).run()
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
        cfg = stock_scenario(1, seed=3)
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
        cfg = stock_scenario(1, seed=3)
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
        "report.json": "669a6a13cd4ec73d6f293036e350f8aa023afa6938486be56a382d6b8d678e48",
        "path.csv": "3946ca763ba15c88501b1b43c7fba5bfd904e8034755b49137aaa4cd4dfd19fa",
        "planned_path.csv":
            "0c12ed7b1ea959a3202520da9072d9a14eb03629064779b8fd0cfcf8f5a2c7ca",
        "metrics.csv": "fb8a57ca45290a4b9c5b9df767da15ccbf085cecda761cd3daf21f4cf43e119c",
        "coverage.json": "bea0cd7c73db7e5e5a5c00f2160e7bdb10d99bde7adeed05ea94d6a303f4f16f",
        "tracks.csv": "b3a1b8bed0f556e89a156f1a5ce67fb4ea12e0d1f1460b075b9db0276bc2a258",
        "particles/*.json":
            "293411cd34e401318b3b3e00ed305ba93c65d8b2370ce9f5892368cbcebf5eb7",
    },
    "two_target_run": {
        "report.json": "3d97c24d4f4e5c4c882271f8eb3f3c9ed9271d0049a33baecbb170ac62cc2ac6",
        "path.csv": "3e39699cb948456562526342193a66ee6fa95a6f6debb077bc9a729a739e802c",
        "planned_path.csv":
            "fab2832735e75ae888179e8e4805a7ada9bd72d3868768d5b054fab30f12d8bc",
        "metrics.csv": "f4c155e647efa6f978ca6e2c1ed9e174f3b0fb637be281c0804bd88ecbd95562",
        "coverage.json": "bfbb438867600e0bf7f7d5ca8eea6fe757d00370261b5402a8656c39b102d8d7",
        "tracks.csv": "0a13a33750b4458477204d9a5253d4f67ee4de9e3b3a3673fa021c2433bfe937",
        "particles/*.json":
            "d56efdda92533dcfa3958b21955922875adcb6d9353823178983c29206e6bbfb",
    },
    # failed hypotheses and `final` snapshots, which the stock missions lack
    "failure_run": {
        "report.json": "c9ac781eb8e1ee38ca36e613671ff8405186f66dfae5f414db84a8267208ea97",
        "particles/*.json":
            "f49678d0f2f6c8419aee7fcdcf57cac69ce89e8b74142644d3f544f92bf9e02d",
    },
    # fine phases with a second live hypothesis, which no other digested
    # mission has; recorded while every fine-phase box still tested every cloud
    "crowded_fine_run": {
        "report.json": "3c9394af3cc6e6c0e628cb160a770d5c0050f62e23a45392f3b1a77707f1a07f",
        "path.csv": "05fe35bbfcd1594f2c6a6258b09d37985f1d8bd049ed582a5d4e36f6f803c81b",
        "planned_path.csv":
            "fe669d4e105ed717383264f67f374ff1607eca4cfd4c7230da138dd08b8566b8",
        "metrics.csv": "ae850397033a0d7592a5d46648fdad45390b3af67b57c839bac0fc08e0fc30bd",
        "tracks.csv": "8b9a679ebb4d86a3a4450c58af3672e044d1f06463194f7e3ffd68e89287e0df",
    },
    # a bank of tens of tracks fed mostly by false positives
    "fp_heavy_run": {
        "report.json": "b2d9a41dca11944eef37313135900f3ddc57871883d362bd2692207f49aec62e",
        "tracks.csv": "b35d92ea6bb5156d838529987f2f7b6dc8f17e046b453e37a6533cd35aa52711",
    },
}

# the one-target mission cut while it maps (60 s) and while it fine-localizes
# (30 s), end states that no other digested mission reaches
CUT_SHORT_REPORTS = {
    60.0: ("map", "1e72bc75b69f39059791da735d586e3f0f28592f8fd71c13b64dda12335470d5"),
    30.0: ("fine_localize",
           "942f50b1b76288066b33c670de968dac701631a2f0327ed7d79ee1a1adb25a4b"),
}

ONE_TARGET_100K_REPORT = "1814f64dbdd3be7ad0683539564597354845aa59ef008d856d02571fcc882a59"
# its metrics.csv: every accepted update's eigenvalues, entropy and KL, from
# clouds whose perturbations were drawn on a thread
ONE_TARGET_100K_METRICS = "ce27cc27f677362cd96e4fce4544ed9c3497c239dff7909fdfcff8cafb158a92"

# the one-target mission cut at 60 s with particle dumps: its target is still
# in MAP, so it has no coverage entry yet and a `final` snapshot of a live cloud
CUT_SHORT_RUN_DIRECTORY = {
    "report.json": "1e72bc75b69f39059791da735d586e3f0f28592f8fd71c13b64dda12335470d5",
    "coverage.json": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "particles/*.json":
        "6ba3a946cecdd1562d3bc2305f59eda4a94abd0799a1a1ade445471a220a30b2",
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
        text = json.dumps(MissionRunner(one_target_100k()).run().to_dict(), indent=2,
                          sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == ONE_TARGET_100K_REPORT

    def test_one_target_100k_metrics_digest(self, tmp_path, monkeypatch):
        # the 100,000-point snapshots are not digested here, and writing them
        # would take most of the test's time
        monkeypatch.setattr(mission._RunLog, "snapshot", lambda *args: None)
        MissionRunner(one_target_100k(), out_dir=tmp_path).run()
        assert _digest(tmp_path, "report.json") == ONE_TARGET_100K_REPORT
        assert _digest(tmp_path, "metrics.csv") == ONE_TARGET_100K_METRICS

    @pytest.mark.parametrize("max_sim_time", sorted(CUT_SHORT_REPORTS))
    def test_cut_short_report_digest(self, max_sim_time, tmp_path):
        mode, digest = CUT_SHORT_REPORTS[max_sim_time]
        cfg = stock_scenario(1, seed=3)
        cfg.mission.max_sim_time = max_sim_time
        report = MissionRunner(cfg, out_dir=tmp_path).run()
        assert report.transitions[-1]["to"] == mode
        assert _digest(tmp_path, "report.json") == digest

    def test_cut_short_run_directory_digest(self, tmp_path):
        cfg = stock_scenario(1, seed=3)
        cfg.mission.max_sim_time = 60.0
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


class TestCloudsAboveTheSurvey:
    """config.validate keeps every target's top below the survey altitude, so a
    cloud centred at or above it is no target: it is dropped, never circled, and
    an active one that rises there fails."""

    def test_steep_camera_mission_runs_to_its_end(self):
        # the first mapping orbit flies about 40 m up; the resumed survey then
        # registered clouds centred near 28 m, and the next fine phase raised
        # "flight altitude must be above the target center" at 105.0 s
        cfg = stock_scenario(2, seed=1)
        cfg.camera = dataclasses.replace(cfg.camera, gamma=1.31, beta=0.38)
        altitude = cfg.search_altitude
        registered, live = [], []

        class Watching(MissionRunner):
            def _localize_from_track(self, *args):
                n = self.next_hypothesis_id
                super()._localize_from_track(*args)
                if self.next_hypothesis_id > n:
                    registered.append(self.hypotheses[-1].center[2])

            def _tick(self):
                finished = super()._tick()
                live.extend(h.center[2] for h in self.hypotheses if h is not self.active)
                return finished

        runner = Watching(cfg)
        report = runner.run()
        assert max(registered) >= altitude
        assert max(live) < altitude
        assert runner.mode == mission.SEARCH and report.duration_s < cfg.mission.max_sim_time
        assert report.targets_found >= 1

    def test_a_risen_active_cloud_fails(self):
        runner = MissionRunner(stock_scenario(1, seed=3))
        while runner.mode != mission.FINE_LOCALIZE:
            runner._tick()
        active = runner.active
        active.particles = ParticleSet(
            active.particles.points + [0.0, 0.0, runner.cfg.search_altitude])
        runner._tick()
        assert runner.mode == mission.SEARCH and runner.active is None
        assert active.status == "failed" and active not in runner.hypotheses
        assert [e.status for h, e in runner.finished if h is active] == ["failed"]

    def test_a_converged_cloud_above_the_survey_is_never_circled(self):
        runner = MissionRunner(stock_scenario(0))
        high = TargetHypothesis(
            target_id=0, rng=np.random.default_rng(0),
            particles=ParticleSet(np.random.default_rng(1).normal(
                [10.0, 5.0, runner.cfg.search_altitude + 0.1], 0.05, size=(1000, 3))))
        high.record(runner.cfg.localizer, kl=0.0)
        assert high.status == localizer.STATUS_CONVERGED
        runner.hypotheses.append(high)
        runner.next_hypothesis_id = 1
        runner._tick()
        assert runner.hypotheses == [] and runner.mode == mission.SEARCH


@st.composite
def short_missions(draw):
    """A short mission from a random valid scenario file: steep cameras, low and
    high surveys, near and far mapping orbits, detector latency, false-positive
    storms and updates without re-injected noise."""
    beta = draw(st.floats(0.05, CameraRig().vfov - 0.01))
    gamma = draw(st.one_of(st.floats(beta / 2 + 0.01, 1.55), st.floats(1.2, 1.55)))
    width, height = draw(st.floats(8.0, 36.0)), draw(st.floats(4.0, 12.0))
    targets = []
    for _ in range(draw(st.integers(0, 3))):
        half = [draw(st.floats(0.1, 1.0)) for _ in range(3)]
        center = [draw(st.floats(0.0, width)), draw(st.floats(0.0, height)), half[2]]
        targets.append({"center": center, "half_extents": half})
    return from_dict({
        "seed": draw(st.integers(0, 2**32 - 1)),
        "region": [0.0, 0.0, width, height],
        "search_altitude": draw(st.floats(6.0, 20.0)),
        "camera": {"gamma": gamma, "beta": beta},
        "targets": targets,
        "noise": {"detection_latency_frames": draw(st.integers(0, 4)),
                  "false_positive_rate": draw(st.floats(0.0, 2.0))},
        "localizer": {"update_noise_var": draw(st.sampled_from([0.0, 0.01])),
                      "n_particles": draw(st.sampled_from([100, 1000]))},
        "planner": {"standoff": draw(st.floats(0.5, 8.0))},
        "mission": {"max_sim_time": draw(st.floats(30.0, 300.0))},
    })


class TestRobustnessProfile:
    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(cfg=short_missions())
    def test_random_valid_missions_raise_nothing_and_end_in_time(self, cfg):
        # filterwarnings = error: a numpy warning fails the mission too
        report = MissionRunner(cfg).run()
        assert report.duration_s <= cfg.mission.max_sim_time + cfg.mission.dt


class TestCrowdedFinePhase:
    def test_fine_phases_run_beside_another_hypothesis(self, crowded_fine_run):
        crowded, report, _ = crowded_fine_run
        assert len(crowded) == 331
        assert report.targets_found == report.targets_total == 2


class TestFineLocalizeCandidates:
    """`_localize_from_track` on its candidate list: the circled hypothesis while
    circling, every live one while searching."""

    BOX = BBox(280.0, 200.0, 360.0, 290.0)

    @pytest.fixture
    def scene(self):
        runner = MissionRunner(stock_scenario(2, seed=7))
        cam, lcfg = runner.cam, runner.cfg.localizer
        est_c2w = camera_to_world_pose(np.array([0.0, -12.0, 12.0]), math.pi / 2,
                                       cam.gamma)
        away = est_c2w.translation + [5.0, 0.0, 0.0]  # past the 3 m baseline

        def hypothesis(target_id, last_update_camera):
            # seeded inside the unenlarged box's cone, so inside the matching cone
            rng = np.random.default_rng(target_id)
            particles = generate_particles(self.BOX.corners_clockwise(), est_c2w, cam,
                                           lcfg, rng, max_depth=24.0)
            hyp = TargetHypothesis(target_id=target_id, particles=particles, rng=rng,
                                   last_update_camera=last_update_camera)
            runner._draw_next(hyp)  # as registration draws it
            return hyp

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

    def test_the_circled_hypothesis_outlives_a_duplicate(self):
        # a converged cloud 0.5 m from the circled one outranks it; when it was
        # the circled one that was dropped, _retire raised ValueError at 139.8 s
        runner = MissionRunner(stock_scenario(1, seed=3))
        while runner.mode != mission.FINE_LOCALIZE:
            runner._tick()
        active = runner.active
        twin = TargetHypothesis(
            target_id=runner.next_hypothesis_id,
            particles=ParticleSet(active.particles.points + [0.5, 0.0, 0.0]),
            rng=np.random.default_rng(0))
        twin.record(runner.cfg.localizer, kl=None)
        twin.status = localizer.STATUS_CONVERGED
        runner.next_hypothesis_id += 1
        runner.hypotheses.append(twin)
        runner._tick()
        assert runner.active is active and runner.mode == mission.FINE_LOCALIZE
        live = [h.target_id for h in runner.hypotheses]
        assert active.target_id in live and twin.target_id not in live
        report = runner.run()
        assert report.targets_found == report.targets_total == 1
        assert runner.mode == mission.SEARCH and report.duration_s < 100.0

    def test_search_counts_a_match_without_baseline(self, scene):
        # while searching, a cloud in the cone without parallax takes no update
        # but still stops a new registration
        runner, active, other, track, est_c2w = scene
        runner.mode, runner.active = mission.SEARCH, None
        active.last_update_camera = other.last_update_camera = est_c2w.translation.copy()
        self.localize(runner, track, est_c2w)
        assert active.updates == other.updates == 0
        assert runner.hypotheses == [active, other] and runner.next_hypothesis_id == 0

    def test_search_updates_only_the_cloud_in_the_cone(self, scene):
        # the matched positions index the candidate list: the first cloud sits in
        # the cone of a box whose enlarged cone does not meet the track's
        runner, first, second, track, est_c2w = scene
        far = BBox(10.0, 10.0, 60.0, 60.0)
        first.particles = generate_particles(far.corners_clockwise(), est_c2w, runner.cam,
                                             runner.cfg.localizer, first.rng, max_depth=24.0)
        first_particles = first.particles
        runner.mode, runner.active = mission.SEARCH, None
        self.localize(runner, track, est_c2w)
        assert first.updates == 0 and first.particles is first_particles
        assert second.updates == 1
        assert runner.hypotheses == [first, second] and runner.next_hypothesis_id == 0


class TestDrawAhead:
    """Each hypothesis draws its next update's perturbation ahead: on the
    runner's one worker thread for a large cloud, inline for a small one."""

    BOX = BBox(280.0, 200.0, 360.0, 290.0)
    FAR_BOX = BBox(0.0, 0.0, 4.0, 4.0)  # far from every projected point: starves

    @staticmethod
    def registered(n_particles):
        """A runner, a camera pose and the hypothesis the runner registered from
        BOX seen from that pose."""
        cfg = stock_scenario(1, seed=3)
        cfg.localizer = dataclasses.replace(cfg.localizer, n_particles=n_particles)
        runner = MissionRunner(cfg)
        c2w = camera_to_world_pose(np.array([0.0, -12.0, 12.0]), math.pi / 2,
                                   runner.cam.gamma)
        runner._localize_from_track(SimpleNamespace(u=TestDrawAhead.BOX), c2w,
                                    c2w.inverse())
        [hyp] = runner.hypotheses
        return runner, c2w, hyp

    @pytest.mark.parametrize("n", [1000, THREADED_DRAW_MIN_POINTS])
    def test_clouds_equal_inline_draws_from_a_twin_stream(self, n):
        runner, c2w, hyp = self.registered(n)
        cam, lcfg = runner.cam, runner.cfg.localizer
        twin_rng = simulator.substream(runner.cfg.seed, "particles", hyp.target_id)
        twin = generate_particles(
            enlarge(self.BOX, lcfg.enlarge_factor).corners_clockwise(), c2w, cam, lcfg,
            twin_rng, max_depth=2.0 * runner.cfg.search_altitude)
        assert np.array_equal(hyp.particles.points, twin.points)
        moved = camera_to_world_pose(np.array([1.0, -12.0, 12.0]), math.pi / 2,
                                     cam.gamma)
        for box, pose, starved in ((self.FAR_BOX, c2w, True), (self.BOX, c2w, False),
                                   (self.BOX, moved, False)):
            w2c = pose.inverse()
            runner._update_hypothesis(hyp, box, w2c, pose.translation)
            perturbed = perturb_points(twin.points, twin_rng, lcfg.update_noise_var,
                                       np.empty(twin.points.shape))
            result = update_particles(twin, perturbed, box, w2c, cam, lcfg, twin_rng)
            assert result.starved == starved
            twin = result.particles
            assert np.array_equal(hyp.particles.points, twin.points)
        assert hyp.updates == 2
        # the pending draw took the stream's next normals, of the last cloud
        expected = perturb_points(twin.points, twin_rng, lcfg.update_noise_var,
                                  np.empty(twin.points.shape))
        assert np.array_equal(hyp.pending.result(), expected)

    # a run's threads are compared as sets: a thread that another run left
    # running, and that ends meanwhile, must not balance one that this run leaves

    @pytest.fixture
    def slow_draws(self, monkeypatch):
        """Draws that are still running when a run that does not wait for them ends."""
        draw = mission.perturb_points

        def slow(*args):
            time.sleep(0.05)
            return draw(*args)

        monkeypatch.setattr(mission, "perturb_points", slow)

    def test_a_cut_short_run_leaves_no_draw_running(self, slow_draws):
        cfg = one_target_100k()
        cfg.mission.max_sim_time = 30.0
        before = set(threading.enumerate())
        report = MissionRunner(cfg).run()
        assert report.transitions[-1]["to"] == "fine_localize"  # a live cloud remains
        assert set(threading.enumerate()) <= before

    def test_a_raising_run_leaves_no_draw_running(self, slow_draws, monkeypatch):
        runner = MissionRunner(one_target_100k())
        tick = runner._tick

        def tick_then_raise():
            finished = tick()
            if runner.hypotheses:  # raised right after the registration
                raise RuntimeError("mid-mission")
            return finished

        monkeypatch.setattr(runner, "_tick", tick_then_raise)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="mid-mission"):
            runner.run()
        assert set(threading.enumerate()) <= before

    def test_a_failed_draw_raises_in_the_update_that_joins_it(self, monkeypatch):
        def fail(*args):
            raise FloatingPointError("draw failed")

        runner, c2w, hyp = self.registered(THREADED_DRAW_MIN_POINTS)
        monkeypatch.setattr(mission, "perturb_points", fail)
        runner._update_hypothesis(hyp, self.BOX, c2w.inverse(), c2w.translation)
        assert hyp.updates == 1  # the failed draw was handed to the worker, raising nothing
        with pytest.raises(FloatingPointError, match="draw failed"):
            runner._update_hypothesis(hyp, self.BOX, c2w.inverse(), c2w.translation)

    # the cut-short run ends with a live cloud, the full ones with a mapped one
    @pytest.mark.parametrize("n, max_sim_time",
                             [(100_000, 30.0), (100_000, 3600.0), (1000, 3600.0)])
    def test_large_draws_run_on_one_worker_and_small_ones_inline(self, n, max_sim_time,
                                                               monkeypatch):
        threads, draw = [], mission.perturb_points

        def recording(*args):
            threads.append(threading.current_thread())
            return draw(*args)

        monkeypatch.setattr(mission, "perturb_points", recording)
        cfg = stock_scenario(1, seed=3)
        cfg.localizer = dataclasses.replace(cfg.localizer, n_particles=n)
        cfg.mission.max_sim_time = max_sim_time
        runner = MissionRunner(cfg)
        runner.run()
        assert len(threads) > 2
        if n >= THREADED_DRAW_MIN_POINTS:
            assert len(set(threads)) == 1 and threads[0] is not threading.main_thread()
        else:
            assert set(threads) == {threading.main_thread()}
        assert bool(runner.finished) == (max_sim_time > 30.0)
        # a finished hypothesis holds no drawn cloud
        assert all(hyp.pending is None for hyp, _ in runner.finished)


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
        runner = MissionRunner(stock_scenario(1, seed=3))
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
        cfg = dataclasses.replace(stock_scenario(1, seed=3), search_altitude=9.0)
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
        runner = MissionRunner(stock_scenario(2, seed=7))
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
    """The stock two-target mission, counting per frame the corner boxes made
    and the order of the live bank."""
    counts = {"corner_box": [], "unordered_frames": []}
    corner_boxes, step = simulator.corner_boxes, bbox_tracker.TrackerState.step

    def counting_corner_boxes(pix, depth, corner_rows, cam):
        boxes = corner_boxes(pix, depth, corner_rows, cam)
        counts["corner_box"] += [runner.frame] * len(boxes)  # one entry per box made
        return boxes

    def checking_step(self, detections, sims, frame):
        out = step(self, detections, sims, frame)
        ids = [t.id for t in self.active()]
        if ids != sorted(ids):
            counts["unordered_frames"].append(frame)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "corner_boxes", counting_corner_boxes)
        mp.setattr(bbox_tracker.TrackerState, "step", checking_step)
        runner = MissionRunner(stock_scenario(2, seed=7))
        runner.run()
    return runner, counts


# the frame of each entropy retirement of the stock two-target mission, in
# retirement order, as the 4x4 covariance and its log-determinant gave them
ENTROPY_RETIREMENT_FRAMES = [
    66, 75, 95, 120, 151, 198, 321, 349, 370, 383, 408, 418, 419, 446, 450, 460,
    471, 476, 502, 519, 543, 556, 557, 564, 565, 572, 595, 604, 616, 637, 654, 657,
    676, 695, 695, 698, 701, 708, 730, 738, 747, 765, 771, 775, 792, 809, 810, 822,
    828, 828, 835, 856, 935, 947, 959, 1002, 1008, 1013, 1016, 1049, 1054, 1113,
    1124, 1126, 1131, 1151, 1152, 1175, 1212, 1216, 1226, 1260, 1267, 1270, 1303,
    1304, 1359, 1375, 1396, 1403, 1404, 1419, 1427, 1480, 1494, 1494, 1499, 1532,
    1547, 1561, 1562, 1589, 1603, 1615, 1623, 1632, 1638, 1676, 1676, 1695, 1726,
    1727, 1731, 1732,
]


class TestLeanTrackerPath:
    def test_live_tracks_in_id_order_every_frame(self, lean_path_mission):
        runner, counts = lean_path_mission
        assert runner.frame == 1734
        assert counts["unordered_frames"] == []

    def test_one_corner_box_per_target_per_frame(self, lean_path_mission):
        runner, counts = lean_path_mission
        per_frame = np.bincount(counts["corner_box"], minlength=runner.frame + 1)
        assert per_frame[1:].max() <= len(runner.targets)
        assert len(counts["corner_box"]) == len(runner.targets) * runner.frame

    def test_entropy_retirements_as_recorded(self, lean_path_mission):
        runner, _ = lean_path_mission
        frames = [t.dereg_frame for t in runner.tracker.retired
                  if t.dereg_reason == "entropy"]
        assert len(frames) == 104
        assert frames == ENTROPY_RETIREMENT_FRAMES


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
        def refuse(var):
            raise RuntimeError("track row built")

        monkeypatch.setattr("conescan.mission.bbox_entropy", refuse)
        cfg = stock_scenario(1, seed=3)
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
        cfg = stock_scenario(1, seed=3)
        cfg.mission.max_sim_time = 30.0  # registers, updates and starts a fine arc
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
        cfg = stock_scenario(1, seed=12)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        MissionRunner(cfg, out_dir=out_a).run()
        MissionRunner(stock_scenario(1, seed=12), out_dir=out_b).run()
        for name in ("report.json", "tracks.csv", "path.csv", "metrics.csv",
                     "planned_path.csv", "coverage.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_different_seed_differs(self, tmp_path):
        rep_a = MissionRunner(stock_scenario(1, seed=1)).run()
        rep_b = MissionRunner(stock_scenario(1, seed=2)).run()
        assert rep_a.to_dict() != rep_b.to_dict()


class TestDetectionLatency:
    def test_late_detections_change_the_mission(self, one_target_run, tmp_path):
        cfg = stock_scenario(1, seed=3)
        cfg.noise.detection_latency_frames = 8
        cfg.mission.max_sim_time = 40.0
        late = MissionRunner(cfg, out_dir=tmp_path).run()
        _, prompt, prompt_out = one_target_run
        prompt_transitions = [t for t in prompt.transitions if t["t"] <= 40.0]
        assert late.transitions and prompt_transitions
        assert late.transitions[0]["frame"] > prompt_transitions[0]["frame"]
        late_path = (tmp_path / "path.csv").read_text().splitlines()
        prompt_path = (prompt_out / "path.csv").read_text().splitlines()
        assert late_path != prompt_path[:len(late_path)]


class TestFlownVersusPlanned:
    def test_follower_stays_on_planned_segments(self, tmp_path):
        cfg = stock_scenario(1, seed=4)
        cfg.noise.pose_sigma_xyz = 0.0
        cfg.noise.yaw_sigma = 0.0
        MissionRunner(cfg, out_dir=tmp_path).run()

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
        cfg = stock_scenario(1, seed=3)
        cfg.mission.max_sim_time = 60.0
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        MissionRunner(cfg, out_dir=reused).run()
        emit_plot_data(reused)
        (reused / "notes.txt").write_text("kept")
        first = {p.name for p in (reused / "particles").glob("*.json")}
        cfg = dataclasses.replace(cfg, seed=4)
        MissionRunner(cfg, out_dir=reused).run()
        MissionRunner(cfg, out_dir=fresh).run()
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
            runner = MissionRunner(stock_scenario(1, seed=3), out_dir=tmp_path)
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
