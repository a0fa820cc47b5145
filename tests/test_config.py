import json
import math
from pathlib import Path

import numpy as np
import pytest

from conescan.config import (
    ConfigError,
    ScenarioConfig,
    TargetSpec,
    default_scenario,
    from_dict,
    load,
    to_dict,
    to_json,
    validate,
)


class TestRoundTrip:
    def test_default_scenario_survives_json(self):
        cfg = default_scenario(2, seed=5)
        clone = from_dict(json.loads(to_json(cfg)))
        assert to_json(clone) == to_json(cfg)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(to_json(default_scenario(1)))
        cfg = load(path)
        assert len(cfg.targets) == 1

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"region": [0, 0, 10,\n')
        with pytest.raises(ConfigError, match="line"):
            load(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load(tmp_path / "nope.json")


class TestStockScenarios:
    @pytest.mark.parametrize("name, n_targets, seed", [
        ("one_target.json", 1, 3), ("two_targets.json", 2, 7), ("empty.json", 0, 1),
    ])
    def test_file_matches_generator(self, name, n_targets, seed):
        # scripts/make_scenarios.py writes these; a config change regenerates them
        path = Path(__file__).resolve().parents[1] / "scenarios" / name
        assert path.read_text() == to_json(default_scenario(n_targets, seed=seed)) + "\n"


class TestValidation:
    def test_mapping_geometry_constraint_named(self):
        data = to_dict(default_scenario(1))
        data["camera"]["gamma"] = math.radians(15.0)
        data["camera"]["beta"] = math.radians(40.0)
        with pytest.raises(ConfigError, match="gamma > beta/2"):
            from_dict(data)

    def test_target_above_search_altitude(self):
        cfg = default_scenario(1)
        cfg.targets = [TargetSpec(center=(5, 5, 20.0))]
        with pytest.raises(ConfigError, match="search altitude"):
            validate(cfg)

    def test_empty_region(self):
        data = to_dict(default_scenario(1))
        data["region"] = [10, 0, 10, 10]
        with pytest.raises(ConfigError, match="region"):
            from_dict(data)

    def test_unknown_field_named(self):
        data = to_dict(default_scenario(1))
        data["localizer"]["particle_count"] = 5
        with pytest.raises(ConfigError, match="particle_count"):
            from_dict(data)

    def test_bad_noise_value_scoped(self):
        data = to_dict(default_scenario(1))
        data["noise"]["detect_prob"] = 1.5
        with pytest.raises(ConfigError, match="noise"):
            from_dict(data)

    @pytest.mark.parametrize("sigma, message", [
        ([[16, 1, 0, 0], [0, 16, 0, 0], [0, 0, 16, 0], [0, 0, 0, 16]], "symmetric"),
        ([[16, 0, 0, 0], [0, 16, 0, 0], [0, 0, 16, 0], [0, 0, 0, math.inf]], "finite"),
        ([[16, 0, 0, 0], [0, 16, 0, 0], [0, 0, 16, 0], [0, 0, 0, math.nan]], "finite"),
        ([[16, 0, 0, 0], [0, 16, 0, 0], [0, 0, 16, 0], [0, 0, 0, 0]], "positive definite"),
        ([[1, 2, 0, 0], [2, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], "positive definite"),
    ])
    def test_bad_initial_sigma_rejected(self, sigma, message):
        data = to_dict(default_scenario(1))
        data["tracker"]["initial_sigma"] = sigma
        with pytest.raises(ConfigError, match=f"tracker: initial_sigma must be {message}"):
            from_dict(data)

    def test_good_initial_sigma_kept(self):
        data = to_dict(default_scenario(1))
        data["tracker"]["initial_sigma"] = (9.0 * np.eye(4)).tolist()
        assert np.array_equal(from_dict(data).tracker.initial_sigma, 9.0 * np.eye(4))

    @pytest.mark.parametrize("section, name, value", [
        ("uav", "v_max", 0), ("uav", "a_max", -1.0), ("uav", "yaw_rate", 0.0),
        ("planner", "overlap", 1.0), ("planner", "overlap", -0.1),
        ("planner", "angular_step", 0), ("planner", "standoff", 0.0),
        ("planner", "n_per_circle", 0), ("planner", "n_per_circle", 3),
        ("planner", "n_per_circle", 36.0), ("planner", "n_surface_samples", 0),
        ("mission", "dt", 0.0), ("mission", "confirm_hits", 0),
        ("uav", "v_max", "fast"), ("mission", "dt", math.nan),
    ])
    def test_range_rejected_at_load(self, section, name, value):
        # each value makes its use site raise, at start, mid-mission or at mapping,
        # or is not a number at all
        data = to_dict(default_scenario(1))
        data[section][name] = value
        with pytest.raises(ConfigError, match=rf"^{section}\.{name}: "):
            from_dict(data)

    @pytest.mark.parametrize("section, name, value", [
        ("noise", "pose_sigma_xyz", math.nan), ("noise", "yaw_sigma", math.nan),
        ("noise", "detector_pixel_sigma", math.nan),
        ("noise", "klt_pixel_sigma", math.nan),
        ("noise", "false_positive_rate", math.nan),
        ("noise", "detection_latency_frames", math.nan),
        ("noise", "detection_latency_frames", -1),
        ("tracker", "predict_noise_px", math.nan),
        ("tracker", "measure_noise_px", math.nan),
        ("tracker", "predict_noise_px", math.inf),
        ("tracker", "measure_noise_px", 0.0),
        ("tracker", "entropy_dereg_threshold", math.nan),
    ])
    def test_noise_and_tracker_value_rejected_at_load(self, section, name, value):
        # NaN passed the old `< 0` and `<= 0` checks and failed mid-mission,
        # or ran a mission that found nothing
        data = to_dict(default_scenario(1))
        data[section][name] = value
        with pytest.raises(ConfigError, match=rf"^{section}: {name} must"):
            from_dict(data)

    def test_noise_and_tracker_edges_accepted(self):
        data = to_dict(default_scenario(1))
        data["noise"].update(pose_sigma_xyz=0.0, yaw_sigma=0.0, detector_pixel_sigma=0.0,
                             klt_pixel_sigma=0.0, false_positive_rate=0.0,
                             detection_latency_frames=0)
        data["tracker"].update(predict_noise_px=1e-12, entropy_dereg_threshold=math.inf)
        cfg = from_dict(data)
        assert cfg.noise.klt_pixel_sigma == 0.0
        assert cfg.tracker.entropy_dereg_threshold == math.inf

    def test_range_edges_accepted(self):
        data = to_dict(default_scenario(1))
        data["planner"].update(overlap=0.0, n_per_circle=4, n_surface_samples=1)
        data["mission"]["confirm_hits"] = 1
        cfg = from_dict(data)
        assert (cfg.planner.overlap, cfg.planner.n_per_circle) == (0.0, 4)

    @pytest.mark.parametrize("name, bad", [
        ("min_update_baseline", -0.01), ("fine_replan_distance", -1.0),
        ("found_radius", -1.0), ("max_sim_time", 0.0), ("max_sim_time", -1.0),
    ])
    @pytest.mark.parametrize("kind", ["out_of_range", "nan", "string"])
    def test_useless_mission_value_rejected_at_load(self, name, bad, kind):
        # each value runs a mission that finds nothing, so validate rejects it
        value = {"out_of_range": bad, "nan": math.nan, "string": "far"}[kind]
        data = to_dict(default_scenario(1))
        data["mission"][name] = value
        with pytest.raises(ConfigError, match=rf"^mission\.{name}: "):
            from_dict(data)

    def test_mission_value_edges_accepted(self):
        data = to_dict(default_scenario(1))
        data["mission"].update(min_update_baseline=0.0, fine_replan_distance=0,
                               found_radius=0.0, max_sim_time=1e-9)
        m = from_dict(data).mission
        assert (m.min_update_baseline, m.fine_replan_distance, m.found_radius,
                m.max_sim_time) == (0.0, 0, 0.0, 1e-9)

    def test_localizer_defaults_follow_altitude(self):
        cfg = validate(ScenarioConfig(search_altitude=9.0))
        assert cfg.localizer.max_depth == pytest.approx(18.0)
