import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from conescan import config as config_mod
from conescan.config import (
    ConfigError,
    ScenarioConfig,
    TargetSpec,
    from_dict,
    load,
    to_dict,
    validate,
)
from conescan.bbox_tracker import associate_and_register
from conescan.geometry import BBox, CameraRig
from conftest import SCENARIOS, stock_scenario, to_json


class TestRoundTrip:
    def test_default_scenario_survives_json(self):
        cfg = stock_scenario(2, seed=5)
        clone = from_dict(json.loads(to_json(cfg)))
        assert to_json(clone) == to_json(cfg)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(to_json(stock_scenario(1)))
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

    def test_target_values_load_as_tuples_of_floats(self):
        # as written, [15, 5.5, 0.3] went into config.json as 15 and loaded
        # unequal to the stock target; numpy numbers load the same way
        for center, half_extents, region in [
            ([15, 5.5, 0.3], [1, 1, 1], [0, 0, 30, 10]),
            (np.array([15, 5.5, 0.3]), (np.int64(1), 1.0, np.float32(1.0)),
             (0, 0, np.int64(30), 10.0)),
        ]:
            cfg = from_dict({"region": region,
                             "targets": [{"center": center, "half_extents": half_extents}]})
            tg = cfg.targets[0]
            assert type(tg.center) is type(tg.half_extents) is tuple
            assert [type(v) for v in tg.center + tg.half_extents + cfg.region] == [float] * 10
            assert cfg.targets == [TargetSpec(center=(15.0, 5.5, 0.3),
                                              half_extents=(1.0, 1.0, 1.0))]
            assert cfg.region == (0.0, 0.0, 30.0, 10.0)

    def test_left_out_camera_fields_take_their_defaults(self):
        # failed with CameraRig's constructor error naming 7 missing arguments
        cfg = from_dict({"camera": {"gamma": 1.0}})
        assert cfg.camera == dataclasses.replace(CameraRig(), gamma=1.0)


# SHA-256 of each stock file as it was when it listed every value: the text
# to_json writes for the mission the file loads, which is also the config.json
# of each run directory, less its final newline
STOCK_FILE_DIGESTS = {
    "one_target.json": "a01131124264af985abbb1f73cd9854f9973330e99b2127f3c7af900af2af9aa",
    "two_targets.json": "ae37ca46117d3a8da3ae73cb2249d2c7fb38e7911abfd602e47ac8a11e47bc5e",
    "empty.json": "72f24bc143cf6276bf61ddb075b0e9837447eea4669f1ca4e87edb7d13723d96",
    "three_targets.json": "d810b13161bd3c605bd91895a7a3adff0e132eccb8687a61bfdae55f85ba4d61",
    "four_targets.json": "46b2995efde58cee2b250dfa6b80000b918082197fe9676ca43305d63f0ab709",
}


# a target's defaults as JSON writes them, lists in place of tuples
TARGET_DEFAULTS = json.loads(json.dumps(to_dict(TargetSpec(center=None))))


def stock_values(data, defaults, prefix=""):
    """Dotted paths of the values in data that equal their dataclass default."""
    for key, value in data.items():
        if value == defaults[key]:
            yield prefix + key
        elif key == "targets":
            for i, t in enumerate(value):
                yield from stock_values(t, TARGET_DEFAULTS, f"targets[{i}].")
        elif isinstance(value, dict):
            yield from stock_values(value, defaults[key], f"{prefix}{key}.")


class TestStockScenarios:
    @pytest.mark.parametrize("name, n_targets, seed", [
        ("one_target.json", 1, 3), ("two_targets.json", 2, 7), ("empty.json", 0, 1),
        ("three_targets.json", 3, 3), ("four_targets.json", 4, 3),
    ])
    def test_file_lists_only_what_differs(self, name, n_targets, seed):
        path = SCENARIOS / name
        cfg = load(path)
        assert (len(cfg.targets), cfg.seed) == (n_targets, seed)
        text = to_json(cfg) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == STOCK_FILE_DIGESTS[name]
        # a file that restates a default would drift when that default moves
        defaults = json.loads(to_json(ScenarioConfig()))
        assert list(stock_values(json.loads(path.read_text()), defaults)) == []


class TestValidation:
    def test_mapping_geometry_constraint_named(self):
        data = to_dict(stock_scenario(1))
        data["camera"]["gamma"] = math.radians(15.0)
        data["camera"]["beta"] = math.radians(40.0)
        with pytest.raises(ConfigError, match="gamma > beta/2"):
            from_dict(data)

    def test_target_above_search_altitude(self):
        cfg = stock_scenario(1)
        cfg.targets = [TargetSpec(center=(5, 5, 20.0))]
        with pytest.raises(ConfigError, match="search altitude"):
            validate(cfg)

    @pytest.mark.parametrize("region", [
        (True, 0.0, 30.0, 10.0), ("0", "0", "30", "10"), "0139",
    ])
    def test_validate_refuses_a_region_of_non_numbers(self, region):
        # a config built in code reaches MissionRunner through validate alone;
        # True < 30 made (True, 0, 30, 10) a valid region
        cfg = stock_scenario(1)
        cfg.region = region
        with pytest.raises(ConfigError, match=r"^region: "):
            validate(cfg)

    def test_empty_region(self):
        data = to_dict(stock_scenario(1))
        data["region"] = [10, 0, 10, 10]
        with pytest.raises(ConfigError, match="region"):
            from_dict(data)

    def test_unknown_field_named(self):
        data = to_dict(stock_scenario(1))
        data["localizer"]["particle_count"] = 5
        with pytest.raises(ConfigError, match="particle_count"):
            from_dict(data)

    def test_bad_noise_value_scoped(self):
        data = to_dict(stock_scenario(1))
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
        # the prior is measure_noise_px**2 * I, not a field: a stored matrix is
        # refused whatever is wrong with it, before any check of its content
        data = to_dict(stock_scenario(1))
        data["tracker"]["initial_sigma"] = sigma
        with pytest.raises(ConfigError,
                           match=r"^tracker: unknown field\(s\) \['initial_sigma'\]$"):
            from_dict(data)

    @pytest.mark.parametrize("section, name, value", [
        ("uav", "v_max", 0), ("uav", "a_max", -1.0), ("uav", "yaw_rate", 0.0),
        ("planner", "overlap", 1.0), ("planner", "overlap", -0.1),
        ("planner", "angular_step", 0), ("planner", "standoff", 0.0),
        ("planner", "n_per_circle", 0), ("planner", "n_per_circle", 3),
        ("planner", "n_per_circle", 36.0), ("planner", "n_surface_samples", 0),
        ("mission", "dt", 0.0), ("mission", "confirm_hits", 0),
        ("mission", "confirm_hits", 2.5), ("planner", "n_surface_samples", 2.5),
        ("mission", "dt", True), ("mission", "max_sim_time", True),
        ("noise", "detect_prob", True), ("localizer", "lambda_fine", True),
        ("mission", "confirm_hits", True), ("camera", "width", False),
        ("uav", "v_max", "fast"), ("mission", "dt", math.nan),
        ("noise", "pose_sigma_xyz", math.nan), ("noise", "yaw_sigma", math.nan),
        ("noise", "detector_pixel_sigma", math.nan),
        ("noise", "klt_pixel_sigma", math.nan),
        ("noise", "false_positive_rate", math.nan),
        ("noise", "detection_latency_frames", math.nan),
        ("noise", "detection_latency_frames", -1),
        ("noise", "detection_latency_frames", 2.5),
        ("noise", "pose_sigma_xyz", math.inf), ("noise", "detect_prob", 1.5),
        ("tracker", "predict_noise_px", math.nan),
        ("tracker", "measure_noise_px", math.nan),
        ("tracker", "predict_noise_px", math.inf),
        ("tracker", "measure_noise_px", 0.0), ("tracker", "measure_noise_px", "x"),
        ("tracker", "entropy_dereg_threshold", math.nan),
        ("tracker", "entropy_dereg_threshold", "high"),
        ("tracker", "iou_register_threshold", 1.0),
        ("camera", "fx", math.nan), ("camera", "cx", math.nan),
        ("camera", "fy", 0.0), ("camera", "cy", math.inf),
        ("camera", "width", 0), ("camera", "height", 480.5),
        ("camera", "gamma", math.pi / 2), ("camera", "beta", math.nan),
        ("localizer", "update_noise_var", -0.01),
        ("localizer", "enlarge_factor", math.nan), ("localizer", "enlarge_factor", 0.5),
        ("localizer", "kl_converged", math.nan),
        ("localizer", "lambda_rough", 0), ("localizer", "lambda_rough", -1),
        ("localizer", "lambda_fine", math.nan), ("localizer", "n_particles", 99),
        ("localizer", "n_particles", 1000.0), ("localizer", "uniform_weight", -0.1),
        ("localizer", "uniform_weight", 1.1), ("uav", "a_max", math.inf),
        ("mission", "dt", math.inf), ("planner", "standoff", math.inf),
        ("mission", "min_update_baseline", math.inf),
    ])
    def test_range_rejected_at_load(self, section, name, value):
        # each value makes its use site raise, at start, mid-mission or at mapping,
        # runs a mission that finds nothing, or is not a number at all
        data = to_dict(stock_scenario(1))
        data[section][name] = value
        with pytest.raises(ConfigError, match=rf"^{section}\.{name}: "):
            from_dict(data)

    @pytest.mark.parametrize("key, value", [
        ("search_altitude", math.nan), ("search_altitude", "high"),
        ("search_altitude", math.inf), ("seed", 1.5), ("seed", "x"), ("seed", True),
        ("region", [0.0, 0.0, math.nan, 10.0]), ("region", [0.0, 0.0, math.inf, 10.0]),
        ("region", [0.0, "x", 30.0, 10.0]), ("region", [0.0, 0.0, 30.0]),
        ("seed", -1), ("seed", 2**32), ("region", "0139"),
        ("region", ["0", "0", "30", "10"]), ("region", [True, 0.0, 30.0, 10.0]),
    ])
    def test_top_level_value_rejected_at_load(self, key, value):
        # a fractional seed ran the truncated seed's streams under the given name,
        # and a seed outside [0, 2**32) those of the seed it equals modulo 2**32;
        # with no localizer section, a string altitude died computing the depth
        # prior; a string region loaded digit by digit, numeric strings as numbers
        data = to_dict(stock_scenario(1))
        del data["localizer"]
        data[key] = value
        with pytest.raises(ConfigError, match=rf"^{key}: "):
            from_dict(data)

    @pytest.mark.parametrize("name, value", [
        ("n_features", math.nan), ("n_features", 30.5), ("n_features", 3),
        ("center", [15.0, math.nan, 0.3]), ("center", [15.0, 5.5]),
        ("center", "middle"), ("half_extents", [0.4, 0.0, 0.3]),
        ("half_extents", [0.4, math.inf, 0.3]), ("center", ["15", "5.5", "0.3"]),
        ("center", [True, 5.5, 0.3]), ("half_extents", ["0.4", "0.4", "0.3"]),
        ("half_extents", [0.4, True, 0.3]),
    ])
    def test_target_value_rejected_at_load(self, name, value):
        data = to_dict(stock_scenario(1))
        data["targets"][0][name] = value
        with pytest.raises(ConfigError, match=rf"^targets\[0\]\.{name}: "):
            from_dict(data)

    @pytest.mark.parametrize("section, values, message", [
        ("camera", {"beta": 1.0, "gamma": 1.5}, r"^camera\.beta: .*vertical field of view"),
    ])
    def test_cross_field_rejected_at_load(self, section, values, message):
        data = to_dict(stock_scenario(1))
        data[section].update(values)
        with pytest.raises(ConfigError, match=message):
            from_dict(data)

    def test_noise_and_tracker_edges_accepted(self):
        data = to_dict(stock_scenario(1))
        data["noise"].update(pose_sigma_xyz=0.0, yaw_sigma=0.0, detector_pixel_sigma=0.0,
                             klt_pixel_sigma=0.0, false_positive_rate=0.0,
                             detection_latency_frames=0)
        data["tracker"].update(predict_noise_px=1e-12, entropy_dereg_threshold=math.inf)
        cfg = from_dict(data)
        assert cfg.noise.klt_pixel_sigma == 0.0
        assert cfg.tracker.entropy_dereg_threshold == math.inf

    def test_range_edges_accepted(self):
        data = to_dict(stock_scenario(1))
        data["planner"].update(overlap=0.0, n_per_circle=4, n_surface_samples=1)
        # infinity stays valid where it means "no limit"
        data["mission"].update(confirm_hits=1, max_sim_time=math.inf, fine_max_laps=math.inf)
        data["camera"].update(cx=0.0, cy=-1e6, width=1, beta=1e-9, gamma=1e-9)
        data["localizer"].update(n_particles=100, enlarge_factor=1, update_noise_var=0.0,
                                 uniform_weight=0.0, lambda_fine=1e-12,
                                 kl_converged=math.inf)
        for seed in (0, 2**32 - 1):
            data["seed"] = seed
            assert from_dict(data).seed == seed
        cfg = from_dict(data)
        assert (cfg.planner.overlap, cfg.planner.n_per_circle) == (0.0, 4)
        assert (cfg.camera.cy, cfg.camera.width) == (-1e6, 1)
        assert (cfg.localizer.n_particles, cfg.localizer.update_noise_var) == (100, 0.0)
        assert cfg.localizer.gauss_weight == 1.0
        assert cfg.mission.max_sim_time == cfg.mission.fine_max_laps == math.inf

    @pytest.mark.parametrize("name, bad", [
        ("min_update_baseline", -0.01), ("fine_replan_distance", -1.0),
        ("found_radius", -1.0), ("max_sim_time", 0.0), ("max_sim_time", -1.0),
    ])
    @pytest.mark.parametrize("kind", ["out_of_range", "nan", "string"])
    def test_useless_mission_value_rejected_at_load(self, name, bad, kind):
        # each value runs a mission that finds nothing, so validate rejects it
        value = {"out_of_range": bad, "nan": math.nan, "string": "far"}[kind]
        data = to_dict(stock_scenario(1))
        data["mission"][name] = value
        with pytest.raises(ConfigError, match=rf"^mission\.{name}: "):
            from_dict(data)

    @pytest.mark.parametrize("bad", ["two", math.nan, 0.0, -1.0])
    def test_fine_max_laps_rejected_at_load(self, bad):
        # a string raised a TypeError when the first fine arc ended, NaN never
        # abandoned a fine phase, and zero or less abandoned it after one arc
        data = to_dict(stock_scenario(1))
        data["mission"]["fine_max_laps"] = bad
        with pytest.raises(ConfigError, match=r"^mission\.fine_max_laps: must be positive"):
            from_dict(data)

    @pytest.mark.parametrize("bad", ["wide", math.nan, math.inf, 0.0, -2.0])
    def test_suppression_scale_rejected_at_load(self, bad):
        # NaN silently switched target suppression off, and a negative or
        # infinite suppression radius has no meaning
        data = to_dict(stock_scenario(1))
        data["mission"]["suppression_scale"] = bad
        with pytest.raises(ConfigError,
                           match=r"^mission\.suppression_scale: must be positive and finite"):
            from_dict(data)

    def test_mission_value_edges_accepted(self):
        data = to_dict(stock_scenario(1))
        data["mission"].update(min_update_baseline=0.0, fine_replan_distance=0,
                               found_radius=0.0, max_sim_time=1e-9)
        m = from_dict(data).mission
        assert (m.min_update_baseline, m.fine_replan_distance, m.found_radius,
                m.max_sim_time) == (0.0, 0, 0.0, 1e-9)

    @pytest.mark.parametrize("name", ["entropy_rough", "entropy_converged"])
    def test_stored_entropy_gate_rejected(self, name):
        data = to_dict(stock_scenario(1))
        data["localizer"][name] = 6.3
        with pytest.raises(ConfigError, match=rf"^localizer: unknown field\(s\) \['{name}'\]"):
            from_dict(data)

    @staticmethod
    def registered_var(tracker_cfg):
        """The variance of a track registered from one detection."""
        _, (track,) = associate_and_register([], [BBox(0, 0, 10, 10)], tracker_cfg)
        return track.var

    def test_derived_prior_and_weight_equal_the_stored_ones(self):
        # the values the stock files stored, bit for bit: the prior was 16 I
        cfg = load(SCENARIOS / "one_target.json")
        assert self.registered_var(cfg.tracker) == 16.0
        assert cfg.localizer.gauss_weight == 0.9

    def test_derived_prior_and_weight_follow_their_fields(self):
        data = to_dict(stock_scenario(1))
        data["tracker"]["measure_noise_px"] = 3.0
        data["localizer"]["uniform_weight"] = 0.25
        cfg = from_dict(data)
        assert self.registered_var(cfg.tracker) == 9.0
        assert cfg.localizer.gauss_weight == 0.75

    @pytest.mark.parametrize("section, name, value", [
        ("tracker", "initial_sigma", (16.0 * np.eye(4)).tolist()),
        ("localizer", "max_depth", 24.0), ("localizer", "gauss_weight", 0.9),
    ])
    def test_stored_derived_value_rejected(self, section, name, value):
        # the values the stock files stored before these became derived
        data = to_dict(stock_scenario(1))
        data[section][name] = value
        with pytest.raises(ConfigError,
                           match=rf"^{section}: unknown field\(s\) \['{name}'\]$"):
            from_dict(data)


# Fields that no range row checks, each with the reason.
UNRANGED = {}


def scenario_fields():
    """Dotted path of every scalar scenario field; targets[i] stands for each target."""
    cfg = stock_scenario(1)
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if dataclasses.is_dataclass(value):
            yield from (f"{f.name}.{g.name}" for g in dataclasses.fields(value))
        elif f.name == "targets":
            yield from (f"targets[i].{g.name}" for g in dataclasses.fields(TargetSpec))
        else:
            yield f.name


class TestFieldCoverage:
    def test_every_field_is_range_checked_or_exempt(self):
        rows = {path for path, _, _ in config_mod._RANGES}
        rows |= {f"targets[i].{name}" for name, _, _ in config_mod._TARGET_RANGES}
        unchecked = [p for p in scenario_fields() if p not in rows and p not in UNRANGED]
        assert unchecked == []

    def test_no_row_or_exemption_is_stale(self):
        known = set(scenario_fields())
        rows = [path for path, _, _ in config_mod._RANGES]
        rows += [f"targets[i].{name}" for name, _, _ in config_mod._TARGET_RANGES]
        assert [p for p in rows + list(UNRANGED) if p not in known] == []
        assert not set(rows) & set(UNRANGED)

    def test_no_config_class_computes_at_construction(self):
        # a value computed in __post_init__ runs before validate, so a bad field
        # fails there without its section.field name
        classes = [ScenarioConfig, TargetSpec, *config_mod._SECTIONS.values()]
        assert [c.__name__ for c in classes if hasattr(c, "__post_init__")] == []
