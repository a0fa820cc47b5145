"""Scenario configuration: dataclasses, JSON round-trip and validation."""

import dataclasses
import json
import math
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .bbox_tracker import TrackerConfig
from .geometry import CameraRig
from .localizer import LocalizerConfig
from .simulator import NoiseModel


class ConfigError(ValueError):
    """Scenario config failed validation; message names the offending field."""


@dataclass
class TargetSpec:
    center: tuple
    half_extents: tuple = (0.4, 0.4, 0.3)
    n_features: int = 30


@dataclass
class UavConfig:
    v_max: float = 1.0
    a_max: float = 1.0
    yaw_rate: float = 1.5


@dataclass
class PlannerConfig:
    overlap: float = 0.2
    angular_step: float = math.radians(15.0)
    standoff: float = 3.0
    n_per_circle: int = 36
    n_surface_samples: int = 10000


@dataclass
class MissionConfig:
    dt: float = 0.1
    confirm_hits: int = 3  # detector updates before a track can seed particles
    # minimum camera motion between two resampling rounds of one hypothesis;
    # back-to-back updates from one viewpoint carry no depth information and
    # only bleed particle diversity
    min_update_baseline: float = 3.0
    fine_replan_distance: float = 1.0  # replan the circle when the center moves
    fine_max_laps: float = 2.0
    suppression_scale: float = 2.0  # times the fitted cylinder radius
    max_sim_time: float = 3600.0
    found_radius: float = 2.0  # truth-matching radius for the report


@dataclass
class ScenarioConfig:
    region: tuple = (0.0, 0.0, 30.0, 10.0)
    search_altitude: float = 12.0
    seed: int = 0
    camera: CameraRig = field(default_factory=CameraRig)
    targets: list = field(default_factory=list)
    noise: NoiseModel = field(default_factory=NoiseModel)
    uav: UavConfig = field(default_factory=UavConfig)
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    localizer: LocalizerConfig = field(default_factory=LocalizerConfig)
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    mission: MissionConfig = field(default_factory=MissionConfig)


def _integer(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _at_least(low):
    return lambda v: _integer(v) and v >= low, f"must be an integer of at least {low}"


def _numbers(v) -> bool:
    """A list, tuple or 1-D array of ints and floats: no bool, and no string
    that float() would parse."""
    return ((isinstance(v, (list, tuple)) or isinstance(v, np.ndarray) and v.ndim == 1)
            and all(isinstance(x, (int, float, np.integer, np.floating))
                    and not isinstance(x, (bool, np.bool_)) for x in v))


def _three_finite(v, low=-math.inf) -> bool:
    return _numbers(v) and len(v) == 3 and all(low < x < math.inf for x in v)


_POSITIVE = (lambda v: v > 0, "must be positive")
_POSITIVE_FINITE = (lambda v: 0 < v < math.inf, "must be positive and finite")
_NON_NEGATIVE = (lambda v: v >= 0, "must be non-negative")
_NON_NEGATIVE_FINITE = (lambda v: 0 <= v < math.inf, "must be non-negative and finite")
_FINITE = (lambda v: -math.inf < v < math.inf, "must be finite")
_UNIT = (lambda v: 0 <= v <= 1, "must lie in [0, 1]")

# The one range check of every scenario value. A value out of its row's range
# either makes its use site raise, some only mid-mission, runs a mission that
# cannot find anything, or silently switches off a mission rule (a NaN lap
# limit never abandons a fine phase, a NaN suppression scale suppresses
# nothing); each rule is written so that NaN and non-numbers fail it, and
# _check refuses a bool, which Python would otherwise take as 0 or 1.
_RANGES = (
    ("region", lambda r: _numbers(r) and len(r) == 4 and -math.inf < r[0] < r[2] < math.inf
     and -math.inf < r[1] < r[3] < math.inf,
     "must be finite [x_min, y_min, x_max, y_max] with x_min < x_max and y_min < y_max"),
    ("search_altitude", *_POSITIVE_FINITE),
    ("seed", lambda v: _integer(v) and 0 <= v < 2**32, "must be an integer in [0, 2**32)"),
    ("camera.fx", *_POSITIVE_FINITE),
    ("camera.fy", *_POSITIVE_FINITE),
    ("camera.cx", *_FINITE),
    ("camera.cy", *_FINITE),
    ("camera.width", *_at_least(1)),
    ("camera.height", *_at_least(1)),
    ("camera.gamma", lambda v: 0 < v < math.pi / 2, "must lie in (0, pi/2)"),
    ("camera.beta", lambda v: 0 < v < math.pi, "must lie in (0, pi)"),
    ("noise.pose_sigma_xyz", *_NON_NEGATIVE_FINITE),
    ("noise.yaw_sigma", *_NON_NEGATIVE_FINITE),
    ("noise.detector_pixel_sigma", *_NON_NEGATIVE_FINITE),
    ("noise.klt_pixel_sigma", *_NON_NEGATIVE_FINITE),
    ("noise.false_positive_rate", *_NON_NEGATIVE_FINITE),
    ("noise.detect_prob", *_UNIT),
    ("noise.detection_latency_frames", *_at_least(0)),
    ("uav.v_max", *_POSITIVE),
    ("uav.a_max", *_POSITIVE_FINITE),
    ("uav.yaw_rate", *_POSITIVE),
    ("tracker.predict_noise_px", *_POSITIVE_FINITE),
    ("tracker.measure_noise_px", *_POSITIVE_FINITE),
    ("tracker.iou_register_threshold", lambda v: 0 < v < 1, "must lie in (0, 1)"),
    ("tracker.entropy_dereg_threshold", lambda v: -math.inf <= v <= math.inf,
     "must be a number, not NaN"),
    ("localizer.n_particles", *_at_least(100)),
    ("localizer.enlarge_factor", lambda v: 1 <= v < math.inf, "must be finite and at least 1"),
    ("localizer.update_noise_var", *_NON_NEGATIVE_FINITE),
    ("localizer.uniform_weight", *_UNIT),
    ("localizer.lambda_rough", *_POSITIVE),
    ("localizer.lambda_fine", *_POSITIVE),
    ("localizer.kl_converged", *_POSITIVE),
    ("planner.overlap", lambda v: 0 <= v < 1, "must lie in [0, 1)"),
    ("planner.angular_step", *_POSITIVE),
    ("planner.standoff", *_POSITIVE_FINITE),
    ("planner.n_per_circle", *_at_least(4)),
    ("planner.n_surface_samples", *_at_least(1)),
    ("mission.dt", *_POSITIVE_FINITE),
    ("mission.confirm_hits", *_at_least(1)),
    ("mission.min_update_baseline", *_NON_NEGATIVE_FINITE),
    ("mission.fine_replan_distance", *_NON_NEGATIVE),
    ("mission.fine_max_laps", *_POSITIVE),
    ("mission.suppression_scale", *_POSITIVE_FINITE),
    ("mission.found_radius", *_NON_NEGATIVE),
    ("mission.max_sim_time", *_POSITIVE),
)

_TARGET_RANGES = (
    ("center", _three_finite, "must be 3 finite values"),
    ("half_extents", lambda v: _three_finite(v, low=0), "must be 3 positive finite values"),
    ("n_features", *_at_least(4)),
)


def _check(rows, obj, prefix=""):
    for path, in_range, rule in rows:
        value = attrgetter(path)(obj)
        try:
            ok = not isinstance(value, (bool, np.bool_)) and bool(in_range(value))
        except (TypeError, ValueError):  # not a number, or not a sequence of them
            ok = False
        if not ok:
            raise ConfigError(f"{prefix}{path}: {rule}")


def validate(cfg: ScenarioConfig) -> ScenarioConfig:
    """Check every value against its row in _RANGES, each target against
    _TARGET_RANGES, then the constraints that span fields."""
    _check(_RANGES, cfg)
    if cfg.camera.beta >= cfg.camera.vfov:
        raise ConfigError("camera.beta: must be smaller than the vertical field of view")
    if cfg.camera.gamma <= cfg.camera.beta / 2.0:
        raise ConfigError(
            "camera.gamma: mapping geometry requires gamma > beta/2 so the shallow "
            "scanning ray still points downward"
        )
    for i, tg in enumerate(cfg.targets):
        _check(_TARGET_RANGES, tg, f"targets[{i}].")
        if float(tg.center[2]) + float(tg.half_extents[2]) >= cfg.search_altitude:
            raise ConfigError(
                f"targets[{i}]: top reaches the search altitude "
                f"{cfg.search_altitude}; the UAV would start below the target"
            )
    return cfg


def to_dict(cfg: ScenarioConfig) -> dict:
    return dataclasses.asdict(cfg)


def _build(cls, data, path):
    """Construct a dataclass from a dict, naming unknown/invalid fields."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"{path}: unknown field(s) {sorted(unknown)}")
    for f in dataclasses.fields(cls):
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        if required and f.name not in data:
            raise ConfigError(f"{path}.{f.name}: must be given")
    return cls(**data)


_SECTIONS = {f.name: f.default_factory for f in dataclasses.fields(ScenarioConfig)
             if dataclasses.is_dataclass(f.default_factory)}


def from_dict(data: dict) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigError("top level: expected a JSON object")
    data = dict(data)
    parts = {name: _build(cls, data.pop(name), name)
             for name, cls in _SECTIONS.items() if name in data}
    if "targets" in data:
        raw = data.pop("targets")
        if not isinstance(raw, list):
            raise ConfigError("targets: expected a list")
        parts["targets"] = [
            _build(TargetSpec, t, f"targets[{i}]") for i, t in enumerate(raw)
        ]
    cfg = validate(_build(ScenarioConfig, {**data, **parts}, "top level"))
    # validate found each to be numbers; as tuples of floats, a file's
    # [15, 5.5, 0.3] loads equal to the stock center and config.json records
    # it as 15.0
    cfg.region = tuple(float(v) for v in cfg.region)
    for t in cfg.targets:
        t.center = tuple(float(v) for v in t.center)
        t.half_extents = tuple(float(v) for v in t.half_extents)
    return cfg


def load(path) -> ScenarioConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from None
    return from_dict(data)

