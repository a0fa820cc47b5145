"""Engine and simulator for localizing and mapping sparse ground targets."""

from .bbox_tracker import (
    BoxTrack,
    TrackerConfig,
    bbox_entropy,
    estimate_similarity,
    iou,
)
from .config import ScenarioConfig, default_scenario, load, validate
from .geometry import BBox, CameraRig, PoseSE3
from .localizer import (
    GaussianSummary,
    LocalizerConfig,
    ParticleSet,
    generate_particles,
    kl_divergence,
    points_entropy,
    update_particles,
)
from .mapping_planner import Cylinder, ScanPlan, fit_cylinder, scan_circles
from .mission import MissionRunner, RunReport, emit_plot_data, run_scenario
from .simulator import NoiseModel, TargetTruth, WaypointFollower
from .view_planner import ViewCircle, Waypoint, fine_localization_circle, next_best_view

__all__ = [
    "BBox", "BoxTrack", "CameraRig", "Cylinder", "GaussianSummary",
    "LocalizerConfig", "MissionRunner", "NoiseModel", "ParticleSet", "PoseSE3",
    "RunReport", "ScanPlan", "ScenarioConfig", "TargetTruth", "TrackerConfig",
    "ViewCircle", "Waypoint", "WaypointFollower", "bbox_entropy",
    "default_scenario", "estimate_similarity", "fine_localization_circle",
    "fit_cylinder", "generate_particles", "iou", "kl_divergence", "load",
    "next_best_view", "points_entropy", "run_scenario", "scan_circles",
    "update_particles", "validate", "emit_plot_data",
]
