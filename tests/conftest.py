import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from conescan.config import ScenarioConfig, load, to_dict
from conescan.geometry import CameraRig, PoseSE3, project_points
from conescan.simulator import TruthPoints

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

# the stock scenario files by target count
STOCK_FILES = ("empty.json", "one_target.json", "two_targets.json",
               "three_targets.json", "four_targets.json")


def stock_scenario(n_targets: int, seed: int = 7) -> ScenarioConfig:
    """The stock scenario file with n_targets targets, run at seed."""
    return dataclasses.replace(load(SCENARIOS / STOCK_FILES[n_targets]), seed=seed)


def to_json(cfg: ScenarioConfig) -> str:
    """A config as scenario-file JSON, as config.json records it."""
    return json.dumps(to_dict(cfg), indent=2, sort_keys=True)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish random rotation from the QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q


def random_pose(rng: np.random.Generator, translation_scale: float = 10.0) -> PoseSE3:
    return PoseSE3(random_rotation(rng),
                   translation_scale * rng.standard_normal(3))


def same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes: unlike np.array_equal, -0.0 differs from 0.0
    and a NaN equals the same NaN."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def identity_pose() -> PoseSE3:
    """The identity rigid transform: the camera frame is the world frame."""
    return PoseSE3(np.eye(3), np.zeros(3))


def similarity_matrix(scale, theta, tx, ty) -> np.ndarray:
    """The (3, 3) image similarity, by the formula estimate_similarity returns."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[scale * c, -scale * s, tx], [scale * s, scale * c, ty], [0, 0, 1.0]])


def scale_and_angle(m: np.ndarray) -> tuple:
    """The uniform scale and rotation angle of a similarity matrix."""
    return float(np.linalg.norm(m[:2, 0])), math.atan2(m[1, 0], m[0, 0])


def project_truth(targets, world_to_cam: PoseSE3, cam: CameraRig) -> list:
    """Each target's TargetProjection at one pose, made as MissionRunner makes
    them: one project_points call over TruthPoints, cut by split."""
    truth = TruthPoints(targets)
    return truth.split(*project_points(truth.points, world_to_cam, cam), cam)


@pytest.fixture
def cam() -> CameraRig:
    return CameraRig()
