"""Engine and simulator for localizing and mapping sparse ground targets."""

from . import config
from .mission import MissionRunner

__all__ = ["MissionRunner", "config"]
