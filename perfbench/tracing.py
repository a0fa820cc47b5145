"""Span tracer for the mission benchmark.

The tracer wraps the public functions that ``conescan.mission`` calls, in the
namespace that calls them (``mission.py`` imports functions by name), plus the
tracker's and localizer's internal helpers and a few methods on their classes.
Each call becomes one span: name, start, end, parent span and frame number.
Spans are kept in flat arrays while the mission runs and aggregated into the
per-layer metrics afterwards.

Nothing under ``src/`` is changed: ``Tracer.install`` patches module and class
attributes and ``Tracer.uninstall`` puts the originals back.
"""

import importlib
import time
from array import array
from collections import Counter

import numpy as np

NO_PARENT = -1
NO_FRAME = -1

def _observe_detector(tracer, args, kwargs, result):
    tracer.counts["simulator.detections"] += len(result)


def _observe_klt(tracer, args, kwargs, result):
    if result is None:
        tracer.counts["simulator.simulate_klt.none"] += 1


def _observe_predict(tracer, args, kwargs, result):
    scale = kwargs.get("noise_scale", args[3] if len(args) > 3 else 1.0)
    if scale != 1.0:
        tracer.counts["bbox_tracker.predict.fallback"] += 1


def _observe_step(tracer, args, kwargs, result):
    bank = args[0].tracks
    tracer.counts["bbox_tracker.bank_frames"] += 1
    tracer.counts["bbox_tracker.bank_size"] += len(bank)
    if bank:
        tracer.counts["bbox_tracker.active_frac_sum"] += len(args[0].active()) / len(bank)


def _observe_match(tracer, args, kwargs, result):
    tracer.counts["localizer.needs_new_particle_set.points_tested"] += sum(
        len(ps.points) for ps in args[0])
    if result:
        tracer.counts["localizer.needs_new_particle_set.matched"] += 1


def _observe_update_particles(tracer, args, kwargs, result):
    if result.starved:
        tracer.counts["localizer.update_particles.starved"] += 1


def _enter_tick(tracer, args):
    tracer.frame = args[0].frame + 1


def _observe_tick(tracer, args, kwargs, result):
    tracer.frame = NO_FRAME


# (module, attribute, span name, enter hook, exit observer). A module-level
# name is patched in the namespace that calls it; a ``Class.method`` is
# patched on the class, for every caller.
PATCHES = (
    ("conescan.mission", "simulate_detector", "simulator.simulate_detector", None,
     _observe_detector),
    ("conescan.mission", "simulate_klt", "simulator.simulate_klt", None, _observe_klt),
    ("conescan.mission", "perturb_pose", "simulator.perturb_pose", None, None),
    ("conescan.simulator", "WaypointFollower.step", "simulator.WaypointFollower.step",
     None, None),
    ("conescan.bbox_tracker", "TrackerState.step", "bbox_tracker.TrackerState.step",
     None, _observe_step),
    ("conescan.bbox_tracker", "predict", "bbox_tracker.predict", None, _observe_predict),
    ("conescan.bbox_tracker", "update", "bbox_tracker.update", None, None),
    ("conescan.bbox_tracker", "associate_and_register",
     "bbox_tracker.associate_and_register", None, None),
    ("conescan.bbox_tracker", "prune", "bbox_tracker.prune", None, None),
    ("conescan.bbox_tracker", "bbox_entropy", "bbox_tracker.bbox_entropy", None, None),
    ("conescan.bbox_tracker", "iou", "bbox_tracker.iou", None, None),
    ("conescan.mission", "iou", "bbox_tracker.iou", None, None),
    ("conescan.mission", "bbox_entropy", "bbox_tracker.bbox_entropy", None, None),
    ("conescan.mission", "estimate_similarity", "bbox_tracker.estimate_similarity",
     None, None),
    ("conescan.mission", "needs_new_particle_set", "localizer.needs_new_particle_set",
     None, _observe_match),
    ("conescan.mission", "update_particles", "localizer.update_particles", None,
     _observe_update_particles),
    ("conescan.mission", "generate_particles", "localizer.generate_particles",
     None, None),
    ("conescan.mission", "drop_duplicates", "localizer.drop_duplicates", None, None),
    ("conescan.mission", "kl_divergence", "localizer.kl_divergence", None, None),
    ("conescan.mission", "gaussian_summary", "localizer.gaussian_summary", None, None),
    ("conescan.mission", "pca_summary", "localizer.pca_summary", None, None),
    ("conescan.localizer", "pca_summary", "localizer.pca_summary", None, None),
    ("conescan.localizer", "points_entropy", "localizer.points_entropy", None, None),
    ("conescan.localizer", "TargetHypothesis.record", "localizer.TargetHypothesis.record",
     None, None),
    ("conescan.mission", "camera_to_world_pose", "geometry.camera_to_world_pose",
     None, None),
    ("conescan.geometry", "PoseSE3.inverse", "geometry.PoseSE3.inverse", None, None),
    ("conescan.mission", "project_points", "geometry.project_points", None, None),
    ("conescan.mission", "cone_normals", "geometry.cone_normals", None, None),
    ("conescan.mission", "lawnmower_path", "view_planner.lawnmower_path", None, None),
    ("conescan.mission", "fine_localization_circle",
     "view_planner.fine_localization_circle", None, None),
    ("conescan.mission", "next_best_view", "view_planner.next_best_view", None, None),
    ("conescan.mission", "arc_path", "view_planner.arc_path", None, None),
    ("conescan.mission", "fit_cylinder", "mapping_planner.fit_cylinder", None, None),
    ("conescan.mission", "scan_circles", "mapping_planner.scan_circles", None, None),
    ("conescan.mission", "coverage_samples", "mapping_planner.coverage_samples",
     None, None),
    ("conescan.mission", "mapping_path", "mapping_planner.mapping_path", None, None),
    ("conescan.mission", "MissionRunner._tick", "mission.tick", _enter_tick,
     _observe_tick),
)


def owner_and_name(module, attribute):
    """The object that holds ``attribute`` (a module or class) and its name."""
    owner = importlib.import_module(module)
    *classes, name = attribute.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, name


def stored_attribute(owner, name):
    """The attribute as stored: the class dict entry for a class, so that a
    method is saved and restored as the plain function."""
    return owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.frames = array("i")
        self._stack = [NO_PARENT]
        self.frame = NO_FRAME
        self.counts = Counter()
        self._saved = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, span_name, enter=None, observe=None):
        """Return ``fn`` wrapped so that each call records one span."""
        nid = self._name_id(span_name)
        names, starts, ends = self.name, self.start, self.end
        parents, frames, stack = self.parent, self.frames, self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if enter is not None:
                enter(tracer, args)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            frames.append(tracer.frame)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counts[span_name + ".raised"] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Patch every entry of ``PATCHES``; ``uninstall`` restores them."""
        try:
            for module, attribute, span_name, enter, observe in PATCHES:
                owner, name = owner_and_name(module, attribute)
                original = stored_attribute(owner, name)
                self._saved.append((owner, name, original))
                setattr(owner, name, self.wrap(original, span_name, enter, observe))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # ------------------------------------------------------------ aggregation

    def arrays(self):
        """Spans as numpy arrays: name id, start, end, parent, frame,
        duration and self time (duration minus the time of direct children)."""
        if len(self._stack) != 1:
            raise RuntimeError("spans still open")
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": start, "end": end, "parent": parent,
            "frame": np.frombuffer(self.frames, dtype=np.int32).copy(),
            "dur": dur, "self": dur - child,
        }


# ---------------------------------------------------------------- per layer

LAYERS = ("simulator", "bbox_tracker", "localizer", "geometry", "view_planner",
          "mapping_planner", "mission")

CLOUD_STATS = ("localizer.gaussian_summary", "localizer.pca_summary",
               "localizer.points_entropy")

# Functions reported with both a call count and inclusive time.
CALLS_AND_TIME = (
    "simulator.simulate_detector", "simulator.simulate_klt", "simulator.perturb_pose",
    "simulator.WaypointFollower.step",
    "bbox_tracker.predict", "bbox_tracker.update", "bbox_tracker.associate_and_register",
    "bbox_tracker.prune", "bbox_tracker.iou", "bbox_tracker.estimate_similarity",
    "localizer.needs_new_particle_set", "localizer.update_particles",
    "localizer.generate_particles", "localizer.drop_duplicates",
    "geometry.camera_to_world_pose", "geometry.PoseSE3.inverse",
    "geometry.project_points", "geometry.cone_normals",
    "mapping_planner.fit_cylinder", "mapping_planner.scan_circles",
    "mapping_planner.coverage_samples", "mapping_planner.mapping_path",
)


def _ratio(num, den):
    return num / den if den else 0.0


def span_metrics(tracer):
    """Per-layer metrics computed from the recorded spans and counters.

    Returns ``{name: (value, unit)}``. Every name is present even when the
    function was never called, so all workloads report the same set.
    """
    sp = tracer.arrays()
    names = tracer.names
    layer_of = np.array([n.split(".", 1)[0] for n in names], dtype=object)
    span_layer = layer_of[sp["name"]]
    parent_layer = np.where(sp["parent"] >= 0, span_layer[np.maximum(sp["parent"], 0)], "")

    def mask(name):
        if name not in names:
            return np.zeros(len(sp["name"]), dtype=bool)
        return sp["name"] == names.index(name)

    def calls(name):
        return int(mask(name).sum())

    def secs(name):
        return float(sp["dur"][mask(name)].sum())

    def parent_is(name, parent_name):
        m = mask(name)
        parents = sp["parent"][m]
        has = parents >= 0
        return int((mask(parent_name)[parents[has]]).sum()) if has.any() else 0

    c = tracer.counts
    frames = calls("mission.tick")
    out = {}
    for layer in LAYERS:
        in_layer = span_layer == layer
        top = in_layer & (parent_layer != layer)
        out[f"{layer}.s"] = (float(sp["dur"][top].sum()), "s")
        out[f"{layer}.self_s"] = (float(sp["self"][in_layer].sum()), "s")
    for name in CALLS_AND_TIME:
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.s"] = (secs(name), "s")

    out["simulator.simulate_klt.none_frac"] = (
        _ratio(c["simulator.simulate_klt.none"], calls("simulator.simulate_klt")), "ratio")
    out["simulator.detections_per_frame"] = (
        _ratio(c["simulator.detections"], frames), "1/frame")

    step = mask("bbox_tracker.TrackerState.step")
    out["bbox_tracker.TrackerState.step.s"] = (float(sp["dur"][step].sum()), "s")
    out["bbox_tracker.TrackerState.step.self_s"] = (float(sp["self"][step].sum()), "s")
    out["bbox_tracker.predict.fallback_frac"] = (
        _ratio(c["bbox_tracker.predict.fallback"], calls("bbox_tracker.predict")), "ratio")
    out["bbox_tracker.estimate_similarity.fail_frac"] = (
        _ratio(c["bbox_tracker.estimate_similarity.raised"],
               calls("bbox_tracker.estimate_similarity")), "ratio")
    out["bbox_tracker.bbox_entropy.calls_mission"] = (
        parent_is("bbox_tracker.bbox_entropy", "mission.tick"), "count")
    out["bbox_tracker.bbox_entropy.calls_prune"] = (
        parent_is("bbox_tracker.bbox_entropy", "bbox_tracker.prune"), "count")
    out["bbox_tracker.bbox_entropy.s"] = (secs("bbox_tracker.bbox_entropy"), "s")
    out["bbox_tracker.bank_size_mean"] = (
        _ratio(c["bbox_tracker.bank_size"], c["bbox_tracker.bank_frames"]), "count")
    out["bbox_tracker.active_frac"] = (
        _ratio(c["bbox_tracker.active_frac_sum"], c["bbox_tracker.bank_frames"]),
        "ratio")
    out["bbox_tracker.predict.us_per_call"] = (
        1e6 * _ratio(secs("bbox_tracker.predict"), calls("bbox_tracker.predict")), "us")
    out["bbox_tracker.update.us_per_call"] = (
        1e6 * _ratio(secs("bbox_tracker.update"), calls("bbox_tracker.update")), "us")

    match_calls = calls("localizer.needs_new_particle_set")
    out["localizer.needs_new_particle_set.points_tested"] = (
        c["localizer.needs_new_particle_set.points_tested"], "count")
    out["localizer.needs_new_particle_set.match_frac"] = (
        _ratio(c["localizer.needs_new_particle_set.matched"], match_calls), "ratio")
    updates = calls("localizer.update_particles")
    starved = c["localizer.update_particles.starved"]
    out["localizer.update_particles.starved_frac"] = (_ratio(starved, updates), "ratio")
    out["localizer.update_particles.us_per_call"] = (
        1e6 * _ratio(secs("localizer.update_particles"), updates), "us")
    out["localizer.TargetHypothesis.record.s"] = (
        secs("localizer.TargetHypothesis.record"), "s")
    out["localizer.cloud_stats.s"] = (sum(secs(n) for n in CLOUD_STATS), "s")
    accepted = updates - starved + calls("localizer.generate_particles")
    out["localizer.cov_passes_per_update"] = (
        _ratio(sum(calls(n) for n in CLOUD_STATS), accepted), "1/update")

    out["view_planner.lawnmower_path.s"] = (secs("view_planner.lawnmower_path"), "s")
    out["view_planner.next_best_view.s"] = (secs("view_planner.next_best_view"), "s")
    out["view_planner.arc_path.calls"] = (calls("view_planner.arc_path"), "count")
    out["mapping_planner.coverage_samples.ms_per_call"] = (
        1e3 * _ratio(secs("mapping_planner.coverage_samples"),
                     calls("mapping_planner.coverage_samples")), "ms")

    tick_self = float(sp["self"][mask("mission.tick")].sum())
    out["mission.frames"] = (frames, "count")
    out["mission.self_us_per_frame"] = (1e6 * _ratio(tick_self, frames), "us")
    return out
