#!/usr/bin/env python3
"""Mission benchmark for conescan: host time, frame latency and outcomes.

Each workload is a closed loop: one process runs one mission at a time, and
each frame starts only when the previous one has finished. Missions repeat
while the next one is expected to end within ``--seconds`` (at least one
runs). Set-up time is taken in fresh processes by ``setup_probe.py``.

    python3 perfbench/run.py --workload two_targets --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table each
    python3 perfbench/selftest.py                    # fast check of the tracer

``--trace 0`` measures the end-to-end metrics with no instrumentation but a
clock read on each side of ``MissionRunner._tick`` and a fixed reference
kernel, timed after every 20th frame, that host times are divided by to
cancel the host's speed drift. ``--trace 1`` runs the
mission once untraced and once with every layer wrapped in spans, and
reports the per-layer metrics and the tracing overhead. For ``two_targets``
it also runs one untraced mission that writes its full run directory, for
the cost, size and digests of the output path.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metrics are the
``end_to_end`` (trace 0) or ``per_layer`` (trace 1) lists of BENCHMARK.json.
The full record (machine, every metric, digests) goes to
``perfbench/out/<workload>_seed<seed>_trace<trace>.json``.

``--seed`` is the run seed and is recorded with the results. The mission is
the workload's stock scenario at its stock scenario seed unless
``--scenario-seed`` replaces it: the simulator is deterministic, and the
scenario seed decides how long the mission is (two_targets runs 2,671 frames
at seed 7 and 1,270 at seed 8), so runs at different scenario seeds measure
different missions and cannot be compared.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# Set-up is probed in fresh processes, this many before each mission, so
# that the probes of a run sample the host over the whole run; the median of
# all of them is reported. One more probe first absorbs the one-off bytecode
# compilation of a fresh checkout and is not counted.
SETUP_PER_MISSION = 2
SETUP_STAGES = ("config.import_s", "config.load.s", "config.validate.s",
                "config.MissionRunner.init.s")
# Run-directory files whose SHA-256 is recorded, so that an output change is
# visible. tracks.csv is left out: the planned bounding of the track bank
# changes it on purpose. Repeats must match on every file, tracks.csv too.
DIGEST_FILES = ("report.json", "path.csv", "planned_path.csv", "metrics.csv",
                "coverage.json")
RUN_DIR_FILES = ("config.json", "report.json", "tracks.csv", "path.csv",
                 "planned_path.csv", "metrics.csv", "coverage.json", "particles")
# The host's instruction rate drifts by a quarter within a minute, so mission
# host time is also given in runs of a fixed reference kernel, timed every
# REF_EVERY frames of the same mission (about 3% of its time); the drift
# cancels in the ratio. See README.md, "Steadiness".
REF_EVERY = 20
REF_ITERS = 50
_REF_M = np.eye(4) * 2.0 + 0.1
_REF_V = np.arange(4.0)


@dataclasses.dataclass(frozen=True)
class Workload:
    scenario: str
    scenario_seed: int
    n_particles: int = None
    # The traced run adds one untraced mission that writes its run directory.
    trace_logged: bool = False


# Why each workload was chosen is in README.md and BENCHMARK.json.
WORKLOADS = {
    "two_targets": Workload("scenarios/two_targets.json", 7, trace_logged=True),
    "one_target_100k": Workload("scenarios/one_target.json", 3, n_particles=100_000),
}

# Every end-to-end metric: (name, unit, better). BENCHMARK.json gates the
# ones that are never zero, not a time that repeats exactly, and steady on a
# host whose speed drifts.
END_TO_END = (
    ("mission_cost_ref", "ref", "lower"),
    ("ref_kernel_ms", "ms", "lower"),
    ("mission_wall_s", "s", "lower"),
    ("sim_fps", "frames/s", "higher"),
    ("frame_ms_p50", "ms", "lower"),
    ("frame_ms_p99", "ms", "lower"),
    ("frame_ms_tail_mean", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_duration_s", "sim_s", "lower"),
    ("targets_found_frac", "ratio", "higher"),
    ("loc_error_max_m", "m", "lower"),
    ("mission_fail_frac", "ratio", "lower"),
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def reference_kernel():
    """Fixed small-array numpy and float work, the kind the mission loop is
    made of; it touches no conescan code."""
    s = 0.0
    d = {}
    for i in range(REF_ITERS):
        m = _REF_M * (1.0 + i * 1e-6)
        if np.allclose(m, m.T, atol=1e-9):
            s += np.linalg.slogdet(m)[1]
        s += float((m @ _REF_V)[0]) + math.sqrt(abs(s) + 1.0)
        d[i & 63] = s
    return s


def import_conescan():
    """Import conescan from this checkout's ``src/``, never from elsewhere."""
    package = SRC / "conescan"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no conescan sources at {package}")
    sys.path.insert(0, str(SRC))
    import conescan

    if Path(conescan.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported conescan from {conescan.__file__}, not {package}")
    return conescan


def workload_config(config, cfg, workload, scenario_seed):
    """The loaded stock scenario with the benchmark's seed and overrides."""
    cfg = dataclasses.replace(cfg, seed=scenario_seed)
    if workload.n_particles:
        cfg.localizer = dataclasses.replace(cfg.localizer,
                                            n_particles=workload.n_particles)
    return config.validate(cfg)


def machine_record():
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def report_digest(report):
    """SHA-256 of report.json exactly as the mission writes it."""
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def dir_bytes(path):
    path = Path(path)
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def scratch_dir():
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    return tempfile.mkdtemp(dir=OUT / "tmp")


# ------------------------------------------------------------------ set-up

def probe_setup(workload_name, scenario_seed, count):
    """``count`` set-up measurements, each in a fresh process."""
    runs = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload_name,
             str(scenario_seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed:\n{proc.stderr}")
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return runs


def median_setup(runs):
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


# ---------------------------------------------------------------- missions

def run_mission(conescan, cfg, logged, frame_times=None):
    """Run one mission and check its outputs; returns a record dict.

    With ``logged`` the mission writes its run directory to a fresh
    temporary directory, which is checked and deleted afterwards, and
    ``output_s`` is the host time spent in the run log's writes. With
    ``frame_times`` a list, the host time of each ``_tick`` is appended, and
    the reference kernel runs every ``REF_EVERY`` frames (``ref_s`` in all,
    ``ref_runs`` times); ``wall_s`` excludes it.
    A mission fails if it raises, ends with a nonzero exit code, or fails an
    output check; a failure is recorded, never filtered out.
    """
    out_dir = scratch_dir() if logged else None
    rec = {"wall_s": None, "frames": 0, "error": None, "checks": []}
    try:
        runner = conescan.MissionRunner(cfg, out_dir=out_dir)
        if out_dir:
            time_output(runner.log, rec)
        if frame_times is not None:
            tick = runner._tick
            clock = time.perf_counter
            rec.update(ref_s=0.0, ref_runs=0)

            def timed_tick():
                t0 = clock()
                finished = tick()
                t1 = clock()
                frame_times.append(t1 - t0)
                if len(frame_times) % REF_EVERY == 0:
                    reference_kernel()
                    rec["ref_s"] += clock() - t1
                    rec["ref_runs"] += 1
                return finished

            runner._tick = timed_tick
        t0 = time.perf_counter()
        report = runner.run()
        rec["wall_s"] = time.perf_counter() - t0 - rec.get("ref_s", 0.0)
        rec["frames"] = runner.frame
        rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        rec.update(outcome(report, cfg, runner.frame))
        if out_dir:
            rec.update(run_dir_record(out_dir, rec))
    except Exception:
        rec["error"] = traceback.format_exc()
    finally:
        if out_dir:
            shutil.rmtree(out_dir, ignore_errors=True)
    return rec


def time_output(log, rec):
    """Wrap the write methods of one run log so that ``rec["output_s"]`` sums
    the host time spent in them (rows, particle snapshots, JSON, closing).
    Row values are built whether or not a run directory is written, so this
    is what logging adds to a mission."""
    rec["output_s"] = 0.0
    clock = time.perf_counter
    for name in ("row", "snapshot", "write_json", "close"):
        def timed(*args, _method=getattr(log, name), **kwargs):
            t0 = clock()
            try:
                return _method(*args, **kwargs)
            finally:
                rec["output_s"] += clock() - t0

        setattr(log, name, timed)


def outcome(report, cfg, frames):
    done = [t.localization_error for t in report.targets if t.status == "done"]
    rec = {
        "report_sha256": report_digest(report),
        "exit_code": report.exit_code,
        "sim_duration_s": report.duration_s,
        "targets_found": report.targets_found,
        "targets_total": report.targets_total,
        "targets_found_frac": report.targets_found / report.targets_total
        if report.targets_total else 0.0,
        "loc_error_max_m": max(done) if done else None,
        "checks": [],
    }
    if abs(report.duration_s - frames * cfg.mission.dt) > 1e-6:
        rec["checks"].append(f"duration {report.duration_s} s != {frames} frames x dt")
    if report.targets_total != len(cfg.targets):
        rec["checks"].append("targets_total differs from the scenario")
    return rec


def run_dir_record(out_dir, rec):
    out_dir = Path(out_dir)
    checks = list(rec["checks"])
    missing = [f for f in RUN_DIR_FILES if not (out_dir / f).exists()]
    if missing:
        checks.append(f"run directory lacks {missing}")
    digests = {f: sha256_file(out_dir / f) for f in DIGEST_FILES
               if (out_dir / f).exists()}
    if digests.get("report.json") != rec["report_sha256"]:
        checks.append("report.json on disk differs from the returned report")
    tree = hashlib.sha256()
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            tree.update(f"{path.relative_to(out_dir)} {sha256_file(path)}\n".encode())
    sizes = {f: dir_bytes(out_dir / f) for f in RUN_DIR_FILES if (out_dir / f).exists()}
    return {"file_sha256": digests, "run_dir_sha256": tree.hexdigest(), "bytes": sizes,
            "bytes_total": dir_bytes(out_dir), "checks": checks}


def check_repeats(missions):
    """Every mission of a run must reproduce the first one's report, and every
    run directory the first one written; in a traced run the first mission is
    the untraced one."""
    ran = [m for m in missions if not m["error"]]
    for m in ran[1:]:
        if m["report_sha256"] != ran[0]["report_sha256"]:
            m["checks"].append("report.json differs from the first mission's")
    logged = [m for m in ran if "run_dir_sha256" in m]
    for m in logged[1:]:
        if m["run_dir_sha256"] != logged[0]["run_dir_sha256"]:
            m["checks"].append("run directory differs from the first one written")


def failed(m):
    return bool(m["error"] or m["checks"] or m.get("exit_code", 0) != 0)


# ------------------------------------------------------------------ results

def end_to_end(missions, frame_times, setup):
    ok = [m for m in missions if not m["error"]]
    walls = [m["wall_s"] for m in ok]
    costs = [m["wall_s"] * m["ref_runs"] / m["ref_s"] for m in ok]
    fps = [m["frames"] / m["wall_s"] for m in ok]
    ft = np.sort(frame_times) * 1e3
    tail = ft[len(ft) - max(1, len(ft) // 100):]
    first = ok[0] if ok else {}
    values = {
        "mission_cost_ref": statistics.median(costs) if costs else None,
        "ref_kernel_ms": 1e3 * sum(m["ref_s"] for m in ok) / sum(m["ref_runs"] for m in ok)
        if ok else None,
        "mission_wall_s": statistics.median(walls) if walls else None,
        "sim_fps": statistics.median(fps) if fps else None,
        "frame_ms_p50": float(np.percentile(ft, 50)) if len(ft) else None,
        "frame_ms_p99": float(np.percentile(ft, 99)) if len(ft) else None,
        "frame_ms_tail_mean": float(tail.mean()) if len(ft) else None,
        "setup_s": setup["setup_s"],
        # After the first mission: the peak creeps up with each repeat, and
        # how many repeats fit in a run depends on the host's speed.
        "peak_rss_mb": first.get("peak_rss_mb"),
        "sim_duration_s": first.get("sim_duration_s"),
        "targets_found_frac": first.get("targets_found_frac"),
        "loc_error_max_m": first.get("loc_error_max_m"),
        "mission_fail_frac": sum(map(failed, missions)) / len(missions),
    }
    units = {name: unit for name, unit, _ in END_TO_END}
    return {name: (values[name], units[name]) for name, _, _ in END_TO_END}


def bench_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def result_line(spec_metrics, table, missions):
    """The result line: the listed metrics, by name and unit."""
    metrics = {}
    for m in spec_metrics:
        value, unit = table.get(m["name"], (None, None))
        if value is None or unit != m["unit"]:
            raise BenchError(f"metric {m['name']} missing or unit {unit} != {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    return {
        "correct": not any(m["error"] or m["checks"] for m in missions),
        "attempted": len(missions),
        "failed": sum(map(failed, missions)),
        "metrics": metrics,
    }


def print_table(title, table, notes=()):
    print(title)
    for name, (value, unit) in table.items():
        shown = "n/a" if value is None else (
            f"{value:.6g}" if isinstance(value, float) else str(value))
        print(f"  {name:<52} {shown:>14} {unit}")
    for note in notes:
        print(f"  {note}")


def print_failures(missions):
    for i, m in enumerate(missions):
        if failed(m):
            why = m["error"] or "; ".join(m["checks"]) or f"exit code {m['exit_code']}"
            print(f"  mission {i} failed: {why.strip()}")


# --------------------------------------------------------------- workloads

def bench_untraced(conescan, name, workload, cfg, args, record):
    """Missions back to back for at most about ``args.seconds``: another one
    starts only if, at the mean pace so far, it ends in time. One always runs."""
    seed = record["scenario_seed"]
    probe_setup(name, seed, 1)
    setups, missions, frame_times = [], [], []
    t_start = time.perf_counter()
    while True:
        setups += probe_setup(name, seed, SETUP_PER_MISSION)
        missions.append(run_mission(conescan, cfg, False, frame_times))
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / len(missions) > args.seconds:
            break
    setup = median_setup(setups)
    check_repeats(missions)
    table = end_to_end(missions, frame_times, setup)
    record.update(setup=setup, setup_probes=len(setups), missions=missions,
                  end_to_end=table, frame_samples=len(frame_times))
    print_table(
        f"{name}: end to end, tracing off", table,
        [f"{len(missions)} missions, {len(setups)} set-up probes, "
         f"{len(frame_times)} frame samples; "
         f"frame_ms_p99 has {len(frame_times) // 100} samples beyond it, "
         f"frame_ms_tail_mean is their mean"],
    )
    print_failures(missions)
    return result_line(bench_spec()["end_to_end"], table, missions)


def per_layer(tracer, setup, plain, traced, logged=None):
    """The span metrics plus the set-up split, the tracing overhead and, from
    the ``logged`` mission if there is one (else zeros), the output path:
    run-directory sizes and the host time of the writes."""
    table = tracing.span_metrics(tracer)
    for key in SETUP_STAGES:
        table[key] = (setup[key], "s")
    sizes = logged["bytes"] if logged else {}
    for f in RUN_DIR_FILES:
        table[f"mission.bytes.{f}"] = (sizes.get(f, 0), "B")
    table["mission.out_bytes_per_frame"] = (
        logged["bytes_total"] / logged["frames"] if logged else 0.0, "B/frame")
    table["mission.output_s"] = (logged["output_s"] if logged else 0.0, "s")
    table["trace_overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    return table


def bench_traced(conescan, name, workload, cfg, args, record):
    seed = record["scenario_seed"]
    probe_setup(name, seed, 1)
    setups = probe_setup(name, seed, SETUP_PER_MISSION)
    plain = run_mission(conescan, cfg, False)
    setups += probe_setup(name, seed, SETUP_PER_MISSION)
    tracer = tracing.Tracer()
    with tracer:
        traced = run_mission(conescan, cfg, False)
    missions = [plain, traced]
    if workload.trace_logged:
        missions.append(run_mission(conescan, cfg, True))
    logged = missions[2] if workload.trace_logged else None
    setup = median_setup(setups)
    check_repeats(missions)
    table = {}
    if not any(m["error"] for m in missions):
        table = per_layer(tracer, setup, plain, traced, logged)
        OUT.mkdir(parents=True, exist_ok=True)
        np.savez(OUT / f"spans_{name}.npz", names=np.array(tracer.names),
                 **tracer.arrays())
        note = f"traced {traced['wall_s']:.3f} s vs untraced {plain['wall_s']:.3f} s"
        if logged:
            note += f"; logged untraced {logged['wall_s']:.3f} s"
    else:
        note = "a mission failed"
    record.update(setup=setup, missions=missions, per_layer=table)
    print_table(f"{name}: per layer, traced", table, [note])
    print_failures(missions)
    return result_line(bench_spec()["per_layer"], table, missions)


def bench_workload(args):
    workload = WORKLOADS[args.workload]
    scenario_seed = workload.scenario_seed if args.scenario_seed is None \
        else args.scenario_seed
    record = {
        "workload": args.workload, "seed": args.seed, "scenario_seed": scenario_seed,
        "seconds": args.seconds, "trace": args.trace, "machine": machine_record(),
    }
    conescan = import_conescan()
    cfg = workload_config(conescan.config, conescan.config.load(ROOT / workload.scenario),
                          workload, scenario_seed)
    bench = bench_traced if args.trace else bench_untraced
    line = bench(conescan, args.workload, workload, cfg, args, record)
    missions = record["missions"]
    m = next((m for m in missions if m.get("file_sha256")), missions[0])
    if m.get("file_sha256"):
        print("  sha256 " + ", ".join(f"{f} {d[:16]}" for f, d in m["file_sha256"].items()))
    elif m.get("report_sha256"):
        print(f"  sha256 report.json {m['report_sha256'][:16]}")
    record["result"] = line
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(f"  full record: {path.relative_to(ROOT)}")
    return line


def bench_all(args):
    """Each workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.scenario_seed is not None:
            cmd += ["--scenario-seed", str(args.scenario_seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise BenchError(f"workload {name} exited with {proc.returncode}")
        line = json.loads(lines[-1])
        combined["correct"] &= line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        for metric, value in line["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="run seed (recorded)")
    parser.add_argument("--seconds", type=float, default=60.0,
                        help="time budget for the missions of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scenario-seed", type=int, default=None,
                        help="replace the workload's stock scenario seed")
    args = parser.parse_args(argv)
    try:
        line = bench_all(args) if args.workload == "all" else bench_workload(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
