#!/usr/bin/env python3
"""Fast self-test of the mission benchmark (a few seconds).

    python3 perfbench/selftest.py

Runs ``scenarios/empty.json`` (310 frames) once untraced and once traced and
checks that

- wrapping leaves the report digest unchanged, and every patched attribute
  is restored afterwards;
- the span arithmetic holds: each span lies inside its parent and within one
  frame, no self time is negative, and the self times of all spans add up to
  the duration of the root spans;
- the metric names and units in BENCHMARK.json are the ones the benchmark
  produces;
- the repeat check flags a mission whose report digest differs.

Prints one line per check and exits 1 if any fails.
"""

import json
import sys

import numpy as np

import run
import tracing

# Missions are logged, so that the comparison covers every run-directory file;
# the empty mission's report alone hardly depends on the detector stream.
EMPTY = run.Workload("scenarios/empty.json", 1)
CLOCK_SLACK_S = 1e-6


def span_checks(tracer):
    sp = tracer.arrays()
    parent = sp["parent"]
    child = parent >= 0
    yield ("spans recorded", len(sp["dur"]) > 0)
    yield ("every span ends after it starts", bool(np.all(sp["dur"] >= 0)))
    yield ("each span lies inside its parent",
           bool(np.all(sp["start"][child] >= sp["start"][parent[child]])
                and np.all(sp["end"][child] <= sp["end"][parent[child]])))
    yield ("children share their parent's frame",
           bool(np.all(sp["frame"][child] == sp["frame"][parent[child]])))
    yield ("no self time is negative", bool(np.all(sp["self"] >= -CLOCK_SLACK_S)))
    roots = sp["dur"][~child].sum()
    yield ("self times add up to the root spans",
           abs(sp["self"].sum() - roots) <= CLOCK_SLACK_S * len(sp["dur"]))
    metrics = tracing.span_metrics(tracer)
    layer_self = sum(metrics[f"{layer}.self_s"][0] for layer in tracing.LAYERS)
    yield ("layer self times add up to the root spans",
           abs(layer_self - roots) <= CLOCK_SLACK_S * len(sp["dur"]))
    yield ("one tick span per frame", metrics["mission.frames"][0] == 310)


def spec_checks(per_layer):
    spec = run.bench_spec()
    units = {name: unit for name, unit, _ in run.END_TO_END}
    yield ("end_to_end names and units match run.END_TO_END",
           all(units.get(m["name"]) == m["unit"] for m in spec["end_to_end"]))
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    yield ("per_layer names and units match what the trace produces",
           listed == {name: unit for name, (_, unit) in per_layer.items()})


def main():
    conescan = run.import_conescan()
    cfg = run.workload_config(conescan.config, conescan.config.load(run.ROOT / EMPTY.scenario),
                              EMPTY, EMPTY.scenario_seed)
    def patched_attributes():
        return [tracing.stored_attribute(*tracing.owner_and_name(module, attribute))
                for module, attribute, *_ in tracing.PATCHES]

    originals = patched_attributes()

    plain = run.run_mission(conescan, cfg, True)
    tracer = tracing.Tracer()
    with tracer:
        traced = run.run_mission(conescan, cfg, True)
    restored = all(a is b for a, b in zip(patched_attributes(), originals))

    checks = [
        ("both missions ran", not plain["error"] and not traced["error"]),
        ("tracing leaves the run directory unchanged",
         plain.get("run_dir_sha256") == traced.get("run_dir_sha256")
         and plain.get("report_sha256") == traced.get("report_sha256")),
        ("every patched attribute is restored", restored),
    ]
    if not traced["error"]:
        checks += list(span_checks(tracer))
        setup = run.median_setup(run.probe_setup("two_targets", 7, 1))
        checks += list(spec_checks(run.per_layer(tracer, setup, plain, traced, plain)))
    for key in ("report_sha256", "run_dir_sha256"):
        changed = dict(plain, checks=[], **{key: "0" * 64})
        run.check_repeats([plain, changed])
        checks.append((f"a repeat with another {key} is flagged", bool(changed["checks"])))

    for name, ok in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    for m in (plain, traced):
        if m["error"]:
            print(m["error"], file=sys.stderr)
    bad = [name for name, ok in checks if not ok]
    print(json.dumps({"passed": len(checks) - len(bad), "failed": len(bad)}))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
