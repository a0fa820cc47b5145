"""Set-up time of one benchmark mission, measured in a fresh process.

    python3 perfbench/setup_probe.py WORKLOAD SCENARIO_SEED

Times ``import conescan``, ``config.load``, the benchmark's overrides plus
``validate``, and ``MissionRunner(...)``, up to the first frame. Prints one JSON object with each
stage and their sum, ``setup_s``. ``run.py`` starts this script.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

t0 = time.perf_counter()
import conescan  # noqa: E402
t1 = time.perf_counter()

import json  # noqa: E402

import run  # noqa: E402


def main(workload_name, scenario_seed):
    workload = run.WORKLOADS[workload_name]
    t2 = time.perf_counter()
    cfg = conescan.config.load(run.ROOT / workload.scenario)
    t3 = time.perf_counter()
    cfg = run.workload_config(conescan.config, cfg, workload, scenario_seed)
    t4 = time.perf_counter()
    runner = conescan.MissionRunner(cfg, out_dir=None)
    t5 = time.perf_counter()
    runner.log.close()
    stages = {
        "config.import_s": t1 - t0,
        "config.load.s": t3 - t2,
        "config.validate.s": t4 - t3,
        "config.MissionRunner.init.s": t5 - t4,
    }
    stages["setup_s"] = sum(stages.values())
    print(json.dumps(stages))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
