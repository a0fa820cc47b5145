#!/usr/bin/env python3
"""Write the stock scenario configs into scenarios/."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from conescan.config import default_scenario, to_json  # noqa: E402

OUT = Path(__file__).resolve().parents[1] / "scenarios"

SCENARIOS = {
    "one_target.json": default_scenario(1, seed=3),
    "two_targets.json": default_scenario(2, seed=7),
    "empty.json": default_scenario(0, seed=1),
    # the multi-target profile: conescan sweep scenarios/four_targets.json --seeds 1..6
    "three_targets.json": default_scenario(3, seed=3),
    "four_targets.json": default_scenario(4, seed=3),
}


def main():
    OUT.mkdir(exist_ok=True)
    for name, cfg in SCENARIOS.items():
        path = OUT / name
        path.write_text(to_json(cfg) + "\n")
        print(path)


if __name__ == "__main__":
    main()
