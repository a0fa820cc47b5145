import json
import math
from pathlib import Path

import pytest

from conescan.cli import main
from conescan.config import default_scenario, to_dict, to_json


@pytest.fixture
def empty_scenario(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(to_json(default_scenario(0, seed=1)))
    return path


class TestValidate:
    def test_good_config(self, empty_scenario, capsys):
        assert main(["validate", str(empty_scenario)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_mapping_geometry_error(self, tmp_path, capsys):
        data = to_dict(default_scenario(0))
        data["camera"]["gamma"] = math.radians(15.0)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 1
        assert "gamma > beta/2" in capsys.readouterr().err

    def test_removed_field_rejected(self, tmp_path, capsys):
        data = to_dict(default_scenario(0))
        data["noise"]["seed"] = 0
        path = tmp_path / "old.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 1
        assert "noise: unknown field(s) ['seed']" in capsys.readouterr().err

    def test_asymmetric_initial_sigma_rejected(self, tmp_path, capsys):
        # the prior is derived from measure_noise_px, so any stored one is refused
        data = to_dict(default_scenario(0))
        data["tracker"]["initial_sigma"] = [
            [16, 1, 0, 0], [0, 16, 0, 0], [0, 0, 16, 0], [0, 0, 0, 16]]
        path = tmp_path / "asym.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err == (
            "config error: tracker: unknown field(s) ['initial_sigma']\n")

    def test_range_that_run_would_reject(self, tmp_path, capsys):
        data = to_dict(default_scenario(0))
        data["uav"]["v_max"] = 0
        path = tmp_path / "zero_speed.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 1
        assert "config error: uav.v_max: must be positive" in capsys.readouterr().err

    def test_mission_that_could_find_nothing(self, tmp_path, capsys):
        # a negative found radius ran to the end and exited 2 with 0 found
        data = to_dict(default_scenario(0))
        data["mission"]["found_radius"] = -1.0
        path = tmp_path / "negative_radius.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 1
        assert ("config error: mission.found_radius: must be non-negative"
                in capsys.readouterr().err)

    def test_nan_noise_rejected(self, tmp_path, capsys):
        # NaN passed the old `< 0` check and the mission died mid-run
        data = to_dict(default_scenario(0))
        data["noise"]["klt_pixel_sigma"] = math.nan
        path = tmp_path / "nan_noise.json"
        path.write_text(json.dumps(data))
        assert "NaN" in path.read_text()
        assert main(["validate", str(path)]) == 1
        assert ("config error: noise.klt_pixel_sigma: must be non-negative and finite"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("section, name, value, rule", [
        ("mission", "confirm_hits", 2.5, "must be an integer of at least 1"),
        ("mission", "dt", True, "must be positive"),
    ])
    def test_fraction_or_bool_rejected(self, tmp_path, capsys, section, name, value, rule):
        # both loaded: a count compared as a float, and true read as 1
        data = to_dict(default_scenario(0))
        data[section][name] = value
        path = tmp_path / "bad_number.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err == f"config error: {section}.{name}: {rule}\n"

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("key, value", [
        ("region", [0.0, "east", 30.0, 10.0]), ("search_altitude", "high"),
        ("search_altitude", math.nan), ("seed", 1.5), ("seed", "x"), ("seed", -1),
        ("seed", 2**32),
    ])
    def test_bad_top_level_value(self, tmp_path, capsys, command, key, value):
        # these raised a traceback from from_dict, validate or mid-run, or ran
        # the streams of a truncated seed
        data = to_dict(default_scenario(0))
        data[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        args = [command, str(path)] + (["--out", str(out)] if command == "run" else [])
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: ") and err.count("\n") == 1
        assert not out.exists()

    def test_bad_target_field(self, tmp_path, capsys):
        # a fractional feature count validated, then died at mission start
        data = to_dict(default_scenario(1))
        data["targets"][0]["n_features"] = 30.5
        path = tmp_path / "bad_target.json"
        path.write_text(json.dumps(data))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "config error: targets[0].n_features: must be an integer of at least 4\n")

    def test_unparseable_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{")
        assert main(["validate", str(path)]) == 1
        assert "config error" in capsys.readouterr().err


class TestRun:
    def test_zero_target_run_exits_clean(self, empty_scenario, tmp_path, capsys):
        out = tmp_path / "run_out"
        code = main(["run", str(empty_scenario), "--out", str(out)])
        assert code == 0
        assert (out / "report.json").exists()
        assert "0/0 targets" in capsys.readouterr().out

    def test_seed_override_recorded(self, empty_scenario, tmp_path):
        out = tmp_path / "seeded"
        main(["run", str(empty_scenario), "--seed", "99", "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 99

    @pytest.mark.parametrize("seed", ["-1", str(2**32)])
    def test_seed_override_out_of_range(self, empty_scenario, tmp_path, capsys, seed):
        # such a seed raised a traceback from MissionRunner
        out = tmp_path / "seeded"
        assert main(["run", str(empty_scenario), "--seed", seed, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "config error: seed: must be an integer in [0, 2**32)\n"
        assert not captured.out and not out.exists()

    def test_env_var_default_out(self, empty_scenario, tmp_path, monkeypatch):
        monkeypatch.setenv("CONESCAN_OUT", str(tmp_path / "env_runs"))
        main(["run", str(empty_scenario)])
        assert (tmp_path / "env_runs" / "empty-seed1" / "report.json").exists()


class TestPlot:
    def test_plot_completed_run(self, empty_scenario, tmp_path, capsys):
        out = tmp_path / "run"
        main(["run", str(empty_scenario), "--out", str(out)])
        assert main(["plot", str(out)]) == 0
        assert (out / "plots" / "uav_path.csv").exists()

    def test_plot_rejects_non_run_dir(self, tmp_path, capsys):
        assert main(["plot", str(tmp_path)]) == 1


class TestSweep:
    def test_sweep_zero_target(self, empty_scenario, tmp_path, capsys):
        code = main(["sweep", str(empty_scenario), "--seeds", "1..3",
                     "--out", str(tmp_path / "sweep"), "--jobs", "2"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("seed")
        assert len(lines) == 5
        assert lines[-1] == "found 0/0 targets"
        for seed in (1, 2, 3):
            assert (tmp_path / "sweep" / f"seed{seed:04d}" / "report.json").exists()

    def test_one_seed_row_matches_its_report(self, tmp_path, capsys):
        scenario = Path(__file__).resolve().parents[1] / "scenarios" / "one_target.json"
        out = tmp_path / "sweep"
        code = main(["sweep", str(scenario), "--seeds", "3..3", "--out", str(out),
                     "--jobs", "1"])
        header, row, summary = capsys.readouterr().out.strip().splitlines()
        report = json.loads((out / "seed0003" / "report.json").read_text())
        done = [t for t in report["targets"] if t["status"] == "done"]
        assert code == 0 and len(done) == 1
        error = done[0]["localization_error"]
        assert header.split() == ["seed", "found", "worst_error", "lambda_max",
                                  "updates", "sim_s", "exit"]
        assert row.split() == [
            "3", f"{report['targets_found']}/{report['targets_total']}", f"{error:.3f}",
            f"{done[0]['eigenvalues'][0]:.4f}", str(done[0]["updates"]),
            f"{report['duration_s']:.1f}", "0"]
        assert summary == (f"found 1/1 targets, median error {error:.3f} m, "
                           f"worst {error:.3f} m")

    @pytest.mark.parametrize("args, message", [
        pytest.param(["--seeds", "nope"], "seeds must look like A..B", id="not_a_range"),
        pytest.param(["--seeds", "3..2"], "seeds 3..2: empty range", id="empty_range"),
        pytest.param(["--seeds", "1..2", "--jobs", "0"], "jobs must be at least 1",
                     id="zero_jobs"),
        pytest.param(["--seeds=-1..2"], "config error: seed: must be an integer in [0, 2**32)",
                     id="negative_seed"),
        pytest.param([f"--seeds={2**32 - 1}..{2**32}"],
                     "config error: seed: must be an integer in [0, 2**32)", id="seed_too_big"),
    ])
    def test_sweep_bad_range(self, empty_scenario, tmp_path, capsys, args, message):
        out = tmp_path / "sweep"
        assert main(["sweep", str(empty_scenario), "--out", str(out)] + args) == 1
        captured = capsys.readouterr()
        assert captured.err == message + "\n" and not captured.out
        assert not out.exists()
