import json
import math

import numpy as np
import pytest

from copsl.cli import main
from copsl.metrics import read_front_csv, write_front_csv
from copsl.model import ModelArchitecture, build_model, save_checkpoint
from copsl.sampling import RngStream
from copsl.trainer import CONFIG_VERSION, RunConfig


def write_config(path, **overrides):
    data = {"config_version": CONFIG_VERSION}
    data.update(RunConfig().to_dict())
    data.update(
        suite=["zdt1", "zdt2"],
        iterations=3,
        batch_size=4,
        hidden_sizes=[8, 8],
        eval_grid=8,
        eval_interval=2,
    )
    data.update(overrides)
    path.write_text(json.dumps(data))
    return str(path)


class TestRun:
    def test_single_seed_writes_artifacts(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        code = main(["run", "--config", config, "--out", str(out)])
        assert code == 0
        assert (out / "run_seed0.json").exists()
        assert (out / "losses_seed0.csv").exists()
        assert (out / "eval_seed0.csv").exists()
        assert (out / "model_seed0.ckpt").exists()
        assert "final HV" in capsys.readouterr().out

    def test_two_seeds_write_two_records(self, tmp_path):
        config = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        code = main(["run", "--config", config, "--seed", "1", "--seed", "2", "--out", str(out)])
        assert code == 0
        assert (out / "run_seed1.json").exists()
        assert (out / "run_seed2.json").exists()
        assert not (out / "run_seed0.json").exists()

    def test_malformed_config_exits_2_without_outputs(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "out"
        code = main(["run", "--config", str(bad), "--out", str(out)])
        assert code == 2
        assert not out.exists() or not list(out.iterdir())
        assert "error" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"iterations": 3, "learning_rat": 0.1}))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"hidden_sizes": [8], "shared_depth": 3}, "shared_depth must lie in [0, 1], got 3"),
            ({"weights": [1.0]}, "expected 2 MOP weights, got 1"),
            ({"iterations": 2.5}, "iterations must be an integer, got 2.5"),
            ({"eval_interval": 2.5}, "eval_interval must be an integer, got 2.5"),
            ({"seed": "x"}, "seed must be an integer, got 'x'"),
            ({"hidden_sizes": [8.5]}, "hidden_sizes must be integers, got [8.5]"),
            ({"weights": ["x", 1.0]}, "malformed config: could not convert string to float: 'x'"),
            ({"adam_beta1": 1.0}, "adam_beta1 must lie in [0, 1), got 1.0"),
            ({"adam_beta2": 1.5}, "adam_beta2 must lie in [0, 1), got 1.5"),
            ({"adam_epsilon": -1.0}, "adam_epsilon must be positive, got -1.0"),
            ({"learning_rate": math.inf}, "learning_rate must be finite and positive, got inf"),
            ({"loss": "cosmos", "gamma": math.inf}, "gamma must be finite, got inf"),
            ({"seed": -5}, "seed must be >= 0, got -5"),
            ({"suite": 5}, "suite must be a suite name or a list of problem names, got 5"),
            ({"suite": None}, "suite must be a suite name or a list of problem names, got None"),
            ({"suite": {"zdt1": 1}}, "suite must be a suite name or a list of problem names, got {'zdt1': 1}"),
        ],
    )
    def test_bad_config_exits_2_before_training(self, tmp_path, capsys, overrides, message):
        config = write_config(tmp_path / "c.json", **overrides)
        out = tmp_path / "out"
        code = main(["run", "--config", config, "--out", str(out)])
        assert code == 2
        assert not out.exists() or not list(out.iterdir())
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_negative_seed_exits_2_before_training(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        code = main(["run", "--config", config, "--seed", "0", "--seed", "-1", "--out", str(out)])
        assert code == 2
        assert not out.exists() or not list(out.iterdir())
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be >= 0, got -1\n"

    def test_failing_run_exits_1(self, tmp_path, capsys):
        # Stub problems have no evaluator, so training fails per seed.
        config = write_config(tmp_path / "c.json", suite="engineering-3d-stub")
        code = main(["run", "--config", config, "--out", str(tmp_path / "out")])
        assert code == 1
        assert "failed" in capsys.readouterr().err

    def test_env_var_default_out_dir(self, tmp_path, monkeypatch, capsys):
        config = write_config(tmp_path / "c.json")
        monkeypatch.setenv("COPSL_OUT_DIR", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", config]) == 0
        assert (tmp_path / "envout" / "run_seed0.json").exists()


class TestAblate:
    def test_table_structure(self, tmp_path):
        config = write_config(tmp_path / "c.json", hidden_sizes=[6, 6, 6], iterations=2)
        out = tmp_path / "out"
        code = main(["ablate", "--config", config, "--seed", "0", "--seed", "1", "--out", str(out)])
        assert code == 0
        lines = (out / "ablation.csv").read_text().strip().split("\n")
        assert lines[0] == "shared_depth,seed,mop,hv,delta_hv,params"
        assert len(lines) == 1 + 4 * 2 * 2  # depths x seeds x problems
        params_by_depth = {}
        for line in lines[1:]:
            depth, seed, mop, hv, delta, params = line.split(",")
            params_by_depth[int(depth)] = int(params)
            if depth == "0":
                assert float(delta) == 0.0
        ordered = [params_by_depth[d] for d in sorted(params_by_depth)]
        assert all(a > b for a, b in zip(ordered, ordered[1:]))

    def test_bad_config_exits_2_before_any_variant(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json", weights=[1.0])
        out = tmp_path / "out"
        assert main(["ablate", "--config", config, "--seed", "0", "--seed", "1", "--out", str(out)]) == 2
        assert not (out / "ablation.csv").exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: expected 2 MOP weights, got 1\n"

    def test_negative_seed_exits_2_before_any_variant(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["ablate", "--config", config, "--seed", "0", "--seed", "-1", "--out", str(out)]) == 2
        assert not out.exists() or not list(out.iterdir())
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be >= 0, got -1\n"

    def test_rerun_is_byte_identical(self, tmp_path):
        config = write_config(tmp_path / "c.json", hidden_sizes=[6, 6], iterations=2)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["ablate", "--config", config, "--out", str(out_a)]) == 0
        assert main(["ablate", "--config", config, "--out", str(out_b)]) == 0
        assert (out_a / "ablation.csv").read_bytes() == (out_b / "ablation.csv").read_bytes()


class TestFront:
    def test_exports_one_csv_per_problem(self, tmp_path):
        config = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        front_out = tmp_path / "front.csv"
        code = main(
            ["front", "--checkpoint", str(out / "model_seed0.ckpt"), "--grid", "12", "--out", str(front_out)]
        )
        assert code == 0
        for name in ("zdt1", "zdt2"):
            points, ref = read_front_csv(str(tmp_path / f"front_{name}.csv"))
            assert points.shape[0] <= 12
            assert np.array_equal(ref, [1.1, 1.1])

    def test_missing_checkpoint_exits_2(self, tmp_path):
        assert main(["front", "--checkpoint", str(tmp_path / "no.ckpt"), "--out", str(tmp_path / "f.csv")]) == 2

    @pytest.mark.parametrize(
        "metadata, message",
        [
            (["zdt1", "zdt2"], "checkpoint metadata must be a JSON object, got ['zdt1', 'zdt2']"),
            ({"suite": 5}, "suite must be a suite name or a list of problem names, got 5"),
        ],
    )
    def test_malformed_metadata_exits_2(self, tmp_path, capsys, metadata, message):
        checkpoint = str(tmp_path / "m.ckpt")
        save_checkpoint(build_model(ModelArchitecture(2, (4,), 1, (30, 30)), RngStream(0)), checkpoint, metadata)
        front_out = tmp_path / "front.csv"
        assert main(["front", "--checkpoint", checkpoint, "--out", str(front_out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.glob("front*"))


class TestHv:
    def test_single_point(self, tmp_path, capsys):
        path = tmp_path / "front.csv"
        write_front_csv(str(path), np.array([[0.0, 0.0]]), np.array([1.1, 1.1]))
        assert main(["hv", "--front", str(path), "--ref", "1.1,1.1"]) == 0
        printed = float(capsys.readouterr().out.strip())
        assert printed == pytest.approx(1.21)

    def test_reference_dimension_mismatch_exits_2(self, tmp_path):
        path = tmp_path / "front.csv"
        write_front_csv(str(path), np.array([[0.0, 0.0]]), np.array([1.1, 1.1]))
        assert main(["hv", "--front", str(path), "--ref", "1.1,1.1,1.1"]) == 2

    @pytest.mark.parametrize("ref", ["nan,1", "inf,1", "1,-inf"])
    def test_nonfinite_reference_exits_2(self, tmp_path, capsys, ref):
        path = tmp_path / "front.csv"
        write_front_csv(str(path), np.array([[0.5, 0.5]]), np.array([1.0, 1.0]))
        assert main(["hv", "--front", str(path), "--ref", ref]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "reference point must be finite" in captured.err

    def test_four_objective_front_exits_2(self, tmp_path, capsys):
        path = tmp_path / "front.csv"
        write_front_csv(str(path), np.array([[0.1, 0.2, 0.3, 0.4]]), np.ones(4))
        assert main(["hv", "--front", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "2 or 3 objectives, got 4" in captured.err

    def test_malformed_row_exits_2(self, tmp_path, capsys):
        path = tmp_path / "front.csv"
        write_front_csv(str(path), np.array([[0.1, 0.2]]), np.array([1.0, 1.0]))
        with open(path, "a") as handle:
            handle.write("0.5,abc\n")
        assert main(["hv", "--front", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: front row '0.5,abc' is not a comma-separated list of numbers\n"

    def test_embedded_reference_used_by_default(self, tmp_path, capsys):
        path = tmp_path / "front.csv"
        write_front_csv(str(path), np.array([[0.1, 0.2]]), np.array([1.0, 1.0]))
        assert main(["hv", "--front", str(path)]) == 0
        printed = float(capsys.readouterr().out.strip())
        assert printed == pytest.approx(0.9 * 0.8)

    def test_dense_front_file_matches_true_hypervolume(self, tmp_path, capsys):
        from copsl.problems import get_problem

        mop = get_problem("zdt1")
        path = tmp_path / "front.csv"
        write_front_csv(str(path), mop.front_points(5000), np.array([1.1, 1.1]))
        assert main(["hv", "--front", str(path)]) == 0
        printed = float(capsys.readouterr().out.strip())
        assert printed == pytest.approx(0.876666, abs=5e-4)


class TestDefaults:
    def test_prints_valid_strict_config(self, tmp_path, capsys):
        assert main(["defaults"]) == 0
        text = capsys.readouterr().out
        data = json.loads(text)
        assert data["config_version"] == CONFIG_VERSION
        data.pop("config_version")
        RunConfig.from_dict(data)  # parses strictly

    def test_defaults_round_trip_through_run(self, tmp_path):
        # The printed defaults form a valid config file once made small.
        config = tmp_path / "c.json"
        data = json.loads(json.dumps({"config_version": CONFIG_VERSION, **RunConfig().to_dict()}))
        data.update(iterations=2, batch_size=3, hidden_sizes=[6], eval_grid=6, suite=["zdt1"])
        config.write_text(json.dumps(data))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
