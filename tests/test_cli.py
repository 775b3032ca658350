import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import copsl
from copsl.cli import main
from copsl.config import CONFIG_VERSION, RunConfig
from copsl.metrics import read_front_csv, write_front_csv
from copsl.model import ModelArchitecture, build_model, save_checkpoint
from copsl.problems import BoxBounds, MopDefinition, jacobian_check, register_problem
from copsl.sampling import RngStream

TOO_LARGE = "the model is too large: its parameters would not fit in one float64 array"


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
            ({"weights": ["x", 1.0]}, "weights must be a list of real numbers or null, got ['x', 1.0]"),
            ({"adam_beta1": 1.0}, "adam_beta1 must lie in [0, 1), got 1.0"),
            ({"adam_beta2": 1.5}, "adam_beta2 must lie in [0, 1), got 1.5"),
            ({"adam_epsilon": -1.0}, "adam_epsilon must be finite and positive, got -1.0"),
            ({"learning_rate": math.inf}, "learning_rate must be finite and positive, got inf"),
            ({"loss": "cosmos", "gamma": math.inf}, "gamma must be finite, got inf"),
            ({"seed": -5}, "seed must be >= 0, got -5"),
            ({"suite": 5}, "suite must be a suite name or a list of problem names, got 5"),
            ({"suite": None}, "suite must be a suite name or a list of problem names, got None"),
            ({"suite": {"zdt1": 1}}, "suite must be a suite name or a list of problem names, got {'zdt1': 1}"),
            ({"learning_rate": True}, "learning_rate must be a real number, got True"),
            ({"eval_grid": 1}, "grid needs at least 2 points, got 1"),
            ({"suite": [None]}, "suite must be a suite name or a list of problem names, got [None]"),
            ({"suite": [1, 2]}, "suite must be a suite name or a list of problem names, got [1, 2]"),
            ({"config_version": True}, "unsupported config_version True, expected 1"),
            ({"config_version": 1.0}, "unsupported config_version 1.0, expected 1"),
            ({"trace_params": "false"}, "trace_params must be true or false, got 'false'"),
            ({"strict_weight_gating": 0}, "strict_weight_gating must be true or false, got 0"),
            ({"weights": "12"}, "weights must be a list of real numbers or null, got '12'"),
            ({"dirichlet_alpha": [True, 2]}, "dirichlet_alpha must be a list of real numbers or null, got [True, 2]"),
            ({"hidden_sizes": 5}, "hidden_sizes must be integers, got 5"),
            ({"weights": 5}, "weights must be a list of real numbers or null, got 5"),
            pytest.param({"gamma": 10**400}, f"gamma must be a real number, got {10**400}", id="gamma-401-digits"),
            ({"adam_epsilon": math.inf}, "adam_epsilon must be finite and positive, got inf"),
            ({"suite": "zdt1,zdt1"}, "a problem suite cannot repeat a problem, got 'zdt1' more than once"),
            ({"weights": [1.0, -1.0]}, "weights must be finite and nonnegative, got [1.0, -1.0]"),
            ({"dirichlet_alpha": [1.0, 0.0]}, "dirichlet_alpha must be finite and positive, got [1.0, 0.0]"),
            pytest.param({"hidden_sizes": [10**20]}, TOO_LARGE, id="hidden-size-1e20"),
            ({"cosmos_sign": -1}, "unknown config keys: ['cosmos_sign']"),
            ({"ideal_update": "before-loss"}, "unknown config keys: ['ideal_update']"),
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

    @pytest.mark.parametrize(
        "text, message",
        [
            (b'{"gamma": %s}' % (b"1" * 5001), "Exceeds the limit (4300 digits) for integer string conversion"),
            (b'{"suite": "zdt1\xff"}', "'utf-8' codec can't decode byte 0xff"),
        ],
        ids=["gamma-5001-digits", "not-utf-8"],
    )
    def test_config_that_json_cannot_read_exits_2(self, tmp_path, capsys, text, message):
        config = tmp_path / "c.json"
        config.write_bytes(text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        assert not out.exists() or not list(out.iterdir())
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot parse config {str(config)!r}: {message}")

    def test_repeated_seed_exits_2_before_training(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        code = main(["run", "--config", config, "--seed", "1", "--seed", "1", "--out", str(out)])
        assert code == 2
        assert not out.exists() or not list(out.iterdir())
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a batch cannot repeat a seed, got 1 more than once\n"

    def test_negative_seed_exits_2_before_training(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        code = main(["run", "--config", config, "--seed", "0", "--seed", "-1", "--out", str(out)])
        assert code == 2
        assert not out.exists() or not list(out.iterdir())
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be >= 0, got -1\n"

    def test_failing_run_exits_1(self, tmp_path, capsys, nan_problem):
        # The problem's objectives turn NaN on the first training batch, so
        # the run diverges after its config has been accepted.
        config = write_config(tmp_path / "c.json", suite=[nan_problem], batch_size=5)
        code = main(["run", "--config", config, "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == (
            "seed 0 failed: non-finite objective values for MOP 'zdt1-nan' (index 0) at iteration 1\n"
        )

    def test_env_var_default_out_dir(self, tmp_path, monkeypatch, capsys):
        config = write_config(tmp_path / "c.json")
        monkeypatch.setenv("COPSL_OUT_DIR", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", config]) == 0
        assert (tmp_path / "envout" / "run_seed0.json").exists()


@pytest.mark.parametrize("command", ["run", "ablate"])
def test_help_documents_the_shared_arguments(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # one line per argument
    with pytest.raises(SystemExit) as exited:
        main([command, "--help"])
    assert exited.value.code == 0
    text = capsys.readouterr().out
    for documented in ("path to a JSON run config", "seed (repeatable)", "$COPSL_OUT_DIR"):
        assert documented in text


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
        cases = [
            ({"weights": [1.0]}, "expected 2 MOP weights, got 1"),
            ({"epsilon": True}, "epsilon must be a real number, got True"),
            ({"eval_grid": 1}, "grid needs at least 2 points, got 1"),
            ({"hidden_sizes": [10**20, 8]}, TOO_LARGE),
        ]
        for case, (overrides, message) in enumerate(cases):
            config = write_config(tmp_path / f"c{case}.json", **overrides)
            out = tmp_path / f"out{case}"
            assert main(["ablate", "--config", config, "--seed", "0", "--seed", "1", "--out", str(out)]) == 2
            assert not (out / "ablation.csv").exists()
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"

    def test_negative_seed_exits_2_before_any_variant(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["ablate", "--config", config, "--seed", "0", "--seed", "-1", "--out", str(out)]) == 2
        assert not out.exists() or not list(out.iterdir())
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be >= 0, got -1\n"

    def test_repeated_seed_exits_2_before_any_variant(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["ablate", "--config", config, "--seed", "0", "--seed", "1", "--seed", "0", "--out", str(out)]) == 2
        assert not out.exists() or not list(out.iterdir())
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a batch cannot repeat a seed, got 0 more than once\n"

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

    def test_suite_that_is_not_the_checkpoints_heads_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        capsys.readouterr()
        front_out = tmp_path / "front.csv"
        checkpoint = str(out / "model_seed0.ckpt")
        assert main(["front", "--checkpoint", checkpoint, "--suite", "synthetic-2d", "--out", str(front_out)]) == 2
        assert capsys.readouterr().err == (
            "error: suite ['zdt1', 'zdt2', 'zdt1-shifted', 'zdt2-shifted', 'zdt1-rotatedg', 'zdt2-mixed'] "
            "has output_dims [6, 6, 6, 6, 6, 6] "
            "but the model's heads have output_dims [6, 6]\n"
        )
        assert not list(tmp_path.glob("front*"))

    def test_suite_may_name_one_problem(self, tmp_path, capsys):
        checkpoint = str(tmp_path / "one.ckpt")
        save_checkpoint(build_model(ModelArchitecture(2, (4,), 1, (6,)), RngStream(0)), checkpoint)
        front_out = tmp_path / "front.csv"
        assert main(["front", "--checkpoint", checkpoint, "--suite", "zdt1", "--grid", "7", "--out", str(front_out)]) == 0
        assert capsys.readouterr().out == f"wrote {front_out}\n"
        points, ref = read_front_csv(str(front_out))
        assert 1 <= points.shape[0] <= 7
        assert np.array_equal(ref, [1.1, 1.1])

    def test_checkpoint_of_a_one_problem_suite_string(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json", suite="zdt1")
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        capsys.readouterr()
        front_out = tmp_path / "front.csv"
        assert main(["front", "--checkpoint", str(out / "model_seed0.ckpt"), "--grid", "7", "--out", str(front_out)]) == 0
        assert capsys.readouterr().out == f"wrote {front_out}\n"
        assert [path.name for path in tmp_path.glob("front*")] == ["front.csv"]

    @pytest.mark.parametrize(
        "suite, message",
        [
            ("dtlz2", "suite has 3 objectives but the model expects 2"),
            ("", "unknown problem ''"),
            ("zdt1,", "unknown problem ''"),
        ],
    )
    def test_suite_that_does_not_fit_the_model_exits_2(self, tmp_path, capsys, suite, message):
        checkpoint = str(tmp_path / "one.ckpt")
        save_checkpoint(build_model(ModelArchitecture(2, (4,), 1, (6,)), RngStream(0)), checkpoint, {"suite": ["zdt1"]})
        front_out = tmp_path / "front.csv"
        assert main(["front", "--checkpoint", checkpoint, "--suite", suite, "--out", str(front_out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not list(tmp_path.glob("front*"))

    def test_missing_checkpoint_exits_2(self, tmp_path):
        assert main(["front", "--checkpoint", str(tmp_path / "no.ckpt"), "--out", str(tmp_path / "f.csv")]) == 2

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda raw, n: raw[:-8], "checkpoint body has 328 bytes, expected 336 (truncated or padded)"),
            (lambda raw, n: raw + bytes(8), "checkpoint body has 344 bytes, expected 336 (truncated or padded)"),
            (lambda raw, n: raw[: n + 1], "checkpoint body has 0 bytes, expected 336 (truncated or padded)"),
            (lambda raw, n: raw[:n], "checkpoint has no header line"),
            (lambda raw, n: b"", "checkpoint has no header line"),
            (
                lambda raw, n: raw[:-8] + np.array(np.inf, dtype="<f8").tobytes(),
                "checkpoint {path!r} holds non-finite parameters in head 0 layer 0",
            ),
        ],
        ids=["truncated", "padded", "header-only", "no-newline", "empty", "non-finite"],
    )
    def test_damaged_checkpoint_exits_2(self, tmp_path, capsys, damage, message):
        checkpoint = str(tmp_path / "one.ckpt")
        save_checkpoint(build_model(ModelArchitecture(2, (4,), 1, (6,)), RngStream(0)), checkpoint, {"suite": ["zdt1"]})
        with open(checkpoint, "rb") as handle:
            raw = handle.read()
        with open(checkpoint, "wb") as handle:
            handle.write(damage(raw, raw.index(b"\n")))
        assert main(["front", "--checkpoint", checkpoint, "--out", str(tmp_path / "front.csv")]) == 2
        assert capsys.readouterr().err == "error: " + message.format(path=checkpoint) + "\n"
        assert not list(tmp_path.glob("front*"))

    @pytest.mark.parametrize(
        "architecture, message",
        [
            (
                '{"num_objectives": 2.7, "hidden_sizes": "88", "shared_depth": true, "output_dims": "6"}',
                "architecture sizes must be integers and lists of integers, got ModelArchitecture("
                "num_objectives=2.7, hidden_sizes='88', shared_depth=True, output_dims='6')",
            ),
            (
                '{"num_objectives": 2, "hidden_sizes": [8.9, 8.2], "shared_depth": 1, "output_dims": [6]}',
                "architecture sizes must be integers and lists of integers, got ModelArchitecture("
                "num_objectives=2, hidden_sizes=[8.9, 8.2], shared_depth=1, output_dims=[6])",
            ),
            (
                '{"num_objectives": 2, "hidden_sizes": [8, 8], "shared_depth": 1, "output_dims": [6], "heads": 1}',
                "ModelArchitecture.__init__() got an unexpected keyword argument 'heads'",
            ),
            (
                '[2, [8, 8], 1, [6]]',
                "copsl.model.ModelArchitecture() argument after ** must be a mapping, not list",
            ),
        ],
        ids=["mixed-kinds", "float-sizes", "unknown-field", "list"],
    )
    def test_malformed_architecture_exits_2(self, tmp_path, capsys, architecture, message):
        # Each header describes, once converted, the model whose body follows;
        # it is refused, not converted.
        checkpoint = tmp_path / "a.ckpt"
        save_checkpoint(build_model(ModelArchitecture(2, (8, 8), 1, (6,)), RngStream(0)), str(checkpoint))
        header, body = checkpoint.read_bytes().split(b"\n", 1)
        original = '{"hidden_sizes": [8, 8], "num_objectives": 2, "output_dims": [6], "shared_depth": 1}'
        assert original.encode() in header
        checkpoint.write_bytes(header.replace(original.encode(), architecture.encode()) + b"\n" + body)
        assert main(["front", "--checkpoint", str(checkpoint), "--suite", "zdt1", "--out", str(tmp_path / "f.csv")]) == 2
        assert capsys.readouterr().err == f"error: checkpoint architecture is invalid: {message}\n"
        assert not list(tmp_path.glob("f*"))

    def test_header_integer_past_the_digit_limit_exits_2(self, tmp_path, capsys):
        checkpoint = tmp_path / "a.ckpt"
        save_checkpoint(build_model(ModelArchitecture(2, (8,), 1, (6,)), RngStream(0)), str(checkpoint), {"seed": 0})
        raw = checkpoint.read_bytes()
        assert raw.count(b'"seed": 0}') == 1
        checkpoint.write_bytes(raw.replace(b'"seed": 0}', b'"seed": ' + b"1" * 5001 + b"}"))
        assert main(["front", "--checkpoint", str(checkpoint), "--suite", "zdt1", "--out", str(tmp_path / "f.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: checkpoint header is corrupt: Exceeds the limit (4300 digits)")

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


def linear_front_problem() -> MopDefinition:
    """f1 = x1 and f2 = (1 + x2^2)(1 - x1) on the unit square. The front is
    f2 = 1 - f1, reached where x2 = 0, so against r >= (1, 1) its
    hypervolume is r1 r2 - 1/2."""

    def evaluate(x):
        return np.column_stack([x[:, 0], (1.0 + x[:, 1] ** 2) * (1.0 - x[:, 0])])

    def jacobian(x):
        jac = np.zeros((x.shape[0], 2, 2))
        jac[:, 0, 0] = 1.0
        jac[:, 1, 0] = -(1.0 + x[:, 1] ** 2)
        jac[:, 1, 1] = 2.0 * x[:, 1] * (1.0 - x[:, 0])
        return jac

    return MopDefinition(
        name="linear-front",
        bounds=BoxBounds(np.zeros(2), np.ones(2)),
        reference_point=np.array([1.1, 1.1]),
        evaluate_batch=evaluate,
        jacobian_batch=jacobian,
        front_hypervolume=lambda ref: float(ref[0] * ref[1] - 0.5),
    )


class TestRegisteredProblem:
    def test_run_front_and_hv(self, tmp_path, capsys, registry):
        problem = linear_front_problem()
        register_problem(problem)
        assert jacobian_check(problem, 100, RngStream(23)) <= 1e-5
        config = write_config(tmp_path / "c.json", suite=problem.name, iterations=20, eval_grid=9)
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        record = json.loads((out / "run_seed0.json").read_text())
        assert record["mop_names"] == [problem.name]
        final_hv, final_gap = record["hv"][-1][0], record["log_hv_diff"][-1][0]
        assert 0.0 < final_hv < 0.71 and final_gap is not None  # the closed form, 1.21 - 0.5, bounds it
        front_out = tmp_path / "front.csv"
        capsys.readouterr()
        checkpoint = str(out / "model_seed0.ckpt")
        assert main(["front", "--checkpoint", checkpoint, "--grid", "9", "--out", str(front_out)]) == 0
        assert capsys.readouterr().out == f"wrote {front_out}\n"
        assert main(["hv", "--front", str(front_out)]) == 0
        assert capsys.readouterr().out == f"{final_hv:.12g}\n"


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

    def test_front_without_column_names_exits_2(self, tmp_path, capsys):
        # Skipping line 2 unread would drop the point (0.1, 0.2) and print 0.63.
        path = tmp_path / "front.csv"
        path.write_text("# m=2 reference=1,1\n0.1,0.2\n0.3,0.1\n")
        assert main(["hv", "--front", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: front file column-name line is '0.1,0.2', expected 'f1,f2'\n"

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


def test_calls_in_one_process_match_fresh_processes(tmp_path, monkeypatch, capsys):
    """The parser is built once per process; no call may see another's
    arguments. Seeds that carried over would change the printed run count."""
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path / "c.json")
    calls = [
        ["run", "--config", "c.json", "--seed", "1", "--seed", "2", "--out", "out"],
        ["run", "--config", "c.json", "--out", "out0"],
        ["hv", "--front", "missing.csv"],
        ["front", "--checkpoint", "out/model_seed1.ckpt", "--grid", "12", "--out", "front.csv"],
        ["hv", "--front", "front_zdt2.csv"],
        ["defaults"],
    ]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(copsl.__file__)))
    env.pop("COPSL_OUT_DIR", None)
    for argv in calls:
        code = main(argv)
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "copsl.cli", *argv], cwd=tmp_path, env=env, capture_output=True, text=True
        )
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
