import dataclasses

import numpy as np
import pytest

import copsl.metrics as metrics_mod
import copsl.problems as problems_mod
import copsl.trainer as trainer_mod
from copsl.errors import ConfigurationError, InputError, TrainingDivergedError
from copsl.metrics import nondominated_filter
from copsl.model import backward_all, count_params, param_layout
from copsl.problems import ProblemSuite, get_problem, suite_from_names
from copsl.sampling import uniform_preference_grid
from copsl.trainer import (
    RunConfig,
    RunRecord,
    evaluate_model,
    model_fronts,
    run_ablation,
    run_batch,
    train_copsl,
    train_psl,
    write_eval_csv,
    write_loss_csv,
)


def tiny_config(**overrides):
    base = dict(
        suite=("zdt1", "zdt2"),
        loss="tch",
        iterations=10,
        batch_size=5,
        hidden_sizes=(8, 8),
        shared_depth=1,
        eval_grid=10,
        eval_interval=5,
        seed=0,
    )
    base.update(overrides)
    return RunConfig(**base)


ZDT_PAIR = suite_from_names(["zdt1", "zdt2"], "zdt-pair")


class TestConfig:
    def test_round_trip(self):
        cfg = tiny_config(weights=(1.0, 2.0))
        again = RunConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            RunConfig.from_dict({"iterations": 5, "learning_rat": 0.1})

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_config(iterations=0)
        with pytest.raises(ConfigurationError):
            tiny_config(learning_rate=-1.0)
        with pytest.raises(ConfigurationError):
            tiny_config(loss="nope")
        with pytest.raises(ConfigurationError):
            tiny_config(ideal_update="sometimes")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("iterations", 2.5),
            ("eval_interval", 2.5),
            ("seed", "x"),
            ("batch_size", True),
            ("shared_depth", 1.0),
            ("hidden_sizes", [8.5]),
            ("hidden_sizes", [8, "8"]),
        ],
    )
    def test_non_integer_fields_rejected(self, key, value):
        data = tiny_config().to_dict()
        data[key] = value
        with pytest.raises(ConfigurationError, match=f"{key} must be"):
            RunConfig.from_dict(data)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(hidden_sizes=(8,), shared_depth=3), r"shared_depth must lie in \[0, 1\], got 3"),
            (dict(weights=(1.0,)), "expected 2 MOP weights, got 1"),
            (dict(weights=(1.0, -1.0)), "MOP weights must be finite and nonnegative"),
            (dict(weights=(1.0, float("nan"))), "MOP weights must be finite and nonnegative"),
            (dict(dirichlet_alpha=(1.0, 1.0, 1.0)), "expected 2 Dirichlet parameters, got 3"),
            (dict(dirichlet_alpha=(1.0, 0.0)), "Dirichlet parameters must be finite and positive"),
            (dict(eval_grid=1), "grid needs at least 2 points, got 1"),
        ],
    )
    def test_suite_mismatch_raises_before_any_training(self, monkeypatch, overrides, message):
        config = tiny_config(**overrides)
        with pytest.raises(ConfigurationError, match=message):
            config.check_suite(ZDT_PAIR)
        with pytest.raises(ConfigurationError, match=message):
            train_copsl(config, ZDT_PAIR)
        monkeypatch.setattr(trainer_mod, "train_copsl", lambda *args: pytest.fail("a run started"))
        with pytest.raises(ConfigurationError, match=message):
            run_batch(config, seeds=(0, 1))

    def test_stub_problem_raises_before_any_training(self, monkeypatch):
        config = tiny_config(suite="engineering-3d-stub")
        message = "problem 're31' is a stub; register an evaluator before use"
        with pytest.raises(ConfigurationError, match=message):
            config.check_suite(config.resolve_suite())
        monkeypatch.setattr(trainer_mod, "train_copsl", lambda *args: pytest.fail("a run started"))
        with pytest.raises(ConfigurationError, match=message):
            run_batch(config, seeds=(0,))

    def test_problem_without_jacobian_raises_before_any_training(self, monkeypatch):
        problem = dataclasses.replace(get_problem("zdt1"), name="nojac", jacobian_batch=None)
        monkeypatch.setitem(problems_mod._REGISTRY, problem.name, problem)
        config = tiny_config(suite=("zdt2", "nojac"))
        message = "problem 'nojac' has no Jacobian; register an evaluator first"
        with pytest.raises(ConfigurationError, match=message):
            config.check_suite(config.resolve_suite())
        monkeypatch.setattr(trainer_mod, "train_copsl", lambda *args: pytest.fail("a run started"))
        with pytest.raises(ConfigurationError, match=message):
            run_batch(config, seeds=(0, 1))


class TestTrainingLoop:
    def test_deterministic_given_seed(self):
        a = train_copsl(tiny_config(), ZDT_PAIR)[1]
        b = train_copsl(tiny_config(), ZDT_PAIR)[1]
        assert a.total_loss == b.total_loss
        assert a.hv == b.hv

    def test_seeds_give_different_trajectories(self):
        a = train_copsl(tiny_config(seed=1), ZDT_PAIR)[1]
        b = train_copsl(tiny_config(seed=2), ZDT_PAIR)[1]
        assert a.total_loss != b.total_loss

    def test_singleton_suite_matches_baseline_bitwise(self):
        cfg = tiny_config(suite=("zdt1",), iterations=20, trace_params=True)
        solo = ProblemSuite("zdt1", (get_problem("zdt1"),))
        _, from_copsl = train_copsl(cfg, solo)
        _, from_psl = train_psl(cfg, get_problem("zdt1"))
        assert from_copsl.param_trace == from_psl.param_trace
        assert from_copsl.total_loss == from_psl.total_loss

    def test_eval_series_lengths(self):
        cfg = tiny_config(iterations=12, eval_interval=5)
        _, rec = train_copsl(cfg, ZDT_PAIR)
        assert rec.eval_steps == [0, 5, 10, 12]
        assert len(rec.hv) == len(rec.eval_steps)
        assert len(rec.total_loss) == 12
        assert all(len(row) == 2 for row in rec.mop_losses)

    def test_losses_finite_and_recorded(self):
        _, rec = train_copsl(tiny_config(loss="ls"), ZDT_PAIR)
        assert np.isfinite(rec.total_loss).all()
        assert rec.rng_algorithm == "philox4x64-10/generator-gamma"
        assert rec.param_count == count_params(train_copsl(tiny_config(), ZDT_PAIR)[0])

    def test_exactly_one_batch_evaluation_per_mop_per_iteration(self):
        calls = {"evaluate": 0, "jacobian": 0, "rows": set()}
        base = get_problem("zdt1")

        def counting_evaluate(x):
            calls["evaluate"] += 1
            calls["rows"].add(x.shape[0])
            return base.evaluate_batch(x)

        def counting_jacobian(x):
            calls["jacobian"] += 1
            assert x.shape[0] == 5
            return base.jacobian_batch(x)

        counted = dataclasses.replace(
            base,
            name="zdt1-counted",
            evaluate_batch=counting_evaluate,
            jacobian_batch=counting_jacobian,
        )
        suite = ProblemSuite("counted", (counted,))
        cfg = tiny_config(suite=("zdt1",), iterations=7, batch_size=5, eval_interval=100)
        train_copsl(cfg, suite)
        # 7 training batches of 5 rows plus 2 evaluation passes (steps 0, 7)
        # of grid size 10; jacobians only on training batches.
        assert calls["rows"] == {5, 10}
        assert calls["evaluate"] == 7 + 2
        assert calls["jacobian"] == 7

    def test_nonfinite_loss_aborts_with_diagnostic(self):
        base = get_problem("zdt1")

        def exploding(x):
            out = base.evaluate_batch(x).copy()
            if x.shape[0] == 5:  # explode on training batches, not the eval grid
                out[:, 1] = np.nan
            return out

        broken = dataclasses.replace(base, name="broken", evaluate_batch=exploding)
        suite = ProblemSuite("broken", (broken,))
        cfg = tiny_config(suite=("zdt1",), iterations=5, batch_size=5)
        with pytest.raises(TrainingDivergedError, match="broken.*iteration 1"):
            train_copsl(cfg, suite)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nonfinite_gradient_aborts_with_diagnostic(self):
        base = get_problem("zdt1")

        def saturated(x):
            out = base.jacobian_batch(x).copy()
            if x.shape[0] == 5:  # diverge on training batches, not the eval grid
                out[:, 1, 0] = -np.inf
            return out

        broken = dataclasses.replace(base, name="broken", jacobian_batch=saturated)
        suite = ProblemSuite("pair", (get_problem("zdt2"), broken))
        cfg = tiny_config(iterations=5, batch_size=5)
        with pytest.raises(TrainingDivergedError) as caught:
            train_copsl(cfg, suite)
        message = str(caught.value)
        assert "iteration 1" in message
        assert "head 1 layer 1 (MOP 'broken')" in message
        assert "zdt2" not in message

    def test_weight_length_validated(self):
        with pytest.raises(ConfigurationError):
            train_copsl(tiny_config(weights=(1.0,)), ZDT_PAIR)

    def test_trunk_gating_at_every_iteration(self, monkeypatch):
        # Instrument the backward pass: with weights (0, 1) the trunk
        # gradient must equal the second problem's solo gradient.
        observed = {"count": 0}
        real = backward_all

        def spy(model, caches, output_grads, weights):
            grads = real(model, caches, output_grads, weights)
            solo = real(
                model,
                caches,
                [np.zeros_like(output_grads[0]), output_grads[1]],
                np.array([1.0, 1.0]),
            )
            for slot in param_layout(model.arch):
                if slot.mop is None:
                    assert np.array_equal(grads[slot.weights], solo[slot.weights])
                    assert np.array_equal(grads[slot.biases], solo[slot.biases])
            observed["count"] += 1
            return grads

        monkeypatch.setattr(trainer_mod, "backward_all", spy)
        cfg = tiny_config(weights=(0.0, 1.0), iterations=6)
        train_copsl(cfg, ZDT_PAIR)
        assert observed["count"] == 6

    def test_strict_gating_freezes_zero_weight_heads(self):
        cfg = tiny_config(weights=(0.0, 1.0), strict_weight_gating=True, iterations=8)
        model, _ = train_copsl(cfg, ZDT_PAIR)
        fresh, _ = train_copsl(tiny_config(weights=(0.0, 1.0), strict_weight_gating=True, iterations=1), ZDT_PAIR)
        # Head 0 must be bitwise identical to its initialization; rebuild the
        # initial model by training zero iterations is not possible, so
        # compare across run lengths instead.
        head0 = [layer for layer in param_layout(model.arch) if layer.mop == 0]
        assert head0
        for layer in head0:
            assert np.array_equal(model.params[layer.weights], fresh.params[layer.weights])
            assert np.array_equal(model.params[layer.biases], fresh.params[layer.biases])

    def test_ideal_update_mode_changes_trajectory(self):
        before = train_copsl(tiny_config(iterations=15), ZDT_PAIR)[1]
        after = train_copsl(tiny_config(iterations=15, ideal_update="after-loss"), ZDT_PAIR)[1]
        assert before.total_loss != after.total_loss


def count_filter_calls(monkeypatch) -> list[int]:
    """Route every ``nondominated_filter`` call the trainer can make through a
    counter; returns the list that records each call's point count."""
    calls = []

    def counted(points):
        calls.append(len(points))
        return nondominated_filter(points)

    monkeypatch.setattr(metrics_mod, "nondominated_filter", counted)
    monkeypatch.setattr(trainer_mod, "nondominated_filter", counted)
    return calls


class TestEvaluateModel:
    def test_untrained_model_evaluates_cleanly(self):
        model, _ = train_copsl(tiny_config(iterations=1), ZDT_PAIR)
        grid = uniform_preference_grid(2, 16)
        report = evaluate_model(model, ZDT_PAIR, grid)
        assert len(report.fronts) == 2
        assert all(hv >= 0.0 for hv in report.hypervolumes)

    def test_learned_hv_never_exceeds_true_front_hv(self):
        model, rec = train_copsl(tiny_config(iterations=40), ZDT_PAIR)
        from copsl.problems import true_front_hv

        for i, mop in enumerate(ZDT_PAIR.problems):
            bound = true_front_hv(mop, mop.reference_point)
            assert rec.hv[-1][i] <= bound + 1e-9

    def test_front_size_bounded_by_grid(self):
        model, _ = train_copsl(tiny_config(iterations=2), ZDT_PAIR)
        grid = uniform_preference_grid(2, 33)
        report = evaluate_model(model, ZDT_PAIR, grid)
        assert all(front.shape[0] <= 33 for front in report.fronts)

    @pytest.mark.parametrize("names", [("zdt1", "zdt2"), ("dtlz2",)])
    def test_filters_each_front_once(self, monkeypatch, names):
        # Scoring filters nothing; the fronts are filtered on their first
        # read only, once per problem.
        suite = suite_from_names(list(names))
        model, _ = train_copsl(tiny_config(suite=names, iterations=1), suite)
        grid = uniform_preference_grid(suite.num_objectives, 15)
        expected = evaluate_model(model, suite, grid)
        calls = count_filter_calls(monkeypatch)
        report = evaluate_model(model, suite, grid)
        assert calls == []
        assert report.hypervolumes == expected.hypervolumes
        fronts = report.fronts
        assert calls == [grid.shape[0]] * suite.num_mops
        assert report.fronts is fronts  # a second read filters nothing
        assert len(calls) == suite.num_mops

    @pytest.mark.parametrize("names", [("zdt1", "zdt2"), ("dtlz2",)])
    def test_training_never_filters(self, monkeypatch, names):
        suite = suite_from_names(list(names))
        calls = count_filter_calls(monkeypatch)
        _, record = train_copsl(tiny_config(suite=names, iterations=6, eval_interval=2), suite)
        assert len(record.eval_steps) == 4
        assert calls == []

    @pytest.mark.parametrize("names", [("zdt1", "zdt2"), ("dtlz2",)])
    def test_report_fronts_are_model_fronts(self, names):
        suite = suite_from_names(list(names))
        model, _ = train_copsl(tiny_config(suite=names, iterations=3), suite)
        grid = uniform_preference_grid(suite.num_objectives, 40)
        report = evaluate_model(model, suite, grid)
        fronts = model_fronts(model, suite, grid)
        assert len(report.fronts) == len(fronts) == suite.num_mops
        for got, want in zip(report.fronts, fronts):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("names", [("zdt1", "zdt2"), ("dtlz2",)])
    def test_scores_each_front_with_one_sweep(self, monkeypatch, names):
        # Through the module-level sweeps, where a tracer wrapping
        # metrics.hv_2d and metrics.hv_3d sees them.
        suite = suite_from_names(list(names))
        model, _ = train_copsl(tiny_config(suite=names, iterations=1), suite)
        grid = uniform_preference_grid(suite.num_objectives, 15)
        expected = evaluate_model(model, suite, grid)
        calls = []

        def counting(name):
            sweep = getattr(metrics_mod, name)

            def counted(points, reference):
                calls.append(name)
                return sweep(points, reference)

            return counted

        for name in ("hv_2d", "hv_3d"):
            monkeypatch.setattr(metrics_mod, name, counting(name))
        report = evaluate_model(model, suite, grid)
        assert calls == ["hv_%dd" % suite.num_objectives] * suite.num_mops
        assert report.hypervolumes == expected.hypervolumes

    def test_non_simplex_grid_rejected(self):
        model, _ = train_copsl(tiny_config(iterations=1), ZDT_PAIR)
        with pytest.raises(InputError, match="preference rows must sum to 1"):
            evaluate_model(model, ZDT_PAIR, np.array([[0.7, 0.7]]))

    def test_nonfinite_grid_rejected(self):
        model, _ = train_copsl(tiny_config(iterations=1), ZDT_PAIR)
        with pytest.raises(InputError, match="preference components must be finite"):
            evaluate_model(model, ZDT_PAIR, np.array([[0.5, 0.5], [np.nan, 0.5]]))

    def test_suite_that_is_not_the_models_heads_rejected(self):
        model, _ = train_copsl(tiny_config(iterations=1), ZDT_PAIR)
        six = suite_from_names(["zdt1", "zdt2", "zdt1-shifted", "zdt2-shifted", "zdt1-rotatedg", "zdt2-mixed"])
        message = r"output_dims \[6, 6, 6, 6, 6, 6\] but the model's heads have output_dims \[6, 6\]"
        with pytest.raises(ConfigurationError, match=message):
            evaluate_model(model, six, uniform_preference_grid(2, 5))

    def test_missing_reference_point_rejected(self):
        bare = dataclasses.replace(get_problem("zdt1"), name="bare", reference_point=None)
        suite = ProblemSuite("bare", (bare,))
        model, _ = train_copsl(tiny_config(suite=("zdt1",), iterations=1), ProblemSuite("tmp", (get_problem("zdt1"),)))
        with pytest.raises(ConfigurationError, match="reference"):
            evaluate_model(model, suite, uniform_preference_grid(2, 5))


class TestRecordFiles:
    def test_json_round_trip(self, tmp_path):
        _, rec = train_copsl(tiny_config(), ZDT_PAIR)
        path = str(tmp_path / "rec.json")
        rec.save_json(path)
        again = RunRecord.from_json(path)
        assert again.total_loss == rec.total_loss
        assert again.hv == rec.hv
        assert again.config == rec.config

    def test_loss_csv_shape(self, tmp_path):
        _, rec = train_copsl(tiny_config(iterations=6), ZDT_PAIR)
        path = str(tmp_path / "losses.csv")
        write_loss_csv(rec, path)
        lines = open(path).read().strip().split("\n")
        assert lines[0] == "iteration,total_loss,loss_1,loss_2"
        assert len(lines) == 7

    def test_eval_csv_shape(self, tmp_path):
        _, rec = train_copsl(tiny_config(iterations=6, eval_interval=3), ZDT_PAIR)
        path = str(tmp_path / "eval.csv")
        write_eval_csv(rec, path)
        lines = open(path).read().strip().split("\n")
        assert lines[0] == "eval_step,hv_1,hv_2,log_hv_diff_1,log_hv_diff_2"
        assert len(lines) == 1 + len(rec.eval_steps)


class TestAblation:
    def test_rows_cover_every_variant_seed_and_problem(self):
        cfg = tiny_config(hidden_sizes=(6, 6, 6), iterations=3)
        rows, failures = run_ablation(cfg, seeds=(0, 1))
        assert not failures
        assert len(rows) == 4 * 2 * 2  # depths x seeds x problems
        depths = sorted({r["shared_depth"] for r in rows})
        assert depths == [0, 1, 2, 3]

    def test_params_strictly_decrease_with_depth(self):
        cfg = tiny_config(hidden_sizes=(6, 6, 6), iterations=2)
        rows, _ = run_ablation(cfg, seeds=(0,))
        by_depth = {r["shared_depth"]: r["params"] for r in rows}
        params = [by_depth[d] for d in sorted(by_depth)]
        assert all(a > b for a, b in zip(params, params[1:]))

    def test_baseline_rows_have_zero_delta(self):
        cfg = tiny_config(hidden_sizes=(6, 6), iterations=2)
        rows, _ = run_ablation(cfg, seeds=(3,))
        for row in rows:
            if row["shared_depth"] == 0:
                assert row["delta_hv"] == 0.0
            else:
                assert row["delta_hv"] is not None

    def test_failures_recorded_not_fatal(self, nan_problem):
        # Every variant diverges at its first iteration; the sweep still
        # returns instead of raising.
        cfg = tiny_config(suite=(nan_problem,), iterations=2, hidden_sizes=(4,))
        rows, failures = run_ablation(cfg, seeds=(0,))
        assert rows == []
        assert len(failures) == 2
        for depth, failure in enumerate(failures):
            assert failure["shared_depth"] == depth
            assert failure["seed"] == 0
            assert "non-finite objective values for MOP 'zdt1-nan' (index 0) at iteration 1" in failure["error"]

    def test_config_error_raises_before_any_variant(self):
        cfg = tiny_config(suite=("zdt1",), iterations=2, hidden_sizes=(4,), weights=(1.0, 1.0))
        with pytest.raises(ConfigurationError, match="expected 1 MOP weights"):
            run_ablation(cfg, seeds=(0,))

    def test_no_seeds_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one seed"):
            run_ablation(tiny_config(), seeds=())


class TestRunBatch:
    def test_statistics_over_seeds(self, tmp_path):
        cfg = tiny_config(iterations=4)
        s = run_batch(cfg, seeds=(0, 1, 2), out_dir=str(tmp_path))
        assert len(s["records"]) == 3
        assert len(s["mean_final_hv"]) == 2
        assert (tmp_path / "run_seed1.json").exists()
        assert (tmp_path / "losses_seed2.csv").exists()
        assert (tmp_path / "model_seed0.ckpt").exists()

    def test_single_seed_zero_std(self):
        cfg = tiny_config(iterations=3)
        s = run_batch(cfg, seeds=(5,))
        assert s["std_final_hv"] == [0.0, 0.0]
        assert s["std_wall_seconds"] == 0.0

    def test_rerun_reproduces_aggregates(self):
        cfg = tiny_config(iterations=4)
        a = run_batch(cfg, seeds=(0, 1))
        b = run_batch(cfg, seeds=(0, 1))
        assert a["mean_final_hv"] == b["mean_final_hv"]
        assert a["std_final_hv"] == b["std_final_hv"]

    def test_failure_is_recorded(self, nan_problem):
        cfg = tiny_config(suite=("zdt1", nan_problem))  # diverges at iteration 1
        s = run_batch(cfg, seeds=(0,))
        assert s["records"] == []
        assert len(s["failures"]) == 1
        assert "MOP 'zdt1-nan' (index 1) at iteration 1" in s["failures"][0]["error"]
