import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import copsl.metrics as metrics_mod
import copsl.trainer as trainer_mod
from copsl.cli import main as cli_main
from copsl.errors import ConfigurationError, InputError, TrainingDivergedError
from copsl.metrics import csv_float, nondominated_filter
from copsl.model import backward_all, count_params, param_layout
from copsl.problems import ProblemSuite, get_problem, suite_from_names
from copsl.sampling import uniform_preference_grid
from copsl.scalarize import LOSS_KINDS
from copsl.trainer import (
    RunConfig,
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


ZDT_PAIR = suite_from_names(["zdt1", "zdt2"])
TOO_LARGE = "the model is too large: its parameters would not fit in one float64 array"

# Each config field by the kind of value it takes: its valid values, each
# possibly a NumPy scalar, and the Python type a stored value has.
_INTEGER = st.integers(1, 2**62)
_FRACTION = st.floats(0.01, 0.99)


def _or_numpy(values, *numpy_types):
    return st.one_of(values, *(values.map(t) for t in numpy_types))


CONFIG_FIELDS = {
    "suite": ("suite", st.sampled_from(["synthetic-2d", "zdt1,zdt2", ["zdt1"], ("zdt1", "dtlz2")]), None),
    "loss": ("string", st.sampled_from(LOSS_KINDS), str),
    "gamma": ("real", _or_numpy(st.floats(0.5, 1e3), np.float32, np.float64), float),
    "epsilon": ("real", _or_numpy(st.floats(1e-6, 1.0), np.float32), float),
    "iterations": ("integer", _or_numpy(_INTEGER, np.uint64), int),
    "batch_size": ("integer", _or_numpy(_INTEGER, np.int64), int),
    "learning_rate": ("real", _or_numpy(st.floats(1e-6, 1.0), np.float32), float),
    "adam_beta1": ("real", _or_numpy(_FRACTION, np.float32), float),
    "adam_beta2": ("real", _or_numpy(_FRACTION, np.float64), float),
    "adam_epsilon": ("real", _or_numpy(st.floats(1e-12, 1.0), np.float64), float),
    "dirichlet_alpha": ("reals", st.none() | st.lists(_or_numpy(st.floats(0.1, 5.0), np.float32), max_size=3), float),
    "weights": ("reals", st.none() | st.lists(_or_numpy(st.integers(0, 5), np.int32), max_size=3), float),
    "hidden_sizes": ("integers", st.lists(_or_numpy(st.integers(1, 64), np.int64), max_size=3), int),
    "shared_depth": ("integer", _or_numpy(st.integers(0, 3), np.int16), int),
    "seed": ("integer", _or_numpy(st.integers(0, 2**63 - 1), np.int64), int),
    "eval_grid": ("integer", _or_numpy(st.integers(0, 500), np.int32), int),
    "eval_interval": ("integer", _or_numpy(_INTEGER, np.int64), int),
    "trace_params": ("bool", _or_numpy(st.booleans(), np.bool_), bool),
}

# Values of the wrong kind for each kind of field: a string, a bool, None, a
# scalar where a list belongs, and a list with a bool or a string in it.
_NUMBER = st.integers(-9, 9) | st.floats()
_BAD_LIST = st.builds(
    lambda number, bad, first: [bad, number] if first else [number, bad],
    _NUMBER,
    st.booleans() | st.text(max_size=3),
    st.booleans(),
)
WRONG_KINDS = {
    "integer": st.text() | st.booleans() | st.none() | st.floats() | _BAD_LIST,
    "real": st.text() | st.booleans() | st.none() | _BAD_LIST,
    "bool": st.text() | st.none() | _NUMBER | _BAD_LIST,
    "string": st.booleans() | st.none() | _NUMBER | _BAD_LIST,
    "integers": st.text() | st.booleans() | st.none() | _NUMBER | _BAD_LIST,
    "reals": st.text() | st.booleans() | _NUMBER | _BAD_LIST,
    "suite": st.booleans() | st.none() | _NUMBER | _BAD_LIST,
}


def assert_rejected_by_name(key, value):
    """A config holding ``value`` at ``key`` raises ConfigurationError naming
    the key, by the time its suite is built, and nothing else."""
    data = tiny_config().to_dict()
    data[key] = value
    with pytest.raises(ConfigurationError) as caught:
        RunConfig.from_dict(data).resolve_suite()
    assert str(caught.value).startswith(f"{key} must be ")


def assert_same_artifacts(expected_dir, actual_dir):
    """Two run_batch output directories hold the same files, byte for byte
    but for the records' wall-clock times."""
    assert sorted(p.name for p in actual_dir.iterdir()) == sorted(p.name for p in expected_dir.iterdir())
    for path in expected_dir.iterdir():
        expected, actual = path.read_bytes(), (actual_dir / path.name).read_bytes()
        if path.suffix == ".json":
            expected, actual = (json.loads(raw) | {"wall_seconds": 0.0} for raw in (expected, actual))
        assert expected == actual, path.name


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
            ("learning_rate", True),
            ("epsilon", True),
            ("gamma", "x"),
            ("trace_params", "false"),
            ("trace_params", 0),
            ("weights", "12"),
            ("dirichlet_alpha", (True, 2)),
            ("hidden_sizes", 5),
            ("weights", 5),
        ],
    )
    def test_non_integer_fields_rejected(self, key, value):
        # Hand-picked cases of the rule test_wrong_kind_rejected_by_name
        # checks on generated values.
        assert_rejected_by_name(key, value)

    @pytest.mark.parametrize("value", [10**400, -(10**400), 10**5000], ids=["1e400", "-1e400", "1e5000"])
    @pytest.mark.parametrize("key", [key for key, (kind, _, _) in CONFIG_FIELDS.items() if kind in ("real", "reals")])
    def test_integer_beyond_float_range_rejected_by_name(self, key, value):
        assert_rejected_by_name(key, [value, 1] if CONFIG_FIELDS[key][0] == "reals" else value)

    def test_integer_past_the_digit_limit_shown_by_its_size(self):
        # repr refuses an integer of more than 4300 digits, so the message gives its bit length.
        with pytest.raises(ConfigurationError, match=r"^gamma must be a real number, got an integer of 16610 bits$"):
            RunConfig(gamma=10**5000)
        with pytest.raises(ConfigurationError, match=r"^weights must .*, got \[1\.0, an integer of 16610 bits\]$"):
            RunConfig(weights=(1.0, 10**5000))

    def test_every_field_has_a_kind(self):
        assert list(CONFIG_FIELDS) == [f.name for f in dataclasses.fields(RunConfig)]

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.sampled_from(list(CONFIG_FIELDS)))
    def test_wrong_kind_rejected_by_name(self, data, key):
        assert_rejected_by_name(key, data.draw(WRONG_KINDS[CONFIG_FIELDS[key][0]]))

    @settings(max_examples=200, deadline=None)
    @given(st.fixed_dictionaries({key: values for key, (_, values, _) in CONFIG_FIELDS.items()}))
    def test_values_stored_as_python_types_and_round_trip(self, data):
        cfg = RunConfig(**data)
        for key, (kind, _, stored) in CONFIG_FIELDS.items():
            value = getattr(cfg, key)
            if kind in ("integers", "reals"):
                assert value is None or (type(value) is tuple and all(type(v) is stored for v in value)), key
            elif stored is not None:
                assert type(value) is stored, key
        assert RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_float_fields_stored_as_python_floats(self):
        cfg = tiny_config(learning_rate=np.float32(1e-3), gamma=100, adam_beta1=np.float64(0.9))
        assert [type(cfg.learning_rate), type(cfg.gamma), type(cfg.adam_beta1)] == [float, float, float]
        assert cfg.learning_rate == float(np.float32(1e-3)) and cfg.gamma == 100.0

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(hidden_sizes=(8,), shared_depth=3), r"shared_depth must lie in \[0, 1\], got 3"),
            (dict(weights=(1.0,)), "expected 2 MOP weights, got 1"),
            (dict(weights=(1.0, 1.0, 1.0)), "expected 2 MOP weights, got 3"),
            (dict(shared_depth=-1), r"shared_depth must lie in \[0, 2\], got -1"),
            (dict(dirichlet_alpha=(1.0, 1.0, 1.0)), "expected 2 Dirichlet parameters, got 3"),
            (dict(dirichlet_alpha=(1.0,)), "expected 2 Dirichlet parameters, got 1"),
            (dict(eval_grid=1), "grid needs at least 2 points, got 1"),
            (dict(hidden_sizes=(10**20,)), TOO_LARGE),
            (dict(hidden_sizes=(10**5000, 8)), TOO_LARGE),
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

    @pytest.mark.parametrize(
        "spec, names",
        [
            ("zdt1", ["zdt2"]),
            ("synthetic-2d", ["zdt1", "zdt2"]),
            ("zdt1, zdt2", ["zdt2", "zdt1"]),
            (("zdt1", "zdt2"), ["zdt1"]),
        ],
    )
    def test_suite_other_than_the_named_one_raises_before_building(self, monkeypatch, spec, names):
        # The record's config must rerun the run, so it must name the problems trained.
        monkeypatch.setattr(trainer_mod, "build_model", lambda *args: pytest.fail("a model was built"))
        message = f"the suite given, {names}, is not the one the config names"
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            train_copsl(tiny_config(suite=spec), suite_from_names(names))

    @pytest.mark.parametrize("spec", ["zdt1, zdt2", "zdt1,zdt2", ["zdt1", "zdt2"]])
    def test_suite_the_config_names_trains(self, spec):
        _, record = train_copsl(tiny_config(suite=spec, iterations=2), ZDT_PAIR)
        assert record.mop_names == ["zdt1", "zdt2"]

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("weights", (1.0, -1.0), r"weights must be finite and nonnegative, got \[1\.0, -1\.0\]"),
            ("weights", (1.0, float("nan")), r"weights must be finite and nonnegative, got \[1\.0, nan\]"),
            ("dirichlet_alpha", (1.0, 0.0), r"dirichlet_alpha must be finite and positive, got \[1\.0, 0\.0\]"),
            ("dirichlet_alpha", (float("inf"), 1.0), r"dirichlet_alpha must be finite and positive, got \[inf, 1\.0\]"),
        ],
        ids=["negative-weight", "nan-weight", "zero-alpha", "infinite-alpha"],
    )
    def test_weight_and_alpha_ranges_refused_when_built(self, key, value, message):
        # Ranges the config owns, so they need no suite: refused before one is built.
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            tiny_config(**{key: value})
        data = tiny_config().to_dict() | {key: list(value)}
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            RunConfig.from_dict(data)


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
        solo = ProblemSuite((get_problem("zdt1"),))
        _, from_copsl = train_copsl(cfg, solo)
        _, from_psl = train_psl(cfg, get_problem("zdt1"))
        assert from_copsl.param_trace == from_psl.param_trace
        assert from_copsl.total_loss == from_psl.total_loss

    def test_baseline_ignores_the_suites_weights(self):
        weighted = tiny_config(suite=("zdt1",), weights=(1.0,), iterations=6, trace_params=True)
        _, expected = train_psl(weighted, get_problem("zdt1"))
        _, baseline = train_psl(tiny_config(weights=(1, 2), iterations=6, trace_params=True), get_problem("zdt1"))
        assert baseline.config["weights"] == [1.0]
        assert baseline.param_trace == expected.param_trace

    def test_baseline_record_config_reruns_bitwise(self):
        _, baseline = train_psl(tiny_config(iterations=6, trace_params=True), get_problem("zdt1"))
        assert (baseline.config["suite"], baseline.config["weights"]) == (["zdt1"], [1.0])
        _, again = train_copsl(RunConfig.from_dict(baseline.config))
        assert again.param_trace == baseline.param_trace
        assert again.total_loss == baseline.total_loss

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
        suite = ProblemSuite((counted,))
        cfg = tiny_config(suite=("zdt1-counted",), iterations=7, batch_size=5, eval_interval=100)
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
        suite = ProblemSuite((broken,))
        cfg = tiny_config(suite=("broken",), iterations=5, batch_size=5)
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
        suite = ProblemSuite((get_problem("zdt2"), broken))
        cfg = tiny_config(suite=("zdt2", "broken"), iterations=5, batch_size=5)
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

    def test_zero_weight_head_still_trains_on_its_own_loss(self):
        # A weight of 0 takes problem 0 out of the trunk's gradient only:
        # its head keeps moving, and so does its loss.
        model, record = train_copsl(tiny_config(weights=(0.0, 1.0), iterations=8), ZDT_PAIR)
        early, _ = train_copsl(tiny_config(weights=(0.0, 1.0), iterations=1), ZDT_PAIR)
        head0 = [layer for layer in param_layout(model.arch) if layer.mop == 0]
        assert head0
        for layer in head0:
            assert not np.array_equal(model.params[layer.weights], early.params[layer.weights])
            assert not np.array_equal(model.params[layer.biases], early.params[layer.biases])
        assert len({losses[0] for losses in record.mop_losses}) > 1


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

    def test_suite_with_another_objective_count_rejected(self):
        model, _ = train_copsl(tiny_config(iterations=1), ZDT_PAIR)
        with pytest.raises(ConfigurationError, match="^suite has 3 objectives but the model expects 2$"):
            evaluate_model(model, suite_from_names(["dtlz2"]), uniform_preference_grid(3, 10))

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


class TestRecordFiles:
    def test_json_round_trip(self, tmp_path):
        _, rec = train_copsl(tiny_config(), ZDT_PAIR)
        path = str(tmp_path / "rec.json")
        rec.save_json(path)
        with open(path, encoding="utf-8") as handle:
            assert json.load(handle) == rec.to_dict()

    def test_loss_csv_shape(self, tmp_path):
        _, rec = train_copsl(tiny_config(iterations=6), ZDT_PAIR)
        path = tmp_path / "losses.csv"
        write_loss_csv(rec, str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "iteration,total_loss,loss_1,loss_2"
        assert len(lines) == 7

    def test_eval_csv_shape(self, tmp_path):
        _, rec = train_copsl(tiny_config(iterations=6, eval_interval=3), ZDT_PAIR)
        path = tmp_path / "eval.csv"
        write_eval_csv(rec, str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "eval_step,hv_1,hv_2,log_hv_diff_1,log_hv_diff_2"
        assert len(lines) == 1 + len(rec.eval_steps)

    def test_eval_csv_writes_a_missing_gap_as_nan(self, tmp_path):
        # Without a closed-form front a problem has no log HV gap; its cell
        # reads as csv_float formats None.
        frontless = dataclasses.replace(get_problem("zdt2"), name="frontless", front_hypervolume=None)
        suite = ProblemSuite((get_problem("zdt1"), frontless))
        _, rec = train_copsl(tiny_config(suite=("zdt1", "frontless"), iterations=2, eval_interval=2), suite)
        path = tmp_path / "eval.csv"
        write_eval_csv(rec, str(path))
        expected = [
            ",".join([str(step), *map(csv_float, hv), *map(csv_float, diffs)])
            for step, hv, diffs in zip(rec.eval_steps, rec.hv, rec.log_hv_diff)
        ]
        assert [diffs[1] for diffs in rec.log_hv_diff] == [None, None]
        assert path.read_text().splitlines()[1:] == expected
        assert all(line.endswith(",nan") for line in expected)


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
        records, failures = run_batch(cfg, seeds=(0, 1, 2), out_dir=str(tmp_path))
        assert failures == []
        assert [record.config["seed"] for record in records] == [0, 1, 2]
        assert all(len(record.hv[-1]) == 2 for record in records)
        assert (tmp_path / "run_seed1.json").exists()
        assert (tmp_path / "losses_seed2.csv").exists()
        assert (tmp_path / "model_seed0.ckpt").exists()

    def test_single_seed_zero_std(self, tmp_path, capsys):
        # copsl run prints each problem's mean and std of final HV over the runs.
        path = tmp_path / "c.json"
        path.write_text(json.dumps(tiny_config(iterations=3).to_dict()))
        assert cli_main(["run", "--config", str(path), "--seed", "5", "--out", str(tmp_path / "out")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == ["zdt1", "zdt2"]
        assert all(line.endswith(" +- 0 over 1 run(s)") for line in lines)

    def test_rerun_reproduces_aggregates(self):
        cfg = tiny_config(iterations=4)
        a, _ = run_batch(cfg, seeds=(0, 1))
        b, _ = run_batch(cfg, seeds=(0, 1))
        assert [record.hv for record in a] == [record.hv for record in b]

    def test_repeated_seed_rejected_before_training(self, monkeypatch):
        monkeypatch.setattr(trainer_mod, "train_copsl", lambda *args: pytest.fail("a run started"))
        with pytest.raises(ConfigurationError, match="^a batch cannot repeat a seed, got 1 more than once$"):
            run_batch(tiny_config(), seeds=(1, 2, np.int64(1)))

    def test_numpy_integer_seeds_write_the_same_bytes(self, tmp_path):
        # NumPy integers are stored as Python ints, so every artifact, the
        # record's JSON included, serializes as it does for plain seeds.
        cfg = tiny_config(iterations=3)
        plain, numpy_seeds = tmp_path / "plain", tmp_path / "numpy"
        run_batch(cfg, seeds=[0, 1], out_dir=str(plain))
        records, _ = run_batch(cfg, seeds=np.arange(2), out_dir=str(numpy_seeds))
        seeds = [record.config["seed"] for record in records]
        assert seeds == [0, 1] and all(type(seed) is int for seed in seeds)
        assert_same_artifacts(plain, numpy_seeds)

    def test_numpy_float_fields_write_the_same_bytes(self, tmp_path):
        # A float32 learning rate is stored as the Python float of its value,
        # so it trains and serializes exactly as that float does.
        plain, numpy_lr = tmp_path / "plain", tmp_path / "numpy"
        run_batch(tiny_config(iterations=3, learning_rate=float(np.float32(1e-3))), seeds=[0], out_dir=str(plain))
        run_batch(tiny_config(iterations=3, learning_rate=np.float32(1e-3)), seeds=[0], out_dir=str(numpy_lr))
        assert_same_artifacts(plain, numpy_lr)

    def test_failure_is_recorded(self, nan_problem):
        cfg = tiny_config(suite=("zdt1", nan_problem))  # diverges at iteration 1
        records, failures = run_batch(cfg, seeds=(0,))
        assert records == []
        assert len(failures) == 1
        assert "MOP 'zdt1-nan' (index 1) at iteration 1" in failures[0]["error"]
