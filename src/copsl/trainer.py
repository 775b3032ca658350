"""End-to-end training: sample preferences, forward, scalarize, backpropagate.

One run owns its model, random streams, ideal-point tracker, and optimizer
state, and is strictly sequential, so a (config, seed) pair fully determines
every recorded series. Initialization and preference sampling consume from
separate substreams of the same seed, which keeps preference sequences
identical across architecture variants trained with paired seeds.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import numbers
import os
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigurationError, CopslError, TrainingDivergedError
from .ioutil import atomic_write_text
from .metrics import csv_float, hypervolume, log_hv_diff, nondominated_filter
from .model import (
    CoPslModel,
    ModelArchitecture,
    backward_all,
    build_model,
    count_flops,
    count_params,
    forward_all,
    nonfinite_layers,
    param_layout,
    predict,
    save_checkpoint,
)
from .nn import DenseLayer
from .optim import adam_step, init_adam_state
from .problems import MopDefinition, ProblemSuite, map_unit_to_box, suite_from_spec, true_front_hv
from .sampling import RNG_ALGORITHM, RngStream, sample_preferences, uniform_preference_grid
from .scalarize import IdealPointTracker, LossSpec, batch_loss, chain_to_decision, total_loss

CONFIG_VERSION = 1

IDEAL_UPDATE_MODES = ("before-loss", "after-loss")

INT_FIELDS = ("cosmos_sign", "iterations", "batch_size", "shared_depth", "seed", "eval_grid", "eval_interval")


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class RunConfig:
    """Everything a training run depends on, serializable as flat JSON.

    ``suite`` is a built-in suite name, one or more comma-separated problem
    names, or a list of registered problem names. ``eval_grid`` of 0 picks
    the default evaluation grid size (100 preferences for two objectives, a
    105-point lattice for three).
    """

    suite: object = "synthetic-2d"
    loss: str = "tch"
    gamma: float = 100.0
    epsilon: float = 1e-3
    cosmos_sign: int = -1
    iterations: int = 500
    batch_size: int = 15
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    dirichlet_alpha: Optional[tuple[float, ...]] = None
    weights: Optional[tuple[float, ...]] = None
    hidden_sizes: tuple[int, ...] = (256, 256)
    shared_depth: int = 1
    seed: int = 0
    eval_grid: int = 0
    eval_interval: int = 10
    ideal_update: str = "before-loss"
    strict_weight_gating: bool = False
    trace_params: bool = False

    def __post_init__(self):
        if isinstance(self.suite, (list, tuple)):
            object.__setattr__(self, "suite", tuple(self.suite))
        if not all(_is_int(h) for h in self.hidden_sizes):
            raise ConfigurationError(f"hidden_sizes must be integers, got {list(self.hidden_sizes)}")
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        if self.dirichlet_alpha is not None:
            object.__setattr__(
                self, "dirichlet_alpha", tuple(float(a) for a in self.dirichlet_alpha)
            )
        if self.weights is not None:
            object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        self.validate()

    def validate(self) -> None:
        for name in INT_FIELDS:
            value = getattr(self, name)
            if not _is_int(value):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        if self.iterations < 1:
            raise ConfigurationError(f"iterations must be >= 1, got {self.iterations}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigurationError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigurationError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        if not self.adam_epsilon > 0.0:
            raise ConfigurationError(f"adam_epsilon must be positive, got {self.adam_epsilon}")
        if self.eval_interval < 1:
            raise ConfigurationError(f"eval_interval must be >= 1, got {self.eval_interval}")
        if self.eval_grid < 0:
            raise ConfigurationError(f"eval_grid must be >= 0, got {self.eval_grid}")
        if self.ideal_update not in IDEAL_UPDATE_MODES:
            raise ConfigurationError(
                f"ideal_update must be one of {IDEAL_UPDATE_MODES}, got {self.ideal_update!r}"
            )
        self.loss_spec()  # validates loss kind and hyperparameters

    def check_suite(self, suite: ProblemSuite) -> tuple[ModelArchitecture, np.ndarray, np.ndarray, np.ndarray]:
        """Check the config against the problems it trains, before any training.

        Returns the model architecture (which checks ``shared_depth`` against
        ``hidden_sizes``), the per-problem weights, the Dirichlet parameters
        and the evaluation grid; raises :class:`ConfigurationError` naming
        the first mismatch, or a problem without an evaluator (a stub) or
        without a Jacobian, which cannot be trained.
        """
        for mop in suite.problems:
            if mop.is_stub:
                raise ConfigurationError(f"problem '{mop.name}' is a stub; register an evaluator before use")
            if mop.jacobian_batch is None:
                raise ConfigurationError(f"problem '{mop.name}' has no Jacobian; register an evaluator first")
        k, m = suite.num_mops, suite.num_objectives
        weights = np.ones(k) if self.weights is None else np.asarray(self.weights, dtype=np.float64)
        if weights.shape != (k,):
            raise ConfigurationError(f"expected {k} MOP weights, got {weights.shape[0]}")
        if not (np.isfinite(weights).all() and (weights >= 0.0).all()):
            raise ConfigurationError(f"MOP weights must be finite and nonnegative, got {weights.tolist()}")
        alpha = np.ones(m) if self.dirichlet_alpha is None else np.asarray(self.dirichlet_alpha, dtype=np.float64)
        if alpha.shape != (m,):
            raise ConfigurationError(f"expected {m} Dirichlet parameters, got {alpha.shape[0]}")
        if not (np.isfinite(alpha).all() and (alpha > 0.0).all()):
            raise ConfigurationError(f"Dirichlet parameters must be finite and positive, got {alpha.tolist()}")
        arch = ModelArchitecture(
            num_objectives=m,
            hidden_sizes=self.hidden_sizes,
            shared_depth=self.shared_depth,
            output_dims=suite.output_dims,
        )
        grid = uniform_preference_grid(m, self.eval_grid or _default_grid_size(m))
        return arch, weights, alpha, grid

    def loss_spec(self) -> LossSpec:
        return LossSpec(
            kind=self.loss,
            gamma=self.gamma,
            epsilon=self.epsilon,
            cosine_sign=self.cosmos_sign,
        )

    def resolve_suite(self) -> ProblemSuite:
        return suite_from_spec(self.suite)

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        for key in ("suite", "hidden_sizes", "dirichlet_alpha", "weights"):
            if isinstance(data[key], tuple):
                data[key] = list(data[key])
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigurationError("config must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(f"unknown config keys: {unknown}")
        try:
            return cls(**data)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed config: {exc}") from exc


@dataclass
class RunRecord:
    """Everything measured during one seeded run."""

    config: dict
    rng_algorithm: str
    suite_name: str
    mop_names: list[str]
    total_loss: list[float]
    mop_losses: list[list[float]]
    eval_steps: list[int]
    hv: list[list[float]]
    log_hv_diff: list[list[Optional[float]]]
    wall_seconds: float
    param_count: int
    flops_per_batch: int
    param_trace: Optional[list[str]] = None
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def save_json(self, path: str) -> None:
        atomic_write_text(path, json.dumps(self.to_dict(), sort_keys=True) + "\n")

    @classmethod
    def from_json(cls, path: str) -> "RunRecord":
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        return cls(**data)


@dataclass
class EvalReport:
    """Per problem: the grid's objective vectors, their scores, and ``fronts``, filtered on first read."""

    objectives: list[np.ndarray]
    hypervolumes: list[float]
    log_diffs: list[Optional[float]]

    @functools.cached_property
    def fronts(self) -> list[np.ndarray]:
        return [nondominated_filter(points) for points in self.objectives]


def _default_grid_size(num_objectives: int) -> int:
    return 100 if num_objectives == 2 else 105


def _grid_objectives(model: CoPslModel, suite: ProblemSuite, grid: np.ndarray) -> list[np.ndarray]:
    """Push a deterministic preference grid through the model; returns each
    problem's objective vectors, rows in grid order.

    The whole grid is one batch: a row's last bits depend on the batch it
    is computed in. Raises :class:`ConfigurationError` unless the suite's
    decision dimensions are the model's heads, in order.
    """
    if suite.output_dims != model.arch.output_dims:
        raise ConfigurationError(
            f"suite '{suite.name}' has output_dims {list(suite.output_dims)} "
            f"but the model's heads have output_dims {list(model.arch.output_dims)}"
        )
    for mop in suite.problems:
        if mop.reference_point is None:
            raise ConfigurationError(f"problem '{mop.name}' has no reference point")
    return [mop.evaluate(map_unit_to_box(x, mop.bounds)) for x, mop in zip(predict(model, grid), suite.problems)]


def model_fronts(model: CoPslModel, suite: ProblemSuite, grid: np.ndarray) -> list[np.ndarray]:
    """The nondominated rows of each problem's grid objective vectors, in grid
    order: what ``copsl front`` writes and :attr:`EvalReport.fronts` holds."""
    return [nondominated_filter(points) for points in _grid_objectives(model, suite, grid)]


def evaluate_model(model: CoPslModel, suite: ProblemSuite, grid: np.ndarray) -> EvalReport:
    """Score each problem's grid objective vectors: their hypervolume against
    the problem's reference point, and the log hypervolume gap to the true
    front where a closed form exists (None otherwise). The sweeps skip
    dominated points, so nothing is filtered until ``fronts`` is first read."""
    objectives = _grid_objectives(model, suite, grid)
    hypervolumes: list[float] = []
    log_diffs: list[Optional[float]] = []
    for mop, points in zip(suite.problems, objectives):
        hv = hypervolume(points, mop.reference_point)
        hypervolumes.append(hv)
        if mop.front_hypervolume is not None:
            log_diffs.append(log_hv_diff(true_front_hv(mop, mop.reference_point), hv))
        else:
            log_diffs.append(None)
    return EvalReport(objectives=objectives, hypervolumes=hypervolumes, log_diffs=log_diffs)


def _param_digest(model: CoPslModel) -> str:
    return hashlib.sha256(model.params).hexdigest()


def _nonfinite_gradient_message(layers: list[DenseLayer], suite: ProblemSuite, iteration: int) -> str:
    """Name every given layer, with its head's problem."""
    names = [
        layer.describe() + ("" if layer.mop is None else f" (MOP '{suite.problems[layer.mop].name}')")
        for layer in layers
    ]
    return f"non-finite gradient at iteration {iteration} in {', '.join(names)}"


def train_copsl(config: RunConfig, suite: Optional[ProblemSuite] = None) -> tuple[CoPslModel, RunRecord]:
    """Train one model on every problem of the suite simultaneously.

    Each iteration samples one shared batch of preference vectors, feeds it
    to all heads, updates the per-problem ideal points, scalarizes, and
    applies one Adam step to the routed gradients. Metrics are recorded on
    the deterministic preference grid at every evaluation step.
    """
    if suite is None:
        suite = config.resolve_suite()
    m = suite.num_objectives
    k = suite.num_mops
    arch, weights, alpha, grid = config.check_suite(suite)
    init_rng = RngStream(config.seed, stream=0)
    pref_rng = RngStream(config.seed, stream=1)
    model = build_model(arch, init_rng)
    adam = init_adam_state(
        model.params, beta1=config.adam_beta1, beta2=config.adam_beta2, epsilon=config.adam_epsilon
    )
    tracker = IdealPointTracker(k, m)
    output_layers = {layer.mop: layer for layer in param_layout(arch)}  # the last layer of each head
    spec = config.loss_spec()

    zero_weight = [i for i in range(k) if weights[i] == 0.0]
    notes = []
    if spec.kind == "cosmos":
        notes.append(
            f"cosmos cosine term sign={spec.cosine_sign:+d} "
            f"({'subtracted, rewards alignment' if spec.cosine_sign < 0 else 'added'})"
        )
    notes.append(f"ideal point updated {config.ideal_update.replace('-', ' ')} each iteration")

    record = RunRecord(
        config=config.to_dict(),
        rng_algorithm=RNG_ALGORITHM,
        suite_name=suite.name,
        mop_names=[p.name for p in suite.problems],
        total_loss=[],
        mop_losses=[],
        eval_steps=[],
        hv=[],
        log_hv_diff=[],
        wall_seconds=0.0,
        param_count=count_params(model),
        flops_per_batch=count_flops(model, config.batch_size),
        param_trace=[_param_digest(model)] if config.trace_params else None,
        notes=notes,
    )

    def run_eval(step: int) -> None:
        report = evaluate_model(model, suite, grid)
        record.eval_steps.append(step)
        record.hv.append(report.hypervolumes)
        record.log_hv_diff.append(report.log_diffs)

    started = time.perf_counter()
    run_eval(0)
    for iteration in range(1, config.iterations + 1):
        prefs = sample_preferences(pref_rng, alpha, config.batch_size)
        outputs, caches = forward_all(model, prefs)

        mop_losses: list[float] = []
        output_grads: list[np.ndarray] = []
        for i, mop in enumerate(suite.problems):
            x = map_unit_to_box(outputs[i], mop.bounds)
            objectives = mop.evaluate(x)
            if not np.isfinite(objectives).all():
                raise TrainingDivergedError(
                    f"non-finite objective values for MOP '{mop.name}' "
                    f"(index {i}) at iteration {iteration}"
                )
            jacobians = mop.jacobian(x)
            if config.ideal_update == "before-loss" or iteration == 1:
                # The first batch always seeds the tracker, otherwise the
                # +inf sentinel would reach the loss.
                tracker.update(i, objectives)
            loss_value, objective_grads = batch_loss(spec, objectives, prefs, tracker.ideal(i))
            if config.ideal_update == "after-loss":
                tracker.update(i, objectives)
            if not np.isfinite(loss_value):
                raise TrainingDivergedError(
                    f"non-finite loss {loss_value} for MOP '{mop.name}' "
                    f"(index {i}) at iteration {iteration}"
                )
            decision_grads = chain_to_decision(objective_grads, jacobians, mop.bounds.widths)
            if not np.isfinite(decision_grads).all():
                raise TrainingDivergedError(_nonfinite_gradient_message([output_layers[i]], suite, iteration))
            mop_losses.append(loss_value)
            output_grads.append(decision_grads)

        grads = backward_all(model, caches, output_grads, weights)
        if config.strict_weight_gating and zero_weight:
            for layer in param_layout(arch):
                if layer.mop in zero_weight:
                    grads[layer.span] = 0.0
        if not np.isfinite(grads).all():
            bad = nonfinite_layers(arch, grads)
            raise TrainingDivergedError(_nonfinite_gradient_message(bad, suite, iteration))
        adam_step(model.params, grads, adam, config.learning_rate)

        record.total_loss.append(total_loss(mop_losses, weights))
        record.mop_losses.append(mop_losses)
        if config.trace_params:
            record.param_trace.append(_param_digest(model))
        if iteration % config.eval_interval == 0 or iteration == config.iterations:
            run_eval(iteration)
    record.wall_seconds = time.perf_counter() - started
    return model, record


def train_psl(config: RunConfig, problem: MopDefinition) -> tuple[CoPslModel, RunRecord]:
    """Train the single-problem baseline: the same loop on a singleton suite."""
    suite = ProblemSuite(problem.name, (problem,))
    single = dataclasses.replace(config, weights=(1.0,) if config.weights is None else config.weights)
    return train_copsl(single, suite)


# ---------------------------------------------------------------------------
# Experiment drivers
# ---------------------------------------------------------------------------


def run_ablation(config: RunConfig, seeds=(0,)) -> tuple[list[dict], list[dict]]:
    """Train every shared-depth variant of the configured stack per seed.

    Each variant is one :func:`run_batch` over ``seeds`` (so no seeds raises
    :class:`ConfigurationError`). Returns (rows, failures). Each row holds
    shared_depth, seed, mop, final hypervolume, hypervolume delta against the
    fully separate (shared_depth 0) variant with the same seed, and the
    variant's parameter count; each failure is run_batch's, plus shared_depth.
    """
    rows: list[dict] = []
    failures: list[dict] = []
    baseline_hv: dict[tuple[int, int], float] = {}
    for depth in range(len(config.hidden_sizes) + 1):
        summary = run_batch(dataclasses.replace(config, shared_depth=depth), seeds)
        failures.extend({"shared_depth": depth, **failure} for failure in summary["failures"])
        for record in summary["records"]:
            seed, params = record.config["seed"], record.param_count
            for i, (mop, hv) in enumerate(zip(record.mop_names, record.hv[-1])):
                if depth == 0:
                    baseline_hv[(seed, i)] = hv
                base = baseline_hv.get((seed, i))
                delta = hv - base if base is not None else None
                rows.append(dict(shared_depth=depth, seed=seed, mop=mop, hv=hv, delta_hv=delta, params=params))
    return rows, failures


def run_batch(config: RunConfig, seeds, out_dir: Optional[str] = None) -> dict:
    """Run one config across all seeds and aggregate final metrics.

    A config that does not fit its suite, or a negative seed, raises
    :class:`ConfigurationError` before any seed trains. Runs that fail are
    recorded per seed and excluded from the statistics; they do not abort the
    batch. With ``out_dir`` set, every run's record, loss and evaluation
    series, and final checkpoint are persisted there, tagged ``seed<S>``.
    """
    if len(seeds) < 1:
        raise ConfigurationError("need at least one seed")
    suite = config.resolve_suite()
    config.check_suite(suite)
    seeded = [dataclasses.replace(config, seed=seed) for seed in seeds]  # validates every seed
    records: list[RunRecord] = []
    failures: list[dict] = []
    artifacts: list[str] = []
    for seed, seed_config in zip(seeds, seeded):
        try:
            model, record = train_copsl(seed_config, suite)
        except CopslError as exc:
            failures.append({"seed": seed, "error": str(exc)})
            continue
        records.append(record)
        if out_dir is not None:
            paths = {
                "record": os.path.join(out_dir, f"run_seed{seed}.json"),
                "losses": os.path.join(out_dir, f"losses_seed{seed}.csv"),
                "eval": os.path.join(out_dir, f"eval_seed{seed}.csv"),
                "checkpoint": os.path.join(out_dir, f"model_seed{seed}.ckpt"),
            }
            record.save_json(paths["record"])
            write_loss_csv(record, paths["losses"])
            write_eval_csv(record, paths["eval"])
            suite_spec = config.suite if isinstance(config.suite, str) else list(config.suite)
            save_checkpoint(model, paths["checkpoint"], metadata={"suite": suite_spec, "seed": seed})
            artifacts.extend(paths.values())
    summary: dict = {"seeds": list(seeds), "records": records, "failures": failures, "artifacts": artifacts}
    if records:
        final_hv = np.array([r.hv[-1] for r in records])
        walls = np.array([r.wall_seconds for r in records])
        summary["mop_names"] = records[0].mop_names
        summary["mean_final_hv"] = final_hv.mean(axis=0).tolist()
        summary["std_final_hv"] = final_hv.std(axis=0).tolist()
        summary["mean_wall_seconds"] = float(walls.mean())
        summary["std_wall_seconds"] = float(walls.std())
    return summary


# ---------------------------------------------------------------------------
# Series files
# ---------------------------------------------------------------------------


def write_loss_csv(record: RunRecord, path: str) -> None:
    k = len(record.mop_names)
    header = "iteration,total_loss," + ",".join(f"loss_{i + 1}" for i in range(k))
    lines = [header]
    for t, (total, per_mop) in enumerate(zip(record.total_loss, record.mop_losses), start=1):
        lines.append(f"{t},{csv_float(total)}," + ",".join(csv_float(v) for v in per_mop))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_eval_csv(record: RunRecord, path: str) -> None:
    k = len(record.mop_names)
    header = (
        "eval_step,"
        + ",".join(f"hv_{i + 1}" for i in range(k))
        + ","
        + ",".join(f"log_hv_diff_{i + 1}" for i in range(k))
    )
    lines = [header]
    for step, hv_row, diff_row in zip(record.eval_steps, record.hv, record.log_hv_diff):
        lines.append(
            f"{step},"
            + ",".join(csv_float(v) for v in hv_row)
            + ","
            + ",".join(csv_float(v) for v in diff_row)
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_ablation_csv(rows, path: str) -> None:
    lines = ["shared_depth,seed,mop,hv,delta_hv,params"]
    for row in rows:
        lines.append(
            f"{row['shared_depth']},{row['seed']},{row['mop']},"
            f"{csv_float(row['hv'])},{csv_float(row['delta_hv'])},{row['params']}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")
