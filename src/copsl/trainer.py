"""End-to-end training: sample preferences, forward, scalarize, backpropagate.

One run owns its model, random streams, ideal-point tracker, and optimizer
state, and is strictly sequential, so a (config, seed) pair fully determines
every recorded series. Initialization and preference sampling consume from
separate substreams of the same seed, which keeps preference sequences
identical across architecture variants trained with paired seeds.

Here are the run record, the loop, the drivers for seeds and the ablation,
and their CSV writers; the run config is :mod:`copsl.config`'s.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import RunConfig
from .errors import ConfigurationError, CopslError, TrainingDivergedError
from .ioutil import atomic_write_text
from .metrics import CSV_FLOAT_FORMAT, hypervolume, log_hv_diff, nondominated_filter
from .model import (
    CoPslModel,
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
from .problems import MopDefinition, ProblemSuite, map_unit_to_box, true_front_hv
from .sampling import RNG_ALGORITHM, RngStream, sample_preferences
from .scalarize import IdealPointTracker, batch_loss, chain_to_decision, total_loss

@dataclass
class RunRecord:
    """Everything measured during one seeded run: what is known at its start, then its series."""

    config: dict
    rng_algorithm: str
    mop_names: list[str]
    param_count: int
    flops_per_batch: int
    param_trace: Optional[list[str]]
    total_loss: list[float] = field(default_factory=list)
    mop_losses: list[list[float]] = field(default_factory=list)
    eval_steps: list[int] = field(default_factory=list)
    hv: list[list[float]] = field(default_factory=list)
    log_hv_diff: list[list[Optional[float]]] = field(default_factory=list)
    wall_seconds: float = 0.0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def save_json(self, path: str) -> None:
        atomic_write_text(path, json.dumps(self.to_dict(), sort_keys=True) + "\n")


@dataclass
class EvalReport:
    """Per problem: the grid's objective vectors, their scores, and ``fronts``, filtered on first read."""

    objectives: list[np.ndarray]
    hypervolumes: list[float]
    log_diffs: list[Optional[float]]

    @functools.cached_property
    def fronts(self) -> list[np.ndarray]:
        return [nondominated_filter(points) for points in self.objectives]


def _grid_objectives(model: CoPslModel, suite: ProblemSuite, grid: np.ndarray) -> list[np.ndarray]:
    """Push a deterministic preference grid through the model; returns each
    problem's objective vectors, rows in grid order.

    The whole grid is one batch: a row's last bits depend on the batch it
    is computed in. Raises :class:`ConfigurationError` unless the suite has
    the model's objective count and its decision dimensions are the model's
    heads, in order.
    """
    if suite.num_objectives != model.arch.num_objectives:
        raise ConfigurationError(
            f"suite has {suite.num_objectives} objectives but the model expects {model.arch.num_objectives}"
        )
    if suite.output_dims != model.arch.output_dims:
        raise ConfigurationError(
            f"suite {[mop.name for mop in suite.problems]} has output_dims {list(suite.output_dims)} "
            f"but the model's heads have output_dims {list(model.arch.output_dims)}"
        )
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


def _diverged(what: str, mop: MopDefinition, index: int, iteration: int) -> TrainingDivergedError:
    return TrainingDivergedError(f"non-finite {what} for MOP '{mop.name}' (index {index}) at iteration {iteration}")


def train_copsl(config: RunConfig, suite: Optional[ProblemSuite] = None) -> tuple[CoPslModel, RunRecord]:
    """Train one model on every problem of the suite simultaneously.

    Each iteration samples one shared batch of preference vectors, feeds it
    to all heads, updates the per-problem ideal points, scalarizes, and
    applies one Adam step to the routed gradients. Metrics are recorded on
    the deterministic preference grid at every evaluation step.
    """
    if suite is None:
        suite = config.resolve_suite()
    arch, weights, alpha, grid = config.check_suite(suite)
    pref_rng = RngStream(config.seed, stream=1)
    model = build_model(arch, RngStream(config.seed, stream=0))
    adam = init_adam_state(
        model.params, beta1=config.adam_beta1, beta2=config.adam_beta2, epsilon=config.adam_epsilon
    )
    tracker = IdealPointTracker(suite.num_mops, suite.num_objectives)
    # The last layer of each head: what a non-finite decision gradient names.
    output_layers = {layer.mop: layer for layer in param_layout(arch) if layer.mop is not None}
    spec = config.loss_spec()
    record = RunRecord(
        config=config.to_dict(),
        rng_algorithm=RNG_ALGORITHM,
        mop_names=[p.name for p in suite.problems],
        param_count=count_params(model),
        flops_per_batch=count_flops(model, config.batch_size),
        param_trace=[_param_digest(model)] if config.trace_params else None,
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
                raise _diverged("objective values", mop, i, iteration)
            jacobians = mop.jacobian(x)
            tracker.update(i, objectives)
            loss_value, objective_grads = batch_loss(spec, objectives, prefs, tracker.ideal(i))
            if not np.isfinite(loss_value):
                raise _diverged(f"loss {loss_value}", mop, i, iteration)
            decision_grads = chain_to_decision(objective_grads, jacobians, mop.bounds.widths)
            if not np.isfinite(decision_grads).all():
                raise TrainingDivergedError(_nonfinite_gradient_message([output_layers[i]], suite, iteration))
            mop_losses.append(loss_value)
            output_grads.append(decision_grads)

        grads = backward_all(model, caches, output_grads, weights)
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
    """Train the single-problem baseline: the same loop on a singleton suite, named in the config."""
    single = dataclasses.replace(config, suite=(problem.name,), weights=(1.0,))
    return train_copsl(single, ProblemSuite((problem,)))


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
        records, variant_failures = run_batch(dataclasses.replace(config, shared_depth=depth), seeds)
        failures.extend({"shared_depth": depth, **failure} for failure in variant_failures)
        for record in records:
            seed, params = record.config["seed"], record.param_count
            for i, (mop, hv) in enumerate(zip(record.mop_names, record.hv[-1])):
                if depth == 0:
                    baseline_hv[(seed, i)] = hv
                base = baseline_hv.get((seed, i))
                delta = hv - base if base is not None else None
                rows.append(dict(shared_depth=depth, seed=seed, mop=mop, hv=hv, delta_hv=delta, params=params))
    return rows, failures


def run_batch(config: RunConfig, seeds, out_dir: Optional[str] = None) -> tuple[list[RunRecord], list[dict]]:
    """Run one config across all seeds; returns (records, failures).

    A config that does not fit its suite, or a negative or repeated seed,
    raises :class:`ConfigurationError` before any seed trains. A run that
    fails becomes a ``{"seed", "error"}`` failure and does not abort the
    batch; ``records`` holds the other runs in seed order. With ``out_dir``
    set, every run's record, loss and evaluation series, and final checkpoint
    are persisted there, tagged ``seed<S>``.
    """
    if len(seeds) < 1:
        raise ConfigurationError("need at least one seed")
    suite = config.resolve_suite()
    config.check_suite(suite)
    seeded = [dataclasses.replace(config, seed=seed) for seed in seeds]  # validates every seed
    seeds = [c.seed for c in seeded]  # as Python ints
    repeated = [seed for i, seed in enumerate(seeds) if seed in seeds[:i]]
    if repeated:
        raise ConfigurationError(f"a batch cannot repeat a seed, got {repeated[0]} more than once")
    records: list[RunRecord] = []
    failures: list[dict] = []
    for seed, seed_config in zip(seeds, seeded):
        try:
            model, record = train_copsl(seed_config, suite)
        except CopslError as exc:
            failures.append({"seed": seed, "error": str(exc)})
            continue
        records.append(record)
        if out_dir is not None:
            record.save_json(os.path.join(out_dir, f"run_seed{seed}.json"))
            write_loss_csv(record, os.path.join(out_dir, f"losses_seed{seed}.csv"))
            write_eval_csv(record, os.path.join(out_dir, f"eval_seed{seed}.csv"))
            checkpoint = os.path.join(out_dir, f"model_seed{seed}.ckpt")
            save_checkpoint(model, checkpoint, metadata={"suite": record.config["suite"], "seed": seed})
    return records, failures


# ---------------------------------------------------------------------------
# Series files
# ---------------------------------------------------------------------------


_FLOAT = "%" + CSV_FLOAT_FORMAT  # printf-style, the same digits as metrics.csv_float


def _write_table(path: str, header: str, row_format: str, rows: list[tuple]) -> None:
    """Write the header and one ``row_format`` line per row, with a None cell as nan."""
    cells = tuple(math.nan if cell is None else cell for row in rows for cell in row)
    atomic_write_text(path, header + "\n" + ((row_format + "\n") * len(rows)) % cells)


def write_loss_csv(record: RunRecord, path: str) -> None:
    k = len(record.mop_names)
    header = "iteration,total_loss," + ",".join(f"loss_{i + 1}" for i in range(k))
    rows = [(t, total, *per_mop) for t, (total, per_mop) in enumerate(zip(record.total_loss, record.mop_losses), 1)]
    _write_table(path, header, ",".join(["%d"] + [_FLOAT] * (1 + k)), rows)


def write_eval_csv(record: RunRecord, path: str) -> None:
    k = len(record.mop_names)
    header = ",".join(["eval_step", *(f"hv_{i + 1}" for i in range(k)), *(f"log_hv_diff_{i + 1}" for i in range(k))])
    rows = [(step, *hv, *diffs) for step, hv, diffs in zip(record.eval_steps, record.hv, record.log_hv_diff)]
    _write_table(path, header, ",".join(["%d"] + [_FLOAT] * (2 * k)), rows)


def write_ablation_csv(rows, path: str) -> None:
    cells = [(r["shared_depth"], r["seed"], r["mop"], r["hv"], r["delta_hv"], r["params"]) for r in rows]
    _write_table(path, "shared_depth,seed,mop,hv,delta_hv,params", f"%d,%d,%s,{_FLOAT},{_FLOAT},%d", cells)
