"""The shared-trunk, per-problem-head network and its gradient routing.

A model conditions on a preference vector p: the trunk (the first
``shared_depth`` hidden layers, rectified) maps p to a shared representation,
and one head per problem (remaining hidden layers plus a sigmoid output
layer) maps that representation to a point in the problem's unit cube. The
backward pass routes gradients asymmetrically: each head receives only its
own problem's gradient, while the trunk accumulates the weighted sum over
problems.

All parameters live in one contiguous float64 vector laid out by
:func:`param_layout`, whose layers are slots in it: a model is just its
architecture and that vector. Gradients and the optimizer's moments are
vectors of the same layout, and a layer's views into any of them come from
its slot.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError, ConfigurationError, InputError, InternalError
from .ioutil import atomic_write_bytes
from .nn import DenseLayer, layer_backward, layer_forward
from .sampling import RngStream

SIMPLEX_TOLERANCE = 1e-9

CHECKPOINT_MAGIC = "copsl-checkpoint"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelArchitecture:
    """Static shape of a model.

    ``shared_depth`` counts how many leading hidden layers form the trunk;
    the output layer is always problem-specific. ``output_dims`` lists the
    decision-space dimension of each problem, one entry per head.
    """

    num_objectives: int
    hidden_sizes: tuple[int, ...]
    shared_depth: int
    output_dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        object.__setattr__(self, "output_dims", tuple(int(n) for n in self.output_dims))
        if self.num_objectives < 2:
            raise ConfigurationError(f"need at least 2 objectives, got {self.num_objectives}")
        if not self.output_dims:
            raise ConfigurationError("need at least one problem head")
        if any(h < 1 for h in self.hidden_sizes) or any(n < 1 for n in self.output_dims):
            raise ConfigurationError("all layer sizes must be >= 1")
        if not 0 <= self.shared_depth <= len(self.hidden_sizes):
            raise ConfigurationError(
                f"shared_depth must lie in [0, {len(self.hidden_sizes)}], got {self.shared_depth}"
            )

    @property
    def num_mops(self) -> int:
        return len(self.output_dims)

    def to_dict(self) -> dict:
        return {
            "num_objectives": self.num_objectives,
            "hidden_sizes": list(self.hidden_sizes),
            "shared_depth": self.shared_depth,
            "output_dims": list(self.output_dims),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModelArchitecture":
        try:
            return cls(
                num_objectives=int(data["num_objectives"]),
                hidden_sizes=tuple(data["hidden_sizes"]),
                shared_depth=int(data["shared_depth"]),
                output_dims=tuple(data["output_dims"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed architecture description: {exc}") from exc


@functools.lru_cache(maxsize=64)
def param_layout(arch: ModelArchitecture) -> tuple[DenseLayer, ...]:
    """Every layer, as its slot in a flat vector: trunk first, then heads in
    problem order, each layer's weights before its biases."""
    dims = (arch.num_objectives,) + arch.hidden_sizes
    plan = [(None, j, dims[j], dims[j + 1], "relu") for j in range(arch.shared_depth)]
    for i, out_dim in enumerate(arch.output_dims):
        sizes = dims[arch.shared_depth :] + (out_dim,)
        last = len(sizes) - 2
        plan.extend(
            (i, j, sizes[j], sizes[j + 1], "sigmoid" if j == last else "relu")
            for j in range(last + 1)
        )
    layers = []
    offset = 0
    for mop, depth, fan_in, fan_out, activation in plan:
        mid = offset + fan_out * fan_in
        layers.append(
            DenseLayer(mop, depth, fan_in, fan_out, activation, slice(offset, mid), slice(mid, mid + fan_out))
        )
        offset = mid + fan_out
    return tuple(layers)


@functools.lru_cache(maxsize=64)
def layer_groups(arch: ModelArchitecture) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Positions in :func:`param_layout` of the trunk's layers and of each head's, input first."""
    owners = [layer.mop for layer in param_layout(arch)]
    trunk = tuple(k for k, mop in enumerate(owners) if mop is None)
    heads = tuple(tuple(k for k, mop in enumerate(owners) if mop == i) for i in range(arch.num_mops))
    return trunk, heads


def _size(arch: ModelArchitecture) -> int:
    return param_layout(arch)[-1].span.stop


def nonfinite_layers(arch: ModelArchitecture, vector: np.ndarray) -> list[DenseLayer]:
    """The layers, in layout order, whose part of a flat vector holds NaN or +-inf."""
    return [layer for layer in param_layout(arch) if not np.isfinite(vector[layer.span]).all()]


@dataclass(frozen=True, eq=False)
class CoPslModel:
    """One finite, contiguous float64 parameter vector laid out by :func:`param_layout`."""

    arch: ModelArchitecture
    params: np.ndarray

    def __post_init__(self):
        params = self.params
        size = _size(self.arch)
        if not (isinstance(params, np.ndarray) and params.dtype == np.float64 and params.flags.c_contiguous):
            raise ConfigurationError("params must be a contiguous float64 array")
        if params.shape != (size,):
            raise ConfigurationError(f"expected {size} parameters, got shape {params.shape}")
        if not np.isfinite(params).all():
            bad = nonfinite_layers(self.arch, params)
            raise ConfigurationError(f"non-finite parameters in {bad[0].describe()}")


def build_model(arch: ModelArchitecture, rng: RngStream) -> CoPslModel:
    """Initialize a model for the given architecture.

    Each layer's weights, then its biases, are drawn uniform on
    +-1/sqrt(fan_in), layer by layer in layout order, so identical streams
    give bitwise-identical models.
    """
    params = np.empty(_size(arch))
    for layer in param_layout(arch):
        bound = 1.0 / math.sqrt(layer.fan_in)
        params[layer.weights] = rng.uniform(-bound, bound, layer.fan_out * layer.fan_in)
        params[layer.biases] = rng.uniform(-bound, bound, layer.fan_out)
    return CoPslModel(arch=arch, params=params)


def _check_preferences(prefs: np.ndarray, num_objectives: int) -> np.ndarray:
    p = np.asarray(prefs, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] != num_objectives:
        raise InputError(f"expected preferences of shape (batch, {num_objectives}), got {p.shape}")
    if not np.isfinite(p).all():
        raise InputError("preference components must be finite")
    if (p < 0.0).any():
        raise InputError("preference components must be nonnegative")
    if np.abs(p.sum(axis=1) - 1.0).max() > SIMPLEX_TOLERANCE:
        raise InputError("preference rows must sum to 1")
    return p


def _forward(model: CoPslModel, x: np.ndarray, caches: list | None) -> list[np.ndarray]:
    """The one layer loop: per-head outputs, and each layer's cache in ``caches`` when given."""
    layout = param_layout(model.arch)
    trunk, heads = layer_groups(model.arch)

    def run(positions, h):
        for k in positions:
            h, cache = layer_forward(layout[k], model.params, h)
            if caches is not None:
                caches[k] = cache
        return h

    x = run(trunk, x)
    return [run(head, x) for head in heads]


def forward_all(model: CoPslModel, preferences) -> tuple[list[np.ndarray], list[tuple]]:
    """Run a batch of preference vectors through the trunk and every head.

    Returns one (batch, n_i) matrix of unit-cube outputs per problem plus one
    (inputs, output) cache per layer, in layout order, for
    :func:`backward_all`. A layer's output is the next layer's input, so the
    caches hold one array per layer. The rows are not checked:
    :func:`sample_preferences` puts training's on the simplex.
    """
    caches: list = [None] * len(param_layout(model.arch))
    return _forward(model, preferences, caches), caches


def predict(model: CoPslModel, preferences) -> list[np.ndarray]:
    """The outputs of :func:`forward_all`, bit for bit, without its caches.

    Each layer's input is freed once the layer has run, and each rectified
    layer's output is written over its own pre-activation, so memory stays
    about two (batch, width) arrays instead of one per layer. For evaluation,
    where a caller's grid enters: it raises :class:`InputError` unless every
    row is finite and lies on the simplex.
    """
    return _forward(model, _check_preferences(preferences, model.arch.num_objectives), None)


def backward_all(model: CoPslModel, caches: list[tuple], output_grads, weights) -> np.ndarray:
    """Route gradients: own loss per head, weighted sum into the trunk.

    ``output_grads[i]`` is dL_i/d(head-i output), of that output's shape.
    Returns one flat vector laid out like ``model.params``: head i's part is
    exactly the backpropagation of L_i, the trunk's part the backpropagation
    of sum_i w_i L_i, with ``weights`` as :meth:`RunConfig.check_suite` checked them.
    """
    arch = model.arch
    if len(output_grads) != arch.num_mops:
        raise InternalError(f"expected {arch.num_mops} output gradients, got {len(output_grads)}")

    layout = param_layout(arch)
    trunk, heads = layer_groups(arch)
    grads = np.empty_like(model.params)

    def backprop(positions, upstream):
        for k in reversed(positions):
            upstream = layer_backward(layout[k], model.params, caches[k], upstream, grads)
        return upstream

    trunk_upstream: np.ndarray | None = None
    for i, head in enumerate(heads):
        upstream = np.asarray(output_grads[i], dtype=np.float64)
        output_shape = caches[head[-1]][1].shape
        if upstream.shape != output_shape:
            raise InternalError(f"gradient shape {upstream.shape} does not match head {i} output {output_shape}")
        contribution = weights[i] * backprop(head, upstream)
        trunk_upstream = contribution if trunk_upstream is None else trunk_upstream + contribution
    backprop(trunk, trunk_upstream)
    return grads


# ---------------------------------------------------------------------------
# Parameter bookkeeping
# ---------------------------------------------------------------------------


def parameter_arrays(model: CoPslModel) -> list[np.ndarray]:
    """Every layer's weights and biases, in layout order, as views into ``model.params``."""
    return [a for layer in param_layout(model.arch) for a in layer.views(model.params)]


def count_params(model: CoPslModel) -> int:
    """Total scalar parameters: sum of fan_in * fan_out + fan_out per layer."""
    return model.params.size


def count_flops(model: CoPslModel, batch: int) -> int:
    """Forward multiply-accumulate count, two FLOPs per MAC, times the batch.

    Bias additions and activations are excluded; only the dense weight
    products are counted.
    """
    if batch < 1:
        raise InputError(f"batch must be >= 1, got {batch}")
    return batch * sum(2 * s.fan_in * s.fan_out for s in param_layout(model.arch))


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(model: CoPslModel, path: str, metadata: dict | None = None) -> None:
    """Write a self-describing checkpoint.

    Layout: one JSON header line (format name, version, architecture,
    optional metadata), then ``model.params`` as raw little-endian float64,
    written from the vector itself. Refuses, with :class:`CheckpointError`,
    parameters that are not finite.
    """
    bad = nonfinite_layers(model.arch, model.params)
    if bad:
        raise CheckpointError(f"refusing to write {path!r}: model has non-finite parameters in {bad[0].describe()}")
    header = {
        "format": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "architecture": model.arch.to_dict(),
        "metadata": metadata or {},
    }
    header_line = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
    atomic_write_bytes(path, header_line, model.params.astype("<f8", copy=False))


def load_checkpoint(path: str) -> tuple[CoPslModel, dict]:
    """Read a checkpoint back; returns the model and the stored metadata.

    A body whose length matches the file's size is read straight into the
    parameter vector. Raises :class:`CheckpointError`, naming the first offending
    layer, for a body that holds NaN or +-inf, and for metadata that is not a JSON object.
    """
    try:
        with open(path, "rb") as handle:
            return _read_checkpoint(handle, path)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc


def _read_checkpoint(handle, path: str) -> tuple[CoPslModel, dict]:
    line = handle.readline()
    if not line.endswith(b"\n"):
        raise CheckpointError("checkpoint has no header line")
    try:
        header = json.loads(line[:-1].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"checkpoint header is corrupt: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_MAGIC:
        raise CheckpointError("not a model checkpoint")
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {header.get('version')!r}, expected {CHECKPOINT_VERSION}"
        )
    try:
        arch = ModelArchitecture.from_dict(header["architecture"])
    except (KeyError, ConfigurationError) as exc:
        raise CheckpointError(f"checkpoint architecture is invalid: {exc}") from exc
    metadata = header.get("metadata", {})
    if not isinstance(metadata, dict):
        raise CheckpointError(f"checkpoint metadata must be a JSON object, got {metadata!r}")

    size = _size(arch)
    body_bytes = os.fstat(handle.fileno()).st_size - len(line)
    if body_bytes == 8 * size:
        params = np.empty(size, dtype="<f8")
        body_bytes = handle.readinto(params)  # short only if the file shrank since fstat
    if body_bytes != 8 * size:
        raise CheckpointError(f"checkpoint body has {body_bytes} bytes, expected {8 * size} (truncated or padded)")
    try:
        return CoPslModel(arch=arch, params=params.astype(np.float64, copy=False)), metadata
    except ConfigurationError as exc:
        raise CheckpointError(f"checkpoint {path!r} holds {exc}") from exc
