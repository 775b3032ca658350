"""The shared-trunk, per-problem-head network and its gradient routing.

A model conditions on a preference vector p: the trunk (the first
``shared_depth`` hidden layers, rectified) maps p to a shared representation,
and one head per problem (remaining hidden layers plus a sigmoid output
layer) maps that representation to a point in the problem's unit cube. The
backward pass routes gradients asymmetrically: each head receives only its
own problem's gradient, while the trunk accumulates the weighted sum over
problems.

All parameters live in one contiguous float64 vector laid out by
:func:`param_layout`; the layers are views into it. Gradients and the
optimizer's moments are vectors of the same layout.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import CheckpointError, ConfigurationError, InputError, InternalError
from .ioutil import atomic_write_bytes
from .nn import DenseLayer, ForwardCache, init_layer, layer_backward, layer_forward
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


@dataclass(frozen=True)
class LayerSlot:
    """Where one layer's parameters sit in the flat parameter vector.

    ``mop`` is the head's problem index, or None for a trunk layer; ``depth``
    is the layer's position within the trunk or its head. The weights
    (fan_out, fan_in) occupy ``weights``, the biases follow in ``biases``.
    """

    mop: Optional[int]
    depth: int
    fan_in: int
    fan_out: int
    activation: str
    weights: slice
    biases: slice

    @property
    def span(self) -> slice:
        """The layer's weights and biases together."""
        return slice(self.weights.start, self.biases.stop)

    def describe(self) -> str:
        return f"trunk layer {self.depth}" if self.mop is None else f"head {self.mop} layer {self.depth}"


@functools.lru_cache(maxsize=64)
def param_layout(arch: ModelArchitecture) -> tuple[LayerSlot, ...]:
    """Where every layer's parameters sit in a flat vector: trunk first, then
    heads in problem order, each layer's weights before its biases."""
    dims = (arch.num_objectives,) + arch.hidden_sizes
    plan = [(None, j, dims[j], dims[j + 1], "relu") for j in range(arch.shared_depth)]
    for i, out_dim in enumerate(arch.output_dims):
        sizes = dims[arch.shared_depth :] + (out_dim,)
        last = len(sizes) - 2
        plan.extend(
            (i, j, sizes[j], sizes[j + 1], "sigmoid" if j == last else "relu")
            for j in range(last + 1)
        )
    slots = []
    offset = 0
    for mop, depth, fan_in, fan_out, activation in plan:
        mid = offset + fan_out * fan_in
        slots.append(
            LayerSlot(mop, depth, fan_in, fan_out, activation, slice(offset, mid), slice(mid, mid + fan_out))
        )
        offset = mid + fan_out
    return tuple(slots)


def _size(arch: ModelArchitecture) -> int:
    return param_layout(arch)[-1].span.stop


def nonfinite_layers(arch: ModelArchitecture, vector: np.ndarray) -> list[LayerSlot]:
    """The layers, in layout order, whose part of a flat vector holds NaN or +-inf."""
    return [s for s in param_layout(arch) if not np.isfinite(vector[s.span]).all()]


def _layer_views(arch: ModelArchitecture, vector: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weights, biases) views into a flat vector, one pair per layer in layout order."""
    return [
        (vector[s.weights].reshape(s.fan_out, s.fan_in), vector[s.biases])
        for s in param_layout(arch)
    ]


def _trunk_and_heads(arch: ModelArchitecture, items: list):
    """Group a per-layer list in layout order into the trunk's and each head's."""
    owners = [s.mop for s in param_layout(arch)]
    trunk = [x for x, owner in zip(items, owners) if owner is None]
    heads = [[x for x, owner in zip(items, owners) if owner == i] for i in range(arch.num_mops)]
    return trunk, heads


@dataclass(frozen=True, eq=False)
class CoPslModel:
    """One flat float64 parameter vector laid out by :func:`param_layout`.

    ``trunk`` and ``heads`` are layers whose arrays are views into
    ``params``, built once: updating ``params`` in place updates the layers.
    """

    arch: ModelArchitecture
    params: np.ndarray
    trunk: tuple[DenseLayer, ...] = field(init=False, repr=False)
    heads: tuple[tuple[DenseLayer, ...], ...] = field(init=False, repr=False)

    def __post_init__(self):
        params = self.params
        size = _size(self.arch)
        if not (isinstance(params, np.ndarray) and params.dtype == np.float64 and params.flags.c_contiguous):
            raise ConfigurationError("params must be a contiguous float64 array")
        if params.shape != (size,):
            raise ConfigurationError(f"expected {size} parameters, got shape {params.shape}")
        layers = [
            DenseLayer(weights=w, biases=b, activation=s.activation)
            for (w, b), s in zip(_layer_views(self.arch, params), param_layout(self.arch))
        ]
        trunk, heads = _trunk_and_heads(self.arch, layers)
        object.__setattr__(self, "trunk", tuple(trunk))
        object.__setattr__(self, "heads", tuple(tuple(h) for h in heads))


@dataclass
class ForwardCaches:
    trunk: list[ForwardCache]
    heads: list[list[ForwardCache]]


def build_model(arch: ModelArchitecture, rng: RngStream) -> CoPslModel:
    """Initialize a model for the given architecture.

    Layers are drawn in layout order, so identical streams give
    bitwise-identical models.
    """
    params = np.empty(_size(arch))
    for slot in param_layout(arch):
        layer = init_layer(rng, slot.fan_in, slot.fan_out, slot.activation)
        params[slot.weights] = layer.weights.ravel()
        params[slot.biases] = layer.biases
    return CoPslModel(arch=arch, params=params)


def _check_preferences(prefs: np.ndarray, num_objectives: int) -> np.ndarray:
    p = np.asarray(prefs, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] != num_objectives:
        raise InputError(f"expected preferences of shape (batch, {num_objectives}), got {p.shape}")
    if (p < 0.0).any():
        raise InputError("preference components must be nonnegative")
    if np.abs(p.sum(axis=1) - 1.0).max() > SIMPLEX_TOLERANCE:
        raise InputError("preference rows must sum to 1")
    return p


def forward_all(model: CoPslModel, preferences) -> tuple[list[np.ndarray], ForwardCaches]:
    """Run a batch of preference vectors through the trunk and every head.

    Returns one (batch, n_i) matrix of unit-cube outputs per problem plus the
    caches required by :func:`backward_all`.
    """
    x = _check_preferences(preferences, model.arch.num_objectives)
    trunk_caches: list[ForwardCache] = []
    for layer in model.trunk:
        x, cache = layer_forward(layer, x)
        trunk_caches.append(cache)
    outputs: list[np.ndarray] = []
    head_caches: list[list[ForwardCache]] = []
    for head in model.heads:
        h = x
        caches: list[ForwardCache] = []
        for layer in head:
            h, cache = layer_forward(layer, h)
            caches.append(cache)
        outputs.append(h)
        head_caches.append(caches)
    return outputs, ForwardCaches(trunk=trunk_caches, heads=head_caches)


def backward_all(model: CoPslModel, caches: ForwardCaches, output_grads, weights) -> np.ndarray:
    """Route gradients: own loss per head, weighted sum into the trunk.

    ``output_grads[i]`` is dL_i/d(head-i output). Returns one flat vector laid
    out like ``model.params``: head i's part is exactly the backpropagation of
    L_i, the trunk's part the backpropagation of sum_i w_i L_i.
    """
    arch = model.arch
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (arch.num_mops,):
        raise InputError(f"expected {arch.num_mops} weights, got shape {w.shape}")
    if (w < 0.0).any() or not np.isfinite(w).all():
        raise InputError("weights must be finite and nonnegative")
    if len(output_grads) != arch.num_mops:
        raise InternalError(f"expected {arch.num_mops} output gradients, got {len(output_grads)}")

    grads = np.empty_like(model.params)
    trunk_views, head_views = _trunk_and_heads(arch, _layer_views(arch, grads))
    trunk_upstream: np.ndarray | None = None
    for i, head in enumerate(model.heads):
        upstream = np.asarray(output_grads[i], dtype=np.float64)
        for layer, cache, (gw, gb) in zip(reversed(head), reversed(caches.heads[i]), reversed(head_views[i])):
            if upstream.shape != cache.pre_activation.shape:
                raise InternalError(
                    f"gradient shape {upstream.shape} does not match head {i} cache"
                )
            gw[...], gb[...], upstream = layer_backward(layer, cache, upstream)
        contribution = w[i] * upstream
        trunk_upstream = contribution if trunk_upstream is None else trunk_upstream + contribution

    upstream = trunk_upstream
    for layer, cache, (gw, gb) in zip(reversed(model.trunk), reversed(caches.trunk), reversed(trunk_views)):
        gw[...], gb[...], upstream = layer_backward(layer, cache, upstream)
    return grads


# ---------------------------------------------------------------------------
# Parameter bookkeeping
# ---------------------------------------------------------------------------


def parameter_arrays(model: CoPslModel) -> list[np.ndarray]:
    """Every layer's weights and biases, in layout order, as views into ``model.params``."""
    return [a for pair in _layer_views(model.arch, model.params) for a in pair]


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


def _require_finite(arch: ModelArchitecture, params: np.ndarray, context: str) -> None:
    bad = nonfinite_layers(arch, params)
    if bad:
        raise CheckpointError(f"{context} non-finite parameters in {bad[0].describe()}")


def save_checkpoint(model: CoPslModel, path: str, metadata: dict | None = None) -> None:
    """Write a self-describing checkpoint.

    Layout: one JSON header line (format name, version, architecture,
    optional metadata), then ``model.params`` as raw little-endian float64.
    Refuses, with :class:`CheckpointError`, parameters that are not finite.
    """
    _require_finite(model.arch, model.params, f"refusing to write {path!r}: model has")
    header = {
        "format": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "architecture": model.arch.to_dict(),
        "metadata": metadata or {},
    }
    body = model.params.astype("<f8", copy=False).tobytes()
    atomic_write_bytes(path, json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + body)


def load_checkpoint(path: str, expected_objectives: int | None = None) -> tuple[CoPslModel, dict]:
    """Read a checkpoint back; returns the model and the stored metadata.

    Raises :class:`CheckpointError`, naming the first offending layer, for a
    body that holds NaN or +-inf.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    newline = raw.find(b"\n")
    if newline < 0:
        raise CheckpointError("checkpoint has no header line")
    try:
        header = json.loads(raw[:newline].decode("utf-8"))
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
    if expected_objectives is not None and arch.num_objectives != expected_objectives:
        raise CheckpointError(
            f"checkpoint has {arch.num_objectives} objectives, expected {expected_objectives}"
        )

    expected_bytes = 8 * _size(arch)
    body = raw[newline + 1 :]
    if len(body) != expected_bytes:
        raise CheckpointError(
            f"checkpoint body has {len(body)} bytes, expected {expected_bytes} (truncated or padded)"
        )
    params = np.frombuffer(body, dtype="<f8").astype(np.float64)
    _require_finite(arch, params, f"checkpoint {path!r} holds")
    return CoPslModel(arch=arch, params=params), header.get("metadata", {})
