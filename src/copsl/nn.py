"""Dense-layer primitives with exact forward and backward passes.

All arithmetic is float64. A layer is validated once, when it is built, and
holds its arrays by reference: a model's layers are views into its flat
parameter vector, so an in-place optimizer step shows through them without
rebuilding any layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .sampling import RngStream

ACTIVATIONS = ("relu", "sigmoid", "linear")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Split by sign to stay overflow-free for large |z|.
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass(frozen=True)
class DenseLayer:
    """Fully connected layer computing activation(x @ weights.T + biases).

    ``weights`` has shape (fan_out, fan_in), ``biases`` shape (fan_out,).
    """

    weights: np.ndarray
    biases: np.ndarray
    activation: str

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        b = np.asarray(self.biases, dtype=np.float64)
        if w.ndim != 2 or b.ndim != 1:
            raise ConfigurationError(
                f"weights must be 2-d and biases 1-d, got {w.shape} and {b.shape}"
            )
        if w.shape[0] != b.shape[0]:
            raise ConfigurationError(
                f"weights rows ({w.shape[0]}) and biases length ({b.shape[0]}) disagree"
            )
        if self.activation not in ACTIVATIONS:
            raise ConfigurationError(
                f"unknown activation {self.activation!r}, expected one of {ACTIVATIONS}"
            )
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ConfigurationError("layer parameters must be finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "biases", b)

    @property
    def fan_in(self) -> int:
        return self.weights.shape[1]

    @property
    def fan_out(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class ForwardCache:
    """Values retained by a forward pass for the matching backward pass."""

    inputs: np.ndarray
    pre_activation: np.ndarray


def layer_forward(layer: DenseLayer, inputs: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Apply the layer to a batch of rows.

    ``inputs`` has shape (batch, fan_in); returns the activated output of
    shape (batch, fan_out) plus the cache needed by :func:`layer_backward`.
    """
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != layer.fan_in:
        raise ConfigurationError(
            f"expected input of shape (batch, {layer.fan_in}), got {x.shape}"
        )
    pre = x @ layer.weights.T + layer.biases
    if layer.activation == "relu":
        out = np.maximum(pre, 0.0)
    elif layer.activation == "sigmoid":
        out = _sigmoid(pre)
    else:
        out = pre
    return out, ForwardCache(inputs=x, pre_activation=pre)


def layer_backward(
    layer: DenseLayer, cache: ForwardCache, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backpropagate ``upstream = dL/d(output)`` through the layer.

    Returns (d_weights, d_biases, d_inputs). The rectifier subgradient at
    exactly zero pre-activation is taken as zero.
    """
    g = np.asarray(upstream, dtype=np.float64)
    pre = cache.pre_activation
    if g.shape != pre.shape:
        raise ConfigurationError(
            f"upstream shape {g.shape} does not match pre-activation {pre.shape}"
        )
    if cache.inputs.shape[1] != layer.fan_in:
        raise ConfigurationError("cache does not belong to this layer")
    if layer.activation == "relu":
        delta = np.where(pre > 0.0, g, 0.0)
    elif layer.activation == "sigmoid":
        s = _sigmoid(pre)
        delta = g * s * (1.0 - s)
    else:
        delta = g
    d_weights = delta.T @ cache.inputs
    d_biases = delta.sum(axis=0)
    d_inputs = delta @ layer.weights
    return d_weights, d_biases, d_inputs


def init_layer(rng: RngStream, fan_in: int, fan_out: int, activation: str) -> DenseLayer:
    """Create a layer with weights and biases uniform on +-1/sqrt(fan_in)."""
    if fan_in < 1 or fan_out < 1:
        raise ConfigurationError(f"layer dimensions must be >= 1, got {fan_in}x{fan_out}")
    bound = 1.0 / math.sqrt(fan_in)
    weights = rng.uniform(-bound, bound, (fan_out, fan_in))
    biases = rng.uniform(-bound, bound, fan_out)
    return DenseLayer(weights=weights, biases=biases, activation=activation)
