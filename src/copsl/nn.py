"""Dense layers as slots of a flat parameter vector, with exact forward and backward passes.

All arithmetic is float64. A layer holds no arrays: it is where its weights
and biases sit in a model's flat vector, their shapes, and its activation.
The forward and backward passes read the weights and biases from the vector
they are given, so an in-place optimizer step needs no rebuild, and a
gradient vector of the same layout gets its per-layer views the same way.
Shapes are fixed by the layout and checked once, where a model is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError

ACTIVATIONS = ("relu", "sigmoid")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic function: bit for bit 1 / (1 + exp(-z)) where z >= 0 and
    exp(z) / (1 + exp(z)) elsewhere, so exp never overflows. ``np.minimum(z, -z)``
    is -|z|, but keeps a NaN z itself, sign bit included, where ``-np.abs(z)`` flips it."""
    e = np.exp(np.minimum(z, -z))
    return np.divide(np.where(z >= 0, 1.0, e), 1.0 + e)


@dataclass(frozen=True)
class DenseLayer:
    """Fully connected layer activation(x @ W.T + b), as a slot in a flat vector.

    ``mop`` is the head's problem index, or None for a trunk layer; ``depth``
    is the layer's position within the trunk or its head. W, of shape
    (fan_out, fan_in), occupies ``weights``; b, of shape (fan_out,), follows
    in ``biases``.
    """

    mop: Optional[int]
    depth: int
    fan_in: int
    fan_out: int
    activation: str
    weights: slice
    biases: slice

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ConfigurationError(
                f"unknown activation {self.activation!r}, expected one of {ACTIVATIONS}"
            )

    @property
    def span(self) -> slice:
        """The layer's weights and biases together."""
        return slice(self.weights.start, self.biases.stop)

    def describe(self) -> str:
        return f"trunk layer {self.depth}" if self.mop is None else f"head {self.mop} layer {self.depth}"

    def views(self, vector: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (W, b) views of this layer's part of a flat vector."""
        return vector[self.weights].reshape(self.fan_out, self.fan_in), vector[self.biases]


def layer_forward(layer: DenseLayer, params: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Apply the layer, with its weights and biases read from ``params``, to a batch of rows.

    ``x`` has shape (batch, fan_in); returns the activated output of shape
    (batch, fan_out) plus the cache (inputs, output) that
    :func:`layer_backward` needs.
    """
    w, b = layer.views(params)
    pre = x @ w.T + b
    out = np.maximum(pre, 0.0) if layer.activation == "relu" else _sigmoid(pre)
    return out, (x, out)


def layer_backward(
    layer: DenseLayer, params: np.ndarray, cache: tuple, upstream: np.ndarray, grads: np.ndarray
) -> np.ndarray:
    """Backpropagate ``upstream = dL/d(output)``, of the output's shape, through the layer.

    Writes d_weights and d_biases into the layer's (W, b) views of
    ``grads``, a flat vector laid out like ``params``, and returns d_inputs.
    Both activations' derivatives are read off the cached output: the
    rectifier passes ``upstream`` where it is positive (its subgradient at
    exactly zero is taken as zero), and the sigmoid's slope is s * (1 - s).
    """
    x, out = cache
    if layer.activation == "relu":
        delta = np.where(out > 0.0, upstream, 0.0)
    else:
        delta = upstream * out * (1.0 - out)
    w, _ = layer.views(params)
    gw, gb = layer.views(grads)
    np.matmul(delta.T, x, out=gw)
    delta.sum(axis=0, out=gb)
    return delta @ w
