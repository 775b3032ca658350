"""Adam with bias correction, updating a flat parameter vector in place.

The bias correction is folded into the step, as Kingma & Ba (2015, §2, the
paragraph before §2.1) suggest: rather than dividing both moments by their
corrections element by element, each step computes one scalar step size
lr * sqrt(1 - beta2^t) / (1 - beta1^t) and one epsilon_hat =
epsilon * sqrt(1 - beta2^t), and every element pays one square root and one
division. In real arithmetic the update is the textbook one; in floating
point it differs from it in the last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalError

# Elements per pass of the update: 256 KiB of float64, so its temporaries
# stay cache-sized instead of adding whole-vector copies to peak memory.
CHUNK = 1 << 15

# The moment decays and the stability constant: Kingma & Ba's (2015) defaults.
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """The step count and the first/second moment vectors, laid out like the parameter vector."""

    step: int
    first_moment: np.ndarray
    second_moment: np.ndarray


def init_adam_state(params: np.ndarray) -> AdamState:
    return AdamState(step=0, first_moment=np.zeros_like(params), second_moment=np.zeros_like(params))


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState, learning_rate: float) -> None:
    """One bias-corrected Adam update of ``params``, the state advanced in place.

    Each element moves by step_size * m / (sqrt(v) + epsilon_hat), with the
    bias corrections folded into the two scalars (Kingma & Ba 2015, §2): the
    textbook lr * m_hat / (sqrt(v_hat) + epsilon) in real arithmetic, but not
    bit for bit. The update is elementwise, so it runs over cache-sized
    chunks: the temporaries stay small and the result is the same, bit for
    bit, as over the whole vector. The learning rate is one that the
    ``learning_rate`` rule in ``copsl.config._RULES`` checked: finite and positive.
    """
    if grads.shape != params.shape:
        raise InternalError(f"gradient shape {grads.shape} does not match parameters {params.shape}")
    t = state.step + 1
    correction = math.sqrt(1.0 - BETA2**t)
    step_size = learning_rate * correction / (1.0 - BETA1**t)
    epsilon_hat = EPSILON * correction
    for start in range(0, params.size, CHUNK):
        part = slice(start, start + CHUNK)
        p, g, m, v = params[part], grads[part], state.first_moment[part], state.second_moment[part]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        p -= step_size * m / (np.sqrt(v) + epsilon_hat)
    state.step = t
