"""Adam with bias correction, updating a flat parameter vector in place."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalError

# Elements per pass of the update: 256 KiB of float64, so its temporaries
# stay cache-sized instead of adding whole-vector copies to peak memory.
CHUNK = 1 << 15


@dataclass
class AdamState:
    """First/second moment vectors laid out like the parameter vector."""

    beta1: float
    beta2: float
    epsilon: float
    step: int
    first_moment: np.ndarray
    second_moment: np.ndarray


def init_adam_state(
    params: np.ndarray, beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8
) -> AdamState:
    return AdamState(
        beta1=beta1,
        beta2=beta2,
        epsilon=epsilon,
        step=0,
        first_moment=np.zeros_like(params),
        second_moment=np.zeros_like(params),
    )


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState, learning_rate: float) -> None:
    """One bias-corrected Adam update of ``params``, the state advanced in place.

    The update is elementwise, so it runs over cache-sized chunks: the
    temporaries stay small and the result is the same, bit for bit. The
    learning rate is the one :meth:`RunConfig.validate` checked.
    """
    if grads.shape != params.shape:
        raise InternalError(f"gradient shape {grads.shape} does not match parameters {params.shape}")
    t = state.step + 1
    bias1 = 1.0 - state.beta1**t
    bias2 = 1.0 - state.beta2**t
    for start in range(0, params.size, CHUNK):
        part = slice(start, start + CHUNK)
        p, g, m, v = params[part], grads[part], state.first_moment[part], state.second_moment[part]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p -= learning_rate * (m / bias1) / (np.sqrt(v / bias2) + state.epsilon)
    state.step = t
