"""Preference-conditioned scalarization losses and their gradients.

Four reductions of an objective vector F to a training scalar, each returning
the loss value together with its gradient with respect to F:

    ls      linear scalarization          sum_j p_j F_j
    cosmos  ls plus a cosine-similarity term between p and F
    tch     weighted worst-case deviation from the running ideal point
    mtch    the same with reciprocal preference weights

The ideal point z* is the componentwise minimum of all objective vectors
observed so far for a problem; the epsilon shift keeps tch/mtch strictly
positive even when F touches z*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputError, InternalError
from .sampling import MIN_PREFERENCE

LOSS_KINDS = ("ls", "cosmos", "tch", "mtch")


@dataclass(frozen=True)
class LossSpec:
    """Which scalarization to use, with its hyperparameters.

    ``cosine_sign`` controls whether the cosine term is added (+1) or
    subtracted (-1). Subtracting rewards alignment between the preference and
    the objective vector and is the default; both behaviors are available.
    """

    kind: str
    gamma: float = 100.0
    epsilon: float = 1e-3
    cosine_sign: int = -1

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ConfigurationError(f"unknown loss kind {self.kind!r}, expected one of {LOSS_KINDS}")
        if self.kind == "cosmos" and not self.gamma > 0.0:
            raise ConfigurationError(f"cosmos penalty gamma must be positive, got {self.gamma}")
        if self.kind in ("tch", "mtch") and not self.epsilon > 0.0:
            raise ConfigurationError(f"epsilon must be positive, got {self.epsilon}")
        if self.cosine_sign not in (-1, 1):
            raise ConfigurationError(f"cosine_sign must be +1 or -1, got {self.cosine_sign}")


class IdealPointTracker:
    """Running componentwise minimum of observed objective vectors per MOP.

    Starts at +inf sentinels; the first observation replaces them. Updates are
    monotone, so z* never increases in any component.
    """

    def __init__(self, num_mops: int, num_objectives: int):
        self._z = np.full((num_mops, num_objectives), np.inf, dtype=np.float64)

    def update(self, mop_index: int, objectives) -> None:
        f = np.atleast_2d(np.asarray(objectives, dtype=np.float64))
        if not np.isfinite(f).all():
            raise InputError("ideal-point update requires finite objective values")
        self._z[mop_index] = np.minimum(self._z[mop_index], f.min(axis=0))

    def ideal(self, mop_index: int) -> np.ndarray:
        return self._z[mop_index].copy()


def _as_batch(objectives, preferences):
    f = np.asarray(objectives, dtype=np.float64)
    p = np.asarray(preferences, dtype=np.float64)
    single = f.ndim == 1
    f = np.atleast_2d(f)
    p = np.atleast_2d(p)
    if f.shape != p.shape:
        raise InputError(f"objective shape {f.shape} does not match preference shape {p.shape}")
    return f, p, single


def _unbatch(values, grads, single):
    if single:
        return float(values[0]), grads[0]
    return values, grads


def loss_ls(objectives, preferences):
    """Linear scalarization: value sum_j p_j F_j, gradient p."""
    f, p, single = _as_batch(objectives, preferences)
    values = (p * f).sum(axis=1)
    return _unbatch(values, p.copy(), single)


def loss_cosmos(objectives, preferences, gamma: float, sign: int = -1):
    """Linear scalarization plus a signed cosine-similarity term.

    value = sum_j p_j F_j + sign * gamma * cos(p, F). A zero-norm F makes the
    cosine direction degenerate; the term and its gradient are defined as 0
    there.
    """
    if sign not in (-1, 1):
        raise InputError(f"sign must be +1 or -1, got {sign}")
    f, p, single = _as_batch(objectives, preferences)
    dot = (p * f).sum(axis=1)
    norm_p = np.linalg.norm(p, axis=1)
    norm_f = np.linalg.norm(f, axis=1)
    ok = norm_f > 0.0
    denom = np.where(ok, norm_p * norm_f, 1.0)
    safe_norm_f = np.where(ok, norm_f, 1.0)
    cos = np.where(ok, dot / denom, 0.0)
    values = dot + sign * gamma * cos
    # d cos / dF = p / (|p||F|) - (p.F) F / (|p||F|^3)
    cos_grad = p / denom[:, None] - (dot / (denom * safe_norm_f**2))[:, None] * f
    grads = p + sign * gamma * np.where(ok[:, None], cos_grad, 0.0)
    return _unbatch(values, grads, single)


def _tch_core(objectives, preferences, ideal, epsilon, reciprocal: bool):
    f, p, single = _as_batch(objectives, preferences)
    z = np.asarray(ideal, dtype=np.float64)
    if z.shape != (f.shape[1],):
        raise InputError(f"ideal point must have length {f.shape[1]}")
    if not epsilon > 0.0:
        raise InputError(f"epsilon must be positive, got {epsilon}")
    if reciprocal:
        if (p < MIN_PREFERENCE).any():
            raise InputError(
                f"mtch needs every preference component >= {MIN_PREFERENCE}"
            )
        weights = 1.0 / p
    else:
        weights = p
    terms = weights * (f - (z - epsilon))
    best = terms.argmax(axis=1)  # argmax takes the lowest index on ties
    rows = np.arange(f.shape[0])
    values = terms[rows, best]
    grads = np.zeros_like(f)
    grads[rows, best] = weights[rows, best]
    return _unbatch(values, grads, single)


def loss_tch(objectives, preferences, ideal, epsilon: float):
    """Tchebycheff loss: max_j p_j (F_j - (z*_j - eps)), one-hot gradient."""
    return _tch_core(objectives, preferences, ideal, epsilon, reciprocal=False)


def loss_mtch(objectives, preferences, ideal, epsilon: float):
    """Modified Tchebycheff loss: max_j (1/p_j) (F_j - (z*_j - eps))."""
    return _tch_core(objectives, preferences, ideal, epsilon, reciprocal=True)


def chain_to_decision(objective_grads, jacobians, box_derivatives) -> np.ndarray:
    """Pull a gradient in objective space back to the unit-cube outputs.

    Computes (J^T g) * box_derivative elementwise, for a single sample
    ((m,), (m, n), (n,)) or a batch ((B, m), (B, m, n), (B, n)).
    """
    g = np.asarray(objective_grads, dtype=np.float64)
    jac = np.asarray(jacobians, dtype=np.float64)
    box = np.asarray(box_derivatives, dtype=np.float64)
    single = g.ndim == 1
    g = np.atleast_2d(g)
    box = np.atleast_2d(box)
    if jac.ndim == 2:
        jac = jac[None, :, :]
    if jac.shape[0] != g.shape[0] or jac.shape[1] != g.shape[1] or jac.shape[2] != box.shape[1]:
        raise InternalError(
            f"gradient {g.shape}, jacobian {jac.shape}, and box derivative {box.shape} disagree"
        )
    pulled = np.einsum("bmn,bm->bn", jac, g) * box
    return pulled[0] if single else pulled


def batch_loss(spec: LossSpec, objectives, preferences, ideal=None):
    """Mean loss over a batch plus per-sample gradients carrying the 1/B factor.

    Returns (value, grads) where value = mean_b loss(F_b | p_b) and
    grads[b] = d value / d F_b, so summing backpropagated sample gradients
    yields the gradient of the mean directly.
    """
    f = np.asarray(objectives, dtype=np.float64)
    if f.ndim != 2 or f.shape[0] == 0:
        raise InputError("batch_loss needs a nonempty (B, m) objective matrix")
    if spec.kind == "ls":
        values, grads = loss_ls(f, preferences)
    elif spec.kind == "cosmos":
        values, grads = loss_cosmos(f, preferences, spec.gamma, spec.cosine_sign)
    elif spec.kind == "tch":
        if ideal is None:
            raise InputError("tch needs the tracked ideal point")
        values, grads = loss_tch(f, preferences, ideal, spec.epsilon)
    else:
        if ideal is None:
            raise InputError("mtch needs the tracked ideal point")
        values, grads = loss_mtch(f, preferences, ideal, spec.epsilon)
    batch = f.shape[0]
    return float(values.mean()), grads / batch


def total_loss(mop_losses, weights) -> float:
    """Weighted sum of per-MOP losses."""
    losses = np.asarray(mop_losses, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if losses.shape != w.shape:
        raise InputError(f"{losses.shape[0]} losses but {w.shape[0]} weights")
    if (w < 0.0).any():
        raise InputError("MOP weights must be nonnegative")
    return float(np.dot(w, losses))
