"""Preference-conditioned scalarization losses and their gradients, on batches.

:func:`batch_loss` reduces each row F of a (B, m) objective batch to a
training scalar, by one of four kinds that :class:`LossSpec` selects:

    ls      linear scalarization          sum_j p_j F_j
    cosmos  ls plus a cosine-similarity term between p and F
    tch     weighted worst-case deviation from the running ideal point
    mtch    the same with reciprocal preference weights

The ideal point z* is the componentwise minimum of all objective vectors
observed so far for a problem; the epsilon shift keeps tch/mtch strictly
positive even when F touches z*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputError, InternalError

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
        for name in ("gamma", "epsilon"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite, got {getattr(self, name)}")
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


def _linear(spec: LossSpec, f, p, z):
    """Linear scalarization: value sum_j p_j F_j, gradient p."""
    return (p * f).sum(axis=1), p


def _cosmos(spec: LossSpec, f, p, z):
    """Linear scalarization plus sign * gamma * cos(p, F).

    A zero-norm F makes the cosine direction degenerate; the term and its
    gradient are defined as 0 there.
    """
    dot = (p * f).sum(axis=1)
    norm_p = np.linalg.norm(p, axis=1)
    norm_f = np.linalg.norm(f, axis=1)
    ok = norm_f > 0.0
    denom = np.where(ok, norm_p * norm_f, 1.0)
    safe_norm_f = np.where(ok, norm_f, 1.0)
    cos = np.where(ok, dot / denom, 0.0)
    values = dot + spec.cosine_sign * spec.gamma * cos
    # d cos / dF = p / (|p||F|) - (p.F) F / (|p||F|^3)
    cos_grad = p / denom[:, None] - (dot / (denom * safe_norm_f**2))[:, None] * f
    grads = p + spec.cosine_sign * spec.gamma * np.where(ok[:, None], cos_grad, 0.0)
    return values, grads


def _tch(spec: LossSpec, f, weights, z):
    """Tchebycheff loss: max_j w_j (F_j - (z*_j - eps)) with w = p, one-hot gradient."""
    terms = weights * (f - (z - spec.epsilon))
    best = terms.argmax(axis=1)  # argmax takes the lowest index on ties
    rows = np.arange(f.shape[0])
    grads = np.zeros_like(f)
    grads[rows, best] = weights[rows, best]
    return terms[rows, best], grads


def _mtch(spec: LossSpec, f, p, z):
    """Modified Tchebycheff loss: the Tchebycheff loss with w = 1/p.

    :func:`sample_preferences` clamps every component away from zero, so
    1/p stays finite.
    """
    return _tch(spec, f, 1.0 / p, z)


# kind -> (spec, (B, m) objectives, (B, m) preferences, (m,) ideal) -> (values, grads)
_LOSSES = {"ls": _linear, "cosmos": _cosmos, "tch": _tch, "mtch": _mtch}


def chain_to_decision(objective_grads, jacobians, widths) -> np.ndarray:
    """Pull a batch of objective-space gradients back to the unit-cube outputs.

    Computes (J_b^T g_b) * widths elementwise for every row b of (B, m)
    gradients and (B, m, n) Jacobians; the (n,) box widths are the diagonal
    derivative of :func:`copsl.problems.map_unit_to_box`.
    """
    g = np.asarray(objective_grads, dtype=np.float64)
    jac = np.asarray(jacobians, dtype=np.float64)
    w = np.asarray(widths, dtype=np.float64)
    if jac.ndim != 3 or g.shape != jac.shape[:2] or w.shape != jac.shape[2:]:
        raise InternalError(f"gradient {g.shape}, jacobian {jac.shape}, and box widths {w.shape} disagree")
    return np.einsum("bmn,bm->bn", jac, g) * w


def batch_loss(spec: LossSpec, objectives, preferences, ideal):
    """Mean loss over a batch plus per-sample gradients carrying the 1/B factor.

    (B, m) objectives and preferences, B >= 1, and the (m,) ideal point, which
    ls and cosmos ignore. Returns (value, grads): value = mean_b loss(F_b | p_b)
    and grads[b] = d value / d F_b, so backpropagated rows sum to the mean's gradient.
    """
    f = np.asarray(objectives, dtype=np.float64)
    p = np.asarray(preferences, dtype=np.float64)
    z = np.asarray(ideal, dtype=np.float64)
    if f.ndim != 2 or f.shape[0] == 0:
        raise InputError("batch_loss needs a nonempty (B, m) objective matrix")
    if p.shape != f.shape:
        raise InputError(f"objective shape {f.shape} does not match preference shape {p.shape}")
    if z.shape != (f.shape[1],):
        raise InputError(f"ideal point must have length {f.shape[1]}, got shape {z.shape}")
    values, grads = _LOSSES[spec.kind](spec, f, p, z)
    return float(values.mean()), grads / f.shape[0]


def total_loss(mop_losses, weights) -> float:
    """Weighted sum of per-MOP losses, with the weights :meth:`RunConfig.check_suite` returned."""
    losses = np.asarray(mop_losses, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if losses.shape != w.shape:
        raise InputError(f"{losses.shape[0]} losses but {w.shape[0]} weights")
    return float(np.dot(w, losses))
