import math

import numpy as np
import pytest

from copsl.model import ModelArchitecture, build_model, param_layout
from copsl.optim import CHUNK, adam_step, init_adam_state
from copsl.sampling import RngStream


def tiny_model(seed=0):
    arch = ModelArchitecture(2, (4,), 1, (3,))
    return build_model(arch, RngStream(seed))


def grads_like(model, fill=0.0):
    return np.full_like(model.params, fill)


def trunk_weights(model):
    return param_layout(model.arch)[0].weights


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        model = tiny_model()
        before = model.params.copy()
        state = init_adam_state(model.params)
        adam_step(model.params, grads_like(model, 0.0), state, 1e-3)
        assert np.array_equal(before, model.params)

    def test_first_step_magnitude_is_learning_rate(self):
        # With g = 1 everywhere, bias correction gives m_hat = 1, v_hat = 1,
        # so the first update is lr / (1 + eps) for every entry.
        model = tiny_model()
        before = model.params.copy()
        state = init_adam_state(model.params)
        lr = 1e-3
        adam_step(model.params, grads_like(model, 1.0), state, lr)
        assert np.allclose(before - model.params, lr, rtol=1e-6)
        assert state.step == 1

    def test_state_evolves_between_calls(self):
        # The same (params, grads, lr) stepped with a fresh state and with an
        # already-advanced state give different results: the moments carry
        # history.
        start = tiny_model().params
        from_fresh = start.copy()
        fresh = init_adam_state(from_fresh)
        adam_step(from_fresh, np.full_like(start, 0.5), fresh, 1e-3)

        from_warmed = start.copy()
        warmed = init_adam_state(from_warmed)
        adam_step(start.copy(), np.full_like(start, -2.0), warmed, 1e-3)
        adam_step(from_warmed, np.full_like(start, 0.5), warmed, 1e-3)
        assert warmed.step == 2
        assert not np.array_equal(from_fresh, from_warmed)

    def test_updates_show_through_layer_views(self):
        model = tiny_model()
        layer = param_layout(model.arch)[0]
        weights, _ = layer.views(model.params)
        before = weights.copy()
        state = init_adam_state(model.params)
        adam_step(model.params, grads_like(model, 1.0), state, 1e-3)
        assert param_layout(model.arch)[0] is layer
        assert not np.array_equal(weights, before)
        assert np.array_equal(weights.ravel(), model.params[trunk_weights(model)])

    def test_rejects_misshaped_gradient(self):
        from copsl.errors import InternalError

        model = tiny_model()
        state = init_adam_state(model.params)
        with pytest.raises(InternalError):
            adam_step(model.params, np.zeros(model.params.size - 1), state, 1e-3)

    def test_chunked_update_equals_whole_vector_formula(self):
        rng = RngStream(4)
        size = 2 * CHUNK + 7
        params = rng.standard_normal(size)
        reference = params.copy()
        state = init_adam_state(params)
        m = np.zeros(size)
        v = np.zeros(size)
        lr, beta1, beta2, eps = 1e-3, 0.9, 0.999, 1e-8
        for t in (1, 2, 3):
            g = rng.standard_normal(size)
            adam_step(params, g, state, lr)
            m = beta1 * m + (1.0 - beta1) * g
            v = beta2 * v + (1.0 - beta2) * g * g
            correction = math.sqrt(1.0 - beta2**t)
            step_size = lr * correction / (1.0 - beta1**t)
            reference = reference - step_size * m / (np.sqrt(v) + eps * correction)
        assert np.array_equal(params, reference)

    def test_folded_update_tracks_textbook_formula(self):
        # From t = 356 on, 1 - beta1^t rounds to exactly 1; 400 steps go past it.
        # Gradient scales down to 1e-10 put sqrt(v_hat) below epsilon, so
        # the folded epsilon_hat matters as much as the folded step size.
        rng = RngStream(5)
        size = 4096
        params = rng.uniform(1.0, 2.0, size)
        reference = params.copy()
        scale = 10.0 ** rng.uniform(-10.0, 0.0, size)
        state = init_adam_state(params)
        m = np.zeros(size)
        v = np.zeros(size)
        lr, beta1, beta2, eps = 1e-3, 0.9, 0.999, 1e-8
        for t in range(1, 401):
            g = scale * rng.standard_normal(size)
            adam_step(params, g, state, lr)
            m = beta1 * m + (1.0 - beta1) * g
            v = beta2 * v + (1.0 - beta2) * g * g
            reference -= lr * (m / (1.0 - beta1**t)) / (np.sqrt(v / (1.0 - beta2**t)) + eps)
        assert state.step == 400
        assert np.abs(params - reference).max() <= 1e-10 * np.abs(reference).min()

    def test_deterministic(self):
        results = []
        for _ in range(2):
            model = tiny_model(3)
            state = init_adam_state(model.params)
            adam_step(model.params, grads_like(model, 0.25), state, 1e-3)
            results.append(model.params)
        assert np.array_equal(*results)

    def test_hand_evaluated_recurrence_two_steps(self):
        # Scalar Adam with g = (1, then 0.5), lr = 0.1, defaults.
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        lr = 0.1
        p = 1.0
        m = v = 0.0
        for t, g in ((1, 1.0), (2, 0.5)):
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g * g
            m_hat = m / (1 - beta1**t)
            v_hat = v / (1 - beta2**t)
            p -= lr * m_hat / (np.sqrt(v_hat) + eps)
        model = tiny_model()
        # Zero out everything except one scalar to mirror the recurrence.
        model.params[...] = 0.0
        weights, _ = param_layout(model.arch)[0].views(model.params)
        weights[0, 0] = 1.0
        state = init_adam_state(model.params)
        g1 = grads_like(model, 0.0)
        g1[0] = 1.0
        adam_step(model.params, g1, state, lr)
        g2 = grads_like(model, 0.0)
        g2[0] = 0.5
        adam_step(model.params, g2, state, lr)
        assert weights[0, 0] == pytest.approx(p, rel=1e-12)
