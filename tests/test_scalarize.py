import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from copsl.errors import ConfigurationError, InputError, InternalError
from copsl.problems import get_problem, map_unit_to_box, unit_box
from copsl.sampling import RngStream
from copsl.scalarize import (
    LOSS_KINDS,
    IdealPointTracker,
    LossSpec,
    batch_loss,
    chain_to_decision,
    total_loss,
)

from conftest import central_difference, max_relative_error


def one_row(spec, f, p, z=None):
    """``batch_loss`` on the one-row batch (f, p): the row's value and gradient."""
    f = np.asarray(f, dtype=np.float64)
    z = np.zeros(f.shape[0]) if z is None else z
    value, grads = batch_loss(spec, f[None, :], np.asarray(p, dtype=np.float64)[None, :], z)
    return value, grads[0]


def cosmos(gamma):
    return LossSpec("cosmos", gamma=gamma)


class TestLinear:
    def test_dot_product(self):
        value, grad = one_row(LossSpec("ls"), [1.0, 3.0], [0.5, 0.5])
        assert value == pytest.approx(2.0)
        assert np.array_equal(grad, [0.5, 0.5])

    def test_corner_preference(self):
        value, _ = one_row(LossSpec("ls"), [4.2, -7.0], [1.0, 0.0])
        assert value == pytest.approx(4.2)

    def test_weighted(self):
        value, _ = one_row(LossSpec("ls"), [1.0, 0.5], [0.2, 0.8])
        assert value == pytest.approx(0.6)


class TestCosmos:
    def test_parallel_vectors(self):
        p = np.array([0.6, 0.4])
        value, _ = one_row(cosmos(100.0), p.copy(), p)
        assert value == pytest.approx(0.52 - 100.0)

    def test_zero_objective_degenerates_to_linear(self):
        value, grad = one_row(cosmos(10.0), np.zeros(2), [0.3, 0.7])
        assert value == pytest.approx(0.0)
        assert np.array_equal(grad, [0.3, 0.7])

    def test_gradient_matches_finite_differences(self):
        rng = RngStream(21)
        spec = cosmos(7.0)
        for _ in range(10):
            f = rng.random(3) * 2.0 + 0.2
            p = rng.random(3) + 0.1
            p /= p.sum()
            _, grad = one_row(spec, f, p)
            fd = central_difference(lambda v: one_row(spec, v, p)[0], f.copy())
            assert max_relative_error(grad, fd) <= 1e-5


class TestTchebycheff:
    def test_direct_evaluation(self):
        value, grad = one_row(LossSpec("tch", epsilon=1e-12), [1.0, 0.5], [0.2, 0.8], np.array([0.0, 0.0]))
        assert value == pytest.approx(0.4, abs=1e-9)
        assert grad[0] == 0.0
        assert grad[1] == pytest.approx(0.8)

    def test_epsilon_keeps_loss_positive(self):
        z = np.array([0.3, 0.3])
        value, _ = one_row(LossSpec("tch", epsilon=0.1), z.copy(), [0.5, 0.5], z)
        assert value == pytest.approx(0.05)
        assert value > 0.0

    def test_tie_breaks_to_lowest_index(self):
        _, grad = one_row(LossSpec("tch"), [1.0, 1.0], [0.5, 0.5], np.array([0.0, 0.0]))
        assert grad[0] > 0.0
        assert grad[1] == 0.0

    def test_scaling_preserves_argmax(self):
        f = np.array([0.9, 0.4])
        p = np.array([0.3, 0.7])
        z = np.array([0.1, 0.2])
        eps = 1e-3
        spec = LossSpec("tch", epsilon=eps)
        base, grad = one_row(spec, f, p, z)
        for c in (2.0, 10.0):
            scaled, grad_c = one_row(spec, z + c * (f - z + eps) - eps, p, z)
            assert scaled == pytest.approx(c * base)
            assert np.argmax(grad_c) == np.argmax(grad)

    def test_gradient_matches_finite_differences_away_from_ties(self):
        rng = RngStream(22)
        z = np.array([0.0, 0.1, 0.05])
        spec = LossSpec("tch")
        checked = 0
        while checked < 10:
            f = rng.random(3) + 0.2
            p = rng.random(3) + 0.1
            p /= p.sum()
            terms = p * (f - z + 1e-3)
            ranked = np.sort(terms)
            if ranked[-1] - ranked[-2] < 1e-4:
                continue
            _, grad = one_row(spec, f, p, z)
            fd = central_difference(lambda v: one_row(spec, v, p, z)[0], f.copy())
            assert max_relative_error(grad, fd) <= 1e-5
            checked += 1


class TestModifiedTchebycheff:
    def test_direct_evaluation(self):
        value, grad = one_row(LossSpec("mtch", epsilon=1e-12), [1.0, 0.5], [0.2, 0.8], np.array([0.0, 0.0]))
        assert value == pytest.approx(5.0, abs=1e-8)
        assert grad[0] == pytest.approx(5.0)
        assert grad[1] == 0.0

    def test_uniform_preference_matches_tch_argmax(self):
        f = np.array([0.8, 0.3])
        p = np.array([0.5, 0.5])
        z = np.zeros(2)
        _, g_tch = one_row(LossSpec("tch"), f, p, z)
        _, g_mtch = one_row(LossSpec("mtch"), f, p, z)
        assert np.argmax(g_tch) == np.argmax(g_mtch)

    def test_gradient_matches_finite_differences(self):
        rng = RngStream(23)
        z = np.zeros(2)
        spec = LossSpec("mtch")
        checked = 0
        while checked < 10:
            f = rng.random(2) + 0.2
            p = rng.random(2) * 0.8 + 0.1
            p /= p.sum()
            terms = (f - z + 1e-3) / p
            if abs(terms[0] - terms[1]) < 1e-4:
                continue
            _, grad = one_row(spec, f, p, z)
            fd = central_difference(lambda v: one_row(spec, v, p, z)[0], f.copy())
            assert max_relative_error(grad, fd) <= 1e-5
            checked += 1


class TestIdealTracker:
    def test_componentwise_minimum(self):
        tracker = IdealPointTracker(1, 2)
        tracker.update(0, np.array([1.0, 2.0]))
        tracker.update(0, np.array([0.5, 3.0]))
        assert np.array_equal(tracker.ideal(0), [0.5, 2.0])

    def test_first_observation_replaces_sentinel(self):
        tracker = IdealPointTracker(2, 2)
        tracker.update(1, np.array([4.0, 5.0]))
        assert np.array_equal(tracker.ideal(1), [4.0, 5.0])
        assert np.isinf(tracker.ideal(0)).all()

    def test_monotone_nonincreasing(self):
        tracker = IdealPointTracker(1, 3)
        rng = RngStream(24)
        prev = np.full(3, np.inf)
        for _ in range(50):
            tracker.update(0, rng.random((4, 3)))
            z = tracker.ideal(0)
            assert (z <= prev).all()
            prev = z

    def test_idempotent(self):
        tracker = IdealPointTracker(1, 2)
        batch = np.array([[0.2, 0.9], [0.4, 0.1]])
        tracker.update(0, batch)
        once = tracker.ideal(0)
        tracker.update(0, batch)
        assert np.array_equal(tracker.ideal(0), once)

    def test_batch_update(self):
        tracker = IdealPointTracker(1, 2)
        tracker.update(0, np.array([[1.0, 5.0], [2.0, 0.5]]))
        assert np.array_equal(tracker.ideal(0), [1.0, 0.5])

    def test_rejects_nonfinite(self):
        tracker = IdealPointTracker(1, 2)
        with pytest.raises(InputError):
            tracker.update(0, np.array([np.nan, 1.0]))


class TestChainRule:
    def test_identity_passthrough(self):
        grad = chain_to_decision(np.array([[0.3, 0.7]]), np.eye(2)[None], np.ones(2))
        assert np.array_equal(grad, [[0.3, 0.7]])

    def test_one_hot_selects_jacobian_row(self):
        jac = np.array([[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]])
        grad = chain_to_decision(np.array([[0.0, 1.0]]), jac, np.ones(3))
        assert np.array_equal(grad, [[4.0, 5.0, 6.0]])

    def test_end_to_end_finite_differences_on_zdt1(self):
        mop = get_problem("zdt1")
        bounds = unit_box(6)
        u = (RngStream(25).random(6) * 0.8 + 0.1)[None, :]
        p = np.array([[0.4, 0.6]])
        z = np.array([0.0, 0.0])
        spec = LossSpec("tch")

        def scalar(unit):
            return batch_loss(spec, mop.evaluate(map_unit_to_box(unit, bounds)), p, z)[0]

        x = map_unit_to_box(u, bounds)
        _, grad_f = batch_loss(spec, mop.evaluate(x), p, z)
        pulled = chain_to_decision(grad_f, mop.jacobian(x), bounds.widths)
        fd = central_difference(scalar, u.copy())
        assert max_relative_error(pulled, fd) <= 1e-5

    def test_shape_mismatch(self):
        with pytest.raises(InternalError):
            chain_to_decision(np.ones((1, 2)), np.ones((1, 3, 4)), np.ones(4))

    def test_rejects_single_sample(self):
        with pytest.raises(InternalError):
            chain_to_decision(np.ones(2), np.ones((2, 4)), np.ones(4))


class TestBatchLoss:
    def test_single_sample_reduces(self):
        # A one-row batch is the bare linear scalarization: value f.p, gradient p.
        f = np.array([[1.0, 3.0]])
        p = np.array([[0.5, 0.5]])
        value, grads = batch_loss(LossSpec("ls"), f, p, np.zeros(2))
        assert value == pytest.approx(float(f[0] @ p[0]))
        assert np.allclose(grads[0], p[0])

    def test_mean_matches_per_sample_recomputation(self):
        # Recompute the batch mean with explicit one-row calls and the closed form.
        spec = LossSpec("tch", epsilon=1e-3)
        rng = RngStream(27)
        f = rng.random((30, 2)) + 0.05
        p = rng.random((30, 2)) + 0.1
        p /= p.sum(axis=1, keepdims=True)
        z = np.array([0.02, 0.04])
        value, grads = batch_loss(spec, f, p, z)
        singles = [one_row(spec, f[b], p[b], z) for b in range(30)]
        closed_form = np.max(p * (f - z + 1e-3), axis=1)
        assert value == pytest.approx(sum(v for v, _ in singles) / 30.0)
        assert value == pytest.approx(closed_form.mean())
        for b in range(30):
            assert np.allclose(grads[b], singles[b][1] / 30.0)

    def test_rows_keep_their_own_preferences(self):
        f = np.array([[1.0, 3.0], [4.2, -7.0]])
        p = np.array([[0.5, 0.5], [1.0, 0.0]])
        value, grads = batch_loss(LossSpec("ls"), f, p, np.zeros(2))
        assert value == pytest.approx((2.0 + 4.2) / 2.0)
        assert np.array_equal(grads, p / 2.0)

    def test_duplicating_samples_keeps_mean(self):
        spec = LossSpec("tch", epsilon=1e-3)
        f = RngStream(26).random((8, 2)) + 0.1
        p = np.full((8, 2), 0.5)
        z = np.zeros(2)
        base, _ = batch_loss(spec, f, p, z)
        doubled, _ = batch_loss(spec, np.vstack([f, f]), np.vstack([p, p]), z)
        assert doubled == pytest.approx(base)

    def test_rejects_empty_batch(self):
        with pytest.raises(InputError):
            batch_loss(LossSpec("ls"), np.empty((0, 2)), np.empty((0, 2)), np.zeros(2))

    def test_rejects_single_sample(self):
        with pytest.raises(InputError, match="nonempty"):
            batch_loss(LossSpec("tch"), np.array([1.0, 0.5]), np.array([0.5, 0.5]), np.zeros(2))

    def test_rejects_mismatched_preferences(self):
        f = np.ones((3, 2))
        for p in (np.full(2, 0.5), np.full((2, 2), 0.5), np.full((3, 3), 1.0 / 3.0)):
            with pytest.raises(InputError, match="preference shape"):
                batch_loss(LossSpec("tch"), f, p, np.zeros(2))

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_rejects_mismatched_ideal_point(self, kind):
        # ls and cosmos ignore the ideal point, yet every kind checks its shape.
        f = np.ones((3, 2))
        p = np.full((3, 2), 0.5)
        for z in (None, np.zeros(3), np.zeros((1, 2))):
            with pytest.raises(InputError, match="ideal point"):
                batch_loss(LossSpec(kind), f, p, z)


# Hundredths keep exact zeros and exact ties (the lowest-index argmax, the
# zero-norm cosmos row) among the draws.
hundredths = st.integers(-200, 200).map(lambda k: k / 100.0)


@st.composite
def loss_batches(draw):
    batch, m = draw(st.integers(1, 8)), draw(st.integers(2, 3))
    f = draw(hnp.arrays(np.float64, (batch, m), elements=hundredths))
    p = draw(hnp.arrays(np.float64, (batch, m), elements=st.integers(1, 100).map(lambda k: k / 100.0)))
    z = draw(hnp.arrays(np.float64, (m,), elements=hundredths))
    return f, p / p.sum(axis=1, keepdims=True), z


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(LOSS_KINDS), loss_batches())
def test_batch_loss_is_the_mean_of_its_rows(kind, batch):
    spec = LossSpec(kind, gamma=7.0)
    f, p, z = batch
    value, grads = batch_loss(spec, f, p, z)
    rows = [batch_loss(spec, f[b : b + 1], p[b : b + 1], z) for b in range(f.shape[0])]
    assert value == pytest.approx(np.mean([v for v, _ in rows]))
    for b, (_, row_grads) in enumerate(rows):
        assert np.array_equal(grads[b], row_grads[0] / f.shape[0])


class TestTotalLoss:
    def test_all_one_weights(self):
        assert total_loss([1.0, 2.0, 3.0], [1.0, 1.0, 1.0]) == pytest.approx(6.0)

    def test_zero_weights(self):
        assert total_loss([5.0, 7.0], [0.0, 0.0]) == 0.0

    def test_single_problem(self):
        assert total_loss([3.5], [1.0]) == pytest.approx(3.5)

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            total_loss([1.0, 2.0], [1.0])


class TestLossSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            LossSpec("pbi")

    def test_rejects_bad_gamma(self):
        with pytest.raises(ConfigurationError):
            LossSpec("cosmos", gamma=0.0)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ConfigurationError):
            LossSpec("tch", epsilon=-1.0)

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_rejects_nonfinite_hyperparameters(self, kind):
        for name in ("gamma", "epsilon"):
            for value in (math.inf, -math.inf, math.nan):
                with pytest.raises(ConfigurationError, match=f"^{name} must be finite, got"):
                    LossSpec(kind, **{name: value})
