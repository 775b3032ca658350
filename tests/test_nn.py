import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from copsl.errors import ConfigurationError
from copsl.model import CoPslModel, ModelArchitecture, build_model, param_layout
from copsl.nn import DenseLayer, _sigmoid, layer_backward, layer_forward
from copsl.sampling import RngStream

from conftest import central_difference, max_relative_error


def make_layer(weights, biases, activation):
    """A one-layer slot and the flat vector (weights, then biases) it reads."""
    w = np.array(weights, float)
    b = np.array(biases, float)
    fan_out, fan_in = w.shape
    layer = DenseLayer(None, 0, fan_in, fan_out, activation, slice(0, w.size), slice(w.size, w.size + b.size))
    return layer, np.concatenate([w.ravel(), b])


def backward(layer, params, cache, upstream):
    """(d_weights, d_biases, d_inputs), with the gradients read back from the vector they were written to."""
    grads = np.empty_like(params)
    dx = layer_backward(layer, params, cache, upstream, grads)
    return (*layer.views(grads), dx)


def random_layer(seed, fan_in, fan_out, activation):
    """Weights, then biases, uniform on +-1/sqrt(fan_in), drawn as build_model draws them."""
    rng = RngStream(seed)
    bound = 1.0 / math.sqrt(fan_in)
    return make_layer(rng.uniform(-bound, bound, (fan_out, fan_in)), rng.uniform(-bound, bound, fan_out), activation)


class TestForward:
    def test_identity_relu(self):
        layer, params = make_layer([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], "relu")
        out, _ = layer_forward(layer, params, np.array([[-1.0, 2.0]]))
        assert np.array_equal(out, [[0.0, 2.0]])

    def test_sigmoid_value(self):
        # sigma(2*0 + 1) = 1 / (1 + e^-1)
        expected = 1.0 / (1.0 + math.exp(-1.0))
        layer, params = make_layer([[2.0]], [1.0], "sigmoid")
        out, _ = layer_forward(layer, params, np.array([[0.0]]))
        assert out[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_forward_is_pure(self):
        layer, params = random_layer(5, 4, 3, "relu")
        before = params.copy()
        x = RngStream(6).standard_normal((8, 4))
        out1, _ = layer_forward(layer, params, x)
        out2, _ = layer_forward(layer, params, x)
        assert np.array_equal(out1, out2)
        assert np.array_equal(params, before)

    def test_reads_only_its_slot(self):
        # A layer placed after other entries of a longer vector computes the
        # same output as the same layer alone.
        layer, params = random_layer(7, 3, 2, "sigmoid")
        shifted = DenseLayer(0, 1, 3, 2, "sigmoid", slice(5, 11), slice(11, 13))
        padded = np.concatenate([np.full(5, np.nan), params, np.full(4, np.nan)])
        x = RngStream(8).standard_normal((4, 3))
        assert np.array_equal(layer_forward(layer, params, x)[0], layer_forward(shifted, padded, x)[0])

    def test_cache_contents(self):
        # The cache is (inputs, output): the backward pass reads the
        # activation's derivative off the output instead of recomputing it.
        layer, params = make_layer([[2.0]], [1.0], "sigmoid")
        x = np.array([[0.5]])
        out, (inputs, cached) = layer_forward(layer, params, x)
        assert np.array_equal(inputs, x)
        assert cached is out
        assert out[0, 0] == 1.0 / (1.0 + math.exp(-2.0))


def two_branch_sigmoid(z):
    """The reference: 1 / (1 + exp(-z)) where z >= 0, exp(z) / (1 + exp(z))
    elsewhere (NaN included), each branch computed on its own rows."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e308, -1e308, 5e-324, -5e-324, 745.2, -745.2]


class TestSigmoid:
    @settings(max_examples=300, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(max_dims=2, max_side=12),
            elements=st.one_of(st.sampled_from(SPECIAL), st.floats(-1e308, 1e308), st.floats(-40.0, 40.0), st.floats()),
        )
    )
    @example(np.array([SPECIAL, SPECIAL[::-1]]))
    def test_equals_two_branch_form_bytewise(self, z):
        assert _sigmoid(z).tobytes() == two_branch_sigmoid(z).tobytes()


class TestBackward:
    def test_dead_rectifier_unit(self):
        layer, params = make_layer([[1.0]], [0.0], "relu")
        _, cache = layer_forward(layer, params, np.array([[-1.0]]))
        dw, db, dx = backward(layer, params, cache, np.array([[123.0]]))
        assert np.array_equal(dx, [[0.0]])
        assert np.array_equal(dw, [[0.0]])

    def test_rectifier_at_exact_zero(self):
        layer, params = make_layer([[1.0]], [0.0], "relu")
        _, cache = layer_forward(layer, params, np.array([[0.0]]))
        _, _, dx = backward(layer, params, cache, np.array([[1.0]]))
        assert np.array_equal(dx, [[0.0]])

    def test_sigmoid_quarter_slope(self):
        layer, params = make_layer([[1.0]], [0.0], "sigmoid")
        _, cache = layer_forward(layer, params, np.array([[0.0]]))
        dw, db, dx = backward(layer, params, cache, np.array([[1.0]]))
        assert dx[0, 0] == pytest.approx(0.25)
        assert db[0] == pytest.approx(0.25)

    @pytest.mark.parametrize("activation", ["relu", "sigmoid"])
    def test_gradients_match_finite_differences(self, activation):
        layer, params = random_layer(11, 5, 4, activation)
        x = RngStream(12).standard_normal((6, 5))
        probe = RngStream(13).standard_normal((6, 4))

        def functional(vector, inputs):
            out, _ = layer_forward(layer, vector, inputs)
            return float((out * probe).sum())

        _, cache = layer_forward(layer, params, x)
        dw, db, dx = backward(layer, params, cache, probe)

        fd_params = central_difference(lambda v: functional(v, x), params.copy())
        fd_x = central_difference(lambda v: functional(params, v), x.copy())
        fd_w, fd_b = layer.views(fd_params)
        assert max_relative_error(dw, fd_w) <= 1e-5
        assert max_relative_error(db, fd_b) <= 1e-5
        assert max_relative_error(dx, fd_x) <= 1e-5


class TestInit:
    """How build_model fills a layer's slot: weights, then biases, uniform on +-1/sqrt(fan_in)."""

    @staticmethod
    def one_layer(fan_in, fan_out, seed):
        model = build_model(ModelArchitecture(fan_in, (), 0, (fan_out,)), RngStream(seed))
        return param_layout(model.arch)[0].views(model.params)

    def test_bound(self):
        weights, biases = self.one_layer(4, 64, 0)
        assert np.abs(weights).max() <= 0.5
        assert np.abs(biases).max() <= 0.5

    def test_deterministic(self):
        a = self.one_layer(8, 8, 99)
        b = self.one_layer(8, 8, 99)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_sample_mean_near_zero(self):
        # Uniform on [-0.5, 0.5] has mean 0; 1e5 draws pin the empirical
        # mean well inside 0.01.
        weights, _ = self.one_layer(4, 25000, 1)
        assert abs(weights.mean()) < 0.01

    def test_rejects_zero_dimension(self):
        with pytest.raises(ConfigurationError):
            build_model(ModelArchitecture(2, (0,), 0, (3,)), RngStream(0))

    def test_rejects_unknown_activation(self):
        for activation in ("tanh", "linear"):
            with pytest.raises(ConfigurationError, match=f"unknown activation '{activation}'"):
                make_layer([[1.0]], [0.0], activation)

    def test_rejects_nonfinite(self):
        model = build_model(ModelArchitecture(2, (), 0, (3,)), RngStream(0))
        params = model.params.copy()
        params[0] = np.inf
        with pytest.raises(ConfigurationError, match="head 0 layer 0"):
            CoPslModel(model.arch, params)
