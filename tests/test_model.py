import json
import os

import numpy as np
import pytest

from copsl.errors import CheckpointError, ConfigurationError, InputError, InternalError
from copsl.model import (
    CoPslModel,
    ModelArchitecture,
    backward_all,
    build_model,
    count_flops,
    count_params,
    forward_all,
    layer_groups,
    load_checkpoint,
    param_layout,
    parameter_arrays,
    predict,
    save_checkpoint,
)
from copsl.nn import layer_backward, layer_forward
from copsl.sampling import RngStream, sample_preferences


def simplex_batch(seed, m, batch):
    return sample_preferences(RngStream(seed), (1.0,) * m, batch)


def trunk_and_heads(arch):
    """The trunk's layers and each head's, by :func:`layer_groups`."""
    layout = param_layout(arch)
    trunk, heads = layer_groups(arch)
    return [layout[k] for k in trunk], [[layout[k] for k in head] for head in heads]


class TestArchitecture:
    def test_paper_style_split(self):
        arch = ModelArchitecture(2, (256, 256), 1, (6,) * 6)
        model = build_model(arch, RngStream(0))
        trunk, heads = trunk_and_heads(arch)
        assert len(trunk) == 1
        assert trunk[0].views(model.params)[0].shape == (256, 2)
        assert len(heads) == 6
        for head in heads:
            assert [l.views(model.params)[0].shape for l in head] == [(256, 256), (6, 256)]
            assert [l.activation for l in head] == ["relu", "sigmoid"]

    def test_unshared_single_head_is_flat_network(self):
        arch = ModelArchitecture(2, (256, 256), 0, (6,))
        model = build_model(arch, RngStream(0))
        trunk, heads = trunk_and_heads(arch)
        assert trunk == []
        shapes = [l.views(model.params)[0].shape for l in heads[0]]
        assert shapes == [(256, 2), (256, 256), (6, 256)]

    def test_fully_shared_trunk(self):
        arch = ModelArchitecture(2, (180, 180, 180), 3, (6, 6))
        trunk, heads = trunk_and_heads(arch)
        assert len(trunk) == 3
        for head in heads:
            assert len(head) == 1
            assert head[0].activation == "sigmoid"

    def test_sharing_one_layer_drops_k_minus_1_copies(self):
        # Sharing the first hidden layer of width h removes (K - 1) copies of
        # its m*h weights and h biases.
        separate, shared = [
            count_params(build_model(ModelArchitecture(2, (64, 64), depth, (5,) * 3), RngStream(0)))
            for depth in (0, 1)
        ]
        assert separate - shared == (3 - 1) * (2 * 64 + 64)

    def test_nonfinite_params_rejected_naming_the_layer(self):
        arch = ModelArchitecture(2, (8, 8), 1, (4, 5))
        model = build_model(arch, RngStream(0))
        for layer in param_layout(arch):
            for index, value in ((layer.weights.start, np.nan), (layer.biases.stop - 1, -np.inf)):
                params = model.params.copy()
                params[index] = value
                with pytest.raises(ConfigurationError, match=f"non-finite parameters in {layer.describe()}$"):
                    CoPslModel(arch, params)

    def test_invariant_violations(self):
        with pytest.raises(ConfigurationError):
            ModelArchitecture(1, (8,), 0, (3,))
        with pytest.raises(ConfigurationError):
            ModelArchitecture(2, (8,), 2, (3,))
        with pytest.raises(ConfigurationError):
            ModelArchitecture(2, (8,), 0, ())
        with pytest.raises(ConfigurationError):
            ModelArchitecture(2, (0,), 0, (3,))


class TestForward:
    def test_identical_heads_give_identical_outputs(self):
        arch = ModelArchitecture(2, (16, 16), 1, (4, 4))
        model = build_model(arch, RngStream(1))
        params = model.params.copy()
        head0 = [s for s in param_layout(arch) if s.mop == 0]
        head1 = [s for s in param_layout(arch) if s.mop == 1]
        for a, b in zip(head0, head1):
            params[b.weights] = params[a.weights]
            params[b.biases] = params[a.biases]
        tied = CoPslModel(arch=arch, params=params)
        outputs, _ = forward_all(tied, simplex_batch(2, 2, 7))
        assert np.array_equal(outputs[0], outputs[1])

    def test_outputs_strictly_inside_unit_interval(self):
        arch = ModelArchitecture(3, (8,), 1, (5, 5))
        model = build_model(arch, RngStream(3))
        outputs, _ = forward_all(model, simplex_batch(4, 3, 32))
        for out in outputs:
            assert (out > 0.0).all() and (out < 1.0).all()

    def test_batch_and_head_shapes(self):
        arch = ModelArchitecture(2, (256, 256), 1, (6,) * 6)
        model = build_model(arch, RngStream(5))
        outputs, _ = forward_all(model, simplex_batch(6, 2, 15))
        assert len(outputs) == 6
        assert all(out.shape == (15, 6) for out in outputs)

    def test_rejects_non_simplex_rows(self):
        arch = ModelArchitecture(2, (8,), 1, (3,))
        model = build_model(arch, RngStream(7))
        with pytest.raises(InputError, match="sum to 1"):
            predict(model, np.array([[0.7, 0.7]]))
        with pytest.raises(InputError, match="nonnegative"):
            predict(model, np.array([[-0.1, 1.1]]))

    @pytest.mark.parametrize("row", [[np.nan, 0.5], [0.5, np.nan], [np.inf, 0.0], [-np.inf, 1.0]])
    def test_rejects_nonfinite_rows(self, row):
        model = build_model(ModelArchitecture(2, (8,), 1, (3,)), RngStream(7))
        with pytest.raises(InputError, match="preference components must be finite"):
            predict(model, np.array([[0.5, 0.5], row]))

    def test_single_head_equals_flat_network_bitwise(self):
        arch = ModelArchitecture(2, (16, 16), 2, (4,))
        model = build_model(arch, RngStream(8))
        prefs = simplex_batch(9, 2, 5)
        outputs, _ = forward_all(model, prefs)
        h = prefs
        trunk, heads = trunk_and_heads(arch)
        for layer in trunk + heads[0]:
            h, _ = layer_forward(layer, model.params, h)
        assert np.array_equal(outputs[0], h)

    def test_predict_leaves_grid_unchanged_and_equals_forward_all_bitwise(self):
        # Each layer writes its output over its own pre-activation, never
        # over its input, so the caller's grid survives and predict's
        # outputs are forward_all's, byte for byte.
        model = build_model(ModelArchitecture(2, (16, 16), 1, (4, 5)), RngStream(10))
        grid = simplex_batch(11, 2, 40)
        before = grid.copy()
        predicted = predict(model, grid)
        assert grid.tobytes() == before.tobytes()
        outputs, _ = forward_all(model, before)
        assert [out.tobytes() for out in predicted] == [out.tobytes() for out in outputs]


class TestBackwardRouting:
    def setup_method(self):
        self.arch = ModelArchitecture(2, (8, 8), 1, (4, 4))
        self.model = build_model(self.arch, RngStream(10))
        self.prefs = simplex_batch(11, 2, 6)
        self.outputs, self.caches = forward_all(self.model, self.prefs)
        rng = RngStream(12)
        self.grads_out = [rng.standard_normal(o.shape) for o in self.outputs]

    def run_backward(self, weights):
        return backward_all(self.model, self.caches, self.grads_out, np.array(weights))

    def test_single_mop_weight_one_is_plain_backprop(self):
        arch = ModelArchitecture(2, (8,), 1, (4,))
        model = build_model(arch, RngStream(13))
        prefs = simplex_batch(14, 2, 3)
        outputs, caches = forward_all(model, prefs)
        g = [RngStream(15).standard_normal(outputs[0].shape)]
        routed = backward_all(model, caches, g, np.array([1.0]))
        # Reference: plain backprop through the flat layer list, whose caches
        # forward_all returns in layout order.
        trunk, heads = trunk_and_heads(arch)
        layers = trunk + heads[0]
        assert layers == list(param_layout(arch))
        upstream = g[0]
        reference = np.empty_like(model.params)
        for layer, cache in zip(reversed(layers), reversed(caches)):
            upstream = layer_backward(layer, model.params, cache, upstream, reference)
        assert np.array_equal(routed, reference)

    def test_zero_weight_removes_trunk_contribution(self):
        # Weight (0, 1) must match silencing the first problem's gradient
        # entirely.
        gated = self.run_backward([0.0, 1.0])
        silenced = backward_all(
            self.model,
            self.caches,
            [np.zeros_like(self.grads_out[0]), self.grads_out[1]],
            np.array([1.0, 1.0]),
        )
        trunk0 = param_layout(self.arch)[0]
        assert np.array_equal(gated[trunk0.weights], silenced[trunk0.weights])
        assert np.array_equal(gated[trunk0.biases], silenced[trunk0.biases])

    def test_doubling_weights_scales_trunk_only(self):
        base = self.run_backward([1.0, 1.0])
        double = self.run_backward([2.0, 2.0])
        trunk0 = param_layout(self.arch)[0]
        assert np.allclose(double[trunk0.weights], 2.0 * base[trunk0.weights], rtol=1e-15)
        heads = slice(trunk0.biases.stop, None)
        assert np.array_equal(base[heads], double[heads])

    def test_trunk_gradient_is_weighted_sum_of_solo_gradients(self):
        weights = np.array([0.3, 1.7])
        combined = self.run_backward(weights)
        solo = [self.run_backward([1.0, 0.0]), self.run_backward([0.0, 1.0])]
        w0 = param_layout(self.arch)[0].weights
        expected = weights[0] * solo[0][w0] + weights[1] * solo[1][w0]
        assert np.abs(combined[w0] - expected).max() <= 1e-12

    def test_head_gradients_ignore_weights(self):
        a = self.run_backward([1.0, 1.0])
        b = self.run_backward([0.25, 4.0])
        for slot in param_layout(self.arch):
            if slot.mop is not None:
                assert np.array_equal(a[slot.weights], b[slot.weights])

    def test_rejects_output_gradient_of_another_shape(self):
        # A (1, n) gradient would broadcast against the (batch, n) output
        # without an error; backward_all checks each head's shape once.
        for bad in (self.grads_out[1][:1], self.grads_out[1][:, :3], self.grads_out[1].T):
            with pytest.raises(InternalError, match=r"head 1 output \(6, 4\)"):
                backward_all(self.model, self.caches, [self.grads_out[0], bad], np.ones(2))


class TestCounts:
    def test_six_separate_baseline_models(self):
        psl = build_model(ModelArchitecture(2, (256, 256), 0, (6,)), RngStream(0))
        assert count_params(psl) == 68102
        assert 6 * count_params(psl) == 408612

    def test_shared_trunk_model(self):
        model = build_model(ModelArchitecture(2, (256, 256), 1, (6,) * 6), RngStream(0))
        assert count_params(model) == 404772

    def test_single_layer(self):
        model = build_model(ModelArchitecture(2, (), 0, (3,)), RngStream(0))
        assert count_params(model) == 9

    def test_flops_baseline(self):
        psl = build_model(ModelArchitecture(2, (256, 256), 0, (6,)), RngStream(0))
        assert count_flops(psl, 1) == 135168
        assert 6 * count_flops(psl, 1) == 811008

    def test_flops_shared(self):
        model = build_model(ModelArchitecture(2, (256, 256), 1, (6,) * 6), RngStream(0))
        assert count_flops(model, 1) == 805888

    def test_flops_tiny_layer_and_batch_scaling(self):
        model = build_model(ModelArchitecture(2, (), 0, (3,)), RngStream(0))
        assert count_flops(model, 1) == 12
        assert count_flops(model, 15) == 180


class TestCheckpoint:
    def make_model(self):
        return build_model(ModelArchitecture(2, (16, 8), 1, (4, 5)), RngStream(20))

    def test_round_trip_bitwise(self, tmp_path):
        model = self.make_model()
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(model, path, metadata={"suite": ["zdt1", "zdt2"]})
        loaded, metadata = load_checkpoint(path)
        assert metadata["suite"] == ["zdt1", "zdt2"]
        assert count_params(loaded) == count_params(model)
        for a, b in zip(parameter_arrays(model), parameter_arrays(loaded), strict=True):
            assert np.array_equal(a, b)
        assert loaded.arch == model.arch

    def test_corrupt_header_byte(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, str(path))
        raw = bytearray(path.read_bytes())
        raw[2] = 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_truncated_body(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, str(path))
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(str(tmp_path / "nope.ckpt"))

    def test_bytes_are_header_line_then_params(self, tmp_path):
        model = self.make_model()
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(model, path, metadata={"seed": 3})
        header = {
            "format": "copsl-checkpoint",
            "version": 1,
            "architecture": model.arch.to_dict(),
            "metadata": {"seed": 3},
        }
        expected = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + model.params.astype("<f8").tobytes()
        with open(path, "rb") as handle:
            assert handle.read() == expected

    def test_file_that_shrinks_after_its_size_is_read(self, tmp_path, monkeypatch):
        # The body is checked against the file's size, then read: a read
        # that comes up short is refused as a truncated body.
        model = self.make_model()
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(model, path)
        with open(path, "rb") as handle:
            raw = handle.read()
        with open(path, "wb") as handle:
            handle.write(raw[:-16])
        fstat = os.fstat

        def stale(fd):
            st = fstat(fd)
            return os.stat_result((*st[:6], st.st_size + 16, *st[7:10]))

        monkeypatch.setattr(os, "fstat", stale)
        expected = 8 * model.params.size
        message = rf"checkpoint body has {expected - 16} bytes, expected {expected} \(truncated or padded\)"
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)
