"""Property tests of the flat parameter layout over random small architectures."""

import dataclasses
import hashlib
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copsl.errors import CheckpointError
from copsl.model import (
    ModelArchitecture,
    build_model,
    count_params,
    layer_groups,
    load_checkpoint,
    param_layout,
    parameter_arrays,
    save_checkpoint,
)
from copsl.problems import SYNTHETIC_2D, ProblemSuite, get_problem, suite_from_names
from copsl.sampling import RngStream
from copsl.trainer import RunConfig, train_copsl


@st.composite
def architectures(draw):
    hidden = tuple(draw(st.lists(st.integers(1, 6), max_size=3)))
    return ModelArchitecture(
        num_objectives=draw(st.integers(2, 3)),
        hidden_sizes=hidden,
        shared_depth=draw(st.integers(0, len(hidden))),
        output_dims=tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))),
    )


def checkpoint_bytes(model, tmp_path_factory) -> tuple[str, bytes]:
    """Save ``model`` to a fresh file; returns its path and body."""
    path = str(tmp_path_factory.mktemp("ckpt") / "model.ckpt")
    save_checkpoint(model, path)
    raw = Path(path).read_bytes()
    return path, raw[raw.index(b"\n") + 1 :]


@settings(max_examples=60, deadline=None)
@given(architectures(), st.integers(0, 2**32 - 1))
def test_layout_tiles_params_and_layers_alias_it(arch, seed):
    model = build_model(arch, RngStream(seed))
    layout = param_layout(arch)
    offset = 0
    for slot in layout:
        assert slot.weights.start == offset
        assert slot.biases.start == slot.weights.stop == offset + slot.fan_in * slot.fan_out
        offset = slot.biases.stop
    assert offset == model.params.size == count_params(model)
    assert [s.mop for s in layout] == [None] * arch.shared_depth + [
        i for i in range(arch.num_mops) for _ in range(len(arch.hidden_sizes) - arch.shared_depth + 1)
    ]

    trunk, heads = layer_groups(arch)
    assert trunk + sum(heads, ()) == tuple(range(len(layout)))
    assert all(layout[k].mop is None for k in trunk)
    assert all(layout[k].mop == i for i, head in enumerate(heads) for k in head)
    for slot in layout:
        weights, biases = slot.views(model.params)
        assert weights.shape == (slot.fan_out, slot.fan_in) and biases.shape == (slot.fan_out,)
        assert np.shares_memory(weights, model.params)
        assert np.shares_memory(biases, model.params)
        model.params[slot.weights.start] += 1.0
        model.params[slot.biases.stop - 1] -= 1.0
        assert np.array_equal(weights.ravel(), model.params[slot.weights])
        assert np.array_equal(biases, model.params[slot.biases])
    flat = np.concatenate([a.ravel() for a in parameter_arrays(model)])
    assert flat.tobytes() == model.params.tobytes()


@settings(max_examples=40, deadline=None)
@given(architectures(), st.integers(0, 2**32 - 1), st.data())
def test_checkpoint_body_is_params_and_round_trips(tmp_path_factory, arch, seed, data):
    model = build_model(arch, RngStream(seed))
    path, body = checkpoint_bytes(model, tmp_path_factory)
    assert body == model.params.tobytes()
    loaded, _ = load_checkpoint(path)
    assert loaded.arch == arch
    assert loaded.params.tobytes() == model.params.tobytes()
    # One owned copy of the body, not a view of the bytes read from the file.
    assert loaded.params.flags.writeable and loaded.params.base is None

    # A non-finite entry is refused on load and on save, naming its layer.
    index = data.draw(st.integers(0, model.params.size - 1))
    value = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    slot = next(s for s in param_layout(arch) if s.span.start <= index < s.span.stop)
    named = re.escape(slot.describe()) + "$"
    raw = Path(path).read_bytes()
    offset = len(raw) - len(body) + 8 * index
    Path(path).write_bytes(raw[:offset] + np.array(value, dtype="<f8").tobytes() + raw[offset + 8 :])
    with pytest.raises(CheckpointError, match=named):
        load_checkpoint(path)
    model.params[index] = value
    with pytest.raises(CheckpointError, match=named):
        save_checkpoint(model, path)


@settings(max_examples=40, deadline=None)
@given(architectures(), st.integers(1, 24), st.booleans())
def test_truncated_or_padded_body_is_rejected(tmp_path_factory, arch, count, pad):
    model = build_model(arch, RngStream(0))
    path, body = checkpoint_bytes(model, tmp_path_factory)
    raw = Path(path).read_bytes()
    damaged = raw + b"\0" * count if pad else raw[: len(raw) - min(count, len(body))]
    Path(path).write_bytes(damaged)
    with pytest.raises(CheckpointError, match="truncated or padded"):
        load_checkpoint(path)


@st.composite
def suites(draw):
    if draw(st.booleans()):
        return suite_from_names(draw(st.lists(st.sampled_from(SYNTHETIC_2D), min_size=1, max_size=3, unique=True)))
    # dtlz2 is the one three-objective problem and a suite names each problem
    # once, so several three-objective heads train renamed copies of it.
    copies = [dataclasses.replace(get_problem("dtlz2"), name=f"dtlz2-{i}") for i in range(draw(st.integers(1, 3)))]
    return ProblemSuite(tuple(copies))


@settings(max_examples=15, deadline=None)
@given(suites(), st.lists(st.integers(1, 6), max_size=3), st.data())
def test_param_trace_entry_is_sha256_of_params(suite, hidden, data):
    config = RunConfig(
        suite=tuple(p.name for p in suite.problems),
        iterations=2,
        batch_size=3,
        hidden_sizes=tuple(hidden),
        shared_depth=data.draw(st.integers(0, len(hidden))),
        eval_grid=6,
        seed=data.draw(st.integers(0, 2**31 - 1)),
        trace_params=True,
    )
    model, record = train_copsl(config, suite)
    assert record.param_trace[-1] == hashlib.sha256(model.params.tobytes()).hexdigest()
    initial = build_model(model.arch, RngStream(config.seed, stream=0))
    assert record.param_trace[0] == hashlib.sha256(initial.params.tobytes()).hexdigest()
