"""``copsl front`` and ``copsl hv`` far beyond training's grid sizes, in bounded memory.

The grid is pushed through as one batch, never in chunks: a row's last bits
depend on how many rows share its batch, so chunking would change the files.
"""

import tracemalloc

import numpy as np
import pytest

from copsl import RunConfig, evaluate_model, save_checkpoint, train_copsl, uniform_preference_grid
from copsl.cli import main
from copsl.metrics import read_front_csv

# A 2-d grid of 20 000 points on the default six-problem model, and the
# largest dtlz2 lattice of at most 3 000 points (2 926 points).
CASES = (("synthetic-2d", 20_000), (["dtlz2"], 3_000))

# forward_all, which keeps every layer's input and output (one array per
# layer, since each output is the next layer's input), peaks at about 330 MB
# on the 2-d grid.
EVALUATION_PEAK_LIMIT = 200e6


@pytest.fixture(scope="module", params=CASES, ids=["synthetic-2d-20000", "dtlz2-3000"])
def served(request, tmp_path_factory):
    suite_spec, grid_size = request.param
    config = RunConfig(suite=suite_spec, iterations=3, eval_interval=3, seed=0)
    suite = config.resolve_suite()
    model, _ = train_copsl(config, suite)
    path = str(tmp_path_factory.mktemp("large") / "model.ckpt")
    save_checkpoint(model, path, metadata={"suite": suite_spec})
    return path, model, suite, grid_size


def traced_evaluation(model, suite, grid):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = evaluate_model(model, suite, grid)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return report, peak


def test_front_and_hv_agree_with_evaluate_model(served, tmp_path, capsys):
    checkpoint, model, suite, grid_size = served
    out = str(tmp_path / "front.csv")
    assert main(["front", "--checkpoint", checkpoint, "--grid", str(grid_size), "--out", out]) == 0
    written = [line.split(" ", 1)[1] for line in capsys.readouterr().out.splitlines()]
    assert len(written) == suite.num_mops

    grid = uniform_preference_grid(suite.num_objectives, grid_size)
    report, peak = traced_evaluation(model, suite, grid)
    if suite.num_objectives == 2:
        assert peak <= EVALUATION_PEAK_LIMIT, f"evaluate_model peaked at {peak / 1e6:.0f} MB"

    for path, mop, front, hv in zip(written, suite.problems, report.fronts, report.hypervolumes):
        points, reference = read_front_csv(path)
        assert points.tobytes() == front.tobytes()
        assert np.array_equal(reference, mop.reference_point)
        assert main(["hv", "--front", path]) == 0
        assert capsys.readouterr().out.strip() == format(hv, ".12g")
