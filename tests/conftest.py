"""Shared test oracles and fixtures.

The oracles stay independent of the library code they check: plain loops
and textbook formulas, no reuse of the implementation under test.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import copsl.problems as problems_mod


def central_difference(f, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Gradient of a scalar function by central differences, one entry at a time."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x)
    flat = x.ravel()
    out = grad.ravel()
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + step
        hi = f(x)
        flat[j] = orig - step
        lo = f(x)
        flat[j] = orig
        out[j] = (hi - lo) / (2.0 * step)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-4) -> float:
    """Worst relative disagreement over entries large enough to compare.

    Entries where both values are below ``floor`` are checked absolutely
    against floor * 1e-5 instead (relative error is meaningless in the
    finite-difference noise floor).
    """
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    big = scale > floor
    worst = 0.0
    if big.any():
        worst = float((np.abs(analytic - numeric)[big] / scale[big]).max())
    small = ~big
    if small.any():
        residual = float(np.abs(analytic - numeric)[small].max())
        if residual > floor * 1e-5:
            worst = max(worst, residual / floor)
    return worst


def brute_force_nondominated(points: np.ndarray) -> np.ndarray:
    """Quadratic-time dominance filter straight from the definition: a point
    goes when some row is no larger everywhere and smaller somewhere (never
    true of the point itself). Tested for blocks of points against every
    row, one objective at a time: entry [i, j] compares row j with point i."""
    points = np.asarray(points, dtype=np.float64)
    dominated = np.zeros(points.shape[0], dtype=bool)
    for start in range(0, points.shape[0], 256):
        block = points[start : start + 256]
        no_larger = np.ones((block.shape[0], points.shape[0]), dtype=bool)
        smaller = np.zeros_like(no_larger)
        for column, values in zip(points.T, block.T):
            no_larger &= column <= values[:, None]
            smaller |= column < values[:, None]
        dominated[start : start + 256] = (no_larger & smaller).any(axis=1)
    keep = []
    seen = set()
    for i in np.flatnonzero(~dominated):
        key = tuple(points[i].tolist())
        if key in seen:
            continue
        seen.add(key)
        keep.append(points[i])
    return np.array(keep)


def hv_2d_by_steps(points, reference) -> float:
    """2-d hypervolume by the classic sweep: clip to the reference box, filter
    by brute force, sort by f1 (stable), and add one rectangle per step from
    the left, one at a time."""
    pts = np.asarray(points, dtype=np.float64)
    ref = np.asarray(reference, dtype=np.float64)
    pts = pts[(pts < ref).all(axis=1)]
    if pts.shape[0] == 0:
        return 0.0
    front = brute_force_nondominated(pts)
    front = front[np.argsort(front[:, 0], kind="stable")]
    volume = 0.0
    prev_f2 = ref[1]
    for f1, f2 in front:
        volume += (ref[0] - f1) * (prev_f2 - f2)
        prev_f2 = f2
    return float(volume)


def hv_3d_by_levels(points, reference) -> float:
    """3-d hypervolume slab by slab: sort the brute-force front by f3
    (stable); each slab up to the next level adds its thickness times the 2-d
    hypervolume, by :func:`hv_2d_by_steps`, of the points up to that level."""
    pts = np.asarray(points, dtype=np.float64)
    ref = np.asarray(reference, dtype=np.float64)
    pts = pts[(pts < ref).all(axis=1)]
    if pts.shape[0] == 0:
        return 0.0
    front = brute_force_nondominated(pts)
    front = front[np.argsort(front[:, 2], kind="stable")]
    levels = front[:, 2]
    volume = 0.0
    for k in range(front.shape[0]):
        top = levels[k + 1] if k + 1 < front.shape[0] else ref[2]
        thickness = top - levels[k]
        if thickness > 0.0:
            volume += thickness * hv_2d_by_steps(front[: k + 1, :2], ref[:2])
    return float(volume)


def hv_monte_carlo(points, reference, samples: int, rng) -> tuple[float, float]:
    """Monte Carlo hypervolume estimate with its binomial standard error.

    Samples uniformly, in chunks, in the box spanned by the componentwise
    minimum of the points and the reference point; a sample counts as a hit
    when some point weakly dominates it. Each chunk is tested against one
    point and one objective at a time, on contiguous columns of the draws,
    which keeps the temporaries at one boolean per draw.
    """
    pts = np.asarray(points, dtype=np.float64)
    ref = np.asarray(reference, dtype=np.float64)
    assert ref.shape == (pts.shape[1],) and samples >= 1
    lower = pts.min(axis=0)
    widths = ref - lower
    if (widths <= 0.0).any():
        return 0.0, 0.0
    box_volume = float(np.prod(widths))
    chunk = max(1024, int(2_000_000 // pts.shape[0]))
    hits = 0
    remaining = samples
    while remaining > 0:
        k = min(chunk, remaining)
        columns = (lower + widths * rng.random((k, pts.shape[1]))).T.copy()
        dominated = np.zeros(k, dtype=bool)
        for point in pts:
            hit = columns[0] >= point[0]
            for column, value in zip(columns[1:], point[1:]):
                hit &= column >= value
            dominated |= hit
        hits += int(dominated.sum())
        remaining -= k
    rate = hits / samples
    estimate = box_volume * rate
    std_error = box_volume * float(np.sqrt(rate * (1.0 - rate) / samples))
    return estimate, std_error


@pytest.fixture
def np_rng():
    return np.random.default_rng(20240815)


@pytest.fixture
def nan_problem(monkeypatch):
    """Register, for one test, 'zdt1-nan': zdt1 whose objectives turn NaN on
    training batches of 5 rows (not on the evaluation grid). Returns its name."""
    base = problems_mod.get_problem("zdt1")

    def exploding(x):
        out = base.evaluate_batch(x).copy()
        if x.shape[0] == 5:
            out[:, 1] = np.nan
        return out

    problem = dataclasses.replace(base, name="zdt1-nan", evaluate_batch=exploding)
    monkeypatch.setitem(problems_mod._REGISTRY, problem.name, problem)
    return problem.name


@pytest.fixture
def registry(monkeypatch):
    """A copy of the problem registry for one test: whatever the test
    registers, through :func:`copsl.register_problem` or otherwise, is gone
    after it."""
    monkeypatch.setattr(problems_mod, "_REGISTRY", dict(problems_mod._REGISTRY))
