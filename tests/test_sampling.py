import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from copsl.errors import ConfigurationError, InputError
from copsl.sampling import (
    MIN_PREFERENCE,
    RNG_ALGORITHM,
    RngStream,
    sample_gamma,
    sample_preferences,
    uniform_preference_grid,
)


class RecordingStream(RngStream):
    """A stream that keeps a copy of every gamma block it hands out."""

    def __init__(self, seed):
        super().__init__(seed)
        self.blocks = []

    def gamma(self, shape, size=None):
        block = super().gamma(shape, size)
        self.blocks.append(block.copy())
        return block


class TestRngStream:
    def test_named_algorithm(self):
        assert RngStream(0).algorithm == RNG_ALGORITHM

    def test_same_seed_same_sequence(self):
        a = RngStream(123).random(100)
        b = RngStream(123).random(100)
        assert np.array_equal(a, b)

    def test_streams_are_independent(self):
        a = RngStream(123, stream=0).random(10)
        b = RngStream(123, stream=1).random(10)
        assert not np.array_equal(a, b)


class TestGamma:
    def test_exponential_mean(self):
        # Gamma(1, 1) is Exp(1), mean 1.
        rng = RngStream(7)
        draws = np.array([sample_gamma(rng, 1.0) for _ in range(100_000)])
        assert abs(draws.mean() - 1.0) < 0.02

    def test_shape_five_mean(self):
        rng = RngStream(8)
        draws = np.array([sample_gamma(rng, 5.0) for _ in range(100_000)])
        assert abs(draws.mean() - 5.0) < 0.05

    def test_boost_branch_mean(self):
        # Gamma(0.5, 1) has mean 0.5 and exercises the shape < 1 transform.
        rng = RngStream(9)
        draws = np.array([sample_gamma(rng, 0.5) for _ in range(100_000)])
        assert abs(draws.mean() - 0.5) < 0.02

    def test_reproducible(self):
        a = [sample_gamma(RngStream(5), 2.5) for _ in range(1)]
        b = [sample_gamma(RngStream(5), 2.5) for _ in range(1)]
        assert a == b

    def test_positive_output(self):
        rng = RngStream(10)
        assert all(sample_gamma(rng, 0.3) > 0.0 for _ in range(1000))

    def test_rejects_nonpositive_shape(self):
        with pytest.raises(InputError):
            sample_gamma(RngStream(0), 0.0)
        with pytest.raises(InputError):
            sample_gamma(RngStream(0), -1.0)


class TestPreferences:
    def test_dirichlet_mean_two(self):
        prefs = sample_preferences(RngStream(1), (1.0, 1.0), 100_000)
        assert np.abs(prefs.mean(axis=0) - 0.5).max() < 0.02

    def test_dirichlet_mean_three(self):
        prefs = sample_preferences(RngStream(2), (1.0, 1.0, 1.0), 100_000)
        assert np.abs(prefs.mean(axis=0) - 1.0 / 3.0).max() < 0.02

    def test_asymmetric_mean(self):
        # Dirichlet mean is alpha / sum(alpha).
        prefs = sample_preferences(RngStream(3), (2.0, 6.0), 100_000)
        assert np.abs(prefs.mean(axis=0) - np.array([0.25, 0.75])).max() < 0.02

    def test_rows_sum_to_one(self):
        prefs = sample_preferences(RngStream(4), (1.0, 1.0, 1.0), 10_000)
        assert np.abs(prefs.sum(axis=1) - 1.0).max() <= 1e-9

    def test_clamped_above_floor(self):
        prefs = sample_preferences(RngStream(5), (0.05, 0.05), 20_000)
        assert prefs.min() >= MIN_PREFERENCE

    def test_deterministic(self):
        a = sample_preferences(RngStream(6), (1.0, 1.0), 50)
        b = sample_preferences(RngStream(6), (1.0, 1.0), 50)
        assert np.array_equal(a, b)

    def test_rejects_bad_alpha(self):
        with pytest.raises(InputError):
            sample_preferences(RngStream(0), (1.0, 0.0), 5)

    def test_rejects_bad_batch(self):
        with pytest.raises(InputError):
            sample_preferences(RngStream(0), (1.0, 1.0), 0)

    def test_rows_of_underflowed_draws_are_redrawn(self):
        # At alpha = 1e-3 about half of all gamma draws underflow to 0, so a
        # batch of 64 two-entry rows almost surely needs a second draw.
        rng = RecordingStream(7)
        prefs = sample_preferences(rng, (1e-3, 1e-3), 64)
        assert rng.blocks[0].shape == (64, 2) and len(rng.blocks) > 1
        assert prefs.min() >= MIN_PREFERENCE
        assert np.abs(prefs.sum(axis=1) - 1.0).max() <= 1e-9

    def test_block_normalization_matches_per_row_loop(self):
        # The row-by-row normalize, clamp, renormalize, re-clamp, applied to
        # the same gamma draws, gives the same bits.
        rng = RecordingStream(8)
        prefs = sample_preferences(rng, (0.05, 1.0, 3.0), 500)
        (draws,) = rng.blocks
        for row, out in zip(draws, prefs):
            row = np.maximum(row / row.sum(), MIN_PREFERENCE)
            row /= row.sum()
            assert np.array_equal(np.maximum(row, MIN_PREFERENCE), out)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 3).flatmap(lambda m: st.lists(st.floats(1e-3, 50.0), min_size=m, max_size=m)),
    st.integers(1, 64),
    st.integers(0, 2**32 - 1),
)
@example([1e-3, 1e-3], 64, 0)
@example([1e-3, 50.0, 1e-3], 1, 1)
def test_preferences_are_floored_simplex_rows_and_reproducible(alpha, batch_size, seed):
    prefs = sample_preferences(RngStream(seed), alpha, batch_size)
    assert prefs.shape == (batch_size, len(alpha))
    assert np.isfinite(prefs).all()
    assert prefs.min() >= MIN_PREFERENCE
    assert np.abs(prefs.sum(axis=1) - 1.0).max() <= 1e-9
    again = sample_preferences(RngStream(seed), alpha, batch_size)
    assert prefs.tobytes() == again.tobytes()


class TestGrid:
    def test_two_objective_three_points(self):
        grid = uniform_preference_grid(2, 3)
        assert np.array_equal(grid, [[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])

    def test_three_objective_lattice(self):
        grid = uniform_preference_grid(3, 6)  # density 2 -> exactly 6 points
        assert grid.shape == (6, 3)
        rows = {tuple(r) for r in grid}
        assert (1.0, 0.0, 0.0) in rows
        assert (0.5, 0.5, 0.0) in rows

    def test_lattice_size_never_exceeds_count(self):
        for count in (3, 10, 105, 200):
            grid = uniform_preference_grid(3, count)
            assert grid.shape[0] <= count

    def test_grid_rows_on_simplex(self):
        for m, count in ((2, 100), (3, 105)):
            grid = uniform_preference_grid(m, count)
            assert (grid >= 0.0).all()
            assert np.abs(grid.sum(axis=1) - 1.0).max() <= 1e-9

    def test_rejects_unsupported_objectives(self):
        with pytest.raises(ConfigurationError):
            uniform_preference_grid(4, 10)

    def test_rejects_tiny_count(self):
        with pytest.raises(ConfigurationError):
            uniform_preference_grid(2, 1)
        with pytest.raises(ConfigurationError):
            uniform_preference_grid(3, 2)
