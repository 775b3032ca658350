"""Deterministic random streams, gamma/Dirichlet sampling, preference grids.

Every random draw in the package flows through :class:`RngStream`, which pins
a named counter-based generator (Philox) so that a sampling sequence is a pure
function of (algorithm id, seed, stream) on any platform. Gamma variates, and
so Dirichlet preferences, come from the NumPy ``Generator``'s own ``gamma``
on that stream; the algorithm id names both the bit generator and this
sampling scheme.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import ConfigurationError, InputError

# Names the bit generator and the sampling scheme on top of it; a change to
# either changes the draws, so it gets a new id.
RNG_ALGORITHM = "philox4x64-10/generator-gamma"

# Preference components are clamped below this value so reciprocal-weighted
# losses never divide by zero.
MIN_PREFERENCE = 1e-6

# The smallest Dirichlet parameter sampled: a Gamma(alpha) draw underflows to 0
# with probability about exp(-744 * alpha), so at 1e-8 redrawing all-zero rows all but never ends.
MIN_DIRICHLET_ALPHA = 1e-3


class RngStream:
    """Seeded random stream backed by the Philox counter-based generator.

    ``stream`` selects an independent substream of the same seed (derived via
    a spawn key), so e.g. parameter initialization and preference sampling can
    consume from separate sequences without interfering.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        self.algorithm = RNG_ALGORITHM
        seq = np.random.SeedSequence(self.seed, spawn_key=(self.stream,))
        self._gen = np.random.Generator(np.random.Philox(seq))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream={self.stream}, algorithm={self.algorithm!r})"

    def random(self, size=None):
        """Uniform draws on [0, 1)."""
        return self._gen.random(size)

    def uniform(self, low: float, high: float, size=None):
        return self._gen.uniform(low, high, size)

    def standard_normal(self, size=None):
        return self._gen.standard_normal(size)

    def gamma(self, shape, size=None):
        """Gamma(shape, 1) draws; ``shape`` broadcasts against ``size``."""
        return self._gen.gamma(shape, 1.0, size)


def sample_gamma(rng: RngStream, shape: float) -> float:
    """Draw one Gamma(shape, 1) variate from the stream's Generator.

    :func:`sample_preferences` draws its whole block with one
    :meth:`RngStream.gamma` call and does not go through here; this scalar
    form stays because the benchmark's tracer counts calls to it.
    """
    shape = float(shape)
    if not shape > 0.0:
        raise InputError(f"gamma shape must be positive, got {shape}")
    return float(rng.gamma(shape))


def sample_preferences(rng: RngStream, alpha, batch_size: int) -> np.ndarray:
    """Sample ``batch_size`` preference vectors from Dirichlet(alpha).

    The (batch_size, len(alpha)) block of gamma draws comes from one
    :meth:`RngStream.gamma` call; a row whose draws all underflow to zero
    (likely only for alpha near MIN_DIRICHLET_ALPHA) is drawn again. Each
    row is normalized to the simplex, then clamped below at MIN_PREFERENCE
    and renormalized so no component is exactly zero.

    Returns an array of shape (batch_size, len(alpha)).
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.ndim != 1 or alpha.size < 2:
        raise InputError("alpha must be a vector of at least two entries")
    if not (alpha >= MIN_DIRICHLET_ALPHA).all():
        raise InputError(f"Dirichlet parameters must be >= {MIN_DIRICHLET_ALPHA}, got {alpha.tolist()}")
    if batch_size < 1:
        raise InputError(f"batch size must be >= 1, got {batch_size}")

    prefs = rng.gamma(alpha, (batch_size, alpha.size))
    totals = prefs.sum(axis=1)
    while (empty := totals == 0.0).any():
        prefs[empty] = rng.gamma(alpha, (int(empty.sum()), alpha.size))
        totals[empty] = prefs[empty].sum(axis=1)
    prefs /= totals[:, None]
    np.maximum(prefs, MIN_PREFERENCE, out=prefs)
    prefs /= prefs.sum(axis=1, keepdims=True)
    # Renormalization can push a clamped entry a hair back under the floor;
    # re-clamping perturbs the sum by O(m * MIN_PREFERENCE^2), far inside
    # the 1e-9 simplex tolerance.
    return np.maximum(prefs, MIN_PREFERENCE, out=prefs)


def uniform_preference_grid(num_objectives: int, count: Optional[int] = None) -> np.ndarray:
    """Deterministic preference vectors covering the simplex.

    For two objectives this is the uniform subdivision (k/(count-1),
    1 - k/(count-1)). For three objectives it is the simplex lattice with the
    largest density H whose size (H+1)(H+2)/2 does not exceed ``count``.
    ``count`` None is the default that training scores and ``copsl front``
    exports: 100 points for two objectives, the 105-point lattice for three.
    """
    if count is None:
        count = 100 if num_objectives == 2 else 105
    if num_objectives == 2:
        if count < 2:
            raise ConfigurationError(f"grid needs at least 2 points, got {count}")
        t = np.arange(count, dtype=np.float64) / (count - 1)
        return np.column_stack([t, 1.0 - t])
    if num_objectives == 3:
        if count < 3:
            raise ConfigurationError(f"3-objective grid needs at least 3 points, got {count}")
        density = 1
        while (density + 2) * (density + 3) // 2 <= count:
            density += 1
        rows = []
        for i in range(density, -1, -1):
            for j in range(density - i, -1, -1):
                k = density - i - j
                rows.append((i / density, j / density, k / density))
        return np.array(rows, dtype=np.float64)
    raise ConfigurationError(
        f"preference grids are defined for 2 or 3 objectives, got {num_objectives}"
    )
