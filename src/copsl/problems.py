"""Multi-objective test problems with analytic gradients.

A problem is a :class:`MopDefinition`: box bounds, a batched objective
evaluator, a batched Jacobian, and (when known in closed form) a description
of the true Pareto front. The built-in two-objective family is ZDT-style:

    f1 = x1,    f2 = g(x_2..x_n) * h(f1 / g)

with h convex (1 - sqrt(t)), concave (1 - t^2), or a fixed 0.5/0.5 blend of
both, and g variants that shift the optimal tail values or couple adjacent
tail variables. Minimizing g to 1 recovers the front f2 = h(f1), which makes
hypervolumes against the front available analytically.

Any other problem joins through :func:`register_problem` of a complete
:class:`MopDefinition`: one that carries its evaluator, its analytic
Jacobian and its reference point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, InputError, InternalError, UnsupportedError

# ---------------------------------------------------------------------------
# Bounds and the unit-cube parameterization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoxBounds:
    """Per-variable lower and upper limits with lower < upper everywhere."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=np.float64)
        hi = np.asarray(self.upper, dtype=np.float64)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ConfigurationError(f"bounds must be equal-length vectors, got {lo.shape} and {hi.shape}")
        if not (lo < hi).all():
            raise ConfigurationError("every lower bound must be strictly below its upper bound")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ConfigurationError("bounds must be finite")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dimension(self) -> int:
        return self.lower.shape[0]

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower


def unit_box(dimension: int) -> BoxBounds:
    return BoxBounds(np.zeros(dimension), np.ones(dimension))


def map_unit_to_box(unit: np.ndarray, bounds: BoxBounds) -> np.ndarray:
    """Affine map from the unit cube to the bounded box: x_j = lb_j + (ub_j - lb_j) * u_j.

    Its derivative is the constant diagonal ``bounds.widths``. Inputs come
    from a sigmoid, so they lie in [0, 1]; the box check of
    :meth:`MopDefinition.evaluate` and :meth:`MopDefinition.jacobian`, which
    receive every mapped x, is where a point outside the box is caught.
    """
    u = np.asarray(unit, dtype=np.float64)
    if u.shape[-1] != bounds.dimension:
        raise InternalError(f"unit vector width {u.shape[-1]} does not match bounds dimension {bounds.dimension}")
    return bounds.lower + bounds.widths * u


# ---------------------------------------------------------------------------
# Problem definition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MopDefinition:
    """One multi-objective problem.

    ``evaluate_batch`` maps (N, n) decision matrices to (N, m) objective
    matrices; ``jacobian_batch`` maps them to (N, m, n) stacks of Jacobians.
    ``reference_point`` (m,) is what hypervolumes are measured against. These
    three are required, so a problem is complete once it is built.
    ``front_hypervolume`` (when present) returns the exact hypervolume of the
    true Pareto front for a given reference point, and ``front_points``
    samples the front for plotting or oracle checks.
    """

    name: str
    num_objectives: int
    num_variables: int
    bounds: BoxBounds
    reference_point: np.ndarray
    evaluate_batch: Callable[[np.ndarray], np.ndarray]
    jacobian_batch: Callable[[np.ndarray], np.ndarray]
    front_hypervolume: Optional[Callable[[np.ndarray], float]] = None
    front_points: Optional[Callable[[int], np.ndarray]] = None

    def __post_init__(self):
        if self.num_objectives < 2:
            raise ConfigurationError("a multi-objective problem needs at least 2 objectives")
        if self.num_variables < 1:
            raise ConfigurationError("decision dimension must be >= 1")
        if self.bounds.dimension != self.num_variables:
            raise ConfigurationError(
                f"bounds dimension {self.bounds.dimension} does not match n={self.num_variables}"
            )
        for field_name in ("evaluate_batch", "jacobian_batch"):
            value = getattr(self, field_name)
            if not callable(value):
                raise ConfigurationError(f"problem '{self.name}': {field_name} must be callable, got {value!r}")
        try:
            ref = np.asarray(self.reference_point, dtype=np.float64)  # None becomes a 0-d NaN
        except (TypeError, ValueError):  # not numbers, or a ragged list: fails the shape check
            ref = np.empty(0)
        if ref.shape != (self.num_objectives,):
            raise ConfigurationError(
                f"problem '{self.name}': reference point must have length {self.num_objectives}, "
                f"got {self.reference_point!r}"
            )
        object.__setattr__(self, "reference_point", ref)

    def _prepare(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != self.num_variables:
            raise InputError(f"{self.name}: expected an (N, {self.num_variables}) matrix of points, got shape {arr.shape}")
        tol = 1e-9 * np.maximum(1.0, np.abs(self.bounds.upper))
        # Written so that NaN, which fails every comparison, fails the check.
        if not ((arr >= self.bounds.lower - tol) & (arr <= self.bounds.upper + tol)).all():
            raise InputError(f"{self.name}: point not finite or outside the box bounds")
        return arr

    def evaluate(self, x) -> np.ndarray:
        """Objective values, (N, m), at the rows of an (N, n) decision matrix."""
        return self.evaluate_batch(self._prepare(x))

    def jacobian(self, x) -> np.ndarray:
        """Jacobians dF/dx, (N, m, n), at the rows of an (N, n) decision matrix."""
        return self.jacobian_batch(self._prepare(x))


@dataclass(frozen=True)
class ProblemSuite:
    """An ordered collection of problems sharing one objective count."""

    name: str
    problems: tuple[MopDefinition, ...]

    def __post_init__(self):
        if not self.problems:
            raise ConfigurationError("a problem suite cannot be empty")
        names = [p.name for p in self.problems]
        repeated = [name for i, name in enumerate(names) if name in names[:i]]
        if repeated:
            raise ConfigurationError(f"a problem suite cannot repeat a problem, got '{repeated[0]}' more than once")
        counts = {p.num_objectives for p in self.problems}
        if len(counts) != 1:
            raise ConfigurationError(
                f"all suite members must share the objective count, got {sorted(counts)}"
            )
        object.__setattr__(self, "problems", tuple(self.problems))

    @property
    def num_mops(self) -> int:
        return len(self.problems)

    @property
    def num_objectives(self) -> int:
        return self.problems[0].num_objectives

    @property
    def output_dims(self) -> tuple[int, ...]:
        return tuple(p.num_variables for p in self.problems)


# ---------------------------------------------------------------------------
# Finite differences (the independent check of analytic Jacobians)
# ---------------------------------------------------------------------------


def finite_difference_jacobian(
    evaluate_batch: Callable[[np.ndarray], np.ndarray], x: np.ndarray, rel_step: float = 1e-6
) -> np.ndarray:
    """Central-difference Jacobians (N, m, n) of (N, n) points, step rel_step * (1 + |x_j|)."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[1]
    m = evaluate_batch(x).shape[1]
    jac = np.empty((x.shape[0], m, n), dtype=np.float64)
    for j in range(n):
        step = rel_step * (1.0 + np.abs(x[:, j]))
        hi, lo = x.copy(), x.copy()
        hi[:, j] += step
        lo[:, j] -= step
        jac[:, :, j] = (evaluate_batch(hi) - evaluate_batch(lo)) / (2.0 * step)[:, None]
    return jac


def jacobian_check(mop: MopDefinition, samples: int, rng) -> float:
    """Max relative error of the analytic Jacobian against central differences.

    Samples uniform in-bounds points; entries where both Jacobians are below
    1e-8 in magnitude are skipped, since relative error is meaningless there.
    """
    if samples < 1:
        raise InputError("need at least one sample")
    x = map_unit_to_box(rng.random((samples, mop.num_variables)), mop.bounds)
    analytic = mop.jacobian(x)
    numeric = finite_difference_jacobian(mop.evaluate_batch, x)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    mask = scale > 1e-8
    if not mask.any():
        return 0.0
    return float((np.abs(analytic - numeric)[mask] / scale[mask]).max())


def true_front_hv(mop: MopDefinition, reference) -> float:
    """Exact hypervolume of the problem's true Pareto front."""
    if mop.front_hypervolume is None:
        raise UnsupportedError(f"problem '{mop.name}' has no closed-form front")
    ref = np.asarray(reference, dtype=np.float64)
    if ref.shape != (mop.num_objectives,):
        raise InputError(f"reference point must have length {mop.num_objectives}")
    return float(mop.front_hypervolume(ref))


# ---------------------------------------------------------------------------
# Built-in two-objective family
# ---------------------------------------------------------------------------

_ZDT_N = 6
_ZDT_REF = (1.1, 1.1)


def _g_linear(tail: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w = tail.shape[1]
    g = 1.0 + 9.0 * tail.sum(axis=1) / w
    dg = np.full_like(tail, 9.0 / w)
    return g, dg


def _g_shifted(tail: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w = tail.shape[1]
    dev = tail - 0.2
    g = 1.0 + 9.0 * np.abs(dev).sum(axis=1) / w
    dg = 9.0 * np.sign(dev) / w
    return g, dg


def _g_coupled(tail: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w = tail.shape[1]
    diff = tail[:, :-1] - tail[:, 1:]
    g = 1.0 + 9.0 * (tail.sum(axis=1) + (diff**2).sum(axis=1)) / w
    dg = np.full_like(tail, 9.0 / w)
    dg[:, :-1] += 9.0 * 2.0 * diff / w
    dg[:, 1:] -= 9.0 * 2.0 * diff / w
    return g, dg


def _shape_convex(f1, g):
    # h(t) = 1 - sqrt(t); f2 = g - sqrt(f1 g)
    with np.errstate(divide="ignore"):
        value = g - np.sqrt(f1 * g)
        d_f1 = -0.5 * np.sqrt(g / f1)
        d_g = 1.0 - 0.5 * np.sqrt(f1 / g)
    return value, d_f1, d_g


def _shape_concave(f1, g):
    # h(t) = 1 - t^2; f2 = g - f1^2 / g
    value = g - f1**2 / g
    d_f1 = -2.0 * f1 / g
    d_g = 1.0 + (f1 / g) ** 2
    return value, d_f1, d_g


def _shape_blend(f1, g):
    # h(t) = 1 - 0.5 sqrt(t) - 0.5 t^2
    with np.errstate(divide="ignore"):
        value = g - 0.5 * np.sqrt(f1 * g) - 0.5 * f1**2 / g
        d_f1 = -0.25 * np.sqrt(g / f1) - f1 / g
        d_g = 1.0 - 0.25 * np.sqrt(f1 / g) + 0.5 * (f1 / g) ** 2
    return value, d_f1, d_g


# Integral of h over [0, 1]; the front hypervolume against (r1, r2) >= (1, 1)
# is r1 * r2 - integral.
_SHAPES = {
    "convex": (_shape_convex, 1.0 / 3.0),
    "concave": (_shape_concave, 2.0 / 3.0),
    "blend": (_shape_blend, 0.5),
}


def _make_zdt_problem(name: str, shape: str, g_fn) -> MopDefinition:
    shape_fn, h_integral = _SHAPES[shape]

    def evaluate_batch(x: np.ndarray) -> np.ndarray:
        f1 = x[:, 0]
        g, _ = g_fn(x[:, 1:])
        f2, _, _ = shape_fn(f1, g)
        return np.column_stack([f1, f2])

    def jacobian_batch(x: np.ndarray) -> np.ndarray:
        f1 = x[:, 0]
        g, dg = g_fn(x[:, 1:])
        _, d_f1, d_g = shape_fn(f1, g)
        jac = np.zeros((x.shape[0], 2, x.shape[1]), dtype=np.float64)
        jac[:, 0, 0] = 1.0
        jac[:, 1, 0] = d_f1
        jac[:, 1, 1:] = d_g[:, None] * dg
        return jac

    def front_hypervolume(ref: np.ndarray) -> float:
        if ref[0] < 1.0 or ref[1] < 1.0:
            raise UnsupportedError(
                f"closed-form front hypervolume of '{name}' needs a reference point >= (1, 1)"
            )
        return float(ref[0] * ref[1] - h_integral)

    def front_points(count: int) -> np.ndarray:
        # The front is where g reaches its minimum, 1.
        t = np.linspace(0.0, 1.0, count)
        return np.column_stack([t, shape_fn(t, 1.0)[0]])

    return MopDefinition(
        name=name,
        num_objectives=2,
        num_variables=_ZDT_N,
        bounds=unit_box(_ZDT_N),
        reference_point=np.array(_ZDT_REF),
        evaluate_batch=evaluate_batch,
        jacobian_batch=jacobian_batch,
        front_hypervolume=front_hypervolume,
        front_points=front_points,
    )


def _make_dtlz2(name: str = "dtlz2", num_variables: int = 6) -> MopDefinition:
    def evaluate_batch(x: np.ndarray) -> np.ndarray:
        a1 = x[:, 0] * (math.pi / 2.0)
        a2 = x[:, 1] * (math.pi / 2.0)
        g = ((x[:, 2:] - 0.5) ** 2).sum(axis=1)
        scale = 1.0 + g
        return np.column_stack(
            [
                scale * np.cos(a1) * np.cos(a2),
                scale * np.cos(a1) * np.sin(a2),
                scale * np.sin(a1),
            ]
        )

    def jacobian_batch(x: np.ndarray) -> np.ndarray:
        half_pi = math.pi / 2.0
        a1 = x[:, 0] * half_pi
        a2 = x[:, 1] * half_pi
        tail = x[:, 2:] - 0.5
        g = (tail**2).sum(axis=1)
        scale = 1.0 + g
        c1, s1 = np.cos(a1), np.sin(a1)
        c2, s2 = np.cos(a2), np.sin(a2)
        jac = np.zeros((x.shape[0], 3, x.shape[1]), dtype=np.float64)
        jac[:, 0, 0] = -scale * half_pi * s1 * c2
        jac[:, 0, 1] = -scale * half_pi * c1 * s2
        jac[:, 0, 2:] = 2.0 * tail * (c1 * c2)[:, None]
        jac[:, 1, 0] = -scale * half_pi * s1 * s2
        jac[:, 1, 1] = scale * half_pi * c1 * c2
        jac[:, 1, 2:] = 2.0 * tail * (c1 * s2)[:, None]
        jac[:, 2, 0] = scale * half_pi * c1
        jac[:, 2, 2:] = 2.0 * tail * s1[:, None]
        return jac

    def front_hypervolume(ref: np.ndarray) -> float:
        # Front is the unit-sphere octant; the dominated region inside the
        # reference box is the cube minus the octant ball.
        if not np.allclose(ref, ref[0]) or ref[0] < 1.0:
            raise UnsupportedError(
                "closed-form front hypervolume of 'dtlz2' needs an equal-component reference >= 1"
            )
        r = float(ref[0])
        return r**3 - math.pi / 6.0

    def front_points(count: int) -> np.ndarray:
        side = max(2, int(math.sqrt(count)))
        a1, a2 = np.meshgrid(
            np.linspace(0.0, math.pi / 2.0, side), np.linspace(0.0, math.pi / 2.0, side)
        )
        a1, a2 = a1.ravel(), a2.ravel()
        return np.column_stack([np.cos(a1) * np.cos(a2), np.cos(a1) * np.sin(a2), np.sin(a1)])

    return MopDefinition(
        name=name,
        num_objectives=3,
        num_variables=num_variables,
        bounds=unit_box(num_variables),
        reference_point=np.array([1.1, 1.1, 1.1]),
        evaluate_batch=evaluate_batch,
        jacobian_batch=jacobian_batch,
        front_hypervolume=front_hypervolume,
        front_points=front_points,
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, MopDefinition] = {}

SYNTHETIC_2D = ("zdt1", "zdt2", "zdt1-shifted", "zdt2-shifted", "zdt1-rotatedg", "zdt2-mixed")
BUILTIN_SUITES = {"synthetic-2d": SYNTHETIC_2D}


def register_problem(problem: MopDefinition, replace_existing: bool = False) -> None:
    """Add a problem under its name, so suites and configs can name it."""
    if problem.name in _REGISTRY and not replace_existing:
        raise ConfigurationError(f"problem '{problem.name}' is already registered")
    _REGISTRY[problem.name] = problem


def get_problem(name: str) -> MopDefinition:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown problem '{name}'; registered: {sorted(_REGISTRY)}"
        ) from None


def builtin_suite(name: str) -> ProblemSuite:
    """Return one of the shipped suites: ``synthetic-2d`` holds the six
    differentiable two-objective problems."""
    if name not in BUILTIN_SUITES:
        raise ConfigurationError(f"unknown suite '{name}'; expected {' or '.join(map(repr, BUILTIN_SUITES))}")
    return ProblemSuite(name, tuple(get_problem(p) for p in BUILTIN_SUITES[name]))


def suite_from_names(names, suite_name: str = "custom") -> ProblemSuite:
    """Build a suite from registered problem names."""
    return ProblemSuite(suite_name, tuple(get_problem(n) for n in names))


def suite_from_spec(spec) -> ProblemSuite:
    """The suite a config, a checkpoint or ``copsl front --suite`` names: a
    built-in suite's name, a string of one or more comma-separated problem
    names, or a list or tuple of registered problem names."""
    if isinstance(spec, str):
        if spec in BUILTIN_SUITES:
            return builtin_suite(spec)
        spec = [name.strip() for name in spec.split(",")]
        unknown = [name for name in spec if name not in _REGISTRY]
        if unknown:
            raise ConfigurationError(
                f"unknown problem {unknown[0]!r}; a suite string names a built-in suite "
                f"({' or '.join(map(repr, BUILTIN_SUITES))}) or registered problems {sorted(_REGISTRY)}"
            )
    if isinstance(spec, (list, tuple)) and all(isinstance(name, str) for name in spec):
        return suite_from_names(spec)
    shown = list(spec) if isinstance(spec, tuple) else spec  # the JSON list a config holds
    raise ConfigurationError(f"suite must be a suite name or a list of problem names, got {shown!r}")


def _register_builtins() -> None:
    register_problem(_make_zdt_problem("zdt1", "convex", _g_linear))
    register_problem(_make_zdt_problem("zdt2", "concave", _g_linear))
    register_problem(_make_zdt_problem("zdt1-shifted", "convex", _g_shifted))
    register_problem(_make_zdt_problem("zdt2-shifted", "concave", _g_shifted))
    register_problem(_make_zdt_problem("zdt1-rotatedg", "convex", _g_coupled))
    register_problem(_make_zdt_problem("zdt2-mixed", "blend", _g_linear))
    register_problem(_make_dtlz2())


_register_builtins()
