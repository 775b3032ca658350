"""The run config and its file: a strict JSON object of :class:`RunConfig`'s
fields plus ``config_version``, read by :func:`load_config`.

Every field is checked once, when a ``RunConfig`` is built, by its rule in
``_RULES``: the kind of value it takes, and a range where the config owns it.
The other ranges are checked elsewhere: the loss's by :class:`LossSpec`,
``shared_depth``'s by ``ModelArchitecture``, the suite by
:func:`suite_from_spec`, and what depends on the suite by ``check_suite``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .model import ModelArchitecture
from .problems import ProblemSuite, _suite_names, suite_from_spec
from .sampling import uniform_preference_grid
from .scalarize import LossSpec

CONFIG_VERSION = 1


def _number(kind):
    return lambda value: isinstance(value, kind) and not isinstance(value, bool)  # no number field takes a bool


def _list_of(test):
    return lambda value: isinstance(value, (list, tuple)) and all(map(test, value))


def _real(value) -> bool:
    """A number but not a bool, that a float can hold: ``float(10**400)`` overflows."""
    if not _number(numbers.Real)(value):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _at_least(bound):
    return (f"be >= {bound}", lambda value: value >= bound)


def _each(requirement, test):
    return (requirement, lambda values: values is None or all(map(test, values)))


# A kind is (requirement, test, store): a value that fails ``test`` is
# rejected as "<field> must <requirement>", and one that passes is kept as
# ``store(value)``, a plain Python value, since a NumPy scalar would not
# serialize as JSON. A range is (requirement, test) on the stored value.
_INTEGER = ("be an integer", _number(numbers.Integral), int)
_REAL = ("be a real number", _real, float)
_BOOL = ("be true or false", lambda value: isinstance(value, (bool, np.bool_)), bool)
_STRING = ("be a string", lambda value: isinstance(value, str), str)
_INTEGERS = ("be integers", _list_of(_INTEGER[1]), lambda value: tuple(map(int, value)))
_OPTIONAL_REALS = (
    "be a list of real numbers or null",
    lambda value: value is None or _list_of(_REAL[1])(value),
    lambda value: None if value is None else tuple(map(float, value)),
)
_SUITE = ("", lambda value: True, lambda value: tuple(value) if isinstance(value, (list, tuple)) else value)
_UNIT_INTERVAL = ("lie in [0, 1)", lambda value: 0.0 <= value < 1.0)
_POSITIVE = ("be finite and positive", lambda value: 0.0 < value < math.inf)

# One rule per field, in field order: its kind, and the range the config owns
# (None where a domain type owns it, or where any value of the kind will do).
_RULES = {
    "suite": (_SUITE, None),  # suite_from_spec checks it where the suite is built
    "loss": (_STRING, None),
    "gamma": (_REAL, None),
    "epsilon": (_REAL, None),
    "iterations": (_INTEGER, _at_least(1)),
    "batch_size": (_INTEGER, _at_least(1)),
    "learning_rate": (_REAL, _POSITIVE),
    "adam_beta1": (_REAL, _UNIT_INTERVAL),
    "adam_beta2": (_REAL, _UNIT_INTERVAL),
    "adam_epsilon": (_REAL, _POSITIVE),
    "dirichlet_alpha": (_OPTIONAL_REALS, _each(*_POSITIVE)),
    "weights": (_OPTIONAL_REALS, _each("be finite and nonnegative", lambda value: 0.0 <= value < math.inf)),
    "hidden_sizes": (_INTEGERS, None),
    "shared_depth": (_INTEGER, None),
    "seed": (_INTEGER, _at_least(0)),
    "eval_grid": (_INTEGER, _at_least(0)),
    "eval_interval": (_INTEGER, _at_least(1)),
    "strict_weight_gating": (_BOOL, None),
    "trace_params": (_BOOL, None),
}


def _shown(value) -> str:
    """``repr``, but a tuple as the JSON list a config holds, and an integer
    past Python's int-to-str digit limit, which ``repr`` refuses, by its size."""
    if isinstance(value, (list, tuple)):
        return f"[{', '.join(map(_shown, value))}]"
    try:
        return repr(value)
    except ValueError:
        return f"an integer of {value.bit_length()} bits"


def _invalid(name: str, requirement: str, value) -> ConfigurationError:
    return ConfigurationError(f"{name} must {requirement}, got {_shown(value)}")


@dataclass(frozen=True)
class RunConfig:
    """Everything a training run depends on, serializable as flat JSON.

    ``suite`` is a built-in suite name, one or more comma-separated problem
    names, or a list of registered problem names. ``eval_grid`` of 0 picks
    the default evaluation grid size (100 preferences for two objectives, a
    105-point lattice for three).
    """

    suite: object = "synthetic-2d"
    loss: str = "tch"
    gamma: float = 100.0
    epsilon: float = 1e-3
    iterations: int = 500
    batch_size: int = 15
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    dirichlet_alpha: Optional[tuple[float, ...]] = None
    weights: Optional[tuple[float, ...]] = None
    hidden_sizes: tuple[int, ...] = (256, 256)
    shared_depth: int = 1
    seed: int = 0
    eval_grid: int = 0
    eval_interval: int = 10
    strict_weight_gating: bool = False
    trace_params: bool = False

    def __post_init__(self):
        for name, ((requirement, test, store), bounds) in _RULES.items():
            value = getattr(self, name)
            if not test(value):
                raise _invalid(name, requirement, value)
            value = store(value)
            if bounds is not None and not bounds[1](value):
                raise _invalid(name, bounds[0], value)
            object.__setattr__(self, name, value)
        self.loss_spec()  # checks the loss kind and its hyperparameters

    def check_suite(self, suite: ProblemSuite) -> tuple[ModelArchitecture, np.ndarray, np.ndarray, np.ndarray]:
        """Check the config against the problems it trains, before any training.

        The suite must be the one ``suite`` names, problem for problem, so
        that the run's record reruns it. Returns the model architecture
        (which checks ``shared_depth`` against ``hidden_sizes``, and the
        model's size), the per-problem weights, the Dirichlet parameters
        and the evaluation grid; raises :class:`ConfigurationError` naming
        the first mismatch.
        """
        given, named = [mop.name for mop in suite.problems], _suite_names(self.suite)
        if given != named:
            raise ConfigurationError(f"the suite given, {given}, is not the one the config names, {named}")
        k, m = suite.num_mops, suite.num_objectives
        weights = np.ones(k) if self.weights is None else np.asarray(self.weights, dtype=np.float64)
        if weights.shape != (k,):
            raise ConfigurationError(f"expected {k} MOP weights, got {weights.shape[0]}")
        alpha = np.ones(m) if self.dirichlet_alpha is None else np.asarray(self.dirichlet_alpha, dtype=np.float64)
        if alpha.shape != (m,):
            raise ConfigurationError(f"expected {m} Dirichlet parameters, got {alpha.shape[0]}")
        arch = ModelArchitecture(
            num_objectives=m,
            hidden_sizes=self.hidden_sizes,
            shared_depth=self.shared_depth,
            output_dims=suite.output_dims,
        )
        grid = uniform_preference_grid(m, self.eval_grid or (100 if m == 2 else 105))
        return arch, weights, alpha, grid

    def loss_spec(self) -> LossSpec:
        return LossSpec(kind=self.loss, gamma=self.gamma, epsilon=self.epsilon)

    def resolve_suite(self) -> ProblemSuite:
        return suite_from_spec(self.suite)

    def to_dict(self) -> dict:
        """The config as JSON values: each tuple field as a list."""
        data = dataclasses.asdict(self)
        return {name: list(value) if isinstance(value, tuple) else value for name, value in data.items()}

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigurationError("config must be a JSON object")
        unknown = sorted(set(data) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ConfigurationError(f"unknown config keys: {unknown}")
        return cls(**data)


def load_config(path: str) -> RunConfig:
    """Parse a JSON config file with strict key checking."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path!r}: {exc}") from exc
    except ValueError as exc:  # bad UTF-8 or JSON, or an integer past Python's int-to-str digit limit
        raise ConfigurationError(f"cannot parse config {path!r}: {exc}") from exc
    version = data.pop("config_version", CONFIG_VERSION) if isinstance(data, dict) else CONFIG_VERSION
    if type(version) is not int or version != CONFIG_VERSION:  # JSON true and 1.0 equal 1
        raise ConfigurationError(f"unsupported config_version {version!r}, expected {CONFIG_VERSION}")
    return RunConfig.from_dict(data)  # which rejects anything but a JSON object


def default_config_json() -> str:
    return json.dumps({"config_version": CONFIG_VERSION, **RunConfig().to_dict()}, indent=2, sort_keys=True)
