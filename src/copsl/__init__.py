"""Collaborative Pareto set learning.

Trains one preference-conditioned model, a shared trunk plus one head per
problem, to approximate the Pareto sets of several multi-objective problems
at once, alongside the single-problem baseline, exact hypervolume metrics,
and a shared-depth ablation harness.
"""

from .config import RunConfig
from .errors import (
    CheckpointError,
    ConfigurationError,
    CopslError,
    InputError,
    InternalError,
    TrainingDivergedError,
    UnsupportedError,
)
from .metrics import hv_2d, hv_3d, log_hv_diff, nondominated_filter
from .model import (
    CoPslModel,
    ModelArchitecture,
    build_model,
    count_flops,
    count_params,
    load_checkpoint,
    save_checkpoint,
)
from .problems import (
    BoxBounds,
    MopDefinition,
    ProblemSuite,
    builtin_suite,
    get_problem,
    register_problem,
    suite_from_names,
    true_front_hv,
)
from .sampling import RngStream, sample_preferences, uniform_preference_grid
from .scalarize import IdealPointTracker, LossSpec
from .trainer import RunRecord, evaluate_model, run_ablation, run_batch, train_copsl, train_psl

__version__ = "0.1.0"

__all__ = [
    "BoxBounds",
    "CheckpointError",
    "ConfigurationError",
    "CoPslModel",
    "CopslError",
    "IdealPointTracker",
    "InputError",
    "InternalError",
    "LossSpec",
    "ModelArchitecture",
    "MopDefinition",
    "ProblemSuite",
    "RngStream",
    "RunConfig",
    "RunRecord",
    "TrainingDivergedError",
    "UnsupportedError",
    "build_model",
    "builtin_suite",
    "count_flops",
    "count_params",
    "evaluate_model",
    "get_problem",
    "hv_2d",
    "hv_3d",
    "load_checkpoint",
    "log_hv_diff",
    "nondominated_filter",
    "register_problem",
    "run_ablation",
    "run_batch",
    "sample_preferences",
    "save_checkpoint",
    "suite_from_names",
    "train_copsl",
    "train_psl",
    "true_front_hv",
    "uniform_preference_grid",
]
