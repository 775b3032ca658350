"""The names the benchmark in ``perfbench/`` wraps, patches and calls exist in copsl,
and the benchmark's own self-test passes against this checkout.

``perfbench/tracing.py`` is loaded read-only. Without these checks, renaming or
deleting a traced function breaks ``perfbench/run.py --trace 1``, and a change
that breaks a workload's output checks breaks ``perfbench/run.py``, while every
other test still passes.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from operator import attrgetter

import pytest

import copsl
import copsl.cli  # noqa: F401  cli.main is traced, and the package does not import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")
TRACING = os.path.join(PERFBENCH, "tracing.py")

# Attributes the workloads call or patch, relative to the copsl package.
WORKLOAD_NAMES = (
    "trainer.sample_preferences",
    "trainer.evaluate_model",
    "trainer.train_copsl",
    "model.parameter_arrays",
    "metrics.write_front_csv",
    "metrics.read_front_csv",
    "cli.main",
    "CopslError",
    "RunConfig.resolve_suite",
    "train_copsl",
    "evaluate_model",
    "save_checkpoint",
    "load_checkpoint",
    "count_params",
    "count_flops",
    "uniform_preference_grid",
    "true_front_hv",
)


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced(tracing):
    """(label, owner module, dotted attribute) of every span and counter target."""
    return [
        (name, importlib.import_module(f"copsl.{module_name}"), attribute)
        for name, module_name, attribute in tracing.SPAN_TARGETS + tracing.COUNT_TARGETS
    ]


def resolve(owner, dotted: str):
    try:
        return attrgetter(dotted)(owner)
    except AttributeError:
        return None


def test_every_traced_attribute_resolves(tracing):
    missing = [
        f"{name}: {module.__name__}.{attribute}"
        for name, module, attribute in traced(tracing)
        if not callable(resolve(module, attribute))
    ]
    assert not missing


def namespaces(tracing) -> dict:
    """Every copsl module's and every traced class's attributes, by identity."""
    spaces = {module.__name__: vars(module) for module in tracing.copsl_modules()}
    for _, module, attribute in traced(tracing):
        if "." in attribute:
            owner = attrgetter(attribute.rsplit(".", 1)[0])(module)
            spaces[f"{module.__name__}.{owner.__name__}"] = vars(owner)
    return {(space, key): value for space, names in spaces.items() for key, value in dict(names).items()}


def test_install_then_uninstall_restores_every_original(tracing):
    before = namespaces(tracing)
    originals = [(module, attribute, attrgetter(attribute)(module)) for _, module, attribute in traced(tracing)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        unwrapped = [f"{m.__name__}.{a}" for m, a, original in originals if attrgetter(a)(m) is original]
        assert not unwrapped
    finally:
        tracer.uninstall()
    after = namespaces(tracing)
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert not changed


def test_names_the_workloads_use_exist():
    missing = [name for name in WORKLOAD_NAMES if resolve(copsl, name) is None]
    assert not missing


def test_benchmark_selftest_passes():
    # Runs every workload at a tiny size, traced and untraced; about 10 s.
    selftest = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "selftest.py")], capture_output=True, text=True, timeout=600
    )
    assert selftest.returncode == 0, selftest.stdout + selftest.stderr
    assert "selftest passed" in selftest.stdout.splitlines()
