"""Spans and counters around copsl's public functions, installed from outside.

The benchmark never edits the package. It replaces each traced function, in
every ``copsl.*`` module namespace that holds a reference to it, with a
wrapper that records a span. A span's self time is its duration minus the
time covered by the spans it encloses, so the self times of all spans add up
to the wall time the spans cover, with nothing counted twice. Spans are
aggregated as they close (self time and calls per name), which keeps memory
flat over runs of hundreds of thousands of calls.

Besides spans, a few counters record work where it happens: ``DenseLayer``
constructions, ``hv_2d`` calls made inside ``hv_3d``, points into and out of
``nondominated_filter``, normal draws per gamma variate, and bytes handed to
the atomic writer.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

# (span name, module, attribute). A dotted attribute names a method on a
# class in that module. The span name is "<layer>.<operation>", where the
# layer is the copsl module the function belongs to.
SPAN_TARGETS = (
    ("sampling.sample_preferences", "sampling", "sample_preferences"),
    ("nn.layer_forward", "nn", "layer_forward"),
    ("nn.layer_backward", "nn", "layer_backward"),
    ("nn.dense_layer_build", "nn", "DenseLayer.__post_init__"),
    ("model.build_model", "model", "build_model"),
    ("model.forward_all", "model", "forward_all"),
    ("model.backward_all", "model", "backward_all"),
    ("model.save_checkpoint", "model", "save_checkpoint"),
    ("model.load_checkpoint", "model", "load_checkpoint"),
    ("problems.resolve_suite", "problems", "builtin_suite"),
    ("problems.resolve_suite", "problems", "suite_from_names"),
    ("problems.evaluate", "problems", "MopDefinition.evaluate"),
    ("problems.jacobian", "problems", "MopDefinition.jacobian"),
    ("problems.map_unit_to_box", "problems", "map_unit_to_box"),
    ("problems.true_front_hv", "problems", "true_front_hv"),
    ("scalarize.batch_loss", "scalarize", "batch_loss"),
    ("scalarize.chain_to_decision", "scalarize", "chain_to_decision"),
    ("scalarize.ideal_update", "scalarize", "IdealPointTracker.update"),
    ("scalarize.total_loss", "scalarize", "total_loss"),
    ("optim.init_adam_state", "optim", "init_adam_state"),
    ("optim.adam_step", "optim", "adam_step"),
    ("metrics.nondominated_filter", "metrics", "nondominated_filter"),
    ("metrics.hv_2d", "metrics", "hv_2d"),
    ("metrics.hv_3d", "metrics", "hv_3d"),
    ("metrics.log_hv_diff", "metrics", "log_hv_diff"),
    ("metrics.write_front_csv", "metrics", "write_front_csv"),
    ("metrics.read_front_csv", "metrics", "read_front_csv"),
    ("trainer.train_copsl", "trainer", "train_copsl"),
    ("trainer.evaluate_model", "trainer", "evaluate_model"),
    ("cli.main", "cli", "main"),
    ("ioutil.atomic_write", "ioutil", "atomic_write_bytes"),
)

# Counters that are not spans: calls are tallied, time is not taken.
COUNT_TARGETS = (
    ("sampling.gamma_variates", "sampling", "sample_gamma"),
    ("sampling.normal_draws", "sampling", "RngStream.standard_normal"),
)


def copsl_modules() -> list:
    return [m for name, m in list(sys.modules.items()) if name == "copsl" or name.startswith("copsl.")]


def _resolve(module, attribute: str):
    owner = module
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Patches:
    """Replacements of package attributes, undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def swap_everywhere(self, original, replacement) -> None:
        """Point every copsl namespace that holds ``original`` at ``replacement``."""
        for module in copsl_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self.set(module, name, replacement)

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class Tracer:
    """Aggregated spans and counters over the wrapped copsl functions.

    With ``track_alloc`` set, the tracer also records the peak traced
    allocation (via tracemalloc, which the caller starts) inside the
    outermost ``metrics`` span; that mode distorts timings, so it belongs in
    its own pass.
    """

    def __init__(self, track_alloc: bool = False):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.track_alloc = track_alloc
        self.peak_alloc_bytes = 0
        self._stack: list[list[float]] = []  # per open span: [child seconds]
        self._open: Counter = Counter()  # open spans per name
        self._metrics_open = 0
        self._patches = Patches()

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        targets = [(self._span, t) for t in SPAN_TARGETS] + [(self._counter, t) for t in COUNT_TARGETS]
        for make, (name, module_name, attribute) in targets:
            module = sys.modules[f"copsl.{module_name}"]
            owner, leaf = _resolve(module, attribute)
            original = getattr(owner, leaf)
            wrapped = make(name, original)
            if owner is module:
                self._patches.swap_everywhere(original, wrapped)
            else:
                self._patches.set(owner, leaf, wrapped)

    def uninstall(self) -> None:
        self._patches.undo()

    # -- wrappers --------------------------------------------------------

    def _span(self, name: str, fn):
        tracer = self
        observe = _OBSERVERS.get(name)
        is_metrics = name.startswith("metrics.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "metrics.hv_2d" and tracer._open["metrics.hv_3d"]:
                tracer.counts["metrics.hv_2d_in_hv_3d"] += 1
            outermost_metrics = tracer.track_alloc and is_metrics and not tracer._metrics_open
            if outermost_metrics:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            frame = [0.0]
            tracer._stack.append(frame)
            tracer._open[name] += 1
            tracer._metrics_open += is_metrics
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._open[name] -= 1
                tracer._metrics_open -= is_metrics
                tracer._stack.pop()
                tracer.self_s[name] += elapsed - frame[0]
                tracer.calls[name] += 1
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
                if outermost_metrics:
                    peak = tracemalloc.get_traced_memory()[1] - base
                    tracer.peak_alloc_bytes = max(tracer.peak_alloc_bytes, peak)
            if observe is not None:
                observe(tracer.counts, args, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results ---------------------------------------------------------

    def covered_s(self) -> float:
        return sum(self.self_s.values())

    def layer_self_s(self) -> dict[str, float]:
        layers: dict[str, float] = defaultdict(float)
        for name, seconds in self.self_s.items():
            layers[name.split(".", 1)[0]] += seconds
        return dict(layers)


def _observe_filter(counts, args, result) -> None:
    counts["metrics.filter_points_in"] += len(args[0])
    counts["metrics.filter_points_out"] += len(result)


def _observe_write(counts, args, result) -> None:
    counts["ioutil.bytes_written"] += len(args[1])


_OBSERVERS = {
    "metrics.nondominated_filter": _observe_filter,
    "ioutil.atomic_write": _observe_write,
}
