"""copsl benchmark: one workload per run, end-to-end metrics or a traced split.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload suite6-train --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

``--trace 0`` measures with tracing off and reports the end-to-end metrics.
``--trace 1`` runs one untraced pass, then traced passes for ``--seconds``,
then one pass under tracemalloc, and reports the per-layer metrics. ``all``
runs every workload in its own process and prints the end-to-end metrics
under their per-workload names. Every run prints its environment, one line
per metric with its unit, and, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The end-to-end metrics take the fast end of what a run measured: the fastest
pass, the 5th percentile of a repeated operation, and the mean of a
sequence of unlike operations in the pass where it was least. Other tenants'
load on a shared host only ever adds time. On a 2-vCPU virtual machine it
made each vCPU up to 1.5x slower for seconds at a time, independently of the
other, so that a run's median step time moved by up to a fifth between runs
of the same code and its 99th percentile by up to a half, while the fast end
moved less. Medians and the tail are still measured and printed beside the
metrics (``also`` lines), and ``all`` reports them under the names of the
workload's own metrics.

The package is imported from ``src/`` of the checkout this file sits in;
without it the run fails. BLAS is pinned to one thread: on two cores
OpenBLAS's second thread spins for no gain in wall time and made step times
swing with whatever else the machine ran. Passes alternate between the CPUs
the process may use (see ``run_passes``), so that a run samples both vCPUs.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import numpy as np  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, make_workdir, make_workload, remove_workdir  # noqa: E402

# End-to-end metrics, reported for every workload: (name, unit, meaning).
END_TO_END = (
    ("setup_s", "s", "median of the set-ups repeated before and between passes: copsl import and suite resolution, plus training and writing the two checkpoints on front-export"),
    ("pass_s_min", "s", "wall time of the fastest pass: a train_copsl run, or the front-export request sequence"),
    ("pass_cpu_s_min", "s", "process CPU time of the pass that took the least"),
    ("op_ms_fast", "ms", "5th percentile of the training iterations that do not evaluate, or on front-export the mean copsl front request of the pass where it was least"),
    ("eval_ms_fast", "ms", "5th percentile of the evaluate_model calls in training, or on front-export the mean copsl hv request of the pass where it was least"),
    ("points_per_s_max", "points/s", "preference rows the model mapped, times heads, per second of the fastest pass"),
    ("final_hv_ratio", "ratio", "mean final hypervolume over true-front hypervolume, per problem, over the quality seeds or exported fronts"),
    ("peak_rss_mb", "MB", "peak resident memory of the workload's process"),
)

# Measured and printed, not gated: (name, unit, meaning).
ALSO = (
    ("pass_s_p50", "s", "median wall time of one pass"),
    ("pass_cpu_s_p50", "s", "median process CPU time of one pass"),
    ("op_ms_p50", "ms", "median over passes of the median time of one operation"),
    ("op_ms_tail", "ms", "operation time over all passes at the highest percentile with at least 10 samples beyond it"),
    ("eval_ms_p50", "ms", "median over passes of the median time of one evaluation or copsl hv request"),
    ("points_per_s_p50", "points/s", "median over passes of points per second"),
)

# Spans reported per layer, each as .self_ms, .calls and .share.
REPORTED_SPANS = (
    "optim.adam_step",
    "nn.layer_forward",
    "nn.layer_backward",
    "nn.dense_layer_build",
    "model.forward_all",
    "model.backward_all",
    "model.load_checkpoint",
    "metrics.nondominated_filter",
    "metrics.hv_2d",
    "metrics.hv_3d",
    "metrics.write_front_csv",
    "metrics.read_front_csv",
    "sampling.sample_preferences",
    "problems.evaluate",
    "problems.jacobian",
    "problems.map_unit_to_box",
    "scalarize.batch_loss",
    "scalarize.chain_to_decision",
    "scalarize.ideal_update",
    "trainer.evaluate_model",
    "trainer.train_copsl",
    "cli.main",
    "ioutil.atomic_write",
)

# Per-layer metrics other than spans: (name, unit, kind). "computed" values
# follow from sizes, "counted" ones are tallied at the wrapped calls, and
# "measured" ones are timed.
DERIVED = (
    ("nn.dense_layer_builds_per_iter", "count", "counted"),
    ("model.params", "count", "computed"),
    ("model.flops_per_batch", "count", "computed"),
    ("optim.bytes_per_step", "bytes", "computed"),
    ("optim.achieved_GBps", "GB/s", "measured"),
    ("machine.copy_GBps", "GB/s", "measured"),
    ("metrics.filter_keep_ratio", "ratio", "counted"),
    ("metrics.hv2d_calls_per_hv3d", "count", "counted"),
    ("metrics.peak_alloc_mb", "MB", "measured"),
    ("sampling.normal_draws_per_gamma", "count", "counted"),
    ("ioutil.bytes_written", "bytes/pass", "counted"),
    ("trace.overhead_s", "s", "measured"),
    ("trace.coverage", "ratio", "measured"),
)

PER_LAYER = tuple(
    (f"{span}.{suffix}", unit)
    for span in REPORTED_SPANS
    for suffix, unit in (("self_ms", "ms/pass"), ("calls", "calls/pass"), ("share", "ratio"))
) + tuple((name, unit) for name, unit, _ in DERIVED)

TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)

# An Adam step reads parameters, gradients and both moments and writes both
# moments and the new parameters: seven float64 arrays of the model's size.
ADAM_ARRAYS_PER_STEP = 7


def tail_percentile(min_samples: int) -> float:
    """Highest percentile that leaves at least 10 of ``min_samples`` beyond it.

    Fixed from the workload's guaranteed sample count, not the count a run
    happened to reach, so a faster program is not judged at a higher
    percentile.
    """
    for p in TAIL_PERCENTILES:
        if min_samples - math.ceil(p / 100 * min_samples) >= 10:
            return p
    return 50.0


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def blas_threads():
    """Thread count the loaded OpenBLAS reports, else the environment setting."""
    with open("/proc/self/maps", encoding="utf-8") as handle:
        paths = sorted({line.split()[-1] for line in handle if "openblas" in line and line.rstrip().endswith(".so")})
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS")


def copy_bandwidth_GBps(megabytes: int = 64, repeats: int = 7) -> float:
    """Large-array copy rate, counting bytes read plus bytes written."""
    src = np.ones(megabytes * 2**20 // 8)
    dst = np.empty_like(src)
    times = []
    for _ in range(repeats):
        began = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - began)
    return 2 * src.nbytes / statistics.median(times) / 1e9


def import_copsl_from_checkout() -> None:
    """Put the checkout's ``src/`` first on the path, or stop if it is missing."""
    if not os.path.isfile(os.path.join(SRC, "copsl", "__init__.py")):
        raise SystemExit(f"error: copsl sources not found under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def set_up(workload) -> list[float]:
    """One round of ``workload.setup_repeats`` timed set-ups."""
    times = []
    for _ in range(workload.setup_repeats):
        began = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - began)
    return times


def run_passes(workload, seconds: float, first_index: int = 0, setups: list | None = None) -> list:
    """Passes until ``seconds`` would be exceeded, and never fewer than the
    workload's minimum counted from ``first_index``.

    Successive passes are pinned to the allowed CPUs in turn, so that a run
    samples every CPU instead of the one the scheduler happened to leave it
    on. With ``setups`` given, another round of set-ups follows each pass and
    its times are appended, so that set-up time samples the whole run, as the
    passes do, rather than the moment before the first pass.
    """
    cpus = sorted(os.sched_getaffinity(0))
    passes = []
    began = time.perf_counter()
    last = 0.0
    try:
        while len(passes) < workload.min_passes or time.perf_counter() - began + last <= seconds:
            pass_began = time.perf_counter()
            index = first_index + len(passes)
            os.sched_setaffinity(0, {cpus[index % len(cpus)]})
            passes.append(workload.run_pass(index))
            if setups is not None:
                setups += set_up(workload)
            last = time.perf_counter() - pass_began
    finally:
        os.sched_setaffinity(0, cpus)
    return passes


def fast_ms(passes, attribute: str, alike: bool) -> float:
    """The fast end of an operation's time in a run.

    With ``alike``, every entry repeats one operation, and this is the 5th
    percentile of all of them. Otherwise a pass is a sequence of unlike
    operations, and this is their mean in the pass where it was least.
    """
    lists = [getattr(p, attribute) for p in passes]
    if alike:
        return percentile([ms for values in lists for ms in values], 5)
    return min(statistics.fmean(values) for values in lists if values)


def summarize(workload, setups: list[float], passes: list) -> tuple[dict, dict]:
    """End-to-end metrics plus the measurements printed beside them."""
    ops = [ms for p in passes for ms in p.op_ms]
    evals = [ms for p in passes for ms in p.eval_ms]
    tail_p = tail_percentile(workload.min_passes * workload.ops_per_pass())
    ratios = [r for p in passes for r in p.hv_ratios]
    fastest = min(passes, key=lambda p: p.wall_s)
    values = {
        "setup_s": statistics.median(setups),
        "pass_s_min": fastest.wall_s,
        "pass_cpu_s_min": min(p.cpu_s for p in passes),
        "op_ms_fast": fast_ms(passes, "op_ms", workload.ops_alike),
        "eval_ms_fast": fast_ms(passes, "eval_ms", workload.ops_alike),
        "points_per_s_max": fastest.points / fastest.wall_s,
        "final_hv_ratio": statistics.fmean(ratios) if ratios else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    also = {
        "pass_s_p50": statistics.median(p.wall_s for p in passes),
        "pass_cpu_s_p50": statistics.median(p.cpu_s for p in passes),
        "op_ms_p50": statistics.median(statistics.median(p.op_ms) for p in passes if p.op_ms),
        "op_ms_tail": percentile(ops, tail_p),
        "eval_ms_p50": statistics.median(statistics.median(p.eval_ms) for p in passes if p.eval_ms),
        "points_per_s_p50": statistics.median(p.points / p.wall_s for p in passes),
    }
    gaps = [g for p in passes for g in p.log_hv_gaps]
    notes = {
        "passes": len(passes),
        "pass_walls": [p.wall_s for p in passes],
        "setups": len(setups),
        "operations": len(ops),
        "evaluations": len(evals),
        "tail_percentile": tail_p,
        "final_log_hv_gap": statistics.fmean(gaps) if gaps else None,
        "also": also,
    }
    return values, notes


def traced_metrics(workload, passes_untraced, tracer, traced_passes, traced_wall, alloc_tracer) -> dict:
    n = len(traced_passes)
    values = {}
    for span in REPORTED_SPANS:
        values[f"{span}.self_ms"] = 1e3 * tracer.self_s.get(span, 0.0) / n
        values[f"{span}.calls"] = tracer.calls.get(span, 0) / n
        values[f"{span}.share"] = tracer.self_s.get(span, 0.0) / traced_wall
    counts = tracer.counts
    steps = tracer.calls.get("optim.adam_step", 0)
    model = workload.model_counts()
    bytes_per_step = ADAM_ARRAYS_PER_STEP * 8 * model["params"]
    adam_s = tracer.self_s.get("optim.adam_step", 0.0)
    hv3d = tracer.calls.get("metrics.hv_3d", 0)
    values.update(
        {
            "nn.dense_layer_builds_per_iter": tracer.calls.get("nn.dense_layer_build", 0) / steps if steps else 0.0,
            "model.params": model["params"],
            "model.flops_per_batch": model["flops_per_batch"],
            "optim.bytes_per_step": bytes_per_step,
            "optim.achieved_GBps": bytes_per_step * steps / adam_s / 1e9 if adam_s else 0.0,
            "machine.copy_GBps": copy_bandwidth_GBps(),
            "metrics.filter_keep_ratio": (
                counts["metrics.filter_points_out"] / counts["metrics.filter_points_in"]
                if counts["metrics.filter_points_in"]
                else 0.0
            ),
            "metrics.hv2d_calls_per_hv3d": counts["metrics.hv_2d_in_hv_3d"] / hv3d if hv3d else 0.0,
            "metrics.peak_alloc_mb": alloc_tracer.peak_alloc_bytes / 2**20,
            "sampling.normal_draws_per_gamma": (
                counts["sampling.normal_draws"] / counts["sampling.gamma_variates"]
                if counts["sampling.gamma_variates"]
                else 0.0
            ),
            "ioutil.bytes_written": counts["ioutil.bytes_written"] / n,
            "trace.overhead_s": statistics.median(p.wall_s for p in traced_passes)
            - statistics.median(p.wall_s for p in passes_untraced),
            "trace.coverage": tracer.covered_s() / traced_wall,
        }
    )
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Run one workload; returns the result object, the report lines and the
    generated inputs."""
    workdir = make_workdir(ROOT, name)
    try:
        workload = make_workload(name, seed, workdir, size)
        setups = set_up(workload)
        inputs = workload.inputs()
        lines = [f"workload {name} seed {seed} inputs {json.dumps(inputs)}"]
        if not trace:
            passes = run_passes(workload, seconds, setups=setups)
            values, notes = summarize(workload, setups, passes)
            lines.append(f"notes {json.dumps(notes)}")
            lines += [f"metric {m} {values[m]!r} {u} -- {meaning}" for m, u, meaning in END_TO_END]
            lines += [f"also {m} {notes['also'][m]!r} {u} -- {meaning}" for m, u, meaning in ALSO]
        else:
            untraced = [workload.run_pass(0)]
            tracer = Tracer()
            tracer.install()
            began = time.perf_counter()
            try:
                traced = run_passes(workload, seconds, first_index=1)
            finally:
                traced_wall = time.perf_counter() - began
                tracer.uninstall()
            alloc_tracer = Tracer(track_alloc=True)
            alloc_tracer.install()
            tracemalloc.start()
            try:
                alloc_pass = workload.run_pass(1 + len(traced))
            finally:
                tracemalloc.stop()
                alloc_tracer.uninstall()
            passes = untraced + traced + [alloc_pass]
            values = traced_metrics(workload, untraced, tracer, traced, traced_wall, alloc_tracer)
            lines.append(f"traced passes {len(traced)} over {traced_wall!r} s")
            lines += [
                f"span {span} self_ms/pass {1e3 * s / len(traced)!r} calls/pass {tracer.calls[span] / len(traced)!r} "
                f"share {s / traced_wall!r}"
                for span, s in sorted(tracer.self_s.items(), key=lambda kv: -kv[1])
            ]
            lines += [
                f"layer {layer} share {s / traced_wall!r}"
                for layer, s in sorted(tracer.layer_self_s().items(), key=lambda kv: -kv[1])
            ]
            kinds = {n: k for n, _, k in DERIVED}
            lines += [
                f"metric {m} {values[m]!r} {u}" + (f" ({kinds[m]})" if m in kinds else "") for m, u in PER_LAYER
            ]
        attempted = sum(p.attempted for p in passes)
        failed = sum(p.failed for p in passes)
        errors = [e for p in passes for e in p.errors]
    finally:
        remove_workdir(workdir)
    units = dict(PER_LAYER) if trace else {m: u for m, u, _ in END_TO_END}
    lines.append(f"metric error_rate {failed / attempted!r} ratio ({failed} of {attempted} operations)")
    lines += [f"error {e}" for e in errors[:20]]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }
    return {"result": result, "lines": lines, "inputs": inputs}


# The workload-specific metrics ``all`` prints, by the name of the metric or
# measurement that gives each.
ALIASES = {
    "train": {
        "pass_s_p50": "train_s",
        "pass_cpu_s_p50": "train_cpu_s",
        "op_ms_p50": "step_ms_p50",
        "op_ms_tail": "step_ms_tail",
        "eval_ms_p50": "eval_ms_p50",
    },
    "front": {"op_ms_p50": "front_ms_p50", "op_ms_tail": "front_ms_tail", "points_per_s_p50": "front_points_per_s"},
}

UNITS = {m: u for m, u, _ in END_TO_END + ALSO}


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process; prints the per-workload metric names."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed)]
        argv += ["--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        notes = json.loads(next(line for line in lines if line.startswith("notes "))[6:])
        results[name] = (json.loads(lines[-1]), notes)
    table = []
    for name, (result, notes) in results.items():
        kind = "front" if name == "front-export" else "train"
        metrics = result["metrics"]
        for metric in ("setup_s", "peak_rss_mb"):
            table.append((name, metric, metrics[metric]["value"], metrics[metric]["unit"]))
        for generic, alias in ALIASES[kind].items():
            note = f"p{notes['tail_percentile']:g} of {notes['operations']}" if generic == "op_ms_tail" else ""
            table.append((name, alias, notes["also"][generic], UNITS[generic], note))
        if kind == "train":
            table.append((name, "final_log_hv_gap", notes["final_log_hv_gap"], "log10"))
        table.append((name, "error_rate", result["failed"] / result["attempted"], "ratio"))
    for row in table:
        print(" ".join(str(v) for v in row if v != ""))
    correct = all(r["correct"] for r, _ in results.values())
    print(json.dumps({"correct": correct, "workloads": {n: r for n, (r, _) in results.items()}}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_copsl_from_checkout()
    print(f"env {json.dumps(environment())}", flush=True)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in outcome["lines"]:
        print(line)
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
