"""Self-test of the benchmark at a tiny size; exits non-zero on failure.

Runs every workload with a tiny model and grid, in both modes, and checks
that each run is correct, that it emits every metric BENCHMARK.json names
with the unit named there, and that another workload seed changes the
generated inputs but not the set of metrics. Takes a few seconds::

    python3 perfbench/selftest.py
"""

import json
import math
import os
import sys

import run


def check(condition: bool, message: str, failures: list) -> None:
    if not condition:
        failures.append(message)


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    run.import_copsl_from_checkout()
    failures: list[str] = []
    check(
        [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
        "BENCHMARK.json workloads differ from the benchmark's",
        failures,
    )
    for name in run.WORKLOADS:
        for trace in (False, True):
            outcomes = {seed: run.run_workload(name, seed, 0.2, trace, size="tiny") for seed in (1, 2)}
            for seed, outcome in outcomes.items():
                result = outcome["result"]
                where = f"{name} seed {seed} trace {int(trace)}"
                check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: result keys {sorted(result)}", failures)
                check(result["correct"] and result["failed"] == 0, f"{where}: not correct: {outcome['lines'][-3:]}", failures)
                check(result["attempted"] >= 1, f"{where}: nothing attempted", failures)
                emitted = {m: v["unit"] for m, v in result["metrics"].items()}
                check(emitted == expected[trace], f"{where}: metrics or units differ from BENCHMARK.json", failures)
                check(
                    all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"]) for v in result["metrics"].values()),
                    f"{where}: a metric value is not a finite number",
                    failures,
                )
            check(outcomes[1]["inputs"] != outcomes[2]["inputs"], f"{name}: seeds 1 and 2 generated the same inputs", failures)
            check(
                set(outcomes[1]["result"]["metrics"]) == set(outcomes[2]["result"]["metrics"]),
                f"{name}: the set of metrics depends on the seed",
                failures,
            )
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
