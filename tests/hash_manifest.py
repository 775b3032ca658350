"""Print one SHA-256 per output artifact of a fixed set of copsl runs, then a digest.

    python tests/hash_manifest.py --src path/to/tree/src [--work DIR] [--expect DIGEST]
                                  [--expect-extended DIGEST]

Every run is a ``copsl`` command line, started in its own subprocess with the
given source tree first on ``PYTHONPATH`` and BLAS pinned to one thread. Two
checkouts whose manifests print the same digest wrote the same bytes: CSVs,
checkpoints, parameter traces, stdout, stderr and exit codes. Refactors that
promise unchanged output compare digests between the parent and the change.

The set covers:
- acceptance criterion 9's training config, seeds 0-9 (loss and eval CSVs,
  checkpoints);
- a ``dtlz2`` run and six short runs of the default suite (default,
  ``zeroweight`` with two problems weighted 0, fully separate, ``cosmos``
  with shared depth 2, ``ls``, and ``mtch`` with a Dirichlet alpha of 0.5),
  each with its per-iteration parameter trace;
- three ablations: zdt1+zdt2, the default suite with ``cosmos``, and a config
  that fails (``weights`` of the wrong length, a configuration error);
- ``copsl front`` and ``copsl hv`` at a small and a large front size on a
  2-objective and a 3-objective checkpoint;
- a ``copsl run`` whose ``shared_depth`` exceeds its hidden layers;
- the extension: one export per objective count at a size where a quadratic
  dominance filter and a sort-and-sweep differ most, ``copsl front --grid
  5000`` of the six-problem ``default`` checkpoint and a 990-point ``dtlz2``
  lattice, each followed by ``copsl hv``.

The last lines are two digests: ``digest`` over the set without the
extension, comparable with manifests that predate it, and ``extended-digest``
over every entry. With ``--expect DIGEST`` the script exits 1 when ``digest``
differs from DIGEST, and with ``--expect-extended DIGEST`` when
``extended-digest`` does, so a bytes-unchanged check runs as one command. The
extension's 990-point ``dtlz2`` front is the largest 3-d hypervolume input in
the set.

This is a tool, not a test: pytest does not collect it. Without the extension
a run takes about 40 s on a 2-vCPU Xeon; the extension adds a few seconds with
a sort-and-sweep filter, and minutes with a quadratic one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

BASE = {
    "suite": "synthetic-2d",
    "loss": "tch",
    "iterations": 30,
    "hidden_sizes": [256, 256],
    "shared_depth": 1,
    "seed": 0,
    "eval_interval": 10,
}

CRITERION_9 = {
    "suite": ["zdt1", "zdt2"],
    "loss": "tch",
    "iterations": 500,
    "batch_size": 15,
    "learning_rate": 1e-3,
    "epsilon": 1e-3,
    "dirichlet_alpha": [0.5, 0.5],
    "hidden_sizes": [256, 256],
    "shared_depth": 1,
    "eval_interval": 10,
}

# name -> (config, seeds); each is one ``copsl run``.
RUNS = {
    "crit9": (CRITERION_9, range(10)),
    "dtlz2": ({**BASE, "suite": ["dtlz2"], "iterations": 60, "trace_params": True}, [3]),
    "default": ({**BASE, "trace_params": True}, [0]),
    "zeroweight": ({**BASE, "weights": [1, 0, 1, 0, 1, 1], "iterations": 40, "trace_params": True}, [1]),
    "depth0": ({**BASE, "shared_depth": 0, "trace_params": True}, [2]),
    "cosmos2": ({**BASE, "shared_depth": 2, "loss": "cosmos", "iterations": 40, "trace_params": True}, [4]),
    "ls": ({**BASE, "loss": "ls", "trace_params": True}, [5]),
    "mtch": ({**BASE, "loss": "mtch", "dirichlet_alpha": [0.5, 0.5], "trace_params": True}, [6]),
    "baddepth": ({**BASE, "hidden_sizes": [8], "shared_depth": 3}, [0]),
}

# name -> (config, seeds); each is one ``copsl ablate``.
ABLATIONS = {
    "ablate3": ({**BASE, "suite": ["zdt1", "zdt2"], "hidden_sizes": [32, 32, 32], "iterations": 200}, range(3)),
    "ablate6": ({**BASE, "hidden_sizes": [16, 16, 16], "loss": "cosmos", "iterations": 150}, range(3)),
    "ablatefail": ({**BASE, "suite": ["zdt1", "zdt2"], "hidden_sizes": [8, 8], "weights": [1.0]}, range(3)),
}

# (checkpoint run, seed, grid sizes) for ``copsl front`` and ``copsl hv``.
FRONTS = (("crit9", 0, (200, 1200)), ("dtlz2", 3, (50, 250)))
EXTENDED_FRONTS = (("default", 0, (5000,)), ("dtlz2", 3, (1000,)))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Manifest:
    def __init__(self, src: str, work: str):
        self.env = dict(os.environ, PYTHONPATH=os.path.abspath(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        self.env.pop("COPSL_OUT_DIR", None)
        self.work = work
        self.entries: dict[str, str] = {}
        self.extension: set[str] = set()

    def cli(self, name: str, argv: list[str]) -> None:
        """Run ``copsl argv`` and record its stdout, stderr and exit code."""
        done = subprocess.run(
            [sys.executable, "-m", "copsl.cli", *argv], cwd=self.work, env=self.env, capture_output=True
        )
        self.entries[f"{name}.stdout"] = sha256(done.stdout)
        self.entries[f"{name}.stderr"] = sha256(done.stderr)
        self.entries[f"{name}.exit"] = sha256(str(done.returncode).encode())

    def files(self, directory: str) -> None:
        """Record every file under ``directory`` except run records, which hold wall times."""
        root = os.path.join(self.work, directory)
        for name in sorted(os.listdir(root)) if os.path.isdir(root) else ():
            path = os.path.join(root, name)
            if name.startswith("run_seed") and name.endswith(".json"):
                with open(path) as handle:
                    trace = json.load(handle)["param_trace"]
                if trace is not None:
                    self.entries[f"{directory}/{name}:param_trace"] = sha256(json.dumps(trace).encode())
                continue
            with open(path, "rb") as handle:
                self.entries[f"{directory}/{name}"] = sha256(handle.read())

    def config(self, name: str, data: dict) -> str:
        path = os.path.join(self.work, f"{name}.json")
        with open(path, "w") as handle:
            json.dump(data, handle)
        return path

    def build(self) -> None:
        for command, table in (("run", RUNS), ("ablate", ABLATIONS)):
            for name, (data, seeds) in table.items():
                argv = [command, "--config", self.config(name, data), "--out", name]
                for seed in seeds:
                    argv += ["--seed", str(seed)]
                self.cli(name, argv)
                self.files(name)
        self.fronts(FRONTS)
        before = set(self.entries)
        self.fronts(EXTENDED_FRONTS)
        self.extension = set(self.entries) - before

    def fronts(self, table) -> None:
        for run, seed, sizes in table:
            for size in sizes:
                name = f"front_{run}_{size}"
                checkpoint = os.path.join(run, f"model_seed{seed}.ckpt")
                os.makedirs(os.path.join(self.work, name), exist_ok=True)
                self.cli(name, ["front", "--checkpoint", checkpoint, "--grid", str(size), "--out", f"{name}/front.csv"])
                self.files(name)
                for csv in sorted(os.listdir(os.path.join(self.work, name))):
                    self.cli(f"hv_{run}_{size}_{csv}", ["hv", "--front", os.path.join(name, csv)])

    def lines(self, extended: bool) -> list[str]:
        return [
            f"{name} {digest}"
            for name, digest in sorted(self.entries.items())
            if extended or name not in self.extension
        ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--src", required=True, help="the src/ directory of the tree to run")
    parser.add_argument("--work", help="directory for the outputs, kept afterwards (default: a temporary one)")
    parser.add_argument("--expect", metavar="DIGEST", help="exit 1 unless the digest line equals DIGEST")
    parser.add_argument(
        "--expect-extended", metavar="DIGEST", help="exit 1 unless the extended-digest line equals DIGEST"
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="copsl-manifest-") as scratch:
        work = args.work or scratch
        os.makedirs(work, exist_ok=True)
        manifest = Manifest(args.src, work)
        manifest.build()
        for line in manifest.lines(extended=True):
            print(line)
        digests = {
            "digest": sha256(chr(10).join(manifest.lines(extended=False)).encode()),
            "extended-digest": sha256(chr(10).join(manifest.lines(extended=True)).encode()),
        }
        for name, digest in digests.items():
            print(f"{name} {digest}")
    expected = {"digest": args.expect, "extended-digest": args.expect_extended}
    differing = [name for name, want in expected.items() if want is not None and digests[name] != want]
    for name in differing:
        print(f"{name} {digests[name]} differs from the expected {expected[name]}", file=sys.stderr)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
