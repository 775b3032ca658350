"""Command-line entry point: run, ablate, front, hv, defaults.

Each command parses its arguments and calls the library: a config file is
read by :func:`copsl.config.load_config`, training and its series files are
:mod:`copsl.trainer`'s. Exit codes: 0 on full success, 1 when at least one
training run failed, 2 on configuration or usage errors. All artifacts are
written atomically.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from .config import RunConfig, default_config_json, load_config
from .errors import CheckpointError, ConfigurationError, CopslError, InputError, UnsupportedError
from .metrics import hypervolume, read_front_csv, write_front_csv
from .model import load_checkpoint
from .problems import suite_from_spec
from .sampling import uniform_preference_grid
from .trainer import model_fronts, run_ablation, run_batch, write_ablation_csv

OUT_DIR_ENV = "COPSL_OUT_DIR"


def _run_inputs(args) -> tuple[RunConfig, list[int], str]:
    """The config, the seeds and the output directory, made if missing, of ``run`` or ``ablate``."""
    config = load_config(args.config)
    out_dir = args.out or os.environ.get(OUT_DIR_ENV, "copsl-out")
    os.makedirs(out_dir, exist_ok=True)
    return config, args.seed or [config.seed], out_dir


def cmd_run(args) -> int:
    config, seeds, out_dir = _run_inputs(args)
    records, failures = run_batch(config, seeds, out_dir=out_dir)
    for failure in failures:
        print(f"seed {failure['seed']} failed: {failure['error']}", file=sys.stderr)
    if records:
        final_hv = np.array([record.hv[-1] for record in records])
        for name, mean, std in zip(records[0].mop_names, final_hv.mean(axis=0), final_hv.std(axis=0)):
            print(f"{name}: final HV {mean:.6g} +- {std:.3g} over {len(records)} run(s)")
    return 1 if failures else 0


def cmd_ablate(args) -> int:
    config, seeds, out_dir = _run_inputs(args)
    rows, failures = run_ablation(config, seeds=seeds)
    table_path = os.path.join(out_dir, "ablation.csv")
    write_ablation_csv(rows, table_path)
    for failure in failures:
        print("shared_depth {shared_depth} seed {seed} failed: {error}".format(**failure), file=sys.stderr)
    print(f"wrote {len(rows)} rows to {table_path}")
    return 1 if failures else 0


def cmd_front(args) -> int:
    model, metadata = load_checkpoint(args.checkpoint)
    suite_spec = metadata.get("suite") if args.suite is None else args.suite
    if suite_spec is None:
        raise ConfigurationError("checkpoint carries no suite metadata; pass --suite explicitly")
    suite = suite_from_spec(suite_spec)
    grid = uniform_preference_grid(suite.num_objectives, args.grid)
    fronts = model_fronts(model, suite, grid)
    stem, ext = os.path.splitext(args.out)
    ext = ext or ".csv"
    written = []
    for mop, front in zip(suite.problems, fronts):
        path = args.out if suite.num_mops == 1 else f"{stem}_{mop.name}{ext}"
        write_front_csv(path, front, mop.reference_point)
        written.append(path)
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_hv(args) -> int:
    points, embedded_ref = read_front_csv(args.front)
    if args.ref:
        try:
            reference = np.array([float(v) for v in args.ref.split(",")])
        except ValueError as exc:
            raise ConfigurationError(f"cannot parse --ref {args.ref!r}: {exc}") from exc
    else:
        reference = embedded_ref
    if reference.shape[0] != points.shape[1]:
        raise ConfigurationError(
            f"reference point has {reference.shape[0]} components but the front has "
            f"{points.shape[1]} objectives"
        )
    print(f"{hypervolume(points, reference):.12g}")
    return 0


def cmd_defaults(args) -> int:
    print(default_config_json())
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``copsl`` parser, built once per process: a parse keeps no state
    in it, because each call fills a new namespace from unchanged defaults."""
    parser = argparse.ArgumentParser(
        prog="copsl",
        description="Train preference-conditioned models for multiple multi-objective problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runs = argparse.ArgumentParser(add_help=False)  # what run and ablate both take
    runs.add_argument("--config", required=True, help="path to a JSON run config")
    runs.add_argument("--seed", type=int, action="append", help="seed (repeatable)")
    runs.add_argument("--out", help=f"output directory (default ${OUT_DIR_ENV} or ./copsl-out)")
    run = sub.add_parser("run", parents=[runs], help="train with a config file across one or more seeds")
    run.set_defaults(func=cmd_run)
    ablate = sub.add_parser("ablate", parents=[runs], help="sweep every shared-depth variant")
    ablate.set_defaults(func=cmd_ablate)

    front = sub.add_parser("front", help="export per-problem fronts from a checkpoint")
    front.add_argument("--checkpoint", required=True)
    front.add_argument("--grid", type=int, help="preference grid size (default: the one training scores)")
    front.add_argument("--out", required=True, help="output CSV (suffixed per problem)")
    front.add_argument("--suite", help="suite name, or one or more comma-separated problem names")
    front.set_defaults(func=cmd_front)

    hv = sub.add_parser("hv", help="hypervolume of a front CSV")
    hv.add_argument("--front", required=True)
    hv.add_argument("--ref", help='reference point "a,b" or "a,b,c" (default: file header)')
    hv.set_defaults(func=cmd_hv)

    defaults = sub.add_parser("defaults", help="print the default config as JSON")
    defaults.set_defaults(func=cmd_defaults)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, InputError, UnsupportedError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CopslError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
