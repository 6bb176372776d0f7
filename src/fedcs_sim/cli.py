"""Experiment runner CLI.

Subcommands:
  run <config>       execute every run descriptor (sweep axes x seeds) and
                     write records-<run>.jsonl, curve-<run>.csv and a
                     sweep-level summary.json into the output directory.
  validate <config>  resolve and validate the config, report the descriptor
                     count, write nothing.

`--print-defaults` dumps the canonical default configuration as JSON.
Every output file embeds the config hash and the seed, and a rerun with the
same config and seed produces byte-identical files, whatever the output
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from collections.abc import Callable
from functools import partial
from pathlib import Path

from .config import (
    ConfigError,
    ExperimentConfig,
    RunDescriptor,
    check_parameter_table,
    config_hash,
    parse_config,
    resolved_defaults,
    run_descriptors,
)
from .core import ParameterError, RngStream, SimulationError
from .learning import (
    LabeledDataset,
    MlpNet,
    NativeTrainer,
    SurrogateTrainer,
    Trainer,
    check_partition,
    load_dataset,
    make_blob_dataset,
    partition_dataset,
)
from .metrics import (
    RunStats,
    atomic_write_text,
    run_stats,
    summarize,
    write_curve_csv,
    write_records_jsonl,
)
from .protocol import RoundRecord, run_experiment
from .resources import Population, generate_profiles

__all__ = ["main", "execute_run", "build_trainer"]


def _native_sets(
    native: dict, rng: RngStream | None, load: Callable[[str], LabeledDataset]
) -> tuple[LabeledDataset, LabeledDataset]:
    """A native run's (train, test) sets.  Generated: one blob draw from
    `rng`'s `dataset` stream, so train and test share class centroids, cut
    at `train_samples`.  From files: `load("dataset_path")`, then
    `load("test_dataset_path")`, or else the train file split by position
    with no shuffle, its first 80% of rows (at least one) to train.  Raises
    what `make_blob_dataset` or `load` raises."""
    if native["dataset_path"] is None:
        full = make_blob_dataset(
            native["train_samples"] + native["test_samples"],
            native["n_features"],
            native["n_classes"],
            rng.child("dataset").generator(),
            spread=native["blob_spread"],
        )
        cut = native["train_samples"]
    else:
        full = load("dataset_path")
        if native["test_dataset_path"] is not None:
            return full, load("test_dataset_path")
        cut = max(1, int(0.8 * len(full)))
    return (
        LabeledDataset(full.features[:cut], full.labels[:cut], full.n_classes),
        LabeledDataset(full.features[cut:], full.labels[cut:], full.n_classes),
    )


def _check_native_inputs(config: ExperimentConfig, descriptors: list[RunDescriptor]) -> None:
    """Check a native config's sets by `_native_sets`, for `run` and
    `validate` alike, before anything runs; a surrogate config passes.

    Generated sets: each seed of a non_iid descriptor is drawn once, and a
    train set `check_partition` rejects is a ConfigError at
    `trainer.native.train_samples` naming the seed.  iid draws nothing, and
    no sweep axis changes classes_per_client.  Files: each path is read
    once, a failed read is a ConfigError at its `trainer.native.<key>`, and
    what every run would reject is one at its key: `NativeTrainer.check_sets`
    (the test file's, or the train file's when split), the `MlpNet` of the
    loaded counts (`dataset_path`) and its parameter table, and
    `check_partition` for each distinct partition.
    """
    spec = config.resolved["trainer"]
    if spec["kind"] != "native":
        return
    native, loaded = spec["native"], {}

    def load(key: str) -> LabeledDataset:
        try:
            if native[key] not in loaded:
                loaded[native[key]] = load_dataset(native[key])
        except (OSError, ParameterError) as exc:
            raise ConfigError(f"trainer.native.{key}: {exc}") from exc
        return loaded[native[key]]

    if native["dataset_path"] is None:
        per_client = config.resolved["partition"]["classes_per_client"]
        non_iid = (d.seed for d in descriptors if d.resolved["partition"]["mode"] == "non_iid")
        for seed in dict.fromkeys(non_iid):
            train, _ = _native_sets(native, RngStream(seed), load)
            try:
                check_partition(train, "non_iid", per_client)
            except ParameterError as exc:
                raise ConfigError(f"trainer.native.train_samples: seed {seed}: {exc}") from exc
        return
    train, test = _native_sets(native, None, load)
    try:
        NativeTrainer.check_sets(train, test)
    except ParameterError as exc:
        key = "dataset_path" if native["test_dataset_path"] is None else "test_dataset_path"
        raise ConfigError(f"trainer.native.{key}: {exc}") from exc
    try:
        net = MlpNet(train.features.shape[1], train.n_classes, tuple(native["hidden"]))
    except ParameterError as exc:  # hidden is valid, so the loaded counts are at fault
        raise ConfigError(f"trainer.native.dataset_path: the loaded dataset's {exc}") from exc
    check_parameter_table(config, net)
    partitions = [d.resolved["partition"] for d in descriptors]
    for mode, per_client in sorted({(p["mode"], p["classes_per_client"]) for p in partitions}):
        try:
            check_partition(train, mode, per_client)
        except ParameterError as exc:
            key = "partition.classes_per_client" if exc.field else "trainer.native.dataset_path"
            raise ConfigError(f"{key}: {exc}") from exc


def build_trainer(config: ExperimentConfig, population: Population, rng: RngStream) -> Trainer:
    """Instantiate the configured trainer for one run."""
    spec = config.resolved["trainer"]
    if spec["kind"] == "surrogate":
        s = spec["surrogate"]
        return SurrogateTrainer(a_max=s["a_max"], tau=s["tau"])

    native = spec["native"]
    train, test = _native_sets(native, rng, lambda key: load_dataset(native[key]))
    part_cfg = config.resolved["partition"]
    partition = partition_dataset(
        train,
        population,
        part_cfg["mode"],
        rng.child("partition").generator(),
        classes_per_client=part_cfg["classes_per_client"],
    )
    net = MlpNet(
        n_features=train.features.shape[1],
        n_classes=train.n_classes,
        hidden=tuple(native["hidden"]),
    )
    return NativeTrainer(
        train_set=train,
        test_set=test,
        partition=partition,
        net=net,
        hyper=config.sgd_hyper(),
        init_rng=rng.child("model-init").generator(),
    )


def execute_run(config: ExperimentConfig, seed: int) -> list[RoundRecord]:
    """Run one experiment end to end for a single seed."""
    rng = RngStream(seed)
    protocol = config.protocol()
    population = generate_profiles(protocol.k_total, config.cell(), config.ranges(), rng)
    trainer = build_trainer(config, population, rng)
    return run_experiment(protocol, config.stop(), trainer, population, rng)


def _execute_descriptor(descriptor: RunDescriptor, out_dir: Path) -> dict:
    """Worker entry: run one descriptor, write its per-run files and return
    `{"stats": RunStats}` (never the per-round records, which would be pickled
    back under --parallelism > 1), or the failure's one-line `error` and its
    `traceback`."""
    run_id = descriptor.run_id
    try:
        config = ExperimentConfig(descriptor.resolved)
        records = execute_run(config, descriptor.seed)
        header = {"config_hash": config.hash, "seed": descriptor.seed, "run_id": run_id}
        write_records_jsonl(records, out_dir / f"records-{run_id}.jsonl", header)
        write_curve_csv(records, out_dir / f"curve-{run_id}.csv", header)
        return {"stats": run_stats(records, config.thresholds())}
    except Exception as exc:  # a failed run aborts only this descriptor
        return {"error": f"{type(exc).__name__}: {exc}", "traceback": traceback.format_exc()}


def _cmd_run(args: argparse.Namespace) -> int:
    config = parse_config(args.config)
    if args.seed is not None:
        config.resolved["seeds"] = [args.seed]
    if args.out is not None:
        config.resolved["output_dir"] = args.out

    # Checks the overrides by the config's rules, and the dataset files,
    # before the directory is touched.
    descriptors = run_descriptors(config)
    _check_native_inputs(config, descriptors)
    out_dir = Path(config.resolved["output_dir"])
    if out_dir.is_dir() and not args.force:
        print(f"error: output directory {out_dir} exists (use --force to overwrite)", file=sys.stderr)
        return 1
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at the path or above it, or no permission
        # mkdir reports a file at the path itself as "File exists".
        reason = "Not a directory" if isinstance(exc, FileExistsError) else exc.strerror or exc
        print(f"error: cannot use output directory {out_dir}: {reason}", file=sys.stderr)
        return 1
    execute = partial(_execute_descriptor, out_dir=out_dir)

    # The default fork context starts every worker at once, so never more
    # than there are runs.  Only a pool loads multiprocessing (about 2 MB of
    # RSS), so a one-worker run never imports it.
    workers = min(args.parallelism, len(descriptors))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(execute, descriptors))
    else:
        results = [execute(d) for d in descriptors]

    # `map` keeps order, so each result pairs with its descriptor.
    failed = {d.run_id: r for d, r in zip(descriptors, results) if "error" in r}
    groups: dict[str, list[RunStats]] = {}
    for d, r in zip(descriptors, results):
        if "error" not in r:
            groups.setdefault(d.group_id, []).append(r["stats"])

    thresholds = config.thresholds()
    summary = {
        "config_hash": config.hash,
        "seeds": config.resolved["seeds"],
        "groups": {group: summarize(runs, thresholds) for group, runs in sorted(groups.items())},
        "failed_runs": {run_id: r["error"] for run_id, r in sorted(failed.items())},
    }
    atomic_write_text(out_dir / "summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")

    for group in sorted(groups):
        s = summary["groups"][group]
        print(
            f"{group}: clients/round={s['mean_clients_per_round']:.2f} "
            f"(std {s['std_clients_per_round']:.2f}), "
            f"rounds={s['rounds_completed_mean']:.1f}, "
            f"final_accuracy={s['final_accuracy_mean']:.4f}"
        )
    for run_id, r in sorted(failed.items()):
        print(f"FAILED {run_id}: {r['error']}", file=sys.stderr)
        print(r["traceback"], end="", file=sys.stderr)
    return 1 if failed else 0


def _cmd_validate(args: argparse.Namespace) -> int:
    config = parse_config(args.config)
    descriptors = run_descriptors(config)
    _check_native_inputs(config, descriptors)
    print(f"OK: {len(descriptors)} run descriptor(s), config hash {config.hash}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Parse `argv`, run the command and return the exit status.

    When the reader of standard output goes away early (`fedcs-sim ... |
    head`), the program ends quietly with status 1 instead of a
    BrokenPipeError traceback.
    """
    try:
        status = _dispatch(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit; pointing it at devnull keeps
        # that flush from failing too (the idiom of the `signal` docs).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return status


def _dispatch(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(
        prog="fedcs-sim",
        description="Deadline-constrained federated-learning simulator",
    )
    parser.add_argument(
        "--print-defaults",
        action="store_true",
        help="dump the canonical default configuration as JSON and exit",
    )
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="execute a config's sweep")
    run_p.add_argument("config", help="path to a JSON config file")
    run_p.add_argument("--seed", type=int, default=None, help="replace the seed list with one seed")
    run_p.add_argument("--out", default=None, help="override the output directory")
    run_p.add_argument("--force", action="store_true", help="write into an existing directory")
    run_p.add_argument("--parallelism", type=int, default=1, help="worker processes (default 1)")

    val_p = sub.add_parser("validate", help="check a config without running it")
    val_p.add_argument("config", help="path to a JSON config file")

    args = parser.parse_args(argv)
    if args.command == "run" and args.parallelism < 1:
        run_p.error(f"argument --parallelism: must be at least 1, got {args.parallelism}")

    if args.print_defaults:
        print(json.dumps(resolved_defaults(), indent=2, sort_keys=True))
        return 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_validate(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
