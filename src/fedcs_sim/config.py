"""Experiment configuration: JSON format, defaults, validation, sweep expansion.

A config file is a JSON object; omitted keys take the defaults, unknown keys
are rejected with their full dotted path.  All times are seconds.

The typed objects that a run builds own the defaults and the rules of their
keys, element types included (integer data-count bounds and hidden sizes, a
numeric target accuracy): CellConfig, ResourceRanges, TimeBudget,
FluctuationConfig, FedLimOptions, ProtocolConfig, StopCondition, SgdHyper,
MlpNet, Partition, SurrogateTrainer and RngStream.  DEFAULT_CONFIG reads
each of those defaults from its object, and validation builds every object
through the same ExperimentConfig accessors a run uses, reporting the
object's ParameterError at the offending key's path.  This module owns only
the JSON type of each scalar, the shapes that no object can check (the [low,
high] pairs, the hidden list, the path strings, a non-empty seed list), and
the rules of keys that no object checks: the trainer kind, a positive final
deadline, the native dataset sizes and paths, the memory a native run's
index, feature and parameter tables may take, classes per client against
the class count, the metric thresholds, the seed and sweep lists, and the
output directory.

The sweep section turns one file into a cartesian product of run
descriptors over protocol mode, deadline, fluctuation and partition mode,
crossed with the seed list.  A sweep value is valid when the variant it
produces is; no rule reads two axes, so every combination is valid.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from .channel import CellConfig
from .core import Megabits, ParameterError, RngStream, Seconds, UnitError, is_number
from .learning import MlpNet, Partition, SgdHyper, SurrogateTrainer
from .protocol import FedLimOptions, ProtocolConfig, StopCondition
from .resources import FluctuationConfig, ResourceRanges, TimeBudget

__all__ = [
    "ConfigError",
    "DEFAULT_CONFIG",
    "resolved_defaults",
    "resolve_config",
    "parse_config",
    "config_hash",
    "RunDescriptor",
    "run_descriptors",
    "ExperimentConfig",
    "check_parameter_table",
]


class ConfigError(ParameterError):
    """A configuration file problem, reported with the offending key path."""


# axis: (section, key, group-name tag prefix).  The mode starts every group
# name, so it has no tag.
_SWEEP_AXES = {
    "mode": ("protocol", "mode", None),
    "t_round_s": ("budget", "t_round_s", "tr"),
    "r": ("fluctuation", "r", "r"),
    "partition_mode": ("partition", "mode", ""),
}

# Config keys whose name differs from the constructor argument they fill.
_JSON_KEYS = {
    "t_round": "t_round_s",
    "model_size": "model_size_megabytes",
    "data_count": "data_count_range",
    "capability": "capability_range",
}


def _default_config() -> dict[str, Any]:
    """The default tree.  Each literal is a key for which no object holds a default."""
    protocol, ranges, sgd = ProtocolConfig(), ResourceRanges(), SgdHyper()
    budget, surrogate, partition = protocol.budget, SurrogateTrainer(), Partition()
    stop = StopCondition(Seconds(24000.0))
    return {
        "cell": dataclasses.asdict(CellConfig()),
        "resources": {
            "data_count_range": list(ranges.data_count),
            "capability_range": list(ranges.capability),
        },
        "protocol": {
            "mode": protocol.mode,
            "k_total": protocol.k_total,
            "fraction": protocol.fraction,
            "late_policy": protocol.late_policy,
            "aggregate_weighted": protocol.aggregate_weighted,
            "fedlim": dataclasses.asdict(protocol.fedlim),
        },
        "budget": {
            "t_round_s": float(budget.t_round),
            "t_final_s": float(stop.t_final),
            "t_cs_s": float(budget.t_cs),
            "t_agg_s": float(budget.t_agg),
            "model_size_megabytes": budget.model_size / 8,
            "epochs_per_round": budget.epochs_per_round,
        },
        "fluctuation": dataclasses.asdict(protocol.fluct),
        "trainer": {
            "kind": "surrogate",
            "surrogate": {"a_max": surrogate.a_max, "tau": surrogate.tau},
            "native": {
                "n_features": 16,
                "hidden": [],
                "n_classes": 10,
                "train_samples": 2000,
                "test_samples": 500,
                "blob_spread": 1.0,
                "dataset_path": None,
                "test_dataset_path": None,
                "batch_size": sgd.batch_size,
                "lr0": sgd.lr0,
                "lr_decay": sgd.lr_decay,
            },
        },
        "partition": {"mode": partition.mode, "classes_per_client": partition.classes_per_client},
        "stop": {"target_accuracy": stop.target_accuracy},
        "metrics": {"thresholds": [0.5, 0.75, 0.85]},
        "seeds": list(range(10)),
        "sweep": dict.fromkeys(_SWEEP_AXES),
        "output_dir": "results",
    }


DEFAULT_CONFIG: dict[str, Any] = _default_config()

# The most samples the generated train or test set may hold.
_MAX_GENERATED_SAMPLES = 10**6

# The most bytes a native run may need in one table: the partition's or one
# round's `local_update` int64 sample indices, the generated float64
# features, or `local_update`'s stacked float64 parameters.
_MAX_NATIVE_TABLE_BYTES = 2 * 2**30
_OVER_THE_LIMIT = f"over the {_MAX_NATIVE_TABLE_BYTES / 2**30:g} GiB limit"


def resolved_defaults() -> dict[str, Any]:
    return copy.deepcopy(DEFAULT_CONFIG)


def _merge(default: Any, user: Any, path: str) -> Any:
    if isinstance(default, dict):
        if not isinstance(user, dict):
            raise ConfigError(f"{path or '<root>'}: expected an object")
        unknown = set(user) - set(default)
        if unknown:
            key = sorted(unknown)[0]
            raise ConfigError(f"{path + '.' if path else ''}{key}: unknown key")
        return {
            k: _merge(v, user[k], f"{path + '.' if path else ''}{k}") if k in user else copy.deepcopy(v)
            for k, v in default.items()
        }
    # A key is nullable exactly when its default is null.
    if user is None and default is not None:
        raise ConfigError(f"{path}: null is not allowed here")
    if isinstance(default, bool):
        if not isinstance(user, bool):
            raise ConfigError(f"{path}: expected a boolean")
        return user
    if isinstance(default, int):
        if isinstance(user, bool) or not isinstance(user, int):
            raise ConfigError(f"{path}: expected an integer")
        return user
    if isinstance(default, float):
        if not is_number(user):
            raise ConfigError(f"{path}: expected a number")
        return float(user)
    if isinstance(default, str):
        if not isinstance(user, str):
            raise ConfigError(f"{path}: expected a string")
        return user
    # A list, or any value of a nullable key: `_validate` or its object checks it.
    return copy.deepcopy(user)


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{path}: {message}")


def _validate(cfg: dict[str, Any]) -> None:
    # JSON shapes of the list and nullable values, which _merge passes through.
    res = cfg["resources"]
    for key in ("data_count_range", "capability_range"):
        pair = res[key]
        _require(
            isinstance(pair, list) and len(pair) == 2 and all(map(is_number, pair)),
            f"resources.{key}",
            "must be a [low, high] pair of numbers",
        )
    native = cfg["trainer"]["native"]
    _require(isinstance(native["hidden"], list), "trainer.native.hidden",
             "must be a list of integers")
    for key in ("dataset_path", "test_dataset_path"):
        _require(native[key] is None or isinstance(native[key], str), f"trainer.native.{key}",
                 "must be null or a string path")
    seeds = cfg["seeds"]
    _require(isinstance(seeds, list) and len(seeds) >= 1, "seeds", "must be a non-empty list")

    # Every other rule of a key that an object reads is the object's own.
    config = ExperimentConfig(cfg)
    for section, build in (
        ("cell", config.cell),
        ("resources", config.ranges),
        ("budget", config.budget),
        ("fluctuation", config.fluctuation),
        ("protocol.fedlim", config.fedlim),
        ("protocol", config.protocol),
        ("stop", config.stop),
        ("trainer.native", config.sgd_hyper),
        ("trainer.native", lambda: MlpNet(native["n_features"], native["n_classes"],
                                          tuple(native["hidden"]))),
        ("trainer.surrogate", lambda: SurrogateTrainer(**cfg["trainer"]["surrogate"])),
        ("partition", lambda: Partition(**cfg["partition"])),
        ("seeds", lambda: [RngStream(seed) for seed in seeds]),
    ):
        try:
            build()
        except ConfigError:
            raise
        except ParameterError as exc:
            path = f"{section}.{_JSON_KEYS.get(exc.field, exc.field)}" if exc.field else section
            raise ConfigError(f"{path}: {exc}") from exc

    # Rules of the keys that no object owns.  A run stopped at t_final = 0
    # has no rounds, and so no statistics to report.
    _require(cfg["budget"]["t_final_s"] > 0, "budget.t_final_s", "must be positive")
    _require(len(set(seeds)) == len(seeds), "seeds", "must not repeat")
    _require(native["test_dataset_path"] is None or native["dataset_path"] is not None,
             "trainer.native.test_dataset_path", "requires dataset_path to be set")
    _require(cfg["trainer"]["kind"] in ("surrogate", "native"), "trainer.kind",
             "must be 'surrogate' or 'native'")
    _require(native["n_classes"] <= native["train_samples"] <= _MAX_GENERATED_SAMPLES,
             "trainer.native.train_samples", f"must be in [n_classes, {_MAX_GENERATED_SAMPLES}]")
    _require(1 <= native["test_samples"] <= _MAX_GENERATED_SAMPLES,
             "trainer.native.test_samples", f"must be in [1, {_MAX_GENERATED_SAMPLES}]")
    _require(native["blob_spread"] > 0, "trainer.native.blob_spread", "must be positive")
    if cfg["trainer"]["kind"] == "native":
        _check_native_tables(config)
    partition = cfg["partition"]
    # A loaded dataset's class count is known once `validate` loads its files.
    _require(
        partition["mode"] != "non_iid"
        or cfg["trainer"]["kind"] != "native"
        or native["dataset_path"] is not None
        or partition["classes_per_client"] <= native["n_classes"],
        "partition.classes_per_client",
        "must be <= trainer.native.n_classes for a non_iid partition of the generated dataset",
    )
    thresholds = cfg["metrics"]["thresholds"]
    _require(
        isinstance(thresholds, list) and all(is_number(t) and 0 <= t <= 1 for t in thresholds),
        "metrics.thresholds",
        "must be a list of fractions in [0, 1]",
    )
    _require(cfg["output_dir"] != "", "output_dir", "must be a non-empty path")

    for axis, values in cfg["sweep"].items():
        if values is None:
            continue
        _require(isinstance(values, list) and len(values) >= 1, f"sweep.{axis}",
                 "must be null or a non-empty list")
        for value in values:
            try:
                _validate(_variant(cfg, {axis: value}))
            except ConfigError as exc:
                raise ConfigError(f"sweep.{axis}: {exc}") from exc
        _require(len(set(values)) == len(values), f"sweep.{axis}", "must not repeat values")


def _check_native_tables(config: "ExperimentConfig") -> None:
    """Reject a native run whose worst case needs more than
    `_MAX_NATIVE_TABLE_BYTES` in one table.

    With n the largest data count: the partition holds up to k_total x n
    indices, counted at 8 bytes each, the int64 width that a dataset of
    more than 2**31 rows needs (`partition_dataset` stores a smaller set's
    as int32).  One round's `local_update` index table holds up to epochs x
    (n // batch_size) x cohort size x batch_size int64s, when every client
    of the cohort is aggregated.  The generated dataset holds (train_samples +
    test_samples) x n_features float64s, and its network's parameters go
    through `check_parameter_table`; a dataset file's network is known only
    once `validate` loads the file.  Only the sizes are computed; nothing is
    allocated.
    """
    protocol, hyper = config.protocol(), config.sgd_hyper()
    most = config.ranges().data_count[1]
    table = 8 * hyper.epochs * (most // hyper.batch_size) * protocol.cohort_size * hyper.batch_size
    _require(
        table <= _MAX_NATIVE_TABLE_BYTES,
        "trainer.kind",
        f"native local_update index table of {table} bytes (epochs_per_round x "
        f"(data_count_range[1] // batch_size) x cohort size x batch_size int64s) "
        f"is {_OVER_THE_LIMIT}",
    )
    shards = 8 * protocol.k_total * most
    _require(
        shards <= _MAX_NATIVE_TABLE_BYTES,
        "trainer.kind",
        f"native partition of {shards} bytes (k_total x data_count_range[1] indices "
        f"at 8 bytes, the int64 width of a dataset of more than 2**31 rows) "
        f"is {_OVER_THE_LIMIT}",
    )
    native = config.resolved["trainer"]["native"]
    if native["dataset_path"] is None:
        features = 8 * (native["train_samples"] + native["test_samples"]) * native["n_features"]
        _require(
            features <= _MAX_NATIVE_TABLE_BYTES,
            "trainer.native.n_features",
            f"generated dataset of {features} bytes ((train_samples + test_samples) x "
            f"n_features float64s) is {_OVER_THE_LIMIT}",
        )
        net = MlpNet(native["n_features"], native["n_classes"], tuple(native["hidden"]))
        check_parameter_table(config, net)


def check_parameter_table(config: "ExperimentConfig", net: MlpNet) -> None:
    """Reject a native run whose `local_update` stacks more than
    `_MAX_NATIVE_TABLE_BYTES` of `net`'s float64 parameters: one row per
    aggregated client, up to the cohort size."""
    table = 8 * net.param_count * config.protocol().cohort_size
    _require(
        table <= _MAX_NATIVE_TABLE_BYTES,
        "trainer.native.hidden",
        f"native local_update parameter table of {table} bytes (parameter count "
        f"{net.param_count} x cohort size float64s) is {_OVER_THE_LIMIT}",
    )


def _variant(cfg: dict[str, Any], values: dict[str, Any]) -> dict[str, Any]:
    """A copy of `cfg` with one value per sweep axis and the sweep cleared."""
    variant = copy.deepcopy(cfg)
    for axis, value in values.items():
        section, key, _ = _SWEEP_AXES[axis]
        variant[section][key] = _merge(DEFAULT_CONFIG[section][key], value, f"{section}.{key}")
    variant["sweep"] = dict.fromkeys(_SWEEP_AXES)
    return variant


def resolve_config(user: dict[str, Any]) -> dict[str, Any]:
    """Merge a user config over the defaults, then validate the result."""
    resolved = _merge(DEFAULT_CONFIG, user, "")
    _validate(resolved)
    return resolved


def parse_config(path: str | Path) -> "ExperimentConfig":
    """Load, resolve and validate a JSON config file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        user = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    return ExperimentConfig(resolve_config(user))


# Top-level keys that say where the outputs go and which seeds run, not what a
# run computes.  Each output file records its seed (summary.json its seed
# list) next to the hash.
_UNHASHED_KEYS = ("output_dir", "seeds")


def config_hash(resolved: dict[str, Any]) -> str:
    """Order-independent hash of a resolved config, for output provenance.

    Only the fields that change a run's result are hashed, so the same
    experiment written to two output directories carries the same hash.
    """
    hashed = {k: v for k, v in resolved.items() if k not in _UNHASHED_KEYS}
    canonical = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _format_value(value: Any) -> str:
    """A swept value as a group-name tag: an integral float below 1e16 in
    magnitude as its integer (180.0 as 180, -0.0 as 0), any other float as
    its repr (0.1, 1e+300), so a huge value cannot make a file name long."""
    if isinstance(value, float) and abs(value) < 1e16 and value == int(value):
        return str(int(value))
    return str(value)


@dataclass(frozen=True)
class RunDescriptor:
    """One concrete run: a fully resolved config plus its seed."""

    run_id: str
    group_id: str
    seed: int
    resolved: dict[str, Any]


def run_descriptors(config: "ExperimentConfig") -> list[RunDescriptor]:
    """Expand a resolved config's sweep axes x seeds into run descriptors.
    This only expands: `resolve_config` checked every sweep value, and so
    every combination (see the module docstring)."""
    cfg = config.resolved
    axes = [axis for axis in _SWEEP_AXES if cfg["sweep"][axis] is not None]
    descriptors = []
    for combo in itertools.product(*(cfg["sweep"][axis] for axis in axes)):
        variant = _variant(cfg, dict(zip(axes, combo)))
        tags = [
            _SWEEP_AXES[axis][2] + _format_value(value)
            for axis, value in zip(axes, combo)
            if _SWEEP_AXES[axis][2] is not None
        ]
        group = "_".join([variant["protocol"]["mode"], *tags])
        for seed in cfg["seeds"]:
            descriptors.append(
                RunDescriptor(
                    run_id=f"{group}_seed{seed}",
                    group_id=group,
                    seed=seed,
                    resolved=copy.deepcopy(variant),
                )
            )
    return descriptors


class ExperimentConfig:
    """Typed access to a resolved config tree."""

    def __init__(self, resolved: dict[str, Any]):
        self.resolved = resolved

    @property
    def hash(self) -> str:
        return config_hash(self.resolved)

    def _unit(self, unit: Callable[[float], Any], section: str, key: str) -> Any:
        """Wrap one value in its unit type, reporting a bad value at its key."""
        try:
            return unit(self.resolved[section][key])
        except UnitError as exc:
            raise ConfigError(f"{section}.{key}: {exc}") from exc

    def cell(self) -> CellConfig:
        return CellConfig(**self.resolved["cell"])

    def ranges(self) -> ResourceRanges:
        r = self.resolved["resources"]
        return ResourceRanges(
            data_count=tuple(r["data_count_range"]),
            capability=tuple(r["capability_range"]),
        )

    def budget(self) -> TimeBudget:
        return TimeBudget(
            t_round=self._unit(Seconds, "budget", "t_round_s"),
            t_cs=self._unit(Seconds, "budget", "t_cs_s"),
            t_agg=self._unit(Seconds, "budget", "t_agg_s"),
            model_size=self._unit(Megabits.from_megabytes, "budget", "model_size_megabytes"),
            epochs_per_round=self.resolved["budget"]["epochs_per_round"],
        )

    def fluctuation(self) -> FluctuationConfig:
        return FluctuationConfig(**self.resolved["fluctuation"])

    def fedlim(self) -> FedLimOptions:
        return FedLimOptions(**self.resolved["protocol"]["fedlim"])

    def protocol(self) -> ProtocolConfig:
        p = self.resolved["protocol"]
        return ProtocolConfig(
            mode=p["mode"],
            k_total=p["k_total"],
            fraction=p["fraction"],
            budget=self.budget(),
            fluct=self.fluctuation(),
            late_policy=p["late_policy"],
            fedlim=self.fedlim(),
            aggregate_weighted=p["aggregate_weighted"],
        )

    def stop(self) -> StopCondition:
        return StopCondition(
            t_final=self._unit(Seconds, "budget", "t_final_s"),
            target_accuracy=self.resolved["stop"]["target_accuracy"],
        )

    def sgd_hyper(self) -> SgdHyper:
        n = self.resolved["trainer"]["native"]
        return SgdHyper(
            batch_size=n["batch_size"],
            epochs=self.resolved["budget"]["epochs_per_round"],
            lr0=n["lr0"],
            lr_decay=n["lr_decay"],
        )

    def thresholds(self) -> list[float]:
        return [float(t) for t in self.resolved["metrics"]["thresholds"]]
