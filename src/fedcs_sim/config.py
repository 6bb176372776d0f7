"""Experiment configuration: JSON schema, validation, defaults, sweep expansion.

A config file is a JSON object; omitted keys take the canonical defaults
below, unknown keys are rejected with their full dotted path.  All times are
seconds.  The sweep section turns one file into a cartesian product of run
descriptors over deadline, fluctuation, protocol mode and partition mode,
crossed with the seed list.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .channel import CellConfig
from .core import Megabits, ParameterError, Seconds
from .learning import PARTITION_MODES, SgdHyper
from .protocol import (
    FEDLIM_DISTRIBUTIONS,
    FEDLIM_UPLOAD_ORDERS,
    LATE_POLICIES,
    MODES,
    FedLimOptions,
    ProtocolConfig,
    StopCondition,
)
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
]


class ConfigError(ParameterError):
    """A configuration file problem, reported with the offending key path."""


DEFAULT_CONFIG: dict[str, Any] = {
    "cell": {
        "radius_m": 2000.0,
        "carrier_freq_ghz": 2.5,
        "bs_height_m": 11.0,
        "ue_height_m": 1.0,
        "tx_power_dbm": 20.0,
        "antenna_gain_dbi": 0.0,
        "rb_count": 10,
        "rb_bandwidth_total_hz": 1.8e6,
        "noise_figure_db": CellConfig().noise_figure_db,
        "delta_loss": 1.6,
        "rho_max_bps_hz": 4.8,
        "shadow_sigma_db": 4.0,
        "min_distance_m": 10.0,
    },
    "resources": {
        "data_count_range": [100, 1000],
        "capability_range": [10.0, 100.0],
    },
    "protocol": {
        "mode": "fedcs",
        "k_total": 1000,
        "fraction": 0.1,
        "late_policy": "extend",
        "aggregate_weighted": False,
        "fedlim": {"distribution": "unicast", "upload_order": "channel"},
    },
    "budget": {
        "t_round_s": 180.0,
        "t_final_s": 24000.0,
        "t_cs_s": 0.0,
        "t_agg_s": 0.0,
        "model_size_megabytes": 18.3,
        "epochs_per_round": 5,
    },
    "fluctuation": {"r": 0.0},
    "trainer": {
        "kind": "surrogate",
        "surrogate": {"a_max": 0.9, "tau": 100.0},
        "native": {
            "n_features": 16,
            "hidden": [],
            "n_classes": 10,
            "train_samples": 2000,
            "test_samples": 500,
            "blob_spread": 1.0,
            "dataset_path": None,
            "test_dataset_path": None,
            "batch_size": 50,
            "lr0": 0.25,
            "lr_decay": 0.99,
        },
    },
    "partition": {"mode": "iid", "classes_per_client": 2},
    "stop": {"target_accuracy": None},
    "metrics": {"thresholds": [0.5, 0.75, 0.85]},
    "seeds": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
    "sweep": {
        "t_round_s": None,
        "r": None,
        "mode": None,
        "partition_mode": None,
    },
    "output_dir": "results",
}

# Keys whose value None is meaningful rather than a type error.
_NULLABLE = {
    "trainer.native.dataset_path",
    "trainer.native.test_dataset_path",
    "stop.target_accuracy",
    "sweep.t_round_s",
    "sweep.r",
    "sweep.mode",
    "sweep.partition_mode",
}


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
    if user is None:
        if path in _NULLABLE:
            return None
        raise ConfigError(f"{path}: null is not allowed here")
    if isinstance(default, bool):
        if not isinstance(user, bool):
            raise ConfigError(f"{path}: expected a boolean")
        return user
    if isinstance(default, int) and not isinstance(default, bool):
        if isinstance(user, bool) or not isinstance(user, int):
            raise ConfigError(f"{path}: expected an integer")
        return user
    if isinstance(default, float):
        if isinstance(user, bool) or not isinstance(user, (int, float)):
            raise ConfigError(f"{path}: expected a number")
        return float(user)
    if isinstance(default, str):
        if not isinstance(user, str):
            raise ConfigError(f"{path}: expected a string")
        return user
    if isinstance(default, list) or default is None:
        return copy.deepcopy(user)
    raise ConfigError(f"{path}: unsupported value {user!r}")


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{path}: {message}")


def _validate(cfg: dict[str, Any]) -> None:
    cell = cfg["cell"]
    _require(cell["radius_m"] > 0, "cell.radius_m", "must be positive")
    _require(cell["rb_bandwidth_total_hz"] > 0, "cell.rb_bandwidth_total_hz", "must be positive")
    _require(cell["rho_max_bps_hz"] > 0, "cell.rho_max_bps_hz", "must be positive")
    _require(cell["delta_loss"] >= 1, "cell.delta_loss", "must be >= 1")
    _require(cell["shadow_sigma_db"] >= 0, "cell.shadow_sigma_db", "must be >= 0")
    _require(
        0 < cell["min_distance_m"] <= cell["radius_m"],
        "cell.min_distance_m",
        "must be in (0, radius_m]",
    )

    res = cfg["resources"]
    for key in ("data_count_range", "capability_range"):
        rng = res[key]
        _require(
            isinstance(rng, list) and len(rng) == 2 and all(isinstance(v, (int, float)) for v in rng),
            f"resources.{key}",
            "must be a [low, high] pair",
        )
        _require(0 < rng[0] <= rng[1], f"resources.{key}", "must satisfy 0 < low <= high")
    _require(
        all(isinstance(v, int) for v in res["data_count_range"]),
        "resources.data_count_range",
        "must contain integers",
    )

    proto = cfg["protocol"]
    _require(proto["mode"] in MODES, "protocol.mode", f"must be one of {list(MODES)}")
    _require(0 < proto["fraction"] <= 1, "protocol.fraction", "must be in (0, 1]")
    _require(proto["k_total"] >= 1, "protocol.k_total", "must be >= 1")
    _require(
        proto["late_policy"] in LATE_POLICIES,
        "protocol.late_policy",
        f"must be one of {list(LATE_POLICIES)}",
    )
    _require(
        proto["fedlim"]["distribution"] in FEDLIM_DISTRIBUTIONS,
        "protocol.fedlim.distribution",
        f"must be one of {list(FEDLIM_DISTRIBUTIONS)}",
    )
    _require(
        proto["fedlim"]["upload_order"] in FEDLIM_UPLOAD_ORDERS,
        "protocol.fedlim.upload_order",
        f"must be one of {list(FEDLIM_UPLOAD_ORDERS)}",
    )

    budget = cfg["budget"]
    _require(budget["t_round_s"] > budget["t_cs_s"] + budget["t_agg_s"], "budget.t_round_s",
             "must exceed t_cs_s + t_agg_s")
    _require(budget["t_final_s"] >= 0, "budget.t_final_s", "must be >= 0")
    _require(budget["model_size_megabytes"] > 0, "budget.model_size_megabytes", "must be positive")
    _require(budget["epochs_per_round"] >= 1, "budget.epochs_per_round", "must be >= 1")
    _require(budget["t_cs_s"] >= 0, "budget.t_cs_s", "must be >= 0")
    _require(budget["t_agg_s"] >= 0, "budget.t_agg_s", "must be >= 0")

    _require(cfg["fluctuation"]["r"] >= 0, "fluctuation.r", "must be >= 0")

    trainer = cfg["trainer"]
    _require(trainer["kind"] in ("surrogate", "native"), "trainer.kind",
             "must be 'surrogate' or 'native'")
    _require(0 <= trainer["surrogate"]["a_max"] <= 1, "trainer.surrogate.a_max",
             "must be in [0, 1]")
    _require(trainer["surrogate"]["tau"] > 0, "trainer.surrogate.tau", "must be positive")
    native = trainer["native"]
    _require(native["n_features"] >= 1, "trainer.native.n_features", "must be >= 1")
    _require(native["n_classes"] >= 2, "trainer.native.n_classes", "must be >= 2")
    _require(
        isinstance(native["hidden"], list)
        and all(isinstance(h, int) and h >= 1 for h in native["hidden"]),
        "trainer.native.hidden",
        "must be a list of positive integers",
    )
    _require(native["train_samples"] >= native["n_classes"], "trainer.native.train_samples",
             "must be >= n_classes")
    _require(native["test_samples"] >= 1, "trainer.native.test_samples", "must be >= 1")
    _require(native["blob_spread"] > 0, "trainer.native.blob_spread", "must be positive")
    _require(native["batch_size"] >= 1, "trainer.native.batch_size", "must be >= 1")
    _require(native["lr0"] >= 0, "trainer.native.lr0", "must be >= 0")
    _require(0 < native["lr_decay"] <= 1, "trainer.native.lr_decay", "must be in (0, 1]")
    if native["dataset_path"] is not None:
        _require(isinstance(native["dataset_path"], str), "trainer.native.dataset_path",
                 "must be a string path")
    if native["test_dataset_path"] is not None:
        _require(isinstance(native["test_dataset_path"], str), "trainer.native.test_dataset_path",
                 "must be a string path")
        _require(native["dataset_path"] is not None, "trainer.native.test_dataset_path",
                 "requires dataset_path to be set")

    part = cfg["partition"]
    _require(part["mode"] in PARTITION_MODES, "partition.mode",
             f"must be one of {list(PARTITION_MODES)}")
    _require(part["classes_per_client"] >= 1, "partition.classes_per_client", "must be >= 1")

    target = cfg["stop"]["target_accuracy"]
    if target is not None:
        _require(0 < target <= 1, "stop.target_accuracy", "must be in (0, 1]")

    thresholds = cfg["metrics"]["thresholds"]
    _require(
        isinstance(thresholds, list)
        and all(isinstance(t, (int, float)) and 0 <= t <= 1 for t in thresholds),
        "metrics.thresholds",
        "must be a list of fractions in [0, 1]",
    )

    seeds = cfg["seeds"]
    _require(
        isinstance(seeds, list)
        and len(seeds) >= 1
        and all(isinstance(s, int) and not isinstance(s, bool) and s >= 0 for s in seeds),
        "seeds",
        "must be a non-empty list of non-negative integers",
    )
    _require(len(set(seeds)) == len(seeds), "seeds", "must not repeat")

    sweep = cfg["sweep"]
    axis_checks = {
        "t_round_s": lambda v: isinstance(v, (int, float)) and v > 0,
        "r": lambda v: isinstance(v, (int, float)) and v >= 0,
        "mode": lambda v: v in MODES,
        "partition_mode": lambda v: v in PARTITION_MODES,
    }
    for axis, check in axis_checks.items():
        values = sweep[axis]
        if values is None:
            continue
        _require(
            isinstance(values, list) and len(values) >= 1 and all(check(v) for v in values),
            f"sweep.{axis}",
            "must be null or a non-empty list of valid values",
        )
        _require(len(set(values)) == len(values), f"sweep.{axis}", "must not repeat values")

    _require(isinstance(cfg["output_dir"], str) and cfg["output_dir"] != "", "output_dir",
             "must be a non-empty path")


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
        user = json.loads(path.read_text())
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
    if isinstance(value, float) and value == int(value):
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
    """Expand the sweep axes x seeds into concrete run descriptors."""
    cfg = config.resolved
    sweep = cfg["sweep"]
    axes: list[tuple[str, list[Any]]] = []
    for axis in ("mode", "t_round_s", "r", "partition_mode"):
        values = sweep[axis]
        if values is not None:
            axes.append((axis, values))

    descriptors = []
    combos = itertools.product(*(values for _, values in axes)) if axes else [()]
    for combo in combos:
        variant = copy.deepcopy(cfg)
        tags = []
        for (axis, _), value in zip(axes, combo):
            if axis == "mode":
                variant["protocol"]["mode"] = value
            elif axis == "t_round_s":
                variant["budget"]["t_round_s"] = float(value)
                tags.append(f"tr{_format_value(value)}")
            elif axis == "r":
                variant["fluctuation"]["r"] = float(value)
                tags.append(f"r{_format_value(value)}")
            elif axis == "partition_mode":
                variant["partition"]["mode"] = value
                tags.append(str(value))
        group = "_".join([variant["protocol"]["mode"], *tags])
        variant["sweep"] = {k: None for k in variant["sweep"]}
        _validate(variant)
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

    def cell(self) -> CellConfig:
        c = self.resolved["cell"]
        return CellConfig(
            radius_m=c["radius_m"],
            carrier_freq_ghz=c["carrier_freq_ghz"],
            bs_height_m=c["bs_height_m"],
            ue_height_m=c["ue_height_m"],
            tx_power_dbm=c["tx_power_dbm"],
            antenna_gain_dbi=c["antenna_gain_dbi"],
            rb_count=c["rb_count"],
            rb_bandwidth_total_hz=c["rb_bandwidth_total_hz"],
            noise_figure_db=c["noise_figure_db"],
            delta_loss=c["delta_loss"],
            rho_max_bps_hz=c["rho_max_bps_hz"],
            shadow_sigma_db=c["shadow_sigma_db"],
            min_distance_m=c["min_distance_m"],
        )

    def ranges(self) -> ResourceRanges:
        r = self.resolved["resources"]
        return ResourceRanges(
            data_count=tuple(r["data_count_range"]),
            capability=tuple(r["capability_range"]),
        )

    def budget(self) -> TimeBudget:
        b = self.resolved["budget"]
        return TimeBudget(
            t_round=Seconds(b["t_round_s"]),
            t_final=Seconds(max(b["t_final_s"], b["t_round_s"])),
            t_cs=Seconds(b["t_cs_s"]),
            t_agg=Seconds(b["t_agg_s"]),
            model_size=Megabits.from_megabytes(b["model_size_megabytes"]),
            epochs_per_round=b["epochs_per_round"],
        )

    def protocol(self) -> ProtocolConfig:
        p = self.resolved["protocol"]
        return ProtocolConfig(
            mode=p["mode"],
            k_total=p["k_total"],
            fraction=p["fraction"],
            budget=self.budget(),
            fluct=FluctuationConfig(r=self.resolved["fluctuation"]["r"]),
            late_policy=p["late_policy"],
            fedlim=FedLimOptions(
                distribution=p["fedlim"]["distribution"],
                upload_order=p["fedlim"]["upload_order"],
            ),
            aggregate_weighted=p["aggregate_weighted"],
        )

    def stop(self) -> StopCondition:
        return StopCondition(
            t_final=Seconds(self.resolved["budget"]["t_final_s"]),
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
