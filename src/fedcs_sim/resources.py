"""Client resource profiles and the update/upload time model.

A profile fixes a client's data count, mean compute capability and mean
uplink throughput for the whole simulation.  Estimated times are
deterministic functions of the profile, per client or as columns over a
whole population; realized times re-sample capability and throughput around
their means with a configurable relative std.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import CellConfig, ClientPosition, mean_throughput, place_clients
from .core import (
    ClientId,
    Megabits,
    MegabitsPerSecond,
    ModelError,
    ParameterError,
    RngStream,
    Samples,
    SamplesPerSecond,
    Seconds,
    gaussian_truncated,
)

__all__ = [
    "ClientProfile",
    "EstimateColumns",
    "FluctuationConfig",
    "ResourceRanges",
    "TimeBudget",
    "generate_profiles",
    "estimated_update_time",
    "estimated_upload_time",
    "realized_times",
    "profiles_to_csv",
]


@dataclass(frozen=True)
class ClientProfile:
    """One client's static resources, fixed for the simulation lifetime."""

    id: ClientId
    data_count: Samples
    mean_capability: SamplesPerSecond
    mean_throughput: MegabitsPerSecond
    position: ClientPosition


@dataclass(frozen=True)
class FluctuationConfig:
    """Relative std (fraction of the mean) for realized capability/throughput."""

    r: float = 0.0

    def __post_init__(self) -> None:
        if self.r < 0:
            raise ParameterError(f"fluctuation r must be >= 0, got {self.r!r}", field="r")


@dataclass(frozen=True)
class ResourceRanges:
    """Uniform draw ranges for per-client data counts and compute capability."""

    data_count: tuple[int, int] = (100, 1000)
    capability: tuple[float, float] = (10.0, 100.0)

    def __post_init__(self) -> None:
        lo, hi = self.data_count
        if not (0 < lo <= hi):
            raise ParameterError(
                f"data_count range must satisfy 0 < lo <= hi, got {self.data_count!r}",
                field="data_count",
            )
        clo, chi = self.capability
        if not (0 < clo <= chi):
            raise ParameterError(
                f"capability range must satisfy 0 < lo <= hi, got {self.capability!r}",
                field="capability",
            )


@dataclass(frozen=True)
class TimeBudget:
    """Per-round time parameters of the protocol."""

    t_round: Seconds = Seconds(180.0)
    t_cs: Seconds = Seconds(0.0)
    t_agg: Seconds = Seconds(0.0)
    model_size: Megabits = Megabits.from_megabytes(18.3)
    epochs_per_round: int = 5

    def __post_init__(self) -> None:
        if not self.t_round > self.t_cs + self.t_agg:
            raise ParameterError("t_round must exceed t_cs + t_agg", field="t_round")
        if not self.model_size > 0:
            raise ParameterError("model_size must be positive", field="model_size")
        if self.epochs_per_round < 1:
            raise ParameterError("epochs_per_round must be >= 1", field="epochs_per_round")


def generate_profiles(
    count: int, cell: CellConfig, ranges: ResourceRanges, rng: RngStream
) -> list[ClientProfile]:
    """Build `count` client profiles with ids 1..count.

    Positions (and shadow fading) come from the 'placement' child stream,
    data counts and capabilities from the 'resources' child stream, so the
    two can be ablated independently.  Data counts are uniform integers over
    the closed range; capabilities are uniform reals.
    """
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count!r}")
    positions = place_clients(count, cell, rng.child("placement").generator())
    res = rng.child("resources").generator()
    lo, hi = ranges.data_count
    data_counts = res.integers(lo, hi + 1, size=count)
    clo, chi = ranges.capability
    capabilities = res.uniform(clo, chi, size=count)
    return [
        ClientProfile(
            id=ClientId(i + 1),
            data_count=Samples(int(data_counts[i])),
            mean_capability=SamplesPerSecond(float(capabilities[i])),
            mean_throughput=mean_throughput(positions[i], cell),
            position=positions[i],
        )
        for i in range(count)
    ]


def estimated_update_time(profile: ClientProfile, budget: TimeBudget) -> Seconds:
    """Local update time estimate: epochs * data_count / capability."""
    return Seconds(budget.epochs_per_round * profile.data_count / profile.mean_capability)


def estimated_upload_time(profile: ClientProfile, budget: TimeBudget) -> Seconds:
    """Upload time estimate: model_size / mean throughput."""
    if profile.mean_throughput == 0:
        raise ModelError(f"client {int(profile.id)} has zero mean throughput")
    return Seconds(budget.model_size / profile.mean_throughput)


@dataclass(frozen=True, eq=False)
class EstimateColumns:
    """Estimated times of a whole population, one row per profile, in list order.

    `ids` is int64; `t_update`, `t_upload` and `throughput` are float64.  The
    times are the same float operations as `estimated_update_time` and
    `estimated_upload_time` on the same values, so they are bit-equal.
    """

    ids: np.ndarray
    t_update: np.ndarray
    t_upload: np.ndarray
    throughput: np.ndarray

    @classmethod
    def of(cls, profiles: list[ClientProfile], budget: TimeBudget) -> "EstimateColumns":
        ids = np.array([int(p.id) for p in profiles], dtype=np.int64)
        data_counts = np.array([int(p.data_count) for p in profiles], dtype=np.int64)
        capability = np.array([float(p.mean_capability) for p in profiles], dtype=np.float64)
        throughput = np.array([float(p.mean_throughput) for p in profiles], dtype=np.float64)
        if not throughput.all():
            raise ModelError(f"client {int(ids[np.argmin(throughput)])} has zero mean throughput")
        return cls(
            ids=ids,
            t_update=budget.epochs_per_round * data_counts / capability,
            t_upload=float(budget.model_size) / throughput,
            throughput=throughput,
        )


def realized_times(
    profile: ClientProfile,
    budget: TimeBudget,
    fluct: FluctuationConfig,
    rng: np.random.Generator,
) -> tuple[Seconds, Seconds]:
    """Realized (update, upload) times for one round.

    Capability and throughput are each re-sampled once around their means
    with relative std `fluct.r` (capability first, then throughput), and the
    two times are recomputed from the sampled values.  With r == 0 the
    estimates are reproduced bit for bit and no draws are consumed.
    """
    capability = gaussian_truncated(profile.mean_capability, fluct.r, 0.0, rng)
    throughput = gaussian_truncated(profile.mean_throughput, fluct.r, 0.0, rng)
    update = Seconds(budget.epochs_per_round * profile.data_count / capability)
    upload = Seconds(budget.model_size / throughput)
    return update, upload


def profiles_to_csv(profiles: list[ClientProfile], path: str | Path) -> None:
    """Write an audit snapshot: id, data_count, capability, throughput, distance."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "data_count", "capability_sps", "throughput_mbps", "distance_m"])
        for p in profiles:
            writer.writerow(
                [
                    int(p.id),
                    int(p.data_count),
                    repr(float(p.mean_capability)),
                    repr(float(p.mean_throughput)),
                    repr(float(p.position.distance_m)),
                ]
            )
