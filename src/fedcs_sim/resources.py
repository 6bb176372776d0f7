"""The client population, its resources, and the update/upload time model.

A `Population` holds every client's data count, mean compute capability,
mean uplink throughput and position as numpy columns, fixed for the whole
simulation.  Estimated times are deterministic column expressions over it;
realized times re-sample capability and throughput around their means with a
configurable relative std, one draw per round for the clients it needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .channel import CellConfig, mean_throughput, place_clients
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
)

__all__ = [
    "MAX_CLIENTS",
    "MAX_DATA_COUNT",
    "MAX_EPOCHS",
    "RELATIVE_CLAMP_FLOOR",
    "ClientProfile",
    "FluctuationConfig",
    "Population",
    "ResourceRanges",
    "TimeBudget",
    "generate_profiles",
    "estimated_update_time",
    "estimated_upload_time",
    "realized_times",
]

# Bounds that keep one population near 1 GB (about 100 bytes per client),
# and an update's sample count (data count x epochs) an exact float.
MAX_CLIENTS = 10**7
MAX_DATA_COUNT = 10**6
MAX_EPOCHS = 1000

# Sampled rates are clamped at this fraction of their mean so that extreme
# draws at large relative std never produce zero or negative values.
RELATIVE_CLAMP_FLOOR = 0.01


@dataclass(frozen=True)
class ClientProfile:
    """One client's row of a `Population`, built only when it is iterated."""

    id: ClientId
    data_count: Samples
    mean_capability: SamplesPerSecond
    mean_throughput: MegabitsPerSecond


@dataclass(frozen=True, eq=False)
class Population:
    """Every client's static resources, one read-only numpy column each.

    Row i holds client i + 1, so `ids` is 1..K and a client's row is its id
    minus one.  `data_count` is int64; `capability` (samples/s), `throughput`
    (Mbit/s), `distance` (m) and `shadow` (dB) are float64.
    """

    data_count: np.ndarray
    capability: np.ndarray
    throughput: np.ndarray
    distance: np.ndarray
    shadow: np.ndarray
    ids: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        # Counts are checked as floats: an int64 cast would truncate 2.5 and wrap NaN.
        columns = {"data_count": np.array(self.data_count, dtype=np.float64)}
        for name in ("capability", "throughput", "distance", "shadow"):
            columns[name] = np.array(getattr(self, name), dtype=np.float64)
        count = len(columns["data_count"])
        if any(c.shape != (count,) for c in columns.values()):
            raise ParameterError("population columns must be 1-D arrays of equal length")
        counts = columns["data_count"]
        whole = np.floor(counts) == counts
        whole &= (counts >= 1) & (counts <= MAX_DATA_COUNT)
        if not whole.all():
            i = int(np.argmin(whole))
            raise ModelError(
                f"client {i + 1} needs an integer data count in [1, {MAX_DATA_COUNT}], "
                f"got {float(counts[i])!r}"
            )
        columns["data_count"] = counts.astype(np.int64)
        capability, throughput = columns["capability"], columns["throughput"]
        valid = np.isfinite(capability) & (capability > 0.0)
        valid &= np.isfinite(throughput) & (throughput > 0.0)
        if not valid.all():
            i = int(np.argmin(valid))
            raise ModelError(
                f"client {i + 1} needs finite positive mean capability and throughput, "
                f"got {float(capability[i])!r} and {float(throughput[i])!r}"
            )
        columns["ids"] = np.arange(1, count + 1, dtype=np.int64)
        for name, column in columns.items():
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[ClientProfile]:
        """One `ClientProfile` per client, in id order."""
        columns = (self.ids, self.data_count, self.capability, self.throughput)
        for cid, n, capability, throughput in zip(*(c.tolist() for c in columns)):
            row = (Samples(n), SamplesPerSecond(capability), MegabitsPerSecond(throughput))
            yield ClientProfile(ClientId(cid), *row)


@dataclass(frozen=True)
class FluctuationConfig:
    """Relative std (fraction of the mean) for realized capability/throughput."""

    r: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r) and self.r >= 0):
            raise ParameterError(
                f"fluctuation r must be finite and >= 0, got {self.r!r}", field="r"
            )


@dataclass(frozen=True)
class ResourceRanges:
    """Uniform draw ranges for per-client data counts and compute capability."""

    data_count: tuple[int, int] = (100, 1000)
    capability: tuple[float, float] = (10.0, 100.0)

    def __post_init__(self) -> None:
        lo, hi = self.data_count
        if not (0 < lo <= hi <= MAX_DATA_COUNT):
            raise ParameterError(
                f"data_count range must satisfy 0 < lo <= hi <= {MAX_DATA_COUNT}, "
                f"got {self.data_count!r}",
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
        if not 1 <= self.epochs_per_round <= MAX_EPOCHS:
            raise ParameterError(
                f"epochs_per_round must be in [1, {MAX_EPOCHS}]", field="epochs_per_round"
            )


def generate_profiles(
    count: int, cell: CellConfig, ranges: ResourceRanges, rng: RngStream
) -> Population:
    """Build the population of `count` clients with ids 1..count.

    Positions (and shadow fading) come from the 'placement' child stream,
    data counts and capabilities from the 'resources' child stream, so the
    two can be ablated independently.  Data counts are uniform integers over
    the closed range; capabilities are uniform reals.
    """
    if not 1 <= count <= MAX_CLIENTS:
        raise ParameterError(f"count must be in [1, {MAX_CLIENTS}], got {count!r}")
    distance, shadow = place_clients(count, cell, rng.child("placement").generator())
    res = rng.child("resources").generator()
    lo, hi = ranges.data_count
    data_count = res.integers(lo, hi + 1, size=count)
    clo, chi = ranges.capability
    capability = res.uniform(clo, chi, size=count)
    throughput = mean_throughput(distance, shadow, cell)
    return Population(data_count, capability, throughput, distance, shadow)


def estimated_update_time(profile: ClientProfile, budget: TimeBudget) -> Seconds:
    """epochs * data_count / capability of one row (bench/checks.py's re-plan)."""
    return Seconds(budget.epochs_per_round * profile.data_count / profile.mean_capability)


def estimated_upload_time(profile: ClientProfile, budget: TimeBudget) -> Seconds:
    """model_size / mean throughput of one row (bench/checks.py's re-plan)."""
    if profile.mean_throughput == 0:
        raise ModelError(f"client {int(profile.id)} has zero mean throughput")
    return Seconds(budget.model_size / profile.mean_throughput)


def realized_times(
    population: Population,
    positions: np.ndarray,
    budget: TimeBudget,
    fluct: FluctuationConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Realized (update, upload) times of the clients at `positions`, in that order.

    Capability and throughput are re-sampled around their means from
    Normal(mean, r * mean), clamped below at RELATIVE_CLAMP_FLOOR * mean, in
    one (n, 2) draw of [capability, throughput] rows: the same numbers as
    drawing client by client, capability first.  `Population` admits only
    finite positive means, so the floor is at least +0.0 without a clamp of
    its own.  With r == 0 the estimates are reproduced bit for bit and no
    draws are consumed.
    """
    capability, throughput = population.capability[positions], population.throughput[positions]
    if fluct.r != 0.0:
        rates = np.stack([capability, throughput], 1)
        # Generator.normal(rates, r * rates) is rates + (r * rates) * z, with z
        # this same stream of standard normals.
        draws = rng.standard_normal(rates.shape)
        draws *= fluct.r * rates
        draws += rates
        capability, throughput = np.maximum(draws, RELATIVE_CLAMP_FLOOR * rates, out=draws).T
    update = budget.epochs_per_round * population.data_count[positions] / capability
    upload = float(budget.model_size) / throughput
    return update, upload
