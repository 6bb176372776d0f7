"""The client population, its resources, and the update/upload time model.

A `Population` holds every client's data count, mean compute capability and
mean uplink throughput as numpy columns, fixed for the whole simulation.
`realized_times` is the one time model: it re-samples capability and
throughput around their means with a configurable relative std, one draw per
round for the clients it needs, and at r = 0 gives the estimated times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .channel import CellConfig, mean_throughput, place_clients
from .core import Megabits, ModelError, ParameterError, RngStream, Seconds, is_integer

__all__ = [
    "MAX_CLIENTS",
    "MAX_DATA_COUNT",
    "MAX_EPOCHS",
    "RELATIVE_CLAMP_FLOOR",
    "FluctuationConfig",
    "Population",
    "ResourceRanges",
    "TimeBudget",
    "generate_profiles",
    "realized_times",
]

# Bounds that keep building one population under 0.3 GB, and an update's
# sample count (data count x epochs) an exact float.  A population holds 24
# bytes per client once built; building it peaks at about 27 (traced at
# K = 100 000), since `generate_profiles` keeps the columns it draws.
MAX_CLIENTS = 10**7
MAX_DATA_COUNT = 10**6
MAX_EPOCHS = 1000

# Sampled rates are clamped at this fraction of their mean so that extreme
# draws at large relative std never produce zero or negative values.
RELATIVE_CLAMP_FLOOR = 0.01


@dataclass(frozen=True)
class ClientProfile:
    """One client's row of a `Population`, built only when it is iterated."""

    id: int
    data_count: int
    mean_capability: float
    mean_throughput: float


@dataclass(frozen=True, eq=False)
class Population:
    """Every client's static resources, one read-only numpy column each.

    A run names a client by its row; only a written record, and the
    `ClientProfile`s of `__iter__`, give row i its id i + 1.  `data_count`
    is int64; `capability` (samples/s) and `throughput` (Mbit/s) are float64.
    """

    data_count: np.ndarray
    capability: np.ndarray
    throughput: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.data_count)
        if counts.dtype.kind in "biu":
            # The one copy kept, exact but for uint64 counts past int64's
            # range: they wrap to negatives, which the range check rejects.
            data_count = counts.astype(np.int64)
        else:
            # Other counts are checked as floats: an int64 cast would truncate
            # 2.5, wrap NaN and overflow on 10**30.
            counts = data_count = np.array(self.data_count, dtype=np.float64)
        capability = np.array(self.capability, dtype=np.float64)
        throughput = np.array(self.throughput, dtype=np.float64)
        self._adopt(counts, data_count, capability, throughput)

    @classmethod
    def _of_fresh(
        cls, data_count: np.ndarray, capability: np.ndarray, throughput: np.ndarray
    ) -> Population:
        """The population of columns that no one else holds, kept without a
        copy and made read-only: int64 counts, float64 rates.  The checks
        are `__post_init__`'s."""
        population = object.__new__(cls)
        population._adopt(data_count, data_count, capability, throughput)
        return population

    def _adopt(
        self,
        counts: np.ndarray,
        data_count: np.ndarray,
        capability: np.ndarray,
        throughput: np.ndarray,
    ) -> None:
        """Check the columns and keep them, read-only.  `data_count` is int64
        or float64 and `counts` the caller's counts, which an error quotes;
        the rates are float64."""
        columns = {"data_count": data_count, "capability": capability, "throughput": throughput}
        count = len(data_count)
        if any(c.shape != (count,) for c in columns.values()):
            raise ParameterError("population columns must be 1-D arrays of equal length")
        # Each check is and-ed in place, so one temporary mask is alive at a time.
        whole = data_count >= 1
        whole &= data_count <= MAX_DATA_COUNT
        if data_count.dtype.kind == "f":
            whole &= np.floor(data_count) == data_count
        if not whole.all():
            i = int(np.argmin(whole))
            raise ModelError(
                f"client {i + 1} needs an integer data count in [1, {MAX_DATA_COUNT}], "
                f"got {float(counts[i])!r}"
            )
        columns["data_count"] = data_count.astype(np.int64, copy=False)
        valid = np.isfinite(capability)
        valid &= capability > 0.0
        valid &= np.isfinite(throughput)
        valid &= throughput > 0.0
        if not valid.all():
            i = int(np.argmin(valid))
            raise ModelError(
                f"client {i + 1} needs finite positive mean capability and throughput, "
                f"got {float(capability[i])!r} and {float(throughput[i])!r}"
            )
        for name, column in columns.items():
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.data_count)

    def __iter__(self) -> Iterator[ClientProfile]:
        """One `ClientProfile` per row, in row order, with id row + 1; the
        columns are already checked."""
        columns = (self.data_count, self.capability, self.throughput)
        for cid, values in enumerate(zip(*(c.tolist() for c in columns)), 1):
            yield ClientProfile(cid, *values)


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
        if not (is_integer(lo) and is_integer(hi) and 0 < lo <= hi <= MAX_DATA_COUNT):
            raise ParameterError(
                f"data_count range must be integers with 0 < lo <= hi <= {MAX_DATA_COUNT}, "
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
    the closed range; capabilities are uniform reals.  Positions only set
    the throughputs and are not kept; `place_clients(count, cell,
    rng.child("placement").generator())` draws them again.
    """
    if not 1 <= count <= MAX_CLIENTS:
        raise ParameterError(f"count must be in [1, {MAX_CLIENTS}], got {count!r}")
    # Distances and shadows are freed before the resource columns are drawn.
    placement = rng.child("placement").generator()
    throughput = mean_throughput(*place_clients(count, cell, placement), cell)
    res = rng.child("resources").generator()
    lo, hi = ranges.data_count
    data_count = res.integers(lo, hi + 1, size=count)
    clo, chi = ranges.capability
    capability = res.uniform(clo, chi, size=count)
    return Population._of_fresh(data_count, capability, throughput)


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
    positions: np.ndarray | slice,
    budget: TimeBudget,
    fluct: FluctuationConfig,
    rng: np.random.Generator | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Realized (update, upload) times of the clients at `positions`, in that order.

    Capability and throughput are re-sampled around their means from
    Normal(mean, r * mean), clamped below at RELATIVE_CLAMP_FLOOR * mean, in
    one (n, 2) draw of [capability, throughput] rows: the same numbers as
    drawing client by client, capability first.  `Population` admits only
    finite positive means, so the floor is at least +0.0 without a clamp of
    its own.  With r == 0 the times are the estimates, epochs * data_count /
    capability and model_size / throughput, no draws are consumed and `rng`
    is unused (it may be None).
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
