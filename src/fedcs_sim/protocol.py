"""The round loop of the three protocols.

Every protocol runs one round shape: request a cohort, realize its times,
pick and time the clients that take part, train and aggregate them,
evaluate, advance the clock.  Only the picking and timing differ, so each
mode is one engine `(state, population, config, requested, update, upload)
-> (selected, aggregated, busy, advance)`, where `update` and `upload` are
the cohort's realized times, `selected` and `aggregated` are positions in
the cohort and the last two are realized seconds:

fedcs:   greedy client selection on the estimated times, then multicast
         distribution and scheduled sequential update/upload, all planned to
         fit the round deadline.
fedlim:  deadline-limited baseline: the whole cohort downloads the model,
         updates in parallel, and uploads sequentially until the first upload
         misses the deadline.  No upload ends before release + upload, so the
         queue is cut after the first client whose release + upload passes
         the deadline by a relative 1e-9 (see `_fedlim_uploads`), and the
         `channel` and `ready` orders sort only the clients up to that cut.
         The clock advances by exactly one deadline.
vanilla: the same random cohort with no deadline; the round lasts as long as
         the slowest path takes.

Each engine times the order it serves with one `selection.finish_times`
chain and reads its deadline cuts from that chain by bisection, since
finishes never decrease.

`run_round` does the rest once for every mode.  It requests the cohort from
the cohort stream and realizes the whole cohort's times, in cohort order,
from the fluctuation stream, so every mode sees the same cohort and the same
realized times at each round index; an upload order draws only from its own
stream.  It then trains and aggregates the `aggregated` clients, evaluates,
advances the clock and builds the RoundRecord.  `run_experiment` calls it
until the final deadline or a target accuracy.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import orjson

from .core import ParameterError, RngStream, Seconds
from .learning import GlobalModel, Trainer, aggregate
from .resources import MAX_CLIENTS, FluctuationConfig, Population, TimeBudget, realized_times
from .selection import CandidateSet, finish_times, greedy_select

__all__ = [
    "MODES",
    "LATE_POLICIES",
    "FEDLIM_DISTRIBUTIONS",
    "FEDLIM_UPLOAD_ORDERS",
    "FedLimOptions",
    "ProtocolConfig",
    "StopCondition",
    "RoundRecord",
    "ExperimentState",
    "run_round",
    "run_experiment",
]

MODES = ("fedcs", "fedlim", "vanilla")
LATE_POLICIES = ("extend", "discard")
FEDLIM_DISTRIBUTIONS = ("unicast", "multicast", "none")
FEDLIM_UPLOAD_ORDERS = ("channel", "ready", "random")


@dataclass(frozen=True)
class FedLimOptions:
    """How the deadline-limited baseline accounts for distribution and orders uploads.

    distribution:
      unicast   - each client's own download time delays its update start
                  (default; a multicast pinned to the worst of ~100 random
                  links would exceed any practical deadline every round).
      multicast - one shared distribution phase at the slowest selected link,
                  charged against the deadline.
      none      - the deadline window covers updating and uploading only.
    upload_order:
      channel - shortest upload first (the operator knows link rates).
      ready   - first finished updating, first served.
      random  - uniformly random fixed order.
    """

    distribution: str = "unicast"
    upload_order: str = "channel"

    def __post_init__(self) -> None:
        if self.distribution not in FEDLIM_DISTRIBUTIONS:
            raise ParameterError(
                f"distribution must be one of {FEDLIM_DISTRIBUTIONS}", field="distribution"
            )
        if self.upload_order not in FEDLIM_UPLOAD_ORDERS:
            raise ParameterError(
                f"upload_order must be one of {FEDLIM_UPLOAD_ORDERS}", field="upload_order"
            )


@dataclass(frozen=True)
class ProtocolConfig:
    mode: str = "fedcs"
    k_total: int = 1000
    fraction: float = 0.1
    budget: TimeBudget = TimeBudget()
    fluct: FluctuationConfig = FluctuationConfig()
    late_policy: str = "extend"
    fedlim: FedLimOptions = FedLimOptions()
    aggregate_weighted: bool = False

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}, got {self.mode!r}", field="mode")
        if not 0 < self.fraction <= 1:
            raise ParameterError(
                f"fraction must be in (0, 1], got {self.fraction!r}", field="fraction"
            )
        if not 1 <= self.k_total <= MAX_CLIENTS:
            raise ParameterError(f"k_total must be in [1, {MAX_CLIENTS}]", field="k_total")
        if self.late_policy not in LATE_POLICIES:
            raise ParameterError(f"late_policy must be one of {LATE_POLICIES}", field="late_policy")

    @cached_property
    def cohort_size(self) -> int:
        """ceil(k_total * fraction), with fraction read as the decimal that its
        repr names ("0.07", "1e-05"): the float product rounds 100 * 0.07 up
        to 8.  Integer arithmetic gives Fraction's result without importing
        `fractions` and `decimal` into every run."""
        digits, _, exponent = repr(float(self.fraction)).partition("e")
        whole, _, decimals = digits.partition(".")
        scale = 10 ** (len(decimals) - int(exponent or 0))
        return -(-self.k_total * int(whole + decimals) // scale)


@dataclass(frozen=True)
class StopCondition:
    """Run until the clock reaches t_final or accuracy reaches the target."""

    t_final: Seconds
    target_accuracy: float | None = None

    def __post_init__(self) -> None:
        if self.target_accuracy is not None and not 0 < self.target_accuracy <= 1:
            raise ParameterError("target_accuracy must be in (0, 1]", field="target_accuracy")


_ID_FIELDS = ("requested", "selected_or_completed")


def _ids_json(ids: np.ndarray) -> str:
    """The JSON list `json.dumps` writes for these ids: orjson formats the
    int64 buffer, and its only commas are the separators, which `json.dumps`
    writes as ", "."""
    return orjson.dumps(ids, option=orjson.OPT_SERIALIZE_NUMPY).replace(b",", b", ").decode()


_NON_FINITE_JSON = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _number_json(value: int | float) -> str:
    """What `json.dumps` writes for an int or a float: its repr, with the
    non-finite floats spelled NaN, Infinity and -Infinity."""
    if isinstance(value, int):
        return int.__repr__(value)
    text = float.__repr__(value)
    return _NON_FINITE_JSON.get(text, text)


@dataclass(frozen=True, eq=False)
class RoundRecord:
    """Realized outcome of one round.

    requested and selected_or_completed hold client ids, population row + 1,
    each as one read-only, C-contiguous int64 array: the constructor copies
    whatever sequence it is given into one, so a record never shares a
    buffer with its caller.  Two records are equal when their id arrays hold
    the same ids and every other field compares equal; records are not
    hashable.
    realized_round_duration is the wall-clock advance of the round;
    busy_time is the realized span of the round's work, which can be shorter
    (a schedule finishing early) or longer (an overrun under the extend
    policy is still cut to the advance only for the clock, not for the work).
    """

    round: int
    requested: np.ndarray
    selected_or_completed: np.ndarray
    realized_round_duration: Seconds
    busy_time: Seconds
    clock_after: Seconds
    accuracy_after: float
    aggregated_count: int

    __hash__ = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        for key in _ID_FIELDS:
            ids = np.array(getattr(self, key), dtype=np.int64, order="C")
            ids.flags.writeable = False
            object.__setattr__(self, key, ids)

    def _scalars(self) -> dict:
        """Every field but the ids, in declaration order."""
        return {key: value for key, value in vars(self).items() if key not in _ID_FIELDS}

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._scalars() == other._scalars() and all(
            np.array_equal(getattr(self, key), getattr(other, key)) for key in _ID_FIELDS
        )

    def to_json_line(self) -> str:
        """`json.dumps` of the fields in declaration order, each Seconds
        written through float.__repr__."""
        return (
            f'{{"round": {_number_json(self.round)}, '
            f'"requested": {_ids_json(self.requested)}, '
            f'"selected_or_completed": {_ids_json(self.selected_or_completed)}, '
            f'"realized_round_duration": {_number_json(self.realized_round_duration)}, '
            f'"busy_time": {_number_json(self.busy_time)}, '
            f'"clock_after": {_number_json(self.clock_after)}, '
            f'"accuracy_after": {_number_json(self.accuracy_after)}, '
            f'"aggregated_count": {_number_json(self.aggregated_count)}}}'
        )

    @classmethod
    def from_json_line(cls, line: str) -> "RoundRecord":
        """The record of a `to_json_line` line, each field checked for its
        JSON type: counts are non-negative integers, id lists hold integers
        in [1, MAX_CLIENTS] (so int64 holds every id), times are numbers and
        the accuracy is a number in [0, 1].  true and false are not numbers
        here."""
        raw = json.loads(line)
        for key in ("round", "aggregated_count"):
            if type(raw[key]) is not int or raw[key] < 0:
                raise ParameterError(f"{key} must be a non-negative integer, got {raw[key]!r}")
        for key in _ID_FIELDS:
            ids = raw[key]
            if type(ids) is not list or not all(
                type(i) is int and 1 <= i <= MAX_CLIENTS for i in ids
            ):
                raise ParameterError(
                    f"{key} must be a list of positive integers no larger than {MAX_CLIENTS}"
                )
        for key in ("realized_round_duration", "busy_time", "clock_after"):
            if type(raw[key]) not in (int, float):
                raise ParameterError(f"{key} must be a number, got {raw[key]!r}")
        accuracy = raw["accuracy_after"]
        if type(accuracy) not in (int, float) or not 0 <= accuracy <= 1:
            raise ParameterError(f"accuracy_after must be a number in [0, 1], got {accuracy!r}")
        return cls(
            round=raw["round"],
            requested=raw["requested"],
            selected_or_completed=raw["selected_or_completed"],
            realized_round_duration=Seconds(raw["realized_round_duration"]),
            busy_time=Seconds(raw["busy_time"]),
            clock_after=Seconds(raw["clock_after"]),
            accuracy_after=raw["accuracy_after"],
            aggregated_count=raw["aggregated_count"],
        )


@dataclass
class ExperimentState:
    """Mutable per-experiment state threaded through the round engines.

    Inside a run a client is its population row: the cohort, the plan and
    the clients handed to the trainer are rows, and only the `RoundRecord`
    names row k as client k + 1.  `estimates` holds the whole population's
    estimated times as one validated `CandidateSet`, row k for population
    row k, and `schedulable` its `CandidateSet.schedulable` mask.  Only the
    fedcs engine uses them; it builds both on its first round, from the
    population and budget, which stay fixed for the run, and plans each
    round on the schedulable members of the requested cohort.
    """

    clock: float
    model: GlobalModel
    accuracy: float
    rng_cohort: np.random.Generator
    rng_fluctuation: np.random.Generator
    rng_order: np.random.Generator
    rng_training: np.random.Generator
    estimates: CandidateSet | None = None
    schedulable: np.ndarray | None = None

    @classmethod
    def fresh(cls, trainer: Trainer, rng: RngStream) -> "ExperimentState":
        model = trainer.init_model()
        return cls(
            clock=0.0,
            model=model,
            accuracy=trainer.evaluate(model),
            # Labelled "selection" so that records keep their cohorts byte for byte.
            rng_cohort=rng.child("selection").generator(),
            rng_fluctuation=rng.child("fluctuation").generator(),
            rng_order=rng.child("order").generator(),
            rng_training=rng.child("training").generator(),
        )


def _request_positions(
    state: ExperimentState, population: Population, config: ProtocolConfig
) -> np.ndarray:
    """Resource request: a uniform without-replacement draw of population
    rows, in ascending order (which is id order)."""
    size = config.cohort_size
    if size > len(population):
        raise ParameterError("cohort size exceeds the client population")
    return np.sort(state.rng_cohort.choice(len(population), size=size, replace=False))


def _fedcs_round(state, population, config, requested, update, upload):
    """Greedy selection on the estimates, then the schedule's realized times.

    The realized distribution phase runs at the slowest sampled link, which
    makes it equal to the largest realized upload time.  Under the `extend`
    policy every selected client aggregates and the clock advances by
    max(t_round, realized total); under `discard` only the prefix of the
    schedule finishing within the deadline aggregates and the clock advances
    by exactly t_round.  An empty schedule is busy for t_cs + t_agg.
    """
    budget = config.budget
    if state.estimates is None:
        state.estimates = CandidateSet.estimated(population, budget)
        state.schedulable = state.estimates.schedulable(budget)
    # Greedy rejects every other cohort member from any state, and dropping
    # a client it would reject changes neither its picks, its acceptances
    # nor, with the rest kept in cohort order, its tie-breaks.
    planned = np.flatnonzero(state.schedulable[requested])
    selected = planned[greedy_select(state.estimates._rows(requested[planned]), budget)]
    uploads = upload[selected].tolist()
    realized_dist = max(uploads, default=0.0)
    finish = finish_times(update[selected].tolist(), uploads)
    busy = float(budget.t_cs) + float(budget.t_agg) + realized_dist + finish[-1]
    if config.late_policy == "extend":
        return selected, selected, busy, max(float(budget.t_round), busy)
    cutoff = float(budget.t_round) - float(budget.t_agg)
    head = float(budget.t_cs) + realized_dist
    # Finishes never decrease, so the on-time clients are a prefix.
    on_time = bisect_right(finish, cutoff, 1, key=lambda f: head + f) - 1
    return selected, selected[:on_time], busy, float(budget.t_round)


def _fedlim_release_times(
    update: np.ndarray, upload: np.ndarray, options: FedLimOptions, t_cs: float
) -> np.ndarray:
    """When each client becomes ready to upload, per the distribution model."""
    if options.distribution == "unicast":
        # Download runs at the same sampled link rate as the upload.
        return t_cs + upload + update
    if options.distribution == "multicast":
        return t_cs + float(upload.max()) + update
    return t_cs + update


def _fedlim_uploads(
    release: np.ndarray,
    upload: np.ndarray,
    upload_order: str,
    deadline: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """Serve uploads one at a time, in `upload_order`, until the first one
    that ends after `deadline`: the cohort positions served in time, in
    upload order, and the clock when serving stopped.

    The order is shortest upload first (`channel`) or earliest release first
    (`ready`), ties in position order, or one permutation drawn from `rng`
    (`random`).  Only its prefix up to and including the first late client
    is served, where a client is late when b = fl(release + upload) >
    fl(deadline * (1 + 1e-9)).  Serving stops there at the latest: with
    eps = 2^-53, the clock after serving (r, u) from clock theta >= 0 is
    fl(fl(theta + u) + fl(r - theta)) >= (r + u)(1 - eps)^2 when r > theta,
    both summands being non-negative, and fl(theta + u) >= (r + u)(1 - eps)
    otherwise.  As b <= (r + u)(1 + eps) and the limit is at least
    deadline (1 + 1e-9 - 2 eps)(1 - eps), a late client's clock exceeds
    deadline (1 + 1e-9 - 2 eps)(1 - eps)^3 / (1 + eps) > deadline.  A b
    that overflows means r + u exceeds the largest float F, so the clock is
    at least F (1 - eps)^2, while a finite limit keeps the deadline below
    F / ((1 + 1e-9 - 2 eps)(1 - eps)) < F (1 - eps)^2.  A limit that
    overflows marks no client late.  A plain b > deadline could cut too
    early: the clock can land an ulp below b, and a later client with a
    sub-ulp upload then still completes.

    For `channel` and `ready` every client before the first late one has a
    key at most the smallest late key, so only those positions are sorted;
    their stable argsort is that prefix of `np.lexsort((positions, key))`
    over the whole cohort.
    """
    late = release + upload > deadline * (1.0 + 1e-9)
    if upload_order == "random":
        sequence = rng.permutation(len(release))
    else:
        key = release if upload_order == "ready" else upload
        head = np.flatnonzero(key <= key.min(initial=math.inf, where=late))
        sequence = head[np.argsort(key[head], kind="stable")]
    stops = np.flatnonzero(late[sequence])
    if len(stops):
        sequence = sequence[: stops[0] + 1]
    finish = finish_times(release[sequence].tolist(), upload[sequence].tolist())
    done = bisect_right(finish, deadline) - 1
    return sequence[:done], finish[min(done + 1, len(sequence))]


def _fedlim_round(state, population, config, requested, update, upload):
    """The deadline-limited baseline.

    The whole cohort participates: clients receive the model, update in
    parallel, then upload one at a time in the configured order.  A client
    counts as completed only if its upload finishes within t_round - t_agg,
    measured from the round start; the first late upload ends the round, so
    only the queue up to the first client that cannot finish is ordered and
    served (`_fedlim_uploads`).  The clock always advances by exactly
    t_round.
    """
    budget = config.budget
    release = _fedlim_release_times(update, upload, config.fedlim, float(budget.t_cs))
    deadline = float(budget.t_round) - float(budget.t_agg)
    served, clock = _fedlim_uploads(
        release, upload, config.fedlim.upload_order, deadline, state.rng_order
    )
    advance = float(budget.t_round)
    return served, served, min(clock, advance), advance


def _vanilla_round(state, population, config, requested, update, upload):
    """The deadline-free baseline: everyone in the cohort completes.

    The model is multicast at the slowest sampled link, updates overlap
    earlier uploads, and uploads run sequentially in a random order; the
    clock advances by however long that realized total takes.
    """
    budget = config.budget
    dist = float(upload.max())
    sequence = state.rng_order.permutation(len(upload))
    theta = finish_times(update[sequence].tolist(), upload[sequence].tolist())[-1]
    total = float(budget.t_cs) + dist + theta + float(budget.t_agg)
    return sequence, sequence, total, total


_ROUND_ENGINES = {
    "fedcs": _fedcs_round,
    "fedlim": _fedlim_round,
    "vanilla": _vanilla_round,
}


def run_round(
    state: ExperimentState,
    population: Population,
    config: ProtocolConfig,
    trainer: Trainer,
    round_index: int,
) -> RoundRecord:
    """One round of `config.mode`: this requests the cohort and realizes its
    times, the mode's engine picks and times the clients, and this trains and
    aggregates them, advances the clock and writes the record.  The record
    gets the cohort's and the selection's ids (row + 1) as int64 arrays,
    never as Python ints: `RoundRecord.to_json_line` formats them straight
    from the buffer."""
    requested = _request_positions(state, population, config)
    update, upload = realized_times(
        population, requested, config.budget, config.fluct, state.rng_fluctuation
    )
    selected, aggregated, busy, advance = _ROUND_ENGINES[config.mode](
        state, population, config, requested, update, upload
    )
    if len(aggregated):
        rows = requested[aggregated]
        updated = trainer.client_updates(state.model, rows.tolist(), state.rng_training)
        counts = population.data_count[rows].tolist()
        state.model = aggregate(list(zip(updated, counts)), weighted=config.aggregate_weighted)
        state.accuracy = trainer.evaluate(state.model)
    state.clock += advance
    return RoundRecord(
        round=round_index,
        requested=requested + 1,
        selected_or_completed=requested[selected] + 1,
        realized_round_duration=Seconds(advance),
        busy_time=Seconds(busy),
        clock_after=Seconds(state.clock),
        accuracy_after=state.accuracy,
        aggregated_count=len(aggregated),
    )


def run_experiment(
    config: ProtocolConfig,
    stop: StopCondition,
    trainer: Trainer,
    population: Population,
    rng: RngStream,
) -> list[RoundRecord]:
    """Iterate rounds until the final deadline or the target accuracy.

    A round starts only while the clock is strictly below t_final, so the
    clock never exceeds t_final by more than one round's advance.  The
    returned records carry strictly increasing clocks.
    """
    if config.k_total != len(population):
        raise ParameterError(
            f"config.k_total={config.k_total} but the population has {len(population)} clients"
        )
    state = ExperimentState.fresh(trainer, rng)
    records: list[RoundRecord] = []
    round_index = 0
    while state.clock < float(stop.t_final):
        record = run_round(state, population, config, trainer, round_index)
        records.append(record)
        if stop.target_accuracy is not None and record.accuracy_after >= stop.target_accuracy:
            break
        round_index += 1
    return records
