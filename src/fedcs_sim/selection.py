"""Deadline-constrained client scheduling: elapsed-time recursion, greedy, oracle.

Selected clients upload sequentially while later clients may perform their
local updates during earlier clients' upload slots.  The elapsed time after
the i-th client is therefore

    theta_i = max(theta_{i-1}, t_update_i) + t_upload_i,    theta_0 = 0,

equivalently the sum of all upload times plus every update overhang
max(0, t_update_j - theta_{j-1}).  A schedule is feasible when

    t_cs + dist_time(S) + theta_|S| + t_agg <= t_round,

with dist_time(S) the multicast distribution time, model_size / min
throughput over the selected set.  The greedy scheduler maximizes the number
of selected clients against that budget; the brute-force oracle verifies it
on small instances.

A cohort is a `CandidateSet`: numpy columns sorted by client id, validated
once on construction.  The greedy scheduler works on those columns directly,
one masked `argmin` per pick with an exact early exit, so no per-client
objects or unit-tagged scalars enter its loop.  `Candidate` is the row view
that the oracle and the scalar helpers (`elapsed_theta`, `dist_time`) take.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import ClientId, Megabits, MegabitsPerSecond, ParameterError, Seconds, UnitError
from .resources import TimeBudget

__all__ = [
    "Candidate",
    "CandidateSet",
    "Schedule",
    "extend_theta",
    "elapsed_theta",
    "dist_time",
    "feasible",
    "greedy_select",
    "oracle_select",
    "ORACLE_MAX_CANDIDATES",
    "ORACLE_EXHAUSTIVE_LIMIT",
]


@dataclass(frozen=True)
class Candidate:
    """Resource information one client reports for scheduling."""

    id: ClientId
    t_update: Seconds
    t_upload: Seconds
    throughput: MegabitsPerSecond

    def __post_init__(self) -> None:
        if self.throughput <= 0:
            raise ParameterError(f"candidate {int(self.id)} must have positive throughput")


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """The cohort that answered a resource request, as columns sorted by id.

    `ids` is int64; `t_update`, `t_upload` (seconds) and `throughput`
    (Mbit/s) are float64.  Rows given out of id order are sorted once here,
    and every row is validated once with the rules `Candidate` and `Seconds`
    apply: unique positive ids, finite non-negative times, finite positive
    throughput.  The stored arrays are read-only copies.
    """

    ids: np.ndarray
    t_update: np.ndarray
    t_upload: np.ndarray
    throughput: np.ndarray

    def __post_init__(self) -> None:
        ids = np.asarray(self.ids)
        if ids.size and ids.dtype.kind not in "iu":
            raise UnitError(f"candidate ids must be integers, got dtype {ids.dtype}")
        ids = ids.astype(np.int64)
        columns = [
            np.array(c, dtype=np.float64) for c in (self.t_update, self.t_upload, self.throughput)
        ]
        if ids.ndim != 1 or any(c.shape != ids.shape for c in columns):
            raise ParameterError("candidate columns must be 1-D arrays of equal length")
        if ids.size > 1 and not (ids[1:] > ids[:-1]).all():
            by_id = np.argsort(ids, kind="stable")
            ids = ids[by_id]
            columns = [c[by_id] for c in columns]
            if not (ids[1:] > ids[:-1]).all():
                raise ParameterError("candidate ids must be unique")
        if ids.size and ids[0] < 1:
            raise UnitError(f"ClientId must be a positive integer, got {int(ids[0])!r}")
        t_update, t_upload, throughput = columns
        for name, times in (("t_update", t_update), ("t_upload", t_upload)):
            bad = ~(np.isfinite(times) & (times >= 0.0))
            if bad.any():
                i = int(np.argmax(bad))
                raise UnitError(
                    f"candidate {int(ids[i])} {name} must be finite and non-negative, "
                    f"got {float(times[i])!r}"
                )
        bad = ~(np.isfinite(throughput) & (throughput > 0.0))
        if bad.any():
            raise ParameterError(
                f"candidate {int(ids[int(np.argmax(bad))])} must have finite positive throughput"
            )
        for name, column in zip(("ids", "t_update", "t_upload", "throughput"), (ids, *columns)):
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @classmethod
    def of(cls, candidates: Iterable[Candidate]) -> "CandidateSet":
        """Columns built from `Candidate` objects, in any order."""
        rows = list(candidates)
        return cls(
            ids=np.array([int(c.id) for c in rows], dtype=np.int64),
            t_update=np.array([float(c.t_update) for c in rows], dtype=np.float64),
            t_upload=np.array([float(c.t_upload) for c in rows], dtype=np.float64),
            throughput=np.array([float(c.throughput) for c in rows], dtype=np.float64),
        )

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Candidate]:
        """One `Candidate` per row, in id order."""
        columns = (self.ids, self.t_update, self.t_upload, self.throughput)
        for cid, t_update, t_upload, throughput in zip(*(c.tolist() for c in columns)):
            yield Candidate(
                ClientId(cid), Seconds(t_update), Seconds(t_upload), MegabitsPerSecond(throughput)
            )


@dataclass(frozen=True)
class Schedule:
    """Ordered selection with its elapsed-time trajectory and totals.

    theta[0] is always 0 and theta[i] is the elapsed time after the i-th
    selected client; total_time = t_cs + dist_time + theta[-1] + t_agg.
    """

    order: tuple[ClientId, ...]
    theta: tuple[float, ...]
    dist_time: Seconds
    total_time: Seconds

    def __post_init__(self) -> None:
        if len(self.theta) != len(self.order) + 1:
            raise ParameterError("theta must have one entry per selected client plus theta_0")
        if self.theta[0] != 0.0:
            raise ParameterError("theta_0 must be 0")
        if any(b < a for a, b in zip(self.theta, self.theta[1:])):
            raise ParameterError("theta must be non-decreasing")
        if len(set(self.order)) != len(self.order):
            raise ParameterError("schedule order must not repeat clients")

    def __len__(self) -> int:
        return len(self.order)

    def as_dict(self) -> dict:
        return {
            "order": [int(k) for k in self.order],
            "theta": [float(t) for t in self.theta],
            "dist_time": float(self.dist_time),
            "total_time": float(self.total_time),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict())

    @classmethod
    def from_json(cls, text: str) -> "Schedule":
        raw = json.loads(text)
        return cls(
            order=tuple(ClientId(k) for k in raw["order"]),
            theta=tuple(float(t) for t in raw["theta"]),
            dist_time=Seconds(raw["dist_time"]),
            total_time=Seconds(raw["total_time"]),
        )


def extend_theta(theta: float, t_update: float, t_upload: float) -> float:
    """Elapsed time after appending one client: uploads accumulate, updates
    only cost their overhang past the current elapsed time."""
    return theta + t_upload + max(0.0, t_update - theta)


def elapsed_theta(order: Sequence[Candidate]) -> list[Seconds]:
    """Full elapsed-time trajectory theta_0..theta_n for an upload order."""
    ids = [c.id for c in order]
    if len(set(ids)) != len(ids):
        raise ParameterError("order must not repeat clients")
    trajectory = [Seconds(0.0)]
    theta = 0.0
    for c in order:
        theta = extend_theta(theta, c.t_update, c.t_upload)
        trajectory.append(Seconds(theta))
    return trajectory


def dist_time(selected: Iterable[Candidate], model_size: Megabits) -> Seconds:
    """Multicast distribution time: model_size over the slowest selected link.

    The empty selection costs nothing.
    """
    slowest = min((c.throughput for c in selected), default=None)
    if slowest is None:
        return Seconds(0.0)
    return Seconds(model_size / slowest)


def feasible(schedule_total: Seconds, budget: TimeBudget) -> bool:
    """Whether a round total fits the deadline (boundary included)."""
    return schedule_total <= budget.t_round


def greedy_select(candidates: CandidateSet, budget: TimeBudget) -> Schedule:
    """Greedy knapsack-style selection maximizing the number of clients.

    Repeatedly picks the candidate with the smallest marginal cost

        cost_k = (dist_time(S + k) - dist_time(S)) + t_upload_k
                     + max(0, t_update_k - theta)

    (ties broken by lower client id), removes it from the pool, and accepts
    it only if the tentative total stays strictly below the deadline.  A
    rejected candidate is never reconsidered.

    Each pick evaluates every cost in one vector expression over the
    id-sorted columns, removed rows masked to infinity; `argmin` returns the
    first minimum, which is the lowest id, so the tie-break is exact.

    Early exit.  In exact arithmetic tentative_k = base + dist + theta +
    cost_k, with base = t_cs + t_agg, so once the cheapest candidate is
    rejected every later one would be too.  Under rounding that identity
    can be off in the last bit, so the loop instead stops after a rejection
    once

        base + dist + (theta + min(t_upload over remaining)) >= deadline.

    This bound is exact: for every remaining k, dist_new_k >= dist (the
    slowest link can only get slower) and theta_new_k >= fl(theta +
    t_upload_k), and rounded addition is monotone in each argument, so
    every remaining tentative total, fl(fl(base + dist_new_k) +
    theta_new_k), is at least the bound and would be rejected.

    A call therefore costs O(picks * |pool|) vector work.  On the paper's
    cell (100 candidates, T_round = 180 s) that is about nine picks per
    call, about 0.1 ms, where evaluating all |pool|^2 / 2 costs in a Python
    loop took 3 to 5 ms (2-vCPU KVM Xeon, CPython 3.11, numpy 2.4).
    """
    model_size = float(budget.model_size)
    base = float(budget.t_cs) + float(budget.t_agg)
    deadline = float(budget.t_round)

    ids = candidates.ids.tolist()
    t_update, t_upload, throughput = candidates.t_update, candidates.t_upload, candidates.throughput
    n = len(ids)
    removed = np.zeros(n, dtype=bool)
    order: list[ClientId] = []
    trajectory = [0.0]
    theta = 0.0
    dist = 0.0
    min_thr = float("inf")

    for picked in range(1, n + 1):
        cost = (
            (model_size / np.minimum(min_thr, throughput) - dist)
            + t_upload
            + np.maximum(0.0, t_update - theta)
        )
        cost[removed] = np.inf
        i = int(np.argmin(cost))
        removed[i] = True

        thr = float(throughput[i])
        theta_new = extend_theta(theta, float(t_update[i]), float(t_upload[i]))
        dist_new = model_size / min(min_thr, thr)
        tentative = base + dist_new + theta_new
        if tentative < deadline:
            theta = theta_new
            dist = dist_new
            min_thr = min(min_thr, thr)
            order.append(ClientId(ids[i]))
            trajectory.append(theta)
        elif picked < n:
            # See the docstring for why this bound loses no feasible candidate.
            min_upload = float(t_upload[~removed].min())
            if base + dist + (theta + min_upload) >= deadline:
                break

    total = base + dist + theta
    return Schedule(
        order=tuple(order),
        theta=tuple(trajectory),
        dist_time=Seconds(dist),
        total_time=Seconds(total),
    )


ORACLE_MAX_CANDIDATES = 10
ORACLE_EXHAUSTIVE_LIMIT = 8
_ORACLE_RANDOM_ORDERS = 128


def _lex_smallest_feasible_order(
    subset: Sequence[Candidate], slack: float
) -> tuple[int, ...] | None:
    """Lexicographically smallest order of `subset` whose final elapsed time
    fits within `slack`, or None.

    Depth-first search over positions in ascending-id order; a branch is cut
    when the current elapsed time plus all remaining upload times already
    exceeds the slack (elapsed time can only grow, so the bound is exact).
    The first complete leaf found is therefore the lexicographic minimum.
    """
    cands = sorted(subset, key=lambda c: int(c.id))
    n = len(cands)
    uploads = [float(c.t_upload) for c in cands]
    updates = [float(c.t_update) for c in cands]
    used = [False] * n
    prefix: list[int] = []

    def dfs(theta: float, remaining_upload: float) -> bool:
        if len(prefix) == n:
            return True
        for i in range(n):
            if used[i]:
                continue
            theta_next = extend_theta(theta, updates[i], uploads[i])
            if theta_next + (remaining_upload - uploads[i]) > slack:
                continue
            used[i] = True
            prefix.append(i)
            if dfs(theta_next, remaining_upload - uploads[i]):
                return True
            prefix.pop()
            used[i] = False
        return False

    if dfs(0.0, sum(uploads)):
        return tuple(int(cands[i].id) for i in prefix)
    return None


def _sampled_feasible_order(
    subset: Sequence[Candidate], slack: float
) -> tuple[int, ...] | None:
    """Order search for oversized subsets: shortest-update-first plus a fixed
    random sample.  Optimality is only guaranteed up to the exhaustive limit."""
    cands = sorted(subset, key=lambda c: (float(c.t_update), int(c.id)))
    trials: list[list[Candidate]] = [list(cands)]
    rng = np.random.default_rng(0xFEDC5)
    for _ in range(_ORACLE_RANDOM_ORDERS):
        perm = rng.permutation(len(cands))
        trials.append([cands[i] for i in perm])
    best: tuple[int, ...] | None = None
    for trial in trials:
        theta = 0.0
        for c in trial:
            theta = extend_theta(theta, float(c.t_update), float(c.t_upload))
        if theta <= slack:
            ids = tuple(int(c.id) for c in trial)
            if best is None or ids < best:
                best = ids
    return best


def oracle_select(candidates: CandidateSet, budget: TimeBudget) -> Schedule:
    """Maximum-cardinality feasible schedule by exhaustive subset search.

    Subsets are tried in decreasing size; for each, orderings are searched
    (all permutations up to ORACLE_EXHAUSTIVE_LIMIT elements, a heuristic
    sample above that).  Among maximum-cardinality feasible schedules the
    lexicographically smallest order is returned, making the result
    deterministic.  Guarded to ORACLE_MAX_CANDIDATES candidates because the
    search is combinatorial.
    """
    n = len(candidates)
    if n > ORACLE_MAX_CANDIDATES:
        raise ParameterError(
            f"oracle_select accepts at most {ORACLE_MAX_CANDIDATES} candidates, got {n}"
        )
    model_size = float(budget.model_size)
    base = float(budget.t_cs) + float(budget.t_agg)
    deadline = float(budget.t_round)
    by_id = {int(c.id): c for c in candidates}
    pool = sorted(candidates, key=lambda c: int(c.id))

    for size in range(n, 0, -1):
        best_order: tuple[int, ...] | None = None
        for subset in itertools.combinations(pool, size):
            dist = model_size / min(c.throughput for c in subset)
            slack = deadline - base - dist
            if slack < 0:
                continue
            # Final elapsed time is at least the sum of uploads, whatever the order.
            if sum(float(c.t_upload) for c in subset) > slack:
                continue
            if size <= ORACLE_EXHAUSTIVE_LIMIT:
                found = _lex_smallest_feasible_order(subset, slack)
            else:
                found = _sampled_feasible_order(subset, slack)
            if found is not None and (best_order is None or found < best_order):
                best_order = found
        if best_order is not None:
            chosen = [by_id[k] for k in best_order]
            trajectory = elapsed_theta(chosen)
            dist = dist_time(chosen, budget.model_size)
            total = base + float(dist) + float(trajectory[-1])
            return Schedule(
                order=tuple(ClientId(k) for k in best_order),
                theta=tuple(float(t) for t in trajectory),
                dist_time=dist,
                total_time=Seconds(total),
            )

    return Schedule(
        order=(),
        theta=(0.0,),
        dist_time=Seconds(0.0),
        total_time=Seconds(base),
    )
