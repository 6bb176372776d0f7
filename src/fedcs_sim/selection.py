"""Deadline-constrained client scheduling: elapsed-time recursion, greedy, exact.

Selected clients upload sequentially while later clients may perform their
local updates during earlier clients' upload slots.  The elapsed time after
the i-th client is therefore

    theta_i = max(theta_{i-1}, t_update_i) + t_upload_i,    theta_0 = 0,

equivalently the sum of all upload times plus every update overhang
max(0, t_update_j - theta_{j-1}).  `finish_times` replays it over a fixed
order; `elapsed_theta`, `exact_select` and the protocol engines time every
served order with it, and only `greedy_select`, which decides per pick,
extends theta itself.  A schedule is feasible when

    t_cs + dist_time(S) + theta_|S| + t_agg < t_round,

with dist_time(S) the multicast distribution time.  The server multicasts
the model at the slowest selected link, and each client uploads the same
model at its own link rate, so dist_time(S) is the longest upload time in
S.  The greedy scheduler is the paper's heuristic for the largest feasible
set; `exact_select` finds that largest set in polynomial time, against the
same strict deadline.

A cohort is a `CandidateSet`: numpy columns of times, one row per client,
validated once on construction.  A plan is its upload order: each planner
returns a list of distinct rows of the set it was given, which the caller
maps back to clients.  The order alone fixes the plan's times, so nothing
else is returned: its elapsed times are the `finish_times` chain over the
rows' columns and its distribution time their longest upload.  The fedcs
engine builds one set of the whole population's estimates per run, with its
`schedulable` mask of the clients whose solo total fits the deadline, and
plans each round on the schedulable members of the requested cohort, taken
unchecked by `_rows`: greedy rejects every other client from any state, so
it picks and accepts the same clients either way.  Both schedulers work on
the columns directly, so no per-client objects or unit-tagged scalars enter
their loops.  Greedy scans its pool in upload order and stops each pick at
the first upload above the cheapest cost, and after a rejection at the first
remaining upload that cannot fit; both bounds are exact in floats.
`Candidate` is the row view that the scalar helpers (`elapsed_theta`,
`dist_time`) take.  `dist_time` divides the model size by the slowest
throughput; with every upload model_size / throughput, that is the longest
upload to the last bit, because correctly rounded division is monotone.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import Megabits, MegabitsPerSecond, ParameterError, Seconds, UnitError
from .resources import Population, TimeBudget

__all__ = [
    "Candidate",
    "CandidateSet",
    "extend_theta",
    "finish_times",
    "elapsed_theta",
    "dist_time",
    "greedy_select",
    "exact_select",
]


@dataclass(frozen=True)
class Candidate:
    """Resource information one client reports for scheduling."""

    id: int
    t_update: Seconds
    t_upload: Seconds
    throughput: MegabitsPerSecond

    def __post_init__(self) -> None:
        if self.throughput <= 0:
            raise ParameterError(f"candidate {int(self.id)} must have positive throughput")


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """Clients that can be scheduled, one per row of two columns.

    `t_update` and `t_upload` (seconds) are float64 columns of equal length,
    validated once here: times that `Seconds` would admit, finite and
    non-negative.  The stored arrays are read-only copies.  A planner
    returns rows of its set; the caller knows which client each row holds.

    `estimated` builds the set of a whole population's estimates, and
    `_rows` gives a subset of its rows without checking them again: rows of
    a validated set are valid.  So a run validates each client once, not
    once per round that requests it.
    """

    t_update: np.ndarray
    t_upload: np.ndarray

    def __post_init__(self) -> None:
        columns = [np.array(c, dtype=np.float64) for c in (self.t_update, self.t_upload)]
        if columns[0].ndim != 1 or columns[1].shape != columns[0].shape:
            raise ParameterError("candidate columns must be 1-D arrays of equal length")
        for name, times in zip(("t_update", "t_upload"), columns):
            bad = ~(np.isfinite(times) & (times >= 0.0))
            if bad.any():
                k = int(np.argmax(bad))
                raise UnitError(
                    f"candidate row {k} {name} must be finite and non-negative, "
                    f"got {float(times[k])!r}"
                )
            times.flags.writeable = False
            object.__setattr__(self, name, times)

    @classmethod
    def estimated(cls, population: Population, budget: TimeBudget) -> "CandidateSet":
        """Every client's estimated times, row k for population row k.

        The same float operations as `estimated_update_time` and
        `estimated_upload_time` on the same values, so bit-equal to them.
        `Population` admits only finite positive rates, so an infinite rate
        cannot plan a 0 s time; a time that overflows is rejected here.
        """
        return cls(
            t_update=budget.epochs_per_round * population.data_count / population.capability,
            t_upload=float(budget.model_size) / population.throughput,
        )

    def _rows(self, positions: np.ndarray) -> "CandidateSet":
        """The rows at `positions`, in that order, unchecked: a 1-D integer
        array that must be non-negative (a negative one wraps)."""
        subset = object.__new__(CandidateSet)
        columns = vars(subset)
        for name in ("t_update", "t_upload"):
            column = columns[name] = getattr(self, name)[positions]
            column.flags.writeable = False
        return subset

    def schedulable(self, budget: TimeBudget) -> np.ndarray:
        """Bool mask of the rows that `greedy_select` could ever accept.

        Row k is kept when (base + u_k) + (u_k + t_k) < t_round * (1 +
        1e-9), with base = t_cs + t_agg, u the upload and t the update
        time: its total when scheduled alone.  A dropped row is rejected
        from every greedy state (theta, dist).  Its tentative total there is
        fl(fl(base + max(dist, u)) + theta_new), with theta_new rounded from
        theta + u + max(0, t - theta) >= u + t; each of the three roundings
        loses at most a factor (1 - 2^-53), so the total is at least (base +
        2u + t)(1 - 2^-53)^3.  The solo total tested here is at most (base +
        2u + t)(1 + 2^-53)^2, so a row greedy accepts has a solo total below
        t_round (1 + 6 * 2^-53), well inside the 1e-9 relative margin and the
        rounding of the margin's product.  A solo total that overflows is
        dropped only while the limit itself is finite, that is while t_round
        stays 1e-9 below the float maximum; above that every row is kept.
        """
        base = float(budget.t_cs) + float(budget.t_agg)
        limit = float(budget.t_round) * (1.0 + 1e-9)
        if limit == math.inf:
            return np.ones(len(self), dtype=bool)
        with np.errstate(over="ignore"):
            return (base + self.t_upload) + (self.t_upload + self.t_update) < limit

    def __len__(self) -> int:
        return len(self.t_upload)


def extend_theta(theta: float, t_update: float, t_upload: float) -> float:
    """Elapsed time after appending one client: uploads accumulate, updates
    only cost their overhang past the current elapsed time."""
    return theta + t_upload + max(0.0, t_update - theta)


def finish_times(updates: Iterable[float], uploads: Iterable[float]) -> list[float]:
    """theta_0 = 0.0 followed by the elapsed time after each client, served
    in the given order: the `extend_theta` chain, one entry per client."""
    finish = [0.0]
    for update, upload in zip(updates, uploads, strict=True):
        finish.append(extend_theta(finish[-1], update, upload))
    return finish


def elapsed_theta(order: Sequence[Candidate]) -> list[Seconds]:
    """Full elapsed-time trajectory theta_0..theta_n for an upload order."""
    ids = [c.id for c in order]
    if len(set(ids)) != len(ids):
        raise ParameterError("order must not repeat clients")
    finish = finish_times((c.t_update for c in order), (c.t_upload for c in order))
    return [Seconds(theta) for theta in finish]


def dist_time(selected: Iterable[Candidate], model_size: Megabits) -> Seconds:
    """Multicast distribution time: model_size over the slowest selected link.

    The empty selection costs nothing.
    """
    slowest = min((c.throughput for c in selected), default=None)
    if slowest is None:
        return Seconds(0.0)
    return Seconds(model_size / slowest)


def greedy_select(candidates: CandidateSet, budget: TimeBudget) -> list[int]:
    """Greedy knapsack-style selection maximizing the number of clients: the
    accepted rows of `candidates`, in upload order.

    Repeatedly picks the candidate with the smallest marginal cost

        cost_k = ((max(t_upload_k, dist) - dist) + t_upload_k)
                     + max(0, t_update_k - theta)

    (ties broken by the lower row), removes it from the pool, and accepts
    it only if the tentative total stays strictly below the deadline.  A
    rejected candidate is never reconsidered.  dist is the longest upload
    accepted so far, so max(dist, t_upload_k) is the distribution time with
    k added.

    Scan order.  The pool is kept once per call in ascending (t_upload, row)
    order, and each pick scans it from the front.  Every rounded step of
    cost_k adds a non-negative amount to t_upload_k, so cost_k >= t_upload_k
    in floats as well, and the scan stops at the first t_upload_k above the
    cheapest cost seen: that candidate and every later one cost more.  Costs
    that overflow to infinity (times near the float maximum) tie like any
    others, so the lowest row among them is picked and tested.

    Early exit.  In exact arithmetic tentative_k = base + dist + theta +
    cost_k, with base = t_cs + t_agg, so once the cheapest candidate is
    rejected every later one would be too.  Under rounding that identity
    can be off in the last bit, so the loop instead stops after a rejection
    once

        base + dist + (theta + min(t_upload over remaining)) >= deadline,

    where the minimum is the first remaining candidate in scan order.  This
    bound is exact: for every remaining k, dist_new_k = max(dist,
    t_upload_k) >= dist and theta_new_k >= fl(theta + t_upload_k), and
    rounded addition is monotone in each argument, so every remaining
    tentative total, fl(fl(base + dist_new_k) + theta_new_k), is at least
    the bound and would be rejected.
    """
    base = float(budget.t_cs) + float(budget.t_agg)
    deadline = float(budget.t_round)

    # Rows in ascending (t_upload, row) order; `pool` holds the indices into
    # that order not yet picked.
    scan = np.argsort(candidates.t_upload, kind="stable")
    uploads = candidates.t_upload[scan].tolist()
    updates = candidates.t_update[scan].tolist()
    rows = scan.tolist()
    pool = list(range(len(rows)))
    order: list[int] = []
    theta = 0.0
    dist = 0.0

    while pool:
        best, best_row, at = math.inf, math.inf, 0
        for j, k in enumerate(pool):
            upload = uploads[k]
            if upload > best:
                break
            update = updates[k]
            # Bit-equal to the docstring's cost_k, since dist - dist is +0.0.
            cost = ((upload - dist if upload > dist else 0.0) + upload) + (
                update - theta if update > theta else 0.0
            )
            if cost < best or (cost == best and rows[k] < best_row):
                best, best_row, at = cost, rows[k], j
        k = pool.pop(at)

        theta_new = extend_theta(theta, updates[k], uploads[k])
        dist_new = max(dist, uploads[k])
        if base + dist_new + theta_new < deadline:
            theta = theta_new
            dist = dist_new
            order.append(rows[k])
        elif pool and base + dist + (theta + uploads[pool[0]]) >= deadline:
            # See the docstring for why this bound loses no feasible candidate.
            break

    # Picks leave the pool, so no row repeats.
    return order


def exact_select(candidates: CandidateSet, budget: TimeBudget) -> list[int]:
    """Rows of the largest feasible schedule, in upload order, found exactly
    in O(n^2 log n).

    For a fixed set, uploading in release order, ascending (t_update, row),
    gives the smallest final elapsed time (one machine with release dates,
    1|r_j|C_max): the largest t_update_j plus the uploads from j on.  Read
    backwards in time, keeping the most clients with every such term inside
    the slack is 1||sum U_j, with processing times t_upload and due dates
    slack - t_update, which Moore-Hodgson solves exactly (Moore, Management
    Science 15(1), 1968): walk the clients by descending (t_update, row),
    keep their uploads on a max-heap with a running sum, and whenever a term
    reaches the slack drop the largest upload kept.

    The distribution time is the longest selected upload, so the walk is
    repeated for each distinct upload time u, shortest first, over the
    candidates with t_upload <= u; the first largest set wins.  Walks that
    admit no more clients than the best are skipped, and the sweep stops
    once the distribution time alone reaches the deadline.

    A term is tested as `head + (t_update + sum) < t_round`, with head =
    (t_cs + t_agg) + u: the strict test, in the association, that
    `greedy_select` applies to its totals.  When the sums are exact (as on
    integer grids) a set passes exactly when its replayed total does, so
    any gap to greedy is the heuristic's.  Otherwise the two can differ in
    the last bit, so a larger set is taken only once its total, replayed in
    release order by `extend_theta`, is below t_round: every schedule
    returned fits, and a total within the last bit of the deadline can cost
    the optimum one client.
    """
    base = float(budget.t_cs) + float(budget.t_agg)
    deadline = float(budget.t_round)

    # Walk order: descending (t_update, row); its reverse is release order.
    walk = np.argsort(candidates.t_update, kind="stable")[::-1]
    t_update = candidates.t_update[walk].tolist()
    upload_times = candidates.t_upload[walk]
    t_upload = upload_times.tolist()

    best: list[int] = []
    for level in np.unique(upload_times).tolist():
        head = base + level
        if head >= deadline:
            break
        admitted = np.flatnonzero(upload_times <= level)
        if len(admitted) <= len(best):
            continue
        kept: list[tuple[float, int]] = []
        uploads = 0.0
        for k in admitted.tolist():
            heapq.heappush(kept, (-t_upload[k], k))
            uploads += t_upload[k]
            if head + (t_update[k] + uploads) >= deadline:
                uploads += heapq.heappop(kept)[0]
        if len(kept) > len(best):
            release = sorted((k for _, k in kept), reverse=True)
            theta = finish_times([t_update[k] for k in release], [t_upload[k] for k in release])
            if base + max(t_upload[k] for k in release) + theta[-1] < deadline:
                best = release

    rows = walk.tolist()
    return [rows[k] for k in best]
