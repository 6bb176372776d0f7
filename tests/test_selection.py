import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcs_sim.channel import CellConfig
from fedcs_sim.core import Megabits, ParameterError, RngStream, Seconds
from fedcs_sim.resources import ResourceRanges, TimeBudget, generate_profiles
from fedcs_sim.selection import (
    Candidate,
    CandidateSet,
    dist_time,
    elapsed_theta,
    exact_select,
    extend_theta,
    finish_times,
    greedy_select,
)


def cand(cid, t_update, t_upload, throughput=10.0):
    return Candidate(cid, Seconds(t_update), Seconds(t_upload), float(throughput))


def candidate_set(rows):
    """The `CandidateSet` of `Candidate` rows sorted by id: set row k holds
    the k-th lowest id, so the planners' lower-row tie-break is the
    reference's lower-id one."""
    rows = sorted(rows, key=lambda c: int(c.id))
    return CandidateSet([float(c.t_update) for c in rows], [float(c.t_upload) for c in rows])


def relabel(order, labels):
    """`order` with each row k replaced by labels[k]."""
    return [labels[k] for k in order]


def plan(select, rows, budget):
    """`select` on `candidate_set(rows)`, its order mapped from rows to ids."""
    return relabel(select(candidate_set(rows), budget), sorted(int(c.id) for c in rows))


def replay(cands, order, budget):
    """The elapsed times theta_0.. and the total of serving rows `order` of
    `cands` in that order: one `finish_times` chain, with the longest upload
    as the distribution time."""
    theta = finish_times(cands.t_update[order].tolist(), cands.t_upload[order].tolist())
    dist = max(cands.t_upload[order].tolist(), default=0.0)
    return theta, float(budget.t_cs) + float(budget.t_agg) + dist + theta[-1]


def replay_total(chosen, budget):
    """The total of serving the `Candidate`s `chosen` in that order, its
    distribution time from `dist_time`, in the planners' association."""
    theta = finish_times([float(c.t_update) for c in chosen], [float(c.t_upload) for c in chosen])
    head = float(budget.t_cs) + float(budget.t_agg) + float(dist_time(chosen, budget.model_size))
    return head + theta[-1]


def link(cid, t_update, throughput):
    """A candidate that uploads the 100 Mbit model of `budget_of` at `throughput`."""
    return cand(cid, t_update, 100.0 / throughput, throughput)


def budget_of(t_round, model_size=100.0, t_cs=0.0, t_agg=0.0):
    return TimeBudget(
        t_round=Seconds(t_round),
        t_cs=Seconds(t_cs),
        t_agg=Seconds(t_agg),
        model_size=Megabits(model_size),
    )


def direct_theta(order):
    """Literal double-summation evaluation of the elapsed-time recursion.

    Kept deliberately independent of the incremental implementation: for
    each prefix length the update overhangs and upload sums are recomputed
    from scratch.
    """
    thetas = [0.0]
    for i in range(1, len(order) + 1):
        upload_sum = sum(float(c.t_upload) for c in order[:i])
        overhang_sum = sum(
            max(0.0, float(order[j - 1].t_update) - thetas[j - 1]) for j in range(1, i + 1)
        )
        thetas.append(overhang_sum + upload_sum)
    return thetas


def reference_greedy(candidates, budget):
    """The scalar greedy loop that `greedy_select` replaced, kept as its
    reference: the ids it accepts, in upload order.

    One Python cost evaluation per remaining candidate per pick, every pick
    taken to the end of the pool: O(|pool|^2), with no early exit.
    """
    model_size = float(budget.model_size)
    base = float(budget.t_cs) + float(budget.t_agg)
    deadline = float(budget.t_round)

    remaining = list(candidates)
    order: list[int] = []
    theta = 0.0
    dist = 0.0
    min_thr = float("inf")

    while remaining:
        best_idx = 0
        best_key: tuple[float, int] | None = None
        for i, c in enumerate(remaining):
            new_dist = model_size / min(min_thr, c.throughput)
            cost = (new_dist - dist) + float(c.t_upload) + max(0.0, float(c.t_update) - theta)
            key = (cost, int(c.id))
            if best_key is None or key < best_key:
                best_key = key
                best_idx = i
        chosen = remaining.pop(best_idx)

        theta_new = extend_theta(theta, float(chosen.t_update), float(chosen.t_upload))
        dist_new = model_size / min(min_thr, chosen.throughput)
        tentative = base + dist_new + theta_new
        if tentative < deadline:
            theta = theta_new
            dist = dist_new
            min_thr = min(min_thr, chosen.throughput)
            order.append(chosen.id)

    return order


class TestElapsedTheta:
    def test_two_client_overlap_example(self):
        order = [cand(1, 10, 5), cand(2, 8, 5)]
        thetas = [float(t) for t in elapsed_theta(order)]
        # Client 2 updates entirely inside client 1's slot.
        assert thetas == [0.0, 15.0, 20.0]

    def test_single_client_is_plain_sum(self):
        thetas = elapsed_theta([cand(1, 500, 100)])
        assert [float(t) for t in thetas] == [0.0, 600.0]

    def test_zero_updates_accumulate_uploads(self):
        order = [cand(i, 0, 7) for i in range(1, 6)]
        assert float(elapsed_theta(order)[-1]) == pytest.approx(35.0)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ParameterError):
            elapsed_theta([cand(1, 1, 1), cand(1, 2, 2)])

    def test_matches_direct_recursion_on_random_orders(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            n = int(rng.integers(1, 12))
            order = [
                cand(i + 1, rng.uniform(0, 300), rng.uniform(1, 120)) for i in range(n)
            ]
            fast = [float(t) for t in elapsed_theta(order)]
            slow = direct_theta(order)
            for a, b in zip(fast, slow):
                assert a == pytest.approx(b, rel=1e-9, abs=1e-9)

    @given(
        st.lists(
            st.tuples(
                st.floats(0, 1000, allow_nan=False), st.floats(0, 1000, allow_nan=False)
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_monotone_and_bounded_below(self, times):
        order = [cand(i + 1, ud, ul) for i, (ud, ul) in enumerate(times)]
        thetas = [float(t) for t in elapsed_theta(order)]
        assert thetas[0] == 0.0
        assert all(b >= a for a, b in zip(thetas, thetas[1:]))
        uploads = [ul for _, ul in times]
        # Lower bounds: all uploads are serial; any client's update must
        # precede its own and all later uploads.
        assert thetas[-1] >= sum(uploads) - 1e-9
        for j, (ud, _) in enumerate(times):
            assert thetas[-1] >= ud + sum(uploads[j:]) - 1e-9


class TestFinishTimes:
    @staticmethod
    def columns(order):
        return [float(c.t_update) for c in order], [float(c.t_upload) for c in order]

    def test_equals_direct_recursion_on_random_orders(self):
        # Integer times keep every sum exact, so any association agrees;
        # TestElapsedTheta compares non-grid times within a tolerance.
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            order = [
                cand(i + 1, float(rng.integers(0, 300)), float(rng.integers(1, 120)))
                for i in range(n)
            ]
            assert finish_times(*self.columns(order)) == direct_theta(order)

    @given(
        st.lists(
            st.tuples(st.floats(0, 1e6, allow_nan=False), st.floats(0, 1e6, allow_nan=False)),
            max_size=12,
        )
    )
    def test_never_decreases(self, times):
        finish = finish_times([ud for ud, _ in times], [ul for _, ul in times])
        assert len(finish) == len(times) + 1
        assert finish[0] == 0.0
        assert all(b >= a for a, b in zip(finish, finish[1:]))

    def test_empty_order_is_theta_zero(self):
        assert finish_times([], []) == [0.0]

    def test_columns_of_unequal_length_rejected(self):
        with pytest.raises(ValueError):
            finish_times([1.0, 2.0], [1.0])


class TestDistTime:
    def test_single_client(self):
        assert float(dist_time([cand(1, 1, 1, 8.64)], Megabits(146.4))) == pytest.approx(
            146.4 / 8.64
        )

    def test_empty_set_costs_nothing(self):
        assert float(dist_time([], Megabits(146.4))) == 0.0

    def test_adding_slower_client_never_decreases(self):
        fast = [cand(1, 1, 1, 8.0)]
        slower = fast + [cand(2, 1, 1, 2.0)]
        assert dist_time(slower, Megabits(100.0)) >= dist_time(fast, Megabits(100.0))


class TestCandidateSet:
    def test_rows_keep_their_order_and_are_read_only_copies(self):
        t_upload = np.array([5.0, 2.0, 8.0])
        cands = CandidateSet([4.0, 1.0, 7.0], t_upload)
        assert [f.name for f in dataclasses.fields(cands)] == ["t_update", "t_upload"]
        assert cands.t_update.tolist() == [4.0, 1.0, 7.0]
        assert cands.t_upload.tolist() == [5.0, 2.0, 8.0]
        assert len(cands) == 3
        t_upload[0] = 0.0
        assert cands.t_upload[0] == 5.0
        with pytest.raises(ValueError):
            cands.t_upload[0] = 0.0

    @pytest.mark.parametrize(
        "columns",
        [
            ([1.0], [1.0, 1.0]),  # unequal lengths
            ([-1.0], [1.0]),  # negative time
            ([1.0], [np.inf]),  # non-finite time
        ],
    )
    def test_invalid_columns_rejected(self, columns):
        with pytest.raises(ParameterError):
            CandidateSet(*columns)

    def test_rows_equal_a_set_built_from_the_same_rows(self):
        rng = np.random.default_rng(11)
        full = candidate_set(random_candidates(rng, 200, rounded=False))
        for size in (0, 1, 37, 200):
            # In any order: `_rows` keeps the order it is given.
            positions = rng.choice(200, size=size, replace=False)
            taken = full._rows(positions)
            built = CandidateSet(full.t_update[positions], full.t_upload[positions])
            assert len(taken) == size
            for name in ("t_update", "t_upload"):
                column = getattr(taken, name)
                assert column.dtype == getattr(built, name).dtype
                assert column.tobytes() == getattr(built, name).tobytes()
                assert not column.flags.writeable
        empty = full._rows(np.array([], dtype=np.intp))
        assert empty.t_upload.tolist() == []
        assert greedy_select(empty, budget_of(100.0)) == []


class TestGreedy:
    def test_all_individually_infeasible_gives_empty(self):
        cands = candidate_set(tuple(cand(i, 300, 200, 10.0) for i in range(1, 4)))
        assert greedy_select(cands, budget_of(100.0)) == []

    def test_three_client_hand_trace(self):
        # Equal links so the distribution term is 10 s for any selection.
        cands = candidate_set(
            (cand(1, 20, 10, 10.0), cand(2, 30, 10, 10.0), cand(3, 80, 10, 10.0))
        )
        # The third client lands exactly on the deadline; the acceptance
        # test in the while-loop is strict, so it is rejected at 100.
        budget = budget_of(100.0)
        order = greedy_select(cands, budget)
        assert order == [0, 1]
        assert replay(cands, order, budget) == ([0.0, 30.0, 40.0], 50.0)
        # Any margin past the boundary admits it, reproducing the full trace.
        budget = budget_of(100.001)
        order = greedy_select(cands, budget)
        assert order == [0, 1, 2]
        assert replay(cands, order, budget) == ([0.0, 30.0, 40.0, 90.0], 100.0)

    def test_unlimited_deadline_selects_everyone(self):
        rng = np.random.default_rng(1)
        cands = candidate_set(
            tuple(
                cand(i + 1, rng.uniform(0, 500), rng.uniform(5, 120), rng.uniform(0.5, 9))
                for i in range(40)
            )
        )
        schedule = greedy_select(cands, budget_of(1e6))
        assert len(schedule) == 40

    def test_never_selects_solo_infeasible_client(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(1, 10))
            rows = tuple(link(i + 1, rng.uniform(0, 200), rng.uniform(1, 12)) for i in range(n))
            budget = budget_of(rng.uniform(30, 300))
            schedule = plan(greedy_select, rows, budget)
            by_id = {int(c.id): c for c in rows}
            for cid in schedule:
                c = by_id[int(cid)]
                solo = (
                    float(dist_time([c], budget.model_size))
                    + float(c.t_update)
                    + float(c.t_upload)
                )
                assert solo < float(budget.t_round)

    def test_trajectory_matches_recursion_over_accepted_order(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            rows = tuple(
                cand(i + 1, rng.uniform(0, 200), rng.uniform(1, 100), rng.uniform(1, 12))
                for i in range(n)
            )
            budget = budget_of(rng.uniform(30, 400))
            cands = candidate_set(rows)  # row k holds rows[k]
            order = greedy_select(cands, budget)
            theta, total = replay(cands, order, budget)
            assert total < float(budget.t_round)
            assert theta == pytest.approx(direct_theta([rows[k] for k in order]))

    def test_tie_break_prefers_the_lower_row(self):
        # Both first costs are 18 s (2 x upload + update), and the scan meets
        # row 1, the shorter upload, first; row 0 still wins the tie.
        cands = CandidateSet([0.0, 10.0], [9.0, 4.0])
        assert greedy_select(cands, budget_of(1000.0)) == [0, 1]
        identical = CandidateSet([10.0] * 3, [10.0] * 3)
        assert greedy_select(identical, budget_of(1000.0)) == [0, 1, 2]

    def test_setup_and_aggregation_time_count_against_the_deadline(self):
        # Alone, the client takes 30 + 30 + 36 = 96 s: it fits 100 s, but not
        # with 2 s of set-up and 3 s of aggregation.
        cands = CandidateSet([36.0], [30.0])
        assert greedy_select(cands, budget_of(100.0)) == [0]
        assert greedy_select(cands, budget_of(100.0, t_cs=2.0, t_agg=3.0)) == []
        assert greedy_select(cands, budget_of(101.001, t_cs=2.0, t_agg=3.0)) == [0]


# Uploads u for which 100 / u is exact, so a throughput of 100 / u gives back u.
UPLOAD_GRID = np.array([1.0, 2.0, 4.0, 5.0, 8.0, 10.0, 16.0, 20.0, 25.0, 32.0, 40.0, 50.0])


def random_candidates(rng, n, rounded):
    """n candidates with shuffled, sparse ids, each uploading in 100 / throughput.
    Rounding the update times to a 10 s grid and the uploads to UPLOAD_GRID
    keeps sums exact and makes many marginal costs tie exactly."""
    ids = rng.permutation(np.arange(1, 3 * n + 1))[:n]
    t_update = rng.uniform(0, 300, n)
    throughput = rng.uniform(0.5, 12, n)
    if rounded:
        t_update = np.round(t_update, -1)
        throughput = 100.0 / rng.choice(UPLOAD_GRID, n)
    return [link(int(i), float(u), float(t)) for i, u, t in zip(ids, t_update, throughput)]


class TestGreedyMatchesReference:
    @pytest.mark.parametrize("n, instances", [(100, 40), (1000, 3), (3000, 1)])
    def test_random_instances(self, n, instances):
        rng = np.random.default_rng(n)
        for k in range(instances):
            rows = random_candidates(rng, n, rounded=k % 2 == 0)
            overhead = (rng.uniform(0, 10), rng.uniform(0, 10)) if k % 4 < 2 else (0.0, 0.0)
            budget = budget_of(10 ** rng.uniform(1.5, 3.5), t_cs=overhead[0], t_agg=overhead[1])
            assert plan(greedy_select, rows, budget) == reference_greedy(rows, budget)

    def test_tentative_total_equal_to_deadline(self):
        # The hand-traced instance: the third client lands exactly on 100.
        rows = [cand(1, 20, 10, 10.0), cand(2, 30, 10, 10.0), cand(3, 80, 10, 10.0)]
        budget = budget_of(100.0)
        ref = reference_greedy(rows, budget)
        assert ref == [1, 2]
        assert plan(greedy_select, rows, budget) == ref

        rng = np.random.default_rng(7)
        for rounded in (True, False):
            rows = random_candidates(rng, 100, rounded)
            t_cs, t_agg = 2.5, 1.5
            unbounded = reference_greedy(rows, budget_of(1e7, t_cs=t_cs, t_agg=t_agg))
            by_id = {int(c.id): c for c in rows}
            for k in (1, 5, 20, 60):
                prefix = [by_id[int(cid)] for cid in unbounded[:k]]
                dist = float(dist_time(prefix, Megabits(100.0)))
                deadline = t_cs + t_agg + dist + float(elapsed_theta(prefix)[-1])
                budget = budget_of(deadline, t_cs=t_cs, t_agg=t_agg)
                ref = reference_greedy(rows, budget)
                # The k-th pick's tentative total equals the deadline, so it is rejected.
                assert unbounded[k - 1] not in ref
                assert plan(greedy_select, rows, budget) == ref

    def test_costs_that_overflow_are_not_picked_twice(self):
        # Client 2's cost, twice its 1e308 s upload, overflows, so once client
        # 1 is in every remaining cost is infinite; client 1 must not be
        # picked again.
        rows = [link(1, 0.0, 100.0), link(2, 0.0, 1e-306)]
        budget = budget_of(1.5e308)
        ref = reference_greedy(rows, budget)
        assert ref == [1]
        with np.errstate(over="ignore"):
            assert plan(greedy_select, rows, budget) == ref

    def test_acceptance_after_a_rejection_through_rounding(self):
        # Clients 1 and 2 tie on cost, 2 * t_upload + t_update, so client 1 is
        # picked first, but their totals round differently: with the deadline
        # at client 1's total, client 1 is rejected and client 2 still fits.
        # Client 3 never fits.  Stopping at the first rejection, or bounding
        # with the largest remaining upload, would lose client 2.  About one
        # draw in six of this seeded search gives such a pair.
        def total(c):
            return float(c.t_upload) + extend_theta(0.0, float(c.t_update), float(c.t_upload))

        rng = np.random.default_rng(0)
        for _ in range(100):
            first = link(1, rng.uniform(200, 250), rng.uniform(5, 7))
            cost = 2 * float(first.t_upload) + float(first.t_update)
            throughput = rng.uniform(5, 7)
            second = link(2, cost - 2 * (100.0 / throughput), throughput)
            tied = 2 * float(second.t_upload) + float(second.t_update) == cost
            if tied and total(second) < total(first):
                break
        else:
            pytest.fail("the search found no tied pair")
        rows = [first, second, link(3, 0.0, 0.1)]
        budget = budget_of(total(first))
        ref = reference_greedy(rows, budget)
        assert ref == [2]
        assert plan(greedy_select, rows, budget) == ref


def lex_smallest_feasible_order(subset, head, deadline):
    """Lexicographically smallest order of `subset` whose total, head plus the
    final elapsed time, stays below `deadline`, or None.

    Depth-first search over positions in ascending-id order; a branch is cut
    when the current elapsed time plus all remaining upload times already
    brings the total to the deadline (elapsed time can only grow, so the
    bound is exact).  The first complete leaf found is therefore the
    lexicographic minimum.
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
            if head + (theta_next + (remaining_upload - uploads[i])) >= deadline:
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


def reference_exact(candidates, budget):
    """Ids of a maximum-cardinality feasible schedule, in upload order, by
    exhaustive subset search.

    The oracle that `exact_select` replaced, kept as its reference for at most
    eight candidates.  Subsets are tried in decreasing size, and for each all
    upload orders are searched, so the reference also checks that release
    order is optimal.  Among maximum-cardinality feasible schedules the
    lexicographically smallest order is returned.  Its tests are the strict
    `head + theta < deadline`, head = (t_cs + t_agg) + dist, that
    `greedy_select` applies to its totals.
    """
    model_size = float(budget.model_size)
    base = float(budget.t_cs) + float(budget.t_agg)
    deadline = float(budget.t_round)
    pool = sorted(candidates, key=lambda c: int(c.id))

    for size in range(len(pool), 0, -1):
        best_order: tuple[int, ...] | None = None
        for subset in itertools.combinations(pool, size):
            dist = model_size / min(c.throughput for c in subset)
            head = base + dist
            if head >= deadline:
                continue
            # Final elapsed time is at least the sum of uploads, whatever the order.
            if head + sum(float(c.t_upload) for c in subset) >= deadline:
                continue
            found = lex_smallest_feasible_order(subset, head, deadline)
            if found is not None and (best_order is None or found < best_order):
                best_order = found
        if best_order is not None:
            return list(best_order)
    return []


def adversarial_instance(rng):
    """A small instance built to stress the rounding identities of the
    incremental greedy: few shared throughputs (dist often unchanged by an
    acceptance), exact grids, set-up and aggregation times, and deadlines on
    a prefix's total.  Every upload is model_size / throughput."""
    n = int(rng.integers(1, 13))
    ids = rng.permutation(np.arange(1, 3 * n + 1))[:n]
    links = int(rng.integers(1, 4)) if rng.random() < 0.5 else n
    if rng.random() < 0.5:
        t_update = rng.integers(0, 30, n) * 10.0
        throughput = 100.0 / rng.choice(UPLOAD_GRID, links)
    else:
        t_update = rng.uniform(0, 300, n)
        throughput = rng.uniform(0.5, 12, links)
    if links < n:
        throughput = rng.choice(throughput, n)
    t_cs, t_agg = (rng.uniform(0, 10), rng.uniform(0, 10)) if rng.random() < 0.5 else (0.0, 0.0)
    rows = [link(int(i), float(u), float(t)) for i, u, t in zip(ids, t_update, throughput)]
    if rng.random() < 0.5:
        unbounded = reference_greedy(rows, budget_of(1e7, t_cs=t_cs, t_agg=t_agg))
        k = int(rng.integers(1, len(unbounded) + 1))
        by_id = {int(c.id): c for c in rows}
        prefix = [by_id[int(cid)] for cid in unbounded[:k]]
        head = t_cs + t_agg + float(dist_time(prefix, Megabits(100.0)))
        deadline = head + float(elapsed_theta(prefix)[-1])
    else:
        deadline = t_cs + t_agg + 10 ** rng.uniform(1.0, 3.0)
    return rows, budget_of(deadline, t_cs=t_cs, t_agg=t_agg)


class TestGreedyOnAdversarialInstances:
    def test_matches_reference(self):
        rng = np.random.default_rng(1804)
        for _ in range(2500):
            rows, budget = adversarial_instance(rng)
            assert plan(greedy_select, rows, budget) == reference_greedy(rows, budget)


def solo_total(c, base):
    """A candidate's total when scheduled alone, as `schedulable` sums it."""
    u = float(c.t_upload)
    return (base + u) + (u + float(c.t_update))


def boundary_instances(rng, scale, t_cs, t_agg):
    """Instances of 2 to 6 clients, each with deadlines 2 ulps below to 2 ulps
    above the solo total of each of its clients.  Every upload is
    model_size / throughput; at scale 1.7e306 the times reach the float
    maximum and many solo totals overflow."""
    base = t_cs + t_agg
    for _ in range(300):
        n = int(rng.integers(2, 7))
        ids = rng.permutation(np.arange(1, 3 * n + 1))[:n]
        uploads = rng.uniform(0.5, 40.0, n) * scale
        updates = rng.uniform(0.0, 100.0, n) * scale
        rows = [link(int(i), float(t), 100.0 / float(u)) for i, t, u in zip(ids, updates, uploads)]
        for c in rows:
            for steps in range(-2, 3):
                deadline = solo_total(c, base)
                for _ in range(abs(steps)):
                    deadline = math.nextafter(deadline, math.copysign(math.inf, steps))
                if base < deadline < math.inf:
                    yield rows, budget_of(deadline, t_cs=t_cs, t_agg=t_agg)


class TestSchedulable:
    """`CandidateSet.schedulable` drops only clients greedy never accepts."""

    @staticmethod
    def assert_full_and_masked_greedy_give(ref, rows, budget):
        """Greedy on `candidate_set(rows)`, and on its schedulable rows alone,
        gives `ref` once its rows are mapped to ids."""
        full = candidate_set(rows)
        ids = sorted(int(c.id) for c in rows)
        kept = np.flatnonzero(full.schedulable(budget))
        assert relabel(greedy_select(full, budget), ids) == ref
        masked = greedy_select(full._rows(kept), budget)
        assert relabel(masked, [ids[k] for k in kept]) == ref

    @pytest.mark.parametrize("scale", [1.0, 1.7e306], ids=["seconds", "near-overflow"])
    @pytest.mark.parametrize("t_cs, t_agg", [(0.0, 0.0), (2.5, 1.5)])
    def test_masked_greedy_equals_full_greedy_and_reference(self, scale, t_cs, t_agg):
        rng = np.random.default_rng([round(math.log10(scale)), int(t_cs)])
        late = dropped = 0
        for rows, budget in boundary_instances(rng, scale, t_cs, t_agg):
            mask = candidate_set(rows).schedulable(budget)
            ref = reference_greedy(rows, budget)
            self.assert_full_and_masked_greedy_give(ref, rows, budget)
            by_id = {int(c.id): c for c in rows}
            solo = [solo_total(by_id[int(cid)], t_cs + t_agg) for cid in ref]
            late += any(total >= float(budget.t_round) for total in solo)
            dropped += int((~mask).sum())
        # Some accepted client's solo total is on or above the deadline: it
        # fits only after another client has raised theta, through rounding,
        # so a mask without a margin would lose it.
        assert late > 0
        assert dropped > 0

    def test_solo_totals_that_overflow(self):
        # Client 2's solo total overflows; client 3's, 1e308 s, fits.
        rows = [
            link(1, 0.0, 100.0 / 1e300),
            link(2, 1e308, 100.0 / 5e307),
            link(3, 0.0, 100.0 / 5e307),
        ]
        for t_round, kept in ((1.6e308, [True, False, True]), (np.finfo(float).max, [True] * 3)):
            # At the float maximum the margin's product overflows, so the
            # mask keeps every row rather than compare against infinity.
            budget = budget_of(t_round)
            assert candidate_set(rows).schedulable(budget).tolist() == kept
            self.assert_full_and_masked_greedy_give(reference_greedy(rows, budget), rows, budget)

    def test_mask_of_a_taken_cohort_is_the_mask_taken(self):
        rng = np.random.default_rng(5)
        full = candidate_set(random_candidates(rng, 300, rounded=False))
        budget = budget_of(180.0, t_cs=2.5, t_agg=1.5)
        positions = np.sort(rng.choice(300, size=100, replace=False))
        mask = full.schedulable(budget)
        assert mask.dtype == bool and mask.shape == (300,)
        assert full._rows(positions).schedulable(budget).tolist() == mask[positions].tolist()
        assert 0 < mask.sum() < 300


def assert_exact_schedule(schedule, rows, budget):
    """Distinct ids in release order, whose replayed total is below T_round."""
    by_id = {int(c.id): c for c in rows}
    chosen = [by_id[k] for k in schedule]
    keys = [(float(c.t_update), int(c.id)) for c in chosen]
    assert keys == sorted(set(keys))
    assert replay_total(chosen, budget) < float(budget.t_round)


def deadline_on_a_total(rng, rows, t_cs, t_agg):
    """A deadline equal to the replayed total of a random non-empty subset, so
    that subset, and any set with the same total, just misses it."""
    k = int(rng.integers(1, len(rows) + 1))
    subset = sorted(rows[:k], key=lambda c: (float(c.t_update), int(c.id)))
    head = t_cs + t_agg + float(dist_time(subset, Megabits(100.0)))
    return head + float(elapsed_theta(subset)[-1])


def lawler_moore_optimum(cands, budget):
    """The size of a largest feasible schedule on integer-valued times, by
    the pseudo-polynomial dynamic program of Lawler and Moore ("A functional
    equation and its application to resource allocation and sequencing
    problems", Management Science 16(1), 1969).  It shares no code with
    `exact_select`: no heap and no replay.

    With integer times every sum is exact, so a set fits when t_cs + t_agg
    + dist + theta <= t_round - 1.  In release order, theta is the largest
    t_update_j plus the uploads from j on.  So for each distinct upload
    level u with t_cs + t_agg + u < t_round, the sets whose longest upload
    is at most u are a 1||sum U_j instance: jobs are the candidates with
    upload <= u, processing times their uploads, and due dates t_round -
    t_cs - t_agg - u - t_update - 1.  Taking the jobs in due-date order,
    most[t] is the most jobs that finish on time with total processing time
    t; the optimum is the best count over all levels.
    """
    base = float(budget.t_cs) + float(budget.t_agg)
    optimum = 0
    for level in np.unique(cands.t_upload):
        slack = int(float(budget.t_round) - base - level) - 1
        if slack < 0:
            continue
        jobs = cands.t_upload <= level
        due = slack - cands.t_update[jobs]
        in_order = np.argsort(due, kind="stable")
        most = np.full(slack + 1, -np.inf)
        most[0] = 0.0
        for p, d in zip(cands.t_upload[jobs][in_order].astype(int), due[in_order].astype(int)):
            if p <= d:
                most[p : d + 1] = np.maximum(most[p : d + 1], most[: d + 1 - p] + 1.0)
        optimum = max(optimum, int(most.max()))
    return optimum


class TestExact:
    def test_three_client_hand_trace_boundary(self):
        cands = candidate_set(
            (cand(1, 20, 10, 10.0), cand(2, 30, 10, 10.0), cand(3, 80, 10, 10.0))
        )
        # All three land exactly on 100, so only two fit; any margin admits the third.
        assert exact_select(cands, budget_of(100.0)) == [0, 1]
        budget = budget_of(100.001)
        order = exact_select(cands, budget)
        assert order == [0, 1, 2]
        assert replay(cands, order, budget) == ([0.0, 30.0, 40.0, 90.0], 100.0)

    def test_total_equal_to_deadline_is_rejected(self):
        # The 40 s upload is also the distribution time: 40 + 20 + 40 = 100 s.
        cands = candidate_set((cand(1, 20, 40, 2.5),))
        assert len(exact_select(cands, budget_of(100.0))) == 0
        assert len(exact_select(cands, budget_of(100.001))) == 1

    def test_empty_candidate_set(self):
        assert exact_select(candidate_set(()), budget_of(100.0, t_cs=2.0, t_agg=3.0)) == []

    def test_full_ties_keep_the_lowest_rows(self):
        cands = CandidateSet([0.0] * 6, [10.0] * 6)
        # Four uploads fit and every client ties; the lowest rows come back in order.
        assert exact_select(cands, budget_of(60.0)) == [0, 1, 2, 3]

    def test_best_set_found_at_a_slower_link(self):
        # One fast-link client fits (5 + 25 + 5 s) but two do not (5 + 25 +
        # 10 s); the two slow-link clients fit together (10 + 10 + 10 s), and
        # no set with a fast client does at the slower link (10 + 25 + 5 s).
        rows = (link(1, 25, 20.0), link(2, 25, 20.0), link(3, 0, 10.0), link(4, 0, 10.0))
        budget = budget_of(38.0)
        schedule = plan(exact_select, rows, budget)
        assert schedule == [3, 4]
        assert_exact_schedule(schedule, rows, budget)

    def test_matches_brute_force_up_to_eight_candidates(self):
        rng = np.random.default_rng(20260809)
        for k in range(480):
            n = int(rng.integers(0, 9))
            rounded = k % 2 == 0
            rows = random_candidates(rng, n, rounded)
            t_cs, t_agg = (rng.uniform(0, 10), rng.uniform(0, 10)) if k % 4 < 2 else (0.0, 0.0)
            if rounded:
                t_cs, t_agg = float(np.round(t_cs)), float(np.round(t_agg))
            if rounded and n and k % 3 == 0:
                deadline = deadline_on_a_total(rng, rows, t_cs, t_agg)
            else:
                deadline = 10 ** rng.uniform(2.0, 3.0)
            budget = budget_of(deadline, t_cs=t_cs, t_agg=t_agg)
            schedule = plan(exact_select, rows, budget)
            assert len(schedule) == len(reference_exact(rows, budget))
            assert_exact_schedule(schedule, rows, budget)

    def test_greedy_never_beats_exact_and_exact_sometimes_strictly_wins(self):
        rng = np.random.default_rng(20260809)
        strict = 0
        for _ in range(400):
            n = int(rng.integers(1, 9))
            rows = tuple(link(j + 1, rng.uniform(0, 120), rng.uniform(1, 12)) for j in range(n))
            budget = budget_of(rng.uniform(40, 400))
            cands = candidate_set(rows)
            g = greedy_select(cands, budget)
            e = plan(exact_select, rows, budget)
            assert replay(cands, g, budget)[1] < float(budget.t_round)
            assert_exact_schedule(e, rows, budget)
            assert len(g) <= len(e)
            if len(g) < len(e):
                strict += 1
        assert strict > 0  # greedy is a heuristic, not an optimum

    @pytest.mark.parametrize("n, instances", [(100, 40), (1000, 3)])
    def test_full_scale_against_greedy(self, n, instances):
        rng = np.random.default_rng(n + 1)
        strict = 0
        for k in range(instances):
            rows = random_candidates(rng, n, rounded=k % 2 == 0)
            budget = budget_of(
                10 ** rng.uniform(1.5, 3.0), t_cs=rng.uniform(0, 10), t_agg=rng.uniform(0, 10)
            )
            g = greedy_select(candidate_set(rows), budget)
            e = plan(exact_select, rows, budget)
            assert_exact_schedule(e, rows, budget)
            assert len(g) <= len(e)
            strict += len(g) < len(e)
        assert strict > 0

    @pytest.mark.parametrize("n, instances", [(100, 20), (1000, 3)])
    def test_full_scale_against_an_independent_optimum(self, n, instances):
        # Integer times, so `exact_select`'s sums are exact and its size is
        # the optimum's; greedy, a heuristic, falls short on some instances.
        rng = np.random.default_rng([n, 1969])
        short = 0
        for _ in range(instances):
            cands = CandidateSet(
                rng.integers(0, 300, n).astype(float), rng.integers(1, 41, n).astype(float)
            )
            t_round, t_cs, t_agg = rng.integers([60, 0, 0], [400, 10, 10]).astype(float)
            budget = budget_of(t_round, t_cs=t_cs, t_agg=t_agg)
            optimum = lawler_moore_optimum(cands, budget)
            assert len(exact_select(cands, budget)) == optimum
            greedy = len(greedy_select(cands, budget))
            assert greedy <= optimum
            short += greedy < optimum
        assert short > 0

    def test_paper_cell_cohorts_against_an_independent_optimum(self):
        # The paper cell's estimated times (K = 1000, default budget) rounded
        # to whole 10 ms units, so every sum is exact and T_round = 180 s is
        # 18000 units.  Over these 150 cohorts greedy falls short of the
        # optimum on 24, keeping 6.41 clients on average against 6.57.
        budget, short = budget_of(18000.0), 0
        for seed in range(3):
            population = generate_profiles(1000, CellConfig(), ResourceRanges(), RngStream(seed))
            estimated = CandidateSet.estimated(population, TimeBudget())
            grid = [np.rint(times * 100.0) for times in (estimated.t_update, estimated.t_upload)]
            rng = np.random.default_rng(seed)
            for _ in range(50):
                cohort = rng.choice(1000, 100, replace=False)
                cands = CandidateSet(grid[0][cohort], grid[1][cohort])
                optimum = lawler_moore_optimum(cands, budget)
                assert len(exact_select(cands, budget)) == optimum
                greedy = len(greedy_select(cands, budget))
                assert greedy <= optimum
                short += greedy < optimum
        assert short > 0

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0, 150, allow_nan=False),
                st.floats(1, 80, allow_nan=False),
                st.floats(0.5, 12, allow_nan=False),
            ),
            min_size=1,
            max_size=6,
        ),
        st.floats(20, 400, allow_nan=False),
    )
    def test_cardinality_bound_property(self, rows, t_round):
        rows = tuple(cand(i + 1, ud, ul, thr) for i, (ud, ul, thr) in enumerate(rows))
        cands = candidate_set(rows)
        budget = budget_of(t_round)
        g = greedy_select(cands, budget)
        e = exact_select(cands, budget)
        assert len(g) <= len(e)
        assert replay(cands, g, budget)[1] < float(budget.t_round)
        assert replay(cands, e, budget)[1] < float(budget.t_round)


class TestSchedule:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(0, 300, allow_nan=False), st.floats(0, 80, allow_nan=False)),
            max_size=12,
        ),
        st.floats(1, 600, allow_nan=False),
        st.sampled_from([(0.0, 0.0), (2.5, 1.5)]),
    )
    def test_selections_pass_the_public_checks(self, rows, t_round, overheads):
        # Nothing checks a plan when it is returned; every order either
        # planner returns must hold distinct rows of the set as plain ints,
        # and replayed it must fit the deadline.
        t_update, t_upload = zip(*rows) if rows else ((), ())
        cands = CandidateSet(t_update, t_upload)
        budget = budget_of(t_round + sum(overheads), t_cs=overheads[0], t_agg=overheads[1])
        for select in (greedy_select, exact_select):
            order = select(cands, budget)
            assert type(order) is list
            assert len(set(order)) == len(order)
            assert all(type(row) is int for row in order)
            assert set(order) <= set(range(len(cands)))
            assert replay(cands, order, budget)[1] < float(budget.t_round)

    @pytest.mark.parametrize("select", [greedy_select, exact_select])
    def test_rows_follow_their_clients_through_a_reordered_set(self, select):
        # Times drawn from a continuum leave no ties to break, so a planner
        # picks the same clients from any ordering of a set, and its rows
        # name them in the ordering it was given.
        rng = np.random.default_rng(24)
        selected = 0
        for _ in range(60):
            cands = candidate_set(random_candidates(rng, 60, rounded=False))
            budget = budget_of(rng.uniform(60, 400), t_cs=rng.uniform(0, 5), t_agg=1.5)
            shuffle = rng.permutation(len(cands))
            schedule = select(cands, budget)
            shuffled = select(cands._rows(shuffle), budget)
            assert shuffle[shuffled].tolist() == schedule
            assert replay(cands._rows(shuffle), shuffled, budget) == replay(cands, schedule, budget)
            selected += len(schedule)
        assert selected > 0


@pytest.mark.parametrize("throughput", [0.0, -1.0])
def test_a_candidate_needs_positive_throughput(throughput):
    with pytest.raises(ParameterError, match="candidate 4 must have positive throughput"):
        Candidate(4, Seconds(1.0), Seconds(1.0), throughput)
