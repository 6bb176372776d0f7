import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedcs_sim import protocol
from fedcs_sim.channel import CellConfig
from fedcs_sim.core import ParameterError, RngStream, Seconds
from fedcs_sim.learning import (
    LabeledDataset,
    MlpNet,
    NativeTrainer,
    SgdHyper,
    SurrogateTrainer,
    make_blob_dataset,
    partition_dataset,
)
from fedcs_sim.protocol import (
    FEDLIM_DISTRIBUTIONS,
    FEDLIM_UPLOAD_ORDERS,
    ExperimentState,
    FedLimOptions,
    ProtocolConfig,
    RoundRecord,
    StopCondition,
    _fedlim_release_times,
    _fedlim_uploads,
    _request_positions,
    run_experiment,
    run_round,
)
from fedcs_sim.resources import (
    MAX_CLIENTS,
    FluctuationConfig,
    Population,
    ResourceRanges,
    TimeBudget,
    estimated_update_time,
    estimated_upload_time,
    generate_profiles,
    realized_times,
)
from fedcs_sim.selection import Candidate, CandidateSet, dist_time, extend_theta, greedy_select
from test_learning import reference_local_update
from test_selection import reference_greedy

K_SMALL = 200


@pytest.fixture(scope="module")
def population_small():
    return generate_profiles(K_SMALL, CellConfig(), ResourceRanges(), RngStream(0))


def small_config(**kwargs):
    defaults = dict(mode="fedcs", k_total=K_SMALL, fraction=0.1)
    defaults.update(kwargs)
    return ProtocolConfig(**defaults)


def fresh_state(trainer=None, seed=0):
    return ExperimentState.fresh(trainer or SurrogateTrainer(), RngStream(seed))


class RowRecordingTrainer(SurrogateTrainer):
    """A surrogate trainer that keeps the rows of every client_updates call, as given."""

    def client_updates(self, model, rows, rng):
        self.trained.append(list(rows))
        return super().client_updates(model, rows, rng)


class TestFedcsRound:
    def test_zero_fluctuation_realization_matches_schedule(self, population_small):
        config = small_config()
        trainer = SurrogateTrainer()
        state = fresh_state(trainer)
        record = run_round(state, population_small, config, trainer, 0)
        assert record.aggregated_count == len(record.selected_or_completed) > 0
        assert float(record.busy_time) <= float(config.budget.t_round)
        assert float(record.realized_round_duration) == float(config.budget.t_round)
        assert record.clock_after == float(config.budget.t_round)

    def test_unbounded_deadline_selects_whole_cohort(self, population_small):
        budget = TimeBudget(t_round=Seconds(1e6))
        config = small_config(budget=budget)
        trainer = SurrogateTrainer()
        record = run_round(fresh_state(trainer), population_small, config, trainer, 0)
        assert len(record.selected_or_completed) == config.cohort_size == 20

    def test_extend_policy_never_discards(self, population_small):
        config = small_config(fluct=FluctuationConfig(0.2), late_policy="extend")
        trainer = SurrogateTrainer()
        state = fresh_state(trainer)
        for idx in range(10):
            record = run_round(state, population_small, config, trainer, idx)
            assert record.aggregated_count == len(record.selected_or_completed)
            assert float(record.realized_round_duration) >= float(config.budget.t_round)

    def test_discard_policy_advances_exactly_one_deadline(self, population_small):
        config = small_config(fluct=FluctuationConfig(0.2), late_policy="discard")
        trainer = SurrogateTrainer()
        state = fresh_state(trainer)
        for idx in range(10):
            before = state.clock
            record = run_round(state, population_small, config, trainer, idx)
            assert record.aggregated_count <= len(record.selected_or_completed)
            assert state.clock - before == float(config.budget.t_round)

    def test_requested_cohort_is_unique_and_sized(self, population_small):
        config = small_config()
        trainer = SurrogateTrainer()
        state = fresh_state(trainer)
        seen = []
        for idx in range(5):
            record = run_round(state, population_small, config, trainer, idx)
            assert len(record.requested) == config.cohort_size
            assert len(set(record.requested)) == config.cohort_size
            seen.append(tuple(record.requested.tolist()))
        assert len(set(seen)) > 1  # fresh draw each round


class TestFedcsRealizedFinishes:
    # Four clients that the plan always fits, realized (in schedule order) to
    # finish at 10, 20, 30 and 62.5 s: with t_cs = 2 s the last one ends its
    # upload at 2 + 32.5 + 62.5 = 97 s into the round, and its busy time
    # (t_agg = 3 s) is 100 s.
    UPLOADS = [10.0, 10.0, 10.0, 32.5]

    @pytest.fixture
    def fixed_realization(self, monkeypatch):
        def realized(population, positions, budget, fluct, rng):
            assert len(positions) == len(self.UPLOADS)
            return np.zeros(len(positions)), np.array(self.UPLOADS)

        monkeypatch.setattr(protocol, "realized_times", realized)

    @pytest.mark.parametrize(
        "t_round, on_time", [(100.0, 4), (math.nextafter(100.0, 0.0), 3)]
    )
    def test_discard_keeps_a_finish_at_the_cutoff_and_drops_one_an_ulp_past_it(
        self, fixed_realization, t_round, on_time
    ):
        population = Population([1] * 4, [1000.0] * 4, [1000.0] * 4)
        budget = TimeBudget(t_round=Seconds(t_round), t_cs=Seconds(2.0), t_agg=Seconds(3.0))
        # The cutoff t_round - t_agg is 97 s, or the float just below it.
        assert (float(budget.t_round) - 3.0 == 97.0) == (on_time == 4)
        config = ProtocolConfig(
            k_total=4, fraction=1.0, budget=budget, fluct=FluctuationConfig(0.1),
            late_policy="discard",
        )
        trainer = SurrogateTrainer()
        record = run_round(fresh_state(trainer), population, config, trainer, 0)
        assert len(record.selected_or_completed) == 4
        assert record.aggregated_count == on_time
        assert record.busy_time == 100.0
        assert record.realized_round_duration == t_round

    @pytest.mark.parametrize("late_policy", ["extend", "discard"])
    def test_an_empty_schedule_draws_the_cohort_once_and_is_busy_for_the_overheads(
        self, population_small, late_policy
    ):
        budget = TimeBudget(t_round=Seconds(1.0), t_cs=Seconds(0.25), t_agg=Seconds(0.5))
        config = small_config(
            budget=budget, fluct=FluctuationConfig(0.1), late_policy=late_policy
        )
        trainer = SurrogateTrainer()
        state = fresh_state(trainer)
        reference = fresh_state(trainer).rng_fluctuation
        reference.standard_normal((config.cohort_size, 2))
        record = run_round(state, population_small, config, trainer, 0)
        assert record.selected_or_completed.tolist() == []
        assert record.aggregated_count == 0
        assert state.rng_fluctuation.bit_generator.state == reference.bit_generator.state
        assert record.busy_time == 0.25 + 0.5
        assert record.realized_round_duration == 1.0


class TestFedcsSelectionWiring:
    def test_rounds_match_reference_greedy_on_paper_cell(self):
        config = ProtocolConfig()  # the paper's cell: K=1000, C=0.1, fedcs
        budget = config.budget
        stop = StopCondition(t_final=Seconds(20 * float(budget.t_round)))
        for seed in (0, 1):
            rng = RngStream(seed)
            population = generate_profiles(config.k_total, CellConfig(), ResourceRanges(), rng)
            profiles = list(population)
            by_id = {int(p.id): p for p in profiles}
            records = run_experiment(config, stop, SurrogateTrainer(), population, rng)
            assert len(records) == 20
            for record in records:
                rows = [
                    Candidate(
                        id=p.id,
                        t_update=estimated_update_time(p, budget),
                        t_upload=estimated_upload_time(p, budget),
                        throughput=p.mean_throughput,
                    )
                    for p in (by_id[cid] for cid in record.requested)
                ]
                expected = reference_greedy(rows, budget)
                assert record.selected_or_completed.tolist() == expected

            trainer = SurrogateTrainer()
            state = ExperimentState.fresh(trainer, rng)
            run_round(state, population, config, trainer, 0)
            # Row k of the estimates is population row k.
            columns = state.estimates
            for column, scalar in (
                (columns.t_update, estimated_update_time),
                (columns.t_upload, estimated_upload_time),
            ):
                expected = np.array([float(scalar(p, budget)) for p in profiles])
                assert column.tobytes() == expected.tobytes()

    @staticmethod
    def assert_rounds_match_reference_greedy(budget):
        """Run 12 fedcs rounds under `budget` and check each selection against
        the reference greedy over the whole cohort; the candidates selected.

        The engine plans only the schedulable members of each cohort; the
        reference plans the whole cohort."""
        config = ProtocolConfig(budget=budget)
        stop = StopCondition(t_final=Seconds(12 * float(budget.t_round)))
        rng = RngStream(2)
        population = generate_profiles(config.k_total, CellConfig(), ResourceRanges(), rng)
        by_id = {int(p.id): p for p in population}
        records = run_experiment(config, stop, SurrogateTrainer(), population, rng)
        assert len(records) == 12
        assert any(len(record.selected_or_completed) for record in records)
        selected = []
        for record in records:
            rows = {
                int(p.id): Candidate(
                    id=p.id,
                    t_update=estimated_update_time(p, budget),
                    t_upload=estimated_upload_time(p, budget),
                    throughput=p.mean_throughput,
                )
                for p in (by_id[cid] for cid in record.requested)
            }
            expected = reference_greedy(list(rows.values()), budget)
            assert record.selected_or_completed.tolist() == expected
            selected += [rows[cid] for cid in record.selected_or_completed]
        return selected

    @pytest.mark.parametrize(
        "t_round, t_cs, t_agg",
        [(60.0, 0.0, 0.0), (180.0, 0.0, 0.0), (600.0, 0.0, 0.0), (180.0, 2.5, 1.5)],
    )
    def test_rounds_match_reference_greedy_across_budgets(self, t_round, t_cs, t_agg):
        budget = TimeBudget(t_round=Seconds(t_round), t_cs=Seconds(t_cs), t_agg=Seconds(t_agg))
        self.assert_rounds_match_reference_greedy(budget)

    def test_clients_accepted_within_the_overheads_of_the_deadline_are_planned(self):
        # A schedulable mask that charged t_cs + t_agg twice would drop every
        # client whose solo total lies within t_cs + t_agg of the deadline.
        budget = TimeBudget(t_round=Seconds(180.0), t_cs=Seconds(20.0), t_agg=Seconds(20.0))
        base = float(budget.t_cs) + float(budget.t_agg)
        selected = self.assert_rounds_match_reference_greedy(budget)
        solo = [base + 2 * float(c.t_upload) + float(c.t_update) for c in selected]
        assert any(total >= float(budget.t_round) - base for total in solo)


class TestDistributionTimeIdentity:
    """The planners take the distribution time as the longest selected
    upload; bench/checks.py re-plans it as model_size over the slowest link.
    Each upload is model_size / throughput, correctly rounded and so monotone
    in the throughput, which makes the two equal to the last bit."""

    @pytest.mark.parametrize("k_total, cohort", [(1000, 100), (100_000, 1000)])
    def test_longest_upload_is_model_size_over_slowest_link(self, k_total, cohort):
        population = generate_profiles(k_total, CellConfig(), ResourceRanges(), RngStream(k_total))
        profiles = list(population)
        rng = np.random.default_rng(k_total)
        scheduled = 0
        for t_round in (60.0, 180.0, 600.0):
            budget = TimeBudget(t_round=Seconds(t_round))
            estimates = CandidateSet.estimated(population, budget)
            for _ in range(40):
                positions = np.sort(rng.choice(k_total, size=cohort, replace=False))
                chosen = positions[greedy_select(estimates._rows(positions), budget)]
                rows = [
                    Candidate(
                        id=p.id,
                        t_update=estimated_update_time(p, budget),
                        t_upload=estimated_upload_time(p, budget),
                        throughput=p.mean_throughput,
                    )
                    for p in (profiles[k] for k in chosen.tolist())
                ]
                dist = float(estimates.t_upload[chosen].max(initial=0.0))
                assert dist == float(dist_time(rows, budget.model_size))
                scheduled += len(rows) > 0
        assert scheduled > 100


class TestFedlimRound:
    def test_impossible_deadline_completes_nothing(self, population_small):
        budget = TimeBudget(t_round=Seconds(1.0))
        config = small_config(mode="fedlim", budget=budget)
        trainer = SurrogateTrainer()
        record = run_round(fresh_state(trainer), population_small, config, trainer, 0)
        assert record.selected_or_completed.tolist() == []
        assert record.aggregated_count == 0
        assert record.accuracy_after == 0.0
        assert record.clock_after == 1.0

    def test_unbounded_deadline_completes_everyone(self, population_small):
        budget = TimeBudget(t_round=Seconds(1e6))
        config = small_config(mode="fedlim", budget=budget)
        trainer = SurrogateTrainer()
        record = run_round(fresh_state(trainer), population_small, config, trainer, 0)
        assert len(record.selected_or_completed) == config.cohort_size

    def test_clock_advances_exactly_one_deadline(self, population_small):
        config = small_config(mode="fedlim")
        trainer = SurrogateTrainer()
        state = fresh_state(trainer)
        for idx in range(5):
            record = run_round(state, population_small, config, trainer, idx)
            assert float(record.realized_round_duration) == 180.0
            assert float(record.busy_time) <= 180.0
        assert state.clock == 5 * 180.0

    def test_completions_are_a_prefix_of_the_upload_sequence(self, population_small):
        config = small_config(mode="fedlim", fedlim=FedLimOptions(upload_order="random"))
        trainer = SurrogateTrainer()
        state = fresh_state(trainer)
        record = run_round(state, population_small, config, trainer, 0)
        assert record.aggregated_count == len(record.selected_or_completed)

    @pytest.mark.parametrize("distribution", ["unicast", "multicast", "none"])
    @pytest.mark.parametrize("order", ["channel", "ready", "random"])
    def test_all_option_combinations_run(self, population_small, distribution, order):
        config = small_config(
            mode="fedlim", fedlim=FedLimOptions(distribution=distribution, upload_order=order)
        )
        trainer = SurrogateTrainer()
        record = run_round(fresh_state(trainer), population_small, config, trainer, 0)
        assert 0 <= record.aggregated_count <= config.cohort_size

    def test_multicast_over_random_cohort_exceeds_deadline(self, population_small):
        # The shared distribution phase is pinned to the slowest of ~20
        # random links, which alone exceeds a 3-minute deadline.
        config = small_config(mode="fedlim", fedlim=FedLimOptions(distribution="multicast"))
        trainer = SurrogateTrainer()
        state = fresh_state(trainer)
        counts = [
            run_round(state, population_small, config, trainer, idx).aggregated_count
            for idx in range(10)
        ]
        assert np.mean(counts) < 0.5


def reference_fedlim_uploads(requested, release, upload, upload_order, deadline, rng):
    """The fedlim upload queue served in full: the whole cohort ordered by
    `np.lexsort` on the key, ties by requested id, or one permutation, then
    served until the first client whose upload ends after the deadline."""
    if upload_order == "random":
        sequence = rng.permutation(len(requested))
    elif upload_order == "ready":
        sequence = np.lexsort((requested, release))
    else:
        sequence = np.lexsort((requested, upload))
    releases, uploads = release.tolist(), upload.tolist()
    clock = 0.0
    done = 0
    for i in sequence.tolist():
        clock = extend_theta(clock, releases[i], uploads[i])
        if clock > deadline:
            break
        done += 1
    return sequence[:done], clock


def assert_queue_matches_reference(release, upload, upload_order, deadline, seed=0):
    requested = np.arange(len(release)) * 3 + 1  # ascending, as a cohort's rows are
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    served, clock = _fedlim_uploads(release, upload, upload_order, deadline, rng)
    expected, expected_clock = reference_fedlim_uploads(
        requested, release, upload, upload_order, deadline, reference_rng
    )
    assert served.tolist() == expected.tolist()
    assert clock == expected_clock
    # The random order still draws one full permutation.
    assert rng.random() == reference_rng.random()
    return served


# Some values from a short list, so that keys tie.
TIMES = st.one_of(st.sampled_from([0.5, 1.0, 4.0, 20.0]), st.floats(0.01, 200.0))


class TestFedlimUploadQueue:
    """The fedlim engine orders and serves only the queue up to the first
    client that cannot finish; serving the whole ordered cohort must give the
    same completed clients and the same clock."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(TIMES, TIMES), min_size=1, max_size=40),
        st.sampled_from(FEDLIM_DISTRIBUTIONS),
        st.sampled_from(FEDLIM_UPLOAD_ORDERS),
        st.sampled_from([0.0, 2.5, 30.0]),
        st.sampled_from([0.0, 1.5, 40.0]),
        st.floats(50.0, 2000.0),
        st.integers(0, 2**32 - 1),
    )
    @example([(5.0, 1.0)], "unicast", "channel", 0.0, 0.0, 100.0, 0)  # one client, on time
    @example([(5.0, 1.0)], "none", "ready", 2.5, 1.5, 50.0, 0)  # one client, on time
    @example([(150.0, 60.0)], "unicast", "random", 2.5, 1.5, 50.0, 0)  # one client, late
    @example([(100.0, 4.0)] * 6, "multicast", "channel", 0.0, 1.5, 60.0, 1)  # all late, tied
    @example([(1.0, 0.5)] * 8, "none", "ready", 30.0, 40.0, 2000.0, 2)  # none late, tied
    def test_served_clients_and_clock_match_the_full_queue(
        self, rows, distribution, upload_order, t_cs, t_agg, t_round, seed
    ):
        update, upload = (np.array(column) for column in zip(*rows))
        options = FedLimOptions(distribution=distribution, upload_order=upload_order)
        release = _fedlim_release_times(update, upload, options, t_cs)
        assert_queue_matches_reference(release, upload, upload_order, t_round - t_agg, seed)

    @pytest.mark.parametrize("upload_order", FEDLIM_UPLOAD_ORDERS)
    def test_no_client_late_and_every_client_late(self, upload_order):
        rng = np.random.default_rng(11)
        update, upload = rng.uniform(1, 50, 30), rng.uniform(0.5, 5, 30)
        release = _fedlim_release_times(update, upload, FedLimOptions(), 2.5)
        everyone = assert_queue_matches_reference(release, upload, upload_order, 1e6)
        assert len(everyone) == 30
        nobody = assert_queue_matches_reference(release, upload, upload_order, 1.0)
        assert len(nobody) == 0

    @staticmethod
    def clocks_an_ulp_below_the_bound(count):
        """Two clients (release, upload) and a deadline equal to the clock at
        which the second upload ends, fl(fl(theta + u) + fl(r - theta)), where
        that clock is below fl(r + u): the plain bound calls the second client
        late, yet it completes."""
        rng = np.random.default_rng(5)
        while count:
            r1, u1, u2 = rng.uniform(0, 10), rng.uniform(0.1, 1), rng.uniform(1, 10)
            theta = extend_theta(0.0, r1, u1)
            r2 = theta + rng.uniform(0, 50)
            deadline = extend_theta(theta, r2, u2)
            if r2 + u2 > deadline:
                count -= 1
                yield (r1, u1), (r2, u2), deadline

    @pytest.mark.parametrize("upload_order", ["channel", "ready"])
    def test_a_client_whose_bound_passes_the_deadline_by_an_ulp_completes(self, upload_order):
        for first, second, deadline in self.clocks_an_ulp_below_the_bound(20):
            release, upload = (np.array(column) for column in zip(second, first))
            served = assert_queue_matches_reference(release, upload, upload_order, deadline)
            assert served.tolist() == [1, 0]

    def test_the_queue_runs_on_past_a_client_an_ulp_inside_the_deadline(self):
        # A third client released with the second and a sub-ulp upload also
        # completes, so cutting the queue at the plain bound would drop it.
        for first, (r2, u2), deadline in self.clocks_an_ulp_below_the_bound(20):
            release = np.array([r2, first[0], r2])
            upload = np.array([u2, first[1], math.ulp(deadline) / 4])
            served = assert_queue_matches_reference(release, upload, "ready", deadline)
            assert served.tolist() == [1, 0, 2]

    @pytest.mark.parametrize("upload_order", FEDLIM_UPLOAD_ORDERS)
    def test_five_rounds_at_benchmark_scale(self, upload_order):
        # The fedlim-100k benchmark cell: K = 100 000, C = 0.01, r = 0.1.
        config = ProtocolConfig(
            mode="fedlim",
            k_total=100_000,
            fraction=0.01,
            fluct=FluctuationConfig(r=0.1),
            fedlim=FedLimOptions(upload_order=upload_order),
        )
        population = generate_profiles(config.k_total, CellConfig(), ResourceRanges(), RngStream(3))
        trainer = SurrogateTrainer()
        state, reference = fresh_state(trainer, 3), fresh_state(trainer, 3)
        deadline = float(config.budget.t_round)
        completed = 0
        for idx in range(5):
            record = run_round(state, population, config, trainer, idx)
            requested = _request_positions(reference, population, config)
            update, upload = realized_times(
                population, requested, config.budget, config.fluct, reference.rng_fluctuation
            )
            release = _fedlim_release_times(update, upload, config.fedlim, 0.0)  # t_cs = 0
            served, clock = reference_fedlim_uploads(
                requested, release, upload, upload_order, deadline, reference.rng_order
            )
            assert record.requested.tolist() == (requested + 1).tolist()
            completed_ids = (requested[served] + 1).tolist()
            assert record.selected_or_completed.tolist() == completed_ids
            assert float(record.busy_time) == min(clock, deadline)
            completed += len(served)
        assert 0 < completed < 5 * config.cohort_size


class TestVanillaRound:
    def test_everyone_aggregates_every_round(self, population_small):
        config = small_config(mode="vanilla")
        trainer = SurrogateTrainer()
        state = fresh_state(trainer)
        for idx in range(3):
            record = run_round(state, population_small, config, trainer, idx)
            assert record.aggregated_count == config.cohort_size
            assert len(record.selected_or_completed) == config.cohort_size

    def test_round_duration_dominates_fedcs_paired_seed(self, population_small):
        fedcs_cfg, vanilla_cfg = small_config(), small_config(mode="vanilla")
        fedcs_durations, vanilla_durations = [], []
        for seed in range(10):
            t1, t2 = SurrogateTrainer(), SurrogateTrainer()
            r1 = run_round(fresh_state(t1, seed), population_small, fedcs_cfg, t1, 0)
            r2 = run_round(fresh_state(t2, seed), population_small, vanilla_cfg, t2, 0)
            fedcs_durations.append(float(r1.realized_round_duration))
            vanilla_durations.append(float(r2.realized_round_duration))
        assert np.mean(vanilla_durations) > np.mean(fedcs_durations)

    def test_accuracy_saturates_like_fedcs(self, population_small):
        # Both asymptote to the surrogate ceiling once enough updates land.
        stop_v = StopCondition(t_final=Seconds(1.5e6))
        config_v = small_config(mode="vanilla")
        records_v = run_experiment(
            config_v, stop_v, SurrogateTrainer(), population_small, RngStream(0)
        )
        stop_c = StopCondition(t_final=Seconds(60000.0))
        records_c = run_experiment(
            small_config(), stop_c, SurrogateTrainer(), population_small, RngStream(0)
        )
        assert records_v[-1].accuracy_after > 0.88
        assert records_c[-1].accuracy_after > 0.88
        assert abs(records_v[-1].accuracy_after - records_c[-1].accuracy_after) < 0.02


class TestPairedModes:
    """One seed feeds every mode the same random inputs at each round index:
    the cohort, its realized times and, for the random upload orders, the
    permutation."""

    def test_modes_share_cohorts_realized_times_and_upload_orders(
        self, population_small, monkeypatch
    ):
        draws = []

        def recording(population, positions, budget, fluct, rng):
            update, upload = realized_times(population, positions, budget, fluct, rng)
            draws.append((positions.tolist(), update.tolist(), upload.tolist()))
            return update, upload

        monkeypatch.setattr(protocol, "realized_times", recording)
        fluct, stop = FluctuationConfig(0.1), StopCondition(t_final=Seconds(20_000.0))
        configs = {mode: small_config(mode=mode, fluct=fluct) for mode in ("fedcs", "vanilla")}
        for order in FEDLIM_UPLOAD_ORDERS:
            options = FedLimOptions(upload_order=order)
            configs[f"fedlim-{order}"] = small_config(mode="fedlim", fluct=fluct, fedlim=options)
        runs = {}
        for name, config in configs.items():
            draws.clear()
            trainer = SurrogateTrainer()
            records = run_experiment(config, stop, trainer, population_small, RngStream(0))
            assert len(draws) == len(records)
            runs[name] = records, list(draws)
        assert len(runs["vanilla"][0]) > 1
        for (mine, my_draws), (theirs, their_draws) in itertools.combinations(runs.values(), 2):
            common = min(len(mine), len(theirs))
            assert [r.requested.tolist() for r in mine[:common]] == [
                r.requested.tolist() for r in theirs[:common]
            ]
            assert my_draws[:common] == their_draws[:common]
        vanilla, fedlim = runs["vanilla"][0], runs["fedlim-random"][0]
        for served, completed in zip(vanilla, fedlim):
            prefix = served.selected_or_completed[: len(completed.selected_or_completed)]
            assert completed.selected_or_completed.tolist() == prefix.tolist()


class TestRunRound:
    @pytest.mark.parametrize(
        "mode, late_policy",
        [("fedcs", "extend"), ("fedcs", "discard"), ("fedlim", "extend"), ("vanilla", "extend")],
    )
    def test_the_trainer_gets_the_aggregated_rows_in_order_as_plain_ints(
        self, population_small, mode, late_policy
    ):
        # The aggregated clients are the first aggregated_count of the
        # record's selected_or_completed: under discard, the on-time prefix.
        # The trainer gets their population rows, each id minus one.
        config = small_config(mode=mode, fluct=FluctuationConfig(0.3), late_policy=late_policy)
        trainer = RowRecordingTrainer()
        state = fresh_state(trainer)
        dropped = trained = 0
        for idx in range(20):
            trainer.trained = []
            record = run_round(state, population_small, config, trainer, idx)
            prefix = record.selected_or_completed[: record.aggregated_count].tolist()
            assert trainer.trained == ([[cid - 1 for cid in prefix]] if prefix else [])
            assert all(type(row) is int for rows in trainer.trained for row in rows)
            dropped += len(record.selected_or_completed) - record.aggregated_count
            trained += record.aggregated_count
        assert trained > 0
        assert (dropped > 0) == (late_policy == "discard")

    def test_each_fedcs_round_plans_a_valid_read_only_subset(self, population_small, monkeypatch):
        # The engine builds its per-round subsets without CandidateSet's
        # checks; each must pass them and keep its columns read-only.
        planned = []

        def recording_greedy(candidates, budget):
            planned.append(candidates)
            return greedy_select(candidates, budget)

        monkeypatch.setattr(protocol, "greedy_select", recording_greedy)
        stop = StopCondition(t_final=Seconds(15 * 180.0))
        for seed in range(4):
            planned.clear()
            records = run_experiment(
                small_config(), stop, SurrogateTrainer(), population_small, RngStream(seed)
            )
            assert len(planned) == len(records) == 15
            for subset, record in zip(planned, records):
                assert len(subset) <= len(record.requested)
                checked = CandidateSet(subset.t_update, subset.t_upload)
                for name in ("t_update", "t_upload"):
                    column = getattr(subset, name)
                    assert not column.flags.writeable
                    assert column.tobytes() == getattr(checked, name).tobytes()
            assert sum(len(subset) for subset in planned) > 0

    def test_each_fedcs_round_selects_greedys_picks_on_the_whole_cohort(self, monkeypatch):
        # The engine plans only the schedulable members of each cohort and
        # maps greedy's rows back to cohort positions.  Greedy on the whole,
        # unmasked cohort must give the same positions in the same order.
        rounds = []
        fedcs_round = protocol._ROUND_ENGINES["fedcs"]

        def recording_round(state, population, config, requested, update, upload):
            result = fedcs_round(state, population, config, requested, update, upload)
            whole = greedy_select(state.estimates._rows(requested), config.budget)
            dropped = int((~state.schedulable[requested]).sum())
            rounds.append((result[0].tolist(), whole, dropped))
            return result

        monkeypatch.setitem(protocol._ROUND_ENGINES, "fedcs", recording_round)
        config = ProtocolConfig()  # the paper's cell: K=1000, C=0.1, fedcs
        rng = RngStream(3)
        population = generate_profiles(config.k_total, CellConfig(), ResourceRanges(), rng)
        stop = StopCondition(t_final=Seconds(30 * float(config.budget.t_round)))
        records = run_experiment(config, stop, SurrogateTrainer(), population, rng)
        assert len(rounds) == len(records) == 30
        for selected, whole, _ in rounds:
            assert selected == whole
        assert all(dropped > 0 for _, _, dropped in rounds)
        assert all(selected for selected, _, _ in rounds)


class TestRunExperiment:
    def test_zero_final_deadline_yields_no_records(self, population_small):
        records = run_experiment(
            small_config(),
            StopCondition(t_final=Seconds(0.0)),
            SurrogateTrainer(),
            population_small,
            RngStream(0),
        )
        assert records == []

    def test_stop_contract(self, population_small):
        stop = StopCondition(t_final=Seconds(1e5), target_accuracy=0.5)
        records = run_experiment(
            small_config(), stop, SurrogateTrainer(), population_small, RngStream(1)
        )
        assert records[-1].accuracy_after >= 0.5
        assert all(r.accuracy_after < 0.5 for r in records[:-1])

    def test_final_deadline_bounds_clock(self, population_small):
        stop = StopCondition(t_final=Seconds(2000.0))
        records = run_experiment(
            small_config(), stop, SurrogateTrainer(), population_small, RngStream(2)
        )
        assert records
        for r in records:
            assert float(r.clock_after) <= 2000.0 + float(r.realized_round_duration)
        clocks = [float(r.clock_after) for r in records]
        assert all(b > a for a, b in zip(clocks, clocks[1:]))

    def test_round_records_are_bit_identical_across_reruns(self, population_small):
        stop = StopCondition(t_final=Seconds(3600.0))
        config = small_config(fluct=FluctuationConfig(0.1))
        a = run_experiment(config, stop, SurrogateTrainer(), population_small, RngStream(3))
        b = run_experiment(config, stop, SurrogateTrainer(), population_small, RngStream(3))
        assert a == b

    def test_fedcs_aggregates_at_least_fedlim_on_average(self, population_small):
        stop = StopCondition(t_final=Seconds(30 * 180.0))
        fedcs = run_experiment(
            small_config(), stop, SurrogateTrainer(), population_small, RngStream(4)
        )
        fedlim = run_experiment(
            small_config(mode="fedlim"), stop, SurrogateTrainer(), population_small, RngStream(4)
        )
        mean_fedcs = np.mean([r.aggregated_count for r in fedcs])
        mean_fedlim = np.mean([r.aggregated_count for r in fedlim])
        assert mean_fedcs >= mean_fedlim

    def test_population_size_checked(self, population_small):
        config = ProtocolConfig(mode="fedcs", k_total=999)
        with pytest.raises(ParameterError):
            run_experiment(
                config,
                StopCondition(t_final=Seconds(100.0)),
                SurrogateTrainer(),
                population_small,
                RngStream(0),
            )


class RecordingTrainer(NativeTrainer):
    """A native trainer that keeps the bytes of every model it evaluates."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.evaluated = []

    def evaluate(self, model):
        self.evaluated.append(model.params.tobytes())
        return super().evaluate(model)


class PerClientTrainer(RecordingTrainer):
    """Trains the aggregated clients one at a time with the reference loop."""

    def client_updates(self, model, rows, rng):
        updates = []
        for row in rows:
            idx = self.partition.shards[row]
            x, y = self.train_set.features[idx], self.train_set.labels[idx]
            updates.append(reference_local_update(model, x, y, self.net, self.hyper, rng))
        return updates


def native_trainer(cls, population):
    full = make_blob_dataset(700, 8, 4, RngStream(0, "dataset").generator())
    train = LabeledDataset(full.features[:600], full.labels[:600], 4)
    test = LabeledDataset(full.features[600:], full.labels[600:], 4)
    partition = partition_dataset(train, population, "iid", RngStream(0, "partition").generator())
    net = MlpNet(8, 4, hidden=(6,))
    return cls(train, test, partition, net, SgdHyper(), RngStream(0, "init").generator())


class TestNativeTraining:
    @pytest.mark.parametrize("mode", ["fedcs", "fedlim", "vanilla"])
    def test_records_equal_a_per_client_training_loop(self, population_small, mode):
        stop = StopCondition(t_final=Seconds(5 * 180.0))
        runs = []
        for cls in (RecordingTrainer, PerClientTrainer):
            trainer = native_trainer(cls, population_small)
            records = run_experiment(
                small_config(mode=mode), stop, trainer, population_small, RngStream(6)
            )
            runs.append((records, trainer.evaluated))
        (records, evaluated), reference = runs
        assert sum(r.aggregated_count for r in records) > 0
        assert len(set(evaluated)) > 1
        assert (records, evaluated) == reference


# Record times: the float reprs that switch notation, and any other.
RECORD_TIMES = st.one_of(
    st.sampled_from([0.0, 1e-05, 1e16, 180.0]),
    st.floats(0.0, 1e20, allow_nan=False, allow_infinity=False),
)


class TestRecordSerialization:
    def test_json_line_roundtrip(self, population_small):
        config = small_config()
        trainer = SurrogateTrainer()
        record = run_round(fresh_state(trainer), population_small, config, trainer, 0)
        again = RoundRecord.from_json_line(record.to_json_line())
        assert again == record

    @settings(max_examples=200, deadline=None)
    @given(
        ids=st.lists(st.integers(1, MAX_CLIENTS), max_size=40),
        chosen=st.lists(st.integers(1, MAX_CLIENTS), max_size=10),
        layout=st.sampled_from(["tuple", "array", "strided"]),
        times=st.lists(RECORD_TIMES, min_size=3, max_size=3),
        # Ints, and non-finite accuracies that only `from_json_line` rejects.
        accuracy=st.one_of(
            st.sampled_from([0.0, 1.0, 0, 1, math.nan, math.inf, -math.inf]),
            st.floats(0.0, 1.0),
        ),
        round_index=st.integers(0, 10**6),
    )
    @example([], [], "array", [0.0, 0.0, 0.0], 0.0, 0)  # empty
    @example([MAX_CLIENTS], [MAX_CLIENTS], "tuple", [1e-05, 1e16, 0.0], 1.0, 1)  # one id
    @example([1], [], "array", [0.0, 0.0, 0.0], 0, 2)  # an int accuracy
    @example([1], [], "array", [0.0, 0.0, 0.0], math.nan, 3)
    @example([1], [], "array", [0.0, 0.0, 0.0], -math.inf, 4)
    @example(  # a 1000-client cohort up to the largest id
        list(range(MAX_CLIENTS - 999, MAX_CLIENTS + 1)),
        list(range(MAX_CLIENTS - 999, MAX_CLIENTS + 1, 7)),
        "strided",
        [180.0, 97.25, 24000.0],
        0.5,
        133,
    )
    def test_json_line_is_json_dumps_of_the_ids_as_lists(
        self, ids, chosen, layout, times, accuracy, round_index
    ):
        def given_as(values):
            if layout == "tuple":
                return tuple(values)
            if layout == "array":
                return np.array(values, dtype=np.int64)
            return np.repeat(np.array(values, dtype=np.int32), 2)[::2]  # not contiguous

        duration, busy, clock = times
        record = RoundRecord(
            round=round_index,
            requested=given_as(ids),
            selected_or_completed=given_as(chosen),
            realized_round_duration=Seconds(duration),
            busy_time=Seconds(busy),
            clock_after=Seconds(clock),
            accuracy_after=accuracy,
            aggregated_count=len(chosen),
        )
        expected = json.dumps(
            {
                "round": round_index,
                "requested": ids,
                "selected_or_completed": chosen,
                "realized_round_duration": duration,
                "busy_time": busy,
                "clock_after": clock,
                "accuracy_after": accuracy,
                "aggregated_count": len(chosen),
            }
        )
        assert record.to_json_line() == expected
        if math.isfinite(accuracy):
            assert RoundRecord.from_json_line(expected) == record
        else:
            with pytest.raises(ParameterError, match="accuracy_after must be a number in"):
                RoundRecord.from_json_line(expected)

    def test_ids_are_read_only_int64_copies(self):
        strided = np.arange(1, 9, dtype=np.int32)[::2]
        contiguous = np.array([3, 5])
        record = RoundRecord(
            round=0,
            requested=strided,
            selected_or_completed=contiguous,
            realized_round_duration=Seconds(180.0),
            busy_time=Seconds(0.0),
            clock_after=Seconds(180.0),
            accuracy_after=0.0,
            aggregated_count=2,
        )
        empty = dataclasses.replace(record, selected_or_completed=()).selected_or_completed
        for ids in (record.requested, record.selected_or_completed, empty):
            assert ids.dtype == np.int64 and ids.flags.c_contiguous
            assert not ids.flags.writeable
        contiguous[0] = 99  # the caller's array is not the record's
        assert record.selected_or_completed.tolist() == [3, 5]
        assert record == dataclasses.replace(record, requested=[1, 3, 5, 7])
        assert record != dataclasses.replace(record, requested=[1, 3, 5])
        assert record != dataclasses.replace(record, busy_time=Seconds(1.0))
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)


class TestConfigValidation:
    def test_fraction_bounds(self):
        with pytest.raises(ParameterError):
            ProtocolConfig(fraction=0.0)
        with pytest.raises(ParameterError):
            ProtocolConfig(fraction=1.5)

    def test_mode_and_policy_validated(self):
        with pytest.raises(ParameterError):
            ProtocolConfig(mode="centralized")
        with pytest.raises(ParameterError):
            ProtocolConfig(late_policy="retry")
        with pytest.raises(ParameterError):
            FedLimOptions(distribution="broadcast")
        with pytest.raises(ParameterError):
            FedLimOptions(upload_order="fifo")

    def test_population_size_is_bounded(self):
        assert ProtocolConfig(k_total=MAX_CLIENTS).k_total == MAX_CLIENTS
        for k_total in (0, MAX_CLIENTS + 1):
            with pytest.raises(ParameterError):
                ProtocolConfig(k_total=k_total)

    def test_cohort_size_is_ceiling(self):
        # The ceiling of K times the decimal fraction as written: the float
        # products 100 * 0.07, 10 000 * 0.07 and 100 * 0.55 lie just above
        # 7, 700 and 55.
        table = [
            (1000, 0.1, 100),
            (999, 0.1, 100),
            (10, 0.05, 1),
            (100, 0.07, 7),
            (10_000, 0.07, 700),
            (100, 0.55, 55),
            (7, 1.0, 7),
            # repr writes these in exponent form, "1e-05" and "1.5e-05".
            (100_000, 1e-05, 1),
            (MAX_CLIENTS, 1.5e-05, 150),
            (MAX_CLIENTS, 1e-05, 100),
            (99_999, 1e-05, 1),
        ]
        for k_total, fraction, size in table:
            config = ProtocolConfig(k_total=k_total, fraction=fraction)
            assert config.cohort_size == size, (k_total, fraction)

    def test_stop_condition_target_validated(self):
        with pytest.raises(ParameterError):
            StopCondition(t_final=Seconds(10.0), target_accuracy=1.5)
