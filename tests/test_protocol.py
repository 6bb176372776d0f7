import numpy as np
import pytest

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
    ExperimentState,
    FedLimOptions,
    ProtocolConfig,
    RoundRecord,
    StopCondition,
    run_experiment,
    run_round,
)
from fedcs_sim.resources import (
    MAX_CLIENTS,
    FluctuationConfig,
    ResourceRanges,
    TimeBudget,
    estimated_update_time,
    estimated_upload_time,
    generate_profiles,
)
from fedcs_sim.selection import Candidate, CandidateSet, dist_time, greedy_select
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


class IdRecordingTrainer(SurrogateTrainer):
    """A surrogate trainer that keeps the ids of every client_updates call."""

    def client_updates(self, model, client_ids, rng):
        self.trained.append([int(cid) for cid in client_ids])
        return super().client_updates(model, client_ids, rng)


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

    def test_discard_aggregates_the_on_time_prefix_of_the_schedule(self, population_small):
        config = small_config(fluct=FluctuationConfig(0.3), late_policy="discard")
        trainer = IdRecordingTrainer()
        state = fresh_state(trainer)
        dropped = 0
        for idx in range(20):
            trainer.trained = []
            record = run_round(state, population_small, config, trainer, idx)
            prefix = record.selected_or_completed[: record.aggregated_count]
            assert trainer.trained == ([list(prefix)] if prefix else [])
            dropped += len(record.selected_or_completed) - record.aggregated_count
        assert dropped > 0

    def test_requested_cohort_is_unique_and_sized(self, population_small):
        config = small_config()
        trainer = SurrogateTrainer()
        state = fresh_state(trainer)
        seen = []
        for idx in range(5):
            record = run_round(state, population_small, config, trainer, idx)
            assert len(record.requested) == config.cohort_size
            assert len(set(record.requested)) == config.cohort_size
            seen.append(record.requested)
        assert len(set(seen)) > 1  # fresh draw each round


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
                assert record.selected_or_completed == tuple(int(k) for k in expected.order)

            trainer = SurrogateTrainer()
            state = ExperimentState.fresh(trainer, rng)
            run_round(state, population, config, trainer, 0)
            columns = state.estimates
            assert columns.ids.tolist() == [int(p.id) for p in profiles]
            for column, scalar in (
                (columns.t_update, estimated_update_time),
                (columns.t_upload, estimated_upload_time),
            ):
                expected = np.array([float(scalar(p, budget)) for p in profiles])
                assert column.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "t_round, t_cs, t_agg",
        [(60.0, 0.0, 0.0), (180.0, 0.0, 0.0), (600.0, 0.0, 0.0), (180.0, 2.5, 1.5)],
    )
    def test_rounds_match_reference_greedy_across_budgets(self, t_round, t_cs, t_agg):
        # The engine plans only the schedulable members of each cohort; the
        # reference plans the whole cohort.
        budget = TimeBudget(t_round=Seconds(t_round), t_cs=Seconds(t_cs), t_agg=Seconds(t_agg))
        config = ProtocolConfig(budget=budget)
        stop = StopCondition(t_final=Seconds(12 * t_round))
        rng = RngStream(2)
        population = generate_profiles(config.k_total, CellConfig(), ResourceRanges(), rng)
        by_id = {int(p.id): p for p in population}
        records = run_experiment(config, stop, SurrogateTrainer(), population, rng)
        assert len(records) == 12
        assert any(record.selected_or_completed for record in records)
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
            assert record.selected_or_completed == tuple(int(k) for k in expected.order)


class TestDistributionTimeIdentity:
    """The planners take the distribution time as the longest selected
    upload; bench/checks.py re-plans it as model_size over the slowest link.
    Each upload is model_size / throughput, correctly rounded and so monotone
    in the throughput, which makes the two equal to the last bit."""

    @pytest.mark.parametrize("k_total, cohort", [(1000, 100), (100_000, 1000)])
    def test_longest_upload_is_model_size_over_slowest_link(self, k_total, cohort):
        population = generate_profiles(k_total, CellConfig(), ResourceRanges(), RngStream(k_total))
        by_id = {int(p.id): p for p in population}
        rng = np.random.default_rng(k_total)
        scheduled = 0
        for t_round in (60.0, 180.0, 600.0):
            budget = TimeBudget(t_round=Seconds(t_round))
            estimates = CandidateSet.estimated(population, budget)
            for _ in range(40):
                positions = np.sort(rng.choice(k_total, size=cohort, replace=False))
                schedule = greedy_select(estimates.take(positions), budget)
                rows = [
                    Candidate(
                        id=p.id,
                        t_update=estimated_update_time(p, budget),
                        t_upload=estimated_upload_time(p, budget),
                        throughput=p.mean_throughput,
                    )
                    for p in (by_id[int(cid)] for cid in schedule.order)
                ]
                uploads = estimates.t_upload[np.array(schedule.order, dtype=np.int64) - 1]
                dist = float(schedule.dist_time)
                assert dist == float(dist_time(rows, budget.model_size))
                assert dist == float(uploads.max(initial=0.0))
                scheduled += len(rows) > 0
        assert scheduled > 100


class TestFedlimRound:
    def test_impossible_deadline_completes_nothing(self, population_small):
        budget = TimeBudget(t_round=Seconds(1.0))
        config = small_config(mode="fedlim", budget=budget)
        trainer = SurrogateTrainer()
        record = run_round(fresh_state(trainer), population_small, config, trainer, 0)
        assert record.selected_or_completed == ()
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

    def client_updates(self, model, client_ids, rng):
        updates = []
        for cid in client_ids:
            idx = self.partition.assignment[cid]
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


class TestRecordSerialization:
    def test_json_line_roundtrip(self, population_small):
        config = small_config()
        trainer = SurrogateTrainer()
        record = run_round(fresh_state(trainer), population_small, config, trainer, 0)
        again = RoundRecord.from_json_line(record.to_json_line())
        assert again == record


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
        assert ProtocolConfig(k_total=1000, fraction=0.1).cohort_size == 100
        assert ProtocolConfig(k_total=999, fraction=0.1).cohort_size == 100
        assert ProtocolConfig(k_total=10, fraction=0.05).cohort_size == 1

    def test_stop_condition_target_validated(self):
        with pytest.raises(ParameterError):
            StopCondition(t_final=Seconds(10.0), target_accuracy=1.5)
