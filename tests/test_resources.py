import csv

import numpy as np
import pytest

from fedcs_sim.channel import CellConfig, ClientPosition
from fedcs_sim.core import (
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
from fedcs_sim.resources import (
    ClientProfile,
    EstimateColumns,
    FluctuationConfig,
    ResourceRanges,
    TimeBudget,
    estimated_update_time,
    estimated_upload_time,
    generate_profiles,
    profiles_to_csv,
    realized_times,
)


def make_profile(data_count=500, capability=50.0, throughput=1.4, cid=1):
    return ClientProfile(
        id=ClientId(cid),
        data_count=Samples(data_count),
        mean_capability=SamplesPerSecond(capability),
        mean_throughput=MegabitsPerSecond(throughput),
        position=ClientPosition(1000.0),
    )


@pytest.fixture
def budget():
    return TimeBudget()


class TestTimeBudget:
    def test_defaults_are_consistent(self, budget):
        assert float(budget.t_round) == 180.0
        assert float(budget.model_size) == pytest.approx(146.4)
        assert budget.epochs_per_round == 5

    def test_invariants(self):
        with pytest.raises(ParameterError):
            TimeBudget(t_round=Seconds(10.0), t_cs=Seconds(6.0), t_agg=Seconds(5.0))
        with pytest.raises(ParameterError):
            TimeBudget(model_size=Megabits(0.0))
        with pytest.raises(ParameterError):
            TimeBudget(epochs_per_round=0)


class TestGenerateProfiles:
    def test_default_ranges_respected(self):
        profiles = generate_profiles(1000, CellConfig(), ResourceRanges(), RngStream(0))
        assert len(profiles) == 1000
        assert [int(p.id) for p in profiles] == list(range(1, 1001))
        for p in profiles:
            assert 100 <= p.data_count <= 1000
            assert 10.0 <= p.mean_capability <= 100.0
            assert 0.0 < p.mean_throughput <= 8.64 + 1e-12

    def test_degenerate_range_collapses(self):
        ranges = ResourceRanges(data_count=(500, 500))
        profiles = generate_profiles(1000, CellConfig(), ranges, RngStream(1))
        assert all(p.data_count == 500 for p in profiles)

    def test_mean_data_count_near_midpoint(self):
        profiles = generate_profiles(10**4, CellConfig(), ResourceRanges(), RngStream(2))
        mean = np.mean([int(p.data_count) for p in profiles])
        assert abs(mean - 550.0) <= 10.0

    def test_deterministic_under_seed(self):
        a = generate_profiles(50, CellConfig(), ResourceRanges(), RngStream(3))
        b = generate_profiles(50, CellConfig(), ResourceRanges(), RngStream(3))
        assert a == b

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ParameterError):
            ResourceRanges(data_count=(0, 100))
        with pytest.raises(ParameterError):
            ResourceRanges(capability=(10.0, 5.0))


class TestEstimatedTimes:
    def test_update_time_fastest_corner(self, budget):
        assert float(estimated_update_time(make_profile(100, 100.0), budget)) == 5.0

    def test_update_time_slowest_corner(self, budget):
        assert float(estimated_update_time(make_profile(1000, 10.0), budget)) == 500.0

    def test_update_time_midpoint(self, budget):
        assert float(estimated_update_time(make_profile(500, 50.0), budget)) == 50.0

    def test_update_time_spans_default_ranges(self, budget):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            n = int(rng.integers(100, 1001))
            c = float(rng.uniform(10.0, 100.0))
            t = float(estimated_update_time(make_profile(n, c), budget))
            assert 5.0 <= t <= 500.0

    def test_upload_time_at_cap(self, budget):
        t = float(estimated_upload_time(make_profile(throughput=8.64), budget))
        assert t == pytest.approx(146.4 / 8.64)

    def test_upload_time_at_mean(self, budget):
        t = float(estimated_upload_time(make_profile(throughput=1.4), budget))
        assert t == pytest.approx(146.4 / 1.4)

    def test_zero_payload_uploads_instantly(self):
        budget = TimeBudget(model_size=Megabits(1e-12))
        t = float(estimated_upload_time(make_profile(throughput=1.4), budget))
        assert t == pytest.approx(0.0, abs=1e-11)

    def test_columns_reject_zero_throughput(self, budget):
        profiles = [make_profile(cid=1), make_profile(throughput=0.0, cid=2)]
        with pytest.raises(ModelError, match="client 2"):
            EstimateColumns.of(profiles, budget)


class TestRealizedTimes:
    def test_zero_fluctuation_reproduces_estimates_exactly(self, budget):
        rng = RngStream(0, "fluct").generator()
        for cid in range(1, 40):
            p = make_profile(100 + cid * 7, 10.0 + cid, 0.2 + 0.2 * cid, cid)
            update, upload = realized_times(p, budget, FluctuationConfig(0.0), rng)
            assert float(update) == float(estimated_update_time(p, budget))
            assert float(upload) == float(estimated_upload_time(p, budget))

    def test_upload_std_tracks_first_order_prediction(self, budget):
        # Delta method: std(model_size / theta') is about r * estimate.
        p = make_profile(throughput=1.4)
        fluct = FluctuationConfig(0.10)
        rng = RngStream(7, "fluct").generator()
        uploads = np.array(
            [float(realized_times(p, budget, fluct, rng)[1]) for _ in range(10**4)]
        )
        predicted = 0.10 * float(estimated_upload_time(p, budget))
        assert abs(uploads.std(ddof=1) - predicted) / predicted <= 0.15

    def test_large_fluctuation_stays_positive(self, budget):
        p = make_profile()
        fluct = FluctuationConfig(0.20)
        rng = RngStream(8, "fluct").generator()
        for _ in range(2000):
            update, upload = realized_times(p, budget, fluct, rng)
            assert float(update) > 0.0
            assert float(upload) > 0.0


class TestCsvExport:
    def test_snapshot_roundtrip(self, tmp_path):
        profiles = generate_profiles(20, CellConfig(), ResourceRanges(), RngStream(4))
        path = tmp_path / "profiles.csv"
        profiles_to_csv(profiles, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["id", "data_count", "capability_sps", "throughput_mbps", "distance_m"]
        assert len(rows) == 21
        for row, p in zip(rows[1:], profiles):
            assert int(row[0]) == int(p.id)
            assert int(row[1]) == int(p.data_count)
            assert float(row[2]) == float(p.mean_capability)
            assert float(row[3]) == float(p.mean_throughput)
            assert float(row[4]) == float(p.position.distance_m)
