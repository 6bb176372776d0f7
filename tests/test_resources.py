import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from fedcs_sim.channel import THERMAL_NOISE_DBM_PER_HZ, CellConfig, place_clients
from fedcs_sim.core import (
    Megabits,
    ModelError,
    ParameterError,
    RngStream,
    Seconds,
)
from fedcs_sim.resources import (
    MAX_CLIENTS,
    MAX_DATA_COUNT,
    RELATIVE_CLAMP_FLOOR,
    ClientProfile,
    FluctuationConfig,
    Population,
    ResourceRanges,
    TimeBudget,
    estimated_update_time,
    estimated_upload_time,
    generate_profiles,
    realized_times,
)
from fedcs_sim.selection import CandidateSet


def make_profile(data_count=500, capability=50.0, throughput=1.4, cid=1):
    return ClientProfile(
        id=cid, data_count=data_count, mean_capability=capability, mean_throughput=throughput
    )


def data_count_error(bad):
    """The whole message that rejects `bad` as client 2's data count."""
    message = f"client 2 needs an integer data count in [1, {MAX_DATA_COUNT}], got {float(bad)!r}"
    return re.escape(message) + "$"


def placed(count, cell, seed):
    """The (distance, shadow) columns that `generate_profiles` draws for this seed."""
    return place_clients(count, cell, RngStream(seed).child("placement").generator())


@pytest.fixture
def budget():
    return TimeBudget()


# ---------------------------------------------------------------------------
# References: the per-client code that the columns replaced, kept verbatim
# but for the position object, which became a (distance, shadow) pair.
# ---------------------------------------------------------------------------


def reference_place_clients(count, cell, rng):
    distances = cell.radius_m * np.sqrt(1.0 - rng.random(count))
    if cell.shadow_sigma_db > 0:
        shadows = rng.normal(0.0, cell.shadow_sigma_db, count)
    else:
        shadows = np.zeros(count)
    return [(float(d), float(s)) for d, s in zip(distances, shadows)]


def reference_path_loss_db(pos, cell):
    distance_m, shadow_db = pos
    d = max(distance_m, cell.min_distance_m)
    return 36.7 * math.log10(d) + 22.7 + 26.0 * math.log10(cell.carrier_freq_ghz) + shadow_db


def reference_mean_throughput(pos, cell):
    noise_dbm = (
        THERMAL_NOISE_DBM_PER_HZ
        + 10.0 * math.log10(cell.rb_bandwidth_total_hz)
        + cell.noise_figure_db
    )
    snr_db = (
        cell.tx_power_dbm + cell.antenna_gain_dbi - reference_path_loss_db(pos, cell) - noise_dbm
    )
    snr = 10.0 ** (snr_db / 10.0)
    efficiency = min(cell.rho_max_bps_hz, math.log2(1.0 + snr / cell.delta_loss))
    return cell.rb_bandwidth_total_hz * efficiency / 1e6


def reference_generate_profiles(count, cell, ranges, rng):
    """Rows (id, data_count, capability, throughput, distance, shadow)."""
    positions = reference_place_clients(count, cell, rng.child("placement").generator())
    res = rng.child("resources").generator()
    lo, hi = ranges.data_count
    data_counts = res.integers(lo, hi + 1, size=count)
    clo, chi = ranges.capability
    capabilities = res.uniform(clo, chi, size=count)
    return [
        (
            i + 1,
            int(data_counts[i]),
            float(capabilities[i]),
            reference_mean_throughput(positions[i], cell),
            *positions[i],
        )
        for i in range(count)
    ]


def reference_gaussian_truncated(mean, rel_std, floor, rng):
    mean = float(mean)
    if rel_std == 0.0:
        return mean
    sample = float(rng.normal(mean, rel_std * mean))
    return max(sample, max(floor, RELATIVE_CLAMP_FLOOR * mean))


def reference_realized_times(profile, budget, fluct, rng):
    capability = reference_gaussian_truncated(profile.mean_capability, fluct.r, 0.0, rng)
    throughput = reference_gaussian_truncated(profile.mean_throughput, fluct.r, 0.0, rng)
    update = Seconds(budget.epochs_per_round * profile.data_count / capability)
    upload = Seconds(budget.model_size / throughput)
    return update, upload


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
        with pytest.raises(ParameterError):
            TimeBudget(epochs_per_round=1001)


class TestGenerateProfiles:
    def test_default_ranges_respected(self):
        population = generate_profiles(1000, CellConfig(), ResourceRanges(), RngStream(0))
        assert len(population) == 1000
        assert [p.id for p in population] == list(range(1, 1001))
        assert population.data_count.dtype == np.int64
        assert ((100 <= population.data_count) & (population.data_count <= 1000)).all()
        assert ((10.0 <= population.capability) & (population.capability <= 100.0)).all()
        assert ((0.0 < population.throughput) & (population.throughput <= 8.64 + 1e-12)).all()

    def test_degenerate_range_collapses(self):
        ranges = ResourceRanges(data_count=(500, 500))
        population = generate_profiles(1000, CellConfig(), ranges, RngStream(1))
        assert (population.data_count == 500).all()

    def test_mean_data_count_near_midpoint(self):
        population = generate_profiles(10**4, CellConfig(), ResourceRanges(), RngStream(2))
        assert abs(population.data_count.mean() - 550.0) <= 10.0

    def test_deterministic_under_seed(self):
        a = generate_profiles(50, CellConfig(), ResourceRanges(), RngStream(3))
        b = generate_profiles(50, CellConfig(), ResourceRanges(), RngStream(3))
        assert list(a) == list(b)
        for name in ("data_count", "capability", "throughput"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
        cell = CellConfig()
        rows = reference_generate_profiles(50, cell, ResourceRanges(), RngStream(3))
        for got, expected in zip(placed(50, cell, 3), list(zip(*rows))[4:]):
            assert got.tobytes() == np.array(expected).tobytes()

    def test_building_peaks_under_one_and_a_quarter_times_the_columns(self):
        cell, ranges = CellConfig(), ResourceRanges()
        generate_profiles(10, cell, ranges, RngStream(3))  # numpy.random's lazy imports
        tracemalloc.start()
        try:
            population = generate_profiles(100_000, cell, ranges, RngStream(3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        columns = (population.data_count, population.capability, population.throughput)
        assert peak <= 1.25 * sum(c.nbytes for c in columns)

    def test_count_is_bounded(self):
        for count in (0, MAX_CLIENTS + 1):
            with pytest.raises(ParameterError):
                generate_profiles(count, CellConfig(), ResourceRanges(), RngStream(0))

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ParameterError):
            ResourceRanges(data_count=(0, 100))
        with pytest.raises(ParameterError):
            ResourceRanges(data_count=(100, 10**6 + 1))
        with pytest.raises(ParameterError):
            ResourceRanges(capability=(10.0, 5.0))


def assert_throughput_matches(got, expected, cell):
    """numpy's log10, power and log2 may round differently from `math` and
    `**` in the last bits, so throughput is equal to the scalar reference to
    1e-12 (the measured worst case is 4.4e-14), and exactly equal to the cap
    wherever the reference efficiency reaches rho_max."""
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.dtype == expected.dtype == np.float64
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)
    capped = expected == cell.rb_bandwidth_total_hz * cell.rho_max_bps_hz / 1e6
    assert capped.any()
    assert got[capped].tobytes() == expected[capped].tobytes()


class TestColumnsEqualTheScalarReference:
    """The population columns equal the per-client code they replaced: bit for
    bit, except throughput, which is a numpy ufunc result (see above)."""

    @pytest.mark.parametrize(
        "cell",
        [
            CellConfig(),
            CellConfig(shadow_sigma_db=0.0),
            # Clients within 600 m (9% of the disk) sit at the clamped distance.
            CellConfig(min_distance_m=600.0),
        ],
        ids=["default", "no-shadowing", "binding-min-distance"],
    )
    def test_at_one_hundred_thousand_clients(self, cell):
        count = 10**5
        population = generate_profiles(count, cell, ResourceRanges(), RngStream(11))
        rows = reference_generate_profiles(count, cell, ResourceRanges(), RngStream(11))
        ids, *columns = [np.array(column) for column in zip(*rows)]
        # Row i holds client i + 1.
        assert ids.tolist() == list(range(1, count + 1))
        distance, shadow = placed(count, cell, 11)
        names = ("data_count", "capability", "throughput", "distance", "shadow")
        got = [getattr(population, name) for name in names[:3]] + [distance, shadow]
        for name, actual, expected in zip(names, got, columns):
            if name == "throughput":
                assert_throughput_matches(actual, expected, cell)
                continue
            assert actual.dtype == expected.dtype, name
            assert actual.tobytes() == expected.tobytes(), name
        if cell.min_distance_m > 10.0:
            assert (distance < cell.min_distance_m).sum() > count // 20

    def test_rows_carry_the_column_values(self):
        cell = CellConfig()
        population = generate_profiles(30, cell, ResourceRanges(), RngStream(4))
        rows = reference_generate_profiles(30, cell, ResourceRanges(), RngStream(4))
        got = list(population)
        assert [p.id for p in got] == [row[0] for row in rows]
        assert [p.data_count for p in got] == [row[1] for row in rows]
        assert [p.mean_capability for p in got] == [row[2] for row in rows]
        assert_throughput_matches(
            [p.mean_throughput for p in got], [row[3] for row in rows], cell
        )


class TestPopulation:
    def test_columns_are_read_only(self):
        population = Population([100, 200], [10.0, 20.0], [1.0, 2.0])
        fields = [f.name for f in dataclasses.fields(population)]
        assert fields == ["data_count", "capability", "throughput"]
        assert len(population) == 2
        assert [p.id for p in population] == [1, 2]
        with pytest.raises(ValueError):
            population.throughput[0] = 5.0

    def test_rejects_zero_throughput(self):
        with pytest.raises(ModelError, match="client 2"):
            Population([100, 200, 300], [10.0, 20.0, 30.0], [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -1.0, 0.0])
    @pytest.mark.parametrize("column", ["capability", "throughput"])
    def test_rejects_a_rate_that_is_not_finite_and_positive(self, column, bad):
        rates = {"capability": [10.0, 20.0, 30.0], "throughput": [1.0, 2.0, 3.0]}
        rates[column][1] = rates[column][2] = bad
        with pytest.raises(ModelError, match="client 2 needs finite positive mean capability"):
            Population([100, 200, 300], rates["capability"], rates["throughput"])

    @pytest.mark.parametrize(
        "bad",
        [2.5, -5, math.nan, 0, MAX_DATA_COUNT + 1, math.inf]
        # Integers past int64, which numpy reads as an object or a float64
        # column, and floats.
        + [10**30, 2**63, np.uint64(2**63), 1e300, -0.0],
    )
    def test_rejects_a_data_count_that_is_not_a_whole_number_in_range(self, bad):
        with pytest.raises(ModelError, match=data_count_error(bad)):
            Population([100, bad, 300], [10.0, 20.0, 30.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [2**63, 2**64 - 1])
    def test_rejects_a_uint64_data_count_past_int64(self, bad):
        counts = np.array([100, bad, 300], dtype=np.uint64)
        with pytest.raises(ModelError, match=data_count_error(bad)):
            Population(counts, [10.0, 20.0, 30.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize(
        "counts, stored",
        [
            ([100.0, float(MAX_DATA_COUNT)], [100, MAX_DATA_COUNT]),
            ([True, True], [1, 1]),
            (np.array([7, MAX_DATA_COUNT], dtype=np.int32), [7, MAX_DATA_COUNT]),
            (np.array([100, 200]), [100, 200]),
        ],
        ids=["whole-floats", "bools", "int32", "int64"],
    )
    def test_whole_float_data_counts_are_stored_as_int64(self, counts, stored):
        given = [np.asarray(counts), np.array([10.0, 20.0]), np.array([1.0, 2.0])]
        population = Population(*given)
        assert population.data_count.dtype == np.int64
        assert population.data_count.tolist() == stored
        # Each column is a copy: the caller's arrays stay its own, and writeable.
        columns = (population.data_count, population.capability, population.throughput)
        for column, array in zip(columns, given):
            assert not np.shares_memory(column, array)
            assert array.flags.writeable

    def test_rejects_columns_of_unequal_length(self):
        with pytest.raises(ParameterError):
            Population([100, 200], [10.0], [1.0, 2.0])

    def test_fresh_columns_are_kept_without_a_copy(self):
        given = [np.array([100, 200]), np.array([10.0, 20.0]), np.array([1.0, 2.0])]
        population = Population._of_fresh(*given)
        columns = (population.data_count, population.capability, population.throughput)
        for column, array in zip(columns, given):
            assert column is array
            assert not column.flags.writeable

    @pytest.mark.parametrize(
        "columns",
        [
            ([100, 0, 300], [10.0, 20.0, 30.0], [1.0, 2.0, 3.0]),
            ([100, MAX_DATA_COUNT + 1, 300], [10.0, 20.0, 30.0], [1.0, 2.0, 3.0]),
            ([100, 200, 300], [10.0, math.nan, 30.0], [1.0, 2.0, 3.0]),
            ([100, 200, 300], [10.0, 20.0, 30.0], [1.0, 0.0, 3.0]),
            ([100, 200], [10.0], [1.0, 2.0]),
        ],
        ids=["zero-count", "count-past-max", "nan-capability", "zero-throughput", "unequal"],
    )
    def test_fresh_columns_get_the_constructors_checks(self, columns):
        with pytest.raises((ModelError, ParameterError)) as public:
            Population(*columns)
        fresh = (np.array(columns[0]), *(np.array(c, dtype=np.float64) for c in columns[1:]))
        with pytest.raises(type(public.value), match=re.escape(str(public.value))):
            Population._of_fresh(*fresh)


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

    def test_columns_equal_the_row_estimates(self, budget):
        population = generate_profiles(500, CellConfig(), ResourceRanges(), RngStream(5))
        columns = CandidateSet.estimated(population, budget)
        rows = list(population)
        for column, scalar in (
            (columns.t_update, estimated_update_time),
            (columns.t_upload, estimated_upload_time),
        ):
            assert column.tobytes() == np.array([float(scalar(p, budget)) for p in rows]).tobytes()


class TestRealizedTimes:
    @pytest.mark.parametrize("r", [0.0, 0.1, 3.0])
    def test_equal_to_one_scalar_draw_per_client(self, budget, r):
        population = generate_profiles(1000, CellConfig(), ResourceRanges(), RngStream(6))
        rows = list(population)
        positions = RngStream(6, "cohort").generator().choice(1000, size=300, replace=False)
        fluct = FluctuationConfig(r)
        rng, reference_rng = (RngStream(6, "fluct").generator() for _ in range(2))
        update, upload = realized_times(population, positions, budget, fluct, rng)
        expected = [
            reference_realized_times(rows[i], budget, fluct, reference_rng)
            for i in positions.tolist()
        ]
        assert update.tolist() == [float(u) for u, _ in expected]
        assert upload.tolist() == [float(u) for _, u in expected]
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        if r == 3.0:
            # The clamp at 1% of the mean binds on some clients.
            floor = float(budget.model_size) / (RELATIVE_CLAMP_FLOOR * population.throughput)
            assert (upload == floor[positions]).sum() > 0

    def test_zero_fluctuation_reproduces_estimates_and_draws_nothing(self, budget):
        population = generate_profiles(200, CellConfig(), ResourceRanges(), RngStream(0))
        columns = CandidateSet.estimated(population, budget)
        positions = np.arange(200)[::-1]
        rng = RngStream(0, "fluct").generator()
        update, upload = realized_times(population, positions, budget, FluctuationConfig(), rng)
        assert update.tobytes() == columns.t_update[positions].tobytes()
        assert upload.tobytes() == columns.t_upload[positions].tobytes()
        assert rng.random() == RngStream(0, "fluct").generator().random()

    def test_upload_std_tracks_first_order_prediction(self, budget):
        # Delta method: std(model_size / theta') is about r * estimate.
        population = Population([500], [50.0], [1.4])
        rng = RngStream(7, "fluct").generator()
        positions = np.zeros(10**4, dtype=np.int64)
        _, uploads = realized_times(population, positions, budget, FluctuationConfig(0.1), rng)
        predicted = 0.10 * float(budget.model_size) / 1.4
        assert abs(uploads.std(ddof=1) - predicted) / predicted <= 0.15

    def test_sampled_rate_std_matches_relative_spec(self, budget):
        # Monte-Carlo estimate of the sampled capability's std at mean 100, r = 0.1.
        population = Population([100], [100.0], [1.0])
        rng = RngStream(123, "mc").generator()
        positions = np.zeros(10**5, dtype=np.int64)
        update, _ = realized_times(population, positions, budget, FluctuationConfig(0.1), rng)
        capability = budget.epochs_per_round * 100 / update
        assert 9.5 <= capability.std(ddof=1) <= 10.5

    def test_relative_clamp_keeps_rates_positive(self, budget):
        population = Population([500], [50.0], [1.4])
        rng = RngStream(10, "clamp").generator()
        positions = np.zeros(2000, dtype=np.int64)
        update, upload = realized_times(population, positions, budget, FluctuationConfig(5.0), rng)
        assert update.max() <= budget.epochs_per_round * 500 / (RELATIVE_CLAMP_FLOOR * 50.0)
        assert upload.max() <= float(budget.model_size) / (RELATIVE_CLAMP_FLOOR * 1.4)
        assert (update > 0.0).all() and (upload > 0.0).all()

    @pytest.mark.parametrize("r", [-0.1, math.inf, math.nan])
    def test_invalid_spread_rejected(self, r):
        with pytest.raises(ParameterError):
            FluctuationConfig(r)
