import itertools

import numpy as np
import pytest

from fedcs_sim.core import ParameterError, Seconds
from fedcs_sim.metrics import (
    read_records_jsonl,
    run_stats,
    summarize,
    time_of_arrival,
    write_curve_csv,
    write_records_jsonl,
)
from fedcs_sim.protocol import RoundRecord


def record(round_idx, clock, accuracy, selected):
    ids = tuple(range(1, selected + 1))
    return RoundRecord(
        round=round_idx,
        requested=tuple(range(1, 11)),
        selected_or_completed=ids,
        realized_round_duration=Seconds(180.0),
        busy_time=Seconds(100.0),
        clock_after=Seconds(clock),
        accuracy_after=accuracy,
        aggregated_count=selected,
    )


def run_of(accuracies, clients=None, step=100.0):
    clients = clients or [3] * len(accuracies)
    return [
        record(i, step * (i + 1), acc, c) for i, (acc, c) in enumerate(zip(accuracies, clients))
    ]


class TestTimeOfArrival:
    def test_first_crossing(self):
        records = run_of([0.3, 0.6])
        assert float(time_of_arrival(records, 0.5)) == 200.0

    def test_unreached_threshold_is_absent(self):
        records = run_of([0.2, 0.9])
        assert time_of_arrival(records, 0.99) is None

    def test_zero_threshold_hits_first_record(self):
        records = run_of([0.0, 0.5])
        assert float(time_of_arrival(records, 0.0)) == 100.0

    def test_monotone_in_threshold(self):
        records = run_of([0.1, 0.35, 0.5, 0.8, 0.9])
        arrivals = [time_of_arrival(records, t) for t in (0.1, 0.3, 0.5, 0.7, 0.9)]
        present = [float(a) for a in arrivals if a is not None]
        assert present == sorted(present)


def summarize_runs(runs, thresholds):
    """`summarize` over each run's `run_stats`, as the CLI builds them."""
    return summarize([run_stats(records, thresholds) for records in runs], thresholds)


class TestSummarize:
    def test_identical_runs_have_zero_std(self):
        runs = [run_of([0.2, 0.5, 0.7]) for _ in range(10)]
        summary = summarize_runs(runs, [0.5])
        assert summary["final_accuracy_std"] == 0.0
        assert summary["std_clients_per_round"] == 0.0
        assert summary["toa_mean"]["0.5"] == 200.0

    def test_one_failed_run_blanks_the_aggregate(self):
        good = run_of([0.2, 0.6])
        bad = run_of([0.1, 0.2])
        summary = summarize_runs([good, bad], [0.5])
        assert summary["toa_mean"]["0.5"] == "NaN"
        assert summary["toa_mean_successful"]["0.5"] == 200.0
        assert summary["toa_success_count"]["0.5"] == 1

    def test_two_run_fixture_arithmetic(self):
        a = run_of([0.4, 0.8], clients=[2, 4])
        b = run_of([0.5, 0.9], clients=[6, 8])
        summary = summarize_runs([a, b], [0.45])
        assert summary["final_accuracy_mean"] == pytest.approx((0.8 + 0.9) / 2)
        assert summary["mean_clients_per_round"] == pytest.approx((3.0 + 7.0) / 2)
        assert summary["total_clients_selected_mean"] == pytest.approx((6 + 14) / 2)
        assert summary["rounds_completed_mean"] == 2.0
        assert summary["toa_mean"]["0.45"] == pytest.approx((200.0 + 100.0) / 2)

    def test_permutation_invariant_over_runs(self):
        runs = [run_of([0.1 * i, 0.2 + 0.1 * i]) for i in range(1, 5)]
        reference = summarize_runs(runs, [0.3])
        for perm in itertools.permutations(range(4)):
            shuffled = [runs[i] for i in perm]
            again = summarize_runs(shuffled, [0.3])
            assert again["toa_mean"] == reference["toa_mean"]
            assert again["final_accuracy_mean"] == reference["final_accuracy_mean"]
            assert again["mean_clients_per_round"] == reference["mean_clients_per_round"]
            assert again == reference

    def test_nonempty_round_statistic(self):
        runs = [run_of([0.2, 0.4, 0.6], clients=[0, 4, 6])]
        summary = summarize_runs(runs, [])
        assert summary["mean_clients_per_round"] == pytest.approx(10.0 / 3.0)
        assert summary["mean_clients_per_nonempty_round"] == pytest.approx(5.0)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ParameterError):
            summarize([], [0.5])
        with pytest.raises(ParameterError):
            run_stats([], [0.5])

    def test_serializable_dict_uses_nan_convention(self):
        summary = summarize_runs([run_of([0.1])], [0.9])
        assert summary["toa_mean"]["0.9"] == "NaN"


class TestFileExports:
    def test_records_jsonl_roundtrip(self, tmp_path):
        records = run_of([0.3, 0.6, 0.9])
        path = tmp_path / "records-test.jsonl"
        header = {"config_hash": "abc123", "seed": 7, "run_id": "test"}
        write_records_jsonl(records, path, header)
        loaded_header, loaded = read_records_jsonl(path)
        assert loaded_header == header
        assert loaded == records

    def test_curve_csv_layout(self, tmp_path):
        records = run_of([0.25, 0.75])
        path = tmp_path / "curve-test.csv"
        write_curve_csv(records, path, {"config_hash": "abc123", "seed": 7})
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# config_hash=abc123 seed=7")
        assert lines[1] == "clock_seconds,accuracy,clients_selected"
        first = lines[2].split(",")
        assert float(first[0]) == 100.0
        assert float(first[1]) == 0.25
        assert int(first[2]) == 3
