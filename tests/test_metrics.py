import csv
import io
import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    @pytest.mark.parametrize("content, reason", [(b"", "is empty"), (b"\xff\n", "is not UTF-8")])
    def test_empty_or_undecodable_records_file_is_rejected_naming_it(
        self, tmp_path, content, reason
    ):
        path = tmp_path / "records-bad.jsonl"
        path.write_bytes(content)
        with pytest.raises(ParameterError, match=rf"records file {re.escape(str(path))} {reason}"):
            read_records_jsonl(path)

    @pytest.mark.parametrize(
        "lines, number, reason",
        [
            (["not json"], 1, "Expecting value"),
            (["[1, 2]"], 1, "not a JSON object"),
            (["{}", "{\"round\": 0", "{}"], 2, "Expecting"),
            (["{}", "{}"], 2, "no field 'round'"),
            (["{}", "7"], 2, "not subscriptable"),
        ],
    )
    def test_bad_line_is_rejected_naming_the_file_and_line(self, tmp_path, lines, number, reason):
        path = tmp_path / "records-bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParameterError, match=rf"{re.escape(str(path))}, line {number}: .*{reason}"):
            read_records_jsonl(path)

    @pytest.mark.parametrize(
        "field, value, reason",
        [
            ("busy_time", None, "no field 'busy_time'"),
            ("busy_time", -1.0, "Seconds must be finite and non-negative"),
            ("busy_time", "180", "busy_time must be a number, got '180'"),
            ("clock_after", True, "clock_after must be a number, got True"),
            ("round", -1.5, "round must be a non-negative integer, got -1.5"),
            ("round", True, "round must be a non-negative integer, got True"),
            ("aggregated_count", "x", "aggregated_count must be a non-negative integer, got 'x'"),
            ("requested", "abc", "requested must be a list of positive integers"),
            ("requested", [0, 2], "requested must be a list of positive integers"),
            (
                "selected_or_completed",
                [1.5, None],
                "selected_or_completed must be a list of positive integers",
            ),
            ("requested", [2**63], "requested must be a list of positive integers no larger than"),
            (
                "selected_or_completed",
                [10**30],
                "selected_or_completed must be a list of positive integers no larger than",
            ),
            ("accuracy_after", "high", "accuracy_after must be a number in [0, 1], got 'high'"),
            ("accuracy_after", 1.5, "accuracy_after must be a number in [0, 1], got 1.5"),
        ],
    )
    def test_bad_round_field_is_rejected_naming_the_line(self, tmp_path, field, value, reason):
        # A value of None deletes the field.
        path = tmp_path / "records-test.jsonl"
        write_records_jsonl(run_of([0.3, 0.6]), path, {"seed": 7})
        header, first, second = path.read_text().splitlines()
        raw = json.loads(second)
        if value is None:
            del raw[field]
        else:
            raw[field] = value
        path.write_text("\n".join([header, first, json.dumps(raw)]) + "\n")
        with pytest.raises(ParameterError, match=rf"line 3: {re.escape(reason)}"):
            read_records_jsonl(path)

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.one_of(st.sampled_from([0.0, 1e-05, 1e16]), st.floats(0.0, 1e20)),
                st.one_of(st.sampled_from([0.0, 1e-05, 1e16, math.nan, 1]), st.floats()),
                st.integers(0, 12),
            ),
            max_size=20,
        )
    )
    def test_curve_csv_is_what_csv_writer_writes(self, tmp_path_factory, rows):
        records = [record(i, *row) for i, row in enumerate(rows)]
        header = {"seed": 7, "config_hash": "abc123"}
        path = tmp_path_factory.mktemp("curve") / "curve.csv"
        write_curve_csv(records, path, header)
        expected = io.StringIO()
        expected.write("# config_hash=abc123 seed=7\n")
        writer = csv.writer(expected)
        writer.writerow(["clock_seconds", "accuracy", "clients_selected"])
        for clock, accuracy, selected in rows:
            writer.writerow([repr(float(clock)), repr(float(accuracy)), selected])
        assert path.read_bytes() == expected.getvalue().encode()

    def test_records_are_written_one_line_at_a_time(self, tmp_path):
        # 134 rounds of a 1000-client cohort among 100 000 clients: joined
        # into one string, they would take about 1 MB at once.
        rng = np.random.default_rng(0)
        records = []
        for i in range(134):
            ids = np.sort(rng.choice(100_000, 1000, replace=False)) + 1
            seconds = (Seconds(180.0), Seconds(150.0), Seconds(180.0 * (i + 1)))
            records.append(RoundRecord(i, ids, ids[:100], *seconds, 0.5, 100))
        write_records_jsonl(records[:1], tmp_path / "warm-up.jsonl", {"seed": 0})
        path = tmp_path / "records.jsonl"
        tracemalloc.start()
        try:
            write_records_jsonl(records, path, {"seed": 0})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 10**6
        assert peak < 64 * 1024

    @pytest.mark.parametrize("existing", [None, b"earlier records\n"], ids=["new", "existing"])
    def test_a_record_that_fails_midway_leaves_the_target_as_it_was(self, tmp_path, existing):
        class Unwritable:
            def to_json_line(self):
                raise RuntimeError("cannot encode")

        path = tmp_path / "records.jsonl"
        if existing is not None:
            path.write_bytes(existing)
        records = [*run_of([0.3, 0.6]), Unwritable(), *run_of([0.9])]
        with pytest.raises(RuntimeError, match="cannot encode"):
            write_records_jsonl(records, path, {"seed": 7})
        assert list(tmp_path.iterdir()) == ([] if existing is None else [path])
        if existing is not None:
            assert path.read_bytes() == existing

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
