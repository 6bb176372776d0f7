"""Tests of the benchmark itself: tracing, arithmetic, checks and a smoke run.

Run with: python3 -m pytest bench/tests -q
"""

import pytest

import checks
import run
import sample
from fedcs_sim.config import ExperimentConfig, resolve_config
from fedcs_sim.core import Seconds
from fedcs_sim.protocol import RoundRecord
from spans import Tracer, layer_totals, percentile, tail_percentile

BENCHMARK = run.SPEC


class TestPatching:
    def test_every_wrapper_is_removed_on_exit(self):
        targets = sample.targets(trace=True)
        originals = [vars(t.owner)[t.attr] for t in targets]
        tracer = Tracer()
        with tracer.patched(targets):
            assert all(vars(t.owner)[t.attr] is not o for t, o in zip(targets, originals))
        assert all(vars(t.owner)[t.attr] is o for t, o in zip(targets, originals))

    def test_originals_restored_when_the_body_raises(self):
        targets = sample.targets(trace=False)
        originals = [vars(t.owner)[t.attr] for t in targets]
        with pytest.raises(RuntimeError):
            with Tracer().patched(targets):
                raise RuntimeError("boom")
        assert all(vars(t.owner)[t.attr] is o for t, o in zip(targets, originals))

    def test_wrapped_method_still_binds_self_and_records_a_span(self):
        from fedcs_sim.learning import SurrogateTrainer

        tracer = Tracer()
        target = [t for t in sample.targets(trace=True) if t.owner is SurrogateTrainer]
        with tracer.patched(target):
            assert SurrogateTrainer(a_max=0.5, tau=1.0).evaluate(None) == 0.0
        assert [s[0] for s in tracer.spans] == ["learning.evaluate"]


class TestSelfTime:
    def test_parent_minus_direct_children(self):
        spans = [
            ("root", 0.0, 10.0, -1),
            ("a", 1.0, 4.0, 0),
            ("b", 2.0, 3.0, 1),
            ("a", 5.0, 6.0, 0),
        ]
        totals = layer_totals(spans)
        assert totals["root"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
        assert totals["a"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
        assert totals["b"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}

    def test_nested_wrappers_record_their_parent(self):
        tracer = Tracer()
        inner = tracer.wrap("inner", lambda: None)
        outer = tracer.wrap("outer", lambda: inner())
        outer()
        (first, second) = tracer.spans
        assert first[0] == "outer" and first[3] == -1
        assert second[0] == "inner" and second[3] == 0


class TestTailPercentile:
    @pytest.mark.parametrize("n, expected", [(134, 90.0), (402, 95.0), (1000, 99.0),
                                             (10_000, 99.9), (19, 50.0)])
    def test_highest_percentile_with_ten_beyond(self, n, expected):
        assert tail_percentile(n) == expected

    def test_nearest_rank(self):
        values = list(range(1, 135))
        assert percentile(values, 90.0) == 121
        assert percentile(values, 50.0) == 67
        assert percentile([3.0], 99.9) == 3.0


def _fedlim_config():
    return ExperimentConfig(resolve_config({"protocol": {"mode": "fedlim", "k_total": 20}}))


def _record(i, requested, chosen, clock, busy=10.0):
    return RoundRecord(
        round=i,
        requested=requested,
        selected_or_completed=chosen,
        realized_round_duration=Seconds(180.0),
        busy_time=Seconds(busy),
        clock_after=Seconds(clock),
        accuracy_after=0.0,
        aggregated_count=len(chosen),
    )


class TestChecks:
    def test_valid_fedlim_rounds_pass(self):
        records = [_record(0, (1, 2), (2,), 180.0), _record(1, (3, 4), (), 360.0)]
        assert checks.check_run(records, _fedlim_config(), seed=0) == []

    @pytest.mark.parametrize(
        "bad",
        [
            _record(1, (3, 4), (3,), 180.0),  # clock does not increase
            _record(1, (3, 4, 5), (3,), 360.0),  # cohort size
            _record(1, (3, 4), (3, 3), 360.0),  # repeated id
            _record(1, (3, 4), (9,), 360.0),  # id outside the cohort
            _record(1, (3, 4), (3,), 361.0),  # fedlim advance is not T_round
            _record(1, (3, 4), (3,), 360.0, busy=181.0),  # fedlim busy past T_round
        ],
    )
    def test_each_violation_is_reported(self, bad):
        records = [_record(0, (1, 2), (2,), 180.0), bad]
        assert checks.check_run(records, _fedlim_config(), seed=0)

    def test_digest_ignores_the_provenance_header(self, tmp_path):
        for name, header in (("a", '{"config_hash": "1"}'), ("b", '{"config_hash": "2"}')):
            (tmp_path / name).mkdir()
            (tmp_path / name / "records-x_seed0.jsonl").write_text(header + '\n{"round": 0}\n')
        assert checks.records_digest(tmp_path / "a") == checks.records_digest(tmp_path / "b")


TINY = {
    "fedcs": run.Workload(
        {"protocol": {"k_total": 50}, "budget": {"t_final_s": 1800.0},
         "trainer": {"surrogate": {"tau": 1.0}}},
        seeds=2,
        toa_threshold=0.85,
    ),
    "native": run.Workload(
        {"protocol": {"k_total": 50}, "budget": {"t_final_s": 900.0},
         "trainer": {"kind": "native", "native": {"train_samples": 300, "test_samples": 100}}},
        seeds=1,
        toa_threshold=0.5,
    ),
    "fedlim": run.Workload(
        {"protocol": {"mode": "fedlim", "k_total": 200, "fraction": 0.05},
         "budget": {"t_final_s": 1800.0}, "fluctuation": {"r": 0.1},
         "trainer": {"surrogate": {"tau": 1.0}}},
        seeds=1,
        toa_threshold=0.85,
    ),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_smoke_run_reports_every_metric(name, tmp_path):
    report = run.measure(name, TINY[name], seed=1, seconds=0, trace=True, work_dir=tmp_path)
    assert report["problems"] == []
    assert report["failed"] == 0 and report["attempted"] == 2 * TINY[name].seeds
    assert report["samples"] == {"untraced": 1, "traced": 1}
    assert list(report["end_to_end"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert list(report["per_layer"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert report["records_sha256"] is not None


def test_every_declared_workload_exists():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
