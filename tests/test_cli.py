import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import fedcs_sim
from fedcs_sim import cli
from fedcs_sim.cli import _execute_descriptor, main
from fedcs_sim.config import ExperimentConfig, config_hash, resolve_config, run_descriptors
from fedcs_sim.metrics import RunStats, read_records_jsonl, run_stats, summarize

SMALL = {
    "protocol": {"k_total": 60},
    "budget": {"t_final_s": 1800.0},
    "seeds": [0, 1],
    "sweep": {"mode": ["fedcs", "fedlim"]},
}

# fedlim under fluctuation: every round draws realized times for its cohort.
FEDLIM_R = {
    "protocol": {"mode": "fedlim", "k_total": 200},
    "fluctuation": {"r": 0.1},
    "budget": {"t_final_s": 1800.0},
    "seeds": [0, 1],
}


class TestProvenanceHash:
    def test_two_output_directories_give_identical_files(self, tmp_path, capsys):
        config = tmp_path / "small.json"
        config.write_text(json.dumps(SMALL))
        outs = [tmp_path / "o1", tmp_path / "nested" / "o2"]
        for out in outs:
            assert main(["run", str(config), "--out", str(out)]) == 0
        names = sorted(p.name for p in outs[0].iterdir())
        assert len(names) == 9  # records and curve per run, plus summary.json
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_hash_covers_the_experiment_but_not_outputs_or_seeds(self):
        base = resolve_config({})
        moved = resolve_config({"output_dir": "elsewhere", "seeds": [7]})
        changed = resolve_config({"budget": {"t_round_s": 200.0}})
        assert config_hash(moved) == config_hash(base)
        assert config_hash(changed) != config_hash(base)


def write_config(directory, config):
    path = directory / "config.json"
    path.write_text(json.dumps(config))
    return path


def directory_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestCommands:
    def test_serial_and_parallel_runs_write_identical_files(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL)
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert main(["run", str(config), "--out", str(serial)]) == 0
        assert main(["run", str(config), "--out", str(parallel), "--parallelism", "2"]) == 0
        files = directory_bytes(serial)
        assert len(files) == 9
        assert directory_bytes(parallel) == files

    def test_serial_and_parallel_fedlim_sweeps_write_identical_files(self, tmp_path, capsys):
        config = write_config(tmp_path, {**FEDLIM_R, "sweep": {"t_round_s": [120.0, 180.0]}})
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert main(["run", str(config), "--out", str(serial)]) == 0
        assert main(["run", str(config), "--out", str(parallel), "--parallelism", "2"]) == 0
        files = directory_bytes(serial)
        assert len(files) == 9
        assert directory_bytes(parallel) == files
        # The workers' stats summarize to what the written records give.
        groups = json.loads(files["summary.json"])["groups"]
        assert sorted(groups) == ["fedlim_tr120", "fedlim_tr180"]
        thresholds = ExperimentConfig(resolve_config(FEDLIM_R)).thresholds()
        for group, summary in groups.items():
            runs = [read_records_jsonl(p)[1] for p in sorted(parallel.glob(f"records-{group}_*"))]
            stats = [run_stats(records, thresholds) for records in runs]
            assert summarize(stats, thresholds) == summary

    def test_a_run_returns_its_stats_and_no_per_round_data(self, tmp_path):
        config = ExperimentConfig(resolve_config({**FEDLIM_R, "seeds": [0]}))
        (descriptor,) = run_descriptors(config)
        result = _execute_descriptor(descriptor, tmp_path)
        assert sorted(result) == ["stats"]
        stats = result["stats"]
        assert isinstance(stats, RunStats)
        _, records = read_records_jsonl(tmp_path / "records-fedlim_seed0.jsonl")
        assert stats == run_stats(records, config.thresholds())
        assert stats.rounds_completed == len(records) > 1
        # A few hundred bytes cross the process boundary, whatever the round count.
        assert len(pickle.dumps(result)) < 1000

    @pytest.mark.parametrize("value", ["0", "-4"])
    def test_parallelism_below_one_is_a_usage_error(self, tmp_path, capsys, value):
        config = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            main(["run", str(config), "--out", str(out), "--parallelism", value])
        assert exit_info.value.code == 2
        assert f"--parallelism: must be at least 1, got {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("parallelism, workers", [(64, 4), (3, 3)])
    def test_pool_never_has_more_workers_than_runs(
        self, tmp_path, capsys, monkeypatch, parallelism, workers
    ):
        started = []

        class InlinePool:
            """Records its worker count and runs every task in this process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
        config = write_config(tmp_path, SMALL)  # four runs
        out = tmp_path / "out"
        assert main(["run", str(config), "--out", str(out), "--parallelism", str(parallelism)]) == 0
        assert started == [workers]
        assert len(directory_bytes(out)) == 9

    def test_one_run_never_starts_a_pool(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "ProcessPoolExecutor", None)
        config = write_config(tmp_path, {**SMALL, "seeds": [0], "sweep": {}})
        assert main(["run", str(config), "--out", str(tmp_path / "out"), "--parallelism", "8"]) == 0

    def test_validate_reports_descriptors_and_writes_nothing(self, tmp_path, capsys, monkeypatch):
        config = write_config(tmp_path, SMALL)
        monkeypatch.chdir(tmp_path)
        assert main(["validate", str(config)]) == 0
        assert capsys.readouterr().out.startswith("OK: 4 run descriptor(s), config hash ")
        assert list(tmp_path.iterdir()) == [config]

    def test_existing_output_directory_needs_force(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        out.mkdir()
        (out / "keep.txt").write_text("earlier results\n")
        assert main(["run", str(config), "--out", str(out)]) == 1
        assert "exists" in capsys.readouterr().err
        assert directory_bytes(out) == {"keep.txt": b"earlier results\n"}

    def test_failing_descriptor_fails_every_run(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        config = write_config(
            tmp_path,
            {**SMALL, "trainer": {"kind": "native", "native": {"dataset_path": str(missing)}}},
        )
        out = tmp_path / "out"
        assert main(["run", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        run_ids = [f"{mode}_seed{seed}" for mode in ("fedcs", "fedlim") for seed in (0, 1)]
        assert sorted(summary["failed_runs"]) == sorted(run_ids)
        assert summary["groups"] == {}
        for run_id in run_ids:
            assert f"FAILED {run_id}: " in err
        # Each FAILED line is followed by that run's traceback.
        reports = err.split("FAILED ")[1:]
        assert len(reports) == len(run_ids)
        for report in reports:
            assert "\nTraceback (most recent call last)" in report
            assert "FileNotFoundError" in report.split("Traceback", 1)[1]

    def test_serial_and_parallel_failing_sweeps_report_alike(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        config = write_config(
            tmp_path,
            {**SMALL, "trainer": {"kind": "native", "native": {"dataset_path": str(missing)}}},
        )
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert main(["run", str(config), "--out", str(serial)]) == 1
        serial_err = capsys.readouterr().err
        assert main(["run", str(config), "--out", str(parallel), "--parallelism", "2"]) == 1
        assert capsys.readouterr().err == serial_err
        assert serial_err.count("FAILED ") == serial_err.count("\nTraceback ") == 4
        assert directory_bytes(parallel) == directory_bytes(serial)

    def test_a_dataset_too_small_to_leave_a_test_split_fails_the_run(self, tmp_path, capsys):
        dataset = tmp_path / "one.csv"
        dataset.write_text("1,1.0,2.0\n")
        config = write_config(
            tmp_path,
            {
                **SMALL,
                "sweep": {},
                "seeds": [0],
                "trainer": {"kind": "native", "native": {"dataset_path": str(dataset)}},
            },
        )
        out = tmp_path / "out"
        assert main(["run", str(config), "--out", str(out)]) == 1
        assert "ParameterError: test set is empty" in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert list(summary["failed_runs"]) == ["fedcs_seed0"]


def test_closed_stdout_exits_quietly():
    src = Path(fedcs_sim.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fedcs_sim.cli", "--print-defaults"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""
