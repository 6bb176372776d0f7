import json
import os
import pickle
import re
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fedcs_sim
from fedcs_sim import cli
from fedcs_sim.cli import _execute_descriptor, build_trainer, execute_run, main
from fedcs_sim.config import ExperimentConfig, config_hash, resolve_config, run_descriptors
from fedcs_sim.core import ParameterError, RngStream
from fedcs_sim.learning import make_blob_dataset, save_dataset
from fedcs_sim.metrics import RunStats, read_records_jsonl, run_stats, summarize
from fedcs_sim.protocol import RoundRecord
from fedcs_sim.resources import generate_profiles

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


def fail_every_run(monkeypatch):
    """Make every run of this process, and of workers forked from it, raise
    a ParameterError once it starts: a failure that `validate` cannot see."""

    def failing_run(config, seed):
        raise ParameterError(f"no run for seed {seed}")

    monkeypatch.setattr(cli, "execute_run", failing_run)


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

    def test_a_huge_swept_value_names_its_group_by_repr(self, tmp_path, capsys):
        # As an integer, 1e300 would spell a 301-digit file name.
        user = {"protocol": {"k_total": 60}, "sweep": {"t_round_s": [1e300]}, "seeds": [0]}
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, user)), "--out", str(out)]) == 0
        assert (out / "records-fedcs_tr1e+300_seed0.jsonl").is_file()
        assert sorted(json.loads((out / "summary.json").read_text())["groups"]) == [
            "fedcs_tr1e+300"
        ]

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

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
        config = write_config(tmp_path, SMALL)  # four runs
        out = tmp_path / "out"
        assert main(["run", str(config), "--out", str(out), "--parallelism", str(parallelism)]) == 0
        assert started == [workers]
        assert len(directory_bytes(out)) == 9

    def test_one_run_never_starts_a_pool(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", None)
        config = write_config(tmp_path, {**SMALL, "seeds": [0], "sweep": {}})
        assert main(["run", str(config), "--out", str(tmp_path / "out"), "--parallelism", "8"]) == 0

    def test_a_one_worker_run_loads_no_pool(self, tmp_path):
        # In a fresh interpreter: this one has loaded multiprocessing already.
        config = write_config(tmp_path, SMALL)
        script = (
            "import sys\n"
            "from fedcs_sim.cli import main\n"
            f"assert main(['run', {str(config)!r}, '--out', {str(tmp_path / 'out')!r},"
            " '--parallelism', '1']) == 0\n"
            f"assert main(['validate', {str(config)!r}]) == 0\n"
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))\n"
        )
        src = Path(fedcs_sim.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    @pytest.mark.parametrize(
        "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"]
    )
    def test_output_files_get_the_mode_the_umask_gives(self, tmp_path, capsys, umask, mode):
        config = write_config(tmp_path, {**SMALL, "seeds": [0], "sweep": {}})
        out = tmp_path / "out"
        previous = os.umask(umask)
        try:
            assert main(["run", str(config), "--out", str(out)]) == 0
        finally:
            os.umask(previous)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
        names = ("records-fedcs_seed0.jsonl", "curve-fedcs_seed0.csv", "summary.json")
        assert modes == dict.fromkeys(names, mode)

    @pytest.mark.parametrize(
        "native, key",
        [
            ({"train_samples": 10**6, "test_samples": 10**6, "n_features": 4096}, "n_features"),
            ({"hidden": [4096] * 20}, "hidden"),
        ],
        ids=["generated-features", "parameters"],
    )
    def test_validate_rejects_a_table_over_the_memory_limit(self, tmp_path, capsys, native, key):
        # Never run: either config would need tens of GB.
        config = write_config(tmp_path, {"trainer": {"kind": "native", "native": native}})
        assert main(["validate", str(config)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"configuration error: trainer.native.{key}: ")
        assert line.endswith(" is over the 2 GiB limit")

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

    @pytest.mark.parametrize("force", [[], ["--force"]])
    def test_output_path_that_is_a_file_is_one_error_line(self, tmp_path, capsys, force):
        config = write_config(tmp_path, SMALL)
        out = tmp_path / "out.txt"
        out.write_text("not a directory\n")
        assert main(["run", str(config), "--out", str(out), *force]) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot use output directory {out}: Not a directory\n"
        assert out.read_text() == "not a directory\n"

    def test_output_path_under_a_file_is_one_error_line(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL)
        parent = tmp_path / "file.txt"
        parent.write_text("")
        out = parent / "out"
        assert main(["run", str(config), "--out", str(out), "--force"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot use output directory {out}: Not a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "file.txt"]

    def test_failing_descriptor_fails_every_run(self, tmp_path, capsys, monkeypatch):
        config = write_config(tmp_path, SMALL)
        fail_every_run(monkeypatch)
        assert main(["validate", str(config)]) == 0
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
            assert "ParameterError" in report.split("Traceback", 1)[1]

    def test_a_rerun_that_fails_while_writing_records_keeps_the_earlier_files(
        self, tmp_path, capsys, monkeypatch
    ):
        config = write_config(tmp_path, {**SMALL, "seeds": [0], "sweep": {}})
        out = tmp_path / "out"
        assert main(["run", str(config), "--out", str(out)]) == 0
        earlier = directory_bytes(out)
        lines = []

        def fail_on_the_third_line(record):
            if len(lines) == 2:
                raise RuntimeError("cannot encode")
            lines.append(to_json_line(record))
            return lines[-1]

        to_json_line = RoundRecord.to_json_line
        monkeypatch.setattr(RoundRecord, "to_json_line", fail_on_the_third_line)
        assert main(["run", str(config), "--out", str(out), "--force"]) == 1
        assert "FAILED fedcs_seed0: RuntimeError: cannot encode" in capsys.readouterr().err
        # Only summary.json, which now lists the failed run, is rewritten;
        # no temporary file is left beside the others.
        files = directory_bytes(out)
        summary = json.loads(files.pop("summary.json"))
        assert summary["failed_runs"] == {"fedcs_seed0": "RuntimeError: cannot encode"}
        del earlier["summary.json"]
        assert files == earlier

    def test_serial_and_parallel_failing_sweeps_report_alike(self, tmp_path, capsys, monkeypatch):
        config = write_config(tmp_path, SMALL)
        fail_every_run(monkeypatch)
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert main(["run", str(config), "--out", str(serial)]) == 1
        serial_err = capsys.readouterr().err
        assert main(["run", str(config), "--out", str(parallel), "--parallelism", "2"]) == 1
        assert capsys.readouterr().err == serial_err
        assert serial_err.count("FAILED ") == serial_err.count("\nTraceback ") == 4
        assert directory_bytes(parallel) == directory_bytes(serial)

    @staticmethod
    def assert_run_rejects(tmp_path, capsys, native, key, message):
        """`run` reports `message` at `key` and exits 2 before it creates the
        output directory, and a run that starts anyway fails with `message`
        in `NativeTrainer`'s own checks."""
        user = {**SMALL, "sweep": {}, "seeds": [0], "trainer": {"kind": "native", "native": native}}
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, user)), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"configuration error: trainer.native.{key}: {message}\n"
        assert not out.exists()
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            execute_run(ExperimentConfig(resolve_config(user)), 0)

    def test_a_dataset_too_small_to_leave_a_test_split_fails_the_run(self, tmp_path, capsys):
        dataset = tmp_path / "one.csv"
        dataset.write_text("1,1.0,2.0\n")
        native = {"dataset_path": str(dataset)}
        self.assert_run_rejects(tmp_path, capsys, native, "dataset_path", "test set is empty")

    def test_a_test_set_with_another_feature_count_fails_the_run(self, tmp_path, capsys):
        paths = {}
        for name, n_features in (("dataset_path", 8), ("test_dataset_path", 5)):
            rng = np.random.default_rng(n_features)
            paths[name] = str(tmp_path / f"{name}.csv")
            save_dataset(make_blob_dataset(40, n_features, 3, rng), paths[name])
        self.assert_run_rejects(
            tmp_path,
            capsys,
            paths,
            "test_dataset_path",
            "train and test sets must agree on the feature count, got 8 and 5",
        )

    @pytest.mark.parametrize("force", [[], ["--force"]])
    def test_an_empty_output_path_is_a_configuration_error(
        self, tmp_path, capsys, monkeypatch, force
    ):
        # "" names the working directory to Path, which exists.
        config = write_config(tmp_path, SMALL)
        monkeypatch.chdir(tmp_path)
        assert main(["run", str(config), "--out", "", *force]) == 2
        err = capsys.readouterr().err
        assert err == "configuration error: output_dir: must be a non-empty path\n"
        assert list(tmp_path.iterdir()) == [config]

    def test_a_bad_seed_is_reported_before_an_existing_output_directory(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        out.mkdir()
        assert main(["run", str(config), "--seed", "-1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: seeds: ")
        assert "-1" in err
        assert list(out.iterdir()) == []


class TestValidateDatasetFiles:
    """`validate` loads a native config's dataset files as a run does and
    rejects the sets that every run of it would reject; `run` rejects them
    the same way before it creates its output directory."""

    @staticmethod
    def validate(tmp_path, native, **sections):
        config = {"trainer": {"kind": "native", "native": native}, **sections}
        return main(["validate", str(write_config(tmp_path, config))])

    @staticmethod
    def rejection(tmp_path, capsys, native, **sections):
        """What `validate` prints for a config it rejects, once `run` has
        exited 2 with the same output and no output directory."""
        config = {"trainer": {"kind": "native", "native": native}, **sections}
        path = str(write_config(tmp_path, config))
        assert main(["validate", path]) == 2
        printed = capsys.readouterr()
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 2
        assert capsys.readouterr() == printed
        assert not out.exists()
        return printed.err

    @staticmethod
    def dataset(tmp_path, name, n_features, n_classes=3):
        path = tmp_path / f"{name}.csv"
        save_dataset(make_blob_dataset(40, n_features, n_classes, np.random.default_rng(0)), path)
        return str(path)

    def test_matching_files_pass(self, tmp_path, capsys):
        train = self.dataset(tmp_path, "train", 8)
        assert self.validate(tmp_path, {"dataset_path": train}) == 0
        test = self.dataset(tmp_path, "test", 8)
        assert self.validate(tmp_path, {"dataset_path": train, "test_dataset_path": test}) == 0
        assert capsys.readouterr().out.count("OK: ") == 2

    def test_a_feature_count_mismatch(self, tmp_path, capsys):
        native = {
            "dataset_path": self.dataset(tmp_path, "train", 8),
            "test_dataset_path": self.dataset(tmp_path, "test", 5),
        }
        assert self.rejection(tmp_path, capsys, native) == (
            "configuration error: trainer.native.test_dataset_path: train and test sets "
            "must agree on the feature count, got 8 and 5\n"
        )

    def test_a_class_count_mismatch_from_the_sidecar(self, tmp_path, capsys):
        native = {
            "dataset_path": self.dataset(tmp_path, "train", 8),
            "test_dataset_path": self.dataset(tmp_path, "test", 8),
        }
        sidecar = Path(native["test_dataset_path"] + ".json")
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "n_classes": 4}))
        assert self.rejection(tmp_path, capsys, native) == (
            "configuration error: trainer.native.test_dataset_path: train and test sets "
            "must agree on the class count, got 3 and 4\n"
        )

    @pytest.mark.parametrize("key", ["dataset_path", "test_dataset_path"])
    def test_a_missing_file(self, tmp_path, capsys, key):
        native = {"dataset_path": self.dataset(tmp_path, "train", 8)}
        native[key] = str(tmp_path / "missing.csv")
        (line,) = self.rejection(tmp_path, capsys, native).splitlines()
        assert line.startswith(f"configuration error: trainer.native.{key}: ")
        assert "missing.csv" in line

    def test_a_train_file_too_small_to_leave_a_test_split(self, tmp_path, capsys):
        dataset = tmp_path / "one.csv"
        dataset.write_text("1,1.0,2.0\n")
        assert self.rejection(tmp_path, capsys, {"dataset_path": str(dataset)}) == (
            "configuration error: trainer.native.dataset_path: test set is empty\n"
        )


    @staticmethod
    def labelled(tmp_path, labels):
        """A CSV of one row per label, with no sidecar: its class count is the
        largest label plus one."""
        path = tmp_path / "labels.csv"
        path.write_text("".join(f"{label},{i}.0,1.0\n" for i, label in enumerate(labels)))
        return str(path)

    def test_fewer_classes_than_each_non_iid_client_draws(self, tmp_path, capsys):
        native = {"dataset_path": self.dataset(tmp_path, "train", 8)}
        partition = {"mode": "non_iid", "classes_per_client": 4}
        sections = {"protocol": {"k_total": 60}, "partition": partition}
        assert self.rejection(tmp_path, capsys, native, **sections) == (
            "configuration error: partition.classes_per_client: dataset has 3 classes, "
            "fewer than classes_per_client=4\n"
        )

    def test_a_swept_non_iid_partition_is_checked_too(self, tmp_path, capsys):
        native = {"dataset_path": self.labelled(tmp_path, [0, 2] * 10)}
        sweep = {"partition_mode": ["iid", "non_iid"]}
        assert self.rejection(tmp_path, capsys, native, protocol={"k_total": 60}, sweep=sweep) == (
            "configuration error: trainer.native.dataset_path: non_iid partitioning requires "
            "every class to be represented\n"
        )

    def test_more_classes_than_the_network_allows(self, tmp_path, capsys):
        native = {"dataset_path": self.labelled(tmp_path, [0, 1, 5000] * 4)}
        assert self.rejection(tmp_path, capsys, native, protocol={"k_total": 60}) == (
            "configuration error: trainer.native.dataset_path: the loaded dataset's "
            "n_classes must be in [2, 4096]\n"
        )

    def test_a_class_with_no_rows_under_non_iid(self, tmp_path, capsys):
        native = {"dataset_path": self.labelled(tmp_path, [0, 2] * 10)}
        partition = {"mode": "non_iid"}
        sections = {"protocol": {"k_total": 60}, "partition": partition}
        assert self.rejection(tmp_path, capsys, native, **sections) == (
            "configuration error: trainer.native.dataset_path: non_iid partitioning requires "
            "every class to be represented\n"
        )

    def test_a_generated_train_set_missing_a_class_under_non_iid(
        self, tmp_path, capsys, monkeypatch
    ):
        # 25 generated rows over the default 10 classes: seed 2's draw misses
        # a class, and seeds 1 and 3 draw every class.
        sections = {"protocol": {"k_total": 60}, "budget": {"t_final_s": 1800.0}}
        native = {"train_samples": 25}
        non_iid = {**sections, "partition": {"mode": "non_iid"}}
        assert self.rejection(tmp_path, capsys, native, seeds=[1, 2], **non_iid) == (
            "configuration error: trainer.native.train_samples: seed 2: non_iid partitioning "
            "requires every class to be represented\n"
        )
        passing = {"trainer": {"kind": "native", "native": native}, "seeds": [1, 3], **non_iid}
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, passing)), "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["failed_runs"] == {}
        # iid draws no set to check.
        monkeypatch.setattr(cli, "make_blob_dataset", None)
        assert self.validate(tmp_path, native, seeds=[2], **sections) == 0

    def test_without_a_test_file_the_split_is_by_position(self, tmp_path):
        # The first 80% of the file's rows train and the rest test, in file
        # order, with no shuffle.
        rows = [(i % 3, float(i), -0.5 * i) for i in range(10)]
        path = tmp_path / "rows.csv"
        path.write_text("".join(f"{label},{x!r},{y!r}\n" for label, x, y in rows))
        native = {"dataset_path": str(path)}
        config = ExperimentConfig(resolve_config({"trainer": {"kind": "native", "native": native}}))
        rng = RngStream(0)
        population = generate_profiles(60, config.cell(), config.ranges(), rng)
        trainer = build_trainer(config, population, rng)
        features = np.array([row[1:] for row in rows])
        labels = np.array([row[0] for row in rows], dtype=np.int64)
        for dataset, kept in ((trainer.train_set, slice(0, 8)), (trainer.test_set, slice(8, 10))):
            assert dataset.features.tobytes() == features[kept].tobytes()
            assert dataset.labels.tobytes() == labels[kept].tobytes()
            assert dataset.n_classes == 3

    def test_a_parameter_table_over_the_memory_limit(self, tmp_path, capsys):
        # The generated dataset's network is checked by `resolve_config`; a
        # loaded one's only once its feature and class counts are known.
        native = {"dataset_path": self.dataset(tmp_path, "train", 8), "hidden": [4096, 4096]}
        resolve_config({"trainer": {"kind": "native", "native": native}})
        (line,) = self.rejection(tmp_path, capsys, native).splitlines()
        assert line.startswith("configuration error: trainer.native.hidden: native local_update ")
        assert line.endswith(" is over the 2 GiB limit")


class TestReadmeExamples:
    """README's `small.json` example prints the lines that README quotes."""

    README = Path(__file__).resolve().parents[1] / "README.md"

    def small_json(self):
        text = self.README.read_text()
        block = text.split("For example, `small.json`:\n\n", 1)[1].split("\n\n", 1)[0]
        return json.loads(block)

    def test_validate_prints_the_quoted_ok_line(self, tmp_path, capsys):
        config = write_config(tmp_path, self.small_json())
        assert main(["validate", str(config)]) == 0
        (line,) = capsys.readouterr().out.splitlines()
        assert line.startswith("OK: 2 run descriptor(s), config hash ")
        assert f"`{line}`" in self.README.read_text()

    def test_validate_prints_the_quoted_error_line(self, tmp_path, capsys):
        small = self.small_json()
        small["budget"]["t_final_s"] = 0
        config = write_config(tmp_path, small)
        assert main(["validate", str(config)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "configuration error: budget.t_final_s: must be positive"
        assert f"`{line}`" in self.README.read_text()


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
