"""The benchmark traces the simulator by wrapping names looked up on its
modules and classes, and checks each run with the program's own model
functions; a rename there must fail here, not only in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

from fedcs_sim.cli import execute_run
from fedcs_sim.config import ExperimentConfig, resolve_config

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(monkeypatch, name):
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, f"bench_{name}", module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_defined_on_its_owner(monkeypatch):
    sample = load_bench_module(monkeypatch, "sample")
    targets = sample.targets(True)
    assert targets
    missing = [f"{t.owner.__name__}.{t.attr}" for t in targets if t.attr not in vars(t.owner)]
    assert missing == []


def test_run_checks_import_and_pass_on_a_small_fedcs_run(monkeypatch):
    checks = load_bench_module(monkeypatch, "checks")
    config = ExperimentConfig(
        resolve_config({"protocol": {"k_total": 60}, "budget": {"t_final_s": 1800.0}})
    )
    records = execute_run(config, 0)
    assert records
    assert checks.check_run(records, config, 0) == []
