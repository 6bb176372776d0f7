"""The benchmark traces the simulator by wrapping names looked up on its
modules and classes, and checks each run with the program's own model
functions; a rename there must fail here, not only in a benchmark run."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from fedcs_sim import cli
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


@pytest.mark.parametrize(
    "overlay",
    [
        {"protocol": {"k_total": 60}, "budget": {"t_final_s": 1800.0}},
        {
            "protocol": {"k_total": 200},
            "budget": {"t_final_s": 1800.0, "t_cs_s": 2.5, "t_agg_s": 1.5},
        },
    ],
    ids=["paper", "overheads"],
)
def test_run_checks_import_and_pass_on_a_small_fedcs_run(monkeypatch, overlay):
    checks = load_bench_module(monkeypatch, "checks")
    config = ExperimentConfig(resolve_config(overlay))
    records = execute_run(config, 0)
    assert any(len(r.selected_or_completed) for r in records)
    assert checks.check_run(records, config, 0) == []


# The layers each kind of workload is documented to call; a refactor that
# routes around one of these names would leave its benchmark reading at 0.
COMMON_LAYERS = {
    "resources.realized_times",
    "learning.aggregate",
    "learning.evaluate",
    "metrics.write",
}


@pytest.mark.parametrize(
    "config, layers",
    [
        (
            {"protocol": {"k_total": 60}, "budget": {"t_final_s": 1800.0}},
            COMMON_LAYERS | {"selection.greedy_select"},
        ),
        (
            {
                "protocol": {"mode": "fedlim", "k_total": 200},
                "fluctuation": {"r": 0.1},
                "budget": {"t_final_s": 1800.0},
            },
            COMMON_LAYERS,
        ),
        (
            {
                "protocol": {"k_total": 60},
                "trainer": {
                    "kind": "native",
                    "native": {"train_samples": 300, "test_samples": 100, "hidden": [4]},
                },
                "budget": {"t_final_s": 720.0},
            },
            COMMON_LAYERS | {"learning.local_update", "learning.build_trainer"},
        ),
    ],
    ids=["fedcs", "fedlim", "native"],
)
def test_a_traced_run_records_every_documented_layer(monkeypatch, tmp_path, config, layers):
    sample = load_bench_module(monkeypatch, "sample")
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**config, "seeds": [0]}))
    tracer = sample.Tracer()
    with tracer.patched(sample.targets(True)):
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    recorded = {name for name, *_ in tracer.spans}
    assert layers <= recorded, sorted(layers - recorded)
