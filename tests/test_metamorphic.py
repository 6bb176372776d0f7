"""Metamorphic relations: two runs through `cli.main` checked against each
other, with no oracle for either.

- Scaling every time input by a power of two scales every recorded time by
  it exactly and changes nothing else.  A power of two scales a float
  without rounding, and every rule of a round is homogeneous in time, its
  relative margins included, so this holds to the bit: an absolute epsilon
  or a unit slip breaks it.
- One more seed in `seeds` leaves the other seeds' records and curves
  byte-identical.
"""

import copy
import json

import pytest

from fedcs_sim.cli import main
from fedcs_sim.metrics import read_records_jsonl

# Every mode, with set-up and aggregation times, late clients discarded and
# realized times that fluctuate.
BASE = {
    "protocol": {"k_total": 200, "late_policy": "discard"},
    "budget": {
        "t_round_s": 180.0,
        "t_final_s": 3600.0,
        "t_cs_s": 3.0,
        "t_agg_s": 1.5,
        "model_size_megabytes": 18.3,
    },
    "resources": {"capability_range": [10.0, 100.0]},
    "fluctuation": {"r": 0.1},
    "seeds": [0, 2],
    "sweep": {"mode": ["fedcs", "fedlim", "vanilla"]},
}

TIME_FIELDS = ("realized_round_duration", "busy_time", "clock_after")


def run(tmp_path, name, overlay):
    """Run `overlay`; its output directory."""
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(overlay))
    out = tmp_path / name
    assert main(["run", str(config), "--out", str(out)]) == 0
    return out


def scaled(overlay, factor):
    """`overlay` with every time input scaled by `factor`: the round, the
    horizon, set-up and aggregation times, the model size (upload times)
    and, inversely, the compute capability (update times)."""
    overlay = copy.deepcopy(overlay)
    budget = overlay["budget"]
    for key in budget:
        budget[key] *= factor
    resources = overlay["resources"]
    resources["capability_range"] = [c / factor for c in resources["capability_range"]]
    return overlay


@pytest.mark.parametrize("power", [-2, 1, 3])
def test_scaling_every_time_input_scales_every_recorded_time(tmp_path, capsys, power):
    factor = 2.0**power
    outs = [run(tmp_path, "a", BASE), run(tmp_path, "b", scaled(BASE, factor))]
    names = sorted(path.name for path in outs[0].glob("records-*.jsonl"))
    assert len(names) == 6
    aggregated = 0
    for name in names:
        (_, base), (_, times) = (read_records_jsonl(out / name) for out in outs)
        assert len(base) == len(times) > 0
        for a, b in zip(base, times):
            for field in TIME_FIELDS:
                assert float(getattr(b, field)) == factor * float(getattr(a, field)), field
            assert (a.round, a.accuracy_after, a.aggregated_count) == (
                b.round, b.accuracy_after, b.aggregated_count
            )
            assert a.requested.tolist() == b.requested.tolist()
            assert a.selected_or_completed.tolist() == b.selected_or_completed.tolist()
            aggregated += a.aggregated_count
    assert aggregated > 0


@pytest.mark.parametrize("kind", ["surrogate", "native"])
def test_one_more_seed_leaves_the_other_seeds_files_as_they_were(tmp_path, capsys, kind):
    overlay = copy.deepcopy(BASE)
    overlay["trainer"] = {"kind": kind, "native": {"train_samples": 300, "test_samples": 100}}
    overlay["budget"]["t_final_s"] = 1800.0
    more = copy.deepcopy(overlay)
    more["seeds"] = [0, 1, 2]
    outs = [run(tmp_path, "two", overlay), run(tmp_path, "three", more)]
    names = sorted(path.name for path in outs[0].glob("*-*_seed*.*"))
    assert len(names) == 12  # records and curve of three modes at seeds 0 and 2
    assert len(list(outs[1].glob("*-*_seed*.*"))) == 18
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
