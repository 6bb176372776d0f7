import json
import os
import subprocess
import sys
from pathlib import Path

import fedcs_sim
from fedcs_sim.cli import main
from fedcs_sim.config import config_hash, resolve_config

SMALL = {
    "protocol": {"k_total": 60},
    "budget": {"t_final_s": 1800.0},
    "seeds": [0, 1],
    "sweep": {"mode": ["fedcs", "fedlim"]},
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
