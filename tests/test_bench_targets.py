"""The benchmark traces the simulator by wrapping names looked up on its
modules and classes; a rename there must fail here, not only in a traced
benchmark run."""

import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_traced_name_is_defined_on_its_owner(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_sample", BENCH / "sample.py")
    sample = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_sample", sample)
    spec.loader.exec_module(sample)
    targets = sample.targets(True)
    assert targets
    missing = [f"{t.owner.__name__}.{t.attr}" for t in targets if t.attr not in vars(t.owner)]
    assert missing == []
