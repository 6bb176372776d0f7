"""fedcs-sim benchmark: end-to-end and per-layer metrics for three workloads.

Usage (from the repository root):

    python3 bench/run.py --workload fedcs-surrogate --seed 0 --seconds 30 --trace 0

Each sample runs `fedcs_sim.cli.main(["run", <generated config>, "--out", ...,
"--parallelism", "1"])` once in a fresh process (`sample.py`), checks every
run's records, and repeats until `--seconds` is spent.  `--trace 0` reports
the end-to-end metrics, medians over the samples.  `--trace 1` alternates
untraced and traced samples and reports the per-layer metrics instead, plus
the tracing overhead.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}, where attempted and failed
count simulated runs (one per simulation seed per sample).

See README.md in this directory for why each workload exists and which layer
should move which metric.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import sample

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Each sample must finish before the whole command's 180 s limit.
HARD_LIMIT_S = 170.0
# One BLAS thread per process keeps a sample on one of the machine's cores.
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# A fixed hash seed gives every sample process the same dict and set layout,
# which removes one source of run-to-run timing variation.
CHILD_ENV = {**BLAS_ENV, "PYTHONHASHSEED": "0"}


@dataclass(frozen=True)
class Workload:
    """A config overlay on the program defaults, sized in simulation seeds.

    The defaults are the paper's cell: K=1000, C=0.1, T_round=180 s,
    T_final=24000 s, fedcs mode, r=0, extend policy, surrogate trainer.
    """

    config: dict
    seeds: int
    toa_threshold: float


WORKLOADS = {
    # Selection-bound: greedy_select is most of the host time.
    "fedcs-surrogate": Workload({"protocol": {"mode": "fedcs"}}, seeds=8, toa_threshold=0.85),
    # Learning-bound: local SGD is most of the host time.  Accuracy passes
    # 0.80 after the first aggregation on every seed tried, while 0.85 sits at
    # the model's ceiling and is missed on about one seed in eight, so ToA is
    # taken at 0.75 here.
    "fedcs-native": Workload({"trainer": {"kind": "native"}}, seeds=4, toa_threshold=0.75),
    # Population-bound: no selection, 1e5 profiles, a fluctuation draw per
    # cohort member per round.
    "fedlim-100k": Workload(
        {
            "protocol": {"mode": "fedlim", "k_total": 100_000, "fraction": 0.01},
            "fluctuation": {"r": 0.1},
        },
        seeds=4,
        toa_threshold=0.85,
    ),
}

# Metric names and units, in print order.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def simulation_seeds(seed: int, count: int) -> list[int]:
    """The config's `seeds` list for a benchmark seed: same seed, same list."""
    return random.Random(seed).sample(range(2**31), count)


def host_metrics(result: dict) -> dict[str, float]:
    layers, counters = result["layers"], result["counters"]
    run_s = layers["protocol.run_experiment"]["total_s"]
    return {
        "wall_s": layers["cli.main"]["total_s"],
        "setup_s": sum(
            layers[name]["total_s"]
            for name in ("config.parse", "resources.generate_profiles", "learning.build_trainer")
        ),
        "rounds_per_s": counters["protocol.rounds"] / run_s,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def sim_metrics(out_dir: Path, workload: Workload) -> dict[str, float]:
    """The simulated outcomes, read back from the sample's summary.json."""
    summary = json.loads((out_dir / "summary.json").read_text())
    (group,) = summary["groups"].values()
    return {
        "sim_clients_per_round": float(group["mean_clients_per_round"]),
        "sim_toa_s": float(group["toa_mean"][repr(workload.toa_threshold)]),
        "sim_final_accuracy": float(group["final_accuracy_mean"]),
    }


def layer_metrics(result: dict) -> dict[str, float]:
    layers, counters = result["layers"], result["counters"]

    def total(name: str) -> float:
        return layers.get(name, {}).get("total_s", 0.0)

    def calls(name: str) -> int:
        return layers.get(name, {}).get("calls", 0)

    greedy_calls = calls("selection.greedy_select")
    candidates = counters.get("selection.candidates", 0)
    return {
        "config.parse_s": total("config.parse"),
        "channel.place_clients_s": total("channel.place_clients"),
        "channel.mean_throughput_s": total("channel.mean_throughput"),
        "channel.mean_throughput_calls": calls("channel.mean_throughput"),
        "resources.generate_profiles_s": total("resources.generate_profiles"),
        "resources.realized_times_s": total("resources.realized_times"),
        "resources.realized_times_calls": calls("resources.realized_times"),
        "selection.greedy_select_s": total("selection.greedy_select"),
        "selection.greedy_select_calls": greedy_calls,
        "selection.greedy_select_p50_ms": result["greedy_p50_ms"],
        "selection.greedy_select_tail_ms": result["greedy_tail_ms"],
        "selection.candidates_per_call": candidates / greedy_calls if greedy_calls else 0.0,
        "selection.accept_ratio": (
            counters.get("selection.selected", 0) / candidates if candidates else 0.0
        ),
        "protocol.run_experiment_s": total("protocol.run_experiment"),
        "protocol.self_s": layers["protocol.run_experiment"]["self_s"],
        "protocol.rounds": counters["protocol.rounds"],
        "learning.build_trainer_s": total("learning.build_trainer"),
        "learning.local_update_s": total("learning.local_update"),
        "learning.local_update_calls": calls("learning.local_update"),
        "learning.sgd_steps": calls("learning.loss_and_grad"),
        "learning.aggregate_s": total("learning.aggregate"),
        "learning.evaluate_s": total("learning.evaluate"),
        "metrics.summarize_s": total("metrics.summarize"),
        "metrics.write_s": total("metrics.write"),
        "metrics.bytes_written": result["bytes_written"],
        "cli.self_s": layers["cli.main"]["self_s"],
    }


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
    }


def _run_child(config: Path, out_dir: Path, trace: bool, timeout: float) -> dict | None:
    """One sample in a fresh process; None when the process itself failed."""
    result_path = out_dir.with_suffix(".json")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "sample.py"), str(config), str(out_dir), str(result_path),
         "1" if trace else "0"],
        cwd=ROOT,
        env={**os.environ, **CHILD_ENV},
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0 or not result_path.exists():
        print(f"sample process exited {proc.returncode}:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(result_path.read_text())


def measure(name: str, workload: Workload, seed: int, seconds: float, trace: bool,
            work_dir: Path) -> dict:
    """Run samples for `seconds` and return the report (see module docstring)."""
    # Both need the checkout's sources on sys.path (see main).
    from checks import check_outputs, records_digest
    from fedcs_sim.config import ExperimentConfig, resolve_config

    user = {**workload.config, "seeds": simulation_seeds(seed, workload.seeds)}
    config_path = work_dir / "config.json"
    config_path.write_text(json.dumps(user, indent=2))
    config = ExperimentConfig(resolve_config(user))

    start = time.perf_counter()
    attempted = failed = 0
    problems: list[str] = []
    untraced: list[dict] = []
    traced: list[dict] = []
    digests: set[str] = set()
    sims: list[dict] = []
    last = 0.0
    i = 0
    while True:
        tracing = trace and i % 2 == 1
        out_dir = work_dir / f"sample-{i}"
        began = time.perf_counter()
        result = _run_child(config_path, out_dir, tracing, HARD_LIMIT_S - (began - start))
        last = time.perf_counter() - began
        attempted += workload.seeds
        if result is None or not (out_dir / "summary.json").exists():
            failed += workload.seeds
            problems.append(f"sample {i}: no summary written")
        else:
            per_seed = check_outputs(out_dir, config)
            for s, found in per_seed.items():
                problems += [f"sample {i} seed {s}: {p}" for p in found]
            failed += sum(1 for found in per_seed.values() if found)
            if result["exit_code"] != 0 and not any(per_seed.values()):
                failed += workload.seeds
                problems.append(f"sample {i}: cli.main exited {result['exit_code']}")
            (traced if tracing else untraced).append(result)
            digests.add(records_digest(out_dir))
            sims.append(sim_metrics(out_dir, workload))
        shutil.rmtree(out_dir, ignore_errors=True)
        i += 1
        elapsed = time.perf_counter() - start
        paired = not trace or i % 2 == 0
        if paired and (elapsed + last / 2 >= seconds or elapsed + 2 * last > HARD_LIMIT_S):
            break

    if len(digests) > 1:
        problems.append(f"records differ between samples: {sorted(digests)}")
    if any(s != sims[0] for s in sims):
        problems.append("simulated outcomes differ between samples")
    if sims and not all(math.isfinite(v) for v in sims[0].values()):
        problems.append(f"a simulated outcome is undefined: {sims[0]}")

    report = {
        "workload": name,
        "simulation_seeds": user["seeds"],
        "env": environment(),
        "records_sha256": digests.pop() if len(digests) == 1 else None,
        "samples": {"untraced": len(untraced), "traced": len(traced)},
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {},
        "host_samples": {},
        "per_layer": {},
    }
    if untraced:
        host = [host_metrics(r) for r in untraced]
        report["host_samples"] = {k: [h[k] for h in host] for k in host[0]}
        report["end_to_end"] = {k: statistics.median(v) for k, v in report["host_samples"].items()}
        report["end_to_end"].update(sims[0])
    if traced and untraced:
        layers = [layer_metrics(r) for r in traced]
        report["per_layer"] = {k: statistics.median([m[k] for m in layers]) for k in layers[0]}
        # Samples alternate, so each traced sample is paired with the untraced
        # one just before it, which cancels drift slower than one pair.
        report["per_layer"]["trace.overhead_s"] = statistics.median(
            t["layers"]["cli.main"]["total_s"] - u["layers"]["cli.main"]["total_s"]
            for u, t in zip(untraced, traced)
        )
        report["greedy_tail"] = {
            "percentile": traced[0]["greedy_tail_pct"],
            "calls": report["per_layer"]["selection.greedy_select_calls"],
        }
    return report


def _unit(kind: str, name: str) -> str:
    return next(m["unit"] for m in SPEC[kind] if m["name"] == name)


def _print_report(report: dict, trace: bool) -> None:
    print(f"workload {report['workload']}: simulation seeds {report['simulation_seeds']}, "
          f"samples {report['samples']}")
    print("env " + json.dumps(report["env"], sort_keys=True))
    print(f"records_sha256 {report['records_sha256']}")
    for problem in report["problems"]:
        print(f"CHECK FAILED {problem}")
    for name, value in report["end_to_end"].items():
        spread = report["host_samples"].get(name)
        note = f" (median of {len(spread)}, range {min(spread):.6g}-{max(spread):.6g})" if spread else ""
        print(f"{name} {value:.6g} {_unit('end_to_end', name)}{note}")
    if trace:
        tail = report["greedy_tail"]
        print(f"selection.greedy_select_tail_ms is p{tail['percentile']:g} "
              f"of {tail['calls']:g} calls")
        for name, value in report["per_layer"].items():
            print(f"{name} {value:.6g} {_unit('per_layer', name)}")
    kind = "per_layer" if trace else "end_to_end"
    print(json.dumps({
        "correct": not report["problems"] and report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            m["name"]: {"value": report[kind][m["name"]], "unit": m["unit"]} for m in SPEC[kind]
        },
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        sample.use_checkout_sources()
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    # On SIGTERM, unwind so that subprocess.run kills and reaps the running
    # sample and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        report = measure(args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    if not report["end_to_end"] or (args.trace and not report["per_layer"]):
        print("error: no sample completed", file=sys.stderr)
        return 1
    _print_report(report, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
