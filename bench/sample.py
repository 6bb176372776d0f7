"""One benchmark sample: a single `fedcs_sim.cli.main` call in a fresh process.

Usage: python3 bench/sample.py CONFIG OUT_DIR RESULT_JSON {0|1}

The last argument turns on the fine trace.  Untraced samples wrap only the
set-up and round-loop boundaries (a few calls per run); traced samples wrap
every layer listed in FINE as well.  The result file holds the raw timings,
span totals and counters; `run.py` turns them into metrics.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

from spans import Target, Tracer, durations, layer_totals, percentile, tail_percentile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_sources() -> None:
    """Import fedcs_sim from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import fedcs_sim

    if Path(fedcs_sim.__file__).resolve().parent != SRC / "fedcs_sim":
        raise ImportError(f"fedcs_sim was imported from {fedcs_sim.__file__}, not {SRC}")


def _count_rounds(tracer, args, records):
    tracer.count("protocol.rounds", len(records))


def _count_selection(tracer, args, schedule):
    tracer.count("selection.candidates", len(args[0]))
    tracer.count("selection.selected", len(schedule))


def targets(trace: bool) -> list[Target]:
    from fedcs_sim import cli, learning, protocol, resources

    coarse = [
        Target(cli, "parse_config", "config.parse"),
        Target(cli, "generate_profiles", "resources.generate_profiles"),
        Target(cli, "build_trainer", "learning.build_trainer"),
        Target(cli, "run_experiment", "protocol.run_experiment", _count_rounds),
    ]
    if not trace:
        return coarse
    return coarse + [
        Target(cli, "summarize", "metrics.summarize"),
        Target(cli, "write_records_jsonl", "metrics.write"),
        Target(cli, "write_curve_csv", "metrics.write"),
        # cli writes summary.json through its own reference to atomic_write_text.
        Target(cli, "atomic_write_text", "metrics.write"),
        Target(resources, "place_clients", "channel.place_clients"),
        Target(resources, "mean_throughput", "channel.mean_throughput"),
        Target(protocol, "greedy_select", "selection.greedy_select", _count_selection),
        Target(protocol, "realized_times", "resources.realized_times"),
        Target(protocol, "aggregate", "learning.aggregate"),
        Target(learning, "local_update", "learning.local_update"),
        Target(learning.MlpNet, "loss_and_grad", "learning.loss_and_grad"),
        Target(learning.SurrogateTrainer, "evaluate", "learning.evaluate"),
        Target(learning.NativeTrainer, "evaluate", "learning.evaluate"),
    ]


def run_sample(config: str, out_dir: str, trace: bool) -> dict:
    from fedcs_sim import cli

    tracer = Tracer()
    main = tracer.wrap("cli.main", cli.main)
    with tracer.patched(targets(trace)):
        exit_code = main(["run", config, "--out", out_dir, "--parallelism", "1"])
    spans = tracer.spans
    greedy_ms = [d * 1e3 for d in durations(spans, "selection.greedy_select")]
    tail_p = tail_percentile(len(greedy_ms))
    return {
        "exit_code": exit_code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": layer_totals(spans),
        "counters": tracer.counters,
        "greedy_p50_ms": percentile(greedy_ms, 50) if greedy_ms else 0.0,
        "greedy_tail_ms": percentile(greedy_ms, tail_p) if greedy_ms else 0.0,
        "greedy_tail_pct": tail_p,
        "bytes_written": sum(p.stat().st_size for p in Path(out_dir).iterdir()),
    }


def main(argv: list[str]) -> int:
    if len(argv) != 4 or argv[3] not in ("0", "1"):
        print(__doc__, file=sys.stderr)
        return 2
    config, out_dir, result_path, trace = argv
    use_checkout_sources()
    result = run_sample(config, out_dir, trace == "1")
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
