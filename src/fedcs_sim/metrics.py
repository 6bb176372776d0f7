"""Post-processing of round-record streams: arrival times, per-run stats, the
summary.json group objects, and the records and curve exports."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import ParameterError, Seconds
from .protocol import RoundRecord

__all__ = [
    "RunStats",
    "time_of_arrival",
    "run_stats",
    "summarize",
    "write_curve_csv",
    "write_records_jsonl",
    "read_records_jsonl",
]


def time_of_arrival(records: list[RoundRecord], threshold: float) -> Seconds | None:
    """Clock of the first record whose accuracy reaches `threshold`.

    Returns None when the threshold is never reached (rendered as NaN in
    serialized summaries).  Records must be clock-ordered.
    """
    for record in records:
        if record.accuracy_after >= threshold:
            return record.clock_after
    return None


@dataclass(frozen=True)
class RunStats:
    """Per-run statistics feeding the multi-seed summary."""

    toa: dict[float, float | None]
    final_accuracy: float
    mean_clients_per_round: float
    mean_clients_per_nonempty_round: float | None
    total_clients_selected: int
    rounds_completed: int


def run_stats(records: list[RoundRecord], thresholds: list[float]) -> RunStats:
    if not records:
        raise ParameterError("run_stats requires at least one record")
    counts = [len(r.selected_or_completed) for r in records]
    nonempty = [c for c in counts if c > 0]
    toa = {
        t: (None if (v := time_of_arrival(records, t)) is None else float(v))
        for t in thresholds
    }
    return RunStats(
        toa=toa,
        final_accuracy=records[-1].accuracy_after,
        mean_clients_per_round=float(np.mean(counts)),
        mean_clients_per_nonempty_round=float(np.mean(nonempty)) if nonempty else None,
        total_clients_selected=int(np.sum(counts)),
        rounds_completed=len(records),
    )


def _mean(values: list[float]) -> float:
    """Exactly rounded mean: fsum makes it independent of summation order."""
    return math.fsum(values) / len(values)


def _pstd(values: list[float]) -> float:
    """Population (ddof=0) standard deviation, two-pass and order-independent."""
    m = _mean(values)
    return math.sqrt(math.fsum((v - m) ** 2 for v in values) / len(values))


def summarize(stats: list[RunStats], thresholds: list[float]) -> dict:
    """Aggregate the `run_stats` of several runs (typically one per seed) of
    the same setting, each taken at these `thresholds`, into the group object
    that summary.json holds.

    Per threshold, keyed by `repr(float(t))`: `toa_mean` is the mean arrival
    clock over runs, "NaN" as soon as any run fails to reach t;
    `toa_mean_successful` is the mean over the runs that did reach it ("NaN"
    when none did), and `toa_success_count` says how many did.
    `mean_clients_per_nonempty_round` is "NaN" when no run aggregated a
    client.  The summary depends only on the set of runs, not on their order.
    Means are exactly rounded and standard deviations use the population
    (ddof=0) convention.
    """
    if not stats:
        raise ParameterError("summarize requires at least one run")

    toa_mean, toa_success, toa_count = {}, {}, {}
    for t in sorted(thresholds):
        key = repr(float(t))
        reached = [v for s in stats if (v := s.toa[t]) is not None]
        toa_count[key] = len(reached)
        toa_success[key] = _mean(reached) if reached else "NaN"
        toa_mean[key] = toa_success[key] if len(reached) == len(stats) else "NaN"

    finals = [s.final_accuracy for s in stats]
    means = [s.mean_clients_per_round for s in stats]
    nonempty = [v for s in stats if (v := s.mean_clients_per_nonempty_round) is not None]
    return {
        "toa_mean": toa_mean,
        "toa_mean_successful": toa_success,
        "toa_success_count": toa_count,
        "final_accuracy_mean": _mean(finals),
        "final_accuracy_std": _pstd(finals),
        "mean_clients_per_round": _mean(means),
        "std_clients_per_round": _pstd(means),
        "mean_clients_per_nonempty_round": _mean(nonempty) if nonempty else "NaN",
        "total_clients_selected_mean": _mean([s.total_clients_selected for s in stats]),
        "rounds_completed_mean": _mean([s.rounds_completed for s in stats]),
        "runs": len(stats),
    }


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temp file in the same directory plus rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_records_jsonl(
    records: list[RoundRecord], path: str | Path, header: dict
) -> None:
    """One JSON object per line; the first line is the provenance header."""
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(r.to_json_line() for r in records)
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_records_jsonl(path: str | Path) -> tuple[dict, list[RoundRecord]]:
    lines = Path(path).read_text().splitlines()
    header = json.loads(lines[0])
    return header, [RoundRecord.from_json_line(line) for line in lines[1:]]


def write_curve_csv(records: list[RoundRecord], path: str | Path, header: dict) -> None:
    """Accuracy-over-time curve: clock_seconds, accuracy, clients_selected."""
    meta = " ".join(f"{k}={header[k]}" for k in sorted(header))
    buf = io.StringIO()
    buf.write(f"# {meta}\n")
    writer = csv.writer(buf)
    writer.writerow(["clock_seconds", "accuracy", "clients_selected"])
    for r in records:
        writer.writerow(
            [
                repr(float(r.clock_after)),
                repr(float(r.accuracy_after)),
                len(r.selected_or_completed),
            ]
        )
    atomic_write_text(path, buf.getvalue())
