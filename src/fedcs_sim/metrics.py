"""Post-processing of round-record streams: arrival times, summaries, exports."""

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
    "ExperimentSummary",
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


@dataclass(frozen=True)
class ExperimentSummary:
    """Multi-seed aggregation of run statistics.

    toa_mean[t] is the mean arrival clock over runs, absent (None) as soon as
    any run fails to reach t; toa_mean_successful[t] reports the mean over
    the runs that did reach it, with toa_success_count[t] saying how many.
    Every aggregate depends only on the set of runs, not on their order.
    Means are exactly rounded and standard deviations use the population
    (ddof=0) convention.
    """

    toa_mean: dict[float, float | None]
    toa_mean_successful: dict[float, float | None]
    toa_success_count: dict[float, int]
    final_accuracy_mean: float
    final_accuracy_std: float
    mean_clients_per_round: float
    std_clients_per_round: float
    mean_clients_per_nonempty_round: float | None
    total_clients_selected_mean: float
    rounds_completed_mean: float
    runs: int

    def as_dict(self) -> dict:
        def _toa_map(d: dict) -> dict:
            return {repr(float(k)): ("NaN" if v is None else v) for k, v in sorted(d.items())}

        return {
            "toa_mean": _toa_map(self.toa_mean),
            "toa_mean_successful": _toa_map(self.toa_mean_successful),
            "toa_success_count": {
                repr(float(k)): v for k, v in sorted(self.toa_success_count.items())
            },
            "final_accuracy_mean": self.final_accuracy_mean,
            "final_accuracy_std": self.final_accuracy_std,
            "mean_clients_per_round": self.mean_clients_per_round,
            "std_clients_per_round": self.std_clients_per_round,
            "mean_clients_per_nonempty_round": (
                "NaN"
                if self.mean_clients_per_nonempty_round is None
                else self.mean_clients_per_nonempty_round
            ),
            "total_clients_selected_mean": self.total_clients_selected_mean,
            "rounds_completed_mean": self.rounds_completed_mean,
            "runs": self.runs,
        }


def _mean(values: list[float]) -> float:
    """Exactly rounded mean: fsum makes it independent of summation order."""
    return math.fsum(values) / len(values)


def _pstd(values: list[float]) -> float:
    """Population (ddof=0) standard deviation, two-pass and order-independent."""
    m = _mean(values)
    return math.sqrt(math.fsum((v - m) ** 2 for v in values) / len(values))


def summarize(stats: list[RunStats], thresholds: list[float]) -> ExperimentSummary:
    """Aggregate the `run_stats` of several runs (typically one per seed) of
    the same setting, each taken at these `thresholds`.

    The summary depends only on the set of runs, not on their order.  Means
    are exactly rounded and standard deviations use the population (ddof=0)
    convention.
    """
    if not stats:
        raise ParameterError("summarize requires at least one run")

    toa_mean: dict[float, float | None] = {}
    toa_success: dict[float, float | None] = {}
    toa_count: dict[float, int] = {}
    for t in thresholds:
        values = [s.toa[t] for s in stats]
        reached = [v for v in values if v is not None]
        toa_count[t] = len(reached)
        toa_success[t] = _mean(reached) if reached else None
        toa_mean[t] = toa_success[t] if len(reached) == len(values) else None

    finals = [s.final_accuracy for s in stats]
    means = [s.mean_clients_per_round for s in stats]
    nonempty = [v for s in stats if (v := s.mean_clients_per_nonempty_round) is not None]
    return ExperimentSummary(
        toa_mean=toa_mean,
        toa_mean_successful=toa_success,
        toa_success_count=toa_count,
        final_accuracy_mean=_mean(finals),
        final_accuracy_std=_pstd(finals),
        mean_clients_per_round=_mean(means),
        std_clients_per_round=_pstd(means),
        mean_clients_per_nonempty_round=_mean(nonempty) if nonempty else None,
        total_clients_selected_mean=_mean([s.total_clients_selected for s in stats]),
        rounds_completed_mean=_mean([s.rounds_completed for s in stats]),
        runs=len(stats),
    )


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
