"""Post-processing of round-record streams: arrival times, per-run stats, the
summary.json group objects, and the records and curve exports."""

from __future__ import annotations

import json
import math
import os
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

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


@contextmanager
def atomic_writer(path: str | Path) -> Iterator[TextIO]:
    """The text handle of a temp file in `path`'s directory, renamed onto
    `path` when the block ends and unlinked if it raises.

    The temp file is created, exclusively, with the mode that `open(path,
    "w")` would give a new file: 0o666 less the process umask.  Until the
    rename, `path` keeps whatever it held.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write `text` to `path` through `atomic_writer`."""
    with atomic_writer(path) as fh:
        fh.write(text)


def write_records_jsonl(
    records: list[RoundRecord], path: str | Path, header: dict
) -> None:
    """One JSON object per line; the first line is the provenance header.
    Each line goes to the file as it is made, so only one is held at a time."""
    with atomic_writer(path) as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for r in records:
            fh.write(r.to_json_line())
            fh.write("\n")


def read_records_jsonl(path: str | Path) -> tuple[dict, list[RoundRecord]]:
    """The header and the records of a file that `write_records_jsonl` wrote.

    A file that is empty or not UTF-8 raises a `ParameterError` naming it; a
    header that is not a JSON object, or a round line that is not JSON,
    lacks a field or has one of the wrong type, one that also names the
    1-based line.
    """
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except UnicodeDecodeError as exc:
        raise ParameterError(f"records file {path} is not UTF-8: {exc}") from exc
    if not lines:
        raise ParameterError(f"records file {path} is empty")
    try:
        header = json.loads(lines[0])
    except ValueError as exc:
        raise ParameterError(f"records file {path}, line 1: {exc}") from exc
    if not isinstance(header, dict):
        raise ParameterError(f"records file {path}, line 1: the header is not a JSON object")
    records = []
    for number, line in enumerate(lines[1:], start=2):
        try:
            records.append(RoundRecord.from_json_line(line))
        except KeyError as exc:
            raise ParameterError(f"records file {path}, line {number}: no field {exc}") from exc
        except (TypeError, ValueError, ParameterError) as exc:  # not JSON, or not a round
            raise ParameterError(f"records file {path}, line {number}: {exc}") from exc
    return header, records


def write_curve_csv(records: list[RoundRecord], path: str | Path, header: dict) -> None:
    """Accuracy-over-time curve: clock_seconds, accuracy, clients_selected."""
    # Rows as `csv.writer` writes them: no field needs quoting, and each
    # ends in its "\r\n" terminator.
    meta = " ".join(f"{k}={header[k]}" for k in sorted(header))
    with atomic_writer(path) as fh:
        fh.write(f"# {meta}\nclock_seconds,accuracy,clients_selected\r\n")
        fh.writelines(
            f"{float(r.clock_after)!r},{float(r.accuracy_after)!r},"
            f"{len(r.selected_or_completed)}\r\n"
            for r in records
        )
