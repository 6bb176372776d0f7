"""Output checks and the records digest for one sample's output directory.

Every run (one seed) is checked on its own; a run fails when it is listed in
summary.json's `failed_runs`, when its records file is missing, or when any
check below is violated.  The checks use the program's own model functions
to recompute what the simulator planned.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from fedcs_sim.config import ExperimentConfig
from fedcs_sim.core import RngStream
from fedcs_sim.metrics import read_records_jsonl
from fedcs_sim.protocol import RoundRecord
from fedcs_sim.resources import estimated_update_time, estimated_upload_time, generate_profiles
from fedcs_sim.selection import Candidate, dist_time, elapsed_theta


def records_digest(out_dir: Path) -> str:
    """sha256 over every records-*.jsonl body, in file-name order.

    The first line of each file is the provenance header.  Its config hash
    depends on the output path, so it is left out: two samples of the same
    inputs written to different directories must give the same digest.
    """
    h = hashlib.sha256()
    for path in sorted(out_dir.glob("records-*.jsonl")):
        h.update(path.read_bytes().split(b"\n", 1)[1])
    return h.hexdigest()


def _check_common(records: list[RoundRecord], cohort: int) -> list[str]:
    problems = []
    clocks = [float(r.clock_after) for r in records]
    if any(b <= a for a, b in zip(clocks, clocks[1:])):
        problems.append("clock_after does not strictly increase")
    for r in records:
        if len(r.requested) != cohort:
            problems.append(f"round {r.round}: {len(r.requested)} requested, cohort is {cohort}")
        chosen = r.selected_or_completed
        if len(set(chosen)) != len(chosen) or not set(chosen) <= set(r.requested):
            problems.append(f"round {r.round}: selection repeats ids or leaves the cohort")
    return problems


def _check_fedcs(records: list[RoundRecord], config: ExperimentConfig, seed: int) -> list[str]:
    """r = 0, extend: the realized and the re-planned round both fit T_round."""
    budget = config.budget()
    t_round = float(budget.t_round)
    base = float(budget.t_cs) + float(budget.t_agg)
    profiles = generate_profiles(
        config.protocol().k_total, config.cell(), config.ranges(), RngStream(seed)
    )
    by_id = {int(p.id): p for p in profiles}
    problems = []
    for r in records:
        if not float(r.busy_time) < t_round:
            problems.append(f"round {r.round}: busy_time {float(r.busy_time)} >= T_round")
        order = [
            Candidate(
                id=p.id,
                t_update=estimated_update_time(p, budget),
                t_upload=estimated_upload_time(p, budget),
                throughput=p.mean_throughput,
            )
            for p in (by_id[cid] for cid in r.selected_or_completed)
        ]
        planned = base + float(dist_time(order, budget.model_size)) + float(elapsed_theta(order)[-1])
        if not planned < t_round:
            problems.append(f"round {r.round}: planned total {planned} >= T_round")
    return problems


def _check_fedlim(records: list[RoundRecord], t_round: float) -> list[str]:
    problems = []
    clock = 0.0
    for r in records:
        clock += t_round
        if float(r.clock_after) != clock or float(r.realized_round_duration) != t_round:
            problems.append(f"round {r.round}: clock did not advance by exactly T_round")
        if not float(r.busy_time) <= t_round:
            problems.append(f"round {r.round}: busy_time {float(r.busy_time)} > T_round")
    return problems


def check_run(records: list[RoundRecord], config: ExperimentConfig, seed: int) -> list[str]:
    """Every violated check for one run, as readable messages."""
    protocol = config.protocol()
    problems = _check_common(records, protocol.cohort_size)
    if not records:
        problems.append("no rounds recorded")
    if protocol.mode == "fedcs":
        if protocol.fluct.r != 0 or protocol.late_policy != "extend":
            raise ValueError("the fedcs checks assume r = 0 and the extend policy")
        problems += _check_fedcs(records, config, seed)
    elif protocol.mode == "fedlim":
        problems += _check_fedlim(records, float(protocol.budget.t_round))
    return problems


def check_outputs(out_dir: Path, config: ExperimentConfig) -> dict[int, list[str]]:
    """Problems per seed; an empty list means the run passed every check."""
    summary = json.loads((out_dir / "summary.json").read_text())
    failed = {}
    for run_id, error in summary["failed_runs"].items():
        failed[int(run_id.rsplit("_seed", 1)[1])] = [f"run failed: {error}"]
    found = {}
    for path in out_dir.glob("records-*.jsonl"):
        header, records = read_records_jsonl(path)
        found[header["seed"]] = records
    result = {}
    for seed in config.resolved["seeds"]:
        if seed in failed:
            result[seed] = failed[seed]
        elif seed not in found:
            result[seed] = ["records file missing"]
        else:
            result[seed] = check_run(found[seed], config, seed)
    return result
