"""Records replayed from an independent reference.

The replay recomputes what a record says happened in its round from the
population, the record's `requested` cohort and the run's random streams,
in plain Python floats.  It shares nothing with `protocol.py` beyond the
config objects and the stream labels, so a record that is feasible but
wrong (an order drawn from the wrong stream, a term left out of a total)
fails here even where every invariant check passes.

Covered so far: vanilla at r = 0.1, and fedcs under both late policies at
r = 0 and 0.1.
"""

import pytest

from fedcs_sim.cli import execute_run
from fedcs_sim.config import ExperimentConfig, resolve_config
from fedcs_sim.core import RngStream
from fedcs_sim.resources import RELATIVE_CLAMP_FLOOR, generate_profiles


def realized(mean, r, z):
    """Normal(mean, r * mean) from a standard normal z, clamped at a fraction of the mean."""
    return max(mean + r * mean * z, RELATIVE_CLAMP_FLOOR * mean)


def clients_and_fluctuation(config, seed):
    """The run's population, by id, and its fluctuation stream."""
    protocol = config.protocol()
    rng = RngStream(seed)
    population = generate_profiles(protocol.k_total, config.cell(), config.ranges(), rng)
    return {client.id: client for client in population}, rng.child("fluctuation").generator()


def realized_round(clients, config, fluctuation):
    """The cohort's realized (update, upload) times, in cohort order.

    At r > 0 the run draws one (cohort, 2) block of standard normals per
    round, capability then throughput per client; at r = 0 it draws nothing
    and the times are the estimates."""
    protocol, budget = config.protocol(), config.budget()
    r, model_size = protocol.fluct.r, float(budget.model_size)
    normals = fluctuation.standard_normal((len(clients), 2)).tolist() if r else None
    update, upload = [], []
    for k, client in enumerate(clients):
        capability, throughput = client.mean_capability, client.mean_throughput
        if normals:
            capability = realized(capability, r, normals[k][0])
            throughput = realized(throughput, r, normals[k][1])
        update.append(budget.epochs_per_round * client.data_count / capability)
        upload.append(model_size / throughput)
    return update, upload


def paper_greedy(clients, budget):
    """The paper's greedy selection over the estimated times of `clients`:
    the chosen positions, in upload order.

    While candidates remain, take the one whose marginal cost, the growth of
    the distribution time plus its upload plus its update overhang past the
    elapsed time, is least (ties to the lower id), and keep it if the round
    still ends strictly before the deadline.  Every client of the cohort is
    a candidate."""
    model_size, deadline = float(budget.model_size), float(budget.t_round)
    base = float(budget.t_cs) + float(budget.t_agg)
    estimates = [
        (budget.epochs_per_round * c.data_count / c.mean_capability, model_size / c.mean_throughput)
        for c in clients
    ]
    remaining = list(range(len(clients)))
    chosen, theta, dist = [], 0.0, 0.0

    def cost_then_id(k):
        update, upload = estimates[k]
        cost = (max(dist, upload) - dist) + upload + max(0.0, update - theta)
        return cost, clients[k].id

    while remaining:
        k = min(remaining, key=cost_then_id)
        remaining.remove(k)
        update, upload = estimates[k]
        theta_new = theta + upload + max(0.0, update - theta)
        if base + max(dist, upload) + theta_new < deadline:
            chosen.append(k)
            theta, dist = theta_new, max(dist, upload)
    return chosen


def replay_fedcs(records, config, seed):
    """Each fedcs record's selection, busy time, round duration, clock and
    aggregated count.

    The schedule is planned on the estimates, then served on the realized
    times: the model goes out at the slowest realized link of the selected
    clients, and their uploads follow in planned order.  Under `extend`
    every selected client aggregates and the round lasts the longer of the
    deadline and the realized total; under `discard` the clients whose
    upload ends by t_round - t_agg aggregate and the round lasts t_round."""
    protocol, budget = config.protocol(), config.budget()
    by_id, fluctuation = clients_and_fluctuation(config, seed)
    t_round, t_cs, t_agg = float(budget.t_round), float(budget.t_cs), float(budget.t_agg)
    clock, replayed = 0.0, []
    for record in records:
        clients = [by_id[cid] for cid in record.requested]
        update, upload = realized_round(clients, config, fluctuation)
        chosen = paper_greedy(clients, budget)
        dist = max((upload[k] for k in chosen), default=0.0)
        theta, on_time = 0.0, 0
        for k in chosen:
            theta = theta + upload[k] + max(0.0, update[k] - theta)
            on_time += t_cs + dist + theta <= t_round - t_agg
        busy = t_cs + t_agg + dist + theta
        if protocol.late_policy == "extend":
            advance, aggregated = max(t_round, busy), len(chosen)
        else:
            advance, aggregated = t_round, on_time
        clock += advance
        replayed.append(
            {
                "selected_or_completed": [clients[k].id for k in chosen],
                "busy_time": busy,
                "realized_round_duration": advance,
                "clock_after": clock,
                "aggregated_count": aggregated,
            }
        )
    return replayed


def recorded(record, keys):
    """The record's fields named in `keys`, its id array as a list."""
    fields = {key: getattr(record, key) for key in keys}
    fields["selected_or_completed"] = fields["selected_or_completed"].tolist()
    return fields


def replay_vanilla(records, config, seed):
    """Each vanilla record's served order, busy time, round duration and clock.

    Per round the run realizes the cohort's times and draws one permutation
    of the cohort, its upload order.  The model goes out at the slowest
    realized link; each upload starts once the previous one has ended and
    the client has finished updating."""
    budget = config.budget()
    by_id, fluctuation = clients_and_fluctuation(config, seed)
    order = RngStream(seed).child("order").generator()
    t_cs, t_agg = float(budget.t_cs), float(budget.t_agg)
    clock, replayed = 0.0, []
    for record in records:
        clients = [by_id[cid] for cid in record.requested]
        update, upload = realized_round(clients, config, fluctuation)
        served = order.permutation(len(clients)).tolist()
        theta = 0.0
        for i in served:
            # The upload ends upload[i] after the later of the previous end
            # and the client's update, summed in this order.
            theta = theta + upload[i] + max(0.0, update[i] - theta)
        total = t_cs + max(upload) + theta + t_agg
        clock += total
        replayed.append(
            {
                "selected_or_completed": [clients[i].id for i in served],
                "busy_time": total,
                "realized_round_duration": total,
                "clock_after": clock,
                "aggregated_count": len(clients),
            }
        )
    return replayed


@pytest.mark.parametrize("t_cs, t_agg", [(0.0, 0.0), (5.0, 20.0)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_vanilla_records_replay_at_some_fluctuation(seed, t_cs, t_agg):
    config = ExperimentConfig(
        resolve_config(
            {
                "protocol": {"mode": "vanilla", "k_total": 200},
                "fluctuation": {"r": 0.1},
                "budget": {"t_final_s": 20_000.0, "t_cs_s": t_cs, "t_agg_s": t_agg},
            }
        )
    )
    records = execute_run(config, seed)
    assert len(records) > 1
    expected = replay_vanilla(records, config, seed)
    for record, replayed in zip(records, expected, strict=True):
        assert recorded(record, replayed) == replayed


@pytest.mark.parametrize("t_cs, t_agg", [(0.0, 0.0), (5.0, 20.0)])
@pytest.mark.parametrize("r", [0.0, 0.1])
@pytest.mark.parametrize("late_policy", ["extend", "discard"])
def test_fedcs_records_replay(late_policy, r, t_cs, t_agg):
    config = ExperimentConfig(
        resolve_config(
            {
                "protocol": {"mode": "fedcs", "k_total": 200, "late_policy": late_policy},
                "fluctuation": {"r": r},
                "budget": {"t_final_s": 20_000.0, "t_cs_s": t_cs, "t_agg_s": t_agg},
            }
        )
    )
    records = execute_run(config, 4)
    assert len(records) > 1
    assert any(len(record.selected_or_completed) for record in records)
    expected = replay_fedcs(records, config, 4)
    for record, replayed in zip(records, expected, strict=True):
        assert recorded(record, replayed) == replayed
