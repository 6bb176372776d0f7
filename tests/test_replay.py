"""Records replayed from an independent reference.

The replay recomputes what a record says happened in its round from the
population, the record's `requested` cohort and the run's random streams,
in plain Python floats.  It shares nothing with `protocol.py` beyond the
config objects and the stream labels, so a record that is feasible but
wrong (an order drawn from the wrong stream, a term left out of a total)
fails here even where every invariant check passes.

Covered so far: vanilla at r = 0.1.
"""

import pytest

from fedcs_sim.cli import execute_run
from fedcs_sim.config import ExperimentConfig, resolve_config
from fedcs_sim.core import RngStream
from fedcs_sim.resources import RELATIVE_CLAMP_FLOOR, generate_profiles


def realized(mean, r, z):
    """Normal(mean, r * mean) from a standard normal z, clamped at a fraction of the mean."""
    return max(mean + r * mean * z, RELATIVE_CLAMP_FLOOR * mean)


def replay_vanilla(records, config, seed):
    """Each vanilla record's served order, busy time, round duration and clock.

    Per round the run draws one (cohort, 2) block of standard normals
    (capability, then throughput, per requested client in cohort order) and
    one permutation of the cohort, its upload order.  The model goes out at
    the slowest realized link; each upload starts once the previous one has
    ended and the client has finished updating."""
    protocol, budget = config.protocol(), config.budget()
    rng = RngStream(seed)
    population = generate_profiles(protocol.k_total, config.cell(), config.ranges(), rng)
    by_id = {client.id: client for client in population}
    fluctuation = rng.child("fluctuation").generator()
    order = rng.child("order").generator()
    r, model_size = protocol.fluct.r, float(budget.model_size)
    t_cs, t_agg = float(budget.t_cs), float(budget.t_agg)
    clock, replayed = 0.0, []
    for record in records:
        clients = [by_id[cid] for cid in record.requested]
        normals = fluctuation.standard_normal((len(clients), 2)).tolist()
        update, upload = [], []
        for client, (z_capability, z_throughput) in zip(clients, normals):
            capability = realized(client.mean_capability, r, z_capability)
            throughput = realized(client.mean_throughput, r, z_throughput)
            update.append(budget.epochs_per_round * client.data_count / capability)
            upload.append(model_size / throughput)
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
                "selected_or_completed": tuple(clients[i].id for i in served),
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
        assert {key: getattr(record, key) for key in replayed} == replayed
