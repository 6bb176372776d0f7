"""Simulator and scheduling library for deadline-constrained federated learning.

A single cell hosts a large population of clients with heterogeneous data
sizes, compute capabilities, and wireless throughputs, held as one numpy
column per quantity (`Population`).  The library models that environment,
schedules clients against a per-round deadline with a greedy maximizer
(plus an exact polynomial one to measure it against), runs the
resource-aware protocol next to deadline-limited and deadline-free
baselines, and post-processes record streams into the usual metrics.
"""

from .channel import CellConfig, mean_throughput, path_loss_db, place_clients
from .core import (
    Megabits,
    MegabitsPerSecond,
    ModelError,
    ParameterError,
    RngStream,
    Seconds,
    SimulationError,
    UnitError,
)
from .learning import (
    GlobalModel,
    LabeledDataset,
    MlpNet,
    NativeTrainer,
    Partition,
    SgdHyper,
    SurrogateTrainer,
    Trainer,
    aggregate,
    local_update,
    make_blob_dataset,
    partition_dataset,
    surrogate_accuracy,
)
from .metrics import RunStats, summarize, time_of_arrival
from .protocol import (
    FedLimOptions,
    ProtocolConfig,
    RoundRecord,
    StopCondition,
    run_experiment,
    run_round,
)
from .resources import (
    ClientProfile,
    FluctuationConfig,
    Population,
    ResourceRanges,
    TimeBudget,
    estimated_update_time,
    estimated_upload_time,
    generate_profiles,
    realized_times,
)
from .selection import (
    Candidate,
    CandidateSet,
    dist_time,
    elapsed_theta,
    exact_select,
    greedy_select,
)

__version__ = "0.1.0"
