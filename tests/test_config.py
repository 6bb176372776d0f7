import copy
import dataclasses
import json

import pytest

from fedcs_sim.channel import CellConfig
from fedcs_sim.cli import main
from fedcs_sim.config import (
    DEFAULT_CONFIG,
    ConfigError,
    ExperimentConfig,
    resolve_config,
    run_descriptors,
)
from fedcs_sim.core import Seconds
from fedcs_sim.learning import SgdHyper, SurrogateTrainer
from fedcs_sim.protocol import ProtocolConfig, StopCondition
from fedcs_sim.resources import ResourceRanges, TimeBudget


def overlay_of(path, value, also=None):
    """A config overlay setting each dotted key path to its value."""
    overlay: dict = {}
    for dotted, v in {path: value, **(also or {})}.items():
        *parents, leaf = dotted.split(".")
        node = overlay
        for key in parents:
            node = node.setdefault(key, {})
        node[leaf] = copy.deepcopy(v)
    return overlay


def bad(path, value, also=None, at=None):
    """An invalid overlay whose error must be reported at `at` (default: `path`)."""
    label = f"{path}={value!r}" + "".join(f",{k}={v!r}" for k, v in (also or {}).items())
    return pytest.param(overlay_of(path, value, also), at or path, id=label)


def config_error(overlay):
    with pytest.raises(ConfigError) as info:
        run_descriptors(ExperimentConfig(resolve_config(overlay)))
    return str(info.value)


def assert_reported_at(overlay, path):
    """The message begins with the key path; a value that reaches the key
    through a sweep axis may instead be reported at that axis, naming the key."""
    message = config_error(overlay)
    axes = tuple(f"sweep.{axis}:" for axis in overlay.get("sweep", {}))
    assert message.startswith(f"{path}:") or (
        message.startswith(axes) and f"{path}:" in message
    ), message


CELL_KEYS = [
    "radius_m", "carrier_freq_ghz", "tx_power_dbm", "antenna_gain_dbi",
    "rb_bandwidth_total_hz", "noise_figure_db", "delta_loss", "rho_max_bps_hz",
    "shadow_sigma_db", "min_distance_m",
]
BUDGET_KEYS = ["t_round_s", "t_final_s", "t_cs_s", "t_agg_s", "model_size_megabytes"]
SURROGATE_KEYS = ["a_max", "tau"]
NATIVE_NUMBER_KEYS = ["blob_spread", "lr0", "lr_decay"]
NATIVE_INT_KEYS = ["n_features", "n_classes", "train_samples", "test_samples", "batch_size"]

# One invalid overlay per rule that the validator had before each rule got a
# single owner; every one keeps its key path.
CASES = [
    # Shape of the tree and the JSON type of each value.
    bad("cell", 5),
    bad("nope", 1),
    bad("cell.nope", 1),
    bad("protocol.fedlim", "unicast"),
    bad("cell.radius_m", None),
    bad("seeds", None),
    bad("output_dir", None),
    *(bad(f"cell.{key}", "x") for key in CELL_KEYS),
    *(bad(f"cell.{key}", True) for key in CELL_KEYS),
    *(bad(f"cell.{key}", "x") for key in ("bs_height_m", "ue_height_m", "rb_count")),
    *(bad(f"budget.{key}", "x") for key in BUDGET_KEYS),
    bad("budget.epochs_per_round", 2.5),
    bad("budget.epochs_per_round", True),
    *(bad(f"trainer.surrogate.{key}", "x") for key in SURROGATE_KEYS),
    *(bad(f"trainer.native.{key}", "x") for key in NATIVE_NUMBER_KEYS),
    *(bad(f"trainer.native.{key}", 1.5) for key in NATIVE_INT_KEYS),
    bad("protocol.k_total", 1.5),
    bad("protocol.k_total", True),
    bad("protocol.fraction", "x"),
    bad("protocol.mode", 3),
    bad("protocol.aggregate_weighted", 1),
    bad("fluctuation.r", "x"),
    bad("trainer.kind", 1),
    bad("partition.mode", 1),
    bad("partition.classes_per_client", 2.0),
    bad("output_dir", 5),
    # cell
    bad("cell.radius_m", 0.0),
    bad("cell.radius_m", -5.0),
    bad("cell.rb_bandwidth_total_hz", 0.0),
    bad("cell.rho_max_bps_hz", 0.0),
    bad("cell.delta_loss", 0.5),
    bad("cell.shadow_sigma_db", -1.0),
    bad("cell.min_distance_m", 0.0),
    bad("cell.min_distance_m", 3000.0),
    # resources
    bad("resources.data_count_range", 5),
    bad("resources.data_count_range", [100]),
    bad("resources.data_count_range", [1, 2, 3]),
    bad("resources.data_count_range", ["a", 5]),
    bad("resources.data_count_range", [0, 5]),
    bad("resources.data_count_range", [10, 5]),
    bad("resources.data_count_range", [1.5, 5]),
    bad("resources.capability_range", "x"),
    bad("resources.capability_range", [10.0]),
    bad("resources.capability_range", [1.0, "b"]),
    bad("resources.capability_range", [0.0, 5.0]),
    bad("resources.capability_range", [-1.0, 5.0]),
    bad("resources.capability_range", [10.0, 5.0]),
    # protocol
    bad("protocol.mode", "bogus"),
    bad("protocol.fraction", 0.0),
    bad("protocol.fraction", 1.5),
    bad("protocol.k_total", 0),
    bad("protocol.late_policy", "never"),
    bad("protocol.fedlim.distribution", "broadcast"),
    bad("protocol.fedlim.upload_order", "sorted"),
    # budget
    bad("budget.t_round_s", 10.0, also={"budget.t_cs_s": 6.0, "budget.t_agg_s": 5.0}),
    bad("budget.t_round_s", 0.0),
    bad("budget.t_round_s", -1.0),
    bad("budget.t_final_s", -1.0),
    bad("budget.t_final_s", 0.0),
    bad("budget.t_cs_s", -1.0),
    bad("budget.t_agg_s", -1.0),
    bad("budget.model_size_megabytes", 0.0),
    bad("budget.model_size_megabytes", -1.0),
    bad("budget.epochs_per_round", 0),
    # fluctuation
    bad("fluctuation.r", -0.1),
    # trainer
    bad("trainer.kind", "oracle"),
    bad("trainer.surrogate.a_max", -0.1),
    bad("trainer.surrogate.a_max", 1.1),
    bad("trainer.surrogate.tau", 0.0),
    bad("trainer.native.n_features", 0),
    bad("trainer.native.n_classes", 1),
    bad("trainer.native.hidden", 5),
    bad("trainer.native.hidden", [0]),
    bad("trainer.native.hidden", ["a"]),
    bad("trainer.native.hidden", [1.5]),
    bad("trainer.native.train_samples", 5),
    bad("trainer.native.test_samples", 0),
    bad("trainer.native.blob_spread", 0.0),
    bad("trainer.native.batch_size", 0),
    bad("trainer.native.lr0", -1.0),
    bad("trainer.native.lr_decay", 0.0),
    bad("trainer.native.lr_decay", 1.5),
    bad("trainer.native.dataset_path", 5),
    bad("trainer.native.test_dataset_path", 5, also={"trainer.native.dataset_path": "a.csv"}),
    bad("trainer.native.test_dataset_path", "b.csv"),
    # partition, stop, metrics
    bad("partition.mode", "sharded"),
    bad("partition.classes_per_client", 0),
    bad("stop.target_accuracy", 0.0),
    bad("stop.target_accuracy", 1.5),
    bad("metrics.thresholds", 0.5),
    bad("metrics.thresholds", [1.5]),
    bad("metrics.thresholds", [-0.1]),
    bad("metrics.thresholds", ["a"]),
    # seeds
    bad("seeds", 3),
    bad("seeds", []),
    bad("seeds", [-1]),
    bad("seeds", [1, 1]),
    bad("seeds", [True]),
    bad("seeds", [1.5]),
    # sweep
    bad("sweep.t_round_s", "x"),
    bad("sweep.t_round_s", []),
    bad("sweep.t_round_s", [0.0]),
    bad("sweep.t_round_s", [-5.0]),
    bad("sweep.t_round_s", ["x"]),
    bad("sweep.t_round_s", [100.0, 100.0]),
    bad("sweep.r", [-1.0]),
    bad("sweep.r", [0.1, 0.1]),
    bad("sweep.mode", ["bogus"]),
    bad("sweep.mode", ["fedcs", "fedcs"]),
    bad("sweep.partition_mode", ["sharded"]),
    bad("sweep.partition_mode", "iid"),
    bad(
        "sweep.t_round_s",
        [10.0],
        also={"budget.t_cs_s": 6.0, "budget.t_agg_s": 5.0},
        at="budget.t_round_s",
    ),
    # output_dir
    bad("output_dir", ""),
]


@pytest.mark.parametrize("overlay, path", CASES)
def test_invalid_overlay_is_reported_at_its_key_path(overlay, path):
    assert_reported_at(overlay, path)


def leaf_defaults(tree, prefix=""):
    """(dotted path, default) of every leaf of a config tree; a list is a leaf."""
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from leaf_defaults(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


LEAF_DEFAULTS = dict(leaf_defaults(DEFAULT_CONFIG))


def test_the_keys_with_a_null_default_are_the_optional_ones():
    assert {path for path, value in LEAF_DEFAULTS.items() if value is None} == {
        "trainer.native.dataset_path",
        "trainer.native.test_dataset_path",
        "stop.target_accuracy",
        *(f"sweep.{axis}" for axis in ("mode", "t_round_s", "r", "partition_mode")),
    }


def test_every_default_leaf_has_a_json_type_that_merge_handles():
    # `_merge` checks the type of a bool, int, float or str leaf and passes a
    # list or a null default's value through; no other leaf may exist.
    for path, value in LEAF_DEFAULTS.items():
        assert value is None or type(value) in (bool, int, float, str, list), path


@pytest.mark.parametrize("path", sorted(LEAF_DEFAULTS))
def test_null_is_accepted_exactly_where_the_default_is_null(path):
    overlay = overlay_of(path, None)
    if LEAF_DEFAULTS[path] is None:
        assert run_descriptors(ExperimentConfig(resolve_config(overlay)))
    else:
        assert config_error(overlay) == f"{path}: null is not allowed here"


# Every integer key and the largest value it takes (seeds: RngStream, below 2**64).
INTEGER_BOUNDS = {
    "protocol.k_total": 10**7,
    "budget.epochs_per_round": 1000,
    "resources.data_count_range": [100, 10**6],
    "trainer.native.n_features": 4096,
    "trainer.native.n_classes": 4096,
    "trainer.native.hidden": [4096],
    "trainer.native.train_samples": 10**6,
    "trainer.native.test_samples": 10**6,
    "trainer.native.batch_size": 10**6,
    "partition.classes_per_client": 4096,
}
ABOVE_BOUND = [
    [v[0], v[1] + 1] if path.endswith("_range") else [v[0] + 1] if isinstance(v, list) else v + 1
    for path, v in INTEGER_BOUNDS.items()
]

# Configs that `validate` accepted although every run then failed (or, for a
# NaN transmit power, ran at the capped throughput), and list elements that
# were accepted with true read as the number 1.
NAN, INF = float("nan"), float("inf")
TIGHTENED = [
    bad("cell.carrier_freq_ghz", 0.0),
    bad("cell.carrier_freq_ghz", -2.5),
    bad("seeds", [2**64]),
    *(bad(f"cell.{key}", 1) for key in ("bs_height_m", "ue_height_m", "rb_count")),
    bad("sweep.t_round_s", [True]),
    bad("sweep.r", [True]),
    bad("metrics.thresholds", [True]),
    bad("resources.data_count_range", [True, 5]),
    bad("resources.capability_range", [True, 5.0]),
    bad("trainer.native.hidden", [True]),
    bad("stop.target_accuracy", True),
    bad("stop.target_accuracy", "high"),
    # Non-finite numbers, which Python's json reads from NaN and Infinity.
    *(bad("cell.tx_power_dbm", v) for v in (NAN, INF)),
    *(bad("fluctuation.r", v) for v in (NAN, INF)),
    *(bad("budget.t_round_s", v) for v in (NAN, INF, -INF)),
    *(bad("sweep.r", [v]) for v in (NAN, INF)),
    bad("sweep.t_round_s", [180.0, INF]),
    bad("resources.capability_range", [10.0, INF]),
    bad("stop.target_accuracy", NAN),
    # More classes per client than the generated dataset has.
    bad(
        "partition.classes_per_client",
        4,
        also={
            "partition.mode": "non_iid",
            "trainer.kind": "native",
            "trainer.native.n_classes": 3,
        },
    ),
    bad(
        "partition.classes_per_client",
        11,
        also={"sweep.partition_mode": ["iid", "non_iid"], "trainer.kind": "native"},
        at="sweep.partition_mode",
    ),
    # Each integer key one past the bound its owner holds.
    *(bad(path, value) for path, value in zip(INTEGER_BOUNDS, ABOVE_BOUND)),
]


@pytest.mark.parametrize("overlay, path", TIGHTENED)
def test_validate_command_rejects_what_a_run_would(overlay, path, tmp_path, capsys):
    assert_reported_at(overlay, path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(overlay))
    assert main(["validate", str(config)]) == 2
    assert capsys.readouterr().err.startswith(f"configuration error: {path}:")


def test_an_integer_beyond_the_float_range_is_not_a_number(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"cell": {"tx_power_dbm": 1' + "0" * 400 + "}}")
    assert main(["validate", str(config)]) == 2
    assert capsys.readouterr().err == "configuration error: cell.tx_power_dbm: expected a number\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "config file not found: {path}"),
        ('{"seeds": [0]', "malformed JSON in {path}: "),
        ("[1, 2]", "config root must be a JSON object"),
    ],
)
def test_a_config_file_that_is_not_a_json_object_is_a_configuration_error(
    text, message, tmp_path, capsys
):
    config = tmp_path / "config.json"
    if text is not None:
        config.write_text(text)
    assert main(["validate", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: " + message.format(path=config))


def test_a_directory_is_not_a_readable_config(tmp_path, capsys):
    assert main(["validate", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot read config file {tmp_path}: ")


def test_a_config_that_is_not_utf8_is_a_configuration_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_bytes(b'{"seeds": [0], "output_dir": "r\xe9sultats"}')
    assert main(["validate", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot read config file {config}: ")
    assert "can't decode byte 0xe9" in err


@pytest.mark.parametrize("key", ["bs_height_m", "ue_height_m", "rb_count"])
def test_deleted_cell_keys_are_unknown(key):
    assert config_error({"cell": {key: 1}}) == f"cell.{key}: unknown key"


@pytest.mark.parametrize(
    "axis, value, key",
    [
        ("mode", "bogus", "protocol.mode"),
        ("t_round_s", 0.0, "budget.t_round_s"),
        ("t_round_s", True, "budget.t_round_s"),
        ("r", -1.0, "fluctuation.r"),
        ("partition_mode", "sharded", "partition.mode"),
    ],
)
def test_sweep_value_is_reported_at_its_axis_and_key(axis, value, key):
    message = config_error({"sweep": {axis: [value]}})
    assert message.startswith(f"sweep.{axis}: {key}: "), message


def test_group_names_spell_integral_floats_as_integers_below_1e16():
    sweep = {"t_round_s": [180.0, 9999999999999998.0, 1e16, 180.5], "r": [-0.0, 0.1]}
    config = ExperimentConfig(resolve_config({"sweep": sweep, "seeds": [0]}))
    groups = [d.group_id for d in run_descriptors(config)]
    tags = ["tr180", "tr9999999999999998", "tr1e+16", "tr180.5"]
    assert groups == [f"fedcs_{tr}_{r}" for tr in tags for r in ("r0", "r0.1")]


def test_defaults_round_trip_through_the_objects_that_own_them():
    config = ExperimentConfig(resolve_config({}))
    assert config.cell() == CellConfig()
    assert config.ranges() == ResourceRanges()
    assert config.budget() == TimeBudget()
    assert config.stop() == StopCondition(Seconds(24000.0))
    protocol, default = config.protocol(), ProtocolConfig()
    for field in dataclasses.fields(ProtocolConfig):
        assert getattr(protocol, field.name) == getattr(default, field.name), field.name
    assert config.sgd_hyper() == SgdHyper()
    surrogate = DEFAULT_CONFIG["trainer"]["surrogate"]
    assert surrogate == {"a_max": SurrogateTrainer().a_max, "tau": SurrogateTrainer().tau}


@pytest.mark.parametrize("path", sorted(INTEGER_BOUNDS))
def test_integer_keys_accept_their_bound(path):
    # A native run needs at least n_classes training samples.
    also = {"trainer.native.train_samples": 4096} if path == "trainer.native.n_classes" else {}
    run_descriptors(ExperimentConfig(resolve_config(overlay_of(path, INTEGER_BOUNDS[path], also))))


@pytest.mark.parametrize(
    "overlay",
    [
        {"partition": {"mode": "non_iid", "classes_per_client": 10}, "trainer": {"kind": "native"}},
        {"partition": {"mode": "non_iid", "classes_per_client": 11}},
        {"partition": {"classes_per_client": 11}, "trainer": {"kind": "native"}},
        {
            "partition": {"mode": "non_iid", "classes_per_client": 11},
            "trainer": {"kind": "native", "native": {"dataset_path": "data.csv"}},
        },
    ],
)
def test_classes_per_client_is_bounded_only_where_the_class_count_is_known(overlay):
    run_descriptors(ExperimentConfig(resolve_config(overlay)))


# A native config whose worst cases fill the 2 GiB index limit exactly:
# 1024 clients with up to 2**18 samples each make a 2**31-byte partition,
# and one epoch of single-sample batches over a whole cohort of 1024 makes
# a 2**31-byte local_update index table.
AT_THE_INDEX_LIMIT = {
    "trainer.kind": "native",
    "trainer.native.batch_size": 1,
    "budget.epochs_per_round": 1,
    "resources.data_count_range": [100, 2**18],
    "protocol.fraction": 1.0,
}


def test_native_index_tables_at_the_limit_validate():
    run_descriptors(
        ExperimentConfig(resolve_config(overlay_of("protocol.k_total", 1024, AT_THE_INDEX_LIMIT)))
    )


@pytest.mark.parametrize(
    "fraction, table",
    [(1.0, "local_update index table"), (0.999, "partition")],
    ids=["cohort-of-1025", "cohort-of-1024"],
)
def test_native_index_tables_one_client_past_the_limit_are_rejected(fraction, table):
    # 1025 clients put the partition one client past the limit; a cohort of
    # 1025 puts the index table there too, and that is reported first.
    overlay = overlay_of(
        "protocol.k_total", 1025, {**AT_THE_INDEX_LIMIT, "protocol.fraction": fraction}
    )
    message = config_error(overlay)
    assert message.startswith(f"trainer.kind: native {table} of "), message
    assert "over the 2 GiB limit" in message
    surrogate = copy.deepcopy(overlay)
    surrogate["trainer"]["kind"] = "surrogate"
    run_descriptors(ExperimentConfig(resolve_config(surrogate)))
