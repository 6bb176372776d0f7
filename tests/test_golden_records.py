"""Golden digests of the records that small runs write.

Each digest is the sha256 of one `records-<run>.jsonl` body (the file without
its provenance header line).  A change that alters how a run draws or orders
anything changes a digest here; a change meant to keep every record
byte-identical must leave all of them as they are.
"""

import hashlib
import json

import pytest

from fedcs_sim.cli import main

SMALL = {"protocol": {"k_total": 200}, "budget": {"t_final_s": 3600.0}}


def record_digests(tmp_path, overlay):
    """Run `overlay` on top of the small cell; the body digest of each run."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(overlay))
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) == 0
    return {
        path.name[len("records-") : -len(".jsonl")]: hashlib.sha256(
            path.read_bytes().split(b"\n", 1)[1]
        ).hexdigest()
        for path in sorted(out.glob("records-*.jsonl"))
    }


def with_small(**sections):
    overlay = json.loads(json.dumps(SMALL))
    for section, values in sections.items():
        if isinstance(values, dict):
            overlay.setdefault(section, {}).update(values)
        else:
            overlay[section] = values
    return overlay


MODES_BY_R = {
    "fedcs_r0_seed0": "dea6bc9f8b43e95fc62f9c553d35389892962e1bb77fffce112a0e14235e6b8b",
    "fedcs_r0_seed1": "3142f5411f60c7f1f04cd17601b1e1e4dcb1ffe8f852df30ec5b1a366a70f3b7",
    "fedcs_r0.1_seed0": "0063ac15ad04234b98be69e30eb60175e5eb6616075ac5384071de72819eade5",
    "fedcs_r0.1_seed1": "b9fabbf064945307e21cf02808fcd2c66b446e15f50a22a9c040893e5f88977a",
    "fedlim_r0_seed0": "3e935e156584fa5e013450d2000d1cbaf784fbb0afe11c038f5f76847bec945a",
    "fedlim_r0_seed1": "701dad4c7e336083757f7bf4ba7191fb080fd342d040e24db80f88162731b2a5",
    "fedlim_r0.1_seed0": "a184ea5ba1dde340bcf92a9655859be6d7a074f16936664f1849bbfc98cf891c",
    "fedlim_r0.1_seed1": "377f5e54bc132c81bd6bdce284ac93153bd75b5797b9d6de121f821003b4e097",
    "vanilla_r0_seed0": "76d6b86165555f1c52956e66a6907e030963e8c014d05a9d90950b523edc8c95",
    "vanilla_r0_seed1": "bf4b5bbe95f51985d441b6cf024b65b08657c128bade80fa19e3e8266597b591",
    "vanilla_r0.1_seed0": "84f624ee8320b1b6b9ec3b85eed34c8626e2af49ce515516cdacfb0acfb17e27",
    "vanilla_r0.1_seed1": "8097927cb46710f80d7d2aa1e439769e008605eff3723b006a68857114fc4c8c",
}


def test_every_mode_at_zero_and_some_fluctuation(tmp_path, capsys):
    overlay = with_small(
        seeds=[0, 1], sweep={"mode": ["fedcs", "fedlim", "vanilla"], "r": [0.0, 0.1]}
    )
    assert record_digests(tmp_path, overlay) == MODES_BY_R


FEDLIM_OPTIONS = {
    ("unicast", "channel"): "b95f263443b370043071ac194a53630c8f120253bee64b3a3393f66c9ebcf3d1",
    ("unicast", "ready"): "99c22c32c5bf39c21e8d0b47b7e1faea22fc82b32c06af46ea09f73ec9fbfb0f",
    ("unicast", "random"): "52396d05cd4332aa5ef456f88dfb7feb46493710d7aee97c9b4be7b088c0f1fe",
    ("multicast", "channel"): "214a67f82b7b4be992276ac66fc549478992c1982326d20869c7ab0e54148b88",
    ("multicast", "ready"): "9647e635f3c28f165e10457947090ac7811ff3cc0d69b374d98e44888b0abd00",
    ("multicast", "random"): "ea4efe199e519874b0a658f87d210bd06cd33a43f8b28bde67a783bbc0eb3dd6",
    ("none", "channel"): "af51e7daa1a8d13ffc1852f5da75d0b92cab60c8da668a25654a9f711d2d21be",
    ("none", "ready"): "aecf84c2b9a0896be3ed3f5fd4f34b559a79dc5a9ed057f2f4141b5e746e9b2b",
    ("none", "random"): "8f620aabcbd491339043c56032bbd754669f0418bb9ed5baf4934aa4232f3701",
}


@pytest.mark.parametrize("distribution, upload_order", sorted(FEDLIM_OPTIONS))
def test_fedlim_for_every_distribution_and_upload_order(
    tmp_path, capsys, distribution, upload_order
):
    overlay = with_small(
        protocol={
            "mode": "fedlim",
            "fedlim": {"distribution": distribution, "upload_order": upload_order},
        },
        # A small model lets a multicast at the slowest link fit the deadline.
        budget={"model_size_megabytes": 1.0},
        fluctuation={"r": 0.1},
        seeds=[3],
    )
    expected = FEDLIM_OPTIONS[distribution, upload_order]
    assert record_digests(tmp_path, overlay) == {"fedlim_seed3": expected}


def test_fedcs_discarding_late_clients(tmp_path, capsys):
    overlay = with_small(protocol={"late_policy": "discard"}, fluctuation={"r": 0.1}, seeds=[4])
    assert record_digests(tmp_path, overlay) == {
        "fedcs_seed4": "d912b34dc335f08e1064c1911539cd49a614dcf7fcf5fce4c0fa8de63f68063e"
    }


def test_native_training_on_a_non_iid_partition(tmp_path, capsys):
    overlay = with_small(
        trainer={"kind": "native", "native": {"train_samples": 600, "test_samples": 200}},
        partition={"mode": "non_iid"},
        budget={"t_final_s": 1800.0},
        seeds=[5],
    )
    assert record_digests(tmp_path, overlay) == {
        "fedcs_seed5": "9e8d83a121cdd3820e64812ef798c83da80a16f10250e547e32bbee88c205541"
    }


def test_native_training_with_a_hidden_layer(tmp_path, capsys):
    overlay = with_small(
        trainer={
            "kind": "native",
            "native": {"train_samples": 600, "test_samples": 200, "hidden": [8]},
        },
        budget={"t_final_s": 1800.0},
        seeds=[6],
    )
    assert record_digests(tmp_path, overlay) == {
        "fedcs_seed6": "dc266c458841247a459e6a139262fafcd103e253559bed83e0379d53c62b25aa"
    }


def test_summary_of_a_sweep_with_unreached_thresholds(tmp_path, capsys):
    """The whole summary.json of a sweep whose thresholds are reached by every
    run (0.1 at 180 s), by two of three (0.3 at 180 s) and by none (0.99), and
    whose 10 s groups never aggregate a client."""
    overlay = with_small(
        seeds=[0, 1, 2],
        metrics={"thresholds": [0.1, 0.3, 0.99]},
        sweep={"mode": ["fedcs", "fedlim", "vanilla"], "t_round_s": [10.0, 180.0]},
    )
    config = tmp_path / "config.json"
    config.write_text(json.dumps(overlay))
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) == 0
    assert hashlib.sha256((out / "summary.json").read_bytes()).hexdigest() == (
        "f95675949c3e4e4b448313d7e5d759873a68fb3abe781fefcbf0b7e4bb73e3df"
    )
