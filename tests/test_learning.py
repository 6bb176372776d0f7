import collections
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fedcs_sim
from fedcs_sim.core import ModelError, ParameterError, RngStream
from fedcs_sim.learning import (
    GlobalModel,
    LabeledDataset,
    MlpNet,
    NativeTrainer,
    Partition,
    SgdHyper,
    SurrogateTrainer,
    aggregate,
    load_dataset,
    local_update,
    make_blob_dataset,
    partition_dataset,
    save_dataset,
    surrogate_accuracy,
    with_ones,
)
from fedcs_sim.resources import MAX_EPOCHS, Population


def reference_local_update(model, features, labels, net, hyper, rng):
    """One client's pass as a per-client loop: the code that the stacked
    `local_update` replaced, kept verbatim."""
    n = len(labels)
    if n == 0:
        raise ParameterError("shard must be non-empty")
    if net.param_count != model.param_count:
        raise ModelError(
            f"model has {model.param_count} parameters, network expects {net.param_count}"
        )
    lr = hyper.lr0 * hyper.lr_decay**model.round
    params = model.params.copy()
    for _ in range(hyper.epochs):
        order = rng.permutation(n)
        for start in range(0, n, hyper.batch_size):
            batch = order[start : start + hyper.batch_size]
            _, grad = net.loss_and_grad(params, features[batch], labels[batch])
            params -= lr * grad
    return GlobalModel(params=params, round=model.round)


def tiny_population(data_counts):
    """Clients 1..n with the given data counts and identical other resources."""
    same = np.ones(len(data_counts))
    return Population(data_counts, 50.0 * same, 1.4 * same)


def train_shards(model, shards, net, hyper, rng):
    """`local_update` on (features, labels) shards, stored one after another
    in one shared set."""
    data = LabeledDataset(
        np.concatenate([x for x, _ in shards]) if shards else np.zeros((0, net.dims[0])),
        np.concatenate([y for _, y in shards]) if shards else np.zeros(0, dtype=np.int64),
        net.dims[-1],
    )
    ends = np.cumsum([len(y) for _, y in shards], dtype=np.int64)
    rows = [np.arange(end - len(y), end) for end, (_, y) in zip(ends, shards)]
    return local_update(model, data, rows, net, hyper, rng)


def balanced_dataset(per_class=100, n_classes=10, n_features=4, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(n_classes), per_class)
    features = rng.normal(size=(per_class * n_classes, n_features))
    return LabeledDataset(features=features, labels=labels.astype(np.int64), n_classes=n_classes)


def reference_partition(dataset, population, mode, rng, classes_per_client=2):
    """Each client's shard drawn in its own turn: the loop that the one-draw
    iid partition replaced, kept verbatim for both modes."""
    by_class = [np.flatnonzero(dataset.labels == c) for c in range(dataset.n_classes)]
    shards = []
    n = len(dataset)
    for count in population.data_count.tolist():
        if mode == "iid":
            idx = rng.integers(0, n, size=count)
        else:
            classes = rng.choice(dataset.n_classes, size=classes_per_client, replace=False)
            pool = np.concatenate([by_class[c] for c in sorted(classes)])
            idx = pool[rng.integers(0, len(pool), size=count)]
        shards.append(idx.astype(np.int64))
    return shards


class CountingGenerator:
    """Delegates to a `Generator` and counts the calls of each method."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = collections.Counter()

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return method(*args, **kwargs)

        return counted


class RowCount:
    """Stands in for a dataset of `n` rows, of which iid reads only the length."""

    labels = np.zeros(0, dtype=np.int64)
    n_classes = 0

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n


PARTITION_COUNTS = {
    "one client of one sample": [1],
    "ones": [1] * 40,
    "ones among large counts": [1, 1000, 1, 1, 7, 999, 1, 250],
    "random counts": np.random.default_rng(8).integers(1, 1001, size=300).tolist(),
}


class TestPartition:
    def test_iid_class_histogram_is_uniform(self):
        # 10^4 clients x 100 samples over a balanced 10-class set: the mean
        # per-class count per client is 10 with std 3/sqrt(10^4) = 0.03.
        dataset = balanced_dataset()
        population = tiny_population([100] * 10**4)
        part = partition_dataset(dataset, population, "iid", RngStream(0, "partition").generator())
        counts = np.zeros(10)
        for shard in part.shards:
            counts += np.bincount(dataset.labels[shard], minlength=10)
        per_client_means = counts / len(population)
        assert np.all(np.abs(per_client_means - 10.0) <= 3 * 0.03)

    def test_non_iid_spans_at_most_two_labels(self):
        dataset = balanced_dataset()
        population = tiny_population([150] * 200)
        part = partition_dataset(
            dataset, population, "non_iid", RngStream(1, "partition").generator()
        )
        assert len(part.shards) == len(population)
        for shard in part.shards:
            labels = set(dataset.labels[shard].tolist())
            assert len(labels) <= 2

    def test_shard_sizes_match_data_counts(self):
        dataset = balanced_dataset()
        population = tiny_population([100 + 13 * i for i in range(20)])
        part = partition_dataset(dataset, population, "iid", RngStream(2, "partition").generator())
        assert type(part.shards) is tuple
        assert [len(shard) for shard in part.shards] == population.data_count.tolist()

    def test_same_seed_reproduces_assignment(self):
        dataset = balanced_dataset()
        population = tiny_population([120] * 50)
        a = partition_dataset(dataset, population, "non_iid", RngStream(3, "partition").generator())
        b = partition_dataset(dataset, population, "non_iid", RngStream(3, "partition").generator())
        assert len(a.shards) == len(b.shards) == len(population)
        for shard_a, shard_b in zip(a.shards, b.shards):
            assert np.array_equal(shard_a, shard_b)

    @pytest.mark.parametrize("counts", PARTITION_COUNTS.values(), ids=PARTITION_COUNTS.keys())
    @pytest.mark.parametrize(
        "mode, rows",
        [*(("iid", n) for n in (1, 2, 7, 1000, 2**31, 2**33)), ("non_iid", 2), ("non_iid", 1000)],
    )
    def test_partition_equals_the_per_client_loop(self, mode, rows, counts):
        # One row leaves `integers(0, 1)` nothing to draw; 2**33 rows take
        # the 64-bit path of `integers`.
        if rows <= 1000:
            labels = np.arange(rows, dtype=np.int64) % 2
            dataset = LabeledDataset(np.zeros((rows, 3)), labels, 2)
        else:
            dataset = RowCount(rows)
        population = tiny_population(counts)
        rng, reference_rng = np.random.default_rng(17), np.random.default_rng(17)
        part = partition_dataset(dataset, population, mode, rng)
        want = reference_partition(dataset, population, mode, reference_rng)
        assert len(part.shards) == len(want)
        for row, shard in enumerate(part.shards):
            assert np.array_equal(shard, want[row])
            assert shard.dtype == (np.int32 if rows <= 2**31 else np.int64)
            assert not shard.flags.writeable
            assert len(shard) == population.data_count[row]
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize("clients", [1, 500])
    def test_iid_draws_once_per_run(self, clients):
        rng = CountingGenerator(np.random.default_rng(0))
        partition_dataset(balanced_dataset(), tiny_population([10] * clients), "iid", rng)
        assert rng.calls == {"integers": 1}

    @pytest.mark.parametrize("clients", [1, 500])
    def test_non_iid_draws_once_per_client(self, clients):
        rng = CountingGenerator(np.random.default_rng(0))
        partition_dataset(balanced_dataset(), tiny_population([10] * clients), "non_iid", rng)
        assert rng.calls == {"choice": clients, "integers": clients}

    def test_too_few_classes_rejected(self):
        dataset = balanced_dataset(n_classes=2, per_class=50)
        with pytest.raises(ParameterError):
            partition_dataset(
                dataset,
                tiny_population([100]),
                "non_iid",
                RngStream(4, "partition").generator(),
                classes_per_client=3,
            )

    def test_unknown_mode_rejected(self):
        dataset = balanced_dataset()
        with pytest.raises(ParameterError):
            partition_dataset(
                dataset, tiny_population([100]), "stratified", RngStream(5, "partition").generator()
            )


class TestLocalUpdate:
    def test_epochs_are_bounded_like_the_round_budget(self):
        assert SgdHyper(epochs=MAX_EPOCHS).epochs == MAX_EPOCHS
        with pytest.raises(ParameterError, match=rf"epochs must be in \[1, {MAX_EPOCHS}\]"):
            SgdHyper(epochs=MAX_EPOCHS + 1)

    def test_zero_learning_rate_is_identity(self):
        net = MlpNet(4, 3)
        rng = RngStream(0, "train").generator()
        model = GlobalModel(params=net.init_params(rng), round=0)
        data = balanced_dataset(per_class=20, n_classes=3)
        hyper = SgdHyper(lr0=0.0)
        (updated,) = train_shards(model, [(data.features, data.labels)], net, hyper, rng)
        assert np.array_equal(updated.params, model.params)

    def test_one_step_reduces_separable_loss(self):
        net = MlpNet(2, 2)
        features = np.array([[1.0, 0.0], [-1.0, 0.0], [0.9, 0.1], [-0.8, -0.2]])
        labels = np.array([0, 1, 0, 1])
        params = np.zeros(net.param_count)
        before = net.loss_and_grad(params, features, labels)[0]
        hyper = SgdHyper(batch_size=4, epochs=1, lr0=0.25, lr_decay=1.0)
        model = GlobalModel(params=params, round=0)
        rng = RngStream(1, "train").generator()
        (updated,) = train_shards(model, [(features, labels)], net, hyper, rng)
        after = net.loss_and_grad(updated.params, features, labels)[0]
        assert after < before

    def test_gradient_matches_central_finite_differences(self):
        # 20-parameter instance: (3 features + bias) x 5 classes.
        net = MlpNet(3, 5)
        assert net.param_count == 20
        rng = RngStream(2, "train").generator()
        params = 0.3 * rng.normal(size=20)
        features = rng.normal(size=(12, 3))
        labels = rng.integers(0, 5, size=12)
        _, grad = net.loss_and_grad(params, features, labels)
        h = 1e-6
        for i in range(20):
            bumped = params.copy()
            bumped[i] += h
            up = net.loss_and_grad(bumped, features, labels)[0]
            bumped[i] -= 2 * h
            down = net.loss_and_grad(bumped, features, labels)[0]
            numeric = (up - down) / (2 * h)
            assert abs(numeric - grad[i]) < 1e-5

    def test_gradient_with_hidden_layer(self):
        net = MlpNet(4, 3, hidden=(8,))
        rng = RngStream(3, "train").generator()
        params = 0.5 * rng.normal(size=net.param_count)
        features = rng.normal(size=(9, 4))
        labels = rng.integers(0, 3, size=9)
        _, grad = net.loss_and_grad(params, features, labels)
        h = 1e-6
        for i in range(net.param_count):
            bumped = params.copy()
            bumped[i] += h
            up = net.loss_and_grad(bumped, features, labels)[0]
            bumped[i] -= 2 * h
            down = net.loss_and_grad(bumped, features, labels)[0]
            assert abs((up - down) / (2 * h) - grad[i]) < 1e-5

    def test_shard_and_input_model_left_untouched(self):
        net = MlpNet(4, 3)
        rng = RngStream(4, "train").generator()
        model = GlobalModel(params=net.init_params(rng), round=2)
        data = balanced_dataset(per_class=30, n_classes=3)
        features_before = data.features.copy()
        labels_before = data.labels.copy()
        params_before = model.params.copy()
        rows = [np.arange(0, 90, 2), np.arange(1, 90, 2)]
        rows_before = [r.copy() for r in rows]
        local_update(model, data, rows, net, SgdHyper(), rng)
        assert all(np.array_equal(a, b) for a, b in zip(rows, rows_before))
        assert np.array_equal(data.features, features_before)
        assert np.array_equal(data.labels, labels_before)
        assert np.array_equal(model.params, params_before)

    def test_empty_shard_rejected(self):
        net = MlpNet(4, 3)
        model = GlobalModel(params=np.zeros(net.param_count))
        with pytest.raises(ParameterError):
            train_shards(
                model,
                [(np.zeros((0, 4)), np.zeros(0, dtype=np.int64))],
                net,
                SgdHyper(),
                RngStream(5, "t").generator(),
            )

    def test_shape_mismatch_rejected(self):
        net = MlpNet(4, 3)
        model = GlobalModel(params=np.zeros(net.param_count + 1))
        data = balanced_dataset(per_class=5, n_classes=3)
        with pytest.raises(ModelError):
            train_shards(
                model,
                [(data.features, data.labels)],
                net,
                SgdHyper(),
                RngStream(6, "t").generator(),
            )


def folded_loss_and_grad(net, flat, x, y):
    """The 2-D forward and backward pass of one model, each layer one
    (a + 1) x b matrix [W; b] applied to its input with a ones column
    appended; also returns the logits."""
    layers, pos = [], 0
    for a, b in zip(net.dims, net.dims[1:]):
        layers.append(flat[pos : pos + (a + 1) * b].reshape(a + 1, b))
        pos += (a + 1) * b
    ones = np.ones((len(x), 1))
    activations = [np.hstack([x, ones])]
    for wb in layers[:-1]:
        activations.append(np.hstack([np.maximum(activations[-1] @ wb, 0.0), ones]))
    logits = activations[-1] @ layers[-1]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    n = len(y)
    loss = float(-np.mean(np.log(probs[np.arange(n), y] + 1e-300)))
    delta = probs.copy()
    delta[np.arange(n), y] -= 1.0
    delta /= n
    grads = []
    for i in range(len(layers) - 1, -1, -1):
        grads.append((activations[i].T @ delta).ravel())
        if i > 0:
            delta = (delta @ layers[i][:-1].T) * (activations[i][:, :-1] > 0.0)
    grads.reverse()
    return loss, np.concatenate(grads), logits


def reference_accuracy(net, flat, x, y):
    """Share of rows whose largest `folded_loss_and_grad` logit is the label."""
    logits = folded_loss_and_grad(net, flat, x, y)[2]
    return float(np.mean(np.argmax(logits, axis=1) == y))


def reference_loss_and_grad(net, flat, x, y):
    """The 2-D forward and backward pass of one model with a separate bias
    add and bias reduction, which the folded pass replaced, kept verbatim.

    Also returns, for each gradient entry, the sum of the absolute values of
    the products that entry adds up (|a|^T |delta|, and |delta| summed over
    the batch for a bias): the scale of the rounding error any summation
    order can make in it."""
    layers, pos = [], 0
    for a, b in zip(net.dims, net.dims[1:]):
        layers.append((flat[pos : pos + a * b].reshape(a, b), flat[pos + a * b : pos + a * b + b]))
        pos += a * b + b
    activations = [x]
    for i, (w, b) in enumerate(layers):
        z = activations[-1] @ w + b
        if i < len(layers) - 1:
            z = np.maximum(z, 0.0)
        activations.append(z)
    logits = activations[-1]
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)
    n = len(y)
    loss = float(-np.mean(np.log(probs[np.arange(n), y] + 1e-300)))
    delta = probs.copy()
    delta[np.arange(n), y] -= 1.0
    delta /= n
    grads, scales = [], []
    for i in range(len(layers) - 1, -1, -1):
        w, _ = layers[i]
        a_prev = activations[i]
        gw = a_prev.T @ delta
        gb = delta.sum(axis=0)
        grads.append(gb)
        grads.append(gw.ravel())
        scales.append(np.abs(delta).sum(axis=0))
        scales.append((np.abs(a_prev).T @ np.abs(delta)).ravel())
        if i > 0:
            delta = (delta @ w.T) * (activations[i] > 0.0)
    grads.reverse()
    scales.reverse()
    return loss, np.concatenate([g.ravel() for g in grads]), np.concatenate(scales)


def random_stack(hidden, seed):
    """A net of random widths, a stack of parameter vectors and one batch each."""
    rng = np.random.default_rng([seed, len(hidden), 7])
    net = MlpNet(int(rng.integers(1, 9)), int(rng.integers(2, 12)), hidden)
    m, rows = int(rng.integers(1, 9)), int(rng.integers(1, 81))
    # Wide weights give saturated softmax rows and dead ReLUs, so exact
    # zeros (and negative zeros) reach the sums.
    params = float(rng.choice([0.01, 1.0, 8.0])) * rng.normal(size=(m, net.param_count))
    x = rng.normal(size=(m, rows, net.dims[0]))
    y = rng.integers(0, net.dims[-1], size=(m, rows))
    return net, params, x, y


def stacked_gradients(net, params, x, y):
    """Each model's gradient on its batch, from the `_backprop` that `local_update` calls."""
    grads = np.empty(params.shape)
    net._backprop(net._unpack(params), with_ones(x), np.eye(net.dims[-1])[y], net._unpack(grads))
    return grads


class TestStackedBackprop:
    @pytest.mark.parametrize("hidden", [(), (5,), (6, 4)])
    @pytest.mark.parametrize("seed", range(6))
    def test_each_slice_equals_the_two_dimensional_pass(self, hidden, seed):
        net, params, x, y = random_stack(hidden, seed)
        grads = stacked_gradients(net, params, x, y)

        for s in range(len(params)):
            loss, grad, _ = folded_loss_and_grad(net, params[s], x[s], y[s])
            assert grads[s].tobytes() == grad.tobytes()
            own_loss, own_grad = net.loss_and_grad(params[s], x[s], y[s])
            assert own_grad.tobytes() == grad.tobytes()
            assert own_loss == loss

    @pytest.mark.parametrize("hidden", [(), (5,), (6, 4)])
    @pytest.mark.parametrize("seed", range(6))
    def test_each_slice_is_close_to_the_unfolded_pass(self, hidden, seed):
        # Summing the bias inside the BLAS product only rounds differently,
        # so each gradient entry may move by a small multiple of the sum of
        # the absolute products it adds up.  A bound relative to the entry
        # itself cannot hold where the products cancel: one entry is 6.9e-18
        # unfolded and 0.0 folded under OpenBLAS's Haswell kernel.  Over
        # seeds 0-399 of each hidden shape the largest multiple was 1.6e-13
        # under that kernel and 2.9e-14 under SkylakeX; the largest relative
        # difference of a loss was 1.6e-16.
        net, params, x, y = random_stack(hidden, seed)
        grads = stacked_gradients(net, params, x, y)

        for s in range(len(params)):
            loss, grad, scale = reference_loss_and_grad(net, params[s], x[s], y[s])
            excess = np.abs(grads[s] - grad) - 1e-12 * scale
            assert (excess <= 0.0).all(), f"entry {int(np.argmax(excess))} exceeds its bound"
            own_loss = net.loss_and_grad(params[s], x[s], y[s])[0]
            assert own_loss == pytest.approx(loss, rel=1e-12, abs=0)


def openblas_haswell_kernel_runs_here():
    """Whether numpy is built on OpenBLAS and the CPU has AVX2 and FMA3, so
    that forcing OpenBLAS's Haswell kernel cannot hit an illegal instruction."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except (ImportError, KeyError, TypeError):
        return False
    return "openblas" in blas.lower() and features.get("AVX2") and features.get("FMA3")


@pytest.mark.skipif(
    not openblas_haswell_kernel_runs_here(), reason="needs OpenBLAS on a CPU with AVX2 and FMA3"
)
def test_backprop_bounds_hold_under_the_haswell_blas_kernel():
    # OpenBLAS picks its kernel by CPU, and the one it picks on AVX2-only
    # CPUs rounds the folded products differently from the AVX-512 kernels,
    # so run the stacked backprop tests again under it, in a child process.
    root = Path(__file__).resolve().parents[1]
    src = Path(fedcs_sim.__file__).resolve().parents[1]
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell", "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            str(Path(__file__).resolve()),
            "-q",
            "-k",
            "StackedBackprop",
            "-p",
            "no:cacheprovider",
        ],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]


def shard_sizes(rng, count, batch):
    """Client sizes in [1, 1000] with at most 40 batches each, mixing shards
    shorter than a batch, whole multiples of it, and any size."""
    most = min(1000, 40 * batch)
    sizes = []
    for kind in rng.integers(0, 3, size=count):
        if kind == 0:
            sizes.append(int(rng.integers(1, batch + 1)))
        elif kind == 1:
            sizes.append(batch * int(rng.integers(1, most // batch + 1)))
        else:
            sizes.append(int(rng.integers(1, most + 1)))
    return sizes


class TestStackedLocalUpdate:
    @pytest.mark.parametrize("hidden", [(), (5,), (6, 4)])
    @pytest.mark.parametrize("seed", range(8))
    def test_equals_one_reference_pass_per_client_bit_for_bit(self, hidden, seed):
        rng = np.random.default_rng([seed, len(hidden)])
        n_features, n_classes = int(rng.integers(1, 9)), int(rng.integers(2, 7))
        net = MlpNet(n_features, n_classes, hidden)
        batch = int(rng.choice([1, 2, 7, 25, 50, 64]))
        sizes = shard_sizes(rng, int(rng.integers(1, 13)), batch)
        shards = [
            (rng.normal(size=(n, n_features)), rng.integers(0, n_classes, size=n))
            for n in sizes
        ]
        hyper = SgdHyper(
            batch_size=batch,
            epochs=int(rng.integers(1, 4)),
            lr0=0.0 if seed == 0 else float(rng.choice([0.1, 0.25, 0.5])),
            lr_decay=float(rng.uniform(0.9, 1.0)),
        )
        model = GlobalModel(
            params=0.5 * rng.normal(size=net.param_count), round=int(rng.integers(0, 50))
        )
        stacked_rng = np.random.default_rng(seed)
        reference_rng = np.random.default_rng(seed)

        stacked = train_shards(model, shards, net, hyper, stacked_rng)
        reference = [
            reference_local_update(model, x, y, net, hyper, reference_rng) for x, y in shards
        ]

        assert [m.params.tobytes() for m in stacked] == [m.params.tobytes() for m in reference]
        assert [m.round for m in stacked] == [model.round] * len(shards)
        assert stacked_rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize("sizes", [[1], [1000], [50, 100, 1000], [49, 51, 1, 150], [7] * 12])
    def test_edge_sizes_match_the_reference(self, sizes):
        rng = np.random.default_rng(len(sizes))
        net = MlpNet(16, 10)
        shards = [(rng.normal(size=(n, 16)), rng.integers(0, 10, size=n)) for n in sizes]
        model = GlobalModel(params=net.init_params(rng), round=3)
        stacked = train_shards(model, shards, net, SgdHyper(), np.random.default_rng(9))
        reference_rng = np.random.default_rng(9)
        for got, (x, y) in zip(stacked, shards):
            want = reference_local_update(model, x, y, net, SgdHyper(), reference_rng)
            assert got.params.tobytes() == want.params.tobytes()

    def test_rows_into_one_shared_set_equal_a_pass_on_each_gathered_shard(self):
        # Shards drawn with replacement overlap, repeat rows and come in no
        # particular order, as a partition's do.
        rng = np.random.default_rng(12)
        data = balanced_dataset(per_class=60, n_classes=5, n_features=6)
        net = MlpNet(6, 5, hidden=(7,))
        rows = [rng.integers(0, len(data), size=n) for n in (130, 49, 300, 50, 1)]
        model = GlobalModel(params=net.init_params(rng), round=1)
        hyper = SgdHyper(batch_size=25, epochs=2)
        stacked_rng, reference_rng = np.random.default_rng(5), np.random.default_rng(5)
        stacked = local_update(model, data, rows, net, hyper, stacked_rng)
        for got, idx in zip(stacked, rows):
            want = reference_local_update(
                model, data.features[idx], data.labels[idx], net, hyper, reference_rng
            )
            assert got.params.tobytes() == want.params.tobytes()
        assert stacked_rng.bit_generator.state == reference_rng.bit_generator.state

    def test_no_shards_give_no_models_and_draw_nothing(self):
        net = MlpNet(4, 3)
        model = GlobalModel(params=np.zeros(net.param_count))
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        assert train_shards(model, [], net, SgdHyper(), rng) == []
        assert rng.bit_generator.state == before

    def test_an_empty_shard_among_others_is_rejected(self):
        net = MlpNet(4, 3)
        model = GlobalModel(params=np.zeros(net.param_count))
        data = balanced_dataset(per_class=5, n_classes=3)
        empty = (np.zeros((0, 4)), np.zeros(0, dtype=np.int64))
        with pytest.raises(ParameterError):
            train_shards(
                model,
                [(data.features, data.labels), empty],
                net,
                SgdHyper(),
                np.random.default_rng(0),
            )

    def test_wrong_parameter_count_is_rejected_for_a_stack(self):
        net = MlpNet(4, 3, hidden=(5,))
        model = GlobalModel(params=np.zeros(net.param_count - 1))
        data = balanced_dataset(per_class=5, n_classes=3)
        shards = [(data.features, data.labels)] * 3
        with pytest.raises(ModelError):
            train_shards(model, shards, net, SgdHyper(), np.random.default_rng(0))

    def test_trainer_updates_clients_in_the_order_given(self):
        data = balanced_dataset(per_class=40, n_classes=3)
        rng = np.random.default_rng(1)
        partition = Partition(tuple(rng.integers(0, len(data), size=n) for n in (120, 33)), "iid")
        net = MlpNet(4, 3)
        trainer = NativeTrainer(data, data, partition, net, SgdHyper(), np.random.default_rng(2))
        model = trainer.init_model()
        updated = trainer.client_updates(model, [1, 0], np.random.default_rng(3))
        reference_rng = np.random.default_rng(3)
        for got, row in zip(updated, (1, 0)):
            idx = partition.shards[row]
            want = reference_local_update(
                model, data.features[idx], data.labels[idx], net, SgdHyper(), reference_rng
            )
            assert got.params.tobytes() == want.params.tobytes()

    @pytest.mark.parametrize("row", [2, -1], ids=["len-shards", "negative"])
    def test_a_row_outside_the_partition_is_rejected(self, row):
        # -1 would index the last shard of a bare tuple.
        data = balanced_dataset(per_class=5, n_classes=3)
        partition = Partition((np.arange(10), np.arange(5)), "iid")
        trainer = NativeTrainer(
            data, data, partition, MlpNet(4, 3), SgdHyper(), np.random.default_rng(0)
        )
        with pytest.raises(ParameterError, match=f"row {row} has no shard"):
            trainer.client_updates(trainer.init_model(), [0, row], np.random.default_rng(1))

    def test_surrogate_returns_the_model_once_per_client(self):
        trainer = SurrogateTrainer()
        model = trainer.init_model()
        assert trainer.client_updates(model, [4, 2, 9], np.random.default_rng(0)) == [model] * 3


class TestAggregate:
    def test_unweighted_mean(self):
        a = GlobalModel(params=np.array([1.0, 3.0]))
        b = GlobalModel(params=np.array([3.0, 1.0]))
        merged = aggregate([(a, 10), (b, 20)])
        assert np.array_equal(merged.params, np.array([2.0, 2.0]))
        assert merged.round == 1

    def test_single_update_identity(self):
        a = GlobalModel(params=np.array([0.25, -1.5, 3.0]), round=4)
        merged = aggregate([(a, 100)])
        assert np.array_equal(merged.params, a.params)
        assert merged.round == 5

    def test_weighted_mean(self):
        a = GlobalModel(params=np.array([0.0, 0.0]))
        b = GlobalModel(params=np.array([4.0, 4.0]))
        merged = aggregate([(a, 100), (b, 300)], weighted=True)
        assert np.array_equal(merged.params, np.array([3.0, 3.0]))

    def test_permutation_invariance_is_exact(self):
        rng = np.random.default_rng(7)
        updates = [(GlobalModel(params=rng.normal(size=33)), int(w)) for w in rng.integers(1, 900, 8)]
        for weighted in (False, True):
            base = aggregate(updates, weighted=weighted)
            for _ in range(12):
                perm = rng.permutation(len(updates))
                shuffled = [updates[i] for i in perm]
                again = aggregate(shuffled, weighted=weighted)
                assert np.array_equal(base.params, again.params)

    def test_n_copies_return_the_model_exactly(self):
        rng = np.random.default_rng(8)
        params = rng.normal(size=17) * 0.1
        updates = [(GlobalModel(params=params), 50 + i) for i in range(7)]
        for weighted in (False, True):
            merged = aggregate(updates, weighted=weighted)
            assert np.array_equal(merged.params, params)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_one_model_repeated_gives_the_general_paths_bytes(self, weighted):
        params = np.array([-0.0, 0.0, 1.5, -2.25e-300, 7e300, -0.0])
        weights = [3, 0, 11, 5]
        model = GlobalModel(params=params, round=6)
        repeated = aggregate([(model, w) for w in weights], weighted=weighted)
        # Equal but distinct arrays take the general path.
        copies = [(GlobalModel(params=params, round=6), w) for w in weights]
        general = aggregate(copies, weighted=weighted)
        assert repeated.params.tobytes() == general.params.tobytes()
        assert repeated.round == general.round == 7
        assert np.signbit(repeated.params).tolist() == [False, False, False, True, False, False]

    @pytest.mark.parametrize("weighted", [False, True])
    def test_one_model_repeated_still_checks_the_weights(self, weighted):
        model = GlobalModel(params=np.array([1.0, -0.0]))
        with pytest.raises(ParameterError, match="positive total weight"):
            aggregate([(model, 0), (model, 0)], weighted=True)
        for weights in ([2, -1], [-1, 2], [-1]):
            with pytest.raises(ParameterError, match="weights must be non-negative"):
                aggregate([(model, w) for w in weights], weighted=weighted)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            aggregate([])

    def test_mismatched_sizes_rejected(self):
        a = GlobalModel(params=np.zeros(3))
        b = GlobalModel(params=np.zeros(4))
        with pytest.raises(ModelError):
            aggregate([(a, 1), (b, 1)])


class TestSurrogate:
    def test_zero_updates_zero_accuracy(self):
        assert surrogate_accuracy(0, 0.9, 100.0) == 0.0

    def test_saturates_at_a_max(self):
        assert surrogate_accuracy(10**9, 0.9, 100.0) == pytest.approx(0.9)

    def test_closed_form_value(self):
        assert surrogate_accuracy(100, 0.9, 100.0) == pytest.approx(0.9 * (1 - np.exp(-1.0)))
        assert surrogate_accuracy(100, 0.9, 100.0) == pytest.approx(0.5689085, abs=1e-6)

    def test_monotone_in_update_count(self):
        values = [surrogate_accuracy(u, 0.9, 100.0) for u in range(0, 2000, 50)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize(
        "field, value", [("a_max", 2.0), ("a_max", -0.1), ("tau", 0.0), ("tau", -5.0)]
    )
    def test_trainer_rejects_a_bad_curve_on_construction(self, field, value):
        with pytest.raises(ParameterError) as info:
            SurrogateTrainer(**{field: value})
        assert info.value.field == field

    def test_trainer_counts_distinct_client_rounds(self):
        trainer = SurrogateTrainer(a_max=0.9, tau=100.0)
        model = trainer.init_model()
        assert trainer.evaluate(model) == 0.0
        rng = np.random.default_rng(0)
        assert trainer.client_updates(model, [1, 2], rng) == [model, model]
        trainer.client_updates(model, [1], rng)
        assert trainer.update_count == 3
        assert trainer.evaluate(model) == pytest.approx(surrogate_accuracy(3, 0.9, 100.0))


class TestDatasets:
    def test_blob_dataset_shapes(self):
        data = make_blob_dataset(500, 16, 10, RngStream(0, "data").generator())
        assert data.features.shape == (500, 16)
        assert data.labels.shape == (500,)
        assert set(np.unique(data.labels)) <= set(range(10))

    def test_blobs_are_learnable(self):
        data = make_blob_dataset(800, 8, 4, RngStream(1, "data").generator(), spread=0.4)
        net = MlpNet(8, 4)
        model = GlobalModel(params=net.init_params(RngStream(2, "init").generator()))
        hyper = SgdHyper(batch_size=50, epochs=5, lr0=0.25, lr_decay=0.99)
        (updated,) = train_shards(
            model, [(data.features, data.labels)], net, hyper, RngStream(3, "t").generator()
        )
        assert reference_accuracy(net, updated.params, data.features, data.labels) > 0.9

    @pytest.mark.parametrize("suffix", [".csv", ".bin"])
    def test_save_load_roundtrip(self, tmp_path, suffix):
        data = make_blob_dataset(60, 5, 3, RngStream(4, "data").generator())
        path = tmp_path / f"set{suffix}"
        save_dataset(data, path)
        assert path.with_suffix(path.suffix + ".json").exists()
        loaded = load_dataset(path)
        assert loaded.n_classes == 3
        assert np.array_equal(loaded.labels, data.labels)
        # Storage is float32, so compare at that precision.
        assert np.allclose(loaded.features, data.features, atol=1e-5, rtol=1e-5)

    def test_binary_requires_sidecar(self, tmp_path):
        data = make_blob_dataset(10, 3, 2, RngStream(5, "data").generator())
        path = tmp_path / "set.bin"
        save_dataset(data, path)
        path.with_suffix(".bin.json").unlink()
        with pytest.raises(ParameterError):
            load_dataset(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_are_rejected_naming_the_dataset_and_row(self, tmp_path, bad):
        path = tmp_path / "set.csv"
        path.write_text(f"0,1.0,2.0\n1,0.5,-1.0\n1,3.0,{bad}\n0,{bad},1.0\n")
        with pytest.raises(ParameterError, match=r"set\.csv: features of row 2 are not finite"):
            load_dataset(path)

    @pytest.mark.parametrize("label", ["1.7", "nan", "inf"])
    def test_non_integer_labels_are_rejected_naming_the_dataset_and_row(self, tmp_path, label):
        path = tmp_path / "set.csv"
        path.write_text(f"0,1.0,2.0\n{label},0.5,-1.0\n1,3.0,1.0\n")
        with pytest.raises(ParameterError, match=r"set\.csv: label of row 1 is not an integer"):
            load_dataset(path)

    def test_empty_file_is_rejected_naming_the_dataset(self, tmp_path):
        path = tmp_path / "set.csv"
        path.write_text("")
        with pytest.raises(ParameterError, match=r"set\.csv is empty"):
            load_dataset(path)

    @pytest.mark.parametrize("text", ["\n\n\n", "# label,f1,f2\n\n# no rows\n"])
    def test_a_file_of_blank_or_comment_lines_is_empty(self, tmp_path, text):
        path = tmp_path / "set.csv"
        path.write_text(text)
        with pytest.raises(ParameterError, match=r"set\.csv is empty"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0,1.0,2.0\n1,0.5\n", "the number of columns changed"),
            ("0,1.0,2.0\n1,x,-1.0\n", "could not convert string 'x'"),
        ],
    )
    def test_a_ragged_or_non_numeric_csv_is_rejected_naming_the_dataset(
        self, tmp_path, text, message
    ):
        path = tmp_path / "set.csv"
        path.write_text(text)
        with pytest.raises(ParameterError, match=rf"set\.csv: {message}"):
            load_dataset(path)

    def test_a_binary_file_shorter_than_its_sidecar_is_rejected(self, tmp_path):
        data = make_blob_dataset(10, 3, 2, RngStream(5, "data").generator())
        path = tmp_path / "set.bin"
        save_dataset(data, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ParameterError, match=r"set\.bin: cannot reshape array of size 39"):
            load_dataset(path)

    @staticmethod
    def saved_with_sidecar(tmp_path, suffix, edit):
        """A saved dataset whose sidecar text is replaced by `edit(sidecar)`."""
        path = tmp_path / f"set{suffix}"
        save_dataset(make_blob_dataset(10, 3, 2, RngStream(5, "data").generator()), path)
        sidecar = path.with_suffix(suffix + ".json")
        sidecar.write_text(edit(json.loads(sidecar.read_text())))
        return path

    @pytest.mark.parametrize("suffix", [".csv", ".bin"])
    def test_a_malformed_sidecar_is_rejected_naming_it(self, tmp_path, suffix):
        path = self.saved_with_sidecar(tmp_path, suffix, lambda sidecar: "{not json")
        with pytest.raises(ParameterError, match=re.escape(f"{path.name}.json: Expecting")):
            load_dataset(path)

    def test_a_sidecar_that_cannot_be_read_is_rejected_naming_it(self, tmp_path):
        path = self.saved_with_sidecar(tmp_path, ".csv", json.dumps)
        sidecar = path.with_suffix(".csv.json")
        sidecar.write_bytes(b'{"n_classes": 2, "note": "\xff"}')
        with pytest.raises(ParameterError, match=r"set\.csv\.json: 'utf-8' codec"):
            load_dataset(path)
        sidecar.unlink()
        sidecar.mkdir()
        with pytest.raises(ParameterError, match=r"set\.csv\.json: \[Errno"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "n_features, message",
        [
            (None, r"set\.bin\.json must be a JSON object with n_samples, n_features"),
            (2.0, r"set\.bin: 'float' object cannot be interpreted as an integer"),
        ],
    )
    def test_a_binary_sidecar_without_an_integer_n_features_is_rejected_naming_it(
        self, tmp_path, n_features, message
    ):
        def edit(sidecar):
            sidecar["n_features"] = n_features
            if n_features is None:
                del sidecar["n_features"]
            return json.dumps(sidecar)

        path = self.saved_with_sidecar(tmp_path, ".bin", edit)
        with pytest.raises(ParameterError, match=message):
            load_dataset(path)

    @pytest.mark.parametrize("suffix", [".csv", ".bin"])
    @pytest.mark.parametrize("root", [[], [2]])
    def test_a_sidecar_that_is_not_an_object_is_rejected_naming_it(self, tmp_path, suffix, root):
        path = self.saved_with_sidecar(tmp_path, suffix, lambda sidecar: json.dumps(root))
        with pytest.raises(ParameterError, match=re.escape(f"{path.name}.json must be a JSON")):
            load_dataset(path)

    @pytest.mark.parametrize("suffix", [".csv", ".bin"])
    def test_a_text_class_count_is_rejected_naming_the_dataset(self, tmp_path, suffix):
        path = self.saved_with_sidecar(
            tmp_path, suffix, lambda sidecar: json.dumps({**sidecar, "n_classes": "two"})
        )
        message = f"{path.name}: n_classes must be an integer, got 'two'"
        with pytest.raises(ParameterError, match=re.escape(message)):
            load_dataset(path)

    @pytest.mark.parametrize("suffix", [".csv", ".bin"])
    def test_a_float_class_count_is_rejected_naming_the_dataset(self, tmp_path, suffix):
        path = self.saved_with_sidecar(
            tmp_path, suffix, lambda sidecar: json.dumps({**sidecar, "n_classes": 2.0})
        )
        message = f"{path.name}: n_classes must be an integer, got 2.0"
        with pytest.raises(ParameterError, match=re.escape(message)):
            load_dataset(path)

    @pytest.mark.parametrize("n_classes", [2.0, True, "2"])
    def test_a_class_count_that_is_not_an_integer_is_rejected(self, n_classes):
        with pytest.raises(ParameterError, match="n_classes must be an integer"):
            LabeledDataset(np.zeros((2, 1)), np.array([0, 1]), n_classes)

    def test_inputs_and_onehot_tables(self):
        data = balanced_dataset(per_class=2, n_classes=3, n_features=2)
        assert np.array_equal(data.inputs, np.hstack([data.features, np.ones((6, 1))]))
        assert np.array_equal(data.onehot, np.eye(3)[data.labels])
        assert data.inputs is data.inputs


class TestNativeTrainer:
    def test_evaluate_is_the_accuracy_on_the_test_set(self):
        data = balanced_dataset(per_class=20, n_classes=3)
        test = balanced_dataset(per_class=10, n_classes=3, seed=1)
        partition = Partition((np.arange(60),), "iid")
        net = MlpNet(4, 3, hidden=(5,))
        trainer = NativeTrainer(data, test, partition, net, SgdHyper(), np.random.default_rng(0))
        (model,) = trainer.client_updates(trainer.init_model(), [0], np.random.default_rng(1))
        expected = reference_accuracy(net, model.params, test.features, test.labels)
        assert 0.0 < expected < 1.0
        assert trainer.evaluate(model) == expected

    @pytest.mark.parametrize(
        "name, n_classes, n_features, counts",
        [("class", 4, 8, "3 and 4"), ("feature", 3, 5, "8 and 5")],
    )
    def test_a_test_set_of_another_shape_is_rejected_naming_both_counts(
        self, name, n_classes, n_features, counts
    ):
        data = balanced_dataset(per_class=5, n_classes=3, n_features=8)
        test = balanced_dataset(per_class=5, n_classes=n_classes, n_features=n_features)
        message = f"train and test sets must agree on the {name} count, got {counts}"
        with pytest.raises(ParameterError, match=message):
            NativeTrainer(
                data, test, Partition((), "iid"), MlpNet(8, 3), SgdHyper(),
                np.random.default_rng(0),
            )

    def test_an_empty_test_set_is_rejected(self):
        data = balanced_dataset(per_class=5, n_classes=3)
        empty = LabeledDataset(np.zeros((0, 4)), np.zeros(0, dtype=np.int64), 3)
        with pytest.raises(ParameterError, match="test set is empty"):
            NativeTrainer(
                data, empty, Partition((), "iid"), MlpNet(4, 3), SgdHyper(),
                np.random.default_rng(0),
            )


class TestInputChecks:
    """Each input check quoted by its message, so that removing it fails here."""

    @pytest.mark.parametrize(
        "params, round_, error, message",
        [
            (np.zeros((2, 3)), 0, ModelError, "params must be a flat vector"),
            (np.array([0.0, np.inf]), 0, ModelError, "params must be finite"),
            (np.zeros(3), -1, ParameterError, r"round must be >= 0"),
        ],
    )
    def test_global_model(self, params, round_, error, message):
        with pytest.raises(error, match=message):
            GlobalModel(params=params, round=round_)

    @pytest.mark.parametrize(
        "features, labels, n_classes, message",
        [
            (np.zeros(4), np.zeros(4, dtype=np.int64), 2, r"features must be \(n, d\) and labels \(n,\)"),
            (np.zeros((4, 2)), np.zeros(3, dtype=np.int64), 2, "features and labels must have equal length"),
            (np.zeros((4, 2)), np.zeros(4, dtype=np.int64), 1, "n_classes must be >= 2"),
            (np.zeros((2, 2)), np.array([0, 2]), 2, r"labels must lie in \[0, n_classes\)"),
        ],
    )
    def test_labeled_dataset(self, features, labels, n_classes, message):
        with pytest.raises(ParameterError, match=message):
            LabeledDataset(features, labels, n_classes)

    def test_blob_dataset_needs_a_sample_per_class(self):
        with pytest.raises(ParameterError, match="need at least one sample per class"):
            make_blob_dataset(2, 4, 3, np.random.default_rng(0))

    def test_dataset_files_need_a_known_extension(self, tmp_path):
        data = make_blob_dataset(10, 2, 2, np.random.default_rng(0))
        path = tmp_path / "set.txt"
        with pytest.raises(ParameterError, match="unsupported dataset extension '.txt'"):
            save_dataset(data, path)
        path.write_text("0,1.0,2.0\n")
        with pytest.raises(ParameterError, match="unsupported dataset extension '.txt'"):
            load_dataset(path)

    def test_loss_and_grad_needs_the_network_parameter_count(self):
        net = MlpNet(4, 3)
        with pytest.raises(ModelError, match=f"expected {net.param_count} parameters, got 7"):
            net.loss_and_grad(np.zeros(7), np.zeros((2, 4)), np.array([0, 1]))

    def test_surrogate_accuracy_needs_a_non_negative_count(self):
        with pytest.raises(ParameterError, match="update_count must be >= 0"):
            surrogate_accuracy(-1, 0.9, 100.0)

    @pytest.mark.parametrize("hidden", [(True,), (1.5,), ("8",), (None,), (0,), (4097,)])
    def test_hidden_sizes_must_be_integers_in_range(self, hidden):
        with pytest.raises(ParameterError, match=r"hidden sizes must be integers in \[1, 4096\]"):
            MlpNet(4, 3, hidden)

    def test_hidden_sizes_may_be_numpy_integers(self):
        assert MlpNet(4, 3, (np.int64(5),)).dims == (4, 5, 3)

    def test_partition_defaults_to_an_empty_iid_partition(self):
        assert Partition() == Partition((), "iid", 2)
