"""Data partitioning, local SGD training, aggregation, and trainer plug-ins.

Two trainers implement the same protocol-facing interface: a native one that
runs minibatch SGD on a small feed-forward softmax classifier over a bundled
synthetic dataset (or any dataset loaded from disk), and a surrogate that
skips training entirely and tracks accuracy with a deterministic saturating
curve, so scheduler-level experiments run in seconds.
"""

from __future__ import annotations

import abc
import json
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .core import ModelError, ParameterError, is_integer
from .resources import MAX_DATA_COUNT, MAX_EPOCHS, TimeBudget

__all__ = [
    "GlobalModel",
    "Partition",
    "SgdHyper",
    "MlpNet",
    "LabeledDataset",
    "make_blob_dataset",
    "save_dataset",
    "load_dataset",
    "check_partition",
    "partition_dataset",
    "local_update",
    "aggregate",
    "surrogate_accuracy",
    "Trainer",
    "SurrogateTrainer",
    "NativeTrainer",
]

PARTITION_MODES = ("iid", "non_iid")

# The widest MlpNet layer (features, hidden units or classes), which also
# bounds classes per client: a width x width table stays near 130 MB.
MAX_WIDTH = 4096


@dataclass(frozen=True)
class GlobalModel:
    """Immutable snapshot of the shared parameter vector."""

    params: np.ndarray
    round: int = 0

    def __post_init__(self) -> None:
        arr = np.array(self.params, dtype=np.float64, copy=True)
        if arr.ndim != 1:
            raise ModelError("params must be a flat vector")
        if arr.size and not np.all(np.isfinite(arr)):
            raise ModelError("params must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "params", arr)
        if self.round < 0:
            raise ParameterError("round must be >= 0")

    @property
    def param_count(self) -> int:
        return int(self.params.size)


@dataclass(frozen=True)
class Partition:
    """Sample indices per client: `shards[k]` is population row k's.

    `partition_dataset` stores indices as int32 when the dataset has at most
    2**31 rows, so every index fits, and as int64 above that.
    """

    shards: tuple[np.ndarray, ...] = ()
    mode: str = "iid"
    classes_per_client: int = 2

    def __post_init__(self) -> None:
        if self.mode not in PARTITION_MODES:
            raise ParameterError(
                f"partition mode must be one of {PARTITION_MODES}, got {self.mode!r}",
                field="mode",
            )
        if not 1 <= self.classes_per_client <= MAX_WIDTH:
            raise ParameterError(
                f"classes_per_client must be in [1, {MAX_WIDTH}]", field="classes_per_client"
            )


@dataclass(frozen=True)
class SgdHyper:
    """Minibatch SGD hyperparameters for local updates."""

    batch_size: int = 50
    # A run trains as many epochs as its budget grants per round.
    epochs: int = TimeBudget.epochs_per_round
    lr0: float = 0.25
    lr_decay: float = 0.99

    def __post_init__(self) -> None:
        # No shard is larger, so a larger batch would train as this one does.
        if not 1 <= self.batch_size <= MAX_DATA_COUNT:
            raise ParameterError(f"batch_size must be in [1, {MAX_DATA_COUNT}]", field="batch_size")
        if not 1 <= self.epochs <= MAX_EPOCHS:
            raise ParameterError(f"epochs must be in [1, {MAX_EPOCHS}]", field="epochs")
        if self.lr0 < 0:
            raise ParameterError("lr0 must be >= 0", field="lr0")
        if not 0 < self.lr_decay <= 1:
            raise ParameterError("lr_decay must be in (0, 1]", field="lr_decay")


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LabeledDataset:
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int64
    n_classes: int

    def __post_init__(self) -> None:
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise ParameterError("features must be (n, d) and labels (n,)")
        if len(self.features) != len(self.labels):
            raise ParameterError("features and labels must have equal length")
        if not is_integer(self.n_classes):
            raise ParameterError(f"n_classes must be an integer, got {self.n_classes!r}")
        if self.n_classes < 2:
            raise ParameterError("n_classes must be >= 2")
        if len(self.labels) and not (0 <= self.labels.min() and self.labels.max() < self.n_classes):
            raise ParameterError("labels must lie in [0, n_classes)")
        finite = np.isfinite(self.features).all(axis=1)
        if not finite.all():
            raise ParameterError(f"features of row {int(np.argmin(finite))} are not finite")

    def __len__(self) -> int:
        return len(self.labels)

    @cached_property
    def inputs(self) -> np.ndarray:
        """The features with a trailing ones column, (n, d + 1), built on first use."""
        return with_ones(self.features)

    @cached_property
    def onehot(self) -> np.ndarray:
        """The labels one-hot, (n, n_classes), built on first use."""
        return np.eye(self.n_classes)[self.labels]


def make_blob_dataset(
    n_samples: int,
    n_features: int,
    n_classes: int,
    rng: np.random.Generator,
    spread: float = 1.0,
) -> LabeledDataset:
    """Synthetic classification set: one unit-sphere Gaussian blob per class."""
    if n_samples < n_classes:
        raise ParameterError("need at least one sample per class")
    centers = rng.normal(0.0, 1.0, size=(n_classes, n_features))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    centers *= 3.0
    labels = rng.integers(0, n_classes, size=n_samples)
    features = centers[labels] + spread * rng.normal(0.0, 1.0, size=(n_samples, n_features))
    return LabeledDataset(features=features, labels=labels.astype(np.int64), n_classes=n_classes)


def save_dataset(dataset: LabeledDataset, path: str | Path) -> None:
    """Write a dataset as .csv (label,f1,...) or .bin plus a .json sidecar.

    The binary layout is little-endian float32, one record per sample, label
    first then features; the sidecar records shapes and dtype.
    """
    path = Path(path)
    records = np.hstack(
        [dataset.labels[:, None].astype("<f4"), dataset.features.astype("<f4")]
    )
    if path.suffix == ".csv":
        np.savetxt(path, records, delimiter=",", fmt="%.9g")
    elif path.suffix == ".bin":
        records.astype("<f4").tofile(path)
    else:
        raise ParameterError(f"unsupported dataset extension {path.suffix!r}")
    sidecar = {
        "n_samples": len(dataset),
        "n_features": dataset.features.shape[1],
        "n_classes": dataset.n_classes,
        "dtype": "float32",
        "byte_order": "little",
        "layout": "label,features",
    }
    path.with_suffix(path.suffix + ".json").write_text(json.dumps(sidecar, indent=2))


def load_dataset(path: str | Path) -> LabeledDataset:
    """Load a dataset written by save_dataset (or matching its format).

    The .json sidecar is required for .bin files; for .csv it is optional,
    in which case the class count is inferred as max(label) + 1.
    """
    path = Path(path)
    if path.suffix not in (".csv", ".bin"):
        raise ParameterError(f"unsupported dataset extension {path.suffix!r}")
    sidecar_path = path.with_suffix(path.suffix + ".json")
    sidecar = None
    if sidecar_path.exists():
        try:
            sidecar = json.loads(sidecar_path.read_text())
        except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
            raise ParameterError(f"dataset sidecar {sidecar_path}: {exc}") from exc
        keys = ("n_samples", "n_features", "n_classes") if path.suffix == ".bin" else ("n_classes",)
        if not isinstance(sidecar, dict) or not all(k in sidecar for k in keys):
            raise ParameterError(
                f"dataset sidecar {sidecar_path} must be a JSON object with {', '.join(keys)}"
            )
    elif path.suffix == ".bin":
        raise ParameterError(f"binary dataset {path} requires sidecar {sidecar_path}")
    try:  # a ragged or non-numeric CSV, or a .bin of the wrong size or shape type
        if path.suffix == ".csv":
            with warnings.catch_warnings():  # a file with no rows is reported below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                records = np.loadtxt(path, delimiter=",", ndmin=2)
        else:
            raw = np.fromfile(path, dtype="<f4")
            shape = (sidecar["n_samples"], sidecar["n_features"] + 1)
            records = raw.reshape(shape).astype(np.float64)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"dataset {path}: {exc}") from exc
    if len(records) == 0:
        raise ParameterError(f"dataset {path} is empty")
    integral = np.isfinite(records[:, 0]) & (records[:, 0] == np.trunc(records[:, 0]))
    if not integral.all():
        raise ParameterError(
            f"dataset {path}: label of row {int(np.argmin(integral))} is not an integer"
        )
    labels = records[:, 0].astype(np.int64)
    features = records[:, 1:].astype(np.float64)
    n_classes = sidecar["n_classes"] if sidecar else int(labels.max()) + 1
    try:
        return LabeledDataset(features=features, labels=labels, n_classes=n_classes)
    except ParameterError as exc:
        raise ParameterError(f"dataset {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------


def check_partition(dataset: LabeledDataset, mode: str, classes_per_client: int) -> None:
    """Raise the `ParameterError` that `partition_dataset` would for `dataset`.

    Besides the mode and classes per client themselves, non_iid needs at
    least `classes_per_client` classes (field "classes_per_client" when
    short) and a row of every class, or some client's pool could be empty.
    """
    Partition(mode=mode, classes_per_client=classes_per_client)
    if mode == "iid":
        return
    if dataset.n_classes < classes_per_client:
        raise ParameterError(
            f"dataset has {dataset.n_classes} classes, fewer than "
            f"classes_per_client={classes_per_client}",
            field="classes_per_client",
        )
    if len(np.unique(dataset.labels)) < dataset.n_classes:
        raise ParameterError("non_iid partitioning requires every class to be represented")


def partition_dataset(
    dataset: LabeledDataset,
    population,
    mode: str,
    rng: np.random.Generator,
    classes_per_client: int = Partition.classes_per_client,
) -> Partition:
    """Assign each client of a `Population` its `data_count` sample indices.

    iid: indices drawn uniformly with replacement from the whole set.
    non_iid: each client first draws `classes_per_client` distinct classes,
    then samples with replacement from those classes' pool only.  Sampling
    with replacement is required because per-client counts may sum past the
    dataset size.  Clients draw one after another in row order.

    Every shard is a read-only array of the `Partition` index width.  iid
    takes all shards from one `integers` call, each client's the slice
    between the cumulative counts.  That gives the same numbers, and leaves
    `rng` in the same state, as one call per client: `integers` takes each
    bounded value from the bit generator's own 32- or 64-bit stream, and
    PCG64 keeps a spare 32-bit half in its state, so a call boundary moves
    no draw.  The stream is chosen by the range alone, so an int32 draw
    gives the values, and leaves the state, that an int64 draw would.
    non_iid cannot draw at once, because each client's class `choice` sits
    between its index draws; its class pools are cast to the index width
    once, and each shard is a gather from one.
    """
    check_partition(dataset, mode, classes_per_client)
    counts = population.data_count
    width = np.int32 if len(dataset) <= 2**31 else np.int64
    if mode == "iid":
        flat = rng.integers(0, len(dataset), size=int(counts.sum()), dtype=width)
        flat.setflags(write=False)
        ends = np.cumsum(counts).tolist()
        shards = tuple(flat[start:end] for start, end in zip([0, *ends], ends))
        return Partition(shards=shards, mode=mode, classes_per_client=classes_per_client)

    by_class = [np.flatnonzero(dataset.labels == c).astype(width) for c in range(dataset.n_classes)]
    shards = []
    for count in counts.tolist():
        classes = rng.choice(dataset.n_classes, size=classes_per_client, replace=False)
        pool = np.concatenate([by_class[c] for c in sorted(classes)])
        idx = pool[rng.integers(0, len(pool), size=count)]
        idx.setflags(write=False)
        shards.append(idx)
    return Partition(shards=tuple(shards), mode=mode, classes_per_client=classes_per_client)


# ---------------------------------------------------------------------------
# Native model: small feed-forward softmax classifier
# ---------------------------------------------------------------------------


class MlpNet:
    """Feed-forward softmax classifier over flat feature vectors.

    Hidden layers (ReLU) are optional; with none this is plain multinomial
    logistic regression.  Parameters travel as one flat float64 vector so
    they can be averaged without knowing the layout.  Layer by layer it
    holds W (a x b) and then the bias b, row-major, which is the (a + 1) x b
    matrix [W; b]; every layer's input gets a trailing column of ones, so one
    matmul applies both.  The forward and backward passes work on a stack of
    m parameter vectors, shape (m, P), each applied to its own batch of equal
    row count, shape (m, rows, d); a single model is a stack of one.
    """

    def __init__(self, n_features: int, n_classes: int, hidden: tuple[int, ...] = ()):
        if not 1 <= n_features <= MAX_WIDTH:
            raise ParameterError(f"n_features must be in [1, {MAX_WIDTH}]", field="n_features")
        if not 2 <= n_classes <= MAX_WIDTH:
            raise ParameterError(f"n_classes must be in [2, {MAX_WIDTH}]", field="n_classes")
        if not all(is_integer(h) and 1 <= h <= MAX_WIDTH for h in hidden):
            message = f"hidden sizes must be integers in [1, {MAX_WIDTH}], got {hidden!r}"
            raise ParameterError(message, field="hidden")
        self.dims = (n_features, *hidden, n_classes)
        self.param_count = sum((a + 1) * b for a, b in zip(self.dims, self.dims[1:]))

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        return 0.01 * rng.normal(0.0, 1.0, size=self.param_count)

    def _unpack(self, params: np.ndarray) -> list[np.ndarray]:
        """Per layer, a (m, a + 1, b) view of the [W; b] blocks."""
        if params.shape[1] != self.param_count:
            raise ModelError(f"expected {self.param_count} parameters, got {params.shape[1]}")
        layers, pos = [], 0
        for a, b in zip(self.dims, self.dims[1:]):
            layers.append(params[:, pos : pos + (a + 1) * b].reshape(len(params), a + 1, b))
            pos += (a + 1) * b
        return layers

    @staticmethod
    def _forward(layers: list[np.ndarray], x1: np.ndarray):
        """Each layer's input, ones column included, and the logits."""
        activations = [x1]
        for w in layers[:-1]:
            h = np.ones(x1.shape[:2] + (w.shape[2] + 1,))
            z = np.matmul(activations[-1], w, out=h[..., :-1])
            np.maximum(z, 0.0, out=z)
            activations.append(h)
        return activations, activations[-1] @ layers[-1]

    @staticmethod
    def _softmax(logits: np.ndarray) -> np.ndarray:
        """Softmax over the last axis of a (m, rows, k) stack, in place."""
        # The row maxima come from a (k, m, rows) copy: k - 1 elementwise
        # maxima of long rows instead of one short reduction per row.  A
        # maximum is exact in any order.
        logits -= np.maximum.reduce(logits.transpose(2, 0, 1).copy(), axis=0)[..., None]
        np.exp(logits, out=logits)
        logits /= np.add.reduce(logits, axis=-1, keepdims=True)
        return logits

    def _backprop(self, layers, x1, onehot, grads) -> None:
        """Write the gradient of each model's mean softmax cross-entropy on
        its batch into `grads`, views laid out as `layers`: one [gW; gb] block
        per product of a layer's input and its delta.  Every slice goes
        through the same float operations as a model computed on its own, a
        stack of one: numpy's stacked matmul runs one BLAS product per slice."""
        activations, delta = self._forward(layers, x1)
        self._softmax(delta)
        delta -= onehot
        delta /= x1.shape[1]
        for i in range(len(layers) - 1, -1, -1):
            np.matmul(activations[i].transpose(0, 2, 1), delta, out=grads[i])
            if i > 0:
                w = layers[i][:, :-1].transpose(0, 2, 1)
                delta = (delta @ w) * (activations[i][..., :-1] > 0.0)

    def _logits(self, flat: np.ndarray, x1: np.ndarray) -> np.ndarray:
        """(rows, k) logits of one model on (rows, d + 1) inputs."""
        return self._forward(self._unpack(flat[None]), x1[None])[1][0]

    def loss_and_grad(self, flat: np.ndarray, x: np.ndarray, y: np.ndarray):
        """One model's mean softmax cross-entropy and its flat gradient."""
        x1, grad = with_ones(x)[None], np.empty(flat.shape)
        onehot = np.eye(self.dims[-1])[y][None]
        self._backprop(self._unpack(flat[None]), x1, onehot, self._unpack(grad[None]))
        probs = self._softmax(self._logits(flat, x1[0])[None])[0]
        return float(-np.mean(np.log(probs[np.arange(len(y)), y] + 1e-300))), grad


def with_ones(x: np.ndarray) -> np.ndarray:
    """`x` with a trailing column of ones: (..., d) -> (..., d + 1)."""
    return np.concatenate([x, np.ones((*x.shape[:-1], 1))], axis=-1)


def local_update(
    model: GlobalModel,
    data: LabeledDataset,
    rows: list[np.ndarray],
    net: MlpNet,
    hyper: SgdHyper,
    rng: np.random.Generator,
) -> list[GlobalModel]:
    """Every aggregated client's local pass from `model`, one per entry of `rows`.

    Each entry holds a client's row indices into the shared `data`, its
    shard.  A client runs epochs x ceil(n/batch) minibatch SGD steps; each
    epoch walks a fresh permutation of its rows, and the last batch of an
    epoch is short when batch does not divide n.  The learning rate is lr0 *
    lr_decay ** model.round, i.e. decay is applied per aggregation round, not
    per epoch.  The input model and the data are left untouched; the new
    snapshots keep the round counter.

    The result is bit for bit what one pass per client, in the given order,
    sharing `rng`, would give:

    - Draws.  Training itself draws nothing, so every permutation is drawn
      up front in that loop's order: client by client, epoch by epoch.
    - Stacking.  Within an epoch, the j-th full batches of all clients that
      have one run as one stacked step.  Clients sit in the stack by
      descending count of full batches, so those clients are a prefix.
    - Short batches run alone, as a stack of one at their own row count.
      Padding one to a full batch with zero rows changes how BLAS blocks
      `x @ w`, which can change the last bit of the result.
    - Memory.  Each step gathers its rows from `data.inputs` and
      `data.onehot`, which the dataset builds once; no shard and no permuted
      copy of the features is kept.  Stack and gradient views are per call.
    """
    sizes = [len(r) for r in rows]
    if 0 in sizes:
        raise ParameterError("shard must be non-empty")
    if net.param_count != model.param_count:
        raise ModelError(
            f"model has {model.param_count} parameters, network expects {net.param_count}"
        )
    if not rows:
        return []
    batch, epochs = hyper.batch_size, hyper.epochs
    inputs, onehot = data.inputs, data.onehot

    # index[e, j, s] holds the rows of slot s's j-th full batch in epoch e,
    # widths[j] counts the slots that have one, and shorts[s][e] holds the
    # rows of slot s's short batch in epoch e (possibly none).
    full = [n // batch for n in sizes]
    slots = sorted(range(len(rows)), key=lambda c: -full[c])
    slot_of = np.argsort(slots)
    index = np.zeros((epochs, full[slots[0]], len(slots), batch), dtype=np.int64)
    shorts: list[list[np.ndarray]] = [[] for _ in slots]
    for c, (shard, n) in enumerate(zip(rows, sizes)):
        s, q = slot_of[c], full[c]
        for e in range(epochs):
            order = shard[rng.permutation(n)]
            index[e, :q, s] = order[: q * batch].reshape(q, batch)
            shorts[s].append(order[q * batch :])
    widths = [sum(q > j for q in full) for j in range(full[slots[0]])]

    lr = hyper.lr0 * hyper.lr_decay**model.round
    params = np.tile(model.params, (len(slots), 1))
    grads = np.empty_like(params)

    def views(lo: int, hi: int):
        stack, grad = params[lo:hi], grads[: hi - lo]
        return stack, net._unpack(stack), grad, net._unpack(grad)

    stacks = {width: views(0, width) for width in set(widths)}
    alone = [views(s, s + 1) for s in range(len(slots))]

    def step(stack, layers, grad, grad_layers, picked: np.ndarray) -> None:
        net._backprop(layers, inputs.take(picked, 0), onehot.take(picked, 0), grad_layers)
        grad *= lr
        stack -= grad

    for e in range(epochs):
        for j, width in enumerate(widths):
            step(*stacks[width], index[e, j, :width])
        for s, short in enumerate(shorts):
            if short[e].size:
                step(*alone[s], short[e][None])
    return [GlobalModel(params=row, round=model.round) for row in params[slot_of]]


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def aggregate(updates: list[tuple[GlobalModel, int]], weighted: bool = False) -> GlobalModel:
    """Average client parameter vectors into the next global model.

    Unweighted by default; `weighted` switches to a data-count-weighted mean.
    Contributions are summed in a canonical order (sorted by parameter bytes,
    then weight) relative to a reference vector, which makes the result
    exactly permutation-invariant and makes averaging N identical models
    return those parameters bit for bit.  An unweighted average of one
    model repeated, as the surrogate trainer's updates are, skips the sum
    and every per-update check but the weights': that sum would give
    `params + 0.0`, the same bytes, -0.0 entries turned to 0.0 included.
    """
    if not updates:
        raise ParameterError("aggregate requires at least one update")
    first = updates[0][0]
    if not weighted and all(m is first and w >= 0 for m, w in updates):
        return GlobalModel(params=first.params + 0.0, round=first.round + 1)
    count = first.param_count
    for m, w in updates:
        if m.param_count != count:
            raise ModelError("all updates must have the same parameter count")
        if w < 0:
            raise ParameterError("weights must be non-negative")
    if weighted:
        total = float(sum(w for _, w in updates))
        if total <= 0:
            raise ParameterError("weighted aggregation requires a positive total weight")
        coeffs = [w / total for _, w in updates]
    else:
        coeffs = [1.0 / len(updates)] * len(updates)
    next_round = max(m.round for m, _ in updates) + 1
    canon = sorted(
        zip(updates, coeffs), key=lambda item: (item[0][0].params.tobytes(), item[0][1])
    )
    ref = canon[0][0][0].params
    acc = np.zeros(count)
    for (m, _), coeff in canon:
        acc += coeff * (m.params - ref)
    return GlobalModel(params=ref + acc, round=next_round)


# ---------------------------------------------------------------------------
# Trainers
# ---------------------------------------------------------------------------


def surrogate_accuracy(update_count: int, a_max: float, tau: float) -> float:
    """Saturating accuracy curve: a_max * (1 - exp(-updates / tau))."""
    if update_count < 0:
        raise ParameterError("update_count must be >= 0")
    if not 0 <= a_max <= 1:
        raise ParameterError("a_max must be in [0, 1]", field="a_max")
    if tau <= 0:
        raise ParameterError("tau must be positive", field="tau")
    return a_max * (1.0 - math.exp(-update_count / tau))


class Trainer(abc.ABC):
    """Protocol-facing training interface.

    The round loop calls init_model once; then, per aggregation,
    client_updates once with every aggregated client, and evaluate to obtain
    the accuracy recorded for the round.  No other call tells a trainer
    which clients were aggregated.

    client_updates(model, rows, rng) returns one model per client, in the
    order given, each trained from `model` on that client's data alone.  A
    client is its `Population` row, a plain int.
    Every training draw comes from `rng`, in the order that training the
    clients one after another would take them, so a trainer may batch the
    work across clients without changing a result.
    """

    @abc.abstractmethod
    def init_model(self) -> GlobalModel: ...

    @abc.abstractmethod
    def client_updates(
        self, model: GlobalModel, rows: list[int], rng: np.random.Generator
    ) -> list[GlobalModel]: ...

    @abc.abstractmethod
    def evaluate(self, model: GlobalModel) -> float: ...


@dataclass
class SurrogateTrainer(Trainer):
    """Accuracy stand-in driven purely by the cumulative update count.

    Each (client, round) pair that reaches aggregation bumps the counter
    when the round loop asks for its updates; accuracy is the deterministic
    saturating curve over that counter, so protocol-level experiments never
    touch real training.
    """

    a_max: float = 0.9
    tau: float = 100.0
    update_count: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        surrogate_accuracy(0, self.a_max, self.tau)  # the curve's own checks of a_max and tau

    def init_model(self) -> GlobalModel:
        return GlobalModel(params=np.zeros(0), round=0)

    def client_updates(self, model, rows, rng):
        self.update_count += len(rows)
        return [model] * len(rows)

    def evaluate(self, model) -> float:
        return surrogate_accuracy(self.update_count, self.a_max, self.tau)


class NativeTrainer(Trainer):
    """Real minibatch SGD on per-client shards of a labelled dataset."""

    def __init__(
        self,
        train_set: LabeledDataset,
        test_set: LabeledDataset,
        partition: Partition,
        net: MlpNet,
        hyper: SgdHyper,
        init_rng: np.random.Generator,
    ):
        self.check_sets(train_set, test_set)
        self.train_set = train_set
        self.test_set = test_set
        self.partition = partition
        self.net = net
        self.hyper = hyper
        self._init_params = net.init_params(init_rng)

    @staticmethod
    def check_sets(train_set: LabeledDataset, test_set: LabeledDataset) -> None:
        """The sets a native run can use: the same class and feature counts,
        and a test set that is not empty."""
        for name, train, test in (
            ("class", train_set.n_classes, test_set.n_classes),
            ("feature", train_set.features.shape[1], test_set.features.shape[1]),
        ):
            if train != test:
                raise ParameterError(
                    f"train and test sets must agree on the {name} count, got {train} and {test}"
                )
        if not len(test_set):
            raise ParameterError("test set is empty")

    def init_model(self) -> GlobalModel:
        return GlobalModel(params=self._init_params, round=0)

    def client_updates(self, model, rows, rng):
        shards = self.partition.shards
        for row in rows:
            if not 0 <= row < len(shards):  # a bare index would take -1 as the last
                raise ParameterError(f"row {int(row)} has no shard in the partition")
        return local_update(
            model, self.train_set, [shards[row] for row in rows], self.net, self.hyper, rng
        )

    def evaluate(self, model) -> float:
        logits = self.net._logits(model.params, self.test_set.inputs)
        return float(np.mean(np.argmax(logits, axis=1) == self.test_set.labels))
