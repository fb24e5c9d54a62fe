"""Local models and client-side training.

Two model families share the flat parameter layout: multinomial logistic
regression (the default) and a one-hidden-layer ReLU MLP. Per label r the block
is [w_r, b_r]; the MLP appends the hidden layer (W1 then b1) as the shared
block. Training is plain minibatch SGD on cross-entropy, run in float32; a client
update is the float64 weight delta produced by E local epochs from the joint model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

MODEL_KINDS = ("logistic", "mlp")
EVAL_CHUNK_ROWS = 1024  # predict widens this many rows to float64 at a time
TRAIN_GROUP_BYTES = 512 * 1024  # cap on the float32 batch rows one lockstep training group gathers


@dataclass(frozen=True)
class ParamLayout:
    """Per-label blocks of a flat parameter vector, the slices the density-ratio defense keys on.

    Label r's block holds label_sizes[r] entries, in label order from index 0;
    the shared_size label-independent entries come last.
    """

    label_sizes: tuple[int, ...]
    shared_size: int = 0

    def __post_init__(self):
        if not self.label_sizes or min(self.label_sizes) < 1 or self.shared_size < 0:
            raise ValueError(f"need label sizes >= 1 and shared_size >= 0, got {self.label_sizes}, {self.shared_size}")

    @property
    def num_labels(self) -> int:
        return len(self.label_sizes)

    @property
    def size(self) -> int:
        return sum(self.label_sizes) + self.shared_size

    def label_slice(self, label: int) -> slice:
        if not 0 <= label < self.num_labels:
            raise ValueError(f"label {label} out of range for {self.num_labels} labels")
        start = sum(self.label_sizes[:label])
        return slice(start, start + self.label_sizes[label])


@dataclass
class ParamVector:
    """A flat float64 parameter vector bound to a layout."""

    values: np.ndarray
    layout: ParamLayout

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.layout.size,):
            raise ValueError(f"values of shape {self.values.shape} for layout size {self.layout.size}")


@dataclass(frozen=True)
class ModelSpec:
    """Architecture and local-training hyperparameters shared by all clients."""

    kind: str = "logistic"
    input_dim: int | None = None  # None: taken from the data by fit
    num_labels: int | None = None
    hidden_dim: int | None = None
    learning_rate: float = 0.05
    local_epochs: int = 5
    batch_size: int = 20

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.input_dim is not None and self.input_dim < 1 or self.num_labels is not None and self.num_labels < 2:
            raise ValueError("need input_dim >= 1 and num_labels >= 2")
        if self.kind == "mlp" and (self.hidden_dim is None or self.hidden_dim < 1):
            raise ValueError("mlp needs hidden_dim >= 1")
        # learning_rate == 0 is legal: it yields the identity update and is
        # used to probe the delta algebra.
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.local_epochs < 1 or self.batch_size < 1:
            raise ValueError("need local_epochs >= 1 and batch_size >= 1")

    def fit(self, input_dim: int, num_labels: int) -> ModelSpec:
        """This spec at the data's dims; a ValueError if a dim it already sets differs."""
        for name, value in (("input_dim", input_dim), ("num_labels", num_labels)):
            if getattr(self, name) not in (None, value):
                raise ValueError(f"model {name} {getattr(self, name)} != the data's {value}")
        return replace(self, input_dim=input_dim, num_labels=num_labels)

    @property
    def output_fan_in(self) -> int:
        """Inputs to each label's logit: the features, or the hidden units."""
        if self.input_dim is None or self.num_labels is None:
            raise ValueError("model dims are unset: call fit(input_dim, num_labels) first")
        return self.input_dim if self.kind == "logistic" else self.hidden_dim

    def layout(self) -> ParamLayout:
        block = self.output_fan_in + 1
        shared = 0 if self.kind == "logistic" else self.hidden_dim * (self.input_dim + 1)
        return ParamLayout((block,) * self.num_labels, shared)

    def init_params(self) -> ParamVector:
        """Round-zero joint model: all zeros."""
        layout = self.layout()
        return ParamVector(np.zeros(layout.size), layout)


@dataclass(eq=False)
class Round:
    """One round's submissions as one matrix: row i is client ids[i]'s delta.

    ids is an int64 array; deltas is (n, layout.size) float64 and is taken as
    is when it already has that dtype. Every client of a run trains the same
    number of rows, so a round carries no sample counts. The constructor
    rejects an empty round, repeated ids and rows that do not fit the layout.
    """

    ids: np.ndarray
    deltas: np.ndarray
    layout: ParamLayout

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.deltas = np.asarray(self.deltas, dtype=np.float64)
        n = len(self.ids)
        if n == 0:
            raise ValueError("no updates to aggregate")
        if len(np.unique(self.ids)) != n:
            raise ValueError("duplicate client ids")
        if self.deltas.shape != (n, self.layout.size):
            raise ValueError(f"update layout does not match: deltas {self.deltas.shape}, size {self.layout.size}")

    def select(self, positions) -> "Round":
        """The rows at `positions`, in that order."""
        return Round(self.ids[positions], self.deltas[positions], self.layout)


def _unpack(values: np.ndarray, spec: ModelSpec):
    """Views (w, b, w1, b1) into a flat vector or a stack of them; w1 and b1 are None for the logistic model."""
    m, r, d, lead = spec.output_fan_in, spec.num_labels, spec.input_dim, values.shape[:-1]
    out, shared = values[..., : r * (m + 1)].reshape(*lead, r, m + 1), values[..., r * (m + 1):]
    w1, b1 = (None, None) if spec.kind == "logistic" else (shared[..., : m * d].reshape(*lead, m, d), shared[..., m * d:])
    return out[..., :m], out[..., m], w1, b1


def _logits(views, x: np.ndarray):
    """(hidden, logits) of batch x at _unpack's views, stacked as they are; the logistic hidden layer is x itself."""
    w, b, w1, b1 = views
    hidden = x
    if w1 is not None:
        hidden = x @ np.swapaxes(w1, -1, -2)
        hidden += b1[..., None, :]
        np.maximum(hidden, 0.0, out=hidden)
    logits = hidden @ np.swapaxes(w, -1, -2)
    logits += b[..., None, :]
    return hidden, logits


def predict(joint: ParamVector, features: np.ndarray, spec: ModelSpec) -> np.ndarray:
    """Argmax label(s); ties resolve to the lowest label index.

    Accepts a single feature vector or a batch; returns an int64 scalar array
    element or a 1-D label array to match. The batch is evaluated in chunks of
    EVAL_CHUNK_ROWS rows, each widened to float64, so a float32 test set is
    never copied whole.
    """
    single = np.ndim(features) == 1
    x = np.atleast_2d(features)
    if x.shape[1] != spec.input_dim:
        raise ValueError(f"feature dim {x.shape[1]} != input_dim {spec.input_dim}")
    views, labels = _unpack(joint.values, spec), np.empty(len(x), dtype=np.int64)
    for start in range(0, len(x), EVAL_CHUNK_ROWS):
        chunk = slice(start, start + EVAL_CHUNK_ROWS)
        np.argmax(_logits(views, x[chunk].astype(np.float64, copy=False))[1], axis=1, out=labels[chunk])
    return labels[0] if single else labels


def _label_reduce(ufunc, p: np.ndarray) -> np.ndarray:
    """ufunc.reduce over p's last (label) axis with keepdims, bitwise numpy's per-row reduce, one inner loop per label.

    A max is exact in any order. numpy sums a row of fewer than 8 terms in label order, as the label-major copy does;
    from 8 terms on it sums pairwise, so that sum stays numpy's row reduce."""
    if ufunc is np.add and p.shape[-1] >= 8:
        return np.add.reduce(p, axis=-1, keepdims=True)
    return ufunc.reduce(np.moveaxis(p, -1, 0).copy(), axis=0)[..., None]


def _gradient(views, grad, x: np.ndarray, onehot: np.ndarray, p_true=None):
    """Write the mean cross-entropy gradient of batch x at `views` into all of `grad` (both _unpack's views).

    onehot holds the batch's labels as one-hot rows; p_true, if given, receives each true-label probability.
    Every operand shares one dtype, and the arithmetic runs in it. All may carry one leading group axis: each
    member then takes a lone batch's operations on its own slices.
    """
    hidden, p = _logits(views, x)
    p -= _label_reduce(np.maximum, p)
    np.exp(p, out=p)
    p /= _label_reduce(np.add, p)
    if p_true is not None:
        p_true[:] = p[onehot == 1.0]
    p -= onehot
    p /= x.shape[-2]
    gw, gb, gw1, gb1 = grad
    np.matmul(np.swapaxes(p, -1, -2), hidden, out=gw)
    np.add.reduce(p, axis=-2, out=gb)
    if gw1 is not None:
        dhidden = p @ views[0]
        dhidden *= hidden > 0.0
        np.matmul(np.swapaxes(dhidden, -1, -2), x, out=gw1)
        np.add.reduce(dhidden, axis=-2, out=gb1)


def _check_labels(y: np.ndarray, spec: ModelSpec) -> np.ndarray:
    """y as int64 labels, or a ValueError if one lies outside [0, num_labels)."""
    y = np.asarray(y, dtype=np.int64)
    if y.min() < 0 or y.max() >= spec.num_labels:
        raise ValueError(f"labels out of range: the model takes [0, {spec.num_labels})")
    return y


def loss_and_grad(params: ParamVector, spec: ModelSpec, x: np.ndarray, y: np.ndarray):
    """Mean cross-entropy over the batch and its gradient as a ParamVector.

    x is a 2-D batch with input_dim columns and at least one row, and y holds one label per row.
    """
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y)
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise ValueError(f"batch of shape {x.shape} is not 2-D with {spec.input_dim} columns")
    if len(x) == 0 or y.shape != (len(x),):
        raise ValueError(f"{len(x)} rows and labels of shape {y.shape}: need one label per row and at least one row")
    onehot = np.eye(spec.num_labels)[_check_labels(y, spec)]
    grad, p_true = np.empty_like(params.values), np.empty(len(x))
    _gradient(_unpack(params.values, spec), _unpack(grad, spec), x, onehot, p_true)
    return -np.mean(np.log(np.clip(p_true, 1e-300, None))), ParamVector(grad, params.layout)


def local_train(joint: ParamVector, pool: np.ndarray, shards, spec: ModelSpec, seeds) -> np.ndarray:
    """E epochs of minibatch SGD per shard from the joint model; row i of the float64 result is shards[i]'s delta.

    pool is the run's 2-D float32 training array with input_dim columns, and
    shards are data.DataShards of row indices into it; seeds[i] (anything
    numpy.random.default_rng takes: an int, a list of ints, a SeedSequence or a
    Generator) draws shards[i]'s epoch permutations, so one Generator passed to
    successive single-epoch calls reproduces one multi-epoch call exactly. A
    shard that fits in one batch (len(shard) <= batch_size) trains every epoch
    in stored order and draws nothing: a shuffle would only reorder one sum. Every
    step runs in float32: a client's working row starts at float32(joint), each
    epoch gathers its shuffled row indices and float32 one-hot labels once, and
    each batch gathers its features from the pool. The delta is taken against
    float32(joint) and widened on return. All shards of one call are one length,
    as every client of a run trains samples_per_client rows; consecutive shards
    step in lockstep, as many as keep a batch gather within TRAIN_GROUP_BYTES.
    Each keeps its own working row (and generator), and the stacked kernel gives
    it a lone client's float32 operations on the same operands, so its delta is
    bitwise the one its shard trains alone.
    """
    if len(shards) != len(seeds):
        raise ValueError(f"{len(shards)} shards but {len(seeds)} seeds")
    if pool.dtype != np.float32 or pool.ndim != 2 or pool.shape[1] != spec.input_dim:
        raise ValueError(f"pool of {pool.dtype} {pool.shape} is not 2-D float32 with {spec.input_dim} columns")
    start_values, eye = joint.values.astype(np.float32), np.eye(spec.num_labels, dtype=np.float32)
    deltas = np.empty((len(shards), start_values.size))
    if not shards:
        return deltas
    lengths = sorted({len(shard) for shard in shards})
    if 0 in lengths:
        raise ValueError("empty shard")
    if len(lengths) > 1:
        raise ValueError(f"shards of {lengths} rows: all shards of one call must be one length")
    n = lengths[0]
    rows = np.stack([shard.rows for shard in shards])
    labels = _check_labels(np.stack([shard.labels for shard in shards]), spec)
    if rows.max() >= len(pool):
        raise ValueError(f"shard rows past the pool's {len(pool)} rows")
    group = max(1, TRAIN_GROUP_BYTES // (min(spec.batch_size, n) * spec.input_dim * 4))
    for begin in range(0, len(shards), group):
        members = slice(begin, begin + group)
        if n <= spec.batch_size:  # every epoch is one batch in stored order
            batches = [(rows[members], eye.take(labels[members], axis=0))] * spec.local_epochs
        else:
            batches = _shuffled_batches(rows[members], labels[members], eye, seeds[members], spec)
        work = np.tile(start_values, (len(rows[members]), 1))
        grad = np.empty_like(work)
        views, grad_views = _unpack(work, spec), _unpack(grad, spec)
        for batch_rows, onehot in batches:
            # the gather is freed as the step ends, so the next one reuses its memory
            _gradient(views, grad_views, pool.take(batch_rows, axis=0), onehot)
            grad *= spec.learning_rate
            work -= grad
        deltas[members] = work - start_values
    return deltas


def _shuffled_batches(rows: np.ndarray, labels: np.ndarray, eye: np.ndarray, seeds, spec: ModelSpec):
    """(pool row indices, one-hot labels) of each step of E shuffled epochs over a group's stacked shards.

    Each epoch draws one permutation per shard from the shard's own generator and gathers the permuted row
    indices and one-hot labels once; each step's batch is a slice of both.
    """
    rngs, n = [np.random.default_rng(seed) for seed in seeds], rows.shape[1]
    for _ in range(spec.local_epochs):
        orders = np.stack([rng.permutation(n) for rng in rngs])
        epoch_rows = np.take_along_axis(rows, orders, axis=1)
        onehot = eye.take(np.take_along_axis(labels, orders, axis=1), axis=0)
        for begin in range(0, n, spec.batch_size):
            batch = slice(begin, begin + spec.batch_size)
            yield epoch_rows[:, batch], onehot[:, batch]
