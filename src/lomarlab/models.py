"""Local models and client-side training.

Two model families share the flat parameter layout: multinomial logistic
regression (the default) and a one-hidden-layer ReLU MLP. Per label r the block
is [w_r, b_r]; the MLP appends the hidden layer (W1 then b1) as the shared
block. Training is plain minibatch SGD on cross-entropy; a client update is the
weight delta produced by E local epochs from the incoming joint model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import LayoutError, ParamLayout, ParamVector

MODEL_KINDS = ("logistic", "mlp")
ROLE_CLEAN = "clean"
ROLE_MALICIOUS = "malicious"


@dataclass(frozen=True)
class ModelSpec:
    """Architecture and local-training hyperparameters shared by all clients."""

    kind: str = "logistic"
    input_dim: int = 784
    num_labels: int = 10
    hidden_dim: int | None = None
    learning_rate: float = 0.05
    local_epochs: int = 5
    batch_size: int = 20

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.input_dim < 1 or self.num_labels < 2:
            raise ValueError("need input_dim >= 1 and num_labels >= 2")
        if self.kind == "mlp" and (self.hidden_dim is None or self.hidden_dim < 1):
            raise ValueError("mlp needs hidden_dim >= 1")
        # learning_rate == 0 is legal: it yields the identity update and is
        # used to probe the delta algebra.
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.local_epochs < 1 or self.batch_size < 1:
            raise ValueError("need local_epochs >= 1 and batch_size >= 1")

    def layout(self) -> ParamLayout:
        if self.kind == "logistic":
            block = self.input_dim + 1
            shared = 0
        else:
            block = self.hidden_dim + 1
            shared = self.hidden_dim * self.input_dim + self.hidden_dim
        ranges = tuple((r * block, (r + 1) * block) for r in range(self.num_labels))
        total = self.num_labels * block
        return ParamLayout(ranges, (total, total + shared))

    def init_params(self) -> ParamVector:
        """Round-zero joint model: all zeros."""
        return ParamVector.zeros(self.layout())


@dataclass
class ClientUpdate:
    """One client's round contribution: a weight delta plus bookkeeping."""

    client_id: int
    delta: ParamVector
    num_samples: int
    role: str = ROLE_CLEAN

    def __post_init__(self):
        if self.num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        if self.role not in (ROLE_CLEAN, ROLE_MALICIOUS):
            raise ValueError(f"unknown role {self.role!r}")


def label_slice(update: ClientUpdate, label: int) -> np.ndarray:
    """The update's block for output label r (the defense's unit of analysis)."""
    return update.delta.label_slice(label)


def _unpack_logistic(values: np.ndarray, spec: ModelSpec):
    block = values[: spec.num_labels * (spec.input_dim + 1)].reshape(spec.num_labels, spec.input_dim + 1)
    return block[:, : spec.input_dim], block[:, spec.input_dim]


def _unpack_mlp(values: np.ndarray, spec: ModelSpec):
    h, d, r = spec.hidden_dim, spec.input_dim, spec.num_labels
    out = values[: r * (h + 1)].reshape(r, h + 1)
    shared = values[r * (h + 1):]
    w1 = shared[: h * d].reshape(h, d)
    b1 = shared[h * d:]
    return out[:, :h], out[:, h], w1, b1


def _logits(values: np.ndarray, spec: ModelSpec, x: np.ndarray) -> np.ndarray:
    if spec.kind == "logistic":
        w, b = _unpack_logistic(values, spec)
        return x @ w.T + b
    w2, b2, w1, b1 = _unpack_mlp(values, spec)
    hidden = np.maximum(x @ w1.T + b1, 0.0)
    return hidden @ w2.T + b2


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def predict(joint: ParamVector, features: np.ndarray, spec: ModelSpec) -> np.ndarray:
    """Argmax label(s); ties resolve to the lowest label index.

    Accepts a single feature vector or a batch; returns an int64 scalar array
    element or a 1-D label array to match.
    """
    x = np.asarray(features, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != spec.input_dim:
        raise ValueError(f"feature dim {x.shape[1]} != input_dim {spec.input_dim}")
    labels = np.argmax(_logits(joint.values, spec, x), axis=1)
    return labels[0] if single else labels


def loss_and_grad(params: ParamVector, spec: ModelSpec, x: np.ndarray, y: np.ndarray):
    """Mean cross-entropy over the batch and its gradient as a ParamVector."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n = x.shape[0]
    grad = np.zeros_like(params.values)
    if spec.kind == "logistic":
        w, b = _unpack_logistic(params.values, spec)
        logits = x @ w.T + b
        p = _softmax(logits)
        loss = -np.mean(np.log(np.clip(p[np.arange(n), y], 1e-300, None)))
        dlogits = p.copy()
        dlogits[np.arange(n), y] -= 1.0
        dlogits /= n
        gblock = _unpack_logistic(grad, spec)
        gblock[0][:] = dlogits.T @ x
        gblock[1][:] = dlogits.sum(axis=0)
    else:
        w2, b2, w1, b1 = _unpack_mlp(params.values, spec)
        pre = x @ w1.T + b1
        hidden = np.maximum(pre, 0.0)
        logits = hidden @ w2.T + b2
        p = _softmax(logits)
        loss = -np.mean(np.log(np.clip(p[np.arange(n), y], 1e-300, None)))
        dlogits = p.copy()
        dlogits[np.arange(n), y] -= 1.0
        dlogits /= n
        dhidden = (dlogits @ w2) * (pre > 0.0)
        gw2, gb2, gw1, gb1 = _unpack_mlp(grad, spec)
        gw2[:] = dlogits.T @ hidden
        gb2[:] = dlogits.sum(axis=0)
        gw1[:] = dhidden.T @ x
        gb1[:] = dhidden.sum(axis=0)
    return loss, ParamVector(grad, params.layout)


def local_train(joint: ParamVector, shard, spec: ModelSpec, rng_seed) -> ClientUpdate:
    """Run E epochs of minibatch SGD from the joint model, return the delta.

    rng_seed may be an int, a numpy SeedSequence, or a Generator. Passing the
    same Generator object across successive single-epoch calls reproduces one
    multi-epoch call exactly, since the permutation stream is consumed in
    order.
    """
    x = np.asarray(shard.features, dtype=np.float64)
    y = np.asarray(shard.labels, dtype=np.int64)
    if x.shape[0] == 0:
        raise ValueError("empty shard")
    if x.shape[1] != spec.input_dim:
        raise ValueError(f"shard feature dim {x.shape[1]} != input_dim {spec.input_dim}")
    if y.min() < 0 or y.max() >= spec.num_labels:
        raise ValueError("shard labels out of range for the model")
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)

    n = x.shape[0]
    work = joint.copy()
    for _ in range(spec.local_epochs):
        order = rng.permutation(n)
        for start in range(0, n, spec.batch_size):
            batch = order[start: start + spec.batch_size]
            _, grad = loss_and_grad(work, spec, x[batch], y[batch])
            work.values -= spec.learning_rate * grad.values
    return ClientUpdate(
        client_id=shard.owner,
        delta=work - joint,
        num_samples=n,
        role=getattr(shard, "role", ROLE_CLEAN),
    )
