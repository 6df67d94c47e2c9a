"""Fully-connected networks with hand-written gradients and Adam.

Small, deterministic, float64 throughout. Layers hold (out x in) weight
matrices; a per-layer trainable mask implements parameter freezing for
transfer learning. Training is full batch: one Adam step per epoch.

During `train` the trainable parameters live in one contiguous buffer:
each trainable layer's weights and biases are rebound as views into it, so
Adam, the finiteness check and the best-epoch snapshot each touch a single
array, and networks that share the layers see the trained values without a
copy-back. `backward` stops at the first trainable layer; the frozen layers
below it get no gradient because nothing reads one.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

ACTIVATIONS = ("relu", "identity")

FORMAT_VERSION = 1


class TrainingDiverged(RuntimeError):
    """Raised when the training loss or a parameter becomes non-finite."""

    def __init__(self, epoch, message="non-finite value during training"):
        super().__init__(f"{message} at epoch {epoch}")
        self.epoch = epoch


class DenseLayer:
    """One affine map plus activation: a(W x + b)."""

    def __init__(self, weights, biases, activation="relu"):
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.weights = np.asarray(weights, dtype=np.float64)
        self.biases = np.asarray(biases, dtype=np.float64)
        self.activation = activation
        if self.weights.ndim != 2 or self.biases.shape != (self.weights.shape[0],):
            raise ValueError("weights must be (out, in) with matching bias length")

    @property
    def n_in(self):
        return self.weights.shape[1]

    @property
    def n_out(self):
        return self.weights.shape[0]

    @classmethod
    def init(cls, n_in, n_out, activation, rng):
        """He-uniform init for relu layers, Xavier-uniform for identity."""
        if activation == "relu":
            bound = math.sqrt(6.0 / n_in)
        else:
            bound = math.sqrt(6.0 / (n_in + n_out))
        w = rng.uniform(-bound, bound, size=(n_out, n_in))
        return cls(w, np.zeros(n_out), activation)


class Mlp:
    """Ordered stack of DenseLayers with a per-layer trainable mask."""

    def __init__(self, layers, trainable=None, seed=None):
        self.layers = list(layers)
        if not self.layers:
            raise ValueError("Mlp needs at least one layer")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.n_out != b.n_in:
                raise ValueError(f"layer dims do not chain: {a.n_out} -> {b.n_in}")
        self.trainable = [True] * len(self.layers) if trainable is None else list(trainable)
        if len(self.trainable) != len(self.layers):
            raise ValueError("trainable mask length mismatch")
        self.seed = seed

    @property
    def n_in(self):
        return self.layers[0].n_in

    @property
    def n_out(self):
        return self.layers[-1].n_out

    @classmethod
    def from_widths(cls, n_in, hidden, n_out, seed, hidden_activation="relu"):
        """Build [n_in -> hidden... -> n_out] with an identity output layer."""
        rng = np.random.default_rng(seed)
        dims = [n_in] + list(hidden) + [n_out]
        layers = []
        for i in range(len(dims) - 1):
            act = hidden_activation if i < len(dims) - 2 else "identity"
            layers.append(DenseLayer.init(dims[i], dims[i + 1], act, rng))
        return cls(layers, seed=seed)


def stack(*nets, trainable=None):
    """Compose networks into one Mlp sharing the underlying layer objects.

    Training the stack updates the original networks in place; `trainable`
    is a per-source-net mask (True = that net's layers train).
    """
    layers, mask = [], []
    if trainable is None:
        trainable = [True] * len(nets)
    for net, flag in zip(nets, trainable):
        layers.extend(net.layers)
        mask.extend([flag and t for t in net.trainable])
    return Mlp(layers, trainable=mask)


def forward(net, x):
    """Run the network; returns (output, cache) where the cache holds the
    per-layer inputs and pre-activations needed by `backward`.

    `x` may be a single vector (d,) or a batch (n, d).
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    a = x[None, :] if single else x
    if a.shape[1] != net.n_in:
        raise ValueError(f"input size {a.shape[1]} != expected {net.n_in}")
    cache = []
    for layer in net.layers:
        z = a @ layer.weights.T + layer.biases
        cache.append((a, z))
        a = np.maximum(z, 0.0) if layer.activation == "relu" else z
    y = a[0] if single else a
    return y, cache


def backward(net, cache, grad_out):
    """Backpropagate; returns one (dW, db) pair per trainable layer.

    Frozen layers above a trainable one pass the upstream gradient through
    but contribute no parameter gradients. The pass ends at the first
    trainable layer: it forms no input gradient there and visits no layer
    below it. `grad_out` must match the forward batch shape.
    """
    g = np.asarray(grad_out, dtype=np.float64)
    if g.ndim == 1:
        g = g[None, :]
    if len(cache) != len(net.layers):
        raise ValueError("cache does not match network depth")
    first = net.trainable.index(True) if any(net.trainable) else len(net.layers)
    grads = []
    for i in range(len(net.layers) - 1, first - 1, -1):
        layer = net.layers[i]
        a_in, z = cache[i]
        if g.shape != z.shape:
            raise ValueError(f"stale cache: gradient shape {g.shape} != {z.shape}")
        if layer.activation == "relu":
            g = g * (z > 0.0)
        if net.trainable[i]:
            grads.append((g.T @ a_in, g.sum(axis=0)))
        if i > first:
            g = g @ layer.weights
    return grads[::-1]


def trainable_parameters(net):
    """Views of the trainable parameter arrays, ordered [W, b] per layer."""
    params = []
    for layer, flag in zip(net.layers, net.trainable):
        if flag:
            params.extend([layer.weights, layer.biases])
    return params


def _flatten_trainable(net):
    """Copy the trainable parameters into one contiguous buffer, ordered as
    `trainable_parameters`, and rebind each trainable layer's weights and
    biases as views into it. Returns the buffer (empty when nothing trains).
    """
    params = trainable_parameters(net)
    if not params:
        return np.zeros(0)
    flat = np.concatenate([p.ravel() for p in params])
    offset = 0
    for layer, flag in zip(net.layers, net.trainable):
        if flag:
            for name in ("weights", "biases"):
                a = getattr(layer, name)
                setattr(layer, name, flat[offset:offset + a.size].reshape(a.shape))
                offset += a.size
    return flat


def mse_loss(pred, target):
    """Mean squared error over all entries and its gradient w.r.t. pred."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
    diff = pred - target
    loss = float(np.mean(diff * diff))
    grad = 2.0 * diff / diff.size
    return loss, grad


@dataclass
class AdamConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


class AdamState:
    """First/second-moment accumulators matching a parameter list, plus two
    scratch arrays per parameter so that a step allocates nothing."""

    def __init__(self, params, config=None):
        self.config = config or AdamConfig()
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.scratch = [(np.empty_like(p), np.empty_like(p)) for p in params]
        self.t = 0


def adam_step(state, params, grads):
    """One Adam update with bias correction; parameters change in place.

    The operations run in the textbook order (m_hat = m / (1 - beta1**t),
    then lr * m_hat / (sqrt(v_hat) + eps)), in place in the scratch arrays,
    so every bit matches the expression form.
    """
    if len(params) != len(state.m) or len(grads) != len(params):
        raise ValueError("parameter/gradient/state length mismatch")
    c = state.config
    state.t += 1
    t = state.t
    for p, g, m, v, (s1, s2) in zip(params, grads, state.m, state.v, state.scratch):
        m *= c.beta1
        np.multiply(g, 1.0 - c.beta1, out=s1)
        m += s1
        v *= c.beta2
        np.multiply(g, g, out=s1)
        s1 *= 1.0 - c.beta2
        v += s1
        np.divide(m, 1.0 - c.beta1**t, out=s1)
        s1 *= c.lr
        np.divide(v, 1.0 - c.beta2**t, out=s2)
        np.sqrt(s2, out=s2)
        s2 += c.eps
        s1 /= s2
        p -= s1


@dataclass
class TrainResult:
    losses: list = field(default_factory=list)
    val_losses: list = None
    best_epoch: int = None
    halted_early: bool = False


def train(net, inputs, targets, epochs, adam=None, monitor=None, patience=100):
    """Full-batch gradient descent with Adam.

    inputs/targets are (n, d_in)/(n, d_out). With `monitor=(x_val, y_val)`
    the validation MSE is tracked per epoch (epoch 0 = initial weights);
    training halts after `patience` epochs without strict improvement
    (best - 1e-12) and the best-epoch weights are restored. Deterministic:
    no randomness beyond the layer initialization seeds.

    Each trainable layer's weights and biases come out as views into one
    buffer (see the module docstring); hold the layer, not its arrays.

    Raises TrainingDiverged if the loss or any parameter goes non-finite.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    x = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("inputs/targets must be (n, d_in)/(n, d_out) with equal n")
    flat = _flatten_trainable(net)
    gflat = np.empty_like(flat)
    state = AdamState([flat], adam)

    def val_mse():
        pred, _ = forward(net, monitor[0])
        return float(np.mean((pred - monitor[1]) ** 2))

    result = TrainResult()
    best = None
    if monitor is not None:
        result.val_losses = [val_mse()]
        result.best_epoch = 0
        best = flat.copy()

    for epoch in range(1, epochs + 1):
        pred, cache = forward(net, x)
        loss, grad = mse_loss(pred, y)
        if not math.isfinite(loss):
            raise TrainingDiverged(epoch)
        result.losses.append(loss)
        grads = backward(net, cache, grad)
        if grads:  # np.concatenate refuses an empty list
            np.concatenate([g.ravel() for pair in grads for g in pair], out=gflat)
        adam_step(state, [flat], [gflat])
        if not np.isfinite(flat).all():
            raise TrainingDiverged(epoch, "non-finite parameter after update")
        if monitor is not None:
            v = val_mse()
            result.val_losses.append(v)
            if v < result.val_losses[result.best_epoch] - 1e-12:
                result.best_epoch = epoch
                np.copyto(best, flat)
            elif epoch - result.best_epoch >= patience:
                result.halted_early = True
                break

    if best is not None:
        np.copyto(flat, best)
    return result


def to_json(net):
    """Serialize a network to a self-describing JSON string (lossless)."""
    doc = {
        "format_version": FORMAT_VERSION,
        "seed": net.seed,
        "trainable": list(net.trainable),
        "layers": [
            {
                "in": layer.n_in,
                "out": layer.n_out,
                "activation": layer.activation,
                "weights": layer.weights.tolist(),
                "biases": layer.biases.tolist(),
            }
            for layer in net.layers
        ],
    }
    return json.dumps(doc)


def from_json(text):
    doc = json.loads(text)
    if doc.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported model format {doc.get('format_version')!r}")
    layers = [
        DenseLayer(spec["weights"], spec["biases"], spec["activation"])
        for spec in doc["layers"]
    ]
    return Mlp(layers, trainable=doc["trainable"], seed=doc["seed"])
