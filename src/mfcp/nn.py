"""Fully-connected networks with hand-written gradients and Adam.

Small, deterministic, float64 throughout. Layers hold (out x in) weight
matrices; a network of widths [n_in, ..., n_out] has relu hidden layers and
an identity output layer. Training is full batch: one Adam step per epoch.

`train` trains every layer of the net it is given, for any number of
epochs from 0; a caller freezes layers by running them first, as
`mfae.fine_tune` runs the encoder once and trains the decoder and up-scaler
on the latents. During `train` the parameters live in one contiguous
buffer: each layer's weights and biases are rebound as views into it, so
Adam, the finiteness check and the best-epoch snapshot each touch a single
array, and networks that share the layers see the trained values without a
copy-back. `backward` writes the gradients into a second buffer of the same
layout, which its caller owns; `adam_step` consumes them, using the buffer
as scratch once it has read them, and the next `backward` overwrites it.

`Mlp.trainable` only marks `fine_tune`'s encoder pass as frozen work for
the benchmark tracer (`perfbench/tracer.py`), and `train` refuses a net
with a frozen layer. It goes once the tracer stops reading it.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

ACTIVATIONS = ("relu", "identity")


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
    """Ordered stack of DenseLayers with a per-layer frozen-layer mask."""

    def __init__(self, layers, trainable=None):
        self.layers = list(layers)
        if not self.layers:
            raise ValueError("Mlp needs at least one layer")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.n_out != b.n_in:
                raise ValueError(f"layer dims do not chain: {a.n_out} -> {b.n_in}")
        self.trainable = [True] * len(self.layers) if trainable is None else list(trainable)
        if len(self.trainable) != len(self.layers):
            raise ValueError("trainable mask length mismatch")

    @property
    def n_in(self):
        return self.layers[0].n_in

    @classmethod
    def from_widths(cls, dims, seed):
        """The network of widths `dims` with fresh weights drawn from `seed`."""
        rng = np.random.default_rng(seed)
        return cls([DenseLayer.init(a, b, act, rng) for a, b, act in _layer_specs(dims)])

    @classmethod
    def from_parameters(cls, dims, flat):
        """The network of widths `dims` whose layers are views into the vector
        `flat`, laid out as `parameters`; ValueError for a `flat` of another size."""
        specs = _layer_specs(dims)
        size = sum(a * b + b for a, b, _ in specs)
        if flat.size != size:  # checked first: the layers below are allocated to their sizes
            raise ValueError(f"the layers hold {size} parameters, the parameter vector {flat.size}")
        layers = [DenseLayer(np.empty((b, a)), np.empty(b), act) for a, b, act in specs]
        _bind(layers, flat)
        return cls(layers)


def _layer_specs(dims):
    # (n_in, n_out, activation) per layer: relu hidden layers, an identity output
    return list(zip(dims, dims[1:], ["relu"] * (len(dims) - 2) + ["identity"]))


def stack(*nets):
    """Compose networks into one Mlp sharing the underlying layer objects and
    each net's frozen-layer mask. Training the stack updates the original
    networks in place."""
    return Mlp([layer for net in nets for layer in net.layers],
               trainable=[flag for net in nets for flag in net.trainable])


def forward(net, x):
    """Run the network on an (n, d_in) batch; returns the (n, d_out) output
    and the cache of per-layer inputs and pre-activations that `backward`
    needs. A single row is a (1, d_in) batch.
    """
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != net.n_in:
        raise ValueError(f"input must be an (n, {net.n_in}) batch, got shape {a.shape}")
    cache = []
    for layer in net.layers:
        z = a @ layer.weights.T
        z += layer.biases
        cache.append((a, z))
        a = np.maximum(z, 0.0) if layer.activation == "relu" else z
    return a, cache


def backward(net, cache, grad_out, out):
    """Backpropagate; returns one (dW, db) pair per layer.

    The pairs are views into `out`, a float64 vector laid out as `parameters`
    (`train` passes its gradient buffer). No input gradient is formed at the
    first layer. `grad_out` must match the forward output's (n, d_out)
    shape; neither it nor the cache is written to.
    """
    g = np.asarray(grad_out, dtype=np.float64)
    if len(cache) != len(net.layers):
        raise ValueError("cache does not match network depth")
    top = len(net.layers) - 1
    end = out.size  # the layers run top down, so the buffer fills from its end
    grads = []
    for i in range(top, -1, -1):
        layer = net.layers[i]
        a_in, z = cache[i]
        if g.shape != z.shape:
            raise ValueError(f"stale cache: gradient shape {g.shape} != {z.shape}")
        if layer.activation == "relu":
            # below the top layer g is this pass's own `g @ W` product
            g = np.multiply(g, z > 0.0, out=g if i < top else None)
        start = end - layer.weights.size - layer.biases.size
        dw = out[start:end - layer.biases.size].reshape(layer.weights.shape)
        db = out[end - layer.biases.size:end]
        np.matmul(g.T, a_in, out=dw)
        np.add.reduce(g, axis=0, out=db)  # g.sum(axis=0) without its Python wrapper
        grads.append((dw, db))
        end = start
        if i > 0:
            g = g @ layer.weights
    return grads[::-1]


def parameters(layers):
    """The parameters of `layers` in one new vector: each layer's weights, row
    major, then its biases. `train` trains in this layout and bundles store it."""
    return np.concatenate([a.ravel() for layer in layers for a in (layer.weights, layer.biases)])


def _bind(layers, flat):
    """Rebind each layer's weights and biases as views into `flat`, laid out as
    `parameters`. Returns `flat`."""
    start = 0
    for layer in layers:
        for name in ("weights", "biases"):
            a = getattr(layer, name)
            setattr(layer, name, flat[start:start + a.size].reshape(a.shape))
            start += a.size
    return flat


def mse_loss(pred, target):
    """Mean squared error over all entries and its gradient w.r.t. pred."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
    diff = pred - target
    # the gradient 2 * diff / size; the array freed on return is the one
    # allocated first, so glibc does not trim it off the heap's top and
    # fault its pages in again next epoch
    grad = diff * 2.0
    grad /= grad.size
    diff *= diff
    return float(np.add.reduce(diff, axis=None) / diff.size), grad  # the bits of np.mean


# Adam's moment decay rates and denominator offset: the defaults of Kingma & Ba
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class AdamState:
    """Adam at learning rate `lr`: first/second-moment accumulators matching a
    parameter list, plus one scratch array per parameter; with the gradients
    as the second scratch (see `adam_step`), a step allocates nothing."""

    def __init__(self, params, lr=1e-3):
        self.lr = lr
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.scratch = [np.empty_like(p) for p in params]
        self.t = 0


def adam_step(state, params, grads):
    """One Adam update with bias correction; parameters change in place.

    The operations run in the textbook order (m_hat = m / (1 - beta1**t),
    then lr * m_hat / (sqrt(v_hat) + eps)), in place in the scratch arrays,
    so every bit matches the expression form. The gradients are consumed:
    once read for the last time, each serves as scratch, and it holds
    sqrt(v_hat) + eps on return. Pass arrays that may be overwritten.
    """
    if len(params) != len(state.m) or len(grads) != len(params):
        raise ValueError("parameter/gradient/state length mismatch")
    state.t += 1
    t = state.t
    for p, g, m, v, s1 in zip(params, grads, state.m, state.v, state.scratch):
        m *= BETA1
        np.multiply(g, 1.0 - BETA1, out=s1)
        m += s1
        v *= BETA2
        np.multiply(g, g, out=s1)
        s1 *= 1.0 - BETA2
        v += s1
        np.divide(m, 1.0 - BETA1**t, out=s1)
        s1 *= state.lr
        np.divide(v, 1.0 - BETA2**t, out=g)  # g is read no more: the second scratch
        np.sqrt(g, out=g)
        g += EPS
        s1 /= g
        p -= s1


@dataclass
class TrainResult:
    losses: list = field(default_factory=list)
    val_losses: list = None
    best_epoch: int = None
    halted_early: bool = False


def train(net, inputs, targets, epochs, lr=1e-3, monitor=None, patience=100):
    """Full-batch gradient descent with Adam at rate `lr` for `epochs` >= 0
    epochs; 0 leaves the initial weights.

    inputs/targets are (n, d_in)/(n, d_out). With `monitor=(x_val, y_val)`
    the validation MSE is tracked per epoch (epoch 0 = initial weights);
    training halts after `patience` epochs without strict improvement
    (best - 1e-12) and the best-epoch weights are restored. Deterministic:
    no randomness beyond the layer initialization seeds.

    Every layer trains; its weights and biases come out as views into one
    buffer (see the module docstring); hold the layer, not its arrays.

    Raises ValueError for a net with a frozen layer, and TrainingDiverged if
    the loss or any parameter goes non-finite.
    """
    if not all(net.trainable):
        raise ValueError("train trains every layer; run the frozen ones first, outside the net")
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    x = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("inputs/targets must be (n, d_in)/(n, d_out) with equal n")
    flat = _bind(net.layers, parameters(net.layers))
    gflat = np.empty_like(flat)
    state = AdamState([flat], lr)

    def val_mse():
        err, _ = forward(net, monitor[0])  # a fresh array: square its error in place
        err -= monitor[1]
        err *= err
        return float(np.add.reduce(err, axis=None) / err.size)

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
        backward(net, cache, grad, out=gflat)
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
    """The architecture of a network as JSON: each layer's widths and activation."""
    return json.dumps({"layers": [{"in": layer.n_in, "out": layer.n_out,
                                   "activation": layer.activation} for layer in net.layers]})
