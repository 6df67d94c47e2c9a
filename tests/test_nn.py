import json
import math

import numpy as np
import pytest

from mfcp import mfae, nn

from helpers import finite_diff_probe, gradients, params_digest, rel_err, traced_peak


def identity_layer(d):
    return nn.DenseLayer(np.eye(d), np.zeros(d), "identity")


def test_forward_identity_layer():
    net = nn.Mlp([identity_layer(3)])
    x = np.array([[1.0, -2.0, 0.5]])
    y, _ = nn.forward(net, x)
    assert np.array_equal(y, x)


def test_forward_relu_clips():
    net = nn.Mlp([nn.DenseLayer(np.eye(2), np.zeros(2), "relu")])
    y, _ = nn.forward(net, np.array([[-1.0, 2.0]]))
    assert np.array_equal(y, [[0.0, 2.0]])


def test_forward_rejects_anything_but_an_n_by_d_in_batch():
    net = nn.Mlp([identity_layer(3)])
    for x in (np.zeros(3), np.zeros((2, 4)), np.zeros((1, 2, 3))):
        with pytest.raises(ValueError, match="batch"):
            nn.forward(net, x)


def test_forward_matches_manual_recomputation():
    net = nn.Mlp.from_widths([4, 5, 3], seed=2)
    x = np.random.default_rng(0).normal(size=4)
    y, _ = nn.forward(net, x[None, :])
    assert y.shape == (1, 3)
    h = net.layers[0].weights @ x + net.layers[0].biases
    h = np.maximum(h, 0.0)
    manual = net.layers[1].weights @ h + net.layers[1].biases
    assert np.all(np.abs(y[0] - manual) <= 1e-12 * np.maximum(1.0, np.abs(manual)))


def test_backward_zero_gradient_at_optimum():
    net = nn.Mlp([identity_layer(2)])
    x = np.array([[0.3, -0.7]])
    y, cache = nn.forward(net, x)
    _, grad = nn.mse_loss(y, y)
    (dw, db), = gradients(net, cache, grad)
    assert not np.any(dw) and not np.any(db)


def test_backward_single_weight_hand_calculus():
    # loss (w x - t)^2 with x=1, t=0, w=2 -> dL/dw = 4
    net = nn.Mlp([nn.DenseLayer([[2.0]], [0.0], "identity")])
    y, cache = nn.forward(net, np.array([[1.0]]))
    _, grad = nn.mse_loss(y, np.array([[0.0]]))
    (dw, _), = gradients(net, cache, grad)
    assert dw[0, 0] == 4.0


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    net = nn.Mlp.from_widths([6, 8, 5, 4], seed=33)
    x = rng.normal(size=(12, 6))
    y = rng.normal(size=(12, 4))
    for analytic, numeric in finite_diff_probe(net, x, y, probes_per_layer=10):
        assert rel_err(analytic, numeric) <= 1e-5


def test_backward_frozen_prefix_matches_all_trainable_bitwise():
    # a caller freezes a prefix by running it and training the rest on its
    # output, as fine_tune trains on the latents: the rest's gradients are
    # the whole net's, bit for bit
    net = nn.Mlp.from_widths([5, 7, 6, 4, 3], seed=21)
    x = np.random.default_rng(2).normal(size=(9, 5))
    y, cache = nn.forward(net, x)
    grad = 2.0 * y / y.size
    full = gradients(net, cache, grad)
    partial = gradients(nn.Mlp(net.layers[2:]), cache[2:], grad)
    assert len(full) == 4 and len(partial) == 2
    for (dw, db), (dw_full, db_full) in zip(partial, full[2:]):
        assert np.array_equal(dw, dw_full)
        assert np.array_equal(db, db_full)


# --- the training step against its allocating form ---------------------------------
#
# `forward`, `backward`, `mse_loss` and the validation loss write into their own
# temporaries and into one gradient buffer; these references form every
# temporary afresh, as the expression form reads.


def reference_forward(net, x):
    a, cache = x, []
    for layer in net.layers:
        z = a @ layer.weights.T + layer.biases
        cache.append((a, z))
        a = np.maximum(z, 0.0) if layer.activation == "relu" else z
    return a, cache


def reference_backward(net, cache, grad_out, frozen=0):
    """Gradients of the layers above the first `frozen` ones, which get none."""
    g, grads = grad_out, []
    for i in range(len(net.layers) - 1, frozen - 1, -1):
        a_in, z = cache[i]
        if net.layers[i].activation == "relu":
            g = g * (z > 0.0)
        grads.append((g.T @ a_in, g.sum(axis=0)))
        if i > frozen:
            g = g @ net.layers[i].weights
    return grads[::-1]


def reference_train(net, x, y, epochs, lr, monitor, patience, frozen=0):
    """(losses, val_losses, best_epoch) of nn.train's schedule, Adam per array,
    on the whole net with its first `frozen` layers left as they are."""
    params = [a for layer in net.layers[frozen:] for a in (layer.weights, layer.biases)]
    state = nn.AdamState(params, lr)

    def val_mse():
        return float(np.mean((reference_forward(net, monitor[0])[0] - monitor[1]) ** 2))

    losses, val_losses, best_epoch = [], [val_mse()], 0
    best = [p.copy() for p in params]
    for epoch in range(1, epochs + 1):
        pred, cache = reference_forward(net, x)
        diff = pred - y
        losses.append(float(np.mean(diff * diff)))
        grads = reference_backward(net, cache, 2.0 * diff / diff.size, frozen)
        nn.adam_step(state, params, [g for pair in grads for g in pair])
        val_losses.append(val_mse())
        if val_losses[-1] < val_losses[best_epoch] - 1e-12:
            best_epoch = epoch
            best = [p.copy() for p in params]
        elif epoch - best_epoch >= patience:
            break
    for p, b in zip(params, best):
        p[...] = b
    return losses, val_losses, best_epoch


def relu_topped_net(seed):
    """Three relu layers, the output one too, so the top layer's mask runs."""
    rng = np.random.default_rng(seed)
    return nn.Mlp([nn.DenseLayer.init(i, o, "relu", rng) for i, o in ((5, 7), (7, 6), (6, 4))])


# how many leading layers the caller freezes: it runs them and trains the rest
FROZEN = {"all": 0, "frozen-first": 1, "frozen-prefix": 2}


@pytest.mark.parametrize("frozen", FROZEN.values(), ids=FROZEN.keys())
def test_backward_matches_the_allocating_form_bitwise_and_writes_no_input(frozen):
    net = relu_topped_net(31)
    rng = np.random.default_rng(32)
    x = rng.normal(size=(5, 9)).T  # a transposed (F-ordered) batch, as fine_tune's rows
    pred, cache = nn.forward(net, x)
    ref_pred, ref_cache = reference_forward(net, x)
    assert pred.tobytes() == ref_pred.tobytes()
    assert all(a.tobytes() == ra.tobytes() and z.tobytes() == rz.tobytes()
               for (a, z), (ra, rz) in zip(cache, ref_cache))
    grad = rng.normal(size=pred.shape)
    before = [grad.copy()] + [arr.copy() for pair in cache for arr in pair]
    want = reference_backward(net, cache, grad, frozen)
    tail = nn.Mlp(net.layers[frozen:])
    buffer = np.full(nn.parameters(tail.layers).size, np.nan)
    got = nn.backward(tail, cache[frozen:], grad, buffer)
    assert len(got) == len(want) == 3 - frozen
    for (dw, db), (rw, rb) in zip(got, want):
        assert dw.shape == rw.shape and dw.tobytes() == rw.tobytes()
        assert db.shape == rb.shape and db.tobytes() == rb.tobytes()
        assert dw.base is buffer and db.base is buffer
    # the pairs are views into `out`, laid out as `parameters`
    assert buffer.tobytes() == np.concatenate([g.ravel() for pair in want for g in pair]).tobytes()
    after = [grad] + [arr for pair in cache for arr in pair]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(before, after))


def test_mse_loss_matches_the_allocating_form_bitwise_and_consumes_only_pred():
    # the gradient goes into `out` (a new array without one) and the squared
    # error into pred's own array; the target is not written
    rng = np.random.default_rng(33)
    for shape in ((7,), (6, 5)):
        pred, target = rng.normal(size=shape), rng.normal(size=shape)
        diff = pred - target
        before = target.copy()
        for out in (None, np.full(shape, np.nan)):
            consumed = pred.copy()
            loss, grad = nn.mse_loss(consumed, target, out)
            assert loss == float(np.mean(diff * diff))
            assert grad.tobytes() == (2.0 * diff / diff.size).tobytes()
            assert consumed.tobytes() == (diff * diff).tobytes()
            assert out is None or grad is out
            assert target.tobytes() == before.tobytes()


def mid_identity_net(seed):
    """An encoder and a decoder stacked, as pretrain trains them: the encoder's
    identity output layer sits mid-stack."""
    return nn.stack(nn.Mlp.from_widths([5, 7, 3], seed), nn.Mlp.from_widths([3, 6, 4], seed + 1))


# (net, frozen leading layers, training rows, monitor rows, epochs); `train`
# writes every epoch's forward pass, and validation's, into one set of arrays
# sized for the larger batch
TRAIN_CASES = {
    "all": (relu_topped_net, 0, 12, 6, 400),
    "frozen-first": (relu_topped_net, 1, 12, 6, 400),
    "monitor-larger": (relu_topped_net, 0, 6, 12, 400),  # as a cal_fraction > 0.5
    "identity-mid-stack": (mid_identity_net, 0, 12, 6, 400),
    "identity-mid-stack-frozen-first-monitor-larger": (mid_identity_net, 1, 6, 12, 400),
    "zero-epochs": (relu_topped_net, 0, 12, 6, 0),
}


@pytest.mark.parametrize("case", TRAIN_CASES.values(), ids=TRAIN_CASES.keys())
def test_train_matches_the_allocating_form_bitwise(case):
    make_net, frozen, n_train, n_monitor, epochs = case
    rng = np.random.default_rng(34)
    x, y = rng.normal(size=(n_train, 5)), rng.normal(size=(n_train, 4))
    monitor = (rng.normal(size=(n_monitor, 5)), rng.normal(size=(n_monitor, 4)))
    lr = 2e-2
    net, ref = make_net(35), make_net(35)

    def head(a):  # the frozen layers, run once, as fine_tune runs the encoder
        return nn.forward(nn.Mlp(net.layers[:frozen]), a)[0] if frozen else a

    result = nn.train(nn.Mlp(net.layers[frozen:]), head(x), y, epochs=epochs, lr=lr,
                      monitor=(head(monitor[0]), monitor[1]), patience=15)
    losses, val_losses, best_epoch = reference_train(ref, x, y, epochs, lr, monitor, 15, frozen)
    if epochs:
        assert result.halted_early and 0 < result.best_epoch < len(result.losses)
    else:
        assert (result.losses, result.best_epoch, result.halted_early) == ([], 0, False)
    assert (result.losses, result.val_losses, result.best_epoch) == (losses, val_losses,
                                                                      best_epoch)
    assert params_digest(net) == params_digest(ref)


def test_forward_into_a_cache_matches_a_fresh_pass_bitwise():
    # views of the leading rows of an earlier cache's arrays, which the pass overwrites
    for make_net in (relu_topped_net, mid_identity_net):
        net = make_net(36)
        rng = np.random.default_rng(37)
        big, small = rng.normal(size=(9, 5)), rng.normal(size=(4, 5))
        _, cache = nn.forward(net, big)
        with pytest.raises(ValueError) as err:
            nn.forward(net, small, cache)
        assert str(err.value) == "the cache holds 9 rows, the batch 4"
        out, reused = nn.forward(net, small, [(a[:4], z[:4]) for a, z in cache])
        fresh, fresh_cache = reference_forward(net, small)
        assert out.tobytes() == fresh.tobytes()
        for (a, z), (ra, rz), (ha, hz) in zip(reused, fresh_cache, cache):
            assert a.tobytes() == ra.tobytes() and z.tobytes() == rz.tobytes()
            assert np.shares_memory(z, hz) and (a is small or np.shares_memory(a, ha))
        with pytest.raises(ValueError) as err:
            nn.forward(net, big, reused)
        assert str(err.value) == "the cache holds 4 rows, the batch 9"


def test_train_peak_memory_does_not_grow_with_epochs():
    # the epoch's arrays are held once per run, so 60 epochs peak where 3 do,
    # up to the loss histories: two entries per epoch, a Python float (which
    # a free list may or may not supply) and a list slot, well under 64 bytes
    # each. One output row is 1,600 bytes and one batch array 48,000.
    rng = np.random.default_rng(38)
    x, y = rng.normal(size=(30, 6)), rng.normal(size=(30, 200))
    monitor = rng.normal(size=(40, 6)), rng.normal(size=(40, 200))

    def peak(epochs):
        net = nn.Mlp.from_widths([6, 16, 200], seed=39)
        return traced_peak(lambda: nn.train(net, x, y, epochs, 1e-3, monitor, patience=10**6))

    assert peak(60) - peak(3) < 2 * (60 - 3) * 64


def test_adam_config_range_rules():
    # Adam's one setting, its learning rate, is the model config's learning_rate
    def config(lr):
        return mfae.MfaeConfig(d_lf=4, d_hf=4, encoder_widths=[], latent_dim=2,
                               decoder_widths=[], learning_rate=lr)

    assert config(float("inf")).learning_rate == float("inf")  # the legal edge
    for lr, message in [
        (0.0, "learning_rate must be > 0, got 0.0"),
        (float("nan"), "learning_rate must be > 0, got nan"),
        (10**400, f"learning_rate must fit in a float, got {10**400}"),
    ]:
        with pytest.raises(ValueError) as err:
            config(lr)
        assert str(err.value) == message


def test_adam_matches_textbook_expressions_bitwise():
    rng = np.random.default_rng(17)
    shapes = [(4, 3), (5,), (2, 3, 2), (1,)]
    params = [rng.normal(size=s) for s in shapes]
    lr = 3e-3
    state = nn.AdamState(params, lr)
    ref_p = [p.copy() for p in params]
    ref_m = [np.zeros(s) for s in shapes]
    ref_v = [np.zeros(s) for s in shapes]
    b1, b2, eps = nn.BETA1, nn.BETA2, nn.EPS
    for t in range(1, 51):
        grads = [rng.normal(size=s) for s in shapes]
        ref_grads = [g.copy() for g in grads]  # adam_step consumes its gradients
        nn.adam_step(state, params, grads)
        for i, g in enumerate(ref_grads):
            ref_m[i] = b1 * ref_m[i] + (1.0 - b1) * g
            ref_v[i] = b2 * ref_v[i] + (1.0 - b2) * (g * g)
            m_hat = ref_m[i] / (1.0 - b1**t)
            v_hat = ref_v[i] / (1.0 - b2**t)
            ref_p[i] = ref_p[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
        for p, r in zip(params, ref_p):
            assert np.array_equal(p, r)
    assert state.t == 50


def test_adam_zero_gradient_keeps_parameters():
    p = [np.array([1.0, -2.0])]
    state = nn.AdamState(p)
    adam_before = p[0].copy()
    nn.adam_step(state, p, [np.zeros(2)])
    assert np.array_equal(p[0], adam_before)
    assert state.t == 1


def test_adam_first_step_transcript():
    p = [np.array([0.0])]
    state = nn.AdamState(p, 1e-3)
    nn.adam_step(state, p, [np.array([1.0])])
    m_hat = (0.1 * 1.0) / (1.0 - 0.9)
    v_hat = (0.001 * 1.0) / (1.0 - 0.999)
    expected = -1e-3 * m_hat / (math.sqrt(v_hat) + 1e-8)
    assert abs(p[0][0] - expected) < 1e-15


def test_adam_quadratic_descent_monotone():
    theta = np.array([5.0])
    state = nn.AdamState([theta], 1e-3)
    target = 0.0
    losses = []
    for _ in range(100):
        losses.append((theta[0] - target) ** 2)
        nn.adam_step(state, [theta], [np.array([2.0 * (theta[0] - target)])])
    losses.append((theta[0] - target) ** 2)
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_mse_loss_examples():
    loss, _ = nn.mse_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    assert loss == 0.0
    loss, grad = nn.mse_loss(np.array([1.0, 1.0]), np.array([0.0, 0.0]))
    assert loss == 1.0
    assert np.array_equal(grad, [1.0, 1.0])
    with pytest.raises(ValueError):
        nn.mse_loss(np.zeros(3), np.zeros(4))


def test_mse_loss_matches_naive_loop():
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=20), rng.normal(size=20)
    loss, grad = nn.mse_loss(a.copy(), b)  # mse_loss consumes its prediction
    naive = sum((x - y) ** 2 for x, y in zip(a, b)) / 20
    assert abs(loss - naive) <= 1e-15
    for i in range(20):
        assert abs(grad[i] - 2.0 * (a[i] - b[i]) / 20) <= 1e-18


def test_train_refuses_negative_epochs_and_zero_keeps_the_initial_bits():
    rng = np.random.default_rng(3)
    x, y = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
    net = nn.Mlp.from_widths([2, 4, 2], seed=0)
    digest = params_digest(net)
    with pytest.raises(ValueError, match="epochs must be >= 0"):
        nn.train(net, x, y, epochs=-1)
    result = nn.train(net, x, y, epochs=0)
    assert params_digest(net) == digest
    assert (result.losses, result.val_losses, result.best_epoch) == ([], None, None)
    # with a monitor, the epoch-0 validation loss of the initial weights
    result = nn.train(net, x, y, epochs=0, monitor=(x, y))
    assert params_digest(net) == digest
    assert (result.losses, result.best_epoch, result.halted_early) == ([], 0, False)
    assert result.val_losses == [float(np.mean((nn.forward(net, x)[0] - y) ** 2))]


def test_train_fits_exact_linear_data():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(20, 3))
    w_true = rng.normal(size=(2, 3))
    y = x @ w_true.T + 0.5
    net = nn.Mlp.from_widths([3, 2], seed=1)
    result = nn.train(net, x, y, epochs=2000, lr=1e-2)
    assert result.losses[-1] <= 1e-6


def test_train_deterministic_per_seed():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(10, 3))
    y = rng.normal(size=(10, 2))
    histories = []
    for _ in range(2):
        net = nn.Mlp.from_widths([3, 4, 2], seed=77)
        histories.append(nn.train(net, x, y, epochs=30).losses)
    assert histories[0] == histories[1]


def test_early_stopping_restores_best_weights():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(10, 2))
    y = x @ rng.normal(size=(2, 2))
    net = nn.Mlp.from_widths([2, 2], seed=12)
    initial = [l.weights.copy() for l in net.layers]
    # validation target equals the untrained output: epoch 0 is already
    # optimal, so any update worsens the monitor and patience must trigger
    x_val = rng.normal(size=(5, 2))
    y_val = nn.forward(net, x_val)[0]
    result = nn.train(net, x, y, epochs=500, monitor=(x_val, y_val), patience=20)
    assert result.halted_early
    assert result.best_epoch == 0
    assert len(result.losses) == 20
    assert len(result.val_losses) == len(result.losses) + 1
    # best-epoch (initial) weights restored bit-exactly
    assert all(np.array_equal(a, l.weights) for a, l in zip(initial, net.layers))
    pred, _ = nn.forward(net, x_val)
    assert float(np.mean((pred - y_val) ** 2)) == result.val_losses[0] == 0.0


def test_train_raises_on_divergence():
    net = nn.Mlp([nn.DenseLayer([[1e300]], [0.0], "identity")])
    with np.errstate(over="ignore"), pytest.raises(nn.TrainingDiverged) as err:
        nn.train(net, np.full((2, 1), 1e300), np.zeros((2, 1)), epochs=5)
    assert err.value.epoch >= 1


def test_train_raises_on_non_finite_parameter():
    rng = np.random.default_rng(6)
    net = nn.Mlp.from_widths([3, 4, 2], seed=8)
    with np.errstate(invalid="ignore"), pytest.raises(nn.TrainingDiverged) as err:
        nn.train(net, rng.normal(size=(6, 3)), rng.normal(size=(6, 2)), epochs=5,
                 lr=float("inf"))
    assert err.value.epoch == 1
    assert "non-finite parameter after update" in str(err.value)


def test_train_refuses_an_all_frozen_net():
    # or any net with a frozen layer: train trains every layer it is given
    rng = np.random.default_rng(7)
    x, y = rng.normal(size=(6, 3)), rng.normal(size=(6, 2))
    for mask in ([False, False], [False, True], [True, False]):
        net = nn.Mlp.from_widths([3, 4, 2], seed=9)
        net.trainable = mask
        digest = params_digest(net)
        with pytest.raises(ValueError) as err:
            nn.train(net, x, y, epochs=7, monitor=(x, y), patience=100)
        assert str(err.value) == ("train trains every layer; run the frozen ones first, "
                                  "outside the net")
        assert params_digest(net) == digest


def test_stack_keeps_a_frozen_net_frozen_and_train_refuses_it():
    rng = np.random.default_rng(8)
    x, y = rng.normal(size=(6, 3)), rng.normal(size=(6, 2))
    head = nn.Mlp.from_widths([3, 4], seed=10)
    frozen = nn.Mlp(nn.Mlp.from_widths([4, 5, 2], seed=11).layers, trainable=[False, False])
    net = nn.stack(head, frozen)
    assert net.trainable == [True, False, False]
    assert all(a is b for a, b in zip(net.layers, head.layers + frozen.layers))
    digests = params_digest(head), params_digest(frozen)
    with pytest.raises(ValueError, match="train trains every layer"):
        nn.train(net, x, y, epochs=5)
    assert (params_digest(head), params_digest(frozen)) == digests


def test_json_round_trip_lossless():
    # a bundle keeps a network as its `parameters` vector beside its to_json
    # layers; from_parameters rebuilds it from the widths and that vector
    net = nn.Mlp.from_widths([3, 5, 2], seed=19)
    flat = nn.parameters(net.layers)
    assert json.loads(nn.to_json(net)) == {"layers": [
        {"in": 3, "out": 5, "activation": "relu"}, {"in": 5, "out": 2, "activation": "identity"}]}
    clone = nn.Mlp.from_parameters([3, 5, 2], flat)
    assert nn.to_json(clone) == nn.to_json(net)
    assert all(layer.weights.base is flat and layer.biases.base is flat for layer in clone.layers)
    for a, b in zip(net.layers, clone.layers):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.biases, b.biases)
    x = np.random.default_rng(0).normal(size=(1, 3))
    assert np.array_equal(nn.forward(net, x)[0], nn.forward(clone, x)[0])
    for size in (31, 33):
        with pytest.raises(ValueError) as err:
            nn.Mlp.from_parameters([3, 5, 2], np.zeros(size))
        assert str(err.value) == f"the layers hold 32 parameters, the parameter vector {size}"
