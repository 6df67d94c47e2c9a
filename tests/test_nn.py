import math

import numpy as np
import pytest

from mfcp import nn

from helpers import finite_diff_probe, params_digest, rel_err


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
    net = nn.Mlp.from_widths(4, [5], 3, seed=2)
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
    (dw, db), = nn.backward(net, cache, grad)
    assert not np.any(dw) and not np.any(db)


def test_backward_single_weight_hand_calculus():
    # loss (w x - t)^2 with x=1, t=0, w=2 -> dL/dw = 4
    net = nn.Mlp([nn.DenseLayer([[2.0]], [0.0], "identity")])
    y, cache = nn.forward(net, np.array([[1.0]]))
    _, grad = nn.mse_loss(y, np.array([[0.0]]))
    (dw, _), = nn.backward(net, cache, grad)
    assert dw[0, 0] == 4.0


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    net = nn.Mlp.from_widths(6, [8, 5], 4, seed=33)
    x = rng.normal(size=(12, 6))
    y = rng.normal(size=(12, 4))
    for analytic, numeric in finite_diff_probe(net, x, y, probes_per_layer=10):
        assert rel_err(analytic, numeric) <= 1e-5


def test_backward_frozen_layers_pass_through():
    net = nn.Mlp.from_widths(3, [4, 4], 2, seed=5)
    net.trainable = [False, True, True]
    x = np.random.default_rng(1).normal(size=(6, 3))
    y, cache = nn.forward(net, x)
    grads = nn.backward(net, cache, 2.0 * y / y.size)
    assert len(grads) == 2  # no parameter gradients for the frozen layer
    assert all(g is not None for g in grads)


def test_backward_frozen_prefix_matches_all_trainable_bitwise():
    net = nn.Mlp.from_widths(5, [7, 6, 4], 3, seed=21)
    x = np.random.default_rng(2).normal(size=(9, 5))
    y, cache = nn.forward(net, x)
    grad = 2.0 * y / y.size
    full = nn.backward(net, cache, grad)
    net.trainable = [False, False, True, True]
    # the pass ends at the first trainable layer, so it never reads the
    # frozen prefix's cache entries
    partial = nn.backward(net, [None, None] + cache[2:], grad)
    assert len(partial) == 2
    for (dw, db), (dw_full, db_full) in zip(partial, full[2:]):
        assert np.array_equal(dw, dw_full)
        assert np.array_equal(db, db_full)


def test_adam_matches_textbook_expressions_bitwise():
    rng = np.random.default_rng(17)
    shapes = [(4, 3), (5,), (2, 3, 2), (1,)]
    params = [rng.normal(size=s) for s in shapes]
    cfg = nn.AdamConfig(lr=3e-3, beta1=0.8, beta2=0.99, eps=1e-7)
    state = nn.AdamState(params, cfg)
    ref_p = [p.copy() for p in params]
    ref_m = [np.zeros(s) for s in shapes]
    ref_v = [np.zeros(s) for s in shapes]
    b1, b2 = cfg.beta1, cfg.beta2
    for t in range(1, 51):
        grads = [rng.normal(size=s) for s in shapes]
        nn.adam_step(state, params, grads)
        for i, g in enumerate(grads):
            ref_m[i] = b1 * ref_m[i] + (1.0 - b1) * g
            ref_v[i] = b2 * ref_v[i] + (1.0 - b2) * (g * g)
            m_hat = ref_m[i] / (1.0 - b1**t)
            v_hat = ref_v[i] / (1.0 - b2**t)
            ref_p[i] = ref_p[i] - cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps)
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
    state = nn.AdamState(p, nn.AdamConfig(lr=1e-3))
    nn.adam_step(state, p, [np.array([1.0])])
    m_hat = (0.1 * 1.0) / (1.0 - 0.9)
    v_hat = (0.001 * 1.0) / (1.0 - 0.999)
    expected = -1e-3 * m_hat / (math.sqrt(v_hat) + 1e-8)
    assert abs(p[0][0] - expected) < 1e-15


def test_adam_quadratic_descent_monotone():
    theta = np.array([5.0])
    state = nn.AdamState([theta], nn.AdamConfig(lr=1e-3))
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
    loss, grad = nn.mse_loss(a, b)
    naive = sum((x - y) ** 2 for x, y in zip(a, b)) / 20
    assert abs(loss - naive) <= 1e-15
    for i in range(20):
        assert abs(grad[i] - 2.0 * (a[i] - b[i]) / 20) <= 1e-18


def test_train_rejects_zero_epochs():
    net = nn.Mlp.from_widths(2, [], 2, seed=0)
    with pytest.raises(ValueError):
        nn.train(net, np.zeros((3, 2)), np.zeros((3, 2)), epochs=0)


def test_train_fits_exact_linear_data():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(20, 3))
    w_true = rng.normal(size=(2, 3))
    y = x @ w_true.T + 0.5
    net = nn.Mlp.from_widths(3, [], 2, seed=1)
    result = nn.train(net, x, y, epochs=2000, adam=nn.AdamConfig(lr=1e-2))
    assert result.losses[-1] <= 1e-6


def test_train_deterministic_per_seed():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(10, 3))
    y = rng.normal(size=(10, 2))
    histories = []
    for _ in range(2):
        net = nn.Mlp.from_widths(3, [4], 2, seed=77)
        histories.append(nn.train(net, x, y, epochs=30).losses)
    assert histories[0] == histories[1]


def test_train_freezes_masked_layers():
    x = np.random.default_rng(3).normal(size=(8, 3))
    y = np.random.default_rng(4).normal(size=(8, 2))
    net = nn.Mlp.from_widths(3, [4], 2, seed=6)
    net.trainable = [False, True]
    frozen_before = net.layers[0].weights.copy(), net.layers[0].biases.copy()
    digest_before = params_digest(nn.Mlp([net.layers[0]]))
    nn.train(net, x, y, epochs=50)
    assert params_digest(nn.Mlp([net.layers[0]])) == digest_before
    assert np.array_equal(net.layers[0].weights, frozen_before[0])
    assert np.array_equal(net.layers[0].biases, frozen_before[1])


def test_early_stopping_restores_best_weights():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(10, 2))
    y = x @ rng.normal(size=(2, 2))
    net = nn.Mlp.from_widths(2, [], 2, seed=12)
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
    net = nn.Mlp.from_widths(3, [4], 2, seed=8)
    with np.errstate(invalid="ignore"), pytest.raises(nn.TrainingDiverged) as err:
        nn.train(net, rng.normal(size=(6, 3)), rng.normal(size=(6, 2)), epochs=5,
                 adam=nn.AdamConfig(lr=float("inf")))
    assert err.value.epoch == 1
    assert "non-finite parameter after update" in str(err.value)


def test_train_refuses_an_all_frozen_net():
    rng = np.random.default_rng(7)
    x, y = rng.normal(size=(6, 3)), rng.normal(size=(6, 2))
    net = nn.Mlp.from_widths(3, [4], 2, seed=9)
    net.trainable = [False, False]
    digest = params_digest(net)
    with pytest.raises(ValueError):
        nn.train(net, x, y, epochs=7, monitor=(x, y), patience=100)
    assert params_digest(net) == digest
    with pytest.raises(ValueError):
        nn.backward(net, nn.forward(net, x)[1], y)


def test_json_round_trip_lossless():
    net = nn.Mlp.from_widths(3, [5], 2, seed=19)
    net.trainable = [True, False]
    clone = nn.from_json(nn.to_json(net))
    assert clone.trainable == net.trainable
    assert clone.seed == net.seed
    for a, b in zip(net.layers, clone.layers):
        assert a.activation == b.activation
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.biases, b.biases)
    x = np.random.default_rng(0).normal(size=(1, 3))
    assert np.array_equal(nn.forward(net, x)[0], nn.forward(clone, x)[0])
