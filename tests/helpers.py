"""Shared synthetic generators and independent oracles for the test suite."""

import hashlib
import os
import tracemalloc

import numpy as np

import mfcp
from mfcp import nn
from mfcp.data import SnapshotSet, cosine_abscissae


# --- synthetic field families ------------------------------------------------


def pressure_curve(params, x):
    """Smooth pressure-like curve: suction bump, periodic ripple, and a
    moving recovery front at chord fraction p."""
    a, b, p = params
    return (
        -1.5 * a * np.sqrt(x + 1e-3) * (1.0 - x)
        + b * np.cos(2.0 * np.pi * x)
        + 1.2 * np.tanh(9.0 * (x - p))
    )


def make_pressure_set(n_snapshots, n_nodes, seed, prefix="case"):
    """Three-parameter family sampled on a cosine-clustered chord grid."""
    rng = np.random.default_rng(seed)
    params = np.column_stack([
        rng.uniform(0.6, 1.4, n_snapshots),
        rng.uniform(-0.5, 0.5, n_snapshots),
        rng.uniform(0.25, 0.75, n_snapshots),
    ])
    nodes = cosine_abscissae(n_nodes)
    fields = np.stack([pressure_curve(p, nodes) for p in params], axis=1)
    return SnapshotSet(
        fields=fields,
        coords=nodes[:, None],
        params=params,
        param_names=["camber", "tilt", "front"],
        names=[f"{prefix}{i:04d}" for i in range(n_snapshots)],
    )


def sinusoid_pair_benchmark(n, d_lf, d_hf, seed, hf_bias=0.2):
    """Two-parameter paired LF/HF matrices for transfer-learning tests."""
    rng = np.random.default_rng(seed)
    params = rng.uniform(0.5, 1.5, size=(n, 2))
    x_lf = np.linspace(0.0, 1.0, d_lf)
    x_hf = np.linspace(0.0, 1.0, d_hf)

    def field(p, x):
        a, b = p
        return a * np.sin(np.pi * x) + b * np.cos(2.0 * np.pi * x) + 0.3 * a * b * x

    lf = np.stack([field(p, x_lf) for p in params], axis=1)
    hf = np.stack([field(p, x_hf) + hf_bias for p in params], axis=1)
    return lf, hf, params


# --- independent oracles -----------------------------------------------------


def jacobi_eigenvalues(sym, sweeps=100):
    """Classical Jacobi rotation eigenvalues of a symmetric matrix,
    descending. Independent of the LAPACK-backed production path."""
    a = np.array(sym, dtype=np.float64)
    n = a.shape[0]
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off <= 1e-14 * np.linalg.norm(a):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-300:
                    continue
                theta = 0.5 * (a[q, q] - a[p, p]) / a[p, q]
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0)) if theta != 0.0 else 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))[::-1]


def gradients(net, cache, grad_out):
    """`nn.backward` into a new buffer laid out as `nn.parameters`."""
    return nn.backward(net, cache, grad_out, np.empty(nn.parameters(net.layers).size))


def finite_diff_probe(net, x, y, probes_per_layer=10, h=1e-5, seed=0):
    """Central finite differences of the training MSE at randomly probed
    parameters; yields (analytic, numeric) pairs."""
    rng = np.random.default_rng(seed)
    pred, cache = nn.forward(net, x)
    _, grad = nn.mse_loss(pred, y)
    analytic = gradients(net, cache, grad)
    params = [a for layer in net.layers for a in (layer.weights, layer.biases)]
    flat_analytic = [g for pair in analytic for g in pair]
    pairs = []
    for p, g in zip(params, flat_analytic):
        for _ in range(probes_per_layer):
            idx = tuple(rng.integers(0, s) for s in p.shape)
            old = p[idx]
            p[idx] = old + h
            lp, _ = nn.mse_loss(nn.forward(net, x)[0], y)
            p[idx] = old - h
            lm, _ = nn.mse_loss(nn.forward(net, x)[0], y)
            p[idx] = old
            pairs.append((float(g[idx]), (lp - lm) / (2.0 * h)))
    return pairs


def rel_err(a, b, floor=1e-8):
    return abs(a - b) / max(floor, abs(a), abs(b))


def params_digest(net):
    """Stable hash of every parameter byte; detects any drift."""
    h = hashlib.sha256()
    for layer in net.layers:
        h.update(layer.weights.tobytes())
        h.update(layer.biases.tobytes())
    return h.hexdigest()


def traced_peak(run):
    """The most memory tracemalloc saw allocated at once while `run()` ran."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# --- child processes ---------------------------------------------------------


def child_env(ascii_locale=False):
    """os.environ for a child `python` that imports the mfcp under test, with
    the locale variables removed. `ascii_locale`: the C locale with locale
    coercion and UTF-8 mode off, whose file system encoding is ASCII."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("LC_", "LANG", "PYTHONUTF8", "PYTHONCOERCECLOCALE"))}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(mfcp.__file__)))
    if ascii_locale:
        env.update(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    return env
