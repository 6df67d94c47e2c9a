"""Two-phase transfer learning: pretrain on cheap data, adapt to scarce data.

Phase one trains an autoencoder on 300 low-fidelity snapshots so the
encoder learns a compact latent code of the underlying family. Phase two
freezes that encoder and adapts the decoder plus a fresh up-scaler using
only 30 high-fidelity pairs. The latent bottleneck is sized to the number
of generating parameters, which makes the learned coordinates track them.
"""

import numpy as np

from mfcp import mfae
from mfcp.data import metrics

rng = np.random.default_rng(1)

# paired family: LF on 60 nodes, HF on 150 nodes with extra structure the
# LF source misses entirely (a sharper recovery and a bias)
d_lf, d_hf = 60, 150
x_lf = np.linspace(0, 1, d_lf)
x_hf = np.linspace(0, 1, d_hf)


def lf_curve(a, b, x):
    return a * np.sin(np.pi * x) + b * np.cos(2 * np.pi * x)


def hf_curve(a, b, x):
    return lf_curve(a, b, x) + 0.4 * np.tanh(6 * (x - 0.5)) + 0.25


params = rng.uniform(0.5, 1.5, size=(300, 2))
lf_all = np.stack([lf_curve(a, b, x_lf) for a, b in params], axis=1)
hf_all = np.stack([hf_curve(a, b, x_hf) for a, b in params], axis=1)

# --- phase one: reconstruction pretraining on all LF snapshots
config = mfae.MfaeConfig(
    d_lf=d_lf, d_hf=d_hf,
    encoder_widths=[32, 16], latent_dim=2, decoder_widths=[16, 32],
    seed=42, pretrain_epochs=1500, learning_rate=3e-3,
)
model = mfae.pretrain(config, lf_all)
print(f"pretrain: final reconstruction loss {model.pretrain_losses[-1]:.2e}")

# the latent coordinates organize themselves along the generating parameters
z = mfae.encode(model, lf_all)
for j, name in enumerate(["a", "b"]):
    corr = [abs(np.corrcoef(params[:, j], z[k])[0, 1]) for k in range(2)]
    print(f"  |corr| of parameter {name} with latent axes: "
          f"{corr[0]:.2f}, {corr[1]:.2f}")

# --- phase two: freeze the encoder, adapt on 30 scarce HF pairs
train_ids = rng.choice(300, size=30, replace=False)
mfae.fine_tune(model, lf_all[:, train_ids], hf_all[:, train_ids],
               epochs=1200, lr=1e-3)
print(f"\nfine-tune: up-scaler {d_lf} -> {config.upscaler_width()} -> {d_hf}, "
      "encoder frozen")

# --- evaluate on everything the fine-tuning never saw
held_out = np.setdiff1d(np.arange(300), train_ids)
pred = mfae.predict(model, lf_all[:, held_out])
m = metrics(pred, hf_all[:, held_out])
print(f"held-out ({held_out.size} snapshots): "
      f"MAE {m['mae']:.4f}  RMSE {m['rmse']:.4f}  R2 {m['r2']:.4f}")

# naive alternative: interpolate the LF input onto the HF grid
naive = np.stack([np.interp(x_hf, x_lf, lf_all[:, j]) for j in held_out], axis=1)
m0 = metrics(naive, hf_all[:, held_out])
print(f"interpolated LF baseline:       MAE {m0['mae']:.4f}  RMSE {m0['rmse']:.4f}")
