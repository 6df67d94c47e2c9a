"""Distribution-free uncertainty bands around field predictions.

The band is a hyperrectangle: a per-node radius equal to a global critical
quantile times a per-node modulation (the residual standard deviation).
The multi-split protocol repeats the calibration over random partitions
and aggregates with medians, so no data is permanently sacrificed for
calibration and the band does not hinge on one lucky split.

Also reproduces the score-function trade-off: max-normalized scores give
conservative full-field coverage, RMS-normalized scores give roughly half
the band width while keeping per-node coverage high.
"""

import numpy as np

from mfcp import conformal, mfae

rng = np.random.default_rng(2)

# paired synthetic family (LF 40 nodes -> HF 80 nodes)
d_lf, d_hf, n = 40, 80, 140
x_lf = np.linspace(0, 1, d_lf)
x_hf = np.linspace(0, 1, d_hf)
params = rng.uniform(0.5, 1.5, size=(n, 2))
lf = np.stack([a * np.sin(np.pi * x_lf) + b * np.cos(2 * np.pi * x_lf)
               for a, b in params], axis=1)
hf = np.stack([a * np.sin(np.pi * x_hf) + b * np.cos(2 * np.pi * x_hf)
               + 0.3 * np.tanh(8 * (x_hf - 0.5)) for a, b in params], axis=1)

model = mfae.pretrain(
    mfae.MfaeConfig(d_lf=d_lf, d_hf=d_hf, encoder_widths=[24], latent_dim=2,
                    decoder_widths=[24], seed=7, pretrain_epochs=900, learning_rate=3e-3),
    lf,
)

train, test = np.arange(100), np.arange(100, 140)
print("multi-split calibration over B=20 random partitions, delta=0.1")
results = {}
final = None
for kind in conformal.SCORE_KINDS:
    calib = conformal.multi_split_calibrate(
        lf[:, train], hf[:, train], model,
        n_splits=20, cal_fraction=0.3, delta=0.1, kind=kind,
        patience=50, seed=3, max_epochs=400, lr=3e-3,
    )
    # final model: all training pairs, stopping epoch from the splits
    final = mfae.clone(model)
    mfae.fine_tune(final, lf[:, train], hf[:, train], epochs=calib.epoch,
                   lr=3e-3)
    pred = mfae.predict(final, lf[:, test])
    lower, upper = conformal.band(pred.T, calib.radius)
    cov = conformal.coverage(lower, upper, hf[:, test].T)
    results[kind] = (calib, cov)
    print(f"\n  {kind}: stopping epoch E* = {calib.epoch}")
    print(f"    full-field coverage {cov.nominal:.2f}   per-node coverage {cov.pointwise:.3f}")
    print(f"    band width {cov.width_mean:.3f} +/- {cov.width_std:.3f}")

w_linf = results["linf"][1].width_mean
w_nl2 = results["normalized_l2"][1].width_mean
print(f"\nRMS-normalized bands are {w_nl2 / w_linf:.0%} the width of max-normalized "
      "bands, at a small cost in per-node coverage")

# the single-split textbook variant, for contrast: one fixed calibration set
# scored with the last fine-tuned model, by the split rule of the multi-split
# protocol (modulation, scores, critical quantile)
res_cal = (hf[:, 80:100] - mfae.predict(final, lf[:, 80:100])).T
s = conformal.modulation(res_cal)
k_s = conformal.critical_quantile(conformal.scores(res_cal, s, "linf"), delta=0.1)
print(f"\nsingle-split critical quantile {k_s:.2f} vs "
      f"median-aggregated radii from {len(results['linf'][0].splits)} splits")
