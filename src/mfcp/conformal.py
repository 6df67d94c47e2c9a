"""Modulated conformal prediction bands and multi-split calibration.

The band around a field prediction is a hyperrectangle: per-node radius =
(global critical quantile of the calibration scores) x (per-node residual
standard deviation). The multi-split protocol repeats the fit/calibrate
cycle over B random partitions of the high-fidelity training pairs and
aggregates radii and stopping epochs by component-wise medians, so the
final model can be trained on every available pair. The B splits are
independent and run on a pool of threads, one per CPU this process may
use, over a one-thread BLAS.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import linalg, mfae, nn

SCORE_KINDS = ("linf", "normalized_l2")

S_FLOOR = 1e-8


def modulation(residuals):
    """Per-component population standard deviation of an (n, D) residual
    matrix, clamped below by `S_FLOOR`."""
    r = np.asarray(residuals, dtype=np.float64)
    if r.ndim != 2 or r.shape[0] < 2:
        raise ValueError("need at least 2 residual rows")
    return np.maximum(r.std(axis=0), S_FLOOR)


def scores(residuals, s, kind):
    """One nonconformity score per residual row.

    Rows are first normalized component-wise by `s`; 'linf' takes the max,
    'normalized_l2' the root mean square.
    """
    if kind not in SCORE_KINDS:
        raise ValueError(f"unknown score kind {kind!r}")
    r = np.abs(np.asarray(residuals, dtype=np.float64)) / np.asarray(s, dtype=np.float64)
    if r.ndim != 2:
        raise ValueError("residuals must be (n, D)")
    if kind == "linf":
        return r.max(axis=1)
    return np.sqrt((r * r).mean(axis=1))


def critical_quantile(score_values, delta):
    """The k-th smallest score with k = ceil((n + 1) (1 - delta)).

    Raises ValueError when k exceeds n (too few calibration samples for
    the requested significance; add samples or raise delta).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta!r}")
    sv = np.sort(np.asarray(score_values, dtype=np.float64))
    n = sv.size
    if n < 1:
        raise ValueError("need at least one score")
    k = math.ceil((n + 1) * (1.0 - delta))
    if k > n:
        raise ValueError(
            f"infeasible significance: rank {k} > {n} calibration scores; "
            f"add samples or raise delta"
        )
    return float(sv[k - 1])


def band(prediction, radius):
    """Hyperrectangle (lower, upper) centered at the prediction."""
    p = np.asarray(prediction, dtype=np.float64)
    r = np.asarray(radius, dtype=np.float64)
    if p.shape[-1] != r.shape[-1]:
        raise ValueError("prediction/radius length mismatch")
    return p - r, p + r


@dataclass
class SplitRecord:
    train_idx: list
    cal_idx: list
    critical_quantile: float
    epoch: int
    radius: np.ndarray


@dataclass
class MultiSplitCalibration:
    radius: np.ndarray  # component-wise median of the split radii
    epoch: int  # median of the split epochs, rounded up
    splits: list  # SplitRecord diagnostics


def multi_split_calibrate(x_lf, y_hf, pretrained, n_splits, cal_fraction, delta,
                          kind, patience=100, seed=0, max_epochs=2000,
                          lr=None) -> MultiSplitCalibration:
    """Calibrate radii and the stopping epoch over B random re-splits.

    For each split b the high-fidelity pairs are partitioned into a
    temporary training and calibration subset; a clone of the pretrained
    model is fine-tuned on the training part with early stopping monitored
    on the calibration part; the modulation and critical quantile both come
    from the calibration residuals. Medians aggregate the B radius vectors
    component-wise and the B best epochs.

    Each split owns a private RNG stream derived from (seed, b), so the
    splits run at once on min(B, CPUs this process may use) threads, over a
    BLAS pinned to one thread (`linalg.one_blas_thread`): the bytes do not
    depend on the worker count or the caller's BLAS setting, which comes
    back afterwards. Records keep the split order b = 0..B-1, and of the
    splits that diverge, the first in that order raises its TrainingDiverged.
    """
    x = np.asarray(x_lf, dtype=np.float64)
    y = np.asarray(y_hf, dtype=np.float64)
    n = x.shape[1]
    if y.shape[1] != n:
        raise ValueError("x_lf / y_hf pair count mismatch")
    if n_splits < 1:
        raise ValueError("need at least one split")
    if not 0.0 < cal_fraction < 1.0:
        raise ValueError("cal_fraction must be in (0, 1)")
    if kind not in SCORE_KINDS:
        raise ValueError(f"unknown score kind {kind!r}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta!r}")
    n_cal = min(max(int(math.floor(cal_fraction * n + 0.5)), 1), n - 1)
    # fail before any training on a calibration size too small for the modulation or delta
    if n_cal < 2 or math.ceil((n_cal + 1) * (1.0 - delta)) > n_cal:
        for_what = "the modulation, which needs 2" if n_cal < 2 else f"delta={delta}"
        raise ValueError(f"cal_fraction gives {n_cal} calibration samples, too few for {for_what}")

    def run_split(b):
        rng = np.random.default_rng([seed, b])
        perm = rng.permutation(n)
        cal_idx = np.sort(perm[:n_cal])
        train_idx = np.sort(perm[n_cal:])
        model = mfae.clone(pretrained)
        try:
            result = mfae.fine_tune(
                model, x[:, train_idx], y[:, train_idx],
                epochs=max_epochs, monitor=(x[:, cal_idx], y[:, cal_idx]),
                patience=patience, lr=lr, seed=[seed, b, 1],
            )
        except nn.TrainingDiverged as exc:
            raise nn.TrainingDiverged(exc.epoch, f"split {b} diverged") from exc
        # the split rule; perfbench times a split up to the critical_quantile called here
        residuals = (y[:, cal_idx] - mfae.predict(model, x[:, cal_idx])).T
        s = modulation(residuals)
        k_s = critical_quantile(scores(residuals, s, kind), delta)
        return SplitRecord(train_idx=train_idx.tolist(), cal_idx=cal_idx.tolist(),
                           critical_quantile=k_s, epoch=int(result.best_epoch), radius=k_s * s)

    workers = min(n_splits, linalg.usable_cpus())
    with linalg.one_blas_thread(), ThreadPoolExecutor(workers) as pool:
        records = list(pool.map(run_split, range(n_splits)))
    return MultiSplitCalibration(
        radius=np.median(np.stack([rec.radius for rec in records]), axis=0),
        # an even count averages the two middle epochs; the median is rounded up
        epoch=int(math.ceil(float(np.median([rec.epoch for rec in records])))),
        splits=records,
    )


@dataclass
class CoverageStats:
    nominal: float  # fraction of snapshots entirely inside their band
    pointwise: float  # fraction of individual components inside
    width_mean: float
    width_std: float


def coverage(lower, upper, truths) -> CoverageStats:
    """Containment of (n, D) truths in (n, D) bands; boundary counts as covered."""
    lo = np.asarray(lower, dtype=np.float64)
    hi = np.asarray(upper, dtype=np.float64)
    t = np.asarray(truths, dtype=np.float64)
    if t.ndim != 2 or lo.shape != t.shape or hi.shape != t.shape:
        raise ValueError("lower, upper and truths must be (n, D) matrices of one shape")
    inside = (t >= lo) & (t <= hi)
    widths = hi - lo
    return CoverageStats(
        nominal=float(inside.all(axis=1).mean()),
        pointwise=float(inside.mean()),
        width_mean=float(widths.mean()),
        width_std=float(widths.std()),
    )
