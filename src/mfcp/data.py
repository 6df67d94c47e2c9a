"""Snapshot-set ingestion, normalization, splitting, and regression metrics.

A snapshot set holds a D x N field matrix (one column per snapshot), the
D-node coordinates, and per-snapshot named parameter rows. Sets are treated
as immutable; every operation returns new arrays.
"""

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

COORD_NAMES = ("x", "y", "z")


@dataclass
class SnapshotSet:
    fields: np.ndarray  # (D, N)
    coords: np.ndarray  # (D, c), c in 1..3
    params: np.ndarray  # (N, p)
    param_names: list
    names: list  # N snapshot identifiers

    def __post_init__(self):
        self.fields = np.asarray(self.fields, dtype=np.float64)
        self.coords = np.asarray(self.coords, dtype=np.float64)
        self.params = np.asarray(self.params, dtype=np.float64)
        if self.fields.ndim != 2:
            raise ValueError("fields must be a D x N matrix")
        d, n = self.fields.shape
        if self.coords.shape[0] != d or self.coords.ndim != 2 or not 1 <= self.coords.shape[1] <= 3:
            raise ValueError("coords must be (D, c) with 1 <= c <= 3")
        if self.params.shape != (n, len(self.param_names)):
            raise ValueError("params must be (N, p) matching param_names")
        if len(self.names) != n:
            raise ValueError("names length must equal snapshot count")
        if len(set(self.names)) != n:
            raise ValueError("duplicate snapshot names")

    @property
    def n_nodes(self):
        return self.fields.shape[0]

    @property
    def n_snapshots(self):
        return self.fields.shape[1]

    def take(self, indices):
        """New set restricted to the given snapshot indices."""
        idx = list(indices)
        return SnapshotSet(
            fields=self.fields[:, idx].copy(),
            coords=self.coords.copy(),
            params=self.params[idx].copy(),
            param_names=list(self.param_names),
            names=[self.names[i] for i in idx],
        )

    def indices_of(self, names):
        pos = {name: i for i, name in enumerate(self.names)}
        missing = [n for n in names if n not in pos]
        if missing:
            raise KeyError(f"unknown snapshot names: {missing[:5]}")
        return [pos[n] for n in names]


def _fmt(v):
    return f"{v:.17g}"


def params_path_for(path):
    """Sibling params CSV for a fields CSV path: foo.csv -> foo_params.csv."""
    path = str(path)
    stem, dot, ext = path.rpartition(".")
    if not dot:
        return path + "_params"
    return f"{stem}_params.{ext}"


def save_csv(s, path, params_path=None):
    """Write the fields CSV (node, coords, one column per snapshot) and the
    params CSV (name, one column per parameter). 17 significant digits, so
    a load round-trips bit-exactly."""
    params_path = params_path or params_path_for(path)
    coord_cols = COORD_NAMES[: s.coords.shape[1]]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["node", *coord_cols, *s.names])
        for i in range(s.n_nodes):
            row = [str(i)] + [_fmt(v) for v in s.coords[i]] + [_fmt(v) for v in s.fields[i]]
            w.writerow(row)
    with open(params_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["name", *s.param_names])
        for j, name in enumerate(s.names):
            w.writerow([name] + [_fmt(v) for v in s.params[j]])


def _parse_float(cell, where):
    try:
        return float(cell)
    except ValueError:
        raise ValueError(f"non-numeric cell {cell!r} in {where}")


def load_csv(path, params_path=None) -> SnapshotSet:
    """Load a snapshot set written by `save_csv`."""
    params_path = params_path or params_path_for(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty file")
    header = rows[0]
    if not header or header[0] != "node":
        raise ValueError(f"{path}: first header column must be 'node'")
    n_coords = 0
    while n_coords < 3 and 1 + n_coords < len(header) and header[1 + n_coords] == COORD_NAMES[n_coords]:
        n_coords += 1
    if n_coords == 0:
        raise ValueError(f"{path}: expected coordinate columns x[,y[,z]] after 'node'")
    names = header[1 + n_coords :]
    if len(set(names)) != len(names):
        raise ValueError(f"{path}: duplicate snapshot names")
    width = len(header)
    coords, fields = [], []
    for k, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise ValueError(f"{path}: ragged row {k} ({len(row)} cells, expected {width})")
        coords.append([_parse_float(c, f"{path}:{k}") for c in row[1 : 1 + n_coords]])
        fields.append([_parse_float(c, f"{path}:{k}") for c in row[1 + n_coords :]])
    d = len(coords)
    if d == 0:
        raise ValueError(f"{path}: no node rows")
    with open(params_path, newline="") as fh:
        prows = list(csv.reader(fh))
    if not prows or prows[0][:1] != ["name"]:
        raise ValueError(f"{params_path}: first header column must be 'name'")
    param_names = prows[0][1:]
    by_name = {}
    for k, row in enumerate(prows[1:], start=2):
        if len(row) != 1 + len(param_names):
            raise ValueError(f"{params_path}: ragged row {k}")
        by_name[row[0]] = [_parse_float(c, f"{params_path}:{k}") for c in row[1:]]
    missing = [n for n in names if n not in by_name]
    if missing:
        raise ValueError(f"{params_path}: missing parameter rows for {missing[:5]}")
    params = [by_name[n] for n in names]
    return SnapshotSet(
        fields=np.array(fields, dtype=np.float64).reshape(d, len(names)),
        coords=np.array(coords, dtype=np.float64),
        params=np.array(params, dtype=np.float64).reshape(len(names), len(param_names)),
        param_names=param_names,
        names=list(names),
    )


@dataclass
class SplitPlan:
    train_idx: list
    test_idx: list
    complementary_idx: list
    strata: dict = field(default_factory=dict)  # stratum label -> member count
    seed: int = 0


def _tercile_bins(col):
    q1, q2 = np.quantile(col, [1.0 / 3.0, 2.0 / 3.0])
    return np.digitize(col, [q1, q2], right=True)


def _allocate_largest_remainder(counts, total):
    counts = np.asarray(counts, dtype=np.float64)
    quotas = total * counts / counts.sum()
    base = np.floor(quotas).astype(int)
    frac = quotas - base
    order = np.argsort(-frac, kind="stable")
    for i in order[: total - int(base.sum())]:
        base[i] += 1
    return base


def _stratified_pick(indices_by_stratum, n_pick, rng):
    keys = sorted(indices_by_stratum)
    sizes = [len(indices_by_stratum[k]) for k in keys]
    alloc = _allocate_largest_remainder(sizes, n_pick)
    picked = []
    for key, k in zip(keys, alloc):
        members = sorted(indices_by_stratum[key])
        chosen = rng.choice(len(members), size=k, replace=False)
        picked.extend(members[i] for i in sorted(chosen))
    return sorted(picked)


def stratified_split(s, hf_fraction, test_fraction, seed) -> SplitPlan:
    """Pick the restricted HF budget and its train/test partition.

    Every parameter column is binned into terciles; the joint strata get
    proportional allocation (largest-remainder rounding) and the choice
    within each stratum is seed-random. Indices not selected into the HF
    budget form the complementary set.
    """
    if not 0.0 < hf_fraction <= 1.0:
        raise ValueError("hf_fraction must be in (0, 1]")
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    n = s.n_snapshots
    bins = np.stack([_tercile_bins(s.params[:, j]) for j in range(s.params.shape[1])], axis=1)
    keys = [tuple(row) for row in bins]
    strata = {}
    for i, key in enumerate(keys):
        strata.setdefault(key, []).append(i)
    if any(len(set(bins[:, j])) < 3 for j in range(bins.shape[1])):
        warnings.warn("some tercile strata are empty (tied parameter values); collapsed into neighbors")
    if n < len(strata):
        raise ValueError("fewer snapshots than strata")

    rng = np.random.default_rng(seed)
    n_hf = min(max(int(math.floor(hf_fraction * n + 0.5)), 2), n)
    hf_idx = _stratified_pick(strata, n_hf, rng)

    hf_strata = {}
    for i in hf_idx:
        hf_strata.setdefault(keys[i], []).append(i)
    n_test = min(max(int(math.floor(test_fraction * n_hf + 0.5)), 1), n_hf - 1)
    test_idx = _stratified_pick(hf_strata, n_test, rng)

    test_set = set(test_idx)
    hf_set = set(hf_idx)
    return SplitPlan(
        train_idx=[i for i in hf_idx if i not in test_set],
        test_idx=test_idx,
        complementary_idx=[i for i in range(n) if i not in hf_set],
        strata={str(k): len(v) for k, v in sorted(strata.items())},
        seed=seed,
    )


def cosine_abscissae(n):
    """n chordwise stations clustered at both ends: (1 - cos(pi i/(n-1)))/2."""
    if n < 2:
        raise ValueError("need at least 2 stations")
    i = np.arange(n, dtype=np.float64)
    return (1.0 - np.cos(np.pi * i / (n - 1))) / 2.0


def metrics(pred, truth):
    """Pooled MAE, RMSE and R^2 over all entries.

    R^2 uses the global truth mean; for constant truth it is undefined and
    reported as None.
    """
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ValueError("shape mismatch")
    diff = pred - truth
    mae = float(np.mean(np.abs(diff)))
    rmse = float(np.sqrt(np.mean(diff * diff)))
    ss_tot = float(np.sum((truth - truth.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = None
    else:
        r2 = 1.0 - float(np.sum(diff * diff)) / ss_tot
    return {"mae": mae, "rmse": rmse, "r2": r2}


NORM_MODES = ("none", "global_minmax", "per_node_standard")

STD_FLOOR = 1e-8


@dataclass
class NormStats:
    mode: str
    vmin: float = 0.0
    vmax: float = 0.0
    mean: np.ndarray = None  # (D,)
    std: np.ndarray = None  # (D,), already floored

    def apply(self, fields):
        """Normalize; `fields` has nodes on axis 0 ((D,) or (D, n))."""
        a = np.asarray(fields, dtype=np.float64)
        if self.mode == "none":
            return a.copy()
        if self.mode == "global_minmax":
            span = self.vmax - self.vmin
            if span == 0.0:
                return np.zeros_like(a)
            return (a - self.vmin) / span
        mean, std = self.mean, self.std
        if a.ndim == 2:
            mean, std = mean[:, None], std[:, None]
        return (a - mean) / std

    def invert(self, fields):
        a = np.asarray(fields, dtype=np.float64)
        if self.mode == "none":
            return a.copy()
        if self.mode == "global_minmax":
            span = self.vmax - self.vmin
            if span == 0.0:
                return np.full_like(a, self.vmin)
            return a * span + self.vmin
        mean, std = self.mean, self.std
        if a.ndim == 2:
            mean, std = mean[:, None], std[:, None]
        return a * std + mean

    def to_dict(self):
        doc = {"mode": self.mode}
        if self.mode == "global_minmax":
            doc.update(vmin=self.vmin, vmax=self.vmax)
        elif self.mode == "per_node_standard":
            doc.update(mean=self.mean.tolist(), std=self.std.tolist())
        return doc

    @classmethod
    def from_dict(cls, doc):
        mode = doc["mode"]
        if mode == "global_minmax":
            return cls(mode, vmin=doc["vmin"], vmax=doc["vmax"])
        if mode == "per_node_standard":
            return cls(mode, mean=np.array(doc["mean"]), std=np.array(doc["std"]))
        return cls(mode)


def compute_norm_stats(fields, mode) -> NormStats:
    """Fit normalization statistics on a (D, N) training field matrix."""
    if mode not in NORM_MODES:
        raise ValueError(f"unknown normalization mode {mode!r}")
    a = np.asarray(fields, dtype=np.float64)
    if mode == "none":
        return NormStats("none")
    if mode == "global_minmax":
        return NormStats("global_minmax", vmin=float(a.min()), vmax=float(a.max()))
    mean = a.mean(axis=1)
    std = np.maximum(a.std(axis=1), STD_FLOOR)
    return NormStats("per_node_standard", mean=mean, std=std)
