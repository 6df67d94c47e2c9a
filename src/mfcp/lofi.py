"""Synthetic low-fidelity data generators.

Two degradation families: precision reduction (modal truncation of the
snapshot matrix, quantization, noise/bias) and resolution reduction
(farthest-point subsampling, k-nearest averaging, axis-aligned voxel
binning). The resolution reducers take (n, c) node coordinates, c <= 3,
and the fields as an (n, m) matrix with one row per node. Stages compose
into a declarative recipe that replays bit-identically for fixed seeds.
"""

import json
from dataclasses import MISSING, dataclass, fields as dc_fields

import numpy as np

from . import linalg
from .data import SnapshotSet


def pod_truncate(x, energy):
    """Rank-truncate a D x N snapshot matrix by cumulative modal energy.

    Keeps the smallest leading mode count whose cumulative squared singular
    values reach `energy` (fraction of the total); returns the truncated
    reconstruction, that mode count and the energy fraction it retains.
    """
    if not 0.0 < energy <= 1.0:
        raise ValueError("energy must be in (0, 1]")
    u, sigma, vt = linalg.thin_svd(x)
    cum = np.cumsum(sigma**2)
    ratios = cum / cum[-1]
    r_star = int(np.argmax(ratios >= energy)) + 1
    return (u[:, :r_star] * sigma[:r_star]) @ vt[:r_star], r_star, float(ratios[r_star - 1])


def _sq_dist(cols, i, out, tmp):
    """Squared distances from point `i` to every point, written into `out`.

    `cols` holds the cloud's coordinate columns. They are added in the order
    `((p - p[i]) ** 2).sum(axis=1)` adds them, (d0 + d1) + d2, so the bits
    are the same; `tmp` is scratch of the same length.
    """
    np.subtract(cols[0], cols[0][i], out=out)
    np.square(out, out=out)
    for col in cols[1:]:
        np.subtract(col, col[i], out=tmp)
        np.square(tmp, out=tmp)
        out += tmp
    return out


def fps(points, m, seed):
    """Greedy max-min farthest-point subsample of an n x c cloud (c <= 3).

    The first point is seed-random; each following pick maximizes the
    minimum squared distance to the already-selected set, ties broken by
    lowest index. Returns indices in selection order. Each pick costs O(n)
    on buffers allocated once.
    """
    p = linalg.check_matrix(points, "points", max_cols=3)
    n = p.shape[0]
    if not 1 <= m <= n:
        raise ValueError(f"m must be in 1..{n}")
    cols = [p[:, j].copy() for j in range(p.shape[1])]
    sq, tmp = np.empty(n), np.empty(n)
    start = int(np.random.default_rng(seed).integers(n))
    selected = [start]
    min_sq = _sq_dist(cols, start, np.empty(n), tmp)
    while len(selected) < m:
        nxt = int(np.argmax(min_sq))
        selected.append(nxt)
        np.minimum(min_sq, _sq_dist(cols, nxt, sq, tmp), out=min_sq)
    return selected


def knn_average(points, values, centers, k):
    """Mean of the k nearest points' (n, m) values at each center index.

    Distances are Euclidean in the coordinates; ties take the lowest index;
    a center is its own zero-distance neighbor. Each center costs O(n): a
    partition finds the k-th smallest distance, and only the points at or
    below it are sorted, which picks the same k points in the same order as
    a stable sort of all n distances.
    """
    p = linalg.check_matrix(points, "points", max_cols=3)
    n = p.shape[0]
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 2:
        raise ValueError(f"values must be an (n, m) matrix, got shape {v.shape}")
    if v.shape[0] != n:
        raise ValueError(f"values has {v.shape[0]} rows, expected one per point ({n})")
    if not 1 <= k <= n:
        raise ValueError("k must be in 1..n")
    idx = np.asarray(centers)
    if idx.ndim != 1 or idx.size and (idx.dtype.kind not in "iu"
                                      or not 0 <= idx.min() <= idx.max() < n):
        raise ValueError(f"centers must be a list of point indices in 0..{n - 1}")
    cols = [p[:, j].copy() for j in range(p.shape[1])]
    sq, tmp = np.empty(n), np.empty(n)
    out = np.empty((len(idx), v.shape[1]))
    for row, c in enumerate(idx):
        _sq_dist(cols, c, sq, tmp)
        kth = sq[np.argpartition(sq, k - 1)[k - 1]]
        near = np.flatnonzero(sq <= kth)
        nearest = near[np.argsort(sq[near], kind="stable")[:k]]
        out[row] = v[nearest].mean(axis=0)
    return out


def voxelize(points, values, size):
    """Bin a point cloud and its (n, m) values onto a regular grid of cell
    width `size`.

    Cells are the lattice floor(coord / size) in the coordinate frame; each
    occupied cell emits its geometric center and the mean of the member
    values. Output is sorted by integer cell coordinates.
    """
    if size <= 0:
        raise ValueError("voxel size must be positive")
    p = linalg.check_matrix(points, "points", max_cols=3)
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 2:
        raise ValueError(f"values must be an (n, m) matrix, got shape {v.shape}")
    cells = np.floor(p / size).astype(np.int64)
    uniq, inverse = np.unique(cells, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    m = uniq.shape[0]
    counts = np.bincount(inverse, minlength=m).astype(np.float64)
    means = np.empty((m, v.shape[1]))
    for j in range(v.shape[1]):
        means[:, j] = np.bincount(inverse, weights=v[:, j], minlength=m) / counts
    centers = (uniq + 0.5) * size
    return centers, means


# the level grid is built in memory: 8 MiB at this bound
MAX_LEVELS = 2**20


def quantize(x, levels):
    """Snap every entry to the nearest of `levels` uniform levels spanning
    the global [min, max]; exact midpoints round toward the lower level.
    Constant input is returned unchanged."""
    if not 2 <= levels <= MAX_LEVELS:
        raise ValueError(f"levels must be in 2..{MAX_LEVELS}, got {levels}")
    a = np.asarray(x, dtype=np.float64)
    vmin, vmax = float(a.min()), float(a.max())
    if vmin == vmax:
        return a.copy()
    grid = np.linspace(vmin, vmax, levels)
    pos = np.searchsorted(grid, a)
    pos = np.clip(pos, 1, levels - 1)
    low, high = grid[pos - 1], grid[pos]
    return np.where(a - low <= high - a, low, high)


def perturb(x, sigma, bias, seed):
    """Add i.i.d. Gaussian noise of the given sigma plus a constant bias."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    a = np.asarray(x, dtype=np.float64)
    out = a.copy()
    if sigma > 0:
        out += np.random.default_rng(seed).normal(0.0, sigma, size=a.shape)
    if bias != 0.0:
        out += bias
    return out


# --- declarative recipes ---------------------------------------------------
#
# Each stage maps (fields, coords, seed) to (fields, coords, provenance
# entry). Geometry masks (FPS, KNN centers, voxel cells) come from the shared
# node coordinates and apply to every snapshot.


@dataclass
class PodTruncate:
    energy: float
    kind = "pod_truncate"

    def apply(self, fields, coords, seed):
        fields, r_star, retained = pod_truncate(fields, self.energy)
        return fields, coords, {"r_star": r_star, "retained_energy": retained}


@dataclass
class Fps:
    m: int
    seed: int = None
    kind = "fps"

    def apply(self, fields, coords, seed):
        mask = fps(coords, self.m, seed)
        return fields[mask], coords[mask], {"mask": list(mask)}


@dataclass
class KnnAverage:
    m: int
    k: int
    seed: int = None
    kind = "knn_average"

    def apply(self, fields, coords, seed):
        centers = fps(coords, self.m, seed)
        fields = knn_average(coords, fields, centers, self.k)
        return fields, coords[centers], {"mask": list(centers)}


@dataclass
class Voxelize:
    size: float
    kind = "voxelize"

    def apply(self, fields, coords, seed):
        coords, fields = voxelize(coords, fields, self.size)
        return fields, coords, {"n_cells": coords.shape[0]}


@dataclass
class Quantize:
    levels: int
    kind = "quantize"

    def apply(self, fields, coords, seed):
        return quantize(fields, self.levels), coords, {"levels": self.levels}


@dataclass
class Noise:
    sigma: float
    seed: int = None
    kind = "noise"

    def apply(self, fields, coords, seed):
        return perturb(fields, self.sigma, 0.0, seed), coords, {"sigma": self.sigma}


@dataclass
class Bias:
    offset: float
    kind = "bias"

    def apply(self, fields, coords, seed):
        return perturb(fields, 0.0, self.offset, 0), coords, {"offset": self.offset}


STAGE_TYPES = {c.kind: c for c in (PodTruncate, Fps, KnnAverage, Voxelize, Quantize, Noise, Bias)}

# JSON value types each annotated stage field accepts; bool is an int
# subclass, so it is refused separately
_JSON_TYPES = {int: (int,), float: (int, float)}


def _stage_from_doc(pos, sdoc):
    """Build stage number `pos` from its JSON object, checking every field."""
    if not isinstance(sdoc, dict):
        raise ValueError(f"recipe stage {pos}: expected an object, got {sdoc!r}")
    sdoc = dict(sdoc)
    kind = sdoc.pop("kind", None)
    if not isinstance(kind, str) or kind not in STAGE_TYPES:
        raise ValueError(f"recipe stage {pos}: unknown kind {kind!r}")
    spec = {f.name: f for f in dc_fields(STAGE_TYPES[kind])}
    for name, value in sdoc.items():
        if name not in spec:
            raise ValueError(f"recipe stage {pos} ({kind}): unknown field {name!r}")
        t = spec[name].type
        if value is None and spec[name].default is None:
            continue
        if not isinstance(value, _JSON_TYPES[t]) or isinstance(value, bool):
            raise ValueError(f"recipe stage {pos} ({kind}): field {name!r} must be "
                             f"{t.__name__}, got {value!r}")
    missing = [n for n, f in spec.items() if f.default is MISSING and n not in sdoc]
    if missing:
        raise ValueError(f"recipe stage {pos} ({kind}): missing field(s) {missing}")
    return STAGE_TYPES[kind](**sdoc)


@dataclass
class DegradationRecipe:
    stages: list

    def to_json(self):
        stages = []
        for stage in self.stages:
            doc = {"kind": stage.kind}
            doc.update({k: v for k, v in stage.__dict__.items()})
            stages.append(doc)
        return json.dumps({"stages": stages}, indent=2)

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)
        if not isinstance(doc, dict) or not isinstance(doc.get("stages"), list):
            raise ValueError("recipe must be a JSON object with a 'stages' list")
        return cls([_stage_from_doc(pos, sdoc) for pos, sdoc in enumerate(doc["stages"])])


def _stage_seed(stage, master_seed, position):
    if getattr(stage, "seed", None) is not None:
        return stage.seed
    # named stream per (master seed, stage position); explicit stage seeds
    # keep streams stable when stages are inserted
    return int(np.random.default_rng([master_seed, position]).integers(2**31))


def apply_recipe(s, recipe, master_seed=0):
    """Run a degradation recipe over a snapshot set.

    Returns the degraded set and a provenance dict with one entry per stage
    (kept mode count, retained energy, mask indices, ...). The first stage
    reads `s.fields` in place, so the input is held once; the returned set
    shares no memory with `s`, also when no stage replaced the fields or
    the coordinates (an empty recipe, or precision stages only).
    """
    fields, coords = s.fields, s.coords
    provenance = {"stages": []}
    for pos, stage in enumerate(recipe.stages):
        seed = _stage_seed(stage, master_seed, pos)
        with np.errstate(over="ignore", invalid="ignore"):  # reported below, once
            fields, coords, entry = stage.apply(fields, coords, seed)
        if not np.isfinite(fields).all():
            raise ValueError(f"recipe stage {pos} ({stage.kind}): its output fields are "
                             "not all finite")
        provenance["stages"].append({"kind": stage.kind, **entry})
    out = SnapshotSet(
        fields=fields.copy() if np.may_share_memory(fields, s.fields) else fields,
        coords=coords.copy() if np.may_share_memory(coords, s.coords) else coords,
        params=s.params.copy(),
        param_names=list(s.param_names),
        names=list(s.names),
    )
    return out, provenance
