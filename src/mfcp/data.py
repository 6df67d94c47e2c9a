"""Snapshot-set ingestion, normalization, splitting, and regression metrics,
and the CSV writers of snapshot sets and of evaluate's predictions.

A snapshot set holds a D x N field matrix (one column per snapshot), the
D-node coordinates, and per-snapshot named parameter rows. Sets are treated
as immutable; every operation returns new arrays.
"""

import csv
import hashlib
import json
import math
import os
import tempfile
import warnings
import zipfile
import zlib
from dataclasses import dataclass

import numpy as np

from . import linalg

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


def params_path_for(path):
    """Sibling params CSV for a fields CSV path: foo.csv -> foo_params.csv."""
    path = str(path)
    stem, dot, ext = path.rpartition(".")
    if not dot:
        return path + "_params"
    return f"{stem}_params.{ext}"


def _row_heads(coords):
    """The start of each CSV line: the row index, then the row's coordinates
    with 17 significant digits. No trailing comma, so that a row with no
    values after it ends at its last coordinate."""
    head = "%d" + ",%.17g" * coords.shape[1]
    return [head % (i, *row) for i, row in enumerate(coords.tolist())]


# values _write_rows turns into Python floats at a time: about 2 MB of
# objects however large the body, and one block for a prediction body
_BLOCK_VALUES = 2**16


def _write_rows(fh, heads, body, eol):
    """One line per row of `body`: its head from `heads`, then every value
    with 17 significant digits, so a load round-trips bit-exactly. Lines are
    written one at a time and the body is converted a block of rows at a
    time; a whole file's text or values are never built."""
    line = "%s" + ",%.17g" * body.shape[1] + eol
    step = max(1, _BLOCK_VALUES // max(1, body.shape[1]))
    for start in range(0, body.shape[0], step):
        for head, row in zip(heads[start:start + step], body[start:start + step].tolist()):
            fh.write(line % (head, *row))


def save_csv(s, path):
    """Write the fields CSV (node, coords, one column per snapshot) and the
    params CSV `params_path_for(path)` (name, one column per parameter).
    17 significant digits, so a load round-trips bit-exactly."""
    coord_cols = COORD_NAMES[: s.coords.shape[1]]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["node", *coord_cols, *s.names])
        _write_rows(fh, _row_heads(s.coords), s.fields, "\r\n")
    with open(params_path_for(path), "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["name", *s.param_names])
        for j, name in enumerate(s.names):
            w.writerow([name] + [f"{v:.17g}" for v in s.params[j]])


def _save_predictions(pred_dir, names, x, truth, pred, lower, upper):
    """Write `pred_dir/<name>.csv` per test snapshot j: node, `x`, column j
    of `truth` and `pred`, row j of `lower` and `upper`. `%.17g` holds the
    GIL, so one process per CPU this process may use writes them: process w
    the files j = w (mod workers), w = 0 being the caller's, which waits for
    the others; OSError if one failed. Without `os.fork` (Windows) the caller
    writes all. It lives here, not in `cli`: every stage compiles `cli`
    first, on its smallest heap, so code there shows in each stage's peak."""
    heads = _row_heads(x)
    workers = min(len(names), linalg.usable_cpus()) if hasattr(os, "fork") else 1

    def write_share(w):
        for j in range(w, len(names), workers):
            with open(os.path.join(pred_dir, f"{names[j]}.csv"), "w", encoding="utf-8") as fh:
                fh.write("node,x,truth,prediction,lower,upper\n")
                _write_rows(fh, heads, np.column_stack([truth[:, j], pred[:, j], lower[j],
                                                        upper[j]]), "\n")

    pids = []
    try:
        for w in range(1, workers):
            pid = os.fork()
            if pid == 0:
                # os._exit: the child never returns into the caller's stack (a
                # test may run the CLI in-process). Python 3.12 warns at a fork
                # beside other threads (OpenBLAS's idle pool); the child takes no
                # lock they may hold: it calls no BLAS, logging or sys.stderr.
                code = 1
                try:
                    write_share(w)
                    code = 0
                except Exception as exc:
                    os.write(2, f"error: {exc}\n".encode(errors="backslashreplace"))
                finally:
                    os._exit(code)
            pids.append(pid)
        write_share(0)
    finally:
        failed = sum(os.waitpid(pid, 0)[1] != 0 for pid in pids)
    if failed:
        raise OSError(f"{failed} of {workers - 1} prediction writer processes failed")


def _parse_float(cell, where):
    """A numeric cell under the rule of NumPy's text parser: surrounding
    whitespace is ignored, the rest must be ASCII with no underscores."""
    s = cell.strip()
    if s.isascii() and "_" not in s:
        try:
            return float(s)
        except ValueError:
            pass
    raise ValueError(f"non-numeric cell {cell!r} in {where}")


def _lines(fh):
    """The remaining lines of `fh`. A blank line, which loadtxt would skip,
    raises instead, so that the cell-by-cell scan reports it as ragged."""
    for line in fh:
        if line[0] in "\r\n":
            raise ValueError("blank line")
        yield line


def _records(path, fh):
    """csv.reader over `fh`. A cell over the csv module's field size limit
    raises ValueError naming `path` instead of csv.Error."""
    try:
        yield from csv.reader(fh)
    except csv.Error as exc:
        raise ValueError(f"{path}: {exc}") from None


def _scan_body(path, width):
    """The node rows of a fields CSV without the node column, parsed cell by
    cell. It defines what `load_csv` accepts, and runs only when loadtxt
    fails there: it names the first ragged row or non-numeric cell."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = _records(path, fh)
        next(reader)
        rows = []
        for k, row in enumerate(reader, start=2):
            if len(row) != width:
                raise ValueError(f"{path}: ragged row {k} ({len(row)} cells, expected {width})")
            rows.append([_parse_float(c, f"{path}:{k}") for c in row[1:]])
    return np.array(rows, dtype=np.float64).reshape(len(rows), width - 1)


def load_csv(path, *, cache_dir=None) -> SnapshotSet:
    """Load a snapshot set written by `save_csv`: the fields CSV `path` and
    its params CSV `params_path_for(path)`.

    With `cache_dir`, the parsed set is kept there as `<sha256>.npz`, keyed
    by the bytes of both files, and a later load of the same bytes reads
    that entry instead of parsing. Only a successful parse is stored, and
    an entry that cannot be read is parsed and written again.
    """
    params_path = params_path_for(path)
    if cache_dir is None:
        return _parse_csv(path, params_path)
    try:
        key = _digest(path, params_path)
    except OSError:
        return _parse_csv(path, params_path)  # raises the parser's own error
    entry = os.path.join(cache_dir, key + ".npz")
    s = _cached(entry)
    if s is None:
        s = _parse_csv(path, params_path)
        # a file rewritten while it was parsed must not be stored under its old key
        if _digest(path, params_path) == key:
            _store(entry, s)
    return s


# cache key prefix: the entry layout version, then the text encoding the
# parser decodes names with
_CACHE_TAG = b"mfcp snapshot cache 1\nutf-8\n"


def _digest(*paths):
    """sha256 over the sha256 of each file, read in 1 MiB chunks."""
    total = hashlib.sha256(_CACHE_TAG)
    for path in paths:
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 20):
                h.update(chunk)
        total.update(h.digest())
    return total.hexdigest()


# what np.load and the checks in _cached raise for a missing, truncated,
# empty, corrupt or foreign entry
_UNREADABLE = (OSError, EOFError, KeyError, TypeError, ValueError, NotImplementedError,
               zipfile.BadZipFile, zlib.error)


def _cached(entry):
    """The snapshot set stored at `entry`; None when there is none or it
    cannot be read back as exactly what a parse returns."""
    try:
        with np.load(entry, allow_pickle=False) as z:
            arrays = {k: z[k] for k in ("fields", "coords", "params")}
            labels = json.loads(str(z["names"]))
        if any(a.dtype != np.float64 or not a.flags.c_contiguous for a in arrays.values()):
            return None
        return SnapshotSet(**arrays, param_names=labels["param_names"], names=labels["names"])
    except _UNREADABLE:
        return None


def _store(entry, s):
    """Write `s` to `entry` through a temporary file, so that a reader sees
    either no entry or a whole one."""
    os.makedirs(os.path.dirname(entry), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(entry), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            # names as one JSON string: a NumPy string array would drop
            # trailing NULs, JSON escapes them
            np.savez(fh, fields=s.fields, coords=s.coords, params=s.params,
                     names=json.dumps({"names": s.names, "param_names": s.param_names}))
        os.replace(tmp, entry)
    except BaseException:
        os.unlink(tmp)
        raise


def _parse_csv(path, params_path):
    """The snapshot set in a fields CSV and its params CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(_records(path, fh), None)
        # The node column is a label and is never parsed. No usecols: with it
        # loadtxt would accept rows that are too long. An empty body is
        # reported as "no node rows" below, not as loadtxt's warning.
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                values = np.loadtxt(_lines(fh), dtype=np.float64, delimiter=",", comments=None,
                                    quotechar='"', ndmin=2, converters={0: lambda label: 0.0})
            values = values[:, 1:]
        except ValueError:
            values = None
    if header is None:
        raise ValueError(f"{path}: empty file")
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
    if values is None or values.shape[1] != width - 1:
        values = _scan_body(path, width)
    if values.shape[0] == 0:
        raise ValueError(f"{path}: no node rows")
    with open(params_path, newline="", encoding="utf-8") as fh:
        prows = list(_records(params_path, fh))
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
        # contiguous copies: strided views would change the last bits of
        # reductions over them, such as the norm statistics
        fields=np.ascontiguousarray(values[:, n_coords:]),
        coords=np.ascontiguousarray(values[:, :n_coords]),
        params=np.array(params, dtype=np.float64).reshape(len(names), len(param_names)),
        param_names=param_names,
        names=list(names),
    )


@dataclass
class SplitPlan:
    train_idx: list
    test_idx: list
    complementary_idx: list
    strata: dict  # stratum label -> member count


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


NORM_MODES = ("none", "per_node_standard")

STD_FLOOR = 1e-8


def _batch(fields):
    a = np.asarray(fields, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"fields must be a (D, n) batch, got shape {a.shape}")
    return a


@dataclass
class NormStats:
    mode: str
    mean: np.ndarray = None  # (D,)
    std: np.ndarray = None  # (D,), already floored

    def apply(self, fields):
        """Normalize a (D, n) batch of fields, nodes on axis 0."""
        a = _batch(fields)
        if self.mode == "none":
            return a.copy()
        out = a - self.mean[:, None]
        out /= self.std[:, None]  # in place: one (D, n) array, the bits of the expression
        return out

    def invert(self, fields):
        """Map a normalized (D, n) batch back to physical units."""
        a = _batch(fields)
        if self.mode == "none":
            return a.copy()
        return a * self.std[:, None] + self.mean[:, None]

    @classmethod
    def from_vector(cls, flat, n_nodes):
        """The per_node_standard NormStats of a 1-D vector holding the mean of
        each of `n_nodes` nodes, then the std of each; ValueError for a vector
        of another size or a std below STD_FLOOR."""
        if flat.shape != (2 * n_nodes,):
            raise ValueError(f"must hold {2 * n_nodes} values, the mean and then the std of "
                             f"each of {n_nodes} nodes, not {flat.size}")
        mean, std = flat[:n_nodes], flat[n_nodes:]
        # compute_norm_stats never writes these; a std of 0 would map every
        # prediction to the mean
        if not (std >= STD_FLOOR).all():
            raise ValueError(f"needs a std >= STD_FLOOR = {STD_FLOOR} for every node")
        return cls("per_node_standard", mean=mean, std=std)


def compute_norm_stats(fields, mode) -> NormStats:
    """Fit `mode` (one of NORM_MODES) statistics on a (D, N) training field matrix."""
    a = np.asarray(fields, dtype=np.float64)
    if mode == "none":
        return NormStats("none")
    mean = a.mean(axis=1)
    std = np.maximum(a.std(axis=1), STD_FLOOR)
    return NormStats("per_node_standard", mean=mean, std=std)
