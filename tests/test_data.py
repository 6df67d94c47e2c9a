import csv
import io
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfcp import cli, data

from helpers import make_pressure_set


def small_set():
    return data.SnapshotSet(
        fields=np.array([[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]]),
        coords=np.array([[0.0], [0.5], [1.0]]),
        params=np.array([[0.1], [0.2]]),
        param_names=["alpha"],
        names=["a", "b"],
    )


def test_snapshot_set_rejects_duplicates():
    with pytest.raises(ValueError):
        data.SnapshotSet(
            fields=np.zeros((2, 2)),
            coords=np.zeros((2, 1)),
            params=np.zeros((2, 1)),
            param_names=["p"],
            names=["x", "x"],
        )


def test_csv_round_trip_hand_file(tmp_path):
    s = small_set()
    path = tmp_path / "set.csv"
    data.save_csv(s, path)
    loaded = data.load_csv(path)
    assert loaded.names == ["a", "b"]
    assert np.array_equal(loaded.fields, s.fields)
    assert np.array_equal(loaded.coords, s.coords)
    assert np.array_equal(loaded.params, s.params)


def test_csv_round_trip_random_bit_exact(tmp_path):
    s = make_pressure_set(7, 11, seed=3)
    path = tmp_path / "r.csv"
    data.save_csv(s, path)
    loaded = data.load_csv(path)
    assert np.array_equal(loaded.fields, s.fields)
    assert np.array_equal(loaded.coords, s.coords)
    assert np.array_equal(loaded.params, s.params)
    assert loaded.param_names == s.param_names


def test_csv_empty_snapshot_list(tmp_path):
    s = data.SnapshotSet(
        fields=np.zeros((3, 0)),
        coords=np.linspace(0, 1, 3)[:, None],
        params=np.zeros((0, 1)),
        param_names=["p"],
        names=[],
    )
    path = tmp_path / "empty.csv"
    data.save_csv(s, path)
    loaded = data.load_csv(path)
    assert loaded.n_snapshots == 0
    assert loaded.n_nodes == 3


def test_csv_rejects_ragged_and_nonnumeric(tmp_path):
    path = tmp_path / "bad.csv"
    params = tmp_path / "bad_params.csv"
    params.write_text("name,p\na,1\n")
    path.write_text("node,x,a\n0,0.0,1.0\n1,0.5\n")
    with pytest.raises(ValueError, match="ragged"):
        data.load_csv(path)
    path.write_text("node,x,a\n0,0.0,oops\n")
    with pytest.raises(ValueError, match="non-numeric"):
        data.load_csv(path)
    path.write_text("node,x,a,a\n0,0.0,1.0,2.0\n")
    with pytest.raises(ValueError, match="duplicate"):
        data.load_csv(path)


# --- the CSV codec against cell-by-cell references ----------------------------


def reference_save(s, path):
    """The fields file as a csv.writer loop over f"{v:.17g}" cells writes it."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["node", *data.COORD_NAMES[: s.coords.shape[1]], *s.names])
        for i in range(s.n_nodes):
            w.writerow([str(i)] + [f"{v:.17g}" for v in s.coords[i]]
                       + [f"{v:.17g}" for v in s.fields[i]])


def reference_cell(cell):
    """NumPy's text-parser rule for one cell, which `load_csv` documents."""
    s = cell.strip()
    if not s.isascii() or "_" in s:
        raise ValueError(cell)
    return float(s)


def reference_body(text, path):
    """(values without the node column, None) or (None, error message) for a
    fields file whose header is valid: csv records, the ragged check, then
    every cell left to right."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
    width = len(rows[0])
    values = []
    for k, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            return None, f"{path}: ragged row {k} ({len(row)} cells, expected {width})"
        for c in row[1:]:
            try:
                reference_cell(c)
            except ValueError:
                return None, f"non-numeric cell {c!r} in {path}:{k}"
        values.append([reference_cell(c) for c in row[1:]])
    if not values:
        return None, f"{path}: no node rows"
    return np.array(values, dtype=np.float64), None


def degrade_exit_code(path):
    """`mfcp degrade` with the identity recipe on the fields CSV at `path`."""
    root = path.parent
    (root / "recipe.json").write_text('{"stages": []}')
    cfg = cli.PipelineConfig(hf_set=str(path), recipe=str(root / "recipe.json"),
                             out_dir=str(root / "out"))
    (root / "c.txt").write_text(cli.dump_config(cfg))
    return cli.main(["degrade", "--config", str(root / "c.txt")])


def codec_set(kind):
    if kind == "special":
        return data.SnapshotSet(
            fields=np.array([[-0.0, 5e-324, 1e308], [1 / 3, -1 / 3, -5e-324]]),
            coords=np.array([[-0.0], [1 / 3]]),
            params=np.array([[-0.0], [5e-324], [1 / 3]]),
            param_names=["p"],
            names=["a,b", 'say "c"', "c"],
        )
    if kind == "xyz":
        rng = np.random.default_rng(5)
        return data.SnapshotSet(fields=rng.normal(size=(6, 4)) * 10.0 ** rng.integers(-300, 300, (6, 4)),
                                coords=rng.normal(size=(6, 3)), params=rng.normal(size=(4, 2)),
                                param_names=["p", "q"], names=["s0", "s1", "s2", "s3"])
    return data.SnapshotSet(fields=np.zeros((3, 0)), coords=np.array([[0.0], [-0.0], [1e308]]),
                            params=np.zeros((0, 1)), param_names=["p"], names=[])


@pytest.mark.parametrize("kind", ["special", "xyz", "no_snapshots"])
def test_csv_codec_matches_reference_bytes_and_round_trips_bits(tmp_path, kind):
    s = codec_set(kind)
    data.save_csv(s, tmp_path / "set.csv")
    reference_save(s, tmp_path / "ref.csv")
    assert (tmp_path / "set.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    loaded = data.load_csv(tmp_path / "set.csv")
    assert loaded.names == s.names
    for got, want in ((loaded.fields, s.fields), (loaded.coords, s.coords),
                      (loaded.params, s.params)):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # bit-exact, the sign of -0.0 too
    assert loaded.fields.flags.c_contiguous and loaded.coords.flags.c_contiguous


def reference_write_rows(fh, body, eol):
    """The row writer before heads were shared: one `%` format per row of the
    coordinates and values stacked side by side."""
    line = "%d," + ",".join(["%.17g"] * body.shape[1]) + eol
    for i, row in enumerate(body.tolist()):
        fh.write(line % (i, *row))


# both sides of where %.17g switches to exponent notation (below 1e-4, from
# 1e17), signed zeros, subnormals, the largest finite values, infinities and nan
WRITER_FLOATS = st.one_of(
    st.floats(width=64),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-5, -1e-5, 1e-4,
                     9.9999999999999991e-5, 1.0000000000000001e-4, 1e17, 9.9999999999999984e16,
                     1.0000000000000002e17, -1e17, math.inf, -math.inf, math.nan,
                     1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(1e-6, 1e-3).flatmap(lambda v: st.sampled_from([v, -v])),
    st.floats(1e16, 1e18).flatmap(lambda v: st.sampled_from([v, -v])),
)


@settings(max_examples=200, deadline=None)
@given(data_=st.data(), n_rows=st.integers(0, 9), n_coords=st.integers(1, 3),
       n_values=st.integers(0, 4), eol=st.sampled_from(["\n", "\r\n"]))
def test_write_rows_matches_the_stacked_form(data_, n_rows, n_coords, n_values, eol):
    def matrix(cols):
        cells = data_.draw(st.lists(WRITER_FLOATS, min_size=n_rows * cols, max_size=n_rows * cols))
        return np.array(cells, dtype=np.float64).reshape(n_rows, cols)

    coords, body = matrix(n_coords), matrix(n_values)
    got, want = io.StringIO(newline=""), io.StringIO(newline="")
    data._write_rows(got, data._row_heads(coords), body, eol)
    reference_write_rows(want, np.hstack([coords, body]), eol)
    assert got.getvalue() == want.getvalue()


# rows in one block of a body with 7 values per row
STEP_7 = data._BLOCK_VALUES // 7


@pytest.mark.parametrize("n_rows, cols", [
    (2 * STEP_7 + 5, 7), (2 * STEP_7, 7), (3, data._BLOCK_VALUES + 1), (data._BLOCK_VALUES + 3, 0),
], ids=["three-blocks-with-a-remainder", "two-whole-blocks", "one-row-per-block", "no-values"])
def test_write_rows_matches_the_stacked_form_over_blocks(n_rows, cols):
    rng = np.random.default_rng(n_rows)
    special = np.array([0.0, -0.0, 5e-324, 1e-5, 1e17, -1.7976931348623157e308, math.inf, math.nan])
    body = rng.normal(size=(n_rows, cols)) * 10.0 ** rng.integers(-300, 300, (n_rows, cols))
    picks = rng.random((n_rows, cols)) < 0.1
    body[picks] = rng.choice(special, picks.sum())
    coords = rng.normal(size=(n_rows, 2))
    got, want = io.StringIO(newline=""), io.StringIO(newline="")
    data._write_rows(got, data._row_heads(coords), body, "\r\n")
    reference_write_rows(want, np.hstack([coords, body]), "\r\n")
    assert got.getvalue() == want.getvalue()


@pytest.mark.parametrize("body, message", [
    ("0,0.0,1.0\n1,0.5\n", "{path}: ragged row 3 (2 cells, expected 3)"),
    ("0,0.0,1.0\n1,0.5,2.0,3.0\n", "{path}: ragged row 3 (4 cells, expected 3)"),
    ("0,0.0,1.0\n\n1,0.5,2.0\n", "{path}: ragged row 3 (0 cells, expected 3)"),
    ("0,0.0,1.0\n1,0.5\n2,oops,1\n", "{path}: ragged row 3 (2 cells, expected 3)"),
    ("0,0.0,1.0\n1,0.5,oops\n", "non-numeric cell 'oops' in {path}:3"),
    ("0,0.0,1.0#2\n", "non-numeric cell '1.0#2' in {path}:2"),
    ("0,1_0,1.0\n", "non-numeric cell '1_0' in {path}:2"),
    ("", "{path}: no node rows"),
])
def test_csv_errors_name_the_first_bad_line(tmp_path, body, message):
    path = tmp_path / "bad.csv"
    (tmp_path / "bad_params.csv").write_text("name,p\na,1\n")
    path.write_text("node,x,a\n" + body)
    for cache_dir in (None, tmp_path / "cache"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                data.load_csv(path, cache_dir=cache_dir)
        assert str(exc.value) == message.format(path=path)
    assert degrade_exit_code(path) == 2
    # a file that fails to parse is never cached
    assert not (tmp_path / "cache").exists() and not (tmp_path / "out" / "cache").exists()


# one cell over the csv module's default field size limit of 131,072 characters
BIG_CELL = "x" * 200_000


@pytest.mark.parametrize("where", ["header", "body", "params"])
def test_csv_oversized_cell_is_a_value_error(tmp_path, capsys, where):
    path, params = tmp_path / "big.csv", tmp_path / "big_params.csv"
    bad_fields = {"header": f"node,x,{BIG_CELL}\n0,0.0,1.0\n", "body": f"node,x,a\n0,0.0,{BIG_CELL}\n"}
    path.write_text(bad_fields.get(where, "node,x,a\n0,0.0,1.0\n"))
    params.write_text(f"name,p\na,{BIG_CELL}\n" if where == "params" else "name,p\na,1\n")
    bad = params if where == "params" else path
    with pytest.raises(ValueError, match="field larger than field limit") as exc:
        data.load_csv(path)
    assert str(exc.value).startswith(f"{bad}: ")
    capsys.readouterr()
    assert degrade_exit_code(path) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: field larger than field limit")


# --- the parse cache ------------------------------------------------------------


def cache_set():
    """Names that a CSV quotes or escapes, or that a NumPy string array would
    alter: a comma, a quote, a newline, non-ASCII, trailing spaces and NULs."""
    return data.SnapshotSet(
        fields=np.array([[-0.0, 5e-324, 1 / 3, 1e308], [np.inf, -1 / 7, 2.0, np.nan]]),
        coords=np.array([[-0.0, 1.5], [1 / 3, -0.0]]),
        params=np.array([[-0.0], [5e-324], [1 / 3], [-2.5]]),
        param_names=["Mach, ∞ "],
        names=["a,b", 'say "c"', "line\nbreak", "Ünïcode \x00\x00"],
    )


def entries(cache_dir):
    return sorted(p.name for p in cache_dir.iterdir()) if cache_dir.exists() else []


def no_parse(*args):
    raise AssertionError("parsed instead of read from the cache")


def assert_same_set(got, want):
    assert got.names == want.names and got.param_names == want.param_names
    for a, b in ((got.fields, want.fields), (got.coords, want.coords), (got.params, want.params)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()  # -0.0 and NaN bits too
        assert a.dtype == np.float64 and a.flags.c_contiguous


def test_cache_hit_gives_the_bits_of_a_parse(tmp_path, monkeypatch):
    s, cache = cache_set(), tmp_path / "cache"
    data.save_csv(s, tmp_path / "set.csv")
    parsed = data.load_csv(tmp_path / "set.csv")
    assert_same_set(parsed, s)
    assert entries(cache) == []
    assert_same_set(data.load_csv(tmp_path / "set.csv", cache_dir=cache), parsed)  # miss, stored
    [entry] = entries(cache)
    assert entry.endswith(".npz") and len(entry) == 64 + 4
    monkeypatch.setattr(data, "_parse_csv", no_parse)
    assert_same_set(data.load_csv(tmp_path / "set.csv", cache_dir=cache), parsed)  # hit
    assert entries(cache) == [entry]


PRINT_CACHE_TAG = "import sys, mfcp.data; sys.stdout.write(mfcp.data._CACHE_TAG.decode())"


def test_cache_tag_is_the_same_however_a_stage_is_started():
    # Under a C locale a stage started from a shell runs in UTF-8 mode and
    # spells its encoding "utf-8"; one started by a Python parent inherits
    # LC_CTYPE=C.UTF-8 from locale coercion (PEP 538) and spells it "UTF-8".
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("LC_", "LANG", "PYTHONUTF8", "PYTHONCOERCECLOCALE"))}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(data.__file__)))
    from_shell = [sys.executable, "-c", PRINT_CACHE_TAG]
    from_python = [sys.executable, "-c",
                   f"import subprocess, sys; subprocess.run({from_shell!r}, check=True)"]
    tags = [subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout
            for cmd in (from_shell, from_python)]
    assert tags == ["mfcp snapshot cache 1\nutf-8\n"] * 2


# save, parse, then load twice through the cache (a miss that stores, then a
# hit), each bit-exact, in the directory argv[1]; names in escapes, so the
# script's own text is ASCII under any locale
ROUND_TRIP_CAFE = """
import sys
import numpy as np
from mfcp import data
want = data.SnapshotSet(fields=np.array([[1 / 3, -0.0], [2.5, 1e308]]), coords=np.zeros((2, 1)),
                        params=np.array([[0.1], [-7.0]]), param_names=["\\u03b1"],
                        names=["caf\\u00e9", "b"])
data.save_csv(want, sys.argv[1] + "/set.csv")
for cache_dir in (None, sys.argv[1] + "/cache", sys.argv[1] + "/cache"):
    got = data.load_csv(sys.argv[1] + "/set.csv", cache_dir=cache_dir)
    assert got.names == want.names and got.param_names == want.param_names
    for a, b in ((got.fields, want.fields), (got.coords, want.coords), (got.params, want.params)):
        assert a.tobytes() == b.tobytes()
"""


def test_a_set_is_utf_8_under_an_ascii_locale(tmp_path):
    # with locale coercion and UTF-8 mode off, the C locale's encoding is ASCII
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("LC_", "LANG", "PYTHONUTF8", "PYTHONCOERCECLOCALE"))}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(data.__file__)))
    ascii_env = dict(env, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    for name, child_env in (("ascii", ascii_env), ("default", env)):
        (tmp_path / name).mkdir()
        subprocess.run([sys.executable, "-c", ROUND_TRIP_CAFE, str(tmp_path / name)],
                       env=child_env, capture_output=True, check=True)
    ascii_dir, default_dir = tmp_path / "ascii", tmp_path / "default"
    for name in ("set.csv", "set_params.csv"):
        assert (ascii_dir / name).read_bytes() == (default_dir / name).read_bytes()
    assert "café".encode() in (ascii_dir / "set.csv").read_bytes()
    # the same cache key: the entries themselves are zip archives stamped with their time
    assert entries(ascii_dir / "cache") == entries(default_dir / "cache")


@pytest.mark.parametrize("which", ["fields", "params"])
def test_cache_one_changed_byte_is_a_miss(tmp_path, which):
    cache = tmp_path / "cache"
    data.save_csv(small_set(), tmp_path / "set.csv")
    first = data.load_csv(tmp_path / "set.csv", cache_dir=cache)
    path = tmp_path / ("set.csv" if which == "fields" else "set_params.csv")
    text = path.read_bytes()
    path.write_bytes(text.replace(b"0.20000000000000001", b"0.30000000000000001")
                     .replace(b"\r\n2,1,3,6", b"\r\n2,1,3,7"))
    assert path.read_bytes() != text
    changed = data.load_csv(tmp_path / "set.csv", cache_dir=cache)
    assert len(entries(cache)) == 2
    assert_same_set(changed, data.load_csv(tmp_path / "set.csv"))
    moved = changed.fields if which == "fields" else changed.params
    kept = first.fields if which == "fields" else first.params
    assert not np.array_equal(moved, kept)


@pytest.mark.parametrize("fields, params", [
    (None, "name,alpha\na,0.1\n"),
    ("node,x,a\n0,0.0,1.0\n", None),
    ("node,x,a\n0,0.0\n", None),
], ids=["no-fields-file", "no-params-file", "ragged-and-no-params-file"])
def test_cache_keeps_the_error_of_an_unreadable_input(tmp_path, fields, params):
    if fields is not None:
        (tmp_path / "set.csv").write_text(fields)
    if params is not None:
        (tmp_path / "set_params.csv").write_text(params)
    messages = []
    for cache_dir in (None, tmp_path / "cache"):
        with pytest.raises((OSError, ValueError)) as exc:
            data.load_csv(tmp_path / "set.csv", cache_dir=cache_dir)
        messages.append((type(exc.value), str(exc.value)))
    assert messages[0] == messages[1]
    assert entries(tmp_path / "cache") == []


def foreign_npz(path):
    np.savez(path, other=np.arange(3.0))


def float32_npz(path):
    s = small_set()
    np.savez(path, fields=s.fields, coords=s.coords, params=s.params.astype(np.float32),
             names='{"names": ["a", "b"], "param_names": ["alpha"]}')


def fortran_npz(path):
    s = small_set()
    np.savez(path, fields=np.asfortranarray(s.fields), coords=s.coords, params=s.params,
             names='{"names": ["a", "b"], "param_names": ["alpha"]}')


@pytest.mark.parametrize("spoil", [
    lambda p: p.write_bytes(p.read_bytes()[: len(p.read_bytes()) // 2]),
    lambda p: p.write_bytes(b""),
    lambda p: p.write_text("not a zip file\n"),
    foreign_npz,
    float32_npz,
    fortran_npz,
], ids=["truncated", "empty", "not-a-zip", "foreign-keys", "float32", "fortran-order"])
def test_cache_unreadable_entry_is_a_miss_and_is_replaced(tmp_path, monkeypatch, spoil):
    s, cache = small_set(), tmp_path / "cache"
    data.save_csv(s, tmp_path / "set.csv")
    data.load_csv(tmp_path / "set.csv", cache_dir=cache)
    [entry] = entries(cache)
    spoil(cache / entry)
    assert_same_set(data.load_csv(tmp_path / "set.csv", cache_dir=cache), s)
    assert entries(cache) == [entry]
    monkeypatch.setattr(data, "_parse_csv", no_parse)
    assert_same_set(data.load_csv(tmp_path / "set.csv", cache_dir=cache), s)


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_csv_line_ends_and_node_labels(tmp_path, eol):
    path = tmp_path / "set.csv"
    (tmp_path / "set_params.csv").write_text("name,p\na,1\n")
    path.write_bytes(eol.join(["node,x,a", "n0,0.0,1.5", '"n,1",0.5,-2'])
                     .encode() + eol.encode())
    loaded = data.load_csv(path)
    assert np.array_equal(loaded.coords, [[0.0], [0.5]])
    assert np.array_equal(loaded.fields, [[1.5], [-2.0]])


CELLS = st.one_of(
    st.floats().map(lambda v: f"{v:.17g}"),
    st.sampled_from(["", " ", "-0", "nan", "-inf", "1_0", "١٢", "1.0#2", "#", '"', '""',
                     ",", "\n", "\r", " 1 ", "1\xa0", "0x10", "1e", "oops", '"1.5"', '"1\n"']),
    st.text(alphabet=' 0123456789.-+eE_#",\r\n\tx١', max_size=6),
)


@settings(max_examples=150, deadline=1000)
@given(n_coords=st.integers(1, 3), n_snapshots=st.integers(0, 2),
       rows=st.lists(st.lists(CELLS, max_size=6), max_size=5),
       eol=st.sampled_from(["\n", "\r\n"]), final_eol=st.booleans())
def test_load_csv_fuzz_matches_reference(tmp_path_factory, n_coords, n_snapshots, rows, eol,
                                         final_eol):
    root = tmp_path_factory.getbasetemp() / "fuzz"
    root.mkdir(exist_ok=True)
    path = root / "set.csv"
    names = [f"s{j}" for j in range(n_snapshots)]
    (root / "set_params.csv").write_text("".join(f"{n},1\n" for n in ["name", *names]))
    lines = [",".join(["node", *data.COORD_NAMES[:n_coords], *names])]
    lines += [",".join(row) for row in rows]
    text = eol.join(lines) + (eol if final_eol else "")
    path.write_bytes(text.encode())
    want, message = reference_body(text, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            s = data.load_csv(path)
        except ValueError as exc:
            assert str(exc) == message
        else:
            assert message is None
            got = np.hstack([s.coords, s.fields])
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert degrade_exit_code(path) == (0 if message is None else 2)


def test_split_constant_params_plain_random():
    s = data.SnapshotSet(
        fields=np.zeros((2, 40)),
        coords=np.zeros((2, 1)),
        params=np.ones((40, 2)),
        param_names=["a", "b"],
        names=[f"s{i}" for i in range(40)],
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        plan = data.stratified_split(s, hf_fraction=0.5, test_fraction=0.25, seed=1)
    assert len(plan.train_idx) == 15
    assert len(plan.test_idx) == 5
    assert len(plan.complementary_idx) == 20


def test_split_counts_n100():
    s = make_pressure_set(100, 5, seed=0)
    plan = data.stratified_split(s, hf_fraction=0.9999, test_fraction=0.25, seed=3)
    assert len(plan.test_idx) == 25
    assert len(plan.train_idx) == 75


def test_split_disjoint_and_deterministic():
    s = make_pressure_set(80, 6, seed=5)
    p1 = data.stratified_split(s, 0.4, 0.25, seed=9)
    p2 = data.stratified_split(s, 0.4, 0.25, seed=9)
    assert p1.train_idx == p2.train_idx
    assert p1.test_idx == p2.test_idx
    assert p1.complementary_idx == p2.complementary_idx
    assert not set(p1.train_idx) & set(p1.test_idx)
    hf = set(p1.train_idx) | set(p1.test_idx)
    assert not hf & set(p1.complementary_idx)
    assert hf | set(p1.complementary_idx) == set(range(80))


def test_split_stratum_allocation_within_one_sample():
    # balanced 2-parameter grid: every joint stratum same size
    grid = np.array([[a, b] for a in range(9) for b in range(9)], dtype=float)
    n = len(grid)
    s = data.SnapshotSet(
        fields=np.zeros((2, n)),
        coords=np.zeros((2, 1)),
        params=grid,
        param_names=["a", "b"],
        names=[f"g{i}" for i in range(n)],
    )
    plan = data.stratified_split(s, hf_fraction=0.5, test_fraction=0.25, seed=2)
    n_hf = len(plan.train_idx) + len(plan.test_idx)
    global_frac = n_hf / n
    bins = np.stack([np.digitize(grid[:, j], np.quantile(grid[:, j], [1 / 3, 2 / 3]), right=True)
                     for j in range(2)], axis=1)
    hf = set(plan.train_idx) | set(plan.test_idx)
    for key in {tuple(row) for row in bins}:
        members = [i for i in range(n) if tuple(bins[i]) == key]
        got = sum(1 for i in members if i in hf)
        assert abs(got - global_frac * len(members)) <= 1.0


def test_cosine_abscissae_closed_form():
    got = data.cosine_abscissae(5)
    expected = (1.0 - np.cos(np.pi * np.arange(5) / 4.0)) / 2.0
    assert np.array_equal(got, expected)
    assert got[0] == 0.0 and got[-1] == 1.0
    assert abs(got[2] - 0.5) < 1e-15


def test_metrics_examples():
    truth = np.random.default_rng(0).normal(size=(6, 4))
    m = data.metrics(truth, truth)
    assert m == {"mae": 0.0, "rmse": 0.0, "r2": 1.0}
    m = data.metrics(np.full_like(truth, truth.mean()), truth)
    assert abs(m["r2"]) < 1e-12
    m = data.metrics(np.ones((2, 2)), np.ones((2, 2)))
    assert m["r2"] is None


def test_metrics_match_naive_loops():
    rng = np.random.default_rng(6)
    pred, truth = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
    m = data.metrics(pred, truth)
    diffs = [pred[i, j] - truth[i, j] for i in range(5) for j in range(3)]
    mae = sum(abs(d) for d in diffs) / len(diffs)
    rmse = (sum(d * d for d in diffs) / len(diffs)) ** 0.5
    tmean = sum(truth[i, j] for i in range(5) for j in range(3)) / 15
    ss_tot = sum((truth[i, j] - tmean) ** 2 for i in range(5) for j in range(3))
    r2 = 1 - sum(d * d for d in diffs) / ss_tot
    assert abs(m["mae"] - mae) <= 1e-12
    assert abs(m["rmse"] - rmse) <= 1e-12
    assert abs(m["r2"] - r2) <= 1e-12
    assert m["rmse"] ** 2 >= m["mae"] ** 2


def test_normalize_none_is_identity():
    s = small_set()
    stats = data.compute_norm_stats(s.fields, "none")
    out = stats.apply(s.fields)
    assert np.array_equal(out, s.fields)
    assert np.array_equal(stats.invert(out), s.fields)


def test_normalize_constant_field_guard():
    fields = np.full((3, 2), 7.5)
    stats = data.compute_norm_stats(fields, "per_node_standard")
    out = stats.apply(fields)
    assert not np.any(out)
    assert np.array_equal(stats.std, np.full(3, data.STD_FLOOR))
    assert np.array_equal(stats.invert(out), fields)


def test_normalize_round_trips():
    s = make_pressure_set(9, 17, seed=8)
    for mode in data.NORM_MODES:
        stats = data.compute_norm_stats(s.fields, mode)
        back = stats.invert(stats.apply(s.fields))
        assert np.max(np.abs(back - s.fields)) <= 1e-12


def test_normalize_rejects_a_single_vector():
    s = make_pressure_set(9, 17, seed=8)
    for mode in data.NORM_MODES:
        stats = data.compute_norm_stats(s.fields, mode)
        for method in (stats.apply, stats.invert):
            with pytest.raises(ValueError, match="batch"):
                method(s.fields[:, 0])
