import csv
import dataclasses
import errno
import io
import json
import math
import os
import re
import struct
import sys
import tracemalloc
import zlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rpmnet.dataio as dio
import rpmnet.model as mdl
import rpmnet.openset as osr
from rpmnet.cli import main
from rpmnet.config import TrainConfig


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def tiny_bundle(threshold=None):
    rng = np.random.default_rng(0)
    cfg = TrainConfig(hidden_dims=(6, 5), embed_dim=3, seed=7)
    params = mdl.init_params(4, ["alpha", "beta"], cfg, rng)
    scaler = dio.Scaler(mean=rng.normal(size=4), std=np.abs(rng.normal(size=4)) + 0.5)
    return dio.Bundle(
        params=params,
        scaler=scaler,
        config=cfg,
        feature_names=("f0", "f1", "f2", "f3"),
        label_column="label",
        threshold=threshold,
    )


# ---------------------------------------------------------------------------
# CSV loading and cleaning


def test_load_csv_drops_nonfinite_rows(tmp_path):
    path = write(
        tmp_path / "flows.csv",
        "f0,f1,label\n1.0,2.0,a\nInfinity,3.0,b\n4.0,5.0,a\n",
    )
    ds, dropped = dio.load_csv(path)
    assert dropped == 1
    assert len(ds) == 2
    assert ds.labels == ("a", "a")
    assert np.array_equal(ds.features, [[1.0, 2.0], [4.0, 5.0]])


def test_load_csv_drops_nan_and_text_rows(tmp_path):
    path = write(
        tmp_path / "flows.csv",
        "f0,f1,label\nNaN,1.0,a\noops,1.0,a\n2.0,2.0,b\n1,3,b\n",
    )
    ds, dropped = dio.load_csv(path)
    assert dropped == 2
    assert len(ds) == 2


def test_load_csv_header_only_is_empty_error(tmp_path):
    path = write(tmp_path / "flows.csv", "f0,f1,label\n")
    with pytest.raises(dio.EmptyDatasetError):
        dio.load_csv(path)


def test_load_csv_no_header_at_all(tmp_path):
    path = write(tmp_path / "flows.csv", "")
    with pytest.raises(dio.EmptyDatasetError):
        dio.load_csv(path)


def test_load_csv_missing_column_named(tmp_path):
    path = write(tmp_path / "flows.csv", "f0,f1,label\n1,2,a\n")
    with pytest.raises(dio.SchemaError, match="f9"):
        dio.load_csv(path, feature_names=["f0", "f9"])
    with pytest.raises(dio.SchemaError, match="category"):
        dio.load_csv(path, label_column="category")


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    ds = dio.FlowDataset(
        features=rng.normal(size=(10, 3)),
        labels=tuple(rng.choice(["x", "y"], size=10)),
        feature_names=("a", "b", "c"),
    )
    path = tmp_path / "out.csv"
    dio.save_csv(path, ds)
    back, dropped = dio.load_csv(str(path))
    assert dropped == 0
    assert np.array_equal(back.features, ds.features)
    assert back.labels == ds.labels
    assert back.feature_names == ds.feature_names


def test_custom_label_column(tmp_path):
    path = write(tmp_path / "flows.csv", "f0,Attack Type\n1.5,dos\n", )
    ds, _ = dio.load_csv(path, label_column="Attack Type")
    assert ds.labels == ("dos",)
    assert ds.feature_names == ("f0",)


def reference_extract(header, rows, feature_names):
    """Per-cell ``float()`` parser that ``extract_features`` must match."""
    positions = [header.index(name) for name in feature_names]
    kept, kept_idx, dropped = [], [], 0
    for i, row in enumerate(rows):
        if len(row) != len(header):
            dropped += 1
            continue
        try:
            vec = [float(row[p]) for p in positions]
        except ValueError:
            dropped += 1
            continue
        if not all(math.isfinite(v) for v in vec):
            dropped += 1
            continue
        kept.append(vec)
        kept_idx.append(i)
    return np.asarray(kept, dtype=np.float64).reshape(len(kept), len(positions)), kept_idx, dropped


QUIRKY_CELLS = [
    "1_000", " 1.5 ", "Infinity", "-inf", "nan", "NaN", "1e400", "-1e400", "4.9e-324", "-0.0",
    "", "0x10", "1,5", "abc", "\u0661\u0662", "+.5", "1e", ".", "\t2\n",
]
cells = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).flatmap(
        lambda v: st.sampled_from(["%e" % v, "%g" % v, "%.20f" % v])
    ),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(QUIRKY_CELLS),
    st.text(max_size=4),
)


@st.composite
def csv_tables(draw):
    width = draw(st.integers(1, 5))
    header = [f"c{j}" for j in range(width)]
    feature_names = draw(st.permutations(header))[: draw(st.integers(0, width))]
    rows = draw(
        st.lists(
            st.integers(max(width - 1, 0), width + 1).flatmap(lambda n: st.lists(cells, min_size=n, max_size=n)),
            max_size=12,
        )
    )
    return header, rows, feature_names


@given(csv_tables())
@settings(max_examples=300, deadline=None)
def test_extract_features_matches_per_cell_float(table):
    header, rows, feature_names = table
    features, kept_idx, dropped = dio.extract_features(header, rows, feature_names)
    ref_features, ref_idx, ref_dropped = reference_extract(header, rows, feature_names)
    assert features.dtype == np.float64
    assert features.shape == ref_features.shape
    assert features.tobytes() == ref_features.tobytes()
    assert kept_idx == ref_idx
    assert dropped == ref_dropped


def test_extract_features_single_feature_schema():
    header = ["a", "b", "label"]
    rows = [["1", "2.5", "x"], ["1", "oops", "x"], ["1", "inf", "x"], ["1", " -3 ", "y"], ["1", "2"]]
    features, kept_idx, dropped = dio.extract_features(header, rows, ["b"])
    assert features.shape == (2, 1)
    assert np.array_equal(features, [[2.5], [-3.0]])
    assert kept_idx == [0, 3]
    assert dropped == 3


def test_extract_features_every_row_dropped():
    header = ["a", "b"]
    rows = [["nan", "1"], ["1", ""], ["1"], ["Infinity", "2"]]
    features, kept_idx, dropped = dio.extract_features(header, rows, ["a", "b"])
    assert features.shape == (0, 2)
    assert kept_idx == []
    assert dropped == 4


def test_extract_features_zero_features_keeps_well_formed_rows():
    header = ["label"]
    rows = [["x"], ["y", "extra"], ["z"]]
    features, kept_idx, dropped = dio.extract_features(header, rows, [])
    assert features.shape == (2, 0)
    assert kept_idx == [0, 2]
    assert dropped == 1


def test_load_csv_skips_utf8_bom(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbff0,f1,label\n1.0,2.0,a\n")
    ds, _ = dio.load_csv(str(path))
    assert ds.feature_names == ("f0", "f1")
    assert np.array_equal(ds.features, [[1.0, 2.0]])
    assert ds.labels == ("a",)


@pytest.mark.parametrize(
    "text,named",
    [
        ("a,a,label\n1,2,x\n3,4,y\n", "a"),
        ("a,b,a,b,label\n1,2,3,4,x\n", "a, b"),
        ("a,label,label\n1,x,y\n", "label"),
    ],
)
def test_load_csv_rejects_duplicated_columns(tmp_path, text, named):
    path = write(tmp_path / "dup.csv", text)
    with pytest.raises(dio.SchemaError, match=f"duplicated columns: {named};"):
        dio.load_csv(path)


@pytest.mark.parametrize(
    "header,names,message",
    [
        (["f0", "label", "f1"], ["f1", "f0"], None),
        (["f0", "x", "label"], ["f0", "f1", "f2"], "missing columns: f1, f2; other columns: x, label$"),
        (["f0"], ["f0", "f1"], "missing columns: f1$"),
        # a missing column is reported before a duplicated one
        (["a", "a", "b"], ["a", "c"], "missing columns: c; other columns: b$"),
        (["a", "a", "b", "b"], ["b", "a"], "duplicated columns: b, a;"),
        (["a", "b", "label"], ["a", "b", "a"], "columns named more than once: a;"),
        (["a", "label"], ["label", "label"], "columns named more than once: label;"),
    ],
)
def test_column_positions(header, names, message):
    if message is None:
        assert dio.column_positions(header, names) == [header.index(n) for n in names]
    else:
        with pytest.raises(dio.SchemaError, match=message):
            dio.column_positions(header, names)


def test_load_csv_ignores_duplicates_it_does_not_read(tmp_path):
    path = write(tmp_path / "dup.csv", "a,b,b,label\n1,2,3,x\n")
    ds, _ = dio.load_csv(path, feature_names=["a"])
    assert np.array_equal(ds.features, [[1.0]])


@pytest.mark.parametrize(
    "feature_names,named", [(["f0", "f0"], "f0"), (["label"], "label"), (["f1", "label"], "label")]
)
def test_load_csv_rejects_a_column_named_twice(tmp_path, feature_names, named):
    """A feature listed twice, or the label column listed as a feature,
    would read one column twice; it is a SchemaError, not a silent copy or
    an empty dataset."""
    path = write(tmp_path / "flows.csv", "f0,f1,label\n1,2,a\n3,4,b\n")
    with pytest.raises(dio.SchemaError, match=f"columns named more than once: {named};"):
        dio.load_csv(path, feature_names=feature_names)


def reference_load_csv(path, feature_names=None, label_column="label"):
    """``load_csv`` as it was before it streamed: ``read_csv_rows`` plus
    ``extract_features`` plus the label column of the kept rows."""
    header, rows = dio.read_csv_rows(path)
    if feature_names is None:
        feature_names = [h for h in header if h != label_column]
    feature_names = list(feature_names)
    label_pos = dio.column_positions(header, feature_names + [label_column])[-1]
    features, kept_idx, dropped = dio.extract_features(header, rows, feature_names)
    labels = tuple(rows[i][label_pos] for i in kept_idx)
    if not labels:
        raise dio.EmptyDatasetError(f"{path}: no usable records")
    return features, labels, dropped


def streamed_load_csv(path, feature_names):
    ds, dropped = dio.load_csv(path, feature_names)
    return ds.features, ds.labels, dropped


def outcome(load, path, feature_names):
    """(features, labels, dropped) of a loader, or the error it raises."""
    try:
        features, labels, dropped = load(path, feature_names)
    except (ValueError, OSError) as e:
        return type(e), str(e)
    assert features.dtype == np.float64
    return features.shape, features.tobytes(), labels, dropped


# cells numpy's text reader and float() treat differently, or that only
# csv can split: control characters, an em space, quotes, line breaks
FILE_CELLS = ["\x00", "1\x1c", "\x1f1", "\x1e", "2\x1d5", "\u20031", "1\u2003",
              'a"b', '"', '1"', "x\ny", "x\r\ny", "x\n\ny", "\r", "a,b", "1,5", "", " "]
file_cells = st.one_of(cells, st.sampled_from(FILE_CELLS))


@st.composite
def csv_files(draw):
    """Text of a CSV file with a label column, 0-5 feature columns and
    ragged rows, each row written by csv.writer (quoting where it needs
    to) or joined by bare commas, with one line ending, blank lines and
    maybe a BOM; plus the feature_names to load and the block size."""
    n_features = draw(st.integers(0, 5))
    header = [f"c{j}" for j in range(n_features)]
    header.insert(draw(st.integers(0, n_features)), "label")
    width = len(header)
    feature_names = draw(st.one_of(
        st.none(), st.permutations(header).map(lambda h: [c for c in h if c != "label"])
    ))
    if feature_names is not None:
        feature_names = feature_names[: draw(st.integers(0, len(feature_names)))]
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator=end)
    writer.writerow(header)
    rows = draw(st.lists(
        st.integers(max(width - 1, 1), width + 1).flatmap(lambda n: st.lists(file_cells, min_size=n, max_size=n)),
        max_size=12,
    ))
    for row in rows:
        if draw(st.booleans()):
            writer.writerow(row)
        else:
            out.write(",".join(row) + end)
        if draw(st.integers(0, 5)) == 0:
            out.write(end)
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + out.getvalue(), feature_names, draw(st.sampled_from([1, 3, 1024]))


@given(csv_files(), st.sampled_from([None, 12]))
@settings(max_examples=400, deadline=None)
def test_load_csv_matches_csv_reader_oracle(tmp_path_factory, table, field_limit):
    """load_csv gives the oracle's feature bits, labels, kept order and
    drop count, or the same error type and message, including the line
    of a cell over csv's field size limit, for every block size."""
    text, feature_names, block_rows = table
    path = str(tmp_path_factory.mktemp("oracle") / "flows.csv")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    default_limit, default_block = csv.field_size_limit(), dio.BLOCK_ROWS
    try:
        if field_limit is not None:
            csv.field_size_limit(field_limit)
        expected = outcome(reference_load_csv, path, feature_names)
        dio.BLOCK_ROWS = block_rows
        loaded = outcome(streamed_load_csv, path, feature_names)
    finally:
        csv.field_size_limit(default_limit)
        dio.BLOCK_ROWS = default_block
    assert loaded == expected


def test_load_csv_oracle_covers_both_parsers(tmp_path, monkeypatch):
    """A fixed file with numpy-parsed lines, csv-parsed records (quoted,
    multi-line, empty cell, ragged, control character) and a ``1_000``
    cell that sends its block back to the per-cell parser."""
    text = (
        "f0,f1,label\r\n1.5,2,a\r\n\"3\",4,\"b\nc\"\r\n5,,d\r\n6,7\r\n\r\n"
        "8,9\x1c,e\r\n1_000,2,f\r\n-0.0,1e400,g\n4.9e-324, 7 ,h\r"
    )
    path = tmp_path / "mixed.csv"
    path.write_bytes(text.encode("utf-8"))
    features, labels, ref_dropped = reference_load_csv(str(path))
    for block_rows in (1, 2, 3, 1024):
        monkeypatch.setattr(dio, "BLOCK_ROWS", block_rows)
        ds, dropped = dio.load_csv(str(path))
        assert ds.features.tobytes() == features.tobytes()
        assert ds.labels == labels == ("a", "b\nc", "f", "h")
        assert dropped == ref_dropped == 4


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_non_utf8_byte_names_file_line_and_offset(tmp_path, monkeypatch, end):
    """A cp1252 dash in a label of the third block, past the decoder's
    first read-ahead chunk, is a SchemaError naming the file, the line and
    the byte's offset in the file; both readers give the same message."""
    monkeypatch.setattr(dio, "BLOCK_ROWS", 64)
    lines = ["f0,f1,f2,f3,label"] + [",".join(f"{i}.{j}23456789" for j in range(4)) + ",Benign" for i in range(400)]
    data = [line.encode("utf-8") for line in lines]
    data[149] = data[149].replace(b"Benign", b"Web Attack \x96 Brute Force")
    path = tmp_path / "cp1252.csv"
    path.write_bytes(end.encode().join(data) + end.encode())
    offset = sum(len(line) + len(end) for line in data[:149]) + data[149].index(b"\x96")
    assert offset > 8192
    message = f"{path}: line 150: byte 0x96 at byte offset {offset} is not UTF-8; re-encode the file as UTF-8"
    with pytest.raises(dio.SchemaError) as raised:
        dio.load_csv(str(path))
    assert str(raised.value) == message
    assert outcome(reference_load_csv, str(path), None) == (dio.SchemaError, message)


def traced_load_of_wide_csv(tmp_path, monkeypatch):
    """load_csv of a file of 16 blocks of 256 rows and 40 features, under
    tracemalloc; returns the matrix the file holds, the dataset and the
    traced peak."""
    monkeypatch.setattr(dio, "BLOCK_ROWS", 256)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(16 * dio.BLOCK_ROWS, 40))
    path = tmp_path / "wide.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(f"f{j}" for j in range(x.shape[1])) + ",label\n")
        for i, row in enumerate(x.tolist()):
            fh.write(",".join(map(repr, row)) + f",class{i % 5}\n")
    tracemalloc.start()
    try:
        ds, _ = dio.load_csv(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return x, ds, peak


def test_load_csv_memory_is_bounded_by_the_matrix(tmp_path, monkeypatch):
    """load_csv holds one block of raw text at a time: its traced peak on
    a file of 16 blocks stays within 3x the float64 matrix it returns
    (the whole-file reader held every cell as a str, about 10x)."""
    x, ds, peak = traced_load_of_wide_csv(tmp_path, monkeypatch)
    assert ds.features.tobytes() == x.tobytes()
    assert peak <= 3 * x.nbytes, peak / x.nbytes


def test_load_csv_fills_one_matrix(tmp_path, monkeypatch):
    """load_csv copies each block into one matrix allocated up front, so
    its traced peak is that matrix plus one block's text and the copies
    its checks make: at most 1.5x the matrix (holding the list of blocks
    next to their concatenation took about 2.1x)."""
    x, ds, peak = traced_load_of_wide_csv(tmp_path, monkeypatch)
    assert ds.features.tobytes() == x.tobytes() and ds.features.flags.owndata
    assert peak <= 1.5 * x.nbytes, peak / x.nbytes


# What the block reader relies on in np.loadtxt: a line handed over with its
# terminator parses as the line alone, and a cell parses to float()'s bits
# or is a ValueError, after which the block is parsed cell by cell.
LOADTXT = dict(delimiter=",", usecols=[0], comments=None, ndmin=2)


@pytest.mark.parametrize("cell", ["-0.0", "4.9e-324", "1e400", " 7 ", "1.7976931348623157e308"])
def test_loadtxt_parses_a_cell_to_float_bits(cell):
    values = np.loadtxt([f"{cell},a\n", f"{cell},b\r\n", f"{cell},c\r", f"{cell},d"], **LOADTXT)
    assert values.shape == (4, 1)
    assert values.tobytes() == np.full((4, 1), float(cell)).tobytes()


@pytest.mark.parametrize("cell", ["", "1_000"])
def test_loadtxt_rejects_an_empty_cell_and_underscores(cell):
    with pytest.raises(ValueError):
        np.loadtxt(["1,a\n", f"{cell},b\n"], **LOADTXT)


# one line of each kind the block checks must send to csv (or, for the
# printable non-ASCII label, may leave to numpy), for a file with header
# f0,f1,label and csv's field size limit lowered to 12; "{end}" stands for
# the file's line ending
CHECKED_LINES = {
    "cell too many": "1.5,-2,a,9",
    "cell too few": "1.5,a",
    "empty first cell": ",-2,a",
    "empty middle cell": "1.5,,a",
    "empty last cell": "1.5,-2,",
    "NUL": "1.5,-2,a\x00b",
    "unit separator": "1.5,-2\x1f,a",
    "DEL": "1.5,-2,\x7fa",
    "printable non-ASCII": "1.5,-2,B\u00e9nin",
    "line separator": "1.5,-2,a\u2028b",
    "line over the field limit": "1.25,-2.5,abcdefghij",
    "cell over the field limit": "1.5,-2,abcdefghijklm",
    "blank line": "",
    "quoted cell": '"1.5",-2,a',
    "quoted line breaks": '1.5,-2,"x{end}y{end}z"',
    "quoted blank line": '1.5,-2,"x{end}{end}y"',
}


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
@pytest.mark.parametrize("kind", list(CHECKED_LINES))
def test_block_checks_agree_with_the_oracle(tmp_path, monkeypatch, kind, end):
    """A line of each kind as the first, a middle and the last line of a
    block (a quoted record there runs into the next block), and as the
    unterminated last line of the file, with blocks of 1, 3 and 1024
    lines: load_csv gives the oracle's features, labels and drop count,
    or its error and line."""
    line = CHECKED_LINES[kind].replace("{end}", end)
    old_limit = csv.field_size_limit(12)
    try:
        for block_rows in (1, 3, 1024):
            monkeypatch.setattr(dio, "BLOCK_ROWS", block_rows)
            for at in (block_rows, block_rows + block_rows // 2, 2 * block_rows - 1, None):
                rows = [f"{k}.5,{-k},c{k % 3}" for k in range(2 * block_rows + 2)]
                text = end.join(["f0,f1,label", *rows])
                if at is None:
                    text += end + line
                else:
                    rows.insert(at, line)
                    text = end.join(["f0,f1,label", *rows]) + end
                path = tmp_path / f"{block_rows}_{at}.csv"
                path.write_bytes(text.encode("utf-8"))
                expected = outcome(reference_load_csv, str(path), None)
                assert outcome(streamed_load_csv, str(path), None) == expected, (block_rows, at)
    finally:
        csv.field_size_limit(old_limit)


def test_only_flagged_lines_reach_the_cell_parser(tmp_path, monkeypatch):
    """numpy parses every line of a clean file, NaN, Inf and printable
    non-ASCII ones too, so _parse_rows sees no row; in a dirty file it
    sees exactly the dirty lines, as csv reads them, in file order."""
    seen = []
    parse_rows = dio._parse_rows

    def counting(rows, positions, width):
        seen.extend(rows)
        return parse_rows(rows, positions, width)

    monkeypatch.setattr(dio, "BLOCK_ROWS", 64)
    monkeypatch.setattr(dio, "_parse_rows", counting)
    lines = [f"{k}.5,{-k},c{k % 3}" for k in range(300)]
    lines[7], lines[8] = "nan,inf,c1", "1.5,2,B\u00e9nin"
    clean = tmp_path / "clean.csv"
    clean.write_text("f0,f1,label\n" + "\n".join(lines) + "\n", encoding="utf-8")
    assert len(dio.load_csv(str(clean))[0]) == 299
    assert seen == []
    dirty_lines = {0: ",1,c0", 63: "1,2,c1,x", 64: '"1",2,c2', 100: "1,,c1", 150: "1,2\x00,c0", 200: "-1,2,",
                   250: "1,2,c\u2028", 299: "1,c1"}
    for k, line in dirty_lines.items():
        lines[k] = line
    dirty = tmp_path / "dirty.csv"
    dirty.write_text("f0,f1,label\n" + "\n".join(lines) + "\n", encoding="utf-8")
    dio.load_csv(str(dirty))
    assert seen == [next(csv.reader([line])) for line in dirty_lines.values()]


def reference_check_lines(lines, commas, limit):
    """(blank, flagged) of _check_lines, line by line on each line's str."""
    blank, flagged = [], []
    for line in lines:
        body = line.removesuffix("\n").removesuffix("\r")
        blank.append(body == "")
        flagged.append(body != "" and (
            '"' in body or body.count(",") != commas or ",," in body or body[:1] == "," or body[-1:] == ","
            or len(body) > min(limit, 0xFFFF) or not body.isprintable()
        ))
    return blank, flagged


# characters a line's body may hold: digits and commas mostly, and each
# kind of character the checks look for (no \r or \n, which end a line)
body_chars = st.one_of(
    st.sampled_from("0123456789,"),
    st.sampled_from(['"', "\x00", "\x1f", "\x7f", "\x85", "\u2028", "\u00e9", " ", "a", "."]),
)


@st.composite
def checked_blocks(draw):
    """Physical lines as a file yields them: LF, CRLF or CR endings, and
    maybe an unterminated last line."""
    bodies = draw(st.lists(st.text(body_chars, max_size=24), min_size=1, max_size=40))
    lines = [body + draw(st.sampled_from(["\n", "\r\n", "\r"])) for body in bodies]
    if bodies[-1] and draw(st.booleans()):
        lines[-1] = bodies[-1]
    return lines


@given(checked_blocks(), st.integers(0, 4), st.sampled_from([12, csv.field_size_limit()]),
       st.sampled_from([1, 5, 64, dio._CHECK_CHARS]))
@settings(max_examples=400, deadline=None)
def test_block_checks_flag_as_a_per_line_reference(lines, commas, limit, check_chars):
    """_check_lines flags exactly the lines the per-line reference flags,
    also with runs so short that lines cross their boundaries: extra
    flags, which leave load_csv's output unchanged, fail here."""
    default = dio._CHECK_CHARS
    try:
        dio._CHECK_CHARS = check_chars
        blank, flagged = dio._check_lines(lines, commas, limit)
    finally:
        dio._CHECK_CHARS = default
    assert (blank.tolist(), flagged.tolist()) == reference_check_lines(lines, commas, limit)


@pytest.mark.parametrize("line, dropped", [("1," * 65537 + "a", 1), ("2.5," + "x" * 70000, 0)],
                         ids=["65537 commas", "70000-char label"])
def test_lines_over_65535_characters_go_to_csv(tmp_path, line, dropped):
    """A line over 65535 characters within csv's field size limit is read
    as the oracle reads it: 65537 commas, which a 16-bit count would take
    for one, make a ragged row, and a long label is kept whole."""
    path = tmp_path / "long.csv"
    path.write_text(f"f0,label\n1.5,a\n{line}\n3,b\n", encoding="utf-8")
    old_limit = csv.field_size_limit(1 << 20)
    try:
        expected = outcome(reference_load_csv, str(path), None)
        assert outcome(streamed_load_csv, str(path), None) == expected
    finally:
        csv.field_size_limit(old_limit)
    assert expected[3] == dropped


def test_a_csv_error_before_a_bad_byte_in_one_block_wins(tmp_path):
    """A whole block is decoded before its lines are checked; a cell over
    the field size limit on line 3 still wins over a byte that is not
    UTF-8 on line 900, past the decoder's first chunk but in the same
    block, as it does for the oracle."""
    lines = [b"f0,label"] + [b"%d.125,abc" % k for k in range(1000)]
    lines[2] = b"1," + b"x" * 40
    lines[899] = b"2,\x96"
    path = tmp_path / "both.csv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    old_limit = csv.field_size_limit(16)
    try:
        expected = outcome(reference_load_csv, str(path), None)
        assert outcome(streamed_load_csv, str(path), None) == expected
    finally:
        csv.field_size_limit(old_limit)
    assert expected == (dio.SchemaError, f"{path}: line 3: field larger than field limit (16)")


def wide_lines(rows):
    """Header and rows, as bytes, of a CSV file of 64 features and a label,
    about 830 bytes a row, so that even 7-line blocks span 8 KB decoder
    chunks; under csv's default field size limit no line is flagged."""
    header = ",".join(f"f{j}" for j in range(64)) + ",label"
    return [header.encode()] + [(",".join(f"{i}.{j:03d}456789" for j in range(64)) + ",Benign").encode()
                                for i in range(rows)]


def decoded_line_count(path):
    """The lines a text reader of ``path`` yields before the chunk that it
    cannot decode."""
    n = 0
    with open(path, newline="", encoding="utf-8-sig") as fh:
        with pytest.raises(UnicodeDecodeError):
            for _ in fh:
                n += 1
    return n


@pytest.mark.parametrize("block_rows", [7, 64, 1024])
def test_a_bad_byte_is_reported_from_the_block_being_read(tmp_path, monkeypatch, block_rows):
    """A cp1252 dash in the third block of a file with no flagged line is
    the reference's error, and the reader builds one csv.reader, the
    header's: no line is read through csv a second time."""
    lines = wide_lines(3 * block_rows)
    bad = 2 * block_rows + block_rows // 2 + 1  # the middle of the third block
    lines[bad] = lines[bad].replace(b"Benign", b"Web Attack \x96 Brute Force")
    path = tmp_path / "cp1252.csv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    expected = outcome(reference_load_csv, str(path), None)
    assert expected[1].startswith(f"{path}: line {bad + 1}: byte 0x96 at byte offset ")
    built, reader = [], csv.reader

    def counting_reader(*args, **kwargs):
        built.append(args)
        return reader(*args, **kwargs)

    monkeypatch.setattr(dio, "BLOCK_ROWS", block_rows)
    monkeypatch.setattr(dio.csv, "reader", counting_reader)
    assert outcome(streamed_load_csv, str(path), None) == expected
    assert len(built) == 1


@pytest.mark.parametrize("block_rows", [7, 64, 1024])
def test_a_bad_byte_wins_over_a_long_cell_in_its_chunk(tmp_path, monkeypatch, block_rows):
    """A cell over csv's field size limit on the line before a cp1252
    dash, both in the 8 KB chunk that does not decode, is never read: the
    error is the byte's, as it is for the reference."""
    lines = wide_lines(40)
    ends = np.cumsum([len(line) + 1 for line in lines])
    long = int(np.searchsorted(ends, 3 * 8192 + 50)) + 1  # the first line to start past 3 chunks and 50 bytes
    lines[long] = lines[long].replace(b"Benign", b"x" * 40)
    lines[long + 1] = lines[long + 1].replace(b"Benign", b"\x96")
    path = tmp_path / "both.csv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    assert decoded_line_count(path) <= long
    old_limit = csv.field_size_limit(16)
    try:
        expected = outcome(reference_load_csv, str(path), None)
        monkeypatch.setattr(dio, "BLOCK_ROWS", block_rows)
        assert outcome(streamed_load_csv, str(path), None) == expected
    finally:
        csv.field_size_limit(old_limit)
    assert expected[1].startswith(f"{path}: line {long + 2}: byte 0x96 at byte offset ")


@pytest.mark.parametrize("block_rows", [7, 64, 1024])
def test_a_quoted_record_into_a_bad_chunk_is_the_byte_error(tmp_path, monkeypatch, block_rows):
    """A quoted label that opens on the last line the decoder yields and
    closes after the chunk it cannot decode is the byte's error, not a
    record stitched from text read past that chunk, whose label would be
    over csv's field size limit."""
    lines = wide_lines(40)
    bad = 30
    lines[bad] = lines[bad].replace(b"Benign", b"Benig\x96")
    path = tmp_path / "quoted.csv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    last = decoded_line_count(path) - 1
    assert 0 < last < bad
    # the same byte lengths, so the decoder stops at the same line
    lines[last] = lines[last].replace(b"Benign", b'"enign')
    lines[bad + 3] = lines[bad + 3].replace(b"Benign", b'Benig"')
    path.write_bytes(b"\n".join(lines) + b"\n")
    assert decoded_line_count(path) == last + 1
    old_limit = csv.field_size_limit(100)
    try:
        expected = outcome(reference_load_csv, str(path), None)
        monkeypatch.setattr(dio, "BLOCK_ROWS", block_rows)
        assert outcome(streamed_load_csv, str(path), None) == expected
    finally:
        csv.field_size_limit(old_limit)
    assert expected[1].startswith(f"{path}: line {bad + 1}: byte 0x96 at byte offset ")


@pytest.mark.parametrize(
    "text, cause",
    [
        ("f0,f1,label\n1,2\n3,4,5,a\n", "line 2: 2 cells, but the header has 3"),
        ("f0,f1,label\n\n1,x,a\n", "line 3: column 'f1' holds 'x', which is not a number"),
        ("f0,f1,label\nnan,1,a\n", "line 2: column 'f0' holds 'nan', which is not finite"),
        ('f0,f1,label\n"1,5",-inf,a\n', "line 2: column 'f0' holds '1,5', which is not a number"),
        ("f0,f1,label\n1,-Infinity,a\n", "line 2: column 'f1' holds '-Infinity', which is not finite"),
    ],
)
def test_every_row_dropped_names_the_first_cause(tmp_path, caplog, text, cause):
    """When no row is usable, one more warning names the line and the
    reason the first row dropped; the drop warning and the error stay."""
    path = write(tmp_path / "flows.csv", text)
    with pytest.raises(dio.EmptyDatasetError, match="no usable records$"):
        dio.load_csv(path)
    messages = [r.getMessage() for r in caplog.records]
    assert messages[-1] == f"{path}: {cause}"
    assert messages[-2].startswith(f"{path}: dropped ")


def test_encode_labels_codes_and_names_every_outsider():
    codes = dio.encode_labels(("b", "a", "b"), ("a", "b"))
    assert codes.dtype == np.int64 and codes.tolist() == [1, 0, 1]
    assert dio.encode_labels((), ("a",)).tolist() == []
    with pytest.raises(ValueError, match=r"vocabulary: 'x', 'y'$"):
        dio.encode_labels(["y", "a", "x", "y"], ("a",))


# ---------------------------------------------------------------------------
# scaler


def test_scaler_standardizes_its_fit_set(rng):
    x = rng.normal(3.0, 2.5, size=(200, 4))
    scaler = dio.fit_scaler(x)
    z = scaler.transform(x)
    assert np.allclose(z.mean(axis=0), 0.0, atol=1e-9)
    assert np.allclose(z.std(axis=0), 1.0, atol=1e-9)


def test_scaler_constant_feature_maps_to_zero():
    x = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    z = dio.fit_scaler(x).transform(x)
    assert np.array_equal(z[:, 1], np.zeros(3))


def test_scaler_transforms_in_place_with_the_same_bits(rng):
    """train and score scale their matrices in place; that gives the bits
    of the copying transform, and an int matrix still scales as float64."""
    x = rng.normal(3.0, 2.5, size=(300, 4)) * [1.0, 1e-30, 1e30, 0.0]
    scaler = dio.fit_scaler(x)
    expected = (x - scaler.mean) / scaler.std
    assert scaler.transform(x).tobytes() == expected.tobytes()
    assert scaler.transform(x, out=x) is x
    assert x.tobytes() == expected.tobytes()
    ints = np.arange(12).reshape(3, 4)
    assert scaler.transform(ints).tobytes() == scaler.transform(ints.astype(np.float64)).tobytes()


@given(st.integers(1, 3000), st.integers(2, 24), st.sampled_from([1, 7, 64, 1024]), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
@example(2000, 1, 64, 0)  # one column, which numpy sums pairwise: left to numpy
def test_blocked_scaler_has_the_bits_of_numpy(n, d, block_rows, seed):
    """fit_scaler sums over BLOCK_ROWS-row blocks, carrying the running sum
    into each block's np.add.reduce; on heavy-tailed data its mean and std
    are x.mean(axis=0) and x.std(axis=0) bit for bit, for every shape and
    block size, so bundles keep their bytes."""
    x = np.random.default_rng(seed).standard_cauchy((n, d)) * 1e3
    default = dio.BLOCK_ROWS
    try:
        dio.BLOCK_ROWS = block_rows
        scaler = dio.fit_scaler(x)
    finally:
        dio.BLOCK_ROWS = default
    std = x.std(axis=0)
    assert scaler.mean.tobytes() == x.mean(axis=0).tobytes(), (n, d, block_rows)
    assert scaler.std.tobytes() == np.where(std < 1e-12, 1.0, std).tobytes(), (n, d, block_rows)


def test_scaler_two_point_feature():
    # population std of {0, 2} is 1: scales to -1 and +1 exactly
    x = np.array([[0.0], [2.0]])
    z = dio.fit_scaler(x).transform(x)
    assert np.array_equal(z, [[-1.0], [1.0]])


# ---------------------------------------------------------------------------
# roles and splitting


def roles_abc():
    return dio.ClassRoles(known=("a", "b"), validation_unknown=("v",), test_unknown=("u",))


def partition_labels(labels, part, code):
    """Labels of the rows in partition ``code``, in row order."""
    return [label for label, p in zip(labels, part.tolist()) if p == code]


def test_split_eight_to_two():
    labels = ["a"] * 10 + ["b"] * 10 + ["v"] * 3 + ["u"] * 4
    part = dio.make_split(labels, roles_abc(), ratio=0.8, seed=0)
    assert part.dtype == np.int8 and part.shape == (len(labels),)
    counts = Counter(partition_labels(labels, part, 0))
    assert counts == {"a": 8, "b": 8}
    assert Counter(partition_labels(labels, part, 1)) == {"a": 2, "b": 2}
    assert np.sum(part == 2) == 3
    assert np.sum(part == 3) == 4


def test_split_deterministic():
    labels = ["a"] * 25 + ["b"] * 13 + ["v"] * 5 + ["u"] * 5
    s1 = dio.make_split(labels, roles_abc(), seed=11)
    s2 = dio.make_split(labels, roles_abc(), seed=11)
    assert np.array_equal(np.flatnonzero(s1 == 0), np.flatnonzero(s2 == 0))
    assert np.array_equal(np.flatnonzero(s1 == 1), np.flatnonzero(s2 == 1))


def test_split_partitions_are_disjoint_and_complete():
    labels = ["a"] * 17 + ["b"] * 9 + ["v"] * 4 + ["u"] * 6
    part = dio.make_split(labels, roles_abc(), seed=3)
    ids = np.concatenate([np.flatnonzero(part == code) for code in range(4)])
    assert len(ids) == len(labels)
    assert len(np.unique(ids)) == len(labels)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 60), st.integers(2, 60))
def test_split_proportions_within_one_sample(na, nb):
    labels = ["a"] * na + ["b"] * nb
    roles = dio.ClassRoles(known=("a", "b"))
    part = dio.make_split(labels, roles, ratio=0.8, seed=1)
    for name, n in (("a", na), ("b", nb)):
        got = Counter(partition_labels(labels, part, 0)).get(name, 0)
        assert abs(got - 0.8 * n) <= 1.0
        assert 1 <= got <= n - 1


def split_oracle(labels, roles, ratio, seed):
    """Row ids of each partition, by the split's original list-based
    formulas: one object-array comparison per class, in sorted class
    order, and a sorted list of row ids per partition."""
    assigned = {}
    for name in sorted(set(labels)):
        role = roles.role_of(name)
        if role is None:
            raise dio.RolesError(name)
        assigned[name] = role
    rng = np.random.default_rng(seed)
    parts = {"train": [], "test": [], dio.ROLE_VALIDATION_UNKNOWN: [], dio.ROLE_TEST_UNKNOWN: []}
    label_arr = np.asarray(labels, dtype=object)
    for name in sorted(assigned):
        idx = np.nonzero(label_arr == name)[0]
        if assigned[name] != dio.ROLE_KNOWN:
            parts[assigned[name]].extend(idx.tolist())
            continue
        if idx.size < 2:
            raise ValueError(name)
        perm = rng.permutation(idx)
        n_train = min(max(int(round(ratio * idx.size)), 1), idx.size - 1)
        parts["train"].extend(perm[:n_train].tolist())
        parts["test"].extend(perm[n_train:].tolist())
    return {key: sorted(ids) for key, ids in parts.items()}


ROLE_CHOICES = (None, dio.ROLE_KNOWN, dio.ROLE_VALIDATION_UNKNOWN, dio.ROLE_TEST_UNKNOWN)


@settings(max_examples=150, deadline=None)
@given(
    labels=st.lists(st.sampled_from("abcde"), min_size=1, max_size=80),
    listed=st.lists(st.sampled_from(ROLE_CHOICES), min_size=5, max_size=5),
    default=st.sampled_from(ROLE_CHOICES),
    ratio=st.floats(0.01, 0.99),
    seed=st.integers(0, 2**32 - 1),
)
def test_split_matches_oracle(labels, listed, default, ratio, seed):
    by_role = {role: tuple(c for c, r in zip("abcde", listed) if r == role) for role in dio.ROLES}
    roles = dio.ClassRoles(
        known=by_role[dio.ROLE_KNOWN],
        validation_unknown=by_role[dio.ROLE_VALIDATION_UNKNOWN],
        test_unknown=by_role[dio.ROLE_TEST_UNKNOWN],
        default=default,
    )
    try:
        want = split_oracle(labels, roles, ratio, seed)
    except ValueError as e:  # RolesError included
        with pytest.raises(ValueError) as raised:
            dio.make_split(labels, roles, ratio=ratio, seed=seed)
        assert type(raised.value) is type(e)
        return
    part = dio.make_split(labels, roles, ratio=ratio, seed=seed)
    keys = ("train", "test", dio.ROLE_VALIDATION_UNKNOWN, dio.ROLE_TEST_UNKNOWN)
    got = {key: np.flatnonzero(part == code).tolist() for code, key in enumerate(keys)}
    assert got == want
    for code in range(4):
        assert partition_labels(labels, part, code) == [labels[i] for i in np.flatnonzero(part == code)]


def test_split_unassigned_class_is_listed():
    with pytest.raises(dio.RolesError, match="mystery"):
        dio.make_split(["a", "a", "mystery", "mystery"], dio.ClassRoles(known=("a",)), seed=0)


def test_split_wildcard_default_role():
    labels = ["a", "a", "b", "b", "odd", "odd"]
    roles = dio.ClassRoles(known=("a", "b"), default=dio.ROLE_TEST_UNKNOWN)
    part = dio.make_split(labels, roles, seed=0)
    assert Counter(partition_labels(labels, part, 3)) == {"odd": 2}


def test_split_known_class_needs_two_samples():
    with pytest.raises(ValueError, match="at least 2"):
        dio.make_split(["a", "b", "b"], dio.ClassRoles(known=("a", "b")), seed=0)


def test_split_known_class_with_one_row_names_it():
    labels = ["a", "a", "x", "b", "b", "b"]
    with pytest.raises(ValueError, match=r"^known class 'x' needs at least 2 samples, has 1$"):
        dio.make_split(labels, dio.ClassRoles(known=("a", "b", "x")), seed=0)


def test_roles_overlap_rejected():
    with pytest.raises(dio.RolesError, match="both"):
        dio.ClassRoles(known=("a",), validation_unknown=("a",))


@pytest.mark.parametrize("role", ["known", "validation_unknown", "test_unknown"])
def test_roles_class_listed_twice_in_one_role(tmp_path, role):
    doc = {"known": ["k"], role: ["a", "b", "a"]}
    with pytest.raises(dio.RolesError, match=f"^class 'a' listed more than once in {role}$"):
        dio.ClassRoles(**{key: tuple(v) for key, v in doc.items()})
    with pytest.raises(dio.RolesError, match=f"class 'a' listed more than once in {role}$"):
        dio.load_roles(write(tmp_path / "roles.json", json.dumps(doc)))


@pytest.mark.parametrize(
    "doc,message",
    [
        ({"known": ["a", "a"]}, "class 'a' listed more than once in known"),
        ({"known": ["a"], "test_unknown": ["a"]}, "class 'a' assigned to both known and test_unknown"),
        ({"known": ["a"], "feature_names": ["f0", "f1", "f0"]},
         "roles key 'feature_names': 'f0' is listed more than once; "
         "list each feature column once, and not the label column"),
        ({"known": ["a"], "label_column": "y", "feature_names": ["f0", "y"]},
         "roles key 'feature_names': 'y' is the label column; list each feature column once, and not the label column"),
    ],
    ids=["repeated-in-known", "known-and-test-unknown", "feature-repeated", "feature-is-the-label"],
)
def test_roles_file_errors_name_the_file(tmp_path, doc, message):
    path = write(tmp_path / "roles.json", json.dumps(doc))
    with pytest.raises(dio.RolesError) as info:
        dio.load_roles(path)
    assert str(info.value) == f"{path}: {message}"


def test_roles_file_round_trip(tmp_path):
    path = write(
        tmp_path / "roles.json",
        json.dumps(
            {
                "known": ["a", "b"],
                "validation_unknown": ["v"],
                "test_unknown": ["u"],
                "label_column": "Label",
            }
        ),
    )
    roles = dio.load_roles(path)
    assert roles.known == ("a", "b")
    assert roles.label_column == "Label"
    assert roles.role_of("v") == dio.ROLE_VALIDATION_UNKNOWN
    assert roles.role_of("zzz") is None


def test_roles_file_unknown_key(tmp_path):
    path = write(tmp_path / "roles.json", '{"known": ["a"], "bogus": 1}')
    with pytest.raises(dio.RolesError, match="bogus"):
        dio.load_roles(path)


def test_roles_file_requires_known(tmp_path):
    path = write(tmp_path / "roles.json", '{"test_unknown": ["u"]}')
    with pytest.raises(dio.RolesError, match="known"):
        dio.load_roles(path)


@pytest.mark.parametrize(
    "doc,named",
    [
        ([1], "roles must be a JSON object, not list"),
        ("known", "roles must be a JSON object, not str"),
        ({"known": "dos"}, "'known' must be a list of strings"),
        ({"known": ["a", 1]}, "'known' must be a list of strings"),
        ({"known": ["a"], "validation_unknown": "v"}, "'validation_unknown' must be a list"),
        ({"known": ["a"], "test_unknown": None}, "'test_unknown' must be a list"),
        ({"known": ["a"], "feature_names": "abc"}, "'feature_names' must be a list"),
        ({"known": ["a"], "feature_names": [0, 1]}, "'feature_names' must be a list"),
        ({"known": ["a"], "default": 1}, "'default' must be a string"),
        ({"known": ["a"], "label_column": ["Label"]}, "'label_column' must be a string"),
        ({"known": ["a"], "label_column": None}, "'label_column' must be a string"),
        ({"known": ["a"], "feature_names": []}, "'feature_names' is empty"),
        ({"known": ["a"], "default": "excluded"}, re.escape(
            "default role must be one of ('known', 'validation_unknown', 'test_unknown'), got 'excluded'")),
    ],
)
def test_roles_file_value_types(tmp_path, doc, named):
    path = write(tmp_path / "roles.json", json.dumps(doc))
    with pytest.raises(dio.RolesError, match=named):
        dio.load_roles(path)


def test_roles_file_default_known_names_the_file(tmp_path):
    """``train`` learns only the classes listed in ``known``, so a class
    that only the default makes known would fail later, as a label
    outside the class vocabulary that names neither file nor cause."""
    path = write(tmp_path / "roles.json", json.dumps({"known": ["a"], "test_unknown": ["u"], "default": "known"}))
    with pytest.raises(dio.RolesError) as info:
        dio.load_roles(path)
    assert str(info.value) == (
        f"{path}: roles key 'default' may be 'validation_unknown' or 'test_unknown', not 'known'; "
        "train learns only the classes listed in 'known', so list every known class there"
    )


def test_roles_file_null_default_and_feature_names(tmp_path):
    doc = {"known": ["a"], "default": None, "feature_names": None, "note": ["free", "text"]}
    roles = dio.load_roles(write(tmp_path / "roles.json", json.dumps(doc)))
    assert roles.default is None and roles.feature_names is None


@pytest.mark.parametrize("name,n_known", [("cicids2017", 5), ("unsw_nb15", 6)])
def test_shipped_presets_load(name, n_known):
    roles = dio.load_roles(dio.preset_roles_path(name))
    assert len(roles.known) == n_known
    assert roles.validation_unknown and roles.test_unknown


def test_unknown_preset_lists_the_shipped_ones():
    with pytest.raises(FileNotFoundError, match=r"^no preset 'cicids2018'; available: cicids2017, unsw_nb15$"):
        dio.preset_roles_path("cicids2018")


# ---------------------------------------------------------------------------
# bundle persistence


def test_bundle_round_trip_byte_identical(tmp_path):
    thr = osr.Threshold(tau=1.25, calibration_method="max-unknown-f1", calibration_stats={"f1": 1.0})
    bundle = tiny_bundle(threshold=thr)
    p1, p2 = tmp_path / "m1.bundle", tmp_path / "m2.bundle"
    dio.save_bundle(p1, bundle)
    loaded = dio.load_bundle(p1)
    dio.save_bundle(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.threshold.tau == 1.25
    assert loaded.params.class_names == ("alpha", "beta")
    assert loaded.config == bundle.config
    for name, arr in bundle.params.tensors.items():
        assert np.array_equal(arr, loaded.params.tensors[name])
    assert np.array_equal(loaded.scaler.mean, bundle.scaler.mean)


def test_tensors_in_any_order_are_stored_in_param_order(tmp_path):
    """ModelParams keeps its tensors in PARAM_NAMES order whatever order
    they are given in, so the flat vector and the bundle bytes do not
    depend on it."""
    bundle = tiny_bundle(threshold=_THRESHOLD)
    reverse = dataclasses.replace(bundle.params, tensors=dict(reversed(bundle.params.tensors.items())))
    assert tuple(reverse.tensors) == mdl.PARAM_NAMES
    assert mdl.flat_params(reverse)[0].tobytes() == mdl.flat_params(bundle.params)[0].tobytes()
    dio.save_bundle(tmp_path / "init.bundle", bundle)
    dio.save_bundle(tmp_path / "reverse.bundle", dataclasses.replace(bundle, params=reverse))
    assert (tmp_path / "reverse.bundle").read_bytes() == (tmp_path / "init.bundle").read_bytes()


def test_bundle_without_threshold(tmp_path):
    path = tmp_path / "m.bundle"
    dio.save_bundle(path, tiny_bundle())
    assert dio.load_bundle(path).threshold is None


def test_bundle_tampered_payload_fails_checksum(tmp_path):
    path = tmp_path / "m.bundle"
    dio.save_bundle(path, tiny_bundle())
    blob = bytearray(path.read_bytes())
    blob[-20] ^= 0xFF  # flip a payload byte
    path.write_bytes(bytes(blob))
    with pytest.raises(dio.BundleIntegrityError, match="checksum"):
        dio.load_bundle(path)


def test_bundle_truncated_fails(tmp_path):
    path = tmp_path / "m.bundle"
    dio.save_bundle(path, tiny_bundle())
    path.write_bytes(path.read_bytes()[:40])
    with pytest.raises(dio.BundleIntegrityError):
        dio.load_bundle(path)


def test_bundle_not_a_bundle(tmp_path):
    path = tmp_path / "m.bundle"
    path.write_bytes(b"definitely not a bundle")
    with pytest.raises(dio.BundleIntegrityError):
        dio.load_bundle(path)


def rewrite_manifest(path, edit):
    """Apply ``edit`` to a saved bundle's manifest and re-seal its CRC."""
    blob = path.read_bytes()
    body = blob[4:-4]
    (mlen,) = struct.unpack("<I", body[:4])
    manifest = json.loads(body[4 : 4 + mlen])
    edit(manifest)
    mbytes = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    new_body = struct.pack("<I", len(mbytes)) + mbytes + body[4 + mlen :]
    crc = zlib.crc32(new_body) & 0xFFFFFFFF
    path.write_bytes(b"RPMB" + new_body + struct.pack("<I", crc))


def test_bundle_version_mismatch_names_versions(tmp_path):
    path = tmp_path / "m.bundle"
    dio.save_bundle(path, tiny_bundle())
    rewrite_manifest(path, lambda m: m.update(format="rpmnet-bundle/99"))
    with pytest.raises(dio.BundleVersionError, match=r"rpmnet-bundle/99.*rpmnet-bundle/1"):
        dio.load_bundle(path)


@pytest.mark.parametrize("key", ["sections", "config", "threshold", "W1", "scaler_std"])
def test_bundle_malformed_manifest_names_missing_key(tmp_path, key):
    path = tmp_path / "m.bundle"
    dio.save_bundle(path, tiny_bundle())
    if key in ("W1", "scaler_std"):
        edit = lambda m: m.update(sections=[e for e in m["sections"] if e["name"] != key])
    else:
        edit = lambda m: m.pop(key)
    rewrite_manifest(path, edit)
    with pytest.raises(dio.BundleError, match=f"missing '{key}'"):
        dio.load_bundle(path)


def test_bundle_with_an_invalid_config_names_the_bundle(tmp_path):
    path = tmp_path / "m.bundle"
    dio.save_bundle(path, tiny_bundle())
    rewrite_manifest(path, lambda m: m["config"].update(bogus=1))
    with pytest.raises(dio.BundleError) as info:
        dio.load_bundle(path)
    assert str(info.value) == f"{path}: stored config is invalid (unknown config keys: bogus)"


def _drop_last_feature(m):
    m["feature_names"].pop()
    m["input_dim"] -= 1


# tiny_bundle: 4 features, 2 classes, hidden_dims (6, 5), embed_dim 3
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda m: m["feature_names"].pop(), "input_dim 4 disagrees with 3 feature_names"),
        (_drop_last_feature, "section 'W1' has shape [4, 6], but 3 feature_names, 2 class_names, "
         "embed_dim 3 and hidden_dims [6, 5] give [3, 6]"),
        (lambda m: m["class_names"].append("gamma"), "section 'points' has shape [2, 3], but 4 feature_names, "
         "3 class_names, embed_dim 3 and hidden_dims [6, 5] give [3, 3]"),
        (lambda m: m.update(embed_dim=4), "section 'W3' has shape [5, 3], but 4 feature_names, 2 class_names, "
         "embed_dim 4 and hidden_dims [6, 5] give [5, 4]"),
        (lambda m: m["config"].update(hidden_dims=[6, 4]), "section 'W2' has shape [6, 5], but 4 feature_names, "
         "2 class_names, embed_dim 3 and hidden_dims [6, 4] give [6, 4]"),
        (
            lambda m: next(e for e in m["sections"] if e["name"] == "scaler_std").update(shape=[2, 2]),
            "section 'scaler_std' has shape [2, 2], but 4 feature_names, 2 class_names, "
            "embed_dim 3 and hidden_dims [6, 5] give [4]",
        ),
    ],
)
def test_bundle_shape_disagreement_names_the_bundle(tmp_path, edit, message):
    """A bundle whose CRC is valid but whose sections do not fit its
    feature names, class names, dims or config is a BundleError naming
    it, not a broadcast error when it is first used."""
    path = tmp_path / "m.bundle"
    dio.save_bundle(path, tiny_bundle())
    rewrite_manifest(path, edit)
    with pytest.raises(dio.BundleError) as info:
        dio.load_bundle(path)
    assert str(info.value) == f"{path}: {message}"


def _section(name, **fields):
    return lambda m: next(e for e in m["sections"] if e["name"] == name).update(fields)


# tiny_bundle's payload: ten sections in name order, 792 bytes, scaler_mean
# at byte 728 and scaler_std at byte 760
@pytest.mark.parametrize(
    "edit, message",
    [
        (_section("scaler_std", shape=[5]), "section 'scaler_std' holds 32 bytes, but its shape [5] needs 40"),
        (_section("scaler_std", offset=728), "section 'scaler_std' starts at payload byte 728, not 760; "
         "the sections must tile the payload in order"),
        (_section("W1", offset=8), "section 'W1' starts at payload byte 8, not 0; "
         "the sections must tile the payload in order"),
    ],
    ids=["nbytes short of the shape", "std read from the mean's bytes", "a gap before the first section"],
)
def test_bundle_section_layout_names_the_bundle_and_section(tmp_path, edit, message):
    """A CRC-valid bundle whose section bytes do not fit its shape, or
    whose sections do not tile the payload in order, is a BundleError
    naming it and the section, not a bare reshape error or a scaler whose
    std is its mean."""
    path = tmp_path / "m.bundle"
    dio.save_bundle(path, tiny_bundle())
    rewrite_manifest(path, edit)
    with pytest.raises(dio.BundleError) as info:
        dio.load_bundle(path)
    assert str(info.value) == f"{path}: {message}"


def _reseal(edit):
    """A bundle edit that rewrites the bytes between the magic and the
    CRC (manifest length, manifest, payload) with ``edit`` and re-seals
    the CRC."""

    def apply(path):
        body = edit(path.read_bytes()[4:-4])
        path.write_bytes(b"RPMB" + body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))

    return apply


@pytest.mark.parametrize(
    "edit, error, message",
    [
        (_reseal(lambda body: struct.pack("<I", len(body)) + body[4:]), dio.BundleIntegrityError,
         "manifest truncated"),
        (_reseal(lambda body: body[:4] + b"x" + body[5:]), dio.BundleIntegrityError,
         "manifest unreadable (Expecting value: line 1 column 1 (char 0))"),
        (lambda path: rewrite_manifest(path, _section("scaler_std", offset=768)), dio.BundleIntegrityError,
         "section 'scaler_std' at offset 768 does not fit in the payload"),
        (lambda path: rewrite_manifest(path, _section("W1", offset=-192)), dio.BundleIntegrityError,
         "section 'W1' at offset -192 does not fit in the payload"),
        (_reseal(lambda body: body + bytes(8)), dio.BundleError,
         "section 'scaler_std' ends at payload byte 792, but the payload has 800 bytes"),
        (_reseal(lambda body: struct.pack("<I", 3) + b"[1]" + body[4 + struct.unpack("<I", body[:4])[0] :]),
         dio.BundleIntegrityError, "manifest is not a JSON object"),
    ],
    ids=["manifest past the end", "manifest not JSON", "section past the end", "negative offset",
         "bytes after the last section", "manifest not an object"],
)
def test_bundle_bytes_that_do_not_parse_name_the_bundle(tmp_path, edit, error, message):
    """A CRC-valid bundle whose manifest or sections do not fit its bytes
    is an error naming it, not a bare reshape error (a negative offset
    read as an empty slice) or a silent load of a longer payload."""
    path = tmp_path / "m.bundle"
    dio.save_bundle(path, tiny_bundle())
    edit(path)
    with pytest.raises(error) as info:
        dio.load_bundle(path)
    assert str(info.value) == f"{path}: {message}"


def _with_a_long_integer(body):
    """A bundle body whose manifest starts with a 5000-digit integer."""
    (n,) = struct.unpack("<I", body[:4])
    manifest = b'{"note":1' + b"0" * 5000 + b"," + body[5 : 4 + n]
    return struct.pack("<I", len(manifest)) + manifest + body[4 + n :]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="this Python parses integers of any length")
def test_an_integer_too_long_to_parse_names_the_file(tmp_path):
    """Python parses no integer of more than 4300 digits, with a ValueError
    that is not a JSONDecodeError; the error still names the file."""
    roles = write(tmp_path / "roles.json", '{"known": ["a"], "note": 1' + "0" * 5000 + "}")
    with pytest.raises(dio.RolesError, match=f"^{re.escape(roles)}: not valid JSON \\(Exceeds the limit"):
        dio.load_roles(roles)
    path = tmp_path / "m.bundle"
    dio.save_bundle(path, tiny_bundle())
    _reseal(_with_a_long_integer)(path)
    with pytest.raises(dio.BundleIntegrityError, match=f"^{re.escape(str(path))}: manifest unreadable \\(Exceeds"):
        dio.load_bundle(path)


_FIELD_TYPES = "; offset and nbytes must be integers, and shape a list of integers"


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"shape": 5}, "has offset 0, nbytes 192 and shape 5" + _FIELD_TYPES),
        ({"offset": "0"}, "has offset '0', nbytes 192 and shape [4, 6]" + _FIELD_TYPES),
        ({"nbytes": 192.0}, "has offset 0, nbytes 192.0 and shape [4, 6]" + _FIELD_TYPES),
        ({"shape": [4.0, 6]}, "has offset 0, nbytes 192 and shape [4.0, 6]" + _FIELD_TYPES),
        ({"offset": False}, "has offset False, nbytes 192 and shape [4, 6]" + _FIELD_TYPES),
        ({"nbytes": None}, "has offset 0, nbytes None and shape [4, 6]" + _FIELD_TYPES),
        ({"shape": [-4, -6]}, "has shape [-4, -6], but 4 feature_names, 2 class_names, embed_dim 3 and "
         "hidden_dims [6, 5] give [4, 6]"),
    ],
    ids=["shape an int", "offset a string", "nbytes a float", "a float in shape", "offset a bool", "nbytes null",
         "negative dims"],
)
def test_section_fields_of_the_wrong_type_name_the_bundle_and_section(tmp_path, fields, message):
    """A section entry whose offset, nbytes or shape is not what
    save_bundle writes is a BundleError naming the bundle, the section
    and its fields, not a TypeError from slicing or reshaping."""
    path = tmp_path / "m.bundle"
    dio.save_bundle(path, tiny_bundle())
    rewrite_manifest(path, _section("W1", **fields))
    with pytest.raises(dio.BundleError) as info:
        dio.load_bundle(path)
    assert str(info.value) == f"{path}: section 'W1' {message}"


_THRESHOLD = osr.Threshold(tau=0.5, calibration_method="max-unknown-f1", calibration_stats={})
_THRESHOLD_TYPES = ("null or an object with a finite number tau, a string calibration_method and an object "
                    "calibration_stats")


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda m: m.update(sections=5), "'sections' must be a list of objects, got 5"),
        (lambda m: m["sections"].append("W4"), "'sections' must be a list of objects, got [{"),
        (lambda m: m.update(class_names="ab"), "'class_names' must be a list of distinct strings, got 'ab'"),
        (lambda m: m.update(class_names=["alpha", "alpha"]),
         "'class_names' must be a list of distinct strings, got ['alpha', 'alpha']"),
        (lambda m: m["feature_names"].__setitem__(1, 1),
         "'feature_names' must be a list of strings, got ['f0', 1, 'f2', 'f3']"),
        (lambda m: m.update(label_column=None), "'label_column' must be a string, got None"),
        (lambda m: m.update(logit_scale=-1.0), "'logit_scale' must be the stored config's logit_scale 1.0, got -1.0"),
        (lambda m: m.update(logit_scale=True), "'logit_scale' must be the stored config's logit_scale 1.0, got True"),
        (lambda m: m.update(threshold=[1]), f"'threshold' must be {_THRESHOLD_TYPES}, got [1]"),
        (lambda m: m.update(threshold={}), f"'threshold' must be {_THRESHOLD_TYPES}, got {{}}"),
        (lambda m: m["threshold"].update(calibration_stats=[1]), f"'threshold' must be {_THRESHOLD_TYPES}, got "
         "{'calibration_method': 'max-unknown-f1', 'calibration_stats': [1], 'tau': 0.5}"),
        (lambda m: m["threshold"].update(calibration_method=None), f"'threshold' must be {_THRESHOLD_TYPES}, got "
         "{'calibration_method': None, 'calibration_stats': {}, 'tau': 0.5}"),
        (lambda m: m["threshold"].update(tau=math.nan), f"'threshold' must be {_THRESHOLD_TYPES}, got "
         "{'calibration_method': 'max-unknown-f1', 'calibration_stats': {}, 'tau': nan}"),
        (lambda m: m["threshold"].update(tau=10**400), f"'threshold' must be {_THRESHOLD_TYPES}, got "
         "{'calibration_method': 'max-unknown-f1', 'calibration_stats': {}, 'tau': " + str(10**400) + "}"),
        (lambda m: m["threshold"].update(tau="0.5"), f"'threshold' must be {_THRESHOLD_TYPES}, got "
         "{'calibration_method': 'max-unknown-f1', 'calibration_stats': {}, 'tau': '0.5'}"),
    ],
    ids=["sections not a list", "a section not an object", "class_names a string", "class_names repeated",
         "a feature name not a string", "label_column null", "logit_scale not the config's", "logit_scale a bool",
         "threshold a list", "threshold empty", "calibration_stats a list", "calibration_method null", "tau NaN",
         "tau past a float", "tau a string"],
)
def test_manifest_fields_of_the_wrong_type_name_the_bundle_and_key(tmp_path, edit, message):
    """A manifest field whose type is not the one save_bundle writes is a
    BundleError naming the bundle and the key, not a TypeError, a class
    list read from a string's letters, a tau that flags no row, or a
    logit scale other than the config's."""
    path = tmp_path / "m.bundle"
    dio.save_bundle(path, tiny_bundle(threshold=_THRESHOLD))
    rewrite_manifest(path, edit)
    with pytest.raises(dio.BundleError) as info:
        dio.load_bundle(path)
    assert str(info.value).startswith(f"{path}: manifest key {message}")


_SECTION_NAMES = ("W1", "W2", "W3", "b1", "b2", "b3", "points", "raw_margins", "scaler_mean", "scaler_std")
_MANIFEST_KEYS = ("class_names", "config", "embed_dim", "feature_names", "format", "input_dim", "label_column",
                  "logit_scale", "sections", "threshold")


@settings(max_examples=300, deadline=None)
@given(
    target=st.one_of(
        st.tuples(st.sampled_from(_SECTION_NAMES), st.sampled_from(("name", "offset", "nbytes", "shape"))),
        st.tuples(st.none(), st.sampled_from(_MANIFEST_KEYS)),
    ),
    value=st.one_of(
        st.integers(min_value=0), st.integers(max_value=-1), st.floats(), st.text(max_size=6), st.booleans(),
        st.lists(st.one_of(st.integers(), st.floats(), st.text(max_size=3), st.booleans()), max_size=3),
        st.none(),
    ),
)
@example(target=("W1", "offset"), value="0")
@example(target=("W1", "shape"), value=[-4, -6])
@example(target=(None, "sections"), value=5)
def test_a_corrupted_manifest_field_loads_or_names_the_bundle(tmp_path_factory, target, value):
    """One field of a section entry, or one top-level manifest key, set
    to a value of any JSON type: the bundle loads, or the error is a
    BundleError naming it, never another exception."""
    path = tmp_path_factory.mktemp("bundle") / "m.bundle"
    dio.save_bundle(path, tiny_bundle(threshold=_THRESHOLD))
    section, key = target

    def corrupt(m):
        (m if section is None else next(e for e in m["sections"] if e["name"] == section))[key] = value

    rewrite_manifest(path, corrupt)
    try:
        dio.load_bundle(path)
    except dio.BundleError as e:
        assert str(e).startswith(f"{path}: ")


def test_score_with_a_bundle_one_feature_short_names_the_bundle(tmp_path, capsys):
    thr = osr.Threshold(tau=0.5, calibration_method="max-unknown-f1", calibration_stats={})
    path = tmp_path / "m.bundle"
    dio.save_bundle(path, tiny_bundle(threshold=thr))
    rewrite_manifest(path, lambda m: m["feature_names"].pop())
    data = write(tmp_path / "flows.csv", "f0,f1,f2,f3\n1,2,3,4\n")
    assert main(["score", "--bundle", str(path), "--data", data, "--out", str(tmp_path / "scored.csv")]) == 1
    assert capsys.readouterr().err == f"error: {path}: input_dim 4 disagrees with 3 feature_names\n"
    assert not (tmp_path / "scored.csv").exists()


# ---------------------------------------------------------------------------
# the one writer of every output


def test_save_bundle_failed_write_keeps_the_previous_bundle(tmp_path, fail_writes):
    path = tmp_path / "m.bundle"
    dio.save_bundle(path, tiny_bundle())
    kept = fail_writes(path)
    threshold = osr.Threshold(tau=1.0, calibration_method="max-unknown-f1", calibration_stats={})
    with pytest.raises(OSError) as info:
        dio.save_bundle(path, tiny_bundle(threshold=threshold))
    kept(str(info.value))


def test_save_csv_failed_write_keeps_the_previous_file(tmp_path, fail_writes):
    ds = dio.FlowDataset(features=np.ones((3, 2)), labels=("x", "y", "x"), feature_names=("a", "b"))
    path = tmp_path / "out.csv"
    path.write_bytes(b"previous\n")
    kept = fail_writes(path)
    with pytest.raises(OSError) as info:
        dio.save_csv(path, ds)
    kept(str(info.value))


def _write_group(paths):
    with dio.atomic_outputs() as open_output:
        for i, path in enumerate(paths):
            with open_output(path, binary=i % 2 == 1) as fh:
                fh.write(b"new\n" if i % 2 else "new\n")


@pytest.mark.parametrize("failing", [0, 1, 2])
def test_a_failed_write_in_a_group_keeps_every_target(tmp_path, fail_writes, failing):
    """Whichever file of a group fails, also one after a file already
    written in full, no target is replaced and no temp file is left."""
    paths = [tmp_path / name for name in ("b.json", "c.bundle", "a.csv")]
    for path in paths:
        path.write_bytes(f"previous {path.name}\n".encode())
    kept = fail_writes(paths[failing])
    with pytest.raises(OSError) as info:
        _write_group(paths)
    kept(str(info.value))
    assert [path.read_bytes() for path in paths] == [f"previous {path.name}\n".encode() for path in paths]


def test_a_group_renames_in_the_order_opened_once_all_are_written(tmp_path, monkeypatch):
    """No target is replaced before every file of the group is written
    in full; the renames then run in the order the files were opened."""
    paths = [tmp_path / name for name in ("b.json", "c.bundle", "a.csv")]
    temps = [f"{path}.{os.getpid()}.tmp" for path in paths]
    renamed, real_replace = [], os.replace

    def replace(src, dst):
        if not renamed:
            assert [os.path.getsize(tmp) for tmp in temps] == [4, 4, 4]
        renamed.append((src, dst))
        real_replace(src, dst)

    monkeypatch.setattr(dio.os, "replace", replace)
    _write_group(paths)
    assert renamed == list(zip(temps, paths))
    assert [path.read_bytes() for path in paths] == [b"new\n"] * 3


def test_a_failed_rename_keeps_the_targets_not_yet_renamed(tmp_path):
    """A rename that fails after an earlier one succeeded, here over a
    directory, is the one way a group lands in part: the targets before
    it are replaced, the rest keep their bytes, no temp file is left, and
    the error names the target."""
    paths = [tmp_path / name for name in ("b.json", "c.bundle", "a.csv")]
    paths[0].write_bytes(b"previous\n")
    paths[1].mkdir()
    paths[2].write_bytes(b"previous\n")
    with pytest.raises(OSError) as info:
        _write_group(paths)
    assert str(info.value) == f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{paths[1]}'"
    assert paths[0].read_bytes() == b"new\n" and paths[2].read_bytes() == b"previous\n"
    assert not list(tmp_path.glob("*.tmp"))


def test_atomic_output_error_names_the_target_not_the_temp_file(tmp_path):
    target = tmp_path / "missing" / "out.json"
    with pytest.raises(FileNotFoundError) as info:
        dio.write_json(target, {})
    assert str(info.value) == f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: '{target}'"


def test_atomic_output_replaces_a_symlink_with_a_regular_file(tmp_path):
    """The link itself is replaced; the file it pointed to is untouched."""
    pointee, link = tmp_path / "pointee.json", tmp_path / "link.json"
    pointee.write_bytes(b"previous\n")
    link.symlink_to(pointee)
    dio.write_json(link, {"b": 1, "a": [2]})
    assert not link.is_symlink()
    assert link.read_bytes() == b'{\n  "a": [\n    2\n  ],\n  "b": 1\n}\n'
    assert pointee.read_bytes() == b"previous\n"
