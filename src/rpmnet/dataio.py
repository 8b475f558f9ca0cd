"""Flow-record CSV ingestion, normalization, open-set splitting, and
model bundle persistence.

Cleaning policy: rows with non-numeric, NaN, or infinite feature values
are dropped (never imputed) and counted, since public flow datasets are
known to contain Inf/NaN artifacts that would poison z-score statistics.

Every command reads a CSV through :func:`iter_feature_blocks`, which
checks the header with :func:`column_positions` (a column the command
reads that the header lacks or repeats is a SchemaError listing those
columns) and logs the file's drops once, at its end.  Labels become
class indices only through :func:`encode_labels`, which names every
label outside the vocabulary.

The bundle is a single self-describing file: a JSON manifest (format
version, feature schema, label vocabulary, config, threshold) followed
by length-tracked float64 sections, all covered by a CRC-32 checksum.
Saving, loading, and re-saving produces byte-identical files.
"""
from __future__ import annotations

import collections
import contextlib
import csv
import functools
import itertools
import json
import logging
import math
import operator
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from . import model as mdl
from .config import TrainConfig, _is_int
from .openset import Threshold

__all__ = [
    "SchemaError",
    "EmptyDatasetError",
    "RolesError",
    "BundleError",
    "BundleVersionError",
    "BundleIntegrityError",
    "FlowDataset",
    "Scaler",
    "ClassRoles",
    "BUNDLE_FORMAT",
    "BLOCK_ROWS",
    "iter_feature_blocks",
    "iter_labelled_blocks",
    "read_csv_rows",
    "column_positions",
    "extract_features",
    "load_csv",
    "save_csv",
    "encode_labels",
    "fit_scaler",
    "atomic_outputs",
    "atomic_output",
    "read_json",
    "write_json",
    "load_roles",
    "preset_roles_path",
    "make_split",
    "Bundle",
    "save_bundle",
    "load_bundle",
]

log = logging.getLogger("rpmnet.dataio")

ROLE_KNOWN = "known"
ROLE_VALIDATION_UNKNOWN = "validation_unknown"
ROLE_TEST_UNKNOWN = "test_unknown"
ROLES = (ROLE_KNOWN, ROLE_VALIDATION_UNKNOWN, ROLE_TEST_UNKNOWN)

BUNDLE_FORMAT = "rpmnet-bundle/1"
# physical lines per block, so at most as many records: what
# ``iter_records`` checks and ``iter_feature_blocks`` parses at a time
BLOCK_ROWS = 1024
_MAGIC = b"RPMB"


class SchemaError(ValueError):
    """A required CSV column is missing or appears more than once."""


class EmptyDatasetError(ValueError):
    """The CSV yielded no usable records."""


class RolesError(ValueError):
    """The class-roles configuration is invalid or incomplete."""


class BundleError(ValueError):
    """The model bundle cannot be read."""


class BundleVersionError(BundleError):
    """The bundle was written by an unsupported format version."""


class BundleIntegrityError(BundleError):
    """The bundle bytes fail their checksum or are truncated."""


@dataclass(frozen=True)
class FlowDataset:
    """A column-aligned batch of flow records."""

    features: np.ndarray  # (N, d) float64, finite
    labels: tuple  # N label strings
    feature_names: tuple

    def __len__(self) -> int:
        return self.features.shape[0]


# ---------------------------------------------------------------------------
# CSV ingestion


def _encoding_error(path) -> SchemaError:
    """The SchemaError for a CSV file that is not UTF-8, naming the line
    and the byte offset of its first byte that does not decode.  The
    decoder's own position is relative to its read-ahead chunk, so the
    file is scanned again in binary."""
    offset, line_num = 0, 1
    with open(path, "rb") as fh:
        # a UTF-8 sequence never holds b"\n", so each piece decodes alone
        for line in fh:
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as e:
                line_num += line[: e.start].count(b"\r")  # a lone CR ends a line too
                return SchemaError(
                    f"{path}: line {line_num}: byte 0x{line[e.start]:02x} at byte offset {offset + e.start} "
                    "is not UTF-8; re-encode the file as UTF-8"
                )
            offset += len(line)
            line_num += len(line.splitlines())
    return SchemaError(f"{path}: not UTF-8; re-encode the file as UTF-8")


def read_csv_rows(path):
    """Header (stripped) and every non-blank row of a CSV file
    (RFC-4180 style, UTF-8; a leading byte-order mark is skipped), each
    row a list of the ``str`` cells ``csv`` reads.  A line ``csv``
    cannot parse (such as a cell over its field size limit) or a byte
    that is not UTF-8 is a SchemaError naming the file and line.  This
    is the reference that :func:`iter_records` must agree with."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise EmptyDatasetError(f"{path}: file has no header row")
            return [h.strip() for h in header], list(filter(None, reader))
        except csv.Error as e:
            raise SchemaError(f"{path}: line {reader.line_num}: {e}") from None
        except UnicodeDecodeError:
            raise _encoding_error(path) from None


# characters of a block checked at once, which bounds the copies of its
# text the checks make
_CHECK_CHARS = 1 << 15


def _check_lines(lines, commas, limit):
    """Check a block of physical lines, each with its terminator, with
    numpy rather than line by line; returns (blank, flagged) boolean
    arrays, one entry per line.

    A line is flagged when ``csv`` might not split it on its commas
    alone, or numpy might parse it differently from ``float()``: it
    holds a ``"``, a number of commas other than ``commas``, an empty
    cell (a leading, trailing or doubled comma), a character below
    U+0020, U+007F or a non-ASCII character that is not printable, or it
    is longer than ``limit`` or than 65535 characters.  The lines are
    checked in runs of about ``_CHECK_CHARS`` characters, so the copies
    of the text the checks make stay small next to the block.
    """
    ends = np.cumsum(np.fromiter(map(len, lines), dtype=np.intp, count=len(lines)))
    cuts = [0, *np.searchsorted(ends, np.arange(_CHECK_CHARS, ends[-1], _CHECK_CHARS)).tolist(), len(lines)]
    runs = [_check_run(lines[i:j], ends[i:j] - (ends[i - 1] if i else 0), commas, limit)
            for i, j in zip(cuts, cuts[1:]) if i < j]
    return np.concatenate([blank for blank, _ in runs]), np.concatenate([flagged for _, flagged in runs])


def _check_run(lines, ends, commas, limit):
    """:func:`_check_lines` on consecutive lines that end at character
    offsets ``ends`` of their text.  The text is encoded with one byte
    per character (``?`` for a non-ASCII one), so a byte offset is a
    character offset, and a line holds a ``\\r`` or ``\\n`` only in its
    terminator.  The commas and the stray bytes of each line are summed
    as ``uint16``: a line over 65535 characters is flagged for its
    length, and below that a sum that wraps falls short of the count a
    clean line has."""
    text = "".join(lines)
    ascii_only = text.isascii()
    a = np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)
    del text
    starts = np.concatenate(([0], ends[:-1]))
    last = a[ends - 1]
    # where each terminator starts; a "\r" second from a line's end is
    # the start of its "\r\n" (a one-character line has no second byte)
    stops = ends - (last == 10) - (last == 13) - ((ends - starts > 1) & (a[ends - 2] == 13))
    blank = stops == starts
    comma = a == 44
    flagged = (stops - starts > min(limit, 0xFFFF)) | comma[starts] | comma[stops - 1]
    flagged |= np.add.reduceat(comma, starts, dtype=np.uint16) != commas
    # a stray byte is one below 0x20 or from 0x7F on (uint8 arithmetic
    # wraps below 0x20), a '"' or the first comma of a ",,"; those of a
    # clean line are its terminator's
    stray = (a - np.uint8(32)) > 94
    stray |= a == 34
    stray[:-1] |= comma[:-1] & comma[1:]
    del comma, a
    flagged |= np.add.reduceat(stray, starts, dtype=np.uint16) != ends - stops
    if not ascii_only:
        for k in np.flatnonzero(~flagged).tolist():
            flagged[k] = not (lines[k].isascii() or lines[k].rstrip("\r\n").isprintable())
    return blank, flagged & ~blank


def iter_records(path):
    """Yield the stripped header of a CSV file, then its non-blank
    records in blocks of at most ``BLOCK_ROWS``: the same header, rows
    and errors as :func:`read_csv_rows`, without a ``str`` per cell
    where numpy can parse the line.

    A block is a list of records.  It reads ``BLOCK_ROWS`` physical
    lines and checks them together with :func:`_check_lines`.  Each line
    that passes is a record on its own, which ``csv`` splits on commas
    and nowhere else; it stays a ``str`` as read, terminator included,
    for :func:`_parse_block` to hand to numpy.  A flagged line starts a
    record that ``csv`` reads as its list of cells, taking in the
    continuation lines of a quoted cell, also past the block's last line.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        line_num, after = 0, fh  # physical lines before the current block; what a record runs on into

        def cells(lines, k):
            """The record ``csv`` reads from ``lines[k]`` on, and the index in ``lines`` of the line after it."""
            reader = csv.reader(itertools.chain(itertools.islice(lines, k, None), after))
            try:
                row = next(reader)
            except csv.Error as e:
                raise SchemaError(f"{path}: line {line_num + k + reader.line_num}: {e}") from None
            return row, k + reader.line_num

        def records_of(lines):
            """The records of a block of lines, and the index of the first line no record has taken."""
            blank, flagged = _check_lines(lines, commas, limit)
            records, start = [], 0
            for k in np.flatnonzero(blank | flagged).tolist():
                if k >= start:  # else a continuation line of the record before
                    records += lines[start:k]
                    start = k + 1  # past a blank line
                    if flagged[k]:
                        row, start = cells(lines, k)
                        records.append(row)
            return records + lines[start:], start

        def next_block():
            """The next block holding a record, or None at the end of the file."""
            nonlocal line_num, after
            while True:
                lines = []
                try:
                    lines.extend(itertools.islice(fh, BLOCK_ROWS))
                except UnicodeDecodeError:
                    # fh dropped the chunk it could not decode, so it is not read again; a
                    # line csv cannot parse before that chunk comes first, as in read_csv_rows
                    after = ()
                    if lines:
                        records_of(lines)
                    raise
                if not lines:
                    return None
                records, start = records_of(lines)
                line_num += max(len(lines), start)
                if records:
                    return records

        try:
            first = next(fh, None)
            if first is None:
                raise EmptyDatasetError(f"{path}: file has no header row")
            header, line_num = cells([first], 0)
            header = [h.strip() for h in header]
            yield header
            commas, limit = len(header) - 1, csv.field_size_limit()
            # through a call, so no frame holds a block while the next is read
            yield from iter(next_block, None)
        except UnicodeDecodeError:
            raise _encoding_error(path) from None


def _parse_block(records, positions, width):
    """Parse one block of :func:`iter_records` the way
    :func:`extract_features` parses rows; returns (features, kept
    records, dropped count), a kept line as read, terminator included.

    All line records go through one ``np.loadtxt`` call, which parses a
    printable cell to the bits ``float()`` gives and accepts no printable
    cell that ``float()`` rejects.  It is stricter on some cells, such
    as ``1_000``; if it rejects one, every record of the block is parsed
    from its cells instead.
    """
    n = len(records)
    by_cells = [i for i, r in enumerate(records) if not isinstance(r, str)]  # records parsed cell by cell
    parsed = np.ones(n, dtype=bool)
    parsed[by_cells] = False
    lines = [r for r in records if isinstance(r, str)] if by_cells else records
    try:
        numbers = np.loadtxt(lines, delimiter=",", usecols=positions, comments=None, ndmin=2) if lines else None
    except ValueError:
        parsed[:], by_cells, numbers = False, range(n), None
    if not by_cells:
        features = numbers
    else:
        features = np.empty((n, len(positions)), dtype=np.float64)
        if numbers is not None:
            features[parsed] = numbers
        rows = [records[i].rstrip("\r\n").split(",") if isinstance(records[i], str) else records[i] for i in by_cells]
        values, parsed_rows = _parse_rows(rows, positions, width)
        done = [by_cells[k] for k in parsed_rows]
        features[done] = values
        parsed[done] = True
    parsed &= np.isfinite(features).all(axis=1)
    if parsed.all():
        return features, records, 0
    kept = np.flatnonzero(parsed).tolist()
    return features[parsed], [records[i] for i in kept], n - len(kept)


def iter_feature_blocks(path, names=None, also=()):
    """Read a CSV file as every command does: yield its header and feature
    ``names`` (every column not in ``also`` by default), then (features,
    kept records, dropped count) per block, as :func:`_parse_block` gives
    them.  The first ``next()`` checks the header with :func:`column_positions`
    over the names and ``also``; its SchemaError names the file.  At the
    end the drops are logged once, and, if no record was kept, why the
    first one dropped."""
    with contextlib.closing(iter_records(path)) as records:
        header = next(records)
        names = tuple(h for h in header if h not in also) if names is None else tuple(names)
        try:
            positions = column_positions(header, [*names, *also])[: len(names)]
        except SchemaError as e:
            raise SchemaError(f"{path}: {e}") from None
        yield header, names
        n_kept = dropped = 0
        parse = functools.partial(_parse_block, positions=positions, width=len(header))
        # a map, so no frame holds a block's records while the next is read
        for features, kept, n_dropped in map(parse, records):
            n_kept, dropped = n_kept + len(kept), dropped + n_dropped
            yield features, kept, n_dropped
            del features, kept
    if dropped:
        log.warning("%s: dropped %d rows with missing or non-finite features", path, dropped)
        cause = None if n_kept else _drop_cause(path, header, positions)
        if cause:
            log.warning("%s", cause)


def _cells(records, pos, width):
    """Cell ``pos`` of each record of a block from :func:`_parse_block`;
    a line is split from its nearer end only."""
    if pos == width - 1:  # a line's last cell ends in its terminator
        return [r[r.rfind(",") + 1 :].rstrip("\r\n") if isinstance(r, str) else r[pos] for r in records]
    if 2 * pos < width:
        return [r.split(",", pos + 1)[pos] if isinstance(r, str) else r[pos] for r in records]
    return [r.rsplit(",", width - pos)[1] if isinstance(r, str) else r[pos] for r in records]


def column_positions(header, names) -> list:
    """Position of each of ``names`` in a CSV header.

    A name the header lacks is a SchemaError listing every missing name
    and the header's other columns.  A name the header holds more than
    once is a SchemaError listing every such name, since reading it
    would pick one copy silently.  A name listed twice in ``names`` is a
    SchemaError too, since it would read one column twice.
    """
    counts = collections.Counter(header)
    missing = [name for name in dict.fromkeys(names) if not counts[name]]
    if missing:
        wanted = set(names)
        others = [h for h in header if h not in wanted]
        msg = f"missing columns: {', '.join(missing)}"
        raise SchemaError(msg + f"; other columns: {', '.join(others)}" if others else msg)
    repeated = [name for name in dict.fromkeys(names) if counts[name] > 1]
    if repeated:
        raise SchemaError(
            f"duplicated columns: {', '.join(repeated)}; rename or drop the repeated columns"
        )
    twice = [name for name, n in collections.Counter(names).items() if n > 1]
    if twice:
        raise SchemaError(
            f"columns named more than once: {', '.join(twice)}; "
            "list each feature column once, and not the label column"
        )
    return [header.index(name) for name in names]


def _parse_rows(rows, positions, width):
    """Parse the cells at ``positions`` of each row (a list of ``str``
    cells) as float64; returns (values, parsed_row_indices) for the rows
    that have ``width`` cells, all of which ``float()`` accepts.  Each
    row is converted straight into a preallocated float64 matrix (numpy
    parses a ``str`` exactly as ``float()`` does).  NaN and Inf are
    kept."""
    cells_of = operator.itemgetter(*positions) if positions else (lambda row: ())
    values = np.empty((len(rows), len(positions)), dtype=np.float64)
    parsed = []
    for i, row in enumerate(rows):
        if len(row) != width:
            continue
        try:
            values[len(parsed)] = cells_of(row)
        except ValueError:
            continue
        parsed.append(i)
    return values[: len(parsed)], parsed


def extract_features(header, rows, feature_names):
    """Parse the named columns of rows of ``str`` cells as float64,
    dropping unusable rows.

    Returns (features, kept_row_indices, dropped_count).  A row is
    dropped when it has the wrong number of cells or any feature cell is
    non-numeric, NaN, or infinite.  The header is checked by
    :func:`column_positions`.  With :func:`read_csv_rows` it is the
    whole-file reference that tests hold :func:`iter_feature_blocks` to;
    both parse cells with :func:`_parse_rows`.
    """
    positions = column_positions(header, feature_names)
    features, parsed = _parse_rows(rows, positions, len(header))
    finite = np.isfinite(features).all(axis=1)
    kept_idx = list(itertools.compress(parsed, finite))
    return features[finite], kept_idx, len(rows) - len(kept_idx)


def iter_labelled_blocks(path, feature_names=None, label_column: str = "label"):
    """Yield the feature names of a labelled flow CSV (every non-label
    column by default), then (features, kept rows' labels, dropped count)
    per block of :func:`iter_feature_blocks`, which reports the drops; a
    file with no usable record is an EmptyDatasetError."""
    with contextlib.closing(iter_feature_blocks(path, feature_names, also=(label_column,))) as blocks:
        header, feature_names = next(blocks)
        label_pos, width = header.index(label_column), len(header)
        yield feature_names
        vocabulary = {}  # label -> the one str its rows share
        for features, kept, n_dropped in blocks:
            labels = [vocabulary.setdefault(c, c) for c in _cells(kept, label_pos, width)]
            yield features, labels, n_dropped
            del features, kept  # not held while the next block is read
    if not vocabulary:  # no row was kept
        raise EmptyDatasetError(f"{path}: no usable records")


def _drop_cause(path, header, positions):
    """Why the first record of a CSV file drops, as ``<path>: line <n>:
    <reason>``: its cell count differs from the header's, or a feature
    cell at ``positions`` is not a number, or is NaN or infinite.  None
    if that record parses; it is asked only when every record dropped."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        next(reader)  # the header
        row = []
        while not row:  # skip blank lines
            line, row = reader.line_num + 1, next(reader)
    if len(row) != len(header):
        return f"{path}: line {line}: {len(row)} cells, but the header has {len(header)}"
    for pos in positions:
        try:
            value = float(row[pos])
        except ValueError:
            return f"{path}: line {line}: column {header[pos]!r} holds {row[pos]!r}, which is not a number"
        if not np.isfinite(value):
            return f"{path}: line {line}: column {header[pos]!r} holds {row[pos]!r}, which is not finite"
    return None


def load_csv(path, feature_names=None, label_column: str = "label"):
    """Load a labelled flow CSV, the blocks of :func:`iter_labelled_blocks`
    copied into one float64 matrix; returns (FlowDataset,
    dropped_row_count).  The matrix is allocated once, with a row per
    physical line, and cut to the rows kept."""
    blocks = iter_labelled_blocks(path, feature_names, label_column)
    feature_names = next(blocks)
    features = np.empty((_count_lines(path), len(feature_names)), dtype=np.float64)
    n, labels, dropped = 0, [], 0
    for block, block_labels, n_dropped in blocks:
        features[n : n + len(block)] = block
        n += len(block)
        labels += block_labels
        dropped += n_dropped
        del block  # not held while the next block is read
    features.resize((n, len(feature_names)), refcheck=False)  # in place: no view of it exists
    return FlowDataset(features, tuple(labels), feature_names), dropped


def _count_lines(path) -> int:
    """An upper bound on the records of a file: its line terminators
    (``\\n``, ``\\r\\n`` or a lone ``\\r``), counted in binary, plus one for
    a last line without one.  A ``\\r\\n`` split between two reads counts
    twice, which only raises the bound."""
    lf = cr = crlf = 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            lf, cr, crlf = lf + chunk.count(b"\n"), cr + chunk.count(b"\r"), crlf + chunk.count(b"\r\n")
    return lf + cr - crlf + 1


def save_csv(path, dataset: FlowDataset, label_column: str = "label") -> None:
    """Write a FlowDataset back to CSV; floats keep full precision so a
    reload reproduces the dataset exactly."""
    with atomic_output(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(list(dataset.feature_names) + [label_column])
        for row, label in zip(dataset.features, dataset.labels):
            writer.writerow([repr(float(v)) for v in row] + [label])


def encode_labels(labels, class_names) -> np.ndarray:
    """Index of each label in ``class_names``, as int64 codes.  A label
    outside that vocabulary is a ValueError naming every such label."""
    index = {name: i for i, name in enumerate(class_names)}
    codes = np.array([index.get(label, -1) for label in labels], dtype=np.int64)
    if (codes < 0).any():
        outside = sorted({label for label in labels if label not in index})
        raise ValueError("labels not in the class vocabulary: " + ", ".join(map(repr, outside)))
    return codes


# ---------------------------------------------------------------------------
# normalization


@dataclass(frozen=True)
class Scaler:
    """Per-feature z-score statistics, fit on known-train data only.

    Population standard deviation; features with std below 1e-12 are
    treated as constant and scale to exactly zero.
    """

    mean: np.ndarray
    std: np.ndarray

    def transform(self, features: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``(features - mean) / std``, written into ``out`` when given
        (``features`` itself scales in place, with the same bits)."""
        z = np.subtract(features, self.mean, out=out, dtype=np.float64)
        return np.divide(z, self.std, out=z)


def _column_sum(x, rows_of):
    """``np.add.reduce(rows_of(x), axis=0)``, taken over ``BLOCK_ROWS``-row
    blocks of ``x`` with the running sum stacked on each block as its
    first row: the rows are added in the same order, one after another."""
    total = None
    for start in range(0, x.shape[0], BLOCK_ROWS):
        rows = rows_of(x[start : start + BLOCK_ROWS])
        total = np.add.reduce(rows if total is None else np.vstack((total, rows)), axis=0)
    return total


def fit_scaler(features: np.ndarray) -> Scaler:
    """The mean and population std of each column, with the bits of
    ``x.mean(axis=0)`` and ``x.std(axis=0)`` but no temporary the size of
    ``x``: numpy sums the rows of a C-ordered matrix of two columns or
    more one after another, as :func:`_column_sum` does block by block.
    It sums a single column pairwise, so that one is left to numpy."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("fit_scaler needs a non-empty 2-D feature matrix")
    n = x.shape[0]
    if x.shape[1] < 2:
        mean, std = x.mean(axis=0), x.std(axis=0)
    else:
        mean = _column_sum(x, lambda rows: rows) / n
        std = np.sqrt(_column_sum(x, lambda rows: np.square(rows - mean)) / n)
    std = np.where(std < 1e-12, 1.0, std)
    return Scaler(mean=mean, std=std)


# ---------------------------------------------------------------------------
# class roles and the open-set split


@dataclass(frozen=True)
class ClassRoles:
    """Which dataset classes are trained on, which calibrate the
    rejection threshold, and which are held out for final evaluation."""

    known: tuple
    validation_unknown: tuple = ()
    test_unknown: tuple = ()
    default: str | None = None
    label_column: str = "label"
    feature_names: tuple | None = None

    def __post_init__(self):
        seen: dict = {}
        for role, names in (
            (ROLE_KNOWN, self.known),
            (ROLE_VALIDATION_UNKNOWN, self.validation_unknown),
            (ROLE_TEST_UNKNOWN, self.test_unknown),
        ):
            for name in names:
                if seen.get(name) == role:
                    raise RolesError(f"class {name!r} listed more than once in {role}")
                if name in seen:
                    raise RolesError(f"class {name!r} assigned to both {seen[name]} and {role}")
                seen[name] = role
        if self.default is not None and self.default not in ROLES:
            raise RolesError(f"default role must be one of {ROLES}, got {self.default!r}")

    def role_of(self, class_name: str) -> str | None:
        if class_name in self.known:
            return ROLE_KNOWN
        if class_name in self.validation_unknown:
            return ROLE_VALIDATION_UNKNOWN
        if class_name in self.test_unknown:
            return ROLE_TEST_UNKNOWN
        return self.default

    def roles_of(self, class_names) -> list:
        """The role of each of ``class_names``; any class without one is
        a RolesError that names every such class, in the given order."""
        roles = [self.role_of(name) for name in class_names]
        unassigned = [name for name, role in zip(class_names, roles) if role is None]
        if unassigned:
            raise RolesError(
                "classes present in the data but missing from the roles config: "
                + ", ".join(repr(n) for n in unassigned)
            )
        return roles


@contextlib.contextmanager
def _naming(tmp, path):
    """Make an OSError that names no file, or the temp file ``tmp``, name ``path``."""
    try:
        yield
    except OSError as e:
        if e.errno and e.filename in (None, tmp) and not isinstance(e, FileExistsError):
            raise OSError(e.errno, e.strerror, str(path)) from e
        raise


@contextlib.contextmanager
def atomic_outputs():
    """A group of outputs committed together.  The ``with`` target is an
    opener: ``with open_output(path, binary=False) as fh`` writes a new
    file, ``<path>.<pid>.tmp`` (UTF-8 text with no newline translation, or
    bytes).  Once the group's ``with`` body has finished, each temp file
    replaces its ``path``, in the order opened.  On any error the temp
    files not yet renamed are removed, so their targets keep their bytes,
    and an OSError names the ``path`` whose write or rename failed."""
    pending = []  # (tmp, path) of each file opened and not yet renamed

    @contextlib.contextmanager
    def open_output(path, binary=False):
        tmp = f"{path}.{os.getpid()}.tmp"
        with _naming(tmp, path):
            fh = open(tmp, "xb") if binary else open(tmp, "x", newline="", encoding="utf-8")
            pending.append((tmp, path))
            with fh:
                yield fh

    try:
        yield open_output
        while pending:
            with _naming(*pending[0]):
                os.replace(*pending[0])
            pending.pop(0)
    except BaseException:
        for tmp, _ in pending:
            os.remove(tmp)
        raise


@contextlib.contextmanager
def atomic_output(path, binary=False):
    """One output, committed as a group of one (:func:`atomic_outputs`)."""
    with atomic_outputs() as open_output, open_output(path, binary) as fh:
        yield fh


def write_json(path, value, open_output=atomic_output) -> None:
    """Write ``value`` as indented, key-sorted JSON and a newline, through ``open_output``."""
    with open_output(path) as fh:
        json.dump(value, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _is_strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def read_json(path, error):
    """The JSON value a UTF-8 file holds; a byte that is not UTF-8, or
    text that is not JSON, is an ``error`` naming the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as e:
        raise error(
            f"{path}: byte 0x{data[e.start]:02x} at byte offset {e.start} is not UTF-8; re-encode the file as UTF-8"
        ) from None
    except ValueError as e:  # not JSON, or an integer too long to parse
        raise error(f"{path}: not valid JSON ({e})") from None


def load_roles(path) -> ClassRoles:
    """Read a roles config: a JSON object with ``known``/
    ``validation_unknown``/``test_unknown`` class-name lists, plus
    optional ``default`` role, ``label_column``, and ``feature_names``
    (``default`` and ``feature_names`` may be null; null feature names
    mean every non-label column).  Values are checked, not coerced; a
    wrong type, a ``feature_names`` that is empty, repeats a name or
    lists the label column, or a ``default`` of ``known`` is a RolesError
    naming the key, and every RolesError names the file."""
    raw = read_json(path, RolesError)
    if not isinstance(raw, dict):
        raise RolesError(f"{path}: roles must be a JSON object, not {type(raw).__name__}")
    known_keys = {*ROLES, "default", "label_column", "feature_names", "note"}
    extra = sorted(set(raw) - known_keys)
    if extra:
        raise RolesError(f"{path}: unknown keys: {', '.join(extra)}")
    for key, value in raw.items():
        if key == "note" or (value is None and key in ("default", "feature_names")):
            continue
        if key in ("default", "label_column"):
            ok, want = isinstance(value, str), "a string"
        else:
            ok, want = _is_strings(value), "a list of strings"
        if not ok:
            raise RolesError(f"{path}: roles key {key!r} must be {want}, got {value!r}")
    if not raw.get("known"):
        raise RolesError(f"{path}: at least one known class is required")
    if raw.get("default") == ROLE_KNOWN:
        raise RolesError(
            f"{path}: roles key 'default' may be 'validation_unknown' or 'test_unknown', not 'known'; "
            "train learns only the classes listed in 'known', so list every known class there"
        )
    fn, label_column = raw.get("feature_names"), raw.get("label_column", "label")
    if fn == []:
        raise RolesError(f"{path}: roles key 'feature_names' is empty; list the feature columns, or null for all")
    for name in dict.fromkeys(fn or ()):
        if name == label_column or fn.count(name) > 1:
            why = "is the label column" if name == label_column else "is listed more than once"
            raise RolesError(f"{path}: roles key 'feature_names': {name!r} {why}; "
                             "list each feature column once, and not the label column")
    try:
        return ClassRoles(
            known=tuple(raw.get("known", ())),
            validation_unknown=tuple(raw.get("validation_unknown", ())),
            test_unknown=tuple(raw.get("test_unknown", ())),
            default=raw.get("default"),
            label_column=label_column,
            feature_names=None if fn is None else tuple(fn),
        )
    except RolesError as e:
        raise RolesError(f"{path}: {e}") from None


def preset_roles_path(name: str):
    """Path of a shipped roles preset (``cicids2017`` or ``unsw_nb15``)."""
    from importlib import resources

    candidate = f"{name}_roles.json"
    base = resources.files("rpmnet") / "presets"
    path = base / candidate
    if not path.is_file():
        available = sorted(p.name[: -len("_roles.json")] for p in base.iterdir() if p.name.endswith("_roles.json"))
        raise FileNotFoundError(f"no preset {name!r}; available: {', '.join(available)}")
    return path


def make_split(labels, roles: ClassRoles, ratio: float = 0.8, seed: int = 0) -> np.ndarray:
    """Stratified open-set split of rows with ``labels``; returns each
    row's partition as int8 codes: 0 known-train, 1 known-test,
    2 validation-unknown, 3 test-unknown.

    Known-role classes are split ``ratio``:(1-ratio) into train/test per
    class (seeded shuffle, both sides non-empty); unknown-role classes
    go wholly to their partition.  Selecting a partition's rows keeps
    their file order, so downstream behaviour is deterministic.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie strictly between 0 and 1")
    names = sorted(set(labels))
    role_of = roles.roles_of(names)

    rng = np.random.default_rng(seed)
    codes = encode_labels(labels, names)
    part = np.empty(len(codes), dtype=np.int8)
    for k, (name, role) in enumerate(zip(names, role_of)):
        idx = np.flatnonzero(codes == k)
        if role == ROLE_VALIDATION_UNKNOWN:
            part[idx] = 2
        elif role == ROLE_TEST_UNKNOWN:
            part[idx] = 3
        else:
            if idx.size < 2:
                raise ValueError(f"known class {name!r} needs at least 2 samples, has {idx.size}")
            perm = rng.permutation(idx)
            n_train = int(round(ratio * idx.size))
            n_train = min(max(n_train, 1), idx.size - 1)
            part[perm[:n_train]] = 0
            part[perm[n_train:]] = 1
    return part


# ---------------------------------------------------------------------------
# model bundle persistence


@dataclass(frozen=True)
class Bundle:
    """Everything needed to score new traffic."""

    params: mdl.ModelParams
    scaler: Scaler
    config: TrainConfig
    feature_names: tuple
    label_column: str
    threshold: Threshold | None = None


def save_bundle(path, bundle: Bundle, open_output=atomic_output) -> None:
    """Write the bundle (magic, manifest length, JSON manifest, float64
    sections, CRC-32 trailer) through ``open_output``."""
    sections = {**bundle.params.tensors, "scaler_mean": bundle.scaler.mean, "scaler_std": bundle.scaler.std}
    payload = b""
    entries = []
    for name in sorted(sections):
        arr = np.ascontiguousarray(sections[name], dtype=np.float64)
        raw = arr.tobytes()
        entries.append(
            {"name": name, "shape": list(arr.shape), "offset": len(payload), "nbytes": len(raw)}
        )
        payload += raw
    manifest = {
        "format": BUNDLE_FORMAT,
        "sections": entries,
        "class_names": list(bundle.params.class_names),
        "feature_names": list(bundle.feature_names),
        "label_column": bundle.label_column,
        "config": bundle.config.to_dict(),
        "input_dim": bundle.params.input_dim,
        "embed_dim": bundle.params.embed_dim,
        "logit_scale": bundle.params.logit_scale,
        "threshold": bundle.threshold.to_dict() if bundle.threshold is not None else None,
    }
    manifest_bytes = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = struct.pack("<I", len(manifest_bytes)) + manifest_bytes + payload
    crc = zlib.crc32(body) & 0xFFFFFFFF
    with open_output(path, binary=True) as fh:
        fh.write(_MAGIC + body + struct.pack("<I", crc))


def load_bundle(path) -> Bundle:
    """Byte-exact inverse of :func:`save_bundle`; a bundle it could not
    have written is a BundleError naming the bundle.  The stored config,
    the types of the manifest's fields and ``input_dim`` are checked
    first, then each of the ten sections once, in the order
    :func:`save_bundle` writes them: it exists, its fields are integers,
    ``nbytes`` fits its shape, it fits in the payload, its shape is the
    one the manifest's names and dims give, and it starts where the one
    before ends; the last must end at the payload's end."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(_MAGIC) + 8 or not blob.startswith(_MAGIC):
        raise BundleIntegrityError(f"{path}: not a model bundle (bad magic or truncated)")
    body, (stored_crc,) = blob[len(_MAGIC) : -4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(body) & 0xFFFFFFFF != stored_crc:
        raise BundleIntegrityError(f"{path}: checksum mismatch (corrupt or truncated file)")
    (manifest_len,) = struct.unpack("<I", body[:4])
    if len(body) < 4 + manifest_len:
        raise BundleIntegrityError(f"{path}: manifest truncated")
    try:
        manifest = json.loads(body[4 : 4 + manifest_len].decode("utf-8"))
    except ValueError as e:  # not UTF-8, not JSON, or an integer too long to parse
        raise BundleIntegrityError(f"{path}: manifest unreadable ({e})") from None
    if not isinstance(manifest, dict):
        raise BundleIntegrityError(f"{path}: manifest is not a JSON object")
    fmt = manifest.get("format")
    if fmt != BUNDLE_FORMAT:
        raise BundleVersionError(f"{path}: bundle format {fmt!r} unsupported; this build reads {BUNDLE_FORMAT!r}")

    payload = body[4 + manifest_len :]
    try:
        try:
            config = TrainConfig.from_dict(manifest["config"])
        except ValueError as e:
            raise BundleError(f"{path}: stored config is invalid ({e})") from None
        sections, classes, scale = manifest["sections"], manifest["class_names"], manifest["logit_scale"]
        threshold = manifest["threshold"]
        for key, ok, want in (
            ("sections", isinstance(sections, list) and all(isinstance(s, dict) for s in sections),
             "a list of objects"),
            ("class_names", _is_strings(classes) and len(set(classes)) == len(classes), "a list of distinct strings"),
            ("feature_names", _is_strings(manifest["feature_names"]), "a list of strings"),
            ("label_column", isinstance(manifest["label_column"], str), "a string"),
            ("logit_scale", not isinstance(scale, bool) and scale == config.logit_scale,
             f"the stored config's logit_scale {config.logit_scale!r}"),
        ):
            if not ok:
                raise BundleError(f"{path}: manifest key {key!r} must be {want}, got {manifest[key]!r}")
        try:
            threshold = None if threshold is None else Threshold.from_dict(threshold)
        except ValueError:
            raise BundleError(
                f"{path}: manifest key 'threshold' must be null or an object with a finite number tau, "
                f"a string calibration_method and an object calibration_stats, got {threshold!r}"
            ) from None
        d, k, e = len(manifest["feature_names"]), len(classes), manifest["embed_dim"]
        if manifest["input_dim"] != d:
            raise BundleError(f"{path}: input_dim {manifest['input_dim']!r} disagrees with {d} feature_names")
        shapes = {**mdl.param_shapes(d, config.hidden_dims, e, k), "scaler_mean": [d], "scaler_std": [d]}
        arrays, end = {}, 0
        for name in sorted(shapes):
            entry = next((s for s in sections if s.get("name") == name), None)
            if entry is None:
                raise KeyError(name)
            start, n, shape = entry.get("offset"), entry.get("nbytes"), entry.get("shape")
            if not (_is_int(start) and _is_int(n) and isinstance(shape, list) and all(map(_is_int, shape))):
                raise BundleError(
                    f"{path}: section {name!r} has offset {start!r}, nbytes {n!r} and shape {shape!r}; "
                    "offset and nbytes must be integers, and shape a list of integers"
                )
            if n != 8 * math.prod(shape):
                raise BundleError(
                    f"{path}: section {name!r} holds {n} bytes, but its shape {shape} needs {8 * math.prod(shape)}"
                )
            if not 0 <= start <= start + n <= len(payload):
                raise BundleIntegrityError(f"{path}: section {name!r} at offset {start} does not fit in the payload")
            if shape != shapes[name]:
                raise BundleError(
                    f"{path}: section {name!r} has shape {shape}, but {d} feature_names, {k} class_names, "
                    f"embed_dim {e!r} and hidden_dims {list(config.hidden_dims)} give {shapes[name]}"
                )
            if start != end:
                raise BundleError(
                    f"{path}: section {name!r} starts at payload byte {start}, not {end}; "
                    "the sections must tile the payload in order"
                )
            arrays[name] = np.frombuffer(payload[start : start + n], dtype=np.float64).reshape(shape).copy()
            end += n
        if end != len(payload):
            raise BundleError(
                f"{path}: section {name!r} ends at payload byte {end}, but the payload has {len(payload)} bytes"
            )
        scaler = Scaler(mean=arrays.pop("scaler_mean"), std=arrays.pop("scaler_std"))
        return Bundle(
            params=mdl.ModelParams(arrays, float(scale), tuple(classes)),
            scaler=scaler,
            config=config,
            feature_names=tuple(manifest["feature_names"]),
            label_column=manifest["label_column"],
            threshold=threshold,
        )
    except KeyError as e:
        raise BundleError(f"{path}: malformed bundle manifest, missing {e.args[0]!r}") from None
