"""Seeded generator of CICIDS2017-shaped flow CSVs for the benchmark.

The program under test never sees this module: it only reads the CSV
and roles files written here.  The data imitates the shape of the
CICIDS2017 flow dumps (Sharafaldin et al., ICISSP 2018), not their
content:

* 78 numeric features, mostly non-negative, heavy-tailed like flow
  counters (log-normal around a per-class log-mean, with a low-rank
  correlated part), a share of exact zeros, two rate columns named as in
  the real dumps, and one window-size column that can be -1;
* a ``Label`` column with the 11 classes of the shipped ``cicids2017``
  roles preset (5 known, 2 validation-unknown, 4 test-unknown), with
  counts proportional to the square root of the real class counts;
* classes that overlap: class log-means sit close together relative to
  the noise, and every unknown class is a blend of a known class and a
  new offset, so detection and classification stay below 1.0.

``dirt_every`` injects real-world dirt into a share of rows: ``Infinity``
and ``NaN`` in the rate columns, an empty cell, and ragged rows.  Every
dirty row is one the program must drop.
"""
from __future__ import annotations

import json

import numpy as np

N_FEATURES = 78
LABEL = "Label"
RATE_COLUMNS = (14, 15)  # "Flow Bytes/s", "Flow Packets/s", where the real dumps hold Inf/NaN
WINDOW_COLUMN = 66  # "Init_Win_bytes_forward", -1 when the handshake was not seen
FLOAT_COLUMNS = frozenset(RATE_COLUMNS) | frozenset(range(40, 52))

KNOWN = ("Benign", "DDoS", "DoS Hulk", "PortScan", "FTP-Patator")
VALIDATION_UNKNOWN = ("SSH-Patator", "DoS GoldenEye")
TEST_UNKNOWN = ("DoS slowloris", "DoS Slowhttptest", "Bot", "Web Attack Brute Force")
CLASSES = KNOWN + VALIDATION_UNKNOWN + TEST_UNKNOWN

# Real CICIDS2017 class counts (in thousands); the generator uses their
# square roots so that the small classes still get rows at benchmark size.
REAL_COUNTS = {
    "Benign": 2273.1, "DoS Hulk": 231.1, "PortScan": 158.9, "DDoS": 128.0,
    "DoS GoldenEye": 10.3, "FTP-Patator": 7.9, "SSH-Patator": 5.9,
    "DoS slowloris": 5.8, "DoS Slowhttptest": 5.5, "Bot": 1.97,
    "Web Attack Brute Force": 1.51,
}

STRUCTURE_SEED = 2017
DIRT_KINDS = ("Infinity", "NaN", "empty", "short_row", "long_row")


def feature_names() -> list:
    names = [f"Feature {i:02d}" for i in range(N_FEATURES)]
    names[RATE_COLUMNS[0]] = "Flow Bytes/s"
    names[RATE_COLUMNS[1]] = "Flow Packets/s"
    names[WINDOW_COLUMN] = "Init_Win_bytes_forward"
    return names


def class_counts(n_rows: int) -> dict:
    """Rows per class: sqrt-of-real-count shares, largest remainder."""
    w = np.sqrt(np.array([REAL_COUNTS[c] for c in CLASSES]))
    exact = n_rows * w / w.sum()
    counts = np.floor(exact).astype(int)
    for i in np.argsort(-(exact - counts), kind="stable")[: n_rows - counts.sum()]:
        counts[i] += 1
    return dict(zip(CLASSES, counts.tolist()))


def _class_structure(rng: np.random.Generator):
    """Per-class log-means, zero probabilities and a shared low-rank mix."""
    base = rng.uniform(1.0, 9.0, N_FEATURES)
    offsets = {}
    for c in KNOWN:
        offsets[c] = rng.normal(0.0, 1.0, N_FEATURES)
    known_list = list(KNOWN)
    for i, c in enumerate(VALIDATION_UNKNOWN + TEST_UNKNOWN):
        parent = known_list[(i + 1) % len(known_list)]
        offsets[c] = 0.3 * offsets[parent] + rng.normal(0.0, 1.0, N_FEATURES)
    zero_p = {c: rng.uniform(0.0, 0.3, N_FEATURES) for c in CLASSES}
    mix = rng.normal(0.0, 0.35, (8, N_FEATURES))
    return base, offsets, zero_p, mix


def _class_rows(rng, n, base, offset, zero_p, mix) -> np.ndarray:
    logv = base + offset + rng.normal(0.0, 1.0, (n, mix.shape[0])) @ mix + rng.normal(0.0, 0.8, (n, N_FEATURES))
    x = np.expm1(np.clip(logv, 0.0, 20.0))
    x[rng.random((n, N_FEATURES)) < zero_p] = 0.0
    int_cols = [j for j in range(N_FEATURES) if j not in FLOAT_COLUMNS]
    x[:, int_cols] = np.floor(x[:, int_cols])
    x[:, WINDOW_COLUMN] = np.where(rng.random(n) < 0.1, -1.0, x[:, WINDOW_COLUMN])
    return x


def generate(seed: int, n_rows: int):
    """Feature matrix (n_rows, 78) and labels, rows in shuffled order.

    The class structure is fixed (``STRUCTURE_SEED``): every seed draws
    fresh rows from one distribution, so quality metrics move little
    between seeds.
    """
    base, offsets, zero_p, mix = _class_structure(np.random.default_rng(STRUCTURE_SEED))
    rng = np.random.default_rng([seed, n_rows])
    blocks, labels = [], []
    for c, n in class_counts(n_rows).items():
        blocks.append(_class_rows(rng, n, base, offsets[c], zero_p[c], mix))
        labels.extend([c] * n)
    x = np.vstack(blocks)
    order = rng.permutation(n_rows)
    return x[order], [labels[i] for i in order]


def _format_columns(x: np.ndarray) -> list:
    cols = []
    for j in range(x.shape[1]):
        col = x[:, j]
        if j in FLOAT_COLUMNS:
            cols.append([repr(v) for v in np.round(col, 4).tolist()])
        else:
            cols.append(list(map(str, col.astype(np.int64).tolist())))
    return cols


def write_csv(path, x: np.ndarray, labels, dirt_every: int = 0, seed: int = 0) -> dict:
    """Write a flow CSV; return what a correct reader must see.

    With ``dirt_every`` > 0, one row in each run of ``dirt_every`` rows
    (at a seeded position inside the run) is made dirty, cycling through
    ``DIRT_KINDS``.  The returned dict counts the dirty rows and the clean
    rows per class.
    """
    cols = _format_columns(x)
    cols.append(list(labels))
    rows = [list(r) for r in zip(*cols)]
    dirty = []
    if dirt_every > 0:
        rng = np.random.default_rng([seed, len(rows), dirt_every])
        starts = np.arange(0, len(rows) - dirt_every + 1, dirt_every)
        dirty = (starts + rng.integers(0, dirt_every, starts.size)).tolist()
        for k, i in enumerate(dirty):
            kind = DIRT_KINDS[k % len(DIRT_KINDS)]
            row = rows[i]
            if kind == "Infinity":
                row[RATE_COLUMNS[0]] = "Infinity"
            elif kind == "NaN":
                row[RATE_COLUMNS[1]] = "NaN"
            elif kind == "empty":
                row[int(rng.integers(0, N_FEATURES))] = ""
            elif kind == "short_row":
                del row[int(rng.integers(0, N_FEATURES))]
            else:
                row.append("0")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(feature_names() + [LABEL]) + "\n")
        fh.write("\n".join(",".join(r) for r in rows))
        fh.write("\n")
    dirty_set = set(dirty)
    clean = {c: 0 for c in CLASSES}
    for i, label in enumerate(labels):
        if i not in dirty_set:
            clean[label] += 1
    return {"rows": len(rows), "dirty_rows": len(dirty), "clean_per_class": clean}


def write_roles(path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "known": list(KNOWN),
                "validation_unknown": list(VALIDATION_UNKNOWN),
                "test_unknown": list(TEST_UNKNOWN),
                "label_column": LABEL,
            },
            fh,
            indent=2,
        )
        fh.write("\n")
