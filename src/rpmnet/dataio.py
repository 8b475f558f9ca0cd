"""Flow-record CSV ingestion, normalization, open-set splitting, and
model bundle persistence.

Cleaning policy: rows with non-numeric, NaN, or infinite feature values
are dropped (never imputed) and counted, since public flow datasets are
known to contain Inf/NaN artifacts that would poison z-score statistics.

The bundle is a single self-describing file: a JSON manifest (format
version, feature schema, label vocabulary, config, threshold) followed
by length-tracked float64 sections, all covered by a CRC-32 checksum.
Saving, loading, and re-saving produces byte-identical files.
"""
from __future__ import annotations

import collections
import csv
import itertools
import json
import logging
import operator
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import model as mdl
from .config import TrainConfig
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
    "OpenSetSplit",
    "BUNDLE_FORMAT",
    "BLOCK_ROWS",
    "iter_csv_blocks",
    "read_csv_rows",
    "reject_duplicates",
    "extract_features",
    "load_csv",
    "save_csv",
    "fit_scaler",
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
# raw CSV rows per block that ``iter_csv_blocks`` yields
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

    @property
    def width(self) -> int:
        return self.features.shape[1]

    def take(self, indices) -> "FlowDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return FlowDataset(
            features=self.features[idx],
            labels=tuple(self.labels[i] for i in idx),
            feature_names=self.feature_names,
        )

    def class_counts(self) -> dict:
        out: dict = {}
        for label in self.labels:
            out[label] = out.get(label, 0) + 1
        return out


# ---------------------------------------------------------------------------
# CSV ingestion


def iter_csv_blocks(path):
    """Yield the header of a CSV file (RFC-4180 style, UTF-8; a leading
    byte-order mark is skipped), then its raw string rows in lists of at
    most ``BLOCK_ROWS``.  Blank rows are skipped.  The generator keeps no
    reference to a block it has yielded, so a caller that drops each
    block holds one block of the file at a time."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDatasetError(f"{path}: file has no header row") from None
        yield [h.strip() for h in header]
        rows = filter(None, reader)
        for first in rows:
            yield [first, *itertools.islice(rows, BLOCK_ROWS - 1)]


def read_csv_rows(path):
    """Header and every raw string row of a CSV file, as read by
    ``iter_csv_blocks``."""
    blocks = iter_csv_blocks(path)
    header = next(blocks)
    return header, list(itertools.chain.from_iterable(blocks))


def reject_duplicates(header, names) -> None:
    """Raise SchemaError naming every one of ``names`` that the header
    holds more than once, since reading it would pick one copy silently."""
    counts = collections.Counter(header)
    repeated = [name for name in dict.fromkeys(names) if counts[name] > 1]
    if repeated:
        raise SchemaError(
            f"duplicated columns: {', '.join(repeated)}; rename or drop the repeated columns"
        )


def extract_features(header, rows, feature_names):
    """Parse the named columns as float64, dropping unusable rows.

    Returns (features, kept_row_indices, dropped_count).  A row is
    dropped when it has the wrong number of cells or any feature cell is
    non-numeric, NaN, or infinite.  A feature column that the header
    holds twice is a ``SchemaError``.  Each row's cells are converted
    straight into a preallocated float64 matrix (numpy parses a ``str``
    exactly as ``float()`` does); one finiteness mask over the whole
    matrix then drops the NaN/Inf rows, so every drop is counted in a
    single pass over the rows.
    """
    positions = []
    missing = []
    for name in feature_names:
        if name in header:
            positions.append(header.index(name))
        else:
            missing.append(name)
    if missing:
        raise SchemaError(f"missing columns: {', '.join(missing)}")
    reject_duplicates(header, feature_names)

    cells_of = operator.itemgetter(*positions) if positions else (lambda row: ())
    features = np.empty((len(rows), len(positions)), dtype=np.float64)
    kept_idx = []
    width = len(header)
    for i, row in enumerate(rows):
        if len(row) != width:
            continue
        try:
            features[len(kept_idx)] = cells_of(row)
        except ValueError:
            continue
        kept_idx.append(i)
    features = features[: len(kept_idx)]
    finite = np.isfinite(features).all(axis=1)
    kept_idx = list(itertools.compress(kept_idx, finite))
    return features[finite], kept_idx, len(rows) - len(kept_idx)


def load_csv(path, feature_names=None, label_column: str = "label", allow_empty: bool = False):
    """Load a labelled flow CSV.

    ``feature_names`` defaults to every non-label column.  Returns
    (FlowDataset, dropped_row_count).
    """
    header, rows = read_csv_rows(path)
    if label_column not in header:
        raise SchemaError(f"missing columns: {label_column}")
    if feature_names is None:
        feature_names = [h for h in header if h != label_column]
    feature_names = list(feature_names)
    reject_duplicates(header, feature_names + [label_column])

    features, kept_idx, dropped = extract_features(header, rows, feature_names)
    if dropped:
        log.warning("%s: dropped %d rows with missing or non-finite features", path, dropped)
    label_pos = header.index(label_column)
    labels = tuple(rows[i][label_pos] for i in kept_idx)
    if len(labels) == 0 and not allow_empty:
        raise EmptyDatasetError(f"{path}: no usable records")
    dataset = FlowDataset(features=features, labels=labels, feature_names=tuple(feature_names))
    return dataset, dropped


def save_csv(path, dataset: FlowDataset, label_column: str = "label") -> None:
    """Write a FlowDataset back to CSV; floats keep full precision so a
    reload reproduces the dataset exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(dataset.feature_names) + [label_column])
        for row, label in zip(dataset.features, dataset.labels):
            writer.writerow([repr(float(v)) for v in row] + [label])


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

    def transform(self, features: np.ndarray) -> np.ndarray:
        return (np.asarray(features, dtype=np.float64) - self.mean) / self.std

    def inverse_transform(self, scaled: np.ndarray) -> np.ndarray:
        return np.asarray(scaled, dtype=np.float64) * self.std + self.mean


def fit_scaler(features: np.ndarray) -> Scaler:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("fit_scaler needs a non-empty 2-D feature matrix")
    mean = x.mean(axis=0)
    std = x.std(axis=0)
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


def load_roles(path) -> ClassRoles:
    """Read a roles config: JSON with ``known``/``validation_unknown``/
    ``test_unknown`` class-name lists, plus optional ``default`` role,
    ``label_column``, and ``feature_names``."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as e:
            raise RolesError(f"{path}: not valid JSON ({e})") from None
    known_keys = {"known", "validation_unknown", "test_unknown", "default", "label_column", "feature_names", "note"}
    extra = sorted(set(raw) - known_keys)
    if extra:
        raise RolesError(f"{path}: unknown keys: {', '.join(extra)}")
    if not raw.get("known"):
        raise RolesError(f"{path}: at least one known class is required")
    fn = raw.get("feature_names")
    return ClassRoles(
        known=tuple(raw.get("known", ())),
        validation_unknown=tuple(raw.get("validation_unknown", ())),
        test_unknown=tuple(raw.get("test_unknown", ())),
        default=raw.get("default"),
        label_column=raw.get("label_column", "label"),
        feature_names=tuple(fn) if fn else None,
    )


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


@dataclass(frozen=True)
class OpenSetSplit:
    """The four disjoint partitions of an open-set experiment."""

    known_train: FlowDataset
    known_test: FlowDataset
    val_unknown: FlowDataset
    test_unknown: FlowDataset
    class_roles: dict = field(default_factory=dict)


def make_split(dataset: FlowDataset, roles: ClassRoles, ratio: float = 0.8, seed: int = 0) -> OpenSetSplit:
    """Stratified open-set split.

    Known-role classes are split ``ratio``:(1-ratio) into train/test per
    class (seeded shuffle, both sides non-empty); unknown-role classes
    go wholly to their partition.  Row order inside each partition
    follows the input file order, so downstream behaviour is
    deterministic.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie strictly between 0 and 1")
    labels = dataset.labels
    assigned: dict = {}
    unassigned = []
    for name in sorted(set(labels)):
        role = roles.role_of(name)
        if role is None:
            unassigned.append(name)
        else:
            assigned[name] = role
    if unassigned:
        raise RolesError(
            "classes present in the data but missing from the roles config: "
            + ", ".join(repr(n) for n in unassigned)
        )

    rng = np.random.default_rng(seed)
    train_idx: list = []
    test_idx: list = []
    val_unknown_idx: list = []
    test_unknown_idx: list = []
    label_arr = np.asarray(labels, dtype=object)
    for name in sorted(assigned):
        idx = np.nonzero(label_arr == name)[0]
        role = assigned[name]
        if role == ROLE_VALIDATION_UNKNOWN:
            val_unknown_idx.extend(idx.tolist())
        elif role == ROLE_TEST_UNKNOWN:
            test_unknown_idx.extend(idx.tolist())
        else:
            if idx.size < 2:
                raise ValueError(f"known class {name!r} needs at least 2 samples, has {idx.size}")
            perm = rng.permutation(idx)
            n_train = int(round(ratio * idx.size))
            n_train = min(max(n_train, 1), idx.size - 1)
            train_idx.extend(perm[:n_train].tolist())
            test_idx.extend(perm[n_train:].tolist())

    return OpenSetSplit(
        known_train=dataset.take(sorted(train_idx)),
        known_test=dataset.take(sorted(test_idx)),
        val_unknown=dataset.take(sorted(val_unknown_idx)),
        test_unknown=dataset.take(sorted(test_unknown_idx)),
        class_roles=assigned,
    )


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


def _sections_of(bundle: Bundle) -> dict:
    out = dict(bundle.params.trainable())
    out["scaler_mean"] = bundle.scaler.mean
    out["scaler_std"] = bundle.scaler.std
    return out


def save_bundle(path, bundle: Bundle) -> None:
    """Write the bundle: magic, manifest length, JSON manifest, float64
    sections, CRC-32 trailer."""
    sections = _sections_of(bundle)
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
    with open(path, "wb") as fh:
        fh.write(_MAGIC + body + struct.pack("<I", crc))


def load_bundle(path) -> Bundle:
    """Byte-exact inverse of :func:`save_bundle`."""
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
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise BundleIntegrityError(f"{path}: manifest unreadable ({e})") from None
    fmt = manifest.get("format")
    if fmt != BUNDLE_FORMAT:
        raise BundleVersionError(f"{path}: bundle format {fmt!r} unsupported; this build reads {BUNDLE_FORMAT!r}")

    payload = body[4 + manifest_len :]
    try:
        arrays = {}
        for entry in manifest["sections"]:
            start, n = entry["offset"], entry["nbytes"]
            if start + n > len(payload):
                raise BundleIntegrityError(f"{path}: section {entry['name']!r} exceeds payload")
            arrays[entry["name"]] = np.frombuffer(payload[start : start + n], dtype=np.float64).reshape(
                entry["shape"]
            ).copy()

        config = TrainConfig.from_dict(manifest["config"])
        params = mdl.ModelParams(
            weights=(arrays["W1"], arrays["W2"], arrays["W3"]),
            biases=(arrays["b1"], arrays["b2"], arrays["b3"]),
            reciprocal_points=arrays["points"],
            raw_margins=arrays["raw_margins"],
            logit_scale=float(manifest["logit_scale"]),
            input_dim=int(manifest["input_dim"]),
            embed_dim=int(manifest["embed_dim"]),
            class_names=tuple(manifest["class_names"]),
        )
        scaler = Scaler(mean=arrays["scaler_mean"], std=arrays["scaler_std"])
        threshold = Threshold.from_dict(manifest["threshold"]) if manifest["threshold"] else None
        return Bundle(
            params=params,
            scaler=scaler,
            config=config,
            feature_names=tuple(manifest["feature_names"]),
            label_column=manifest["label_column"],
            threshold=threshold,
        )
    except KeyError as e:
        raise BundleError(f"{path}: malformed bundle manifest, missing {e.args[0]!r}") from None
