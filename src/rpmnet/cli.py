"""Command-line surface: train, calibrate, eval, score.

Every command writes exactly one JSON run manifest next to its main
output (command, effective config, seed, input checksums, output paths,
wall clock).  Outputs other than the manifest are byte-deterministic
for identical inputs and seed.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import logging
import os
import sys
import time
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from . import autodiff as ad
from . import dataio
from . import metrics as mx
from . import openset as osr
from .config import TrainConfig
from .train import TrainingDivergedError, format_history, train

log = logging.getLogger("rpmnet.cli")

HEADLINE_KEYS = ("precision", "recall", "f1_score", "auroc", "aupr_in", "aupr_out")


class CliError(ValueError):
    """User-facing command error."""


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_path, command, config, seed, inputs, outputs, started, extra=None):
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": {name: {"path": str(p), "sha256": _sha256(p)} for name, p in inputs.items()},
        "outputs": {name: str(p) for name, p in outputs.items()},
        "started_utc": datetime.fromtimestamp(started, tz=timezone.utc).isoformat(),
        "wall_clock_seconds": time.time() - started,
        "versions": {"package": __version__, "bundle_format": dataio.BUNDLE_FORMAT},
    }
    if extra:
        manifest.update(extra)
    path = str(out_path) + ".manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _load_train_config(path, seed_override) -> TrainConfig:
    raw = {}
    if path:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    if seed_override is not None:
        raw["seed"] = seed_override
    return TrainConfig.from_dict(raw)


def _load_split(data_path, roles, feature_names, label_column, seed):
    dataset, dropped = dataio.load_csv(data_path, feature_names=feature_names, label_column=label_column)
    split = dataio.make_split(dataset, roles, ratio=0.8, seed=seed)
    return dataset, split, dropped


def _label_indices(labels, class_names) -> np.ndarray:
    index = {c: i for i, c in enumerate(class_names)}
    missing = sorted({l for l in labels if l not in index})
    if missing:
        raise CliError(
            "labels not in the model's class vocabulary: " + ", ".join(repr(m) for m in missing)
        )
    return np.array([index[l] for l in labels], dtype=np.int64)


# ---------------------------------------------------------------------------
# commands


def cmd_train(args) -> int:
    started = time.time()
    config = _load_train_config(args.config, args.seed)
    roles = dataio.load_roles(args.roles)
    dataset, split, dropped = _load_split(
        args.data, roles, roles.feature_names, roles.label_column, config.seed
    )
    scaler = dataio.fit_scaler(split.known_train.features)
    class_names = tuple(sorted(roles.known))
    params, history = train(
        scaler.transform(split.known_train.features), split.known_train.labels, config, class_names
    )
    bundle = dataio.Bundle(
        params=params,
        scaler=scaler,
        config=config,
        feature_names=dataset.feature_names,
        label_column=roles.label_column,
        threshold=None,
    )
    dataio.save_bundle(args.out, bundle)
    history_path = str(args.out) + ".history.txt"
    with open(history_path, "w", encoding="utf-8") as fh:
        fh.write(format_history(history))
    _write_manifest(
        args.out,
        "train",
        config.to_dict(),
        config.seed,
        {"data": args.data, "roles": args.roles},
        {"bundle": args.out, "history": history_path},
        started,
        extra={"dropped_rows": dropped, "train_samples": len(split.known_train)},
    )
    final = history[-1].accuracy if history else float("nan")
    print(f"trained {len(split.known_train)} samples, {config.epochs} epochs, final train acc {final:.4f}")
    print(f"bundle written to {args.out}")
    return 0


def cmd_calibrate(args) -> int:
    started = time.time()
    bundle = dataio.load_bundle(args.bundle)
    if os.path.abspath(args.out) == os.path.abspath(args.bundle):
        raise CliError("--out must differ from --bundle; calibrate never rewrites a bundle in place")
    roles = dataio.load_roles(args.roles)
    _, split, _ = _load_split(
        args.data, roles, bundle.feature_names, bundle.label_column, bundle.config.seed
    )
    if len(split.val_unknown) == 0:
        raise CliError(
            f"no validation-unknown samples in {args.data}; check the validation_unknown classes in {args.roles}"
        )
    known_scores = osr.score(bundle.params, bundle.scaler.transform(split.known_train.features)).scores
    unknown_scores = osr.score(bundle.params, bundle.scaler.transform(split.val_unknown.features)).scores
    threshold = osr.calibrate(known_scores, unknown_scores)
    superseded = bundle.threshold.tau if bundle.threshold is not None else None
    dataio.save_bundle(args.out, replace(bundle, threshold=threshold))
    _write_manifest(
        args.out,
        "calibrate",
        bundle.config.to_dict(),
        bundle.config.seed,
        {"bundle": args.bundle, "data": args.data, "roles": args.roles},
        {"bundle": args.out},
        started,
        extra={"tau": threshold.tau, "superseded_tau": superseded},
    )
    print(f"tau = {threshold.tau!r} (validation unknown-F1 {threshold.calibration_stats['f1']:.4f})")
    print(f"calibrated bundle written to {args.out}")
    return 0


def cmd_eval(args) -> int:
    started = time.time()
    bundle = dataio.load_bundle(args.bundle)
    if bundle.threshold is None:
        raise CliError("bundle has no rejection threshold; run `rpmnet calibrate` first")
    roles = dataio.load_roles(args.roles)
    _, split, _ = _load_split(
        args.data, roles, bundle.feature_names, bundle.label_column, bundle.config.seed
    )
    y = _label_indices(split.known_test.labels, bundle.params.class_names)
    unknown = bundle.scaler.transform(split.test_unknown.features) if len(split.test_unknown) else None
    report = mx.evaluate(
        bundle.params,
        bundle.threshold,
        bundle.scaler.transform(split.known_test.features),
        y,
        unknown,
        bundle.params.class_names,
    )
    doc = report.to_dict()
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(
        args.report,
        "eval",
        bundle.config.to_dict(),
        bundle.config.seed,
        {"bundle": args.bundle, "data": args.data, "roles": args.roles},
        {"report": args.report},
        started,
    )
    for key in HEADLINE_KEYS:
        value = doc[key]
        print(f"{key:10s} {value:.4f}" if value is not None else f"{key:10s} n/a")
    return 0


def _write_scored_block(writer, bundle, header, rows):
    """Score one block of raw rows and write the kept ones with the three
    appended columns; returns (rows_scored, rows_dropped)."""
    features, kept_idx, dropped = dataio.extract_features(header, rows, bundle.feature_names)
    scored = osr.detect(osr.score(bundle.params, bundle.scaler.transform(features)), bundle.threshold)
    class_names = bundle.params.class_names
    predicted = [class_names[k] for k in scored.predicted.tolist()]
    scores = [repr(s) for s in scored.scores.tolist()]
    unknown = ["true" if u else "false" for u in scored.is_unknown.tolist()]
    writer.writerows(
        rows[i] + [label, score, flag] for i, label, score, flag in zip(kept_idx, predicted, scores, unknown)
    )
    return len(kept_idx), dropped


@contextlib.contextmanager
def _atomic_output(path):
    """A text file that replaces ``path`` only once the ``with`` body has
    finished; on any error it is removed and ``path`` stays as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "x", newline="", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def cmd_score(args) -> int:
    """Score ``--data`` block by block (``dataio.BLOCK_ROWS`` raw rows at a
    time), so memory does not grow with the file."""
    started = time.time()
    bundle = dataio.load_bundle(args.bundle)
    if bundle.threshold is None:
        raise CliError(
            "bundle has no rejection threshold, so unknown detection is impossible; "
            "run `rpmnet calibrate` and score with the calibrated bundle"
        )
    if os.path.abspath(args.out) == os.path.abspath(args.data):
        raise CliError("--out must differ from --data; score never rewrites its input in place")
    rows_scored = dropped = 0
    with contextlib.closing(dataio.iter_csv_blocks(args.data)) as blocks:
        header = next(blocks)
        missing = [c for c in bundle.feature_names if c not in header]
        if missing:
            extra = [c for c in header if c not in bundle.feature_names and c != bundle.label_column]
            msg = "input schema does not match the bundle; missing columns: " + ", ".join(missing)
            if extra:
                msg += "; extra columns: " + ", ".join(extra)
            raise dataio.SchemaError(msg)
        dataio.reject_duplicates(header, bundle.feature_names)
        with _atomic_output(args.out) as fh:
            writer = csv.writer(fh)
            writer.writerow(header + ["predicted_label", "score", "is_unknown"])
            for rows in blocks:
                kept, n_dropped = _write_scored_block(writer, bundle, header, rows)
                rows_scored += kept
                dropped += n_dropped
                del rows  # free this block before the reader builds the next one
    if dropped:
        log.warning("%s: dropped %d rows with missing or non-finite features", args.data, dropped)
    _write_manifest(
        args.out,
        "score",
        bundle.config.to_dict(),
        bundle.config.seed,
        {"bundle": args.bundle, "data": args.data},
        {"scored": args.out},
        started,
        extra={"rows_scored": rows_scored, "dropped_rows": dropped},
    )
    print(f"scored {rows_scored} rows ({dropped} dropped) -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpmnet",
        description="Open-set network intrusion detection with reciprocal-point models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and write an uncalibrated bundle")
    p_train.add_argument("--data", required=True, help="labelled flow CSV")
    p_train.add_argument("--roles", required=True, help="class-roles JSON config")
    p_train.add_argument("--config", help="training config JSON (flags override its keys)")
    p_train.add_argument("--out", required=True, help="output bundle path")
    p_train.add_argument("--seed", type=int, help="override the config seed")
    p_train.set_defaults(func=cmd_train)

    p_cal = sub.add_parser("calibrate", help="calibrate the rejection threshold on validation data")
    p_cal.add_argument("--bundle", required=True, help="trained bundle")
    p_cal.add_argument("--data", required=True, help="labelled flow CSV")
    p_cal.add_argument("--roles", required=True, help="class-roles JSON config")
    p_cal.add_argument("--out", required=True, help="output calibrated bundle (never in place)")
    p_cal.set_defaults(func=cmd_calibrate)

    p_eval = sub.add_parser("eval", help="evaluate a calibrated bundle and write a report")
    p_eval.add_argument("--bundle", required=True, help="calibrated bundle")
    p_eval.add_argument("--data", required=True, help="labelled flow CSV")
    p_eval.add_argument("--roles", required=True, help="class-roles JSON config")
    p_eval.add_argument("--report", required=True, help="output report JSON")
    p_eval.set_defaults(func=cmd_eval)

    p_score = sub.add_parser("score", help="score new flows with a calibrated bundle")
    p_score.add_argument("--bundle", required=True, help="calibrated bundle")
    p_score.add_argument("--data", required=True, help="input CSV matching the bundle's feature schema")
    p_score.add_argument("--out", required=True, help="output CSV (input columns + predictions)")
    p_score.set_defaults(func=cmd_score)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("RPMNET_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        CliError,
        ValueError,
        TrainingDivergedError,
        ad.NonFiniteError,
        OSError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
