"""Command-line surface: train, calibrate, eval, score.

Every command writes exactly one JSON run manifest next to its main
output (command, effective config, seed, input checksums, output paths,
wall clock), and :func:`main` commits it with the command's other
outputs as one group, the manifest last.  Outputs other than the
manifest are byte-deterministic for identical inputs and seed.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import logging
import os
import sys
import time
import types
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

HEADLINE_KEYS = ("precision", "recall", "f1_score", "auroc", "aupr_in", "aupr_out")
PARTITIONS = ("known_train", "known_test", "validation_unknown", "test_unknown")


class CliError(ValueError):
    """User-facing command error."""


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _same_file(a, b) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist (yet)
        return os.path.realpath(a) == os.path.realpath(b)


def _check_outputs(args) -> None:
    """Raise CliError, before any input is read, if the directory of
    ``--<out_flag>`` is missing or is not a directory, or if a file the
    command writes (``--<out_flag>`` alone or plus one of ``suffixes`` or
    ``.manifest.json``) is an input named by one of its ``in_flags``."""
    out = str(getattr(args, args.out_flag))
    parent = os.path.dirname(out) or os.curdir
    if not os.path.isdir(parent):
        why = "is not a directory" if os.path.exists(parent) else "does not exist"
        raise CliError(f"--{args.out_flag} {out}: directory {parent} {why}")
    for suffix in ("", *args.suffixes, ".manifest.json"):
        for flag in args.in_flags:
            path = getattr(args, flag)
            if path is not None and _same_file(out + suffix, path):
                target = f"--{args.out_flag}" + (f" + {suffix!r}" if suffix else "")
                raise CliError(f"{target} must differ from --{flag}; rpmnet never rewrites an input in place")


def _write_manifest(open_output, args, config: TrainConfig, outputs, started, extra):
    # the --config file is recorded by its effective values, under "config"
    started_utc, started_clock = started  # time.time(), and time.perf_counter(), which no clock step moves
    inputs = {flag: getattr(args, flag) for flag in args.in_flags if flag != "config"}
    manifest = {
        "command": args.command,
        "config": config.to_dict(),
        "seed": config.seed,
        "inputs": {name: {"path": str(p), "sha256": _sha256(p)} for name, p in inputs.items()},
        "outputs": {name: str(p) for name, p in outputs.items()},
        "started_utc": datetime.fromtimestamp(started_utc, tz=timezone.utc).isoformat(),
        "wall_clock_seconds": time.perf_counter() - started_clock,
        "versions": {"package": __version__, "bundle_format": dataio.BUNDLE_FORMAT},
        **extra,
    }
    dataio.write_json(f"{getattr(args, args.out_flag)}.manifest.json", manifest, open_output)


def _load_train_config(path, seed_override) -> TrainConfig:
    """The ``--config`` file's TrainConfig (the defaults without one),
    with ``--seed``'s seed if given; an error names the file or ``--seed``."""
    config = TrainConfig()
    if path:
        raw = dataio.read_json(path, CliError)
        try:
            config = TrainConfig.from_dict(raw)
        except ValueError as e:
            raise CliError(f"{path}: {e}") from None
    try:
        return config if seed_override is None else replace(config, seed=seed_override)
    except ValueError as e:
        raise CliError(f"--seed: {e}") from None


def _load_calibrated_bundle(path) -> dataio.Bundle:
    bundle = dataio.load_bundle(path)
    if bundle.threshold is None:
        raise CliError(
            f"{path}: bundle has no rejection threshold, so unknown traffic cannot be flagged; "
            "run `rpmnet calibrate` and use the bundle it writes"
        )
    return bundle


def _require_samples(found, role, args) -> None:
    """Raise CliError, before any output is written, if ``--data`` has no
    row in the partition fed by the ``role`` classes of ``--roles``."""
    if not found:
        raise CliError(
            f"no {role.replace('_', '-')} samples in {args.data}; check the {role} classes in {args.roles}"
        )


@contextlib.contextmanager
def _naming_labels(args):
    """Turn a ValueError about the classes of ``--data`` under ``--roles``
    (a class with no role, a known class with too few rows) into a
    CliError that names both files."""
    try:
        yield
    except ValueError as e:
        raise CliError(f"--data {args.data} with --roles {args.roles}: {e}") from None


def _checked_roles(blocks, bundle, roles, args):
    """Pass on each (features, labels, dropped) block of ``--data`` once
    its labels are checked, so a roles mistake stops the command before
    that block is scored.  A label with no role, or a known-role label
    that the bundle was not trained on, is a CliError listing every such
    class seen so far."""
    seen = set()
    for block in blocks:
        if not seen.issuperset(block[1]):
            seen.update(block[1])
            names = sorted(seen)
            with _naming_labels(args):
                role_of = roles.roles_of(names)
            untrained = [name for name, role in zip(names, role_of)
                         if role == dataio.ROLE_KNOWN and name not in bundle.params.class_names]
            if untrained:
                raise CliError(
                    f"--roles {args.roles} makes known classes that --bundle {args.bundle} was not trained on "
                    f"(labels not in the class vocabulary: {', '.join(map(repr, untrained))}); "
                    "give them an unknown role, or train a bundle on them"
                )
        yield block


def _score_blocks(bundle, blocks):
    """Yield (ScoredBatch, rows, dropped) for each (features, rows, dropped)
    block of a CSV; each block's features are scaled in place."""
    for features, rows, dropped in blocks:
        yield osr.score(bundle.params, bundle.scaler.transform(features, out=features)), rows, dropped


def _score_labelled(bundle, roles, args):
    """Score the labelled CSV ``--data`` block by block, never holding its
    feature matrix, and split its kept rows.  Returns each kept row's
    label, score, argmax and ``make_split`` code, and the manifest's drop
    count and partition sizes.  Each block's labels are checked against
    ``--roles`` and the bundle before it is scored (:func:`_checked_roles`)."""
    blocks = dataio.iter_labelled_blocks(args.data, bundle.feature_names, bundle.label_column)
    with contextlib.closing(blocks):
        next(blocks)  # the feature names, which are the bundle's
        scored, labels, dropped = zip(*_score_blocks(bundle, _checked_roles(blocks, bundle, roles, args)))
    labels = [label for block in labels for label in block]
    with _naming_labels(args):
        part = dataio.make_split(labels, roles, seed=bundle.config.seed)
    sizes = np.bincount(part, minlength=4).tolist()
    extra = {"dropped_rows": sum(dropped), "partition_rows": dict(zip(PARTITIONS, sizes))}
    scores = np.concatenate([s.scores for s in scored])
    return labels, scores, np.concatenate([s.predicted for s in scored]), part, extra


# ---------------------------------------------------------------------------
# commands: each writes its outputs through ``open_output``, the opener of
# the group :func:`main` commits, and returns the config, the outputs and
# the extra keys for the manifest, and the summary to print after the commit


def cmd_train(args, open_output):
    config = _load_train_config(args.config, args.seed)
    roles = dataio.load_roles(args.roles)
    dataset, dropped = dataio.load_csv(args.data, roles.feature_names, roles.label_column)
    with _naming_labels(args):
        keep = np.flatnonzero(dataio.make_split(dataset.labels, roles, seed=config.seed) == 0)
    _require_samples(keep.size, dataio.ROLE_KNOWN, args)
    features, labels, feature_names = dataset.features, [dataset.labels[i] for i in keep], dataset.feature_names
    del dataset  # only the known-train rows reach training
    # move them to the front in place, a block of rows at a time: keep is
    # ascending, so no block overwrites a row a later one reads, and no
    # second matrix exists
    for start in range(0, keep.size, dataio.BLOCK_ROWS):
        rows = keep[start : start + dataio.BLOCK_ROWS]
        features[start : start + rows.size] = features[rows]
    features.resize((keep.size, features.shape[1]), refcheck=False)
    scaler = dataio.fit_scaler(features)
    params, history = train(scaler.transform(features, out=features), labels, config, tuple(sorted(roles.known)))
    bundle = dataio.Bundle(
        params=params,
        scaler=scaler,
        config=config,
        feature_names=feature_names,
        label_column=roles.label_column,
        threshold=None,
    )
    dataio.save_bundle(args.out, bundle, open_output)
    history_path = str(args.out) + ".history.txt"
    with open_output(history_path) as fh:
        fh.write(format_history(history))
    final = history[-1].accuracy if history else float("nan")
    summary = (f"trained {len(labels)} samples, {config.epochs} epochs, final train acc {final:.4f}\n"
               f"bundle written to {args.out}")
    outputs = {"bundle": args.out, "history": history_path}
    return config, outputs, {"dropped_rows": dropped, "train_samples": len(labels)}, summary


def cmd_calibrate(args, open_output):
    bundle = dataio.load_bundle(args.bundle)
    roles = dataio.load_roles(args.roles)
    _, scores, _, part, extra = _score_labelled(bundle, roles, args)
    _require_samples((part == 0).any(), dataio.ROLE_KNOWN, args)
    _require_samples((part == 2).any(), dataio.ROLE_VALIDATION_UNKNOWN, args)
    threshold = osr.calibrate(scores[part == 0], scores[part == 2])
    superseded = bundle.threshold.tau if bundle.threshold is not None else None
    dataio.save_bundle(args.out, replace(bundle, threshold=threshold), open_output)
    summary = (f"tau = {threshold.tau!r} (validation unknown-F1 {threshold.calibration_stats['f1']:.4f})\n"
               f"calibrated bundle written to {args.out}")
    return bundle.config, {"bundle": args.out}, {"tau": threshold.tau, "superseded_tau": superseded, **extra}, summary


def cmd_eval(args, open_output):
    bundle = _load_calibrated_bundle(args.bundle)
    roles = dataio.load_roles(args.roles)
    labels, scores, predicted, part, extra = _score_labelled(bundle, roles, args)
    known = part == 1
    _require_samples(known.any(), dataio.ROLE_KNOWN, args)
    y = dataio.encode_labels([labels[i] for i in np.flatnonzero(known)], bundle.params.class_names)
    report = mx.evaluate(
        bundle.params.class_names, bundle.threshold, scores[known], predicted[known], y, scores[part == 3]
    )
    doc = report.to_dict()
    dataio.write_json(args.report, doc, open_output)
    summary = "\n".join(f"{key:10s} {doc[key]:.4f}" if doc[key] is not None else f"{key:10s} n/a"
                        for key in HEADLINE_KEYS)
    return bundle.config, {"report": args.report}, extra, summary


_LINE_WRITER = csv.writer(types.SimpleNamespace(write=str))  # writerow returns what write returns


def _csv_line(cells) -> str:
    """The line ``csv.writer`` writes for ``cells``, less its ``\\r\\n``
    terminator (which also makes it quote a cell holding a line break)."""
    return _LINE_WRITER.writerow(cells)[:-2]


def _write_scored_rows(fh, rows, scored, class_cells) -> None:
    """Write each kept row of a block, with the three columns its
    ``scored`` entry appends, as one line of ``csv.writer``'s bytes.  A
    row is a line numpy parsed, which holds no cell that needs quoting,
    or a list of cells, written by :func:`_csv_line`; ``class_cells``
    holds each class name quoted as needed, and a score's ``repr`` and
    ``true``/``false`` need none.  ``writerow`` quotes each cell alone, so
    the joined line is ``writerow(row + appended)``'s, except for a row of
    one empty cell (``""``); a kept row is never one: its features parsed.
    The block's lines go out in one ``fh.write``."""
    lines = (row.rstrip("\r\n") if isinstance(row, str) else _csv_line(row) for row in rows)
    fh.write("".join(
        f"{line},{class_cells[k]},{score!r},{'true' if unknown else 'false'}\r\n"
        for line, k, score, unknown in zip(
            lines, scored.predicted.tolist(), scored.scores.tolist(), scored.is_unknown.tolist()
        )
    ))


def cmd_score(args, open_output):
    """Score ``--data`` block by block (``dataio.BLOCK_ROWS`` records at a
    time), so memory does not grow with the file."""
    bundle = _load_calibrated_bundle(args.bundle)
    rows_scored = dropped = 0
    class_cells = [_csv_line(["", name])[1:] for name in bundle.params.class_names]
    with contextlib.closing(dataio.iter_feature_blocks(args.data, bundle.feature_names)) as blocks:
        header, _ = next(blocks)  # checked before --out is created, so a file with no rows is checked too
        with open_output(args.out) as fh:
            fh.write(_csv_line(header + ["predicted_label", "score", "is_unknown"]) + "\r\n")
            for scored, rows, n_dropped in _score_blocks(bundle, blocks):
                _write_scored_rows(fh, rows, osr.detect(scored, bundle.threshold), class_cells)
                rows_scored += len(rows)
                dropped += n_dropped
    extra = {"rows_scored": rows_scored, "dropped_rows": dropped}
    return bundle.config, {"scored": args.out}, extra, f"scored {rows_scored} rows ({dropped} dropped) -> {args.out}"


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
    p_train.add_argument("--config", help="training config JSON (--seed overrides its seed)")
    p_train.add_argument("--out", required=True, help="output bundle path")
    p_train.add_argument("--seed", type=int, help="override the config seed")
    p_train.set_defaults(func=cmd_train, out_flag="out", in_flags=("data", "roles", "config"),
                         suffixes=(".history.txt",))

    p_cal = sub.add_parser("calibrate", help="calibrate the rejection threshold on validation data")
    p_cal.add_argument("--bundle", required=True, help="trained bundle")
    p_cal.add_argument("--data", required=True, help="labelled flow CSV")
    p_cal.add_argument("--roles", required=True, help="class-roles JSON config")
    p_cal.add_argument("--out", required=True, help="output calibrated bundle (never in place)")
    p_cal.set_defaults(func=cmd_calibrate, out_flag="out", in_flags=("bundle", "data", "roles"), suffixes=())

    p_eval = sub.add_parser("eval", help="evaluate a calibrated bundle and write a report")
    p_eval.add_argument("--bundle", required=True, help="calibrated bundle")
    p_eval.add_argument("--data", required=True, help="labelled flow CSV")
    p_eval.add_argument("--roles", required=True, help="class-roles JSON config")
    p_eval.add_argument("--report", required=True, help="output report JSON")
    p_eval.set_defaults(func=cmd_eval, out_flag="report", in_flags=("bundle", "data", "roles"), suffixes=())

    p_score = sub.add_parser("score", help="score new flows with a calibrated bundle")
    p_score.add_argument("--bundle", required=True, help="calibrated bundle")
    p_score.add_argument("--data", required=True, help="input CSV matching the bundle's feature schema")
    p_score.add_argument("--out", required=True, help="output CSV (input columns + predictions)")
    p_score.set_defaults(func=cmd_score, out_flag="out", in_flags=("bundle", "data"), suffixes=())
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        level = os.environ.get("RPMNET_LOG") or "warning"
        if level.lower() not in ("debug", "info", "warning", "error", "critical"):
            raise CliError(f"RPMNET_LOG={level!r} is not a log level; use debug, info, warning, error or critical")
        logging.basicConfig(level=level.upper())
        started = time.time(), time.perf_counter()
        _check_outputs(args)
        with dataio.atomic_outputs() as open_output:
            config, outputs, extra, summary = args.func(args, open_output)
            _write_manifest(open_output, args, config, outputs, started, extra)
        print(summary)
        return 0
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
