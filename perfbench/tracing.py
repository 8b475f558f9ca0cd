"""Span tracing of rpmnet's modules, installed from outside the package.

Each wrapper replaces a function at the attribute its caller looks it up
through (``cli.train`` because ``cli`` imports it by name, ``ad.matmul``
because every caller goes through the ``autodiff`` module, and so on),
records one span per call and restores the original on ``uninstall``.
Spans stay in memory until the run writes them out.

A span's self time is its duration minus the time its child spans
cover; calls run on one thread, so children never overlap.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
from time import perf_counter


class Span:
    __slots__ = ("id", "name", "parent", "run_id", "start", "end", "attrs")

    def __init__(self, id, name, parent, run_id):
        self.id, self.name, self.parent, self.run_id = id, name, parent, run_id
        self.start = self.end = 0.0
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "parent": self.parent, "run_id": self.run_id,
            "start": self.start, "end": self.end, "attrs": self.attrs,
        }


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._installed: list = []

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Trace ``owner.attr`` as span ``name``; ``note(args, kwargs,
        result)`` returns attributes to attach to the span."""
        fn = getattr(owner, attr)
        spans, stack, run_id = self.spans, self._stack, self.run_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), name, stack[-1].id if stack else None, run_id)
            spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if note is not None:
                span.attrs = note(args, kwargs, out)
            return out

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, fn))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, fn = self._installed.pop()
            setattr(owner, attr, fn)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s.to_dict() for s in self.spans], fh)


def install_rpmnet(tracer: Tracer) -> None:
    """Wrap the public functions of every hot-path module of rpmnet."""
    # by module path: the package namespace rebinds ``train`` and others to functions
    ad, cli, dataio, losses, metrics, mdl, openset, train = (
        importlib.import_module(f"rpmnet.{m}")
        for m in ("autodiff", "cli", "dataio", "losses", "metrics", "model", "openset", "train")
    )

    for command in ("train", "calibrate", "eval", "score"):
        tracer.wrap(cli, f"cmd_{command}", f"cli.cmd_{command}")
    tracer.wrap(cli, "train", "train.train")
    tracer.wrap(train, "adam_step", "train.adam_step")

    tracer.wrap(dataio, "read_csv_rows", "dataio.read_csv_rows",
                lambda a, k, out: {"path": str(a[0]), "bytes": os.path.getsize(a[0]), "rows": len(out[1])})
    tracer.wrap(dataio, "extract_features", "dataio.extract_features",
                lambda a, k, out: {"rows": len(a[1]), "kept": len(out[1]), "dropped": int(out[2])})
    for fn in ("load_csv", "make_split", "fit_scaler", "save_bundle", "load_bundle", "load_roles"):
        tracer.wrap(dataio, fn, f"dataio.{fn}")
    tracer.wrap(dataio.Scaler, "transform", "dataio.Scaler.transform")

    for fn in ("total_loss", "ce_graph", "margin_graph", "fisher_graph"):
        tracer.wrap(losses, fn, f"losses.{fn}")

    for fn in ad.__all__:
        obj = getattr(ad, fn)
        if callable(obj) and not isinstance(obj, type) and fn not in ("parameter", "constant", "backward"):
            tracer.wrap(ad, fn, f"autodiff.{fn}")

    tracer.wrap(mdl, "class_distances", "model.class_distances",
                lambda a, k, out: {"rows": int(out.shape[0])})
    tracer.wrap(mdl, "embed_graph", "model.embed_graph")
    tracer.wrap(mdl, "distance_graph", "model.distance_graph")

    tracer.wrap(openset, "score", "openset.score", lambda a, k, out: {"rows": len(out)})
    tracer.wrap(openset, "calibrate", "openset.calibrate",
                lambda a, k, out: {"candidates": int(out.calibration_stats["candidates"])})

    for fn in ("evaluate", "auroc", "aupr", "macro_prf"):
        tracer.wrap(metrics, fn, f"metrics.{fn}")


# ---------------------------------------------------------------------------
# per-layer metrics from the spans


PER_LAYER_UNITS = {
    "dataio.read_csv_rows.self_s": "s",
    "dataio.read_csv_rows.mb_per_s": "MB/s",
    "dataio.extract_features.self_s": "s",
    "dataio.extract_features.rows_per_s": "rows/s",
    "dataio.extract_features.dropped_rows": "count",
    "dataio.extract_features.kept_ratio": "ratio",
    "dataio.load_csv.peak_alloc_mb": "MB",
    "dataio.make_split.self_s": "s",
    "dataio.Scaler.transform.self_s": "s",
    "dataio.save_bundle.self_s": "s",
    "dataio.load_bundle.self_s": "s",
    "train.train.self_s": "s",
    "train.steps": "count",
    "train.step_ms": "ms",
    "train.adam_step.self_s": "s",
    "train.epoch_eval_s": "s",
    "losses.total_loss.self_s": "s",
    "losses.ce_graph.s": "s",
    "losses.margin_graph.s": "s",
    "losses.fisher_graph.s": "s",
    "autodiff.gradient.s": "s",
    "autodiff.ops_per_step": "count",
    "autodiff.matmul.s": "s",
    "model.embed_graph.train_s": "s",
    "model.embed_graph.infer_s": "s",
    "model.distance_graph.train_s": "s",
    "model.distance_graph.infer_s": "s",
    "model.class_distances.rows_per_s": "rows/s",
    "openset.score.s": "s",
    "openset.score.rows_per_s": "rows/s",
    "openset.calibrate.s": "s",
    "openset.calibrate.candidates": "count",
    "metrics.evaluate.self_s": "s",
    "metrics.auroc.s": "s",
    "metrics.aupr.s": "s",
    "metrics.macro_prf.s": "s",
    "cli.commands.self_s": "s",
    "cli.startup_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(num, denom) -> float:
    return num / denom if denom > 0 else 0.0


def layer_metrics(spans) -> dict:
    """Every span-derived per-layer metric, summed over the traced commands."""
    by_id = {s.id: s for s in spans}
    child_time: dict = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.duration for s in named(name))

    def self_time(name):
        return sum(s.duration - child_time.get(s.id, 0.0) for s in named(name))

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in named(name))

    def under(span, ancestor):
        p = span.parent
        while p is not None:
            node = by_id[p]
            if node.name == ancestor:
                return True
            p = node.parent
        return False

    def split_train_infer(name):
        train_s = sum(s.duration for s in named(name) if under(s, "losses.total_loss"))
        return train_s, total(name) - train_s

    steps = len(named("train.adam_step"))
    ops_in_steps = sum(
        1 for s in spans if s.name.startswith("autodiff.") and s.name != "autodiff.gradient"
        and under(s, "losses.total_loss")
    )
    epoch_eval = sum(
        s.duration for s in named("model.class_distances")
        if s.parent is not None and by_id[s.parent].name == "train.train"
    )
    embed_train, embed_infer = split_train_infer("model.embed_graph")
    dist_train, dist_infer = split_train_infer("model.distance_graph")
    ef_rows = attr_sum("dataio.extract_features", "rows")

    out = {
        "dataio.read_csv_rows.self_s": self_time("dataio.read_csv_rows"),
        "dataio.read_csv_rows.mb_per_s": _ratio(attr_sum("dataio.read_csv_rows", "bytes") / 1e6,
                                                total("dataio.read_csv_rows")),
        "dataio.extract_features.self_s": self_time("dataio.extract_features"),
        "dataio.extract_features.rows_per_s": _ratio(ef_rows, total("dataio.extract_features")),
        "dataio.extract_features.dropped_rows": attr_sum("dataio.extract_features", "dropped"),
        "dataio.extract_features.kept_ratio": _ratio(attr_sum("dataio.extract_features", "kept"), ef_rows),
        "dataio.make_split.self_s": self_time("dataio.make_split"),
        "dataio.Scaler.transform.self_s": self_time("dataio.Scaler.transform"),
        "dataio.save_bundle.self_s": self_time("dataio.save_bundle"),
        "dataio.load_bundle.self_s": self_time("dataio.load_bundle"),
        "train.train.self_s": self_time("train.train"),
        "train.steps": steps,
        "train.step_ms": 1e3 * _ratio(total("train.train") - epoch_eval, steps),
        "train.adam_step.self_s": self_time("train.adam_step"),
        "train.epoch_eval_s": epoch_eval,
        "losses.total_loss.self_s": self_time("losses.total_loss"),
        "losses.ce_graph.s": total("losses.ce_graph"),
        "losses.margin_graph.s": total("losses.margin_graph"),
        "losses.fisher_graph.s": total("losses.fisher_graph"),
        "autodiff.gradient.s": total("autodiff.gradient"),
        "autodiff.ops_per_step": _ratio(ops_in_steps, steps),
        "autodiff.matmul.s": total("autodiff.matmul"),
        "model.embed_graph.train_s": embed_train,
        "model.embed_graph.infer_s": embed_infer,
        "model.distance_graph.train_s": dist_train,
        "model.distance_graph.infer_s": dist_infer,
        "model.class_distances.rows_per_s": _ratio(attr_sum("model.class_distances", "rows"),
                                                   total("model.class_distances")),
        "openset.score.s": total("openset.score"),
        "openset.score.rows_per_s": _ratio(attr_sum("openset.score", "rows"), total("openset.score")),
        "openset.calibrate.s": total("openset.calibrate"),
        "openset.calibrate.candidates": attr_sum("openset.calibrate", "candidates"),
        "metrics.evaluate.self_s": self_time("metrics.evaluate"),
        "metrics.auroc.s": total("metrics.auroc"),
        "metrics.aupr.s": total("metrics.aupr"),
        "metrics.macro_prf.s": total("metrics.macro_prf"),
    }
    out["cli.commands.self_s"] = sum(self_time(f"cli.cmd_{c}") for c in ("train", "calibrate", "eval", "score"))
    return out
