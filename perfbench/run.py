"""rpmnet benchmark: drives the ``rpmnet`` CLI the way an operator does.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload score_clean --seed 1 --seconds 25 --trace 0

Every ``rpmnet`` command runs as its own child process (``python -m
rpmnet.cli`` on the checkout's ``src``), one at a time, with at most
``nproc`` BLAS threads.  With ``--trace 0`` the last stdout line holds
the end-to-end metrics; with ``--trace 1`` the same run is followed by
one in-process, traced pass over the workload's commands, and the last
line holds the per-layer metrics.  See ``perfbench/README.md``.
"""
from __future__ import annotations

import os
import sys

NPROC = len(os.sched_getaffinity(0))
# One BLAS thread per process (at most nproc).  At these matrix sizes a
# second thread on a 2-vCPU machine left the median train wall unchanged,
# cost 1.7x the CPU time and widened the run-to-run spread.
BLAS_THREADS = 1
THREAD_ENV = {v: str(BLAS_THREADS) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
# before numpy is imported, so the traced in-process pass uses the children's thread count
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import datagen  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Workload sizes.  TRAIN_ROWS and TRAIN_CONFIG give the small clean
# training file (the default architecture and batch size, fewer epochs);
# every workload trains on it, in the loop or in set-up.
TRAIN_ROWS = 4000
TRAIN_CONFIG = {"epochs": 8}
SCORE_ROWS = 20000
DIRTY_ROWS = 12000
DIRT_EVERY = 250  # one dirty row per 250, about 33 in every 8k-row block
QUALITY_ROWS = 12000
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0  # a cheap set-up repeats until this much set-up time is measured
SETUP_MAX_REPEATS = 10
MIN_ITERATIONS = 3
CHILD_TIMEOUT_S = 150.0
SPLIT_RATIO = 0.8  # the CLI's known-class train share

WORKLOADS = ("train_cicids", "score_clean", "eval_dirty")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "train_samples_per_s": "samples/s",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "train_acc": "ratio",
    "auroc": "ratio",
    "aupr_out": "ratio",
    "macro_f1": "ratio",
}


class Bench:
    """Runs the CLI children of one benchmark run and keeps its tally."""

    def __init__(self, work: Path):
        self.work = work
        self.attempted = 0
        self.failures: list[str] = []
        self.env = dict(os.environ, **THREAD_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.env.pop("RPMNET_LOG", None)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def rpmnet(self, *args) -> dict:
        """Run one ``rpmnet`` command; return its wall time, peak RSS and
        exit status."""
        self.attempted += 1
        log_path = self.work / f"cmd{self.attempted:03d}.log"
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            child = subprocess.Popen(
                [sys.executable, "-m", "rpmnet.cli", *map(str, args)],
                stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=self.work,
            )
            timer = threading.Timer(CHILD_TIMEOUT_S, child.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        self.check(child.returncode == 0, f"rpmnet {args[0]} exited {child.returncode}, see {log_path}")
        return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0, "rc": child.returncode}


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def manifest_wall(out_path) -> float:
    return float(read_json(str(out_path) + ".manifest.json")["wall_clock_seconds"])


def final_accuracy(history_path):
    """Final-epoch accuracy and epoch count of a history file."""
    with open(history_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return float(lines[-1].split("\t")[-1]), len(lines) - 1


def expected_split(clean_per_class: dict) -> dict:
    """Partition sizes the CLI's open-set split must produce."""
    known_train = known_test = 0
    for c in datagen.KNOWN:
        n = clean_per_class[c]
        n_train = min(max(int(round(SPLIT_RATIO * n)), 1), n - 1)
        known_train += n_train
        known_test += n - n_train
    return {
        "known_train": known_train,
        "known_test": known_test,
        "test_unknown": sum(clean_per_class[c] for c in datagen.TEST_UNKNOWN),
    }


# ---------------------------------------------------------------------------
# set-up


def write_inputs(d: Path, seed: int, workload: str) -> dict:
    """Generate the workload's input files into ``d``."""
    datagen.write_roles(d / "roles.json")
    with open(d / "train_config.json", "w", encoding="utf-8") as fh:
        json.dump(TRAIN_CONFIG, fh)
    files = {"train": datagen.write_csv(d / "train.csv", *datagen.generate(seed, TRAIN_ROWS))}
    if workload == "score_clean":
        files["score"] = datagen.write_csv(d / "score.csv", *datagen.generate(seed, SCORE_ROWS))
    elif workload == "eval_dirty":
        x, labels = datagen.generate(seed, DIRTY_ROWS)
        files["dirty"] = datagen.write_csv(d / "dirty.csv", x, labels, dirt_every=DIRT_EVERY, seed=seed)
    return files


def check_train(bench: Bench, bundle: Path, train_info: dict) -> dict:
    """Checks on one ``rpmnet train`` output; returns its facts."""
    manifest = read_json(str(bundle) + ".manifest.json")
    expected = expected_split(train_info["clean_per_class"])
    bench.check(manifest.get("dropped_rows") == 0, f"train dropped {manifest.get('dropped_rows')} rows, expected 0")
    bench.check(manifest.get("train_samples") == expected["known_train"],
                f"train used {manifest.get('train_samples')} samples, expected {expected['known_train']}")
    history = str(bundle) + ".history.txt"
    acc, epochs = final_accuracy(history)
    bench.check(epochs == TRAIN_CONFIG["epochs"], f"history has {epochs} epochs, expected {TRAIN_CONFIG['epochs']}")
    bench.check(math.isfinite(acc) and 0.0 < acc <= 1.0, f"final train accuracy {acc} out of range")
    return {
        "train_acc": acc,
        "samples": TRAIN_CONFIG["epochs"] * manifest.get("train_samples", 0),
        "outputs": {"bundle": sha256(bundle), "history": sha256(history)},
    }


def setup_once(bench: Bench, d: Path, seed: int, workload: str) -> dict:
    """One full set-up: inputs, plus the bundle the workload starts from."""
    d.mkdir(parents=True)
    start = time.perf_counter()
    files = write_inputs(d, seed, workload)
    state = {"dir": d, "files": files, "train_runs": []}
    if workload != "train_cicids":
        bundle = d / "model.bundle"
        child = bench.rpmnet("train", "--data", d / "train.csv", "--roles", d / "roles.json",
                             "--config", d / "train_config.json", "--out", bundle)
        if child["rc"] == 0:
            state["train_runs"].append(dict(check_train(bench, bundle, files["train"]), **child))
        if workload == "score_clean":
            bench.rpmnet("calibrate", "--bundle", bundle, "--data", d / "train.csv",
                         "--roles", d / "roles.json", "--out", d / "cal.bundle")
    state["setup_s"] = time.perf_counter() - start
    state["digests"] = {p.name: sha256(p) for p in sorted(d.iterdir()) if p.suffix in (".csv", ".bundle")}
    return state


def setup(bench: Bench, seed: int, workload: str) -> dict:
    """Set up several times; keep the first, check the rest match."""
    runs = []
    while len(runs) < SETUP_MIN_REPEATS or (
        sum(r["setup_s"] for r in runs) < SETUP_MIN_SECONDS and len(runs) < SETUP_MAX_REPEATS
    ):
        runs.append(setup_once(bench, bench.work / f"setup{len(runs)}", seed, workload))
    for other in runs[1:]:
        bench.check(other["digests"] == runs[0]["digests"], "set-up is not byte-deterministic")
        shutil.rmtree(other["dir"])
    state = runs[0]
    state["setup_times"] = [r["setup_s"] for r in runs]
    state["train_runs"] = [t for r in runs for t in r["train_runs"]]
    return state


# ---------------------------------------------------------------------------
# the measured commands of each workload


def iterate_train(bench: Bench, state: dict, out: Path) -> dict:
    d = state["dir"]
    bundle = out / "model.bundle"
    child = bench.rpmnet("train", "--data", d / "train.csv", "--roles", d / "roles.json",
                         "--config", d / "train_config.json", "--out", bundle)
    it = {"children": [child], "rows": state["files"]["train"]["rows"], "manifests": [bundle]}
    if child["rc"] == 0:
        facts = check_train(bench, bundle, state["files"]["train"])
        it["outputs"] = facts["outputs"]
        it["train"] = dict(facts, **child)
    return it


def check_scored(bench: Bench, scored: Path, score_info: dict, header_width: int) -> None:
    with open(scored, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        lines = fh.read().splitlines()
    bench.check(header[-3:] == ["predicted_label", "score", "is_unknown"] and len(header) == header_width + 3,
                f"scored CSV header ends {header[-3:]}, width {len(header)}")
    bench.check(len(lines) == score_info["rows"], f"scored CSV has {len(lines)} rows, expected {score_info['rows']}")
    bad = sum(1 for line in lines if line.count(",") != header_width + 2)
    bench.check(bad == 0, f"{bad} scored rows lack the three appended columns")


def iterate_score(bench: Bench, state: dict, out: Path) -> dict:
    d = state["dir"]
    scored = out / "scored.csv"
    child = bench.rpmnet("score", "--bundle", d / "cal.bundle", "--data", d / "score.csv", "--out", scored)
    it = {"children": [child], "rows": state["files"]["score"]["rows"], "manifests": [scored]}
    if child["rc"] == 0:
        manifest = read_json(str(scored) + ".manifest.json")
        bench.check(manifest.get("dropped_rows") == 0, f"score dropped {manifest.get('dropped_rows')} rows, expected 0")
        check_scored(bench, scored, state["files"]["score"], datagen.N_FEATURES + 1)
        it["outputs"] = {"scored": sha256(scored)}
    return it


def check_report(bench: Bench, report_path: Path, data_info: dict) -> dict:
    report = read_json(report_path)
    expected = expected_split(data_info["clean_per_class"])
    counts = report.get("counts", {})
    bench.check(counts.get("unknown_test") == expected["test_unknown"],
                f"report counts {counts.get('unknown_test')} test-unknown rows, expected {expected['test_unknown']}")
    bench.check(counts.get("known_test") == expected["known_test"],
                f"report counts {counts.get('known_test')} known-test rows, expected {expected['known_test']}")
    for key in ("precision", "recall", "f1_score", "auroc", "aupr_in", "aupr_out"):
        value = report.get(key)
        bench.check(isinstance(value, float) and math.isfinite(value), f"report {key} = {value!r} is not finite")
    return {"auroc": report.get("auroc"), "aupr_out": report.get("aupr_out"), "macro_f1": report.get("f1_score")}


def calibrate_eval(bench: Bench, state: dict, bundle: Path, data: str, out: Path) -> dict:
    d = state["dir"]
    cal, report = out / "cal.bundle", out / "report.json"
    children = [bench.rpmnet("calibrate", "--bundle", bundle, "--data", d / f"{data}.csv",
                             "--roles", d / "roles.json", "--out", cal)]
    if children[0]["rc"] == 0:
        children.append(bench.rpmnet("eval", "--bundle", cal, "--data", d / f"{data}.csv",
                                     "--roles", d / "roles.json", "--report", report))
    it = {"children": children, "rows": state["files"][data]["rows"], "manifests": [cal, report]}
    if all(c["rc"] == 0 for c in children) and len(children) == 2:
        it["quality"] = check_report(bench, report, state["files"][data])
        it["outputs"] = {"cal.bundle": sha256(cal), "report": sha256(report)}
    return it


def iterate_eval(bench: Bench, state: dict, out: Path) -> dict:
    return calibrate_eval(bench, state, state["dir"] / "model.bundle", "dirty", out)


ITERATE = {"train_cicids": iterate_train, "score_clean": iterate_score, "eval_dirty": iterate_eval}


def measure(bench: Bench, state: dict, workload: str, seconds: float) -> list:
    """Repeat the workload's commands for about ``seconds``; an iteration
    starts only when the median iteration so far still fits."""
    iterations = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(iterations) >= MIN_ITERATIONS:
            typical = statistics.median(sum(c["wall_s"] for c in it["children"]) for it in iterations)
            if elapsed + typical > seconds:
                break
        out = bench.work / "iter"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        it = ITERATE[workload](bench, state, out)
        ok = "outputs" in it and all(c["rc"] == 0 for c in it["children"])
        if ok:
            it["startup_s"] = [c["wall_s"] - manifest_wall(m) for c, m in zip(it["children"], it["manifests"])]
            it["manifest_wall_s"] = sum(manifest_wall(m) for m in it["manifests"])
        iterations.append(it)
        if not ok:
            break
    digests = [it.get("outputs") for it in iterations]
    bench.check(all(x == digests[0] for x in digests), "outputs differ between iterations")
    return iterations


def quality_after_training(bench: Bench, state: dict, workload: str, seed: int, iterations: list) -> dict:
    """Detection quality of the workload's model: from the measured eval
    (eval_dirty), or from an untimed eval on the labelled score file
    (score_clean) or calibrate + eval on a fresh clean file (train_cicids).
    Test partitions of 12k+ rows keep the seed-to-seed spread small."""
    if workload == "eval_dirty":
        return iterations[0].get("quality")
    out = bench.work / "quality"
    out.mkdir()
    d = state["dir"]
    if workload == "train_cicids":
        x, labels = datagen.generate(seed, QUALITY_ROWS)
        state["files"]["quality"] = datagen.write_csv(d / "quality.csv", x, labels)
        it = calibrate_eval(bench, state, bench.work / "iter" / "model.bundle", "quality", out)
        return it.get("quality")
    report = out / "report.json"
    child = bench.rpmnet("eval", "--bundle", d / "cal.bundle", "--data", d / "score.csv",
                         "--roles", d / "roles.json", "--report", report)
    return check_report(bench, report, state["files"]["score"]) if child["rc"] == 0 else None


def end_to_end(state: dict, workload: str, iterations: list, quality: dict) -> dict:
    walls = [sum(c["wall_s"] for c in it["children"]) for it in iterations]
    trains = [it["train"] for it in iterations] if workload == "train_cicids" else state["train_runs"]
    values = {
        "setup_s": statistics.median(state["setup_times"]),
        "wall_s": statistics.median(walls),
        "train_samples_per_s": statistics.median(t["samples"] / t["wall_s"] for t in trains),
        "rows_per_s": statistics.median(it["rows"] / w for it, w in zip(iterations, walls)),
        "peak_rss_mb": statistics.median(max(c["rss_mb"] for c in it["children"]) for it in iterations),
        "train_acc": trains[0]["train_acc"],
        "auroc": quality["auroc"],
        "aupr_out": quality["aupr_out"],
        "macro_f1": quality["macro_f1"],
    }
    return values


# ---------------------------------------------------------------------------
# the traced pass


def traced_commands(state: dict, workload: str, out: Path) -> list:
    """(argv, measured) for every rpmnet command of one set-up, one
    iteration and the quality eval, in run order, writing into ``out``."""
    d = state["dir"]
    train = ["train", "--data", d / "train.csv", "--roles", d / "roles.json",
             "--config", d / "train_config.json", "--out", out / "model.bundle"]

    def calibrate(bundle, data, cal):
        return ["calibrate", "--bundle", bundle, "--data", d / data, "--roles", d / "roles.json", "--out", cal]

    def evaluate(bundle, data):
        return ["eval", "--bundle", bundle, "--data", d / data, "--roles", d / "roles.json",
                "--report", out / "report.json"]

    if workload == "train_cicids":
        return [(train, True),
                (calibrate(out / "model.bundle", "quality.csv", out / "cal.bundle"), False),
                (evaluate(out / "cal.bundle", "quality.csv"), False)]
    if workload == "score_clean":
        return [(train, False),
                (calibrate(out / "model.bundle", "train.csv", out / "setup_cal.bundle"), False),
                (["score", "--bundle", d / "cal.bundle", "--data", d / "score.csv", "--out", out / "scored.csv"], True),
                (evaluate(d / "cal.bundle", "score.csv"), False)]
    return [(train, False),
            (calibrate(d / "model.bundle", "dirty.csv", out / "cal.bundle"), True),
            (evaluate(out / "cal.bundle", "dirty.csv"), True)]


def traced_pass(bench: Bench, state: dict, workload: str, iterations: list, seed: int) -> dict:
    """Run the workload's commands in-process under the span tracer: the
    set-up and quality-eval commands too, so every layer is measured."""
    sys.path.insert(0, str(SRC))
    from rpmnet import cli, dataio

    d, out = state["dir"], bench.work / "traced"
    out.mkdir()
    tracer = tracing.Tracer(run_id=f"{workload}-seed{seed}")
    measured_roots = []
    tracing.install_rpmnet(tracer)
    try:
        with open(out / "stdout.log", "w", encoding="utf-8") as log, contextlib.redirect_stdout(log):
            for argv, measured in traced_commands(state, workload, out):
                bench.attempted += 1
                first = len(tracer.spans)
                rc = cli.main([str(a) for a in argv])
                bench.check(rc == 0, f"traced rpmnet {argv[0]} returned {rc}")
                if measured:
                    measured_roots += [s for s in tracer.spans[first:] if s.parent is None]
    finally:
        tracer.uninstall()
    tracer.write(bench.work / "spans.json")

    outputs = {
        "train_cicids": {"bundle": out / "model.bundle", "history": out / "model.bundle.history.txt"},
        "score_clean": {"scored": out / "scored.csv"},
        "eval_dirty": {"cal.bundle": out / "cal.bundle", "report": out / "report.json"},
    }[workload]
    traced_digests = {k: sha256(p) if p.exists() else None for k, p in outputs.items()}
    bench.check(traced_digests == iterations[0].get("outputs"), "traced outputs differ from untraced outputs")

    injected = state["files"]["dirty"]["dirty_rows"] if workload == "eval_dirty" else 0
    source = None
    for s in tracer.spans:
        if s.name == "dataio.read_csv_rows":
            source = s.attrs["path"]
        elif s.name == "dataio.extract_features":
            expected = injected if source == str(d / "dirty.csv") else 0
            bench.check(s.attrs["dropped"] == expected,
                        f"extract_features dropped {s.attrs['dropped']} rows of {source}, expected {expected}")

    metrics = tracing.layer_metrics(tracer.spans)
    main_input = {"train_cicids": "train.csv", "score_clean": "score.csv", "eval_dirty": "dirty.csv"}[workload]
    tracemalloc.start()
    try:
        dataio.load_csv(d / main_input, label_column=datagen.LABEL)
        metrics["dataio.load_csv.peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()

    traced_wall = sum(s.duration for s in measured_roots)
    metrics["cli.startup_s"] = statistics.median(x for it in iterations for x in it["startup_s"])
    metrics["trace.overhead_s"] = traced_wall - statistics.median(it["manifest_wall_s"] for it in iterations)
    return metrics


# ---------------------------------------------------------------------------


def machine_info() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": THREAD_ENV,
        "loadavg_start": os.getloadavg(),
    }


def result_line(bench: Bench, values: dict, units: dict) -> str:
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values}
    return json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": metrics,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rpmnet" / "cli.py").is_file():
        print(f"error: no rpmnet sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(work)
    machine = machine_info()

    state = setup(bench, args.seed, args.workload)
    iterations = measure(bench, state, args.workload, args.seconds)
    values, layer = {}, {}
    if not bench.failures:
        quality = quality_after_training(bench, state, args.workload, args.seed, iterations)
        bench.check(quality is not None, "no eval report to take the quality metrics from")
    if not bench.failures:
        values = end_to_end(state, args.workload, iterations, quality)
        values["ok_ratio"] = 1.0 - len(bench.failures) / bench.attempted
        if args.trace:
            layer = traced_pass(bench, state, args.workload, iterations, args.seed)
    machine["loadavg_end"] = os.getloadavg()

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "machine": machine,
        "failures": bench.failures, "attempted": bench.attempted,
        "iterations": [{k: it.get(k) for k in ("children", "rows", "outputs", "startup_s")} for it in iterations],
        "setup_times": state["setup_times"], "end_to_end": values, "per_layer": layer,
    }
    with open(work / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, default=str)
    for name in ("setup0", "iter", "traced", "quality"):
        shutil.rmtree(work / name, ignore_errors=True)

    for failure in bench.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print("machine: " + json.dumps(machine))
    print(f"samples: {len(iterations)} iterations, {len(state['setup_times'])} set-ups; "
          f"report in {work / 'report.json'}")
    if bench.failures:
        print(result_line(bench, values, END_TO_END_UNITS))
        return 1
    if args.trace:
        print(result_line(bench, layer, tracing.PER_LAYER_UNITS))
    else:
        print(result_line(bench, values, END_TO_END_UNITS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
