"""Hyperparameter sweep harness for the public-dataset reproduction.

Usage:
    python demos/06_reproduction_sweep.py --data-dir /path/to/datasets \
        [--dataset cicids2017] [--out sweep_results.json]

Expects <data-dir>/cicids2017.csv and/or <data-dir>/unsw_nb15.csv
prepared per REPRODUCING.md (pre-extracted flow features, labels in the
column the shipped preset names). Runs the declared grid for both the
fisher-regularized and base models and records every cell's headline
metrics, so the chosen configuration is auditable.
"""
import argparse
import itertools
import json
import pathlib
import tempfile
import time

from rpmnet.cli import main as cli
from rpmnet.dataio import preset_roles_path, write_json

GRID = {
    "epochs": [10, 30, 60],
    "batch_size": [128, 256],
    "lr": [1e-3, 3e-4],
    "hidden_dims": [[256, 128], [128, 64]],
    "fisher_weight": [1.0, 0.0],
}


def run_cell(dataset, data_path, overrides, workdir):
    config = workdir / "config.json"
    config.write_text(json.dumps({"seed": 42, **overrides}))
    bundle = workdir / "model.bundle"
    calibrated = workdir / "model.cal.bundle"
    report = workdir / "report.json"
    roles = str(preset_roles_path(dataset))
    for argv in (
        ["train", "--data", data_path, "--roles", roles, "--config", str(config), "--out", str(bundle)],
        ["calibrate", "--bundle", str(bundle), "--data", data_path, "--roles", roles, "--out", str(calibrated)],
        ["eval", "--bundle", str(calibrated), "--data", data_path, "--roles", roles, "--report", str(report)],
    ):
        rc = cli(argv)
        if rc != 0:
            return {"error": f"command {argv[0]} exited {rc}"}
    doc = json.loads(report.read_text())
    return {k: doc[k] for k in ("precision", "recall", "f1_score", "auroc", "aupr_in", "aupr_out")}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--data-dir", required=True)
    ap.add_argument("--dataset", choices=["cicids2017", "unsw_nb15"], action="append")
    ap.add_argument("--out", default="sweep_results.json")
    args = ap.parse_args()
    datasets = args.dataset or ["cicids2017", "unsw_nb15"]

    results = []
    keys = sorted(GRID)
    for dataset in datasets:
        data_path = str(pathlib.Path(args.data_dir) / f"{dataset}.csv")
        if not pathlib.Path(data_path).exists():
            print(f"skipping {dataset}: {data_path} not found")
            continue
        for combo in itertools.product(*(GRID[k] for k in keys)):
            overrides = dict(zip(keys, combo))
            started = time.perf_counter()
            with tempfile.TemporaryDirectory() as tmp:
                cell = run_cell(dataset, data_path, overrides, pathlib.Path(tmp))
            cell.update(dataset=dataset, config=overrides, seconds=round(time.perf_counter() - started, 1))
            results.append(cell)
            print(json.dumps(cell))
            write_json(args.out, results)  # renamed into place whole: a kill mid-write keeps the last file
    print(f"\n{len(results)} cells recorded in {args.out}")


if __name__ == "__main__":
    main()
