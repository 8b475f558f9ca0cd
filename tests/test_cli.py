import csv
import errno
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import tracemalloc
import weakref
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rpmnet.cli as cli
import rpmnet.dataio as dio
import rpmnet.openset as osr
from rpmnet.cli import _csv_line, _write_scored_rows, main
from rpmnet.synthetic import gaussian_clusters
from test_dataio import _THRESHOLD, rewrite_manifest, tiny_bundle


@pytest.fixture
def workspace(tmp_path):
    """Synthetic five-cluster problem: three known attack classes, one
    validation-unknown class, one test-unknown class, all well separated."""
    rng = np.random.default_rng(123)
    # unknown clusters sit in the central region between the known
    # clusters, where reciprocal-point scores are lowest
    means = np.array(
        [
            [4.0, 0.0, 0.0, 0.0],
            [0.0, 4.0, 0.0, 0.0],
            [0.0, 0.0, 4.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],  # validation-unknown cluster
            [1.3, 1.3, 1.3, 0.0],  # test-unknown cluster
        ]
    )
    ds = gaussian_clusters(
        means,
        [80, 60, 40, 50, 50],
        0.25,
        rng,
        class_names=["dos", "scan", "bruteforce", "nov_val", "nov_test"],
    )
    data = tmp_path / "flows.csv"
    dio.save_csv(data, ds)

    roles = tmp_path / "roles.json"
    roles.write_text(
        json.dumps(
            {
                "known": ["dos", "scan", "bruteforce"],
                "validation_unknown": ["nov_val"],
                "test_unknown": ["nov_test"],
            }
        )
    )
    config = tmp_path / "train.json"
    config.write_text(
        json.dumps(
            {
                "epochs": 40,
                "batch_size": 32,
                "hidden_dims": [32, 16],
                "embed_dim": 8,
                "seed": 5,
            }
        )
    )
    return {
        "dir": tmp_path,
        "data": str(data),
        "roles": str(roles),
        "config": str(config),
        "bundle": str(tmp_path / "model.bundle"),
        "calibrated": str(tmp_path / "model.cal.bundle"),
        "report": str(tmp_path / "report.json"),
    }


def run_train(ws, out=None, seed=None):
    argv = ["train", "--data", ws["data"], "--roles", ws["roles"], "--config", ws["config"],
            "--out", out or ws["bundle"]]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return main(argv)


def run_calibrate(ws, bundle=None, out=None):
    return main(
        ["calibrate", "--bundle", bundle or ws["bundle"], "--data", ws["data"],
         "--roles", ws["roles"], "--out", out or ws["calibrated"]]
    )


def test_train_writes_bundle_history_manifest(workspace, capsys):
    assert run_train(workspace) == 0
    out = capsys.readouterr().out
    assert "bundle written" in out
    bundle = dio.load_bundle(workspace["bundle"])
    assert bundle.threshold is None
    assert bundle.params.class_names == ("bruteforce", "dos", "scan")
    history = (workspace["dir"] / "model.bundle.history.txt").read_text().strip().split("\n")
    assert len(history) == 1 + 40  # header + one row per epoch
    manifest = json.loads((workspace["dir"] / "model.bundle.manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["config"]["epochs"] == 40
    assert manifest["seed"] == 5
    assert set(manifest["inputs"]) == {"data", "roles"}


def test_train_same_seed_byte_identical(workspace):
    other = str(workspace["dir"] / "model2.bundle")
    assert run_train(workspace) == 0
    assert run_train(workspace, out=other) == 0
    b1 = (workspace["dir"] / "model.bundle").read_bytes()
    b2 = (workspace["dir"] / "model2.bundle").read_bytes()
    assert b1 == b2


def test_train_seed_flag_overrides_config(workspace):
    other = str(workspace["dir"] / "model2.bundle")
    assert run_train(workspace) == 0
    assert run_train(workspace, out=other, seed=99) == 0
    assert dio.load_bundle(other).config.seed == 99
    assert (workspace["dir"] / "model.bundle").read_bytes() != (workspace["dir"] / "model2.bundle").read_bytes()


def test_train_invalid_roles_names_class(workspace, capsys):
    bad_roles = workspace["dir"] / "bad_roles.json"
    bad_roles.write_text(json.dumps({"known": ["dos", "scan", "bruteforce"], "validation_unknown": ["nov_val"]}))
    rc = main(["train", "--data", workspace["data"], "--roles", str(bad_roles),
               "--config", workspace["config"], "--out", workspace["bundle"]])
    assert rc == 1
    assert "nov_test" in capsys.readouterr().err


def test_train_csv_without_feature_columns_is_an_error(workspace, capsys):
    data = workspace["dir"] / "labels_only.csv"
    data.write_text("label\n" + "dos\nscan\nbruteforce\nnov_val\nnov_test\n" * 4)
    rc = main(["train", "--data", str(data), "--roles", workspace["roles"], "--config", workspace["config"],
               "--out", workspace["bundle"]])
    assert rc == 1
    assert "error: training features must be a non-empty 2-D matrix, got shape (9, 0)" in capsys.readouterr().err
    assert not (workspace["dir"] / "model.bundle").exists()


def test_train_frees_the_dataset_before_training(workspace, monkeypatch):
    """Only the split reaches training; the whole loaded dataset is gone
    by then."""
    loaded = []
    load_csv, train = dio.load_csv, cli.train

    def keep_ref(*args, **kwargs):
        dataset, dropped = load_csv(*args, **kwargs)
        loaded.append(weakref.ref(dataset))
        return dataset, dropped

    def check_freed(*args, **kwargs):
        assert len(loaded) == 1 and loaded[0]() is None
        return train(*args, **kwargs)

    monkeypatch.setattr(dio, "load_csv", keep_ref)
    monkeypatch.setattr(cli, "train", check_freed)
    assert run_train(workspace) == 0


def test_calibrate_flow(workspace, capsys):
    run_train(workspace)
    assert run_calibrate(workspace) == 0
    bundle = dio.load_bundle(workspace["calibrated"])
    assert bundle.threshold is not None
    assert bundle.threshold.calibration_stats["f1"] == 1.0  # separable fixture
    # the original bundle is untouched
    assert dio.load_bundle(workspace["bundle"]).threshold is None


def test_calibrate_refuses_in_place(workspace, capsys):
    run_train(workspace)
    rc = run_calibrate(workspace, out=workspace["bundle"])
    assert rc == 1
    assert "in place" in capsys.readouterr().err


def test_calibrate_missing_bundle_file(workspace, capsys):
    rc = run_calibrate(workspace, bundle=str(workspace["dir"] / "nope.bundle"))
    assert rc == 1


def test_recalibration_notes_supersession(workspace):
    run_train(workspace)
    run_calibrate(workspace)
    second = str(workspace["dir"] / "model.cal2.bundle")
    assert run_calibrate(workspace, bundle=workspace["calibrated"], out=second) == 0
    manifest = json.loads((workspace["dir"] / "model.cal2.bundle.manifest.json").read_text())
    assert manifest["superseded_tau"] is not None
    first_manifest = json.loads((workspace["dir"] / "model.cal.bundle.manifest.json").read_text())
    assert first_manifest["superseded_tau"] is None


def test_calibrate_without_validation_unknowns(workspace, capsys):
    run_train(workspace)
    no_val = workspace["dir"] / "noval_roles.json"
    no_val.write_text(
        json.dumps({"known": ["dos", "scan", "bruteforce"],
                    "test_unknown": ["nov_test", "nov_val"]})
    )
    rc = main(["calibrate", "--bundle", workspace["bundle"], "--data", workspace["data"],
               "--roles", str(no_val), "--out", workspace["calibrated"]])
    assert rc == 1
    assert "validation" in capsys.readouterr().err


def test_eval_requires_calibration(workspace, capsys):
    run_train(workspace)
    rc = main(["eval", "--bundle", workspace["bundle"], "--data", workspace["data"],
               "--roles", workspace["roles"], "--report", workspace["report"]])
    assert rc == 1
    assert "calibrate" in capsys.readouterr().err


def test_eval_known_class_outside_bundle_vocabulary(workspace, capsys):
    run_train(workspace)
    run_calibrate(workspace)
    roles = workspace["dir"] / "eval_roles.json"
    roles.write_text(json.dumps({"known": ["dos", "scan", "bruteforce", "nov_val"], "test_unknown": ["nov_test"]}))
    rc = main(["eval", "--bundle", workspace["calibrated"], "--data", workspace["data"],
               "--roles", str(roles), "--report", workspace["report"]])
    assert rc == 1
    assert "labels not in the class vocabulary: 'nov_val'" in capsys.readouterr().err
    assert not (workspace["dir"] / "report.json").exists()


@pytest.mark.parametrize("command", ["calibrate", "eval"])
def test_known_rows_of_a_class_the_bundle_lacks_name_both_files(workspace, capsys, command):
    """A roles file that makes known a class the bundle was not trained
    on, with rows in the data, stops both commands before any output:
    calibrate would count those rows as known scores, and eval could not
    encode their labels."""
    run_train(workspace)
    run_calibrate(workspace)
    roles = workspace["dir"] / "more_known_roles.json"
    roles.write_text(json.dumps({"known": ["dos", "scan", "bruteforce", "nov_val"], "test_unknown": ["nov_test"]}))
    out = workspace["dir"] / "result"
    out_flag = "--out" if command == "calibrate" else "--report"
    capsys.readouterr()
    assert main([command, "--bundle", workspace["calibrated"], "--data", workspace["data"],
                 "--roles", str(roles), out_flag, str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: --roles {roles} makes known classes that --bundle {workspace['calibrated']} was not trained on "
        "(labels not in the class vocabulary: 'nov_val'); give them an unknown role, or train a bundle on them\n"
    )
    assert not list(workspace["dir"].glob("result*"))


def test_a_known_class_without_rows_is_allowed(workspace):
    run_train(workspace)
    roles = workspace["dir"] / "absent_roles.json"
    roles.write_text(json.dumps({"known": ["dos", "scan", "bruteforce", "absent"],
                                 "validation_unknown": ["nov_val"], "test_unknown": ["nov_test"]}))
    assert main(["calibrate", "--bundle", workspace["bundle"], "--data", workspace["data"],
                 "--roles", str(roles), "--out", workspace["calibrated"]]) == 0


def test_eval_writes_report(workspace, capsys):
    run_train(workspace)
    run_calibrate(workspace)
    rc = main(["eval", "--bundle", workspace["calibrated"], "--data", workspace["data"],
               "--roles", workspace["roles"], "--report", workspace["report"]])
    assert rc == 0
    out = capsys.readouterr().out
    assert "f1_score" in out and "aupr_out" in out
    report = json.loads((workspace["dir"] / "report.json").read_text())
    for key in ("precision", "recall", "f1_score", "auroc", "aupr_in", "aupr_out"):
        assert key in report
    # separable fixture: everything perfect
    assert report["f1_score"] == 1.0
    assert report["auroc"] == 1.0
    assert report["aupr_out"] == 1.0
    assert report["counts"]["known_test"] > 0


def test_score_appends_columns(workspace, tmp_path):
    run_train(workspace)
    run_calibrate(workspace)
    scored_path = str(workspace["dir"] / "scored.csv")
    rc = main(["score", "--bundle", workspace["calibrated"], "--data", workspace["data"],
               "--out", scored_path])
    assert rc == 0
    header, rows = dio.read_csv_rows(scored_path)
    assert header == ["f0", "f1", "f2", "f3", "label", "predicted_label", "score", "is_unknown"]
    assert len(rows) == 280
    known_rows = [r for r in rows if r[4] in ("dos", "scan", "bruteforce")]
    assert all(r[7] == "false" for r in known_rows)
    unknown_rows = [r for r in rows if r[4] in ("nov_val", "nov_test")]
    flagged = sum(r[7] == "true" for r in unknown_rows)
    assert flagged == len(unknown_rows)  # separable fixture
    predicted = {r[5] for r in rows}
    assert predicted <= {"dos", "scan", "bruteforce"}


def test_score_accepts_utf8_bom(workspace):
    run_train(workspace)
    run_calibrate(workspace)
    bom = workspace["dir"] / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + (workspace["dir"] / "flows.csv").read_bytes())
    outs = []
    for data, name in ((workspace["data"], "plain.scored.csv"), (str(bom), "bom.scored.csv")):
        out = workspace["dir"] / name
        assert main(["score", "--bundle", workspace["calibrated"], "--data", data, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_score_requires_calibrated_bundle(workspace, capsys):
    run_train(workspace)
    rc = main(["score", "--bundle", workspace["bundle"], "--data", workspace["data"],
               "--out", str(workspace["dir"] / "scored.csv")])
    assert rc == 1
    assert "calibrate" in capsys.readouterr().err


def test_score_empty_input_gives_header_only(workspace):
    run_train(workspace)
    run_calibrate(workspace)
    empty = workspace["dir"] / "empty.csv"
    empty.write_text("f0,f1,f2,f3\n")
    out_path = workspace["dir"] / "scored.csv"
    rc = main(["score", "--bundle", workspace["calibrated"], "--data", str(empty),
               "--out", str(out_path)])
    assert rc == 0
    assert out_path.read_bytes() == b"f0,f1,f2,f3,predicted_label,score,is_unknown\r\n"


def test_score_where_every_row_drops_gives_header_only(tmp_path, caplog):
    """A file whose every row drops scores to a header-only CSV.  The
    reader logs the drop warning once, and the line and reason the first
    row dropped once, as it does for the labelled commands."""
    bundle, data, out = tmp_path / "model.cal.bundle", tmp_path / "dirty.csv", tmp_path / "scored.csv"
    dio.save_bundle(bundle, tiny_bundle(threshold=_THRESHOLD))
    data.write_text("f0,f1,f2,f3\n1,2,nan,4\n1,2,3\n")
    assert main(["score", "--bundle", str(bundle), "--data", str(data), "--out", str(out)]) == 0
    assert out.read_bytes() == b"f0,f1,f2,f3,predicted_label,score,is_unknown\r\n"
    assert [(r.name, r.getMessage()) for r in caplog.records if r.levelname == "WARNING"] == [
        ("rpmnet.dataio", f"{data}: dropped 2 rows with missing or non-finite features"),
        ("rpmnet.dataio", f"{data}: line 2: column 'f2' holds 'nan', which is not finite"),
    ]
    manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
    assert (manifest["rows_scored"], manifest["dropped_rows"]) == (0, 2)


def test_manifest_duration_survives_a_wall_clock_step(tmp_path, monkeypatch):
    """A wall clock stepped back one hour mid-command (NTP, a resume from
    suspend) leaves the manifest's duration non-negative: it is timed on
    a monotonic clock, and only the start time is read off the wall."""
    bundle, data, out = tmp_path / "model.cal.bundle", tmp_path / "flows.csv", tmp_path / "scored.csv"
    dio.save_bundle(bundle, tiny_bundle(threshold=_THRESHOLD))
    data.write_text("f0,f1,f2,f3\n1,2,3,4\n")
    real_time, real_score = time.time, cli.cmd_score

    def stepped_score(args, open_output):
        monkeypatch.setattr(time, "time", lambda: real_time() - 3600)
        return real_score(args, open_output)

    monkeypatch.setattr(cli, "cmd_score", stepped_score)
    before = real_time()
    assert main(["score", "--bundle", str(bundle), "--data", str(data), "--out", str(out)]) == 0
    manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
    assert 0 <= manifest["wall_clock_seconds"] < 60
    assert abs(datetime.fromisoformat(manifest["started_utc"]).timestamp() - before) < 60


def test_score_schema_mismatch_lists_columns(workspace, capsys):
    run_train(workspace)
    run_calibrate(workspace)
    bad = workspace["dir"] / "bad.csv"
    bad.write_text("f0,f1,wrong\n1.0,2.0,3.0\n")
    rc = main(["score", "--bundle", workspace["calibrated"], "--data", str(bad),
               "--out", str(workspace["dir"] / "scored.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "f2" in err and "f3" in err and "wrong" in err


def test_csv_header_errors_name_the_csv(workspace, capsys):
    run_train(workspace)
    run_calibrate(workspace)
    missing, twice = workspace["dir"] / "missing.csv", workspace["dir"] / "twice.csv"
    missing.write_text("f0,f2,f3,label\n1.0,2.0,3.0,dos\n")
    twice.write_text("f0,f1,f2,f3,f1,label\n1.0,2.0,3.0,4.0,5.0,dos\n")
    capsys.readouterr()
    out = workspace["dir"] / "out"
    assert main(["score", "--bundle", workspace["calibrated"], "--data", str(missing), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {missing}: missing columns: f1; other columns: label\n"
    assert main(["train", "--data", str(twice), "--roles", workspace["roles"], "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {twice}: duplicated columns: f1; rename or drop the repeated columns\n"
    assert not out.exists()


def test_score_rejects_duplicated_columns(workspace, capsys):
    run_train(workspace)
    run_calibrate(workspace)
    dup = workspace["dir"] / "dup.csv"
    out = workspace["dir"] / "scored.csv"
    for body in ("1.0,2.0,3.0,4.0,5.0\n", ""):  # the header alone is checked too
        dup.write_text("f0,f1,f2,f3,f1\n" + body)
        rc = main(["score", "--bundle", workspace["calibrated"], "--data", str(dup), "--out", str(out)])
        assert rc == 1
        assert "duplicated columns: f1;" in capsys.readouterr().err
        assert not out.exists()


def test_score_deterministic_bytes(workspace):
    run_train(workspace)
    run_calibrate(workspace)
    out1, out2 = workspace["dir"] / "s1.csv", workspace["dir"] / "s2.csv"
    for out in (out1, out2):
        assert main(["score", "--bundle", workspace["calibrated"], "--data", workspace["data"],
                     "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_commands_do_not_mutate_inputs(workspace):
    before = (workspace["dir"] / "flows.csv").read_bytes()
    run_train(workspace)
    run_calibrate(workspace)
    main(["eval", "--bundle", workspace["calibrated"], "--data", workspace["data"],
          "--roles", workspace["roles"], "--report", workspace["report"]])
    assert (workspace["dir"] / "flows.csv").read_bytes() == before


def test_score_refuses_in_place(workspace, capsys):
    run_train(workspace)
    run_calibrate(workspace)
    before = (workspace["dir"] / "flows.csv").read_bytes()
    rc = main(["score", "--bundle", workspace["calibrated"], "--data", workspace["data"],
               "--out", workspace["data"]])
    assert rc == 1
    assert "--out must differ from --data" in capsys.readouterr().err
    assert (workspace["dir"] / "flows.csv").read_bytes() == before


def _score(ws, data, out):
    return main(["score", "--bundle", ws["calibrated"], "--data", str(data), "--out", str(out)])


@pytest.mark.parametrize(
    "edit",
    [
        lambda m: m["sections"][0].update(offset="0"),
        lambda m: m["sections"][0].update(shape=[-4, -6]),
        lambda m: m.update(sections=5),
        lambda m: m["threshold"].update(tau=float("nan")),
    ],
    ids=["W1 offset a string", "W1 negative dims", "sections an int", "tau NaN"],
)
def test_score_with_a_malformed_bundle_names_it_and_writes_nothing(tmp_path, capsys, edit):
    """A CRC-valid bundle with a malformed manifest field stops ``score``
    with one error line naming the bundle, not a traceback."""
    bundle = tmp_path / "m.bundle"
    dio.save_bundle(bundle, tiny_bundle(threshold=_THRESHOLD))
    rewrite_manifest(bundle, edit)
    data = tmp_path / "flows.csv"
    data.write_text("f0,f1,f2,f3\n1,2,3,4\n")
    assert main(["score", "--bundle", str(bundle), "--data", str(data), "--out", str(tmp_path / "scored.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bundle}: ") and err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == ["flows.csv", "m.bundle"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_score_failure_leaves_no_partial_output(workspace, monkeypatch, capsys):
    """A block that fails after earlier blocks were written leaves --out
    as it was (absent, or the previous file) and no temporary file."""
    run_train(workspace)
    run_calibrate(workspace)
    monkeypatch.setattr(dio, "BLOCK_ROWS", 64)
    bad = workspace["dir"] / "overflow.csv"
    bad.write_text((workspace["dir"] / "flows.csv").read_text() + "1.7e308,1.7e308,1.7e308,1.7e308,dos\n")
    out = workspace["dir"] / "scored.csv"
    listing = set(workspace["dir"].iterdir())

    assert _score(workspace, bad, out) == 1
    assert "NaN or Inf" in capsys.readouterr().err
    assert set(workspace["dir"].iterdir()) == listing

    out.write_bytes(b"previous output\n")
    assert _score(workspace, bad, out) == 1
    assert out.read_bytes() == b"previous output\n"
    assert set(workspace["dir"].iterdir()) == listing | {out}


def _dirty_copy(ws):
    """The fixture CSV with 10 rows that drop, spread over several blocks
    of 7 rows, one such block dropping whole, and one blank line."""
    header, *lines = (ws["dir"] / "flows.csv").read_text().splitlines()
    lines[3] = "nan," + lines[3].split(",", 1)[1]  # NaN, block 0
    lines[40] = "," + lines[40].split(",", 1)[1]  # empty cell, block 5
    lines[100] = lines[100].rsplit(",", 1)[0]  # ragged row, block 14
    for i in range(140, 147):  # all of block 20 drops
        lines[i] = "inf," + lines[i].split(",", 1)[1]
    lines.insert(200, "")  # a blank line is skipped, not dropped
    dirty = ws["dir"] / "dirty.csv"
    dirty.write_text("\n".join([header, *lines]) + "\n")
    return dirty


def test_score_blocks_match_whole_file(workspace, monkeypatch, caplog):
    """Blocks of 7 rows, with dirty rows spread over several blocks and one
    block in which every row drops, give the whole-file run's rows, labels,
    counts and score bits."""
    run_train(workspace)
    run_calibrate(workspace)
    dirty = _dirty_copy(workspace)
    whole, blocked = workspace["dir"] / "whole.csv", workspace["dir"] / "blocked.csv"
    assert _score(workspace, dirty, whole) == 0
    monkeypatch.setattr(dio, "BLOCK_ROWS", 7)
    caplog.clear()
    assert _score(workspace, dirty, blocked) == 0
    assert sum("dropped 10 rows" in r.getMessage() for r in caplog.records) == 1
    assert sum("dropped" in r.getMessage() for r in caplog.records) == 1

    (wh, w_rows), (bh, b_rows) = dio.read_csv_rows(whole), dio.read_csv_rows(blocked)
    assert wh == bh and len(w_rows) == len(b_rows) == 270
    assert [r[:5] for r in b_rows] == [r[:5] for r in w_rows]
    assert [(r[5], r[6], r[7]) for r in b_rows] == [(r[5], r[6], r[7]) for r in w_rows]
    for path in (whole, blocked):
        manifest = json.loads((workspace["dir"] / f"{path.name}.manifest.json").read_text())
        assert (manifest["rows_scored"], manifest["dropped_rows"]) == (270, 10)


def test_calibrate_and_eval_blocks_match_whole_file(workspace, monkeypatch, caplog):
    """calibrate and eval write the same bundle and report with blocks of
    7 rows as with the default blocks; each logs its drops once and
    records them, and the size of each partition, in its manifest."""
    run_train(workspace)
    dirty = _dirty_copy(workspace)
    roles = json.loads((workspace["dir"] / "roles.json").read_text())
    kept = dio.load_csv(dirty)[0].labels
    want_parts = dict(zip(cli.PARTITIONS, np.bincount(dio.make_split(kept, dio.load_roles(workspace["roles"]),
                                                                      seed=5), minlength=4).tolist()))
    assert want_parts["validation_unknown"] == kept.count(*roles["validation_unknown"])
    assert want_parts["test_unknown"] == kept.count(*roles["test_unknown"])
    assert sum(want_parts.values()) == len(kept) == 270
    outputs = []
    for block_rows in (dio.BLOCK_ROWS, 7):
        monkeypatch.setattr(dio, "BLOCK_ROWS", block_rows)
        cal, report = workspace["dir"] / f"cal{block_rows}.bundle", workspace["dir"] / f"report{block_rows}.json"
        caplog.clear()
        assert main(["calibrate", "--bundle", workspace["bundle"], "--data", str(dirty),
                     "--roles", workspace["roles"], "--out", str(cal)]) == 0
        assert main(["eval", "--bundle", str(cal), "--data", str(dirty),
                     "--roles", workspace["roles"], "--report", str(report)]) == 0
        assert [r.getMessage() for r in caplog.records if "dropped" in r.getMessage()] == [
            f"{dirty}: dropped 10 rows with missing or non-finite features"
        ] * 2
        for path in (cal, report):
            manifest = json.loads(path.with_name(path.name + ".manifest.json").read_text())
            assert (manifest["dropped_rows"], manifest["partition_rows"]) == (10, want_parts)
        outputs.append((cal.read_bytes(), report.read_bytes()))
    assert outputs[0] == outputs[1]


def test_calibrate_and_eval_memory_stays_below_the_matrix(tmp_path):
    """calibrate and eval keep a label, a score and an argmax per row, not
    the feature matrix: on a 64-block, 40-feature file each one's traced
    peak stays below half of the file's float64 matrix."""
    rng = np.random.default_rng(0)
    names = ["dos", "scan", "bruteforce", "nov_val", "nov_test"]
    n, d = 64 * dio.BLOCK_ROWS, 40
    y = np.arange(n) % len(names)
    x = rng.normal(scale=3.0, size=(len(names), d))[y] + rng.normal(size=(n, d))
    lines = [",".join([*(f"f{j}" for j in range(d)), "label"])]
    lines += [",".join(f"{v:.3f}" for v in row) + f",{names[k]}" for row, k in zip(x.tolist(), y.tolist())]
    data, small = tmp_path / "wide.csv", tmp_path / "small.csv"
    data.write_text("\n".join(lines) + "\n")
    small.write_text("\n".join(lines[:501]) + "\n")
    roles, config = tmp_path / "roles.json", tmp_path / "train.json"
    roles.write_text(json.dumps({"known": names[:3], "validation_unknown": ["nov_val"], "test_unknown": ["nov_test"]}))
    config.write_text(json.dumps({"epochs": 10, "hidden_dims": [32, 16], "embed_dim": 8}))
    bundle, cal = tmp_path / "model.bundle", tmp_path / "model.cal.bundle"
    assert main(["train", "--data", str(small), "--roles", str(roles), "--config", str(config),
                 "--out", str(bundle)]) == 0
    commands = (["calibrate", "--bundle", str(bundle), "--out", str(cal)],
                ["eval", "--bundle", str(cal), "--report", str(tmp_path / "report.json")])
    for argv in commands:
        tracemalloc.start()
        try:
            assert main(argv + ["--data", str(data), "--roles", str(roles)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * n * d * 8, (argv[0], peak / (n * d * 8))


def test_train_compacts_the_known_rows_in_place(tmp_path, monkeypatch):
    """train moves the known-train rows to the front of the loaded matrix
    in place: on a file of 16 blocks of 256 rows and 40 features, with a
    tiny config, its traced peak stays within 1.4x the file's float64
    matrix (about 1.38x, set while the file loads; fitting the scaler
    with a temporary the size of those rows took about 1.42x, and copying
    the rows out next to the loaded matrix about 1.75x), and the scaler is
    fit on exactly those rows."""
    monkeypatch.setattr(dio, "BLOCK_ROWS", 256)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(16 * dio.BLOCK_ROWS, 40))
    labels = [f"class{i % 5}" for i in range(x.shape[0])]
    data, roles, config = tmp_path / "wide.csv", tmp_path / "roles.json", tmp_path / "train.json"
    with open(data, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(f"f{j}" for j in range(x.shape[1])) + ",label\n")
        for row, label in zip(x.tolist(), labels):
            fh.write(",".join(map(repr, row)) + f",{label}\n")
    roles.write_text(json.dumps({"known": ["class0", "class1", "class2", "class3"], "validation_unknown": ["class4"]}))
    config.write_text(json.dumps({"epochs": 1, "batch_size": 256, "hidden_dims": [8, 6], "embed_dim": 4}))
    bundle = tmp_path / "model.bundle"
    tracemalloc.start()
    try:
        assert main(["train", "--data", str(data), "--roles", str(roles), "--config", str(config),
                     "--out", str(bundle)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.4 * x.nbytes, peak / x.nbytes
    keep = dio.make_split(labels, dio.load_roles(roles), seed=0) == 0
    assert dio.load_bundle(bundle).scaler.mean.tobytes() == x[keep].mean(axis=0).tobytes()


def test_score_memory_does_not_grow_with_file(workspace, tmp_path):
    """The traced peak of scoring a file 8 blocks long stays near that of
    a one-block file: score holds one block at a time."""
    run_train(workspace)
    run_calibrate(workspace)
    header, *lines = (workspace["dir"] / "flows.csv").read_text().splitlines()
    peaks = []
    for blocks in (1, 8):
        data = tmp_path / f"{blocks}_blocks.csv"
        n = blocks * dio.BLOCK_ROWS
        data.write_text("\n".join([header, *(lines[i % len(lines)] for i in range(n))]) + "\n")
        tracemalloc.start()
        try:
            assert _score(workspace, data, tmp_path / f"{blocks}_blocks.scored.csv") == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


# each command's input flags and the workspace files they name
COMMAND_INPUTS = {
    "train": {"data": "data", "roles": "roles", "config": "config"},
    "calibrate": {"bundle": "bundle", "data": "data", "roles": "roles"},
    "eval": {"bundle": "calibrated", "data": "data", "roles": "roles"},
    "score": {"bundle": "calibrated", "data": "data"},
}


@pytest.mark.parametrize(
    "command, out_flag, in_flag, suffix",
    [
        ("train", "out", "data", ""),
        ("train", "out", "roles", ""),
        ("train", "out", "config", ".history.txt"),
        ("train", "out", "data", ".manifest.json"),
        ("calibrate", "out", "bundle", ""),
        ("calibrate", "out", "data", ""),
        ("calibrate", "out", "roles", ".manifest.json"),
        ("eval", "report", "data", ""),
        ("eval", "report", "bundle", ""),
        ("eval", "report", "roles", ".manifest.json"),
        ("score", "out", "data", ""),
        ("score", "out", "bundle", ""),
        ("score", "out", "data", ".manifest.json"),
    ],
)
def test_commands_refuse_to_overwrite_inputs(workspace, capsys, command, out_flag, in_flag, suffix):
    """An output, or the history or manifest file written next to it, that
    names an input gives rc 1 and leaves that input byte-identical."""
    run_train(workspace)
    run_calibrate(workspace)
    inputs = {flag: workspace[key] for flag, key in COMMAND_INPUTS[command].items()}
    out = workspace["dir"] / "victim"
    victim = workspace["dir"] / f"victim{suffix}"
    shutil.copyfile(inputs[in_flag], victim)
    inputs[in_flag] = str(victim)
    before = victim.read_bytes()
    argv = [command, *(a for flag, path in inputs.items() for a in (f"--{flag}", path)), f"--{out_flag}", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"must differ from --{in_flag}; rpmnet never rewrites an input in place" in err
    assert victim.read_bytes() == before


def test_output_through_a_symlink_to_an_input_is_refused(workspace, capsys):
    link = workspace["dir"] / "link.csv"
    link.symlink_to(workspace["data"])
    before = (workspace["dir"] / "flows.csv").read_bytes()
    assert run_train(workspace, out=str(link)) == 1
    assert "--out must differ from --data" in capsys.readouterr().err
    assert (workspace["dir"] / "flows.csv").read_bytes() == before


@pytest.mark.parametrize("feature_names,named", [(["f0", "f0"], "f0"), (["f1", "label"], "label")])
def test_train_roles_feature_named_twice_is_an_error(workspace, capsys, feature_names, named):
    roles = json.loads((workspace["dir"] / "roles.json").read_text())
    path = workspace["dir"] / "twice_roles.json"
    path.write_text(json.dumps({**roles, "feature_names": feature_names}))
    rc = main(["train", "--data", workspace["data"], "--roles", str(path), "--config", workspace["config"],
               "--out", workspace["bundle"]])
    assert rc == 1
    assert f"error: {path}: roles key 'feature_names': {named!r} " in capsys.readouterr().err
    assert not (workspace["dir"] / "model.bundle").exists()


def test_train_known_class_with_one_row_is_an_error(workspace, capsys):
    lines = (workspace["dir"] / "flows.csv").read_text().splitlines()
    one = workspace["dir"] / "one_scan.csv"
    scan = [line for line in lines if line.endswith(",scan")]
    one.write_text("\n".join([line for line in lines if not line.endswith(",scan")] + scan[:1]) + "\n")
    capsys.readouterr()
    assert main(["train", "--data", str(one), "--roles", workspace["roles"], "--config", workspace["config"],
                 "--out", workspace["bundle"]]) == 1
    assert capsys.readouterr().err == (
        f"error: --data {one} with --roles {workspace['roles']}: known class 'scan' needs at least 2 samples, has 1\n"
    )
    assert not (workspace["dir"] / "model.bundle").exists()


@pytest.mark.parametrize("command", ["train", "calibrate", "eval"])
def test_a_class_missing_from_the_roles_names_both_files(workspace, capsys, command):
    run_train(workspace)
    run_calibrate(workspace)
    roles = workspace["dir"] / "short_roles.json"
    roles.write_text(json.dumps({"known": ["dos", "scan", "bruteforce"]}))
    out = workspace["dir"] / "result"
    argv = {"train": ["--config", workspace["config"], "--out"], "calibrate": ["--bundle", workspace["bundle"], "--out"],
            "eval": ["--bundle", workspace["calibrated"], "--report"]}[command]
    capsys.readouterr()
    assert main([command, "--data", workspace["data"], "--roles", str(roles), *argv, str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: --data {workspace['data']} with --roles {roles}: "
        "classes present in the data but missing from the roles config: 'nov_test', 'nov_val'\n"
    )
    assert not list(workspace["dir"].glob("result*"))


ROLES_MISTAKES = {
    "no-role": ({"known": ["dos", "scan", "bruteforce"]},
                "{data} with --roles {roles}: classes present in the data but missing from the roles config: {classes}\n"),
    "untrained-known": ({"known": ["dos", "scan", "bruteforce", "nov_val", "nov_test"]},
                        "--roles {roles} makes known classes that --bundle {bundle} was not trained on "
                        "(labels not in the class vocabulary: {classes}); "),
}


@pytest.mark.parametrize("mistake", list(ROLES_MISTAKES))
@pytest.mark.parametrize("command", ["calibrate", "eval"])
@pytest.mark.parametrize("block_rows", [1024, 64], ids=["first-block", "third-block"])
def test_a_roles_mistake_stops_scoring_at_its_block(workspace, capsys, monkeypatch, command, mistake, block_rows):
    """calibrate and eval check each block's labels before they score it.
    The fixture's rows run dos, scan, bruteforce, nov_val, nov_test: in one
    block nothing is scored and the error names both unknown classes; in
    64-row blocks the first nov_val row is in the third block, so two
    blocks are scored and the error names only nov_val, the one seen so
    far.  No output is written."""
    run_train(workspace)
    run_calibrate(workspace)
    raw, message = ROLES_MISTAKES[mistake]
    roles = workspace["dir"] / "mistaken_roles.json"
    roles.write_text(json.dumps(raw))
    bundle = workspace["calibrated"]
    out = workspace["dir"] / "result"
    scored = []
    real_score = osr.score
    monkeypatch.setattr(osr, "score", lambda *a: scored.append(None) or real_score(*a))
    monkeypatch.setattr(dio, "BLOCK_ROWS", block_rows)
    out_flag = "--out" if command == "calibrate" else "--report"
    capsys.readouterr()
    assert main([command, "--bundle", bundle, "--data", workspace["data"], "--roles", str(roles),
                 out_flag, str(out)]) == 1
    classes = "'nov_test', 'nov_val'" if block_rows == 1024 else "'nov_val'"
    assert message.format(data=workspace["data"], roles=roles, bundle=bundle, classes=classes) in capsys.readouterr().err
    assert len(scored) == (0 if block_rows == 1024 else 2)
    assert not list(workspace["dir"].glob("result*"))


def test_a_roles_mistake_stops_train_at_its_block(workspace, capsys, monkeypatch):
    """train checks each block's labels as it reads them.  In 64-row
    blocks the fixture's first nov_val row is in the third block: train
    parses three of the five blocks, names only nov_val, and writes
    nothing."""
    roles = workspace["dir"] / "mistaken_roles.json"
    roles.write_text(json.dumps(ROLES_MISTAKES["no-role"][0]))
    parsed = []
    real_parse = dio._parse_block
    monkeypatch.setattr(dio, "_parse_block", lambda *a, **kw: parsed.append(None) or real_parse(*a, **kw))
    monkeypatch.setattr(dio, "BLOCK_ROWS", 64)
    listing = set(workspace["dir"].iterdir())
    capsys.readouterr()
    assert main(["train", "--data", workspace["data"], "--roles", str(roles), "--config", workspace["config"],
                 "--out", workspace["bundle"]]) == 1
    assert capsys.readouterr().err == (
        f"error: --data {workspace['data']} with --roles {roles}: "
        "classes present in the data but missing from the roles config: 'nov_val'\n"
    )
    assert len(parsed) == 3
    assert set(workspace["dir"].iterdir()) == listing


def _with_oversized_cell(ws, line_no):
    """The fixture CSV with the cell f1 of data line ``line_no`` (1-based
    file line) longer than csv's default field size limit."""
    lines = (ws["dir"] / "flows.csv").read_text().splitlines()
    cells = lines[line_no - 1].split(",")
    cells[1] = "1" * (csv.field_size_limit() + 1)
    lines[line_no - 1] = ",".join(cells)
    path = ws["dir"] / "huge.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_train_oversized_cell_names_file_and_line(workspace, capsys):
    data = _with_oversized_cell(workspace, 50)
    rc = main(["train", "--data", str(data), "--roles", workspace["roles"], "--config", workspace["config"],
               "--out", workspace["bundle"]])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{data}: line 50: field larger than field limit" in err
    assert not (workspace["dir"] / "model.bundle").exists()


def test_score_oversized_cell_names_file_and_line(workspace, monkeypatch, capsys):
    """The bad line sits in the third block, after two blocks were written;
    score leaves no --out and no temporary file."""
    run_train(workspace)
    run_calibrate(workspace)
    monkeypatch.setattr(dio, "BLOCK_ROWS", 64)
    data = _with_oversized_cell(workspace, 150)
    out = workspace["dir"] / "scored.csv"
    listing = set(workspace["dir"].iterdir())
    assert _score(workspace, data, out) == 1
    assert f"{data}: line 150: field larger than field limit" in capsys.readouterr().err
    assert set(workspace["dir"].iterdir()) == listing


def _with_cp1252_label(ws, line_no):
    """The fixture CSV with the label of file line ``line_no`` (1-based)
    written with the cp1252 dash 0x96, as in CICIDS2017's web-attack
    labels; returns the path and the file offset of that byte."""
    lines = (ws["dir"] / "flows.csv").read_bytes().split(b"\n")
    head = lines[line_no - 1].rsplit(b",", 1)[0] + b",Web Attack "
    lines[line_no - 1] = head + b"\x96 Brute Force\r"
    path = ws["dir"] / "cp1252.csv"
    path.write_bytes(b"\n".join(lines))
    return path, sum(len(line) + 1 for line in lines[: line_no - 1]) + len(head)


def test_non_utf8_byte_names_file_line_and_offset(workspace, monkeypatch, capsys):
    """The byte sits in the third block, past the decoder's first
    read-ahead chunk; calibrate and score stop with the file, line and
    offset, and score leaves no --out and no temporary file."""
    run_train(workspace)
    run_calibrate(workspace)
    monkeypatch.setattr(dio, "BLOCK_ROWS", 64)
    data, offset = _with_cp1252_label(workspace, 150)
    assert offset > 8192
    message = f"{data}: line 150: byte 0x96 at byte offset {offset} is not UTF-8; re-encode the file as UTF-8"
    capsys.readouterr()
    assert main(["calibrate", "--bundle", workspace["bundle"], "--data", str(data), "--roles", workspace["roles"],
                 "--out", str(workspace["dir"] / "cp1252.cal.bundle")]) == 1
    assert f"error: {message}\n" == capsys.readouterr().err
    out = workspace["dir"] / "scored.csv"
    listing = set(workspace["dir"].iterdir())
    assert _score(workspace, data, out) == 1
    assert f"error: {message}\n" == capsys.readouterr().err
    assert set(workspace["dir"].iterdir()) == listing


CLASS_NAME = st.text(
    st.one_of(st.sampled_from(',"\r\n \t'), st.characters(blacklist_categories=("Cs",))), max_size=6
)


@given(CLASS_NAME, st.floats(allow_nan=False, allow_infinity=False), st.booleans())
@example("", 0.5, False)
@example('Web Attack \u2013 "XSS", v2\r\n', -1.25e-07, True)
@settings(max_examples=300, deadline=None)
def test_scored_rows_match_csv_writer(name, score, unknown):
    """A line that numpy parsed, written with the class name's
    precomputed cell, and rows of cells, some of which need quoting,
    give csv.writer's bytes."""
    cells = ["1.5", "-2", "0.25", "BENIGN"]
    quoted = [["1.5", "a,b", "0.25", "x"], ["1.5", 'say "hi"', "0.25", "x"], ["1.5", "two\nlines", "0.25", "cr\r\nlf"],
              ["", "-2", "0.25", "x"], ["1.5", "-2", "0.25", ""]]
    rows = [",".join(cells) + "\r\n", cells, ",".join(cells) + "\n", *quoted]
    cell_rows = [cells, cells, cells, *quoted]
    predicted = [1, 1, 0, 1, 0, 1, 0, 1]
    class_names = ("other", name)
    scored = osr.ScoredBatch(scores=np.full(len(rows), score), predicted=np.array(predicted),
                             is_unknown=np.full(len(rows), unknown))
    fast, ref = io.StringIO(newline=""), io.StringIO(newline="")
    _write_scored_rows(fast, rows, scored, [_csv_line(["", n])[1:] for n in class_names])
    flag = "true" if unknown else "false"
    csv.writer(ref).writerows(r + [class_names[k], repr(score), flag] for r, k in zip(cell_rows, predicted))
    assert fast.getvalue() == ref.getvalue()


def test_score_quoted_cells_match_csv_writer(workspace):
    """Passthrough cells that need quoting (a comma, a doubled quote, an
    embedded newline) and class names with a comma or a quote give exactly
    the bytes csv.writer writes for the same cells."""
    header, rows = dio.read_csv_rows(workspace["data"])
    new_names = {"dos": "dos, syn", "scan": 'scan "slow"'}
    renamed = [r[:4] + [new_names.get(r[4], r[4])] for r in rows]
    train_csv = workspace["dir"] / "comma_class.csv"
    with open(train_csv, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *renamed])
    roles = workspace["dir"] / "comma_roles.json"
    roles.write_text(json.dumps({"known": ["dos, syn", 'scan "slow"', "bruteforce"],
                                 "validation_unknown": ["nov_val"], "test_unknown": ["nov_test"]}))
    bundle, calibrated = workspace["dir"] / "c.bundle", workspace["dir"] / "c.cal.bundle"
    assert main(["train", "--data", str(train_csv), "--roles", str(roles), "--config", workspace["config"],
                 "--out", str(bundle)]) == 0
    assert main(["calibrate", "--bundle", str(bundle), "--data", str(train_csv), "--roles", str(roles),
                 "--out", str(calibrated)]) == 0

    notes = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\r\nlf", "", "é ü"]
    in_header = header + ["note"]
    in_rows = [r + [notes[i % len(notes)]] for i, r in enumerate(renamed)]
    data = workspace["dir"] / "quoted.csv"
    with open(data, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([in_header, *in_rows])
    out = workspace["dir"] / "quoted.scored.csv"
    assert main(["score", "--bundle", str(calibrated), "--data", str(data), "--out", str(out)]) == 0

    out_header, out_rows = dio.read_csv_rows(out)
    assert out_header == in_header + ["predicted_label", "score", "is_unknown"]
    assert len(out_rows) == len(in_rows)
    assert {"dos, syn", 'scan "slow"'} <= {r[-3] for r in out_rows}
    reference = io.StringIO(newline="")
    csv.writer(reference).writerows([out_header, *(r + o[-3:] for r, o in zip(in_rows, out_rows))])
    assert out.read_bytes() == reference.getvalue().encode("utf-8")

    # one file mixing lines numpy parses with records only csv can read (a
    # quoted multi-line cell, a bare quote, an empty cell, a control
    # character, a ragged row) and a 1_000 cell that numpy rejects; the
    # output must be what scoring the csv rows of extract_features writes
    lines = [",".join(r) for r in rows[:40]]
    lines[3] = lines[3].rsplit(",", 1)[0] + ',"dos, syn\nsecond line"'
    lines[5] = lines[5] + 'x"y'
    lines[7] = "," + lines[7].split(",", 1)[1]
    lines[9] = lines[9].replace(",", ",\x1f", 1)
    lines[11] = lines[11].rsplit(",", 1)[0]
    lines[13] = "1_000," + lines[13].split(",", 1)[1]
    mixed = workspace["dir"] / "mixed.csv"
    mixed.write_bytes(("\r\n".join([",".join(header), *lines]) + "\n").encode("utf-8"))
    m_header, m_rows = dio.read_csv_rows(mixed)
    features, kept, dropped = dio.extract_features(m_header, m_rows, header[:4])
    bundle_ = dio.load_bundle(calibrated)
    scored = osr.detect(osr.score(bundle_.params, bundle_.scaler.transform(features)), bundle_.threshold)
    reference = io.StringIO(newline="")
    csv.writer(reference).writerows([m_header + ["predicted_label", "score", "is_unknown"], *(
        m_rows[i] + [bundle_.params.class_names[k], repr(s), "true" if u else "false"]
        for i, k, s, u in zip(kept, scored.predicted.tolist(), scored.scores.tolist(), scored.is_unknown.tolist())
    )])
    out = workspace["dir"] / "mixed.scored.csv"
    assert main(["score", "--bundle", str(calibrated), "--data", str(mixed), "--out", str(out)]) == 0
    assert dropped == 3 and len(kept) == 37
    assert out.read_bytes() == reference.getvalue().encode("utf-8")


@pytest.mark.parametrize("seed", [None, 3])
def test_train_config_not_an_object_is_a_clear_error(workspace, capsys, seed):
    """A config that is not a JSON object, not JSON at all, or holds a
    non-finite or out-of-range number is an error naming the config file."""
    for name, text, message in [
        ("list.json", "[1]", "config must be a JSON object, not list"),
        ("bad.json", "{bad", "not valid JSON (Expecting property name enclosed in double quotes"),
        ("nan.json", '{"lr": NaN}', "lr must be finite, got nan"),
        ("range.json", '{"dropout_rate": 1}', "dropout_rate must lie in [0, 1)"),
        ("seed.json", '{"seed": -1}', "seed must be >= 0, got -1"),
    ]:
        config = workspace["dir"] / name
        config.write_text(text)
        argv = ["train", "--data", workspace["data"], "--roles", workspace["roles"], "--config", str(config),
                "--out", workspace["bundle"]]
        assert main(argv + (["--seed", str(seed)] if seed is not None else [])) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: ") and message in err
        assert not (workspace["dir"] / "model.bundle").exists()


def test_train_negative_seed_names_the_flag(workspace, capsys):
    argv = ["train", "--data", workspace["data"], "--roles", workspace["roles"], "--out", workspace["bundle"]]
    assert main(argv + ["--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: --seed: seed must be >= 0, got -1\n"
    assert not (workspace["dir"] / "model.bundle").exists()


@pytest.mark.parametrize("command, flag", [("train", "config"), ("train", "roles"), ("calibrate", "roles"),
                                           ("eval", "roles")])
def test_json_file_not_utf8_is_a_clear_error(workspace, capsys, command, flag):
    """A --config or --roles file holding a byte that is not UTF-8 stops
    the command, naming the file and the byte's offset, before it writes
    anything."""
    if command != "train":
        assert run_train(workspace) == 0 and run_calibrate(workspace) == 0
    bad = workspace["dir"] / "cp1252.json"
    bad.write_bytes(b'{"epochs": "\x96"}')
    out = workspace["dir"] / "out"
    inputs = {"data": workspace["data"], "roles": workspace["roles"], flag: str(bad)}
    argv = {
        "train": ["train", "--config", inputs.get("config", workspace["config"]), "--out", str(out)],
        "calibrate": ["calibrate", "--bundle", workspace["bundle"], "--out", str(out)],
        "eval": ["eval", "--bundle", workspace["calibrated"], "--report", str(out)],
    }[command]
    capsys.readouterr()
    assert main(argv + ["--data", inputs["data"], "--roles", inputs["roles"]]) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: byte 0x96 at byte offset 12 is not UTF-8; re-encode the file as UTF-8\n"
    )
    assert not list(workspace["dir"].glob("out*"))


@pytest.mark.parametrize("command", ["train", "calibrate", "eval"])
def test_no_known_rows_is_a_clear_error(workspace, capsys, command):
    """A file holding only unknown-class rows stops each command before
    it writes anything, naming the file and the roles key to check."""
    header, rows = dio.read_csv_rows(workspace["data"])
    data = workspace["dir"] / "unknown_only.csv"
    with open(data, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *(r for r in rows if r[4] in ("nov_val", "nov_test"))])
    if command != "train":
        assert run_train(workspace) == 0 and run_calibrate(workspace) == 0
    out = workspace["dir"] / "out"
    inputs = ["--data", str(data), "--roles", workspace["roles"]]
    argv = {
        "train": ["train", *inputs, "--config", workspace["config"], "--out", str(out)],
        "calibrate": ["calibrate", "--bundle", workspace["bundle"], *inputs, "--out", str(out)],
        "eval": ["eval", "--bundle", workspace["calibrated"], *inputs, "--report", str(out)],
    }[command]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: no known samples in {data}; check the known classes in {workspace['roles']}\n"
    )
    assert not list(workspace["dir"].glob("out*"))


UNSW_NB15_HEADER = (
    "id,dur,proto,service,state,spkts,dpkts,sbytes,dbytes,rate,sttl,dttl,sload,dload,sloss,dloss,sinpkt,dinpkt,"
    "sjit,djit,swin,stcpb,dtcpb,dwin,tcprtt,synack,ackdat,smean,dmean,trans_depth,response_body_len,ct_srv_src,"
    "ct_state_ttl,ct_dst_ltm,ct_src_dport_ltm,ct_dst_sport_ltm,ct_dst_src_ltm,is_ftp_login,ct_ftp_cmd,"
    "ct_flw_http_mthd,ct_src_ltm,ct_srv_dst,is_sm_ips_ports,attack_cat,label"
)


def _unsw_nb15_csv(tmp_path):
    """64 rows under the published UNSW-NB15 training/testing header, with
    text cells in proto, service and state."""
    classes = ["Normal", "Analysis", "Backdoor", "DoS", "Generic", "Worms", "Fuzzers", "Exploits"]
    text = [("tcp", "-", "FIN"), ("udp", "dns", "INT"), ("tcp", "http", "CON"), ("arp", "-", "INT")]
    lines = [UNSW_NB15_HEADER]
    for i in range(64):
        k = i % len(classes)
        proto, service, state = text[i % len(text)]
        numbers = ",".join(str((3 * k + j + i % 5) % 11) for j in range(38))
        lines.append(f"{i + 1},0.{i:06d},{proto},{service},{state},{numbers},{classes[k]},{int(k > 0)}")
    data = tmp_path / "unsw_nb15.csv"
    data.write_text("\n".join(lines) + "\n")
    return data


def test_unsw_nb15_preset_reads_the_published_columns(tmp_path):
    """A file with the published UNSW-NB15 training/testing header and
    text cells in proto, service and state runs through train, calibrate
    and eval with the unedited preset; neither the row id nor the binary
    attack flag is a feature."""
    data = _unsw_nb15_csv(tmp_path)
    roles = str(dio.preset_roles_path("unsw_nb15"))
    config = tmp_path / "train.json"
    config.write_text(json.dumps({"epochs": 2, "hidden_dims": [8, 8], "embed_dim": 4}))
    bundle, cal = tmp_path / "model.bundle", tmp_path / "model.cal.bundle"
    assert main(["train", "--data", str(data), "--roles", roles, "--config", str(config), "--out", str(bundle)]) == 0
    names = dio.load_bundle(bundle).feature_names
    assert len(names) == 39 and not {"id", "label", "attack_cat", "proto", "service", "state"} & set(names)
    assert names == tuple(h for h in UNSW_NB15_HEADER.split(",") if h in names)
    assert main(["calibrate", "--bundle", str(bundle), "--data", str(data), "--roles", roles, "--out", str(cal)]) == 0
    assert main(["eval", "--bundle", str(cal), "--data", str(data), "--roles", roles,
                 "--report", str(tmp_path / "report.json")]) == 0


def test_unsw_nb15_with_every_column_names_the_first_drop(tmp_path, capsys, caplog):
    """With the unsw_nb15 preset's "feature_names" set to null, every
    column but the label is a feature, text columns too, so every row
    drops; one more warning names the line, column and cell that dropped
    the first row, and the drop warning and the error stay as they were."""
    data = _unsw_nb15_csv(tmp_path)
    preset = json.loads(dio.preset_roles_path("unsw_nb15").read_text())
    roles = tmp_path / "all_columns_roles.json"
    roles.write_text(json.dumps({**preset, "feature_names": None}))
    config = tmp_path / "train.json"
    config.write_text(json.dumps({"epochs": 1}))
    assert main(["train", "--data", str(data), "--roles", str(roles), "--config", str(config),
                 "--out", str(tmp_path / "model.bundle")]) == 1
    assert capsys.readouterr().err == f"error: {data}: no usable records\n"
    assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == [
        f"{data}: dropped 64 rows with missing or non-finite features",
        f"{data}: line 2: column 'proto' holds 'tcp', which is not a number",
    ]


# ---------------------------------------------------------------------------
# outputs: checked before any input is read, and never left half-written


OUT_FLAG = {"train": "out", "calibrate": "out", "eval": "report", "score": "out"}


def _argv(command, inputs, out):
    flags = [a for flag, path in inputs.items() for a in (f"--{flag}", path)]
    return [command, *flags, f"--{OUT_FLAG[command]}", str(out)]


@pytest.mark.parametrize("command", ["train", "calibrate", "eval", "score"])
@pytest.mark.parametrize("parent, why", [("missing", "does not exist"), ("flows.csv", "is not a directory")])
def test_output_directory_is_checked_before_any_input_is_read(workspace, capsys, command, parent, why):
    """No input exists, so the error shows that none was read first."""
    inputs = {flag: str(workspace["dir"] / f"absent.{flag}") for flag in COMMAND_INPUTS[command]}
    out_dir = workspace["dir"] / parent
    assert main(_argv(command, inputs, out_dir / "result")) == 1
    assert capsys.readouterr().err == f"error: --{OUT_FLAG[command]} {out_dir / 'result'}: directory {out_dir} {why}\n"


@pytest.mark.parametrize("command", ["train", "score"])
@pytest.mark.parametrize("value", ["verbose", "basic_format", "Root"])
def test_an_unknown_log_level_stops_the_command_before_any_input_is_read(
    workspace, capsys, monkeypatch, command, value
):
    """RPMNET_LOG names one of five levels; any other value, also a name
    the logging module holds that is no level, is an error, not a silent
    warning level or a traceback.  No input exists, so none was read."""
    monkeypatch.setenv("RPMNET_LOG", value)
    inputs = {flag: str(workspace["dir"] / f"absent.{flag}") for flag in COMMAND_INPUTS[command]}
    out = workspace["dir"] / "result"
    assert main(_argv(command, inputs, out)) == 1
    assert capsys.readouterr().err == (
        f"error: RPMNET_LOG={value!r} is not a log level; use debug, info, warning, error or critical\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "command, suffix",
    [
        ("train", ""),
        ("train", ".history.txt"),
        ("train", ".manifest.json"),
        ("calibrate", ""),
        ("calibrate", ".manifest.json"),
        ("eval", ""),
        ("eval", ".manifest.json"),
        ("score", ""),
        ("score", ".manifest.json"),
    ],
)
def test_failed_write_keeps_the_previous_file(workspace, capsys, fail_writes, command, suffix):
    """A write that fails once its temp file is open (the bundle, the
    history, the report, the scored CSV or a manifest) gives rc 1 naming
    that file and leaves no temp file.  The command's outputs are one
    commit: every one of them keeps its previous bytes, whichever write
    failed, and no summary is printed."""
    run_train(workspace)
    run_calibrate(workspace)
    capsys.readouterr()
    inputs = {flag: workspace[key] for flag, key in COMMAND_INPUTS[command].items()}
    out = workspace["dir"] / "result"
    written = ["", ".history.txt", ".manifest.json"] if command == "train" else ["", ".manifest.json"]
    previous = {s: f"previous output{s}\n".encode() for s in written}
    for s, data in previous.items():
        (workspace["dir"] / f"result{s}").write_bytes(data)
    kept = fail_writes(workspace["dir"] / f"result{suffix}")
    assert main(_argv(command, inputs, out)) == 1
    captured = capsys.readouterr()
    kept(captured.err)
    assert {s: (workspace["dir"] / f"result{s}").read_bytes() for s in written} == previous
    assert captured.out == ""


def test_train_past_a_file_size_limit_keeps_the_previous_bundle(workspace):
    """A child ``rpmnet train`` whose bundle write passes RLIMIT_FSIZE
    (SIGXFSZ ignored, so the write fails with EFBIG) exits 1 naming the
    bundle and leaves the previous bundle (of another seed) byte-identical
    and loadable."""
    resource = pytest.importorskip("resource")
    assert run_train(workspace) == 0
    bundle = workspace["dir"] / "model.bundle"
    before = bundle.read_bytes()
    limit = len(before) // 2

    def limit_file_size():
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

    src = str(Path(cli.__file__).resolve().parents[1])
    argv = ["train", "--data", workspace["data"], "--roles", workspace["roles"], "--config", workspace["config"],
            "--out", str(bundle), "--seed", "6"]
    child = subprocess.run(
        [sys.executable, "-m", "rpmnet.cli", *argv],
        env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
        preexec_fn=limit_file_size,
        capture_output=True,
        text=True,
    )
    assert child.returncode == 1, child.stderr
    assert child.stderr == f"error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: '{bundle}'\n"
    assert bundle.read_bytes() == before
    assert not list(workspace["dir"].glob("*.tmp"))
    dio.load_bundle(bundle)


def test_train_bytes_do_not_depend_on_blas_threads(tmp_path):
    """`rpmnet train` with the default architecture writes the same bundle
    and history with 1 and with 2 BLAS threads: each epoch's accuracy pass
    runs beside the next epoch's steps on a copy of the parameters, and
    no product changes shape with the thread count.  The products here
    are large enough for OpenBLAS to split them over threads."""
    rng = np.random.default_rng(17)
    ds = gaussian_clusters(rng.normal(size=(3, 40)), [160, 160, 160], 1.0, rng, class_names=["a", "b", "c"])
    data, roles, config = tmp_path / "flows.csv", tmp_path / "roles.json", tmp_path / "train.json"
    dio.save_csv(data, ds)
    roles.write_text(json.dumps({"known": ["a", "b", "c"]}))
    config.write_text(json.dumps({"epochs": 3}))
    src = str(Path(cli.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.bundle"
        env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1",
               **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads)}
        child = subprocess.run(
            [sys.executable, "-m", "rpmnet.cli", "train", "--data", str(data), "--roles", str(roles),
             "--config", str(config), "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert child.returncode == 0, child.stderr
        outputs.append((out.read_bytes(), Path(f"{out}.history.txt").read_bytes()))
    assert outputs[0] == outputs[1]
