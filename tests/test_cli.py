import json

import numpy as np
import pytest

import rpmnet.dataio as dio
from rpmnet.cli import main
from rpmnet.synthetic import gaussian_clusters


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
