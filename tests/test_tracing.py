"""The benchmark's tracer wraps rpmnet functions by name; a rename in
the package must fail here, not only in a traced benchmark run."""
import importlib.util
from pathlib import Path

import rpmnet.cli as cli
import rpmnet.model as mdl
from test_acceptance import _cli_fixture

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_wraps_every_name_it_expects():
    tracing = load_tracing()
    originals = cli.cmd_train, cli.train, mdl.class_distances
    tracer = tracing.Tracer("tier-1")
    try:
        tracing.install_rpmnet(tracer)
        assert cli.cmd_train is not originals[0] and mdl.class_distances is not originals[2]
    finally:
        tracer.uninstall()
    assert (cli.cmd_train, cli.train, mdl.class_distances) == originals


def test_traced_calibrate_and_eval_run(tmp_path):
    """calibrate and eval run under the tracer, whose notes read what the
    wrapped functions return, and record the spans the benchmark reads."""
    tracing = load_tracing()
    data, roles, config = _cli_fixture(tmp_path)
    bundle, cal = str(tmp_path / "model.bundle"), str(tmp_path / "model.cal.bundle")
    assert cli.main(["train", "--data", str(data), "--roles", str(roles), "--config", str(config),
                     "--out", bundle]) == 0
    tracer = tracing.Tracer("tier-1")
    try:
        tracing.install_rpmnet(tracer)
        assert cli.main(["calibrate", "--bundle", bundle, "--data", str(data), "--roles", str(roles),
                         "--out", cal]) == 0
        assert cli.main(["eval", "--bundle", cal, "--data", str(data), "--roles", str(roles),
                         "--report", str(tmp_path / "report.json")]) == 0
    finally:
        tracer.uninstall()
    names = {s.name for s in tracer.spans}
    for name in ("dataio.make_split", "openset.score", "model.class_distances", "metrics.evaluate"):
        assert name in names, name
    # both commands score every row of the 190-row fixture
    assert sum(s.attrs["rows"] for s in tracer.spans if s.name == "openset.score") == 2 * 190
    assert tracing.layer_metrics(tracer.spans)["openset.calibrate.candidates"] > 0
