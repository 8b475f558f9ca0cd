"""The benchmark's tracer wraps rpmnet functions by name; a rename in
the package must fail here, not only in a traced benchmark run."""
import importlib.util
from pathlib import Path

import rpmnet.cli as cli
import rpmnet.model as mdl

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_wraps_every_name_it_expects():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = cli.cmd_train, cli.train, mdl.class_distances
    tracer = tracing.Tracer("tier-1")
    try:
        tracing.install_rpmnet(tracer)
        assert cli.cmd_train is not originals[0] and mdl.class_distances is not originals[2]
    finally:
        tracer.uninstall()
    assert (cli.cmd_train, cli.train, mdl.class_distances) == originals
