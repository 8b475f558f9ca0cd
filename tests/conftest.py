import errno
import os

import numpy as np
import pytest

import rpmnet.dataio as dio


def finite_difference(f, arrays, h=1e-5):
    """Central finite differences of the scalar ``f()`` w.r.t. each array.

    ``f`` must recompute from the (temporarily mutated) arrays on every
    call; this is the independent oracle the analytic gradients are
    checked against.
    """
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        it = np.nditer(a, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            old = a[ix]
            a[ix] = old + h
            fp = f()
            a[ix] = old - h
            fm = f()
            a[ix] = old
            g[ix] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def max_rel_err(analytic, numeric, floor=1.0):
    """Worst elementwise |a - n| / max(|a|, |n|, floor)."""
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    denom = np.maximum.reduce([np.abs(analytic), np.abs(numeric), np.full_like(analytic, floor)])
    return float(np.max(np.abs(analytic - numeric) / denom)) if analytic.size else 0.0


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)



@pytest.fixture
def fail_writes(monkeypatch):
    """``fail_writes(target)`` makes each write to the temp file that a
    ``dio.atomic_outputs`` group opens for ``target`` fail with EFBIG, as
    a file-size limit or a full disk would, once the file is open.  It
    returns a check of an error message: ``target`` still holds the bytes
    it held before, no temp file is left beside it, and the message names
    ``target``, not its temp file."""
    real_open = open

    def efbig(data):
        raise OSError(errno.EFBIG, os.strerror(errno.EFBIG))

    def install(target):
        tmp, before = f"{target}.{os.getpid()}.tmp", target.read_bytes()

        def failing_open(file, *args, **kwargs):
            fh = real_open(file, *args, **kwargs)
            if str(file) == tmp:
                fh.write = efbig
            return fh

        def check(message):
            assert target.read_bytes() == before
            assert not list(target.parent.glob("*.tmp"))
            assert f"[Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: '{target}'" in message
            assert ".tmp" not in message

        monkeypatch.setattr(dio, "open", failing_open, raising=False)
        return check

    return install
