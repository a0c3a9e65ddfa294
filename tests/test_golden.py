"""The five scenario maps of scripts/run_all_scenarios.py, byte for byte.

tests/data/golden_digests.json holds, for each scenario's sweep.csv and
summary.txt at the default grid (29 FOVs x 13 source levels, 10 patches/m),
the sha256 of the file and an 8-hex-digit sha256 prefix of each of its
lines, so a mismatch names the first line that moved.  The digests were
recorded on x86-64 Linux with glibc's libm, Python 3.11 and numpy 2.4.  The
maps come from numpy's ufuncs, whose SIMD kernels (the key rate's exp and
log2 among them) numpy picks by CPU feature, and from Python's math module,
which calls the C library's libm; another CPU, numpy or libm may round in
the last place and move a printed digit.
tests/data/golden_host.json records numpy's version and the dispatch
features it found on the recording host (``numpy_host``); when the maps
differ and this host's record differs too, the failure names both.  A
change that moves numbers on purpose records new digests and a new host
record, and lists the moved values in CHANGES.md.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "data" / "golden_digests.json").read_text())
RECORDING_HOST = json.loads((ROOT / "tests" / "data" / "golden_host.json").read_text())


def numpy_host() -> dict:
    """numpy's version and the SIMD targets it dispatches to on this CPU."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return {"numpy": np.__version__, "cpu_dispatch": [name for name in __cpu_dispatch__ if __cpu_features__[name]]}


@pytest.fixture(scope="module")
def maps(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_all_scenarios.py"), "--out", str(out)],
        check=True, capture_output=True, env=env,
    )
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_map_bytes_unchanged(maps, name):
    data = (maps / name).read_bytes()
    golden = GOLDEN[name]
    if hashlib.sha256(data).hexdigest() == golden["sha256"]:
        return
    lines = data.split(b"\n")
    rows = golden["rows"].split()
    message = next(
        (
            f"{name}: line {number} differs from the recorded map; it now reads\n{line.decode()}"
            for number, (line, row) in enumerate(zip(lines, rows), start=1)
            if hashlib.sha256(line).hexdigest()[:8] != row
        ),
        f"{name}: {len(lines)} lines against {len(rows)} recorded",
    )
    host = numpy_host()
    if host != RECORDING_HOST:
        message += f"\nthe digests were recorded with {RECORDING_HOST}; this host has {host}"
    pytest.fail(message)
