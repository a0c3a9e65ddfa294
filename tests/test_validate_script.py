"""scripts/validate_reflection_gain.py ends every input in a table or a usage error."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "validate_reflection_gain.py"), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_cone_no_ray_lands_in_prints_a_dash_for_the_gap():
    # 1,000 rays put none in a 0.05 degree cone; the 20 degree cone gets some
    result = run_script("--fov", "0.05", "0.07", "20", "--samples", "1000")
    assert result.returncode == 0, result.stderr
    header, narrow, _, wide = result.stdout.splitlines()
    assert header.split()[-2:] == ["mc", "gap"]
    # each FOV as it was given, so 0.05 and 0.07 read apart
    assert [line.split()[0] for line in result.stdout.splitlines()[1:]] == ["0.05", "0.07", "20"]
    assert float(narrow.split()[2]) == 0.0
    assert narrow.split()[-1] == "-"
    assert wide.split()[-1].endswith("%")


@pytest.mark.parametrize("args, named", [
    (("--samples", "0"), "--samples"),
    (("--samples", "-5"), "--samples"),
    (("--samples", "1000", "--resolution", "0"), "--resolution"),
    (("--samples", "1000", "--resolution", "1001"), "--resolution"),
    (("--samples", "9223372036854775808"), "--samples"),
    (("--samples", "1000", "--seed", "-1"), "--seed"),
    (("--samples", "1000", "--fov", "0"), "--fov"),
    (("--samples", "1000", "--fov", "20", "nan"), "--fov"),
])
def test_bad_argument_is_a_usage_error(args, named):
    result = run_script(*args)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert f"argument {named}" in result.stderr
    assert result.stdout == ""
