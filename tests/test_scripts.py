"""The demos in ``scripts/`` run end to end from a source checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("name", ["orbit_demo.py", "witness_tour.py", "draw_skeletons.py"])
def test_script_runs(tmp_path, name):
    args = ("--outdir", str(tmp_path)) if name == "draw_skeletons.py" else ()
    proc = run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    if name == "witness_tour.py":
        lines = proc.stdout.splitlines()
        assert len(lines) == 6
        assert all("steps=" in line and "no record" not in line for line in lines)
    if name == "draw_skeletons.py":
        for m in range(1, 5):
            assert (tmp_path / f"skeleton-m{m}.svg").is_file()
