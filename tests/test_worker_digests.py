"""The benchmark worker's output digests, pinned.

`perfbench/worker.py --passes 2` runs a fixed number of passes of each
workload, so its outputs, and the SHA-256 digest of them that it prints,
repeat exactly for a seed.  The digests cover 201-point tables and
residual scans, beyond the grids of the golden stdout file, and were the
same on Python 3.10 to 3.13.  A change to the workloads changes them;
update the constants with it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DIGESTS = {
    "moderate-grid": "2059aeab87909e6e1864994e74f8236b1966156ea99baafac5421cb7cecab686",
    "concentrated-cdf": "a4b0a565d6d32bb8c9fe62f4c3a235dc02a8ff62f0a0c82c3c00e68790b8cab5",
    "point-queries": "cd40a826100c9c870ffc13f23d6695b754c9c1dd620d2c7fe0081e5709291976",
}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_worker_output_digest(workload):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    argv = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
            "--workload", workload, "--seed", "1", "--passes", "2"]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    summary = json.loads(out.stdout.splitlines()[-1])
    assert summary["failed"] == 0, summary["failures"]
    assert summary["output_sha256"] == DIGESTS[workload]
