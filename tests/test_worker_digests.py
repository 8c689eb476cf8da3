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
    "moderate-grid": "50f4a93c4ecc743d3b3819c7baceb474843c4d1d425eda317e73184151ea6d52",
    "concentrated-cdf": "bcfd4171c371bc1fa7ca6c249df721f75cc1b9400e6524795902ef2e21897360",
    "point-queries": "f714451c5f6e8151953f0917efeaecbdcfa1f6782bb19694286350657075154c",
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
