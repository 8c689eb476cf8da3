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
    "moderate-grid": "8a0e51773489980cf2ea342f3059edd8b82f13de23ba66aa4ed12ec43ab9f5e6",
    "concentrated-cdf": "3ed6426bdbfdd8d9d45f4f2673748ab7aa0635e7d0cf474baf8eac775b1be54f",
    "point-queries": "0a06f0c2a98da8839decefbe14d3736d7900dcdc7b91037b190f73b3bb380028",
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
