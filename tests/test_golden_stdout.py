"""Golden stdout: each command in golden_stdout.json, rerun in process
through `circbridge.cli.run`, exits with the recorded code and prints the
recorded stdout byte for byte.

The recorded bytes depend on the platform libm's exp, sin and erfc; they
were taken with glibc.  A change that moves printed digits on purpose
rewrites the file in the same commit, and the diff shows which lines moved:

    PYTHONPATH=src python tests/test_golden_stdout.py --write

Without --write the script runs the same comparison without pytest and
exits 1 on any mismatch.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from circbridge.cli import run

GOLDEN = Path(__file__).with_name("golden_stdout.json")


def rerun(argv):
    """(exit code, stdout lines) of one in-process run; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, out.getvalue().splitlines(keepends=True)


def cases():
    return json.loads(GOLDEN.read_text())


def test_stdout_matches_golden():
    for case in cases():
        assert rerun(case["argv"]) == (case["exit"], case["stdout"]), case["argv"]


def main(argv):
    records = cases()
    if argv == ["--write"]:
        for case in records:
            case["exit"], case["stdout"] = rerun(case["argv"])
        GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
        return 0
    bad = [case["argv"] for case in records if rerun(case["argv"]) != (case["exit"], case["stdout"])]
    for case_argv in bad:
        print("mismatch:", " ".join(case_argv))
    print("%d of %d commands match" % (len(records) - len(bad), len(records)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
