#!/usr/bin/env python3
"""Compare two benchmark records written by run.py to perfbench/out/.

    python3 perfbench/compare.py OLD.json NEW.json

Prints each metric of both records and the relative change.  Refuses
(exit 1) to compare records of different workloads or trace modes, or
taken on a different kernel backend or Python build: the compiled
kernels run 10-70x faster than the pure-Python ones, and such a
comparison would read as a gain of the code.
"""

import json
import sys

MUST_MATCH = ("backend", "python", "implementation")


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = (_load(path) for path in argv)
    for key in ("workload", "trace"):
        if old[key] != new[key]:
            print("refused: %s differs (%r vs %r)" % (key, old[key], new[key]), file=sys.stderr)
            return 1
    for key in MUST_MATCH:
        a, b = old["provenance"][key], new["provenance"][key]
        if a != b:
            print("refused: provenance %s differs (%r vs %r)" % (key, a, b), file=sys.stderr)
            return 1
    m_old = old["full" if old["trace"] else "metrics"]
    m_new = new["full" if new["trace"] else "metrics"]
    print("%-46s %14s %14s %9s" % ("metric", "old", "new", "change"))
    for name in m_old:
        if name not in m_new:
            continue
        a, b = m_old[name]["value"], m_new[name]["value"]
        change = "%+8.1f%%" % (100.0 * (b - a) / a) if a else "-"
        print("%-46s %14.6g %14.6g %9s %s" % (name, a, b, change, m_old[name]["unit"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
