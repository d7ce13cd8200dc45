"""Per-layer self time and share of wall time from a span trace.

    python3 perfbench/shares.py TRACE.jsonl [--max-level K]

TRACE.jsonl is a file written by a traced run (``run.py --trace 1`` puts
them under ``.perfbench/``). With ``--max-level K`` only levels 0..K of
each convergence loop are counted, which reads a shorter run out of a
longer one: levels 0..5 of ``lshape_uniform`` are the 61696-dof uniform
L-shape run (max_ndof 65000), the next mesh built in level 5 included.
"""

import argparse
import json
from collections import defaultdict


def shares(spans, max_level=None):
    """Return (wall_s, {span name: self seconds}) over the selected levels."""
    by_id = {s["span"]: s for s in spans}

    def selected(s):
        while s["name"] != "level":
            if s["parent"] is None:
                return max_level is None  # outside every level
            s = by_id[s["parent"]]
        return max_level is None or s["level"] <= max_level

    totals = defaultdict(float)
    for s in spans:
        if selected(s):
            totals[s["name"]] += s["self_s"]
    if max_level is None:
        wall = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    else:
        wall = sum(
            s["end"] - s["start"] for s in spans
            if s["name"] == "level" and s["level"] <= max_level
        )
    return wall, dict(totals)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("trace")
    ap.add_argument("--max-level", type=int)
    args = ap.parse_args()
    with open(args.trace) as fh:
        spans = [r for r in map(json.loads, fh) if "span" in r]
    wall, totals = shares(spans, args.max_level)
    print(f"wall {wall:.3f} s")
    for name, sec in sorted(totals.items(), key=lambda kv: -kv[1]):
        print(f"{name:28s} {sec:8.3f} s {100 * sec / wall:6.1f} %")


if __name__ == "__main__":
    main()
