#!/usr/bin/env python3
"""Compare benchmark records of two commits; refuse differing corpora.

    python3 perfbench/compare.py BEFORE AFTER

BEFORE and AFTER are record files written by run.py (.perfbench/*.json), or
directories holding them. Records are grouped by workload and trace mode.
A workload's corpus does not depend on --seed, so when any two records of
one workload, on either side and whatever their seeds, differ in corpus
fingerprint, workload parameters or solver configuration, the comparison
is refused with exit code 2: a changed corpus or budget is never read as
a speed-up. Otherwise each metric's
median on both sides, the change of the median and the quartile spread of
each side (as a share of its median) are printed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median, quantiles


def load(path) -> list[dict]:
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def corpus_conflicts(before: list[dict], after: list[dict]) -> list[str]:
    """Workloads whose records do not all share one corpus fingerprint,
    workload parameters and solver configuration."""
    identities: dict[str, set[str]] = {}
    for r in before + after:
        identity = json.dumps([r["fingerprint"], r["params"], r["config"]], sort_keys=True)
        identities.setdefault(r["workload"], set()).add(identity)
    return sorted(w for w, seen in identities.items() if len(seen) > 1)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = load(args[0]), load(args[1])
    conflicts = corpus_conflicts(before, after)
    if conflicts:
        print("refused: records ran on different corpora, parameters or configurations for "
              + ", ".join(conflicts), file=sys.stderr)
        return 2
    groups = sorted({(r["workload"], r["trace"]) for r in before}
                    & {(r["workload"], r["trace"]) for r in after})
    if not groups:
        print("refused: no workload and trace mode common to both sides", file=sys.stderr)
        return 2
    for workload, trace in groups:
        b = [r for r in before if (r["workload"], r["trace"]) == (workload, trace)]
        a = [r for r in after if (r["workload"], r["trace"]) == (workload, trace)]
        print(f"{workload} trace={trace}: {len(b)} before, {len(a)} after"
              + ("  (a record reports problems)" if any(r["problems"] for r in a + b) else ""))
        print(f"  {'metric':34s} {'before':>12s} {'after':>12s} {'change':>8s} "
              f"{'spread b':>8s} {'spread a':>8s}")
        for name in b[0]["metrics"]:
            bv = [r["metrics"][name] for r in b if name in r["metrics"]]
            av = [r["metrics"][name] for r in a if name in r["metrics"]]
            if not av:
                continue
            mb, ma = median(bv), median(av)
            change = f"{(ma - mb) / mb:+8.2%}" if mb else f"{'n/a':>8s}"
            print(f"  {name:34s} {mb:12.6g} {ma:12.6g} {change} "
                  f"{spread(bv):8.2%} {spread(av):8.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
