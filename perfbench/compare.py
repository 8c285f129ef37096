"""Compare the benchmark run records of two commits, workload by workload.

    python3 perfbench/compare.py --base old/*.json --new new/*.json

Records are the JSON files ``run.py`` writes to ``perfbench/out/``. For each
workload, trace mode and metric, prints each side's median and quartiles over
its records and the change of the medians; an end-to-end metric that got
worse by more than its bound in ``BENCHMARK.json`` is marked REGRESSED.

Refuses to compare (exit 2) when the records' kernel backends differ: the
compiled and pure kernels are different programs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths: list[str]) -> dict:
    """Records grouped by (workload, trace); span dumps are skipped."""
    groups = defaultdict(list)
    for path in paths:
        rec = json.loads(Path(path).read_text())
        if isinstance(rec, dict) and "metrics" in rec:
            groups[(rec["workload"], rec["trace"])].append(rec)
    return groups


def summary(values: list[float]) -> str:
    med = statistics.median(values)
    if len(values) < 2:
        return f"{med:.6g} (n=1)"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] (n={len(values)})"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)

    base, new = load(args.base), load(args.new)
    backends = {r["backend"] for g in (base, new) for recs in g.values() for r in recs}
    if len(backends) > 1:
        print(f"refusing to compare records of different kernel backends: "
              f"{sorted(backends)}", file=sys.stderr)
        return 2
    bounds = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}

    for key in sorted(base.keys() & new.keys()):
        print(f"{key[0]} (trace {key[1]})")
        for name in base[key][0]["metrics"]:
            b = [r["metrics"][name]["value"] for r in base[key]]
            n = [r["metrics"][name]["value"] for r in new[key] if name in r["metrics"]]
            if not n:
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            change = mn / mb - 1.0 if mb else float("nan")
            verdict = ""
            if name in bounds:
                worse = change if bounds[name]["better"] == "lower" else -change
                verdict = "REGRESSED" if worse > bounds[name]["bound"] else "within bound"
            print(f"  {name:40s} base {summary(b)}  new {summary(n)}  "
                  f"{change:+.1%} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
