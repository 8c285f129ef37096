"""qrot benchmark: one honest OT session, or one optimizer call, per op.

Usage (from the repository root):

    python3 perfbench/run.py --workload desk-trivial --seed 1 --seconds 20 --trace 0

Workloads: desk-trivial, desk-ldpc, scale-ldpc, optimize (see README.md).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps every layer
from outside and prints the per-layer metrics with the tracing overhead.

Every workload runs in fresh worker processes (``worker.py``). With
``--trace 0``, SETUP_SAMPLES workers each time set-up (process start to the
end of one untimed warm-up op) and the last of them also runs the timed
closed loop. A run record (versions, kernel backend, git SHA) is written to
``perfbench/out/``; the last stdout line is the result JSON object. Any failed
op or output check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 3
RUN_TIMEOUT = 170.0  # whole run, all workers


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    """Run one worker process to completion; returns its JSON plus setup_s."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker ({mode}) passed the {RUN_TIMEOUT} s run limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker ({mode}) exited {proc.returncode}:\n{proc.stderr.strip()}")
    out = json.loads(lines[-1])
    out["setup_s"] = out["setup_done"] - started
    return out


def versions() -> dict:
    import importlib.metadata as md

    found = {"python": platform.python_version()}
    for pkg in ("numpy", "cryptography"):
        try:
            found[pkg] = md.version(pkg)
        except md.PackageNotFoundError:
            found[pkg] = None
    return found


def git_sha() -> str | None:
    """HEAD of the checkout, read from its own .git; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def end_to_end(workers: list[dict]) -> dict:
    timed = workers[-1]
    ops = timed["op_s"]
    return {
        "op_s.p50": {"value": statistics.median(ops) if ops else 0.0, "unit": "s"},
        "ops_per_s": {"value": len(ops) / timed["wall_s"], "unit": "1/s"},
        "peak_rss_mb": {"value": timed["peak_rss_mb"], "unit": "MB"},
        "setup_s": {"value": statistics.median(w["setup_s"] for w in workers),
                    "unit": "s"},
    }


def per_layer(worker: dict) -> dict:
    units = {".s": "s", "_frac": "ratio", "bytes": "B"}
    out = {}
    for name, value in worker["layers"].items():
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + RUN_TIMEOUT
    modes = ["trace"] if args.trace else ["setup"] * (SETUP_SAMPLES - 1) + ["time"]
    try:
        workers = [spawn(args.workload, args.seed, args.seconds, mode, deadline)
                   for mode in modes]
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    metrics = per_layer(workers[0]) if args.trace else end_to_end(workers)

    attempted = sum(w["attempted"] for w in workers)
    errors = [e for w in workers for e in w["errors"]]
    timed = workers[-1]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "backend": timed["backend"], "git_sha": git_sha(),
        "versions": versions(), "nproc": len(os.sched_getaffinity(0)),
        "attempted": attempted, "failed": len(errors),
        "fail_frac": len(errors) / attempted, "errors": errors[:20],
        "metrics": metrics,
    }
    if not args.trace:
        ops = sorted(timed["op_s"])
        record["op_count"] = len(ops)
        # p90 only where at least ten ops lie beyond it
        if len(ops) >= 100:
            record["op_s.p90"] = statistics.quantiles(ops, n=10)[-1]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(timed["spans"]))
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)

    print(json.dumps({k: record[k] for k in ("workload", "backend", "git_sha",
                                              "nproc", "fail_frac", "versions")}))
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": len(errors), "metrics": metrics}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
