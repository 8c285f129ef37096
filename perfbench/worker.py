"""One benchmark process: build one workload's inputs, warm up, time ops.

``run.py`` starts this script in a fresh interpreter per workload, so peak
RSS and module-level caches (``recon._code_structure``'s lru_cache) cannot
leak between workloads. The cache is not cleared: sender and receiver share
it inside one process, which the traced run shows as
``recon.code_structure.builds``.

Each workload is a closed loop in one thread: the next op starts when the
previous one returns. Op ``i`` of a session workload is
``protocol.run_session`` on session seed ``seed + i``; op 0 is the untimed
warm-up. Every op's output is checked; a failed check counts as a failed op.

Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
import types
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("desk-trivial", "desk-ldpc", "scale-ldpc", "optimize")
RSS_AFTER_OP = 2

# rates.n_crit calls of the optimize workload and the exact (n_crit, alpha,
# delta1, delta2) they return at the seed commit: the criterion-3 reference
# point, then the seven points rates.emit_fig4 evaluates (p_max 0.01, f 1.2,
# n_target 128, grid (5, 6, 4), eps 1e-3 ... 1e-9).
_FIG4_POINT = (0.35000000000000003, 0.014183256527808193, 0.003796296296296296)
OPTIMIZE_CALLS = [
    ((1e-7, 0.0114, 1.0, 3.67e-3, 128), {},
     (1916460, 0.33571428571428574, 0.015237843642241873, 0.004535555555555555)),
] + [
    ((10.0 ** -e, 0.01, 1.2), {"p_multi": 0.0, "n_target": 128, "grid": (5, 6, 4)},
     (n,) + ((0.325,) + _FIG4_POINT[1:] if e >= 8 else _FIG4_POINT))
    for e, n in zip(range(3, 10), (980549, 1287426, 1595775, 1904898, 2215100,
                                   2532120, 2991554))
]


def import_qrot():
    """Import the package from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import qrot
    if Path(qrot.__file__).resolve().parent != SRC / "qrot":
        raise SystemExit(f"qrot imported from {qrot.__file__}, not {SRC}")
    from qrot import bitcore, bounds, commit, pamp, protocol, qsim, rates, recon, wire
    try:
        from qrot import _kernels
    except ImportError:  # one numpy kernel path, no selector
        _kernels = None
    return types.SimpleNamespace(
        protocol=protocol, qsim=qsim, commit=commit, bitcore=bitcore,
        kernels=_kernels, recon=recon, pamp=pamp, wire=wire, bounds=bounds,
        rates=rates)


def make_op(q, workload: str, seed: int):
    """Inputs of ``workload``; returns op(i) -> (error or None, abort name or None)."""
    protocol = q.protocol
    if workload == "optimize":
        # no random input: every run makes the same calls, so the warm-up is
        # always the reference point and the timed mix does not vary by seed
        def op(i):
            args, kwargs, expected = OPTIMIZE_CALLS[i % len(OPTIMIZE_CALLS)]
            res = q.rates.n_crit(*args, **kwargs)
            return check_optimum(res, args[0], expected), None
        return op

    if workload == "desk-trivial":
        config, model = protocol.desk_config(), q.qsim.SourceModel()
    elif workload == "desk-ldpc":
        config = protocol.desk_config(ir_backend=q.recon.BACKEND_LDPC)
        model = q.qsim.SourceModel(p_err=0.01)
    else:
        config = protocol.SessionConfig(
            replace(q.bounds.TABLE1_PARAMS, n0=1_000_000),
            ir_backend=q.recon.BACKEND_LDPC)
        model = q.qsim.SourceModel(p_err=0.01)
    declared = protocol.declared_payload_sizes(config)

    def op(i):
        res = protocol.run_session(config, model, seed + i)
        abort = res.abort_reason.name if res.abort_reason is not None else None
        return check_session(res, config, declared), abort
    return op


def check_session(res, config, declared) -> str | None:
    if not res.success:
        return f"session aborted: {res.abort_reason!r}"
    if not res.output.correct:
        return "receiver's m_c differs from the sender's chosen string"
    for side, transcript in (("sender", res.sender_transcript),
                             ("receiver", res.receiver_transcript)):
        for msg, size in declared.items():
            got = transcript.payload_bytes(msg)
            if got != size:
                return f"{side} transcript: {msg.name} carries {got} B, declared {size} B"
    if res.qber_estimate is None or res.qber_estimate > config.params.p_max:
        return f"qber estimate {res.qber_estimate} above p_max {config.params.p_max}"
    return None


def check_optimum(res, eps_target: float, expected: tuple) -> str | None:
    got = (res.n_crit, res.alpha, res.delta1, res.delta2)
    if not res.feasible or got != expected:
        return f"n_crit point {got}, expected {expected}"
    if not res.eps_achieved <= eps_target:
        return f"eps_achieved {res.eps_achieved} above target {eps_target}"
    return None


class Loop:
    """Closed-loop op runner keeping per-op times and failures."""

    def __init__(self, op):
        self.op = op
        self.times = []       # seconds of each successful op
        self.attempted = 0
        self.errors = []
        self.aborts = []
        self.peak_rss_mb = None

    def run(self, i: int) -> None:
        t0 = time.perf_counter()
        try:
            error, abort = self.op(i)
        except Exception:  # an escaped exception is a failed op
            error, abort = traceback.format_exc(), None
        dt = time.perf_counter() - t0
        self.attempted += 1
        if abort is not None:
            self.aborts.append(abort)
        if error is None:
            self.times.append(dt)
        else:
            self.errors.append(f"op {i}: {error}")

    def for_seconds(self, seconds: float) -> float:
        """Run ops 1, 2, ... until ``seconds`` pass; returns the wall time.

        Runs at least RSS_AFTER_OP ops and reads the peak RSS after that op,
        so the reading does not depend on how many ops the host's speed lets
        the run fit: recon's lru_cache keeps one LDPC graph per session.
        """
        i = 1
        start = time.perf_counter()
        while i <= RSS_AFTER_OP or time.perf_counter() - start < seconds:
            self.run(i)
            if i == RSS_AFTER_OP:
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            i += 1
        return time.perf_counter() - start


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "time", "trace"), required=True)
    args = ap.parse_args(argv)

    q = import_qrot()
    op = make_op(q, args.workload, args.seed)
    warm = Loop(op)
    warm.run(0)
    out = {"setup_done": time.monotonic(),
           "backend": getattr(q.kernels, "BACKEND_NAME", "pure")}
    loops = [warm]
    if args.mode == "time":
        loop = Loop(op)
        out["wall_s"] = loop.for_seconds(args.seconds)
        out["op_s"] = loop.times
        out["peak_rss_mb"] = loop.peak_rss_mb
        loops.append(loop)
    elif args.mode == "trace":
        traced, plain, out["layers"], out["spans"] = trace_run(q, op, args.seconds)
        loops += [traced, plain]
    out["attempted"] = sum(loop.attempted for loop in loops)
    out["errors"] = [e for loop in loops for e in loop.errors]
    print(json.dumps(out))


def trace_run(q, op, seconds: float):
    """Odd ops 1, 3, ... traced, even ops untraced, for ``seconds``.

    Interleaving exposes the traced and untraced medians to the same host
    noise. Op 1 is always traced, so its counters repeat exactly for a seed.
    Every op has its own session seed, so no LDPC graph is reused between
    the two halves. Wrappers are installed only around the traced ops.
    """
    import spans

    tracer = spans.Tracer()
    traced, plain = Loop(op), Loop(op)
    i = 1
    start = time.perf_counter()
    while i <= 2 or time.perf_counter() - start < seconds:
        if i % 2:
            patches = spans.install(tracer, q)
            tracer.begin_op(i)
            try:
                traced.run(i)
            finally:
                tracer.end_op()
                spans.uninstall(patches)
        else:
            plain.run(i)
        i += 1

    layers = tracer.layer_metrics()
    for reason in spans.ABORT_REASONS:
        layers[f"protocol.aborts.{reason}"] = traced.aborts.count(reason)
    p50_traced = statistics.median(traced.times) if traced.times else 0.0
    p50_plain = statistics.median(plain.times) if plain.times else 0.0
    layers["trace.op_p50_traced.s"] = p50_traced
    layers["trace.op_p50_untraced.s"] = p50_plain
    layers["trace.overhead.s"] = p50_traced - p50_plain
    return traced, plain, layers, tracer.first_op_spans


if __name__ == "__main__":
    main()
