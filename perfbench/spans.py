"""Outside-in tracing of qrot's layers for the traced benchmark run.

The tracer swaps module and class attributes at the call sites that
``protocol`` and ``rates`` actually use, so no file under ``src/`` changes.
Each wrapped call records a span (name, start, end, parent span, op id) in
memory; a layer's self time is its span's duration minus the time covered by
its child spans. Spans of one op are folded into per-op totals when the op
ends; the raw spans of the first traced op are kept for writing out.

Private helpers (``recon._code_structure``) are wrapped only if present, so a
change that removes them does not break the benchmark.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict

SENDER_HANDLERS = ("HELLO_ACK", "COMMITMENTS", "OPENINGS", "SEP")
RECEIVER_HANDLERS = ("HELLO", "CHALLENGE", "TEST_SET", "BASES", "SYNDROMES",
                     "HASH_SEED")
ABORT_REASONS = ("TEST_FAILED", "INSUFFICIENT_BASES", "IR_FAILED", "MULTIPHOTON",
                 "PROTOCOL_ERROR", "TRANSPORT")

# per-op inclusive time of these spans is reported as "<name>.s"
TIMED_SPANS = (
    "qsim.run_quantum_phase",
    "commit.commit_batch", "commit.verify_batch",
    "bitcore.sample_subset", "bitcore.extract", "kernels.fisher_yates_partial",
    "recon.syn", "recon.dec", "recon.code_structure", "kernels.bp_decode",
    "pamp.hash_bits",
    *(f"protocol.sender.{m}" for m in SENDER_HANDLERS),
    *(f"protocol.receiver.{m}" for m in RECEIVER_HANDLERS),
    "protocol.transcript.record",
    "wire.send", "wire.recv",
    "bounds.eps_max", "rates.n_crit",
)

# counts that must repeat exactly for the same seed; reported for the first
# traced op. pamp.bit_ops and commit.aes_blocks are computed from arguments.
EXACT_COUNTERS = (
    "qsim.coincidences", "commit.aes_blocks",
    "kernels.fisher_yates_partial.swaps", "bitcore.rng_bytes",
    "recon.code_structure.builds", "recon.code_structure.calls",
    "recon.bp_iters", "recon.syndrome_bits", "pamp.bit_ops",
    "wire.frames", "wire.bytes", "bounds.eps_max.calls",
)


class Tracer:
    """In-memory span recorder with per-op folding.

    Wrappers are installed only between :meth:`begin_op` and :meth:`end_op`.
    """

    def __init__(self):
        self.op = None
        self._spans = []      # [name, start, end, parent, op, child_time]
        self._stack = []
        self._counts = Counter()
        self.first_op_spans = None
        self.per_op = []      # one (incl, self, counts) triple per traced op
        self.totals = Counter()

    def count(self, name: str, value: int = 1) -> None:
        self._counts[name] += value

    def wrap(self, name, fn, label=None, on_return=None):
        """Return ``fn`` recording a span per call.

        label(args) gives the span name when it depends on the arguments;
        on_return(tracer, args, result) records counts.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            spans, stack = tracer._spans, tracer._stack
            rec = [label(args) if label else name, 0.0, 0.0,
                   stack[-1] if stack else -1, tracer.op, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                if rec[3] >= 0:
                    spans[rec[3]][5] += rec[2] - rec[1]
            if on_return is not None:
                on_return(tracer, args, result)
            return result

        return wrapper

    def begin_op(self, op: int) -> None:
        self.op = op
        self._spans, self._stack, self._counts = [], [], Counter()

    def end_op(self) -> None:
        incl, self_t = defaultdict(float), defaultdict(float)
        for name, start, end, _, _, child in self._spans:
            incl[name] += end - start
            self_t[name] += end - start - child
        self.per_op.append((incl, self_t, self._counts))
        self.totals.update(self._counts)
        if self.first_op_spans is None:
            self.first_op_spans = [
                {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "op": s[4]}
                for s in self._spans]
        self.op = None
        self._spans, self._stack = [], []

    def layer_metrics(self) -> dict:
        """Per-layer metrics: median per-op seconds, first-op exact counts."""
        def med(values):
            return statistics.median(values) if values else 0.0

        out = {}
        for name in TIMED_SPANS:
            out[f"{name}.s"] = med([incl.get(name, 0.0) for incl, _, _ in self.per_op])
        # protocol code outside every wrapped layer: the driver plus the
        # handlers; the transcript has its own metric
        out["protocol.self.s"] = med([
            sum(v for k, v in st.items()
                if k.startswith("protocol.") and k != "protocol.transcript.record")
            for _, st, _ in self.per_op])
        out["protocol.driver.s"] = med(
            [st.get("protocol.run_session", 0.0) for _, st, _ in self.per_op])
        out["rates.self.s"] = med(
            [st.get("rates.n_crit", 0.0) for _, st, _ in self.per_op])
        first = self.per_op[0][2] if self.per_op else Counter()
        for name in EXACT_COUNTERS:
            out[name] = first.get(name, 0)
        t = self.totals
        out["recon.bp_converged_frac"] = _frac(t["recon.bp_converged"], t["recon.bp_calls"])
        out["recon.dec_accept_frac"] = _frac(t["recon.dec_accepted"], t["recon.dec_calls"])
        return out


def _frac(num: int, den: int) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# call-site instrumentation
# ---------------------------------------------------------------------------

def install(tracer: Tracer, qrot) -> list:
    """Wrap every layer boundary; returns the patches for :func:`uninstall`.

    ``qrot`` is a namespace holding the imported modules: protocol, qsim,
    commit, bitcore, kernels (None once the kernel selector is gone), recon,
    pamp, wire, bounds and rates. A call site that no longer exists is
    skipped, and its metrics read 0.
    """
    protocol, recon, kernels = qrot.protocol, qrot.recon, qrot.kernels
    patches = []

    def swap(owner, attr, new):
        patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def wrap(owner, attr, name, **kw):
        if owner is not None and attr in vars(owner):
            swap(owner, attr, tracer.wrap(name, getattr(owner, attr), **kw))

    wrap(protocol, "run_session", "protocol.run_session")
    wrap(qrot.qsim, "run_quantum_phase", "qsim.run_quantum_phase",
         on_return=lambda t, a, r: t.count("qsim.coincidences", r[0].n_tot))

    def aes_blocks(t, args, result):
        seeds, params = args[1], args[3]
        if args[4] == qrot.commit.HASH_AES128:
            t.count("commit.aes_blocks", seeds.shape[0] * ((params.com_bytes + 15) // 16))

    wrap(qrot.commit, "commit_batch", "commit.commit_batch", on_return=aes_blocks)
    wrap(qrot.commit, "verify_batch", "commit.verify_batch")

    wrap(protocol, "sample_subset", "bitcore.sample_subset")
    wrap(protocol, "extract", "bitcore.extract")
    wrap(kernels, "fisher_yates_partial", "kernels.fisher_yates_partial",
         on_return=lambda t, a, r: t.count("kernels.fisher_yates_partial.swaps",
                                           len(a[1])))

    rng_bytes = qrot.bitcore.Rng.bytes

    def counted_bytes(self, n):
        tracer.count("bitcore.rng_bytes", n)
        return rng_bytes(self, n)

    swap(qrot.bitcore.Rng, "bytes", counted_bytes)

    wrap(recon, "syn", "recon.syn",
         on_return=lambda t, a, r: t.count("recon.syndrome_bits", r.syn.length))

    def dec_done(t, args, result):
        t.count("recon.dec_calls")
        t.count("recon.dec_accepted", result is not None)

    wrap(recon, "dec", "recon.dec", on_return=dec_done)

    # builds are the lru_cache's misses; without a cache every call builds
    info = getattr(vars(recon).get("_code_structure"), "cache_info", None)
    misses = [info().misses if info else 0]

    def built(t, args, result):
        t.count("recon.code_structure.calls")
        now = info().misses if info else misses[0] + 1
        t.count("recon.code_structure.builds", now - misses[0])
        misses[0] = now

    wrap(recon, "_code_structure", "recon.code_structure", on_return=built)

    def bp_done(t, args, result):
        t.count("recon.bp_calls")
        t.count("recon.bp_converged", bool(result[1]))
        t.count("recon.bp_iters", int(result[2]))

    wrap(kernels, "bp_decode", "kernels.bp_decode", on_return=bp_done)
    wrap(qrot.pamp, "hash_bits", "pamp.hash_bits",
         on_return=lambda t, a, r: t.count("pamp.bit_ops", a[0].n_in * a[0].n_out))

    sender_cls = protocol.SenderSession
    msg_names = {int(m): m.name for m in protocol.Msg}

    def handler_name(args):
        session, frame = args[0], args[1]
        role = "sender" if isinstance(session, sender_cls) else "receiver"
        return f"protocol.{role}.{msg_names.get(frame.type_code, frame.type_code)}"

    wrap(getattr(protocol, "_Session", None), "on_frame", "protocol.on_frame",
         label=handler_name)
    wrap(protocol.SessionTranscript, "record", "protocol.transcript.record")

    def sent(t, args, result):
        t.count("wire.frames")
        t.count("wire.bytes", len(args[1].payload))

    wrap(qrot.wire.Connection, "send", "wire.send", on_return=sent)
    wrap(qrot.wire.Connection, "recv", "wire.recv")

    wrap(qrot.bounds, "eps_max", "bounds.eps_max",
         on_return=lambda t, a, r: t.count("bounds.eps_max.calls"))
    wrap(qrot.rates, "n_crit", "rates.n_crit")
    return patches


def uninstall(patches: list) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
