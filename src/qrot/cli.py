"""Command-line entry point.

Subcommands: bounds (security-bound breakdown), figures (rate-curve CSV),
optimize (minimal signal count), simulate (in-process sessions) and role
(one networked session end).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from qrot import bounds, protocol, qsim, rates, recon, wire
from qrot.bounds import BoundsError, ProtocolParams, TABLE1_PARAMS


def _usage_error(message: str) -> int:
    """Report bad input as one ``error:`` line; 2 is the exit status."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    t = TABLE1_PARAMS
    p.add_argument("--n0", type=int, default=t.n0)
    p.add_argument("--alpha", type=float, default=t.alpha)
    p.add_argument("--delta1", type=float, default=t.delta1)
    p.add_argument("--delta2", type=float, default=t.delta2)
    p.add_argument("--p-max", type=float, default=t.p_max)
    p.add_argument("--n", type=int, default=t.n)
    p.add_argument("--f", type=float, default=t.f)
    p.add_argument("--p-multi", type=float, default=t.p_multi)
    p.add_argument("--eps-ir", type=float, default=t.eps_ir)
    p.add_argument("--eps-bind", type=float, default=t.eps_bind)


def _params_from(args) -> ProtocolParams:
    return ProtocolParams(n0=args.n0, alpha=args.alpha, delta1=args.delta1,
                          delta2=args.delta2, p_max=args.p_max, n=args.n,
                          f=args.f, p_multi=args.p_multi,
                          eps_ir=args.eps_ir, eps_bind=args.eps_bind)


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p-err", type=float, default=0.0)
    p.add_argument("--p-double", type=float, default=0.0)
    p.add_argument("--p-loss", type=float, default=0.0)
    p.add_argument("--p-dark", type=float, default=0.0)


def _model_from(args) -> qsim.SourceModel:
    try:
        return qsim.SourceModel(p_err=args.p_err, p_double=args.p_double,
                                p_loss=args.p_loss, p_dark=args.p_dark)
    except qsim.QsimError as exc:
        raise SystemExit(_usage_error(str(exc)))


def _emit(args, data: dict, text: str) -> None:
    if args.json:  # strict JSON: a non-finite float reads null
        data = {k: None if isinstance(v, float) and not math.isfinite(v) else v
                for k, v in data.items()}
        print(json.dumps(data, sort_keys=True, allow_nan=False))
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_bounds(args) -> int:
    try:
        params = _params_from(args)
        report = bounds.eps_max(params, experimental=args.experimental)
    except BoundsError as exc:
        return _usage_error(str(exc))
    d = report.to_dict()
    d.update(n_test=params.n_test, n_check=params.n_check, n_raw=params.n_raw)
    lines = [f"N_test={params.n_test}  N_check={params.n_check}  N_raw={params.n_raw}"]
    for key in ("eps_correct", "eps_stat", "eps_kl", "eps_bind", "eps_lhl",
                "eps_receiver", "eps_max"):
        lines.append(f"{key:13s} = {d[key]:.6e}")
    if report.underflowed:
        lines.append(f"underflowed: {', '.join(report.underflowed)}")
    _emit(args, d, "\n".join(lines))
    return 0


def cmd_figures(args) -> int:
    if args.points < 0:
        return _usage_error("--points must be non-negative")
    if args.points and args.figure != "fig2":
        return _usage_error(f"--points applies to fig2 only, not {args.figure}")
    kwargs = {"points": args.points} if args.points else {}
    rows = rates.emit_figure(args.figure, **kwargs)
    text = "\n".join(rows) + "\n"
    if args.output and args.output != "-":
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {len(rows)} rows to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_optimize(args) -> int:
    try:
        grid = tuple(int(v) for v in args.grid.split(","))
    except ValueError:
        return _usage_error("--grid needs comma-separated integers")
    try:
        res = rates.n_crit(args.eps_target, args.p_max, args.f, args.p_multi,
                           args.n, grid=grid)
    except rates.RatesError as exc:
        return _usage_error(str(exc))
    data = {"n_crit": res.n_crit, "alpha": res.alpha, "delta1": res.delta1,
            "delta2": res.delta2, "eps_achieved": res.eps_achieved,
            "n_target": res.n_target, "feasible": res.feasible}
    if not res.feasible:
        _emit(args, data, "infeasible: no parameter point meets the target")
        return 1
    _emit(args, data,
          f"N_crit={res.n_crit}  alpha={res.alpha:.4f}  delta1={res.delta1:.6f}  "
          f"delta2={res.delta2:.6f}  eps={res.eps_achieved:.4e}")
    return 0


def _session_config(args) -> protocol.SessionConfig:
    backend = args.ir_backend
    if backend == "auto":
        # an undetected double pair flips matched-basis bits like channel noise
        noiseless = args.p_err == 0.0 and args.p_double == 0.0
        backend = recon.BACKEND_TRIVIAL if noiseless else recon.BACKEND_LDPC
    else:
        backend = {"trivial": recon.BACKEND_TRIVIAL,
                   "ldpc": recon.BACKEND_LDPC}[backend]
    try:
        return protocol.desk_config(n0=args.n0, n=args.n, ir_backend=backend)
    except (protocol.ProtocolError, BoundsError, recon.ReconError) as exc:
        raise SystemExit(_usage_error(str(exc)))


def cmd_simulate(args) -> int:
    if args.sessions < 1:
        return _usage_error("--sessions must be at least 1")
    if not 0 <= args.seed <= (1 << 256) - args.sessions:  # 32-byte Rng keys
        return _usage_error("--seed must keep every session seed in [0, 2**256)")
    config = _session_config(args)
    model = _model_from(args)
    successes = 0
    aborts: dict[str, int] = {}
    c_counts = [0, 0]
    bit_ones = np.zeros(config.params.n, dtype=np.int64)
    qbers = []
    t0 = time.time()
    for i in range(args.sessions):
        res = protocol.run_session(config, model, args.seed + i)
        if res.qber_estimate is not None:
            qbers.append(res.qber_estimate)
        if res.success:
            successes += 1
            c_counts[res.output.receiver.c] += 1
            bit_ones += res.output.sender.m0.bits()
        else:
            aborts[res.abort_reason.name] = aborts.get(res.abort_reason.name, 0) + 1
    elapsed = time.time() - t0
    mean_qber = float(np.mean(qbers)) if qbers else math.nan
    data = {"sessions": args.sessions, "successes": successes, "aborts": aborts,
            "c_counts": c_counts, "mean_qber": mean_qber,
            "m0_bit_ones": bit_ones.tolist(), "seconds": elapsed}
    text = (f"{successes}/{args.sessions} sessions succeeded in {elapsed:.1f}s\n"
            f"mean QBER estimate: {mean_qber:.5f}\n"
            f"choice bit counts: c=0 {c_counts[0]}, c=1 {c_counts[1]}")
    if aborts:
        text += "\naborts: " + ", ".join(f"{k}={v}" for k, v in sorted(aborts.items()))
    if successes:
        freq = bit_ones / successes
        text += f"\nm0 bit one-frequency: min {freq.min():.3f} max {freq.max():.3f}"
    _emit(args, data, text)
    return 0 if successes == args.sessions else 1


def cmd_role(args) -> int:
    if not 0 <= args.seed < 1 << 256:  # a 32-byte Rng key
        return _usage_error("--seed must be in [0, 2**256)")
    if not 0 <= args.port <= 65535:
        return _usage_error("--port must be in [0, 65535]")
    if not 0.0 < args.timeout < math.inf:
        return _usage_error("--timeout must be positive and finite")
    config = _session_config(args)
    model = _model_from(args)
    # both ends replay the same source stream and keep only their own party
    actor = protocol.parties(config, model, args.seed)[0 if args.role == "sender" else 1]
    max_payload = max(protocol.declared_payload_sizes(config).values())
    try:
        if args.role == "sender":
            conn = wire.listen_one(args.host, args.port, max_payload, timeout=args.timeout)
        else:
            conn = wire.connect(args.host, args.port, max_payload, timeout=args.timeout)
    except (OSError, wire.WireError, wire.Timeout) as exc:
        print(f"connection failed: {exc}", file=sys.stderr)
        return 3

    protocol.drive((actor, conn), timeout=args.timeout)
    conn.close()

    summary = [f"{e.direction} 0x{e.type_code:02x} {e.length}B"
               for e in actor.transcript.entries]
    if actor.abort_reason is not None:
        _emit(args, {"abort": actor.abort_reason.name, "transcript": summary},
              f"aborted: {actor.abort_reason.name}")
        return 1
    if args.role == "sender":
        out = actor.output
        data = {"m0": out.m0.payload.hex(), "m1": out.m1.payload.hex(),
                "transcript": summary}
        text = f"m0={out.m0.payload.hex()}\nm1={out.m1.payload.hex()}"
    else:
        out = actor.output
        data = {"c": out.c, "m_c": out.m_c.payload.hex(), "transcript": summary}
        text = f"c={out.c}\nm_c={out.m_c.payload.hex()}"
    _emit(args, data, text + "\n" + "\n".join(summary))
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="qrot")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", parents=[common],
                       help="security-bound component breakdown")
    _add_param_flags(p)
    p.add_argument("--experimental", action="store_true")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("figures", parents=[common], help="rate-curve CSV emission")
    p.add_argument("--figure", choices=("fig2", "fig3", "fig4"), required=True)
    p.add_argument("--output", default="-")
    p.add_argument("--points", type=int, default=0,
                   help="fig2 sample intervals (0: the default, 300)")
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("optimize", parents=[common], help="minimal signal count for a target bound")
    p.add_argument("--eps-target", type=float, default=1e-7)
    p.add_argument("--p-max", type=float, default=TABLE1_PARAMS.p_max)
    p.add_argument("--f", type=float, default=1.0)
    p.add_argument("--p-multi", type=float, default=TABLE1_PARAMS.p_multi)
    p.add_argument("--n", type=int, default=128)
    p.add_argument("--grid", default="8,10,6")
    p.set_defaults(func=cmd_optimize)

    for name in ("simulate", "role"):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("--seed", type=int, default=2024)
        p.add_argument("--n0", type=int, default=1 << 16)
        p.add_argument("--n", type=int, default=16)
        p.add_argument("--ir-backend", choices=("auto", "trivial", "ldpc"),
                       default="auto")
        _add_model_flags(p)
        if name == "simulate":
            p.add_argument("--sessions", type=int, default=100)
            p.set_defaults(func=cmd_simulate)
        else:
            p.add_argument("--role", choices=("sender", "receiver"), required=True)
            p.add_argument("--host", default="127.0.0.1")
            p.add_argument("--port", type=int, default=7741)
            p.add_argument("--timeout", type=float, default=30.0)
            p.set_defaults(func=cmd_role)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
