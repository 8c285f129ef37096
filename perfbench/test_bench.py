"""Checks of the benchmark itself.

    python3 -m pytest -q perfbench/test_bench.py

These are not part of the package's test suite: they check that the traced
run's counters repeat exactly for a seed, that the output checks catch a
wrong output, and that records of different kernel backends are not compared.
"""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import worker  # noqa: E402


def _traced_layers(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--mode", "trace"],
        capture_output=True, text=True, timeout=120, check=True)
    out = json.loads(proc.stdout.splitlines()[-1])
    assert not out["errors"]
    return out["layers"]


@pytest.mark.parametrize("workload,nonzero", [
    ("desk-trivial", ("wire.bytes", "qsim.coincidences", "kernels.fisher_yates_partial.swaps")),
    ("desk-ldpc", ("recon.bp_iters", "recon.syndrome_bits", "wire.frames")),
    ("optimize", ("bounds.eps_max.calls",)),
])
def test_exact_counters_repeat(workload, nonzero):
    first = _traced_layers(workload, 5)
    second = _traced_layers(workload, 5)
    assert {k: first[k] for k in spans.EXACT_COUNTERS} == \
        {k: second[k] for k in spans.EXACT_COUNTERS}
    for name in nonzero:
        assert first[name] > 0, name


def test_checks_catch_wrong_outputs():
    q = worker.import_qrot()
    protocol = q.protocol
    config = protocol.desk_config()
    res = protocol.run_session(config, q.qsim.SourceModel(), 3)
    declared = protocol.declared_payload_sizes(config)
    assert worker.check_session(res, config, declared) is None

    wrong = res.output.receiver.m_c ^ q.bitcore.BitString.from_int(1, config.params.n)
    bad = replace(res, output=replace(
        res.output, receiver=replace(res.output.receiver, m_c=wrong)))
    assert "chosen string" in worker.check_session(bad, config, declared)
    short = dict(declared)
    short[protocol.Msg.SEP] -= 1
    assert "SEP" in worker.check_session(res, config, short)
    assert "qber" in worker.check_session(replace(res, qber_estimate=0.5), config, declared)

    args, kwargs, expected = worker.OPTIMIZE_CALLS[1]
    opt = q.rates.n_crit(*args, **kwargs)
    assert worker.check_optimum(opt, args[0], expected) is None
    assert worker.check_optimum(opt, args[0], (expected[0] + 1,) + expected[1:])
    assert worker.check_optimum(opt, opt.eps_achieved / 2, expected)


def test_compare_refuses_mixed_backends(tmp_path):
    paths = []
    for backend in ("pure", "compiled"):
        rec = {"workload": "desk-trivial", "trace": 0, "backend": backend,
               "metrics": {"op_s.p50": {"value": 0.1, "unit": "s"}}}
        path = tmp_path / f"{backend}.json"
        path.write_text(json.dumps(rec))
        paths.append(str(path))
    proc = subprocess.run([sys.executable, str(HERE / "compare.py"),
                           "--base", paths[0], "--new", paths[1]],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "backends" in proc.stderr
