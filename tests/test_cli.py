import json
import os
import socket
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

import qrot
from qrot import protocol, wire
from qrot.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _strict_json(text):
    """``json.loads`` that refuses NaN, Infinity and -Infinity."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def _usage_error(capsys, *argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2 and out == "", argv
    assert err.startswith("error: ") and err.count("\n") == 1, argv


def _not_reached(*args, **kwargs):
    raise AssertionError("bad input reached a session or a socket")


def _subprocess_env():
    """The environment for a ``python -m qrot.cli`` child that imports this
    checkout's package."""
    src = str(Path(qrot.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestBounds:
    def test_default_is_reference_row(self, capsys):
        code, out, _ = _run(capsys, "bounds", "--experimental", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["eps_max"] == pytest.approx(3.459e-8, rel=1e-3)
        assert data["n_raw"] == 1893073

    def test_text_breakdown(self, capsys):
        code, out, _ = _run(capsys, "bounds")
        assert code == 0
        assert "eps_stat" in out and "eps_max" in out

    def test_bad_params_exit_nonzero(self, capsys):
        code, _, err = _run(capsys, "bounds", "--p-max", "0.4")
        assert code == 2
        assert "rate bracket undefined" in err

    def test_experimental_without_multi_is_theoretical(self, capsys):
        _, a, _ = _run(capsys, "bounds", "--p-multi", "0", "--json")
        _, b, _ = _run(capsys, "bounds", "--p-multi", "0", "--experimental",
                       "--json")
        ja, jb = json.loads(a), json.loads(b)
        assert ja["eps_max"] == jb["eps_max"]


    @pytest.mark.parametrize("n0", ["0", "-1000000000"])
    def test_nonpositive_n0_is_a_usage_error(self, capsys, n0):
        # a negative N0 once overflowed math.exp in eps_receiver
        code, out, err = _run(capsys, "bounds", "--n0", n0, "--alpha", "0.3",
                              "--delta1", "0.01", "--delta2", "0.003",
                              "--p-max", "0.01", "--n", "128")
        assert code == 2 and out == ""
        assert err == "error: signal count N0 must be at least 1\n"

    def test_seed_is_not_a_bounds_flag(self):
        # only simulate and role draw random values
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--seed", "5"])
        assert exc.value.code == 2


class TestFigures:
    def test_fig2_to_file(self, capsys, tmp_path):
        path = tmp_path / "fig2.csv"
        code, _, _ = _run(capsys, "figures", "--figure", "fig2",
                          "--points", "40", "--output", str(path))
        assert code == 0
        rows = path.read_text().strip().split("\n")
        assert rows[0] == "p_max,R_key_ideal,R_key_typical"
        assert len(rows) == 42

    def test_fig3_stdout(self, capsys):
        code, out, _ = _run(capsys, "figures", "--figure", "fig3")
        assert code == 0
        assert out.startswith("N0,")

    @pytest.mark.parametrize("figure,points", [
        ("fig2", "-3"), ("fig2", "-1"), ("fig3", "5"), ("fig4", "5"), ("fig4", "-2")])
    def test_bad_points_is_a_usage_error(self, capsys, figure, points):
        # fig2 --points -3 once printed only the header, and fig3 and fig4
        # ignored --points
        _usage_error(capsys, "figures", "--figure", figure, "--points", points)

    def test_unwritable_output_is_a_usage_error(self, capsys, tmp_path):
        # a missing directory once escaped as a FileNotFoundError traceback
        path = tmp_path / "missing" / "x.csv"
        _usage_error(capsys, "figures", "--figure", "fig3", "--output", str(path))
        assert not path.parent.exists()


class TestOptimize:
    def test_small_grid(self, capsys):
        code, out, _ = _run(capsys, "optimize", "--grid", "3,3,2", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["feasible"] and 3e5 < data["n_crit"] < 3e7

    def test_infeasible_json_is_strict(self, capsys):
        # eps_achieved is inf when no point meets the target; it once printed
        # as Infinity
        code, out, _ = _run(capsys, "optimize", "--json", "--eps-target", "1e-10",
                            "--grid", "3,3,2")
        assert code == 1
        data = _strict_json(out)
        assert not data["feasible"] and data["eps_achieved"] is None

    def test_bad_grid_flag(self, capsys):
        # a size of 1 once escaped a ZeroDivisionError, and 0 read "infeasible";
        # the flag must parse as integers, and n_crit refuses the sizes
        for grid in ("3,3", "1,6,4", "0,6,4", "3,3,-2", "a,b,c", "3,3,2.5", ""):
            code, out, err = _run(capsys, "optimize", "--grid", grid)
            assert code == 2 and out == "", grid
            assert err.startswith(("error: --grid", "error: grid")), grid
            assert err.count("\n") == 1, grid

    @pytest.mark.parametrize("flag,value", [
        ("--n", "-2"), ("--n", "0"), ("--eps-target", "0"), ("--eps-target", "0.9"),
        ("--f", "0.9"), ("--p-max", "nan"), ("--f", "nan"), ("--f", "inf"),
        ("--p-multi", "-1"), ("--p-multi", "nan"), ("--p-multi", "inf"),
        ("--p-max", "-0.1"), ("--p-max", "0.5")])
    def test_bad_input_is_an_error(self, flag, value):
        # --n -2 once never returned, --f 0.9 escaped with a traceback, and
        # --f nan, --p-multi -1 and --p-max -0.1 read "infeasible"
        done = subprocess.run([sys.executable, "-m", "qrot.cli", "optimize",
                               "--grid", "2,2,2", flag, value], env=_subprocess_env(),
                              text=True, capture_output=True, timeout=60)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


class TestSimulate:
    def test_noiseless_sessions(self, capsys):
        code, out, _ = _run(capsys, "simulate", "--sessions", "3",
                            "--n0", "16384", "--seed", "5", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["successes"] == 3 and data["aborts"] == {}

    def test_no_qber_estimate_json_is_strict(self, capsys):
        # this session fails its test before estimating the QBER, so the mean
        # is NaN; it once printed as NaN
        code, out, _ = _run(capsys, "simulate", "--n0", "200", "--n", "1",
                            "--sessions", "1", "--seed", "2", "--json")
        assert code == 1
        data = _strict_json(out)
        assert data["aborts"] == {"TEST_FAILED": 1} and data["mean_qber"] is None

    @pytest.mark.parametrize("sessions", ["0", "-1"])
    def test_nonpositive_sessions_is_a_usage_error(self, capsys, sessions):
        # --sessions 0 once reported 0/0 sessions with a NaN mean QBER
        _usage_error(capsys, "simulate", "--sessions", sessions)

    def test_empty_test_set_is_an_error(self, capsys):
        # N0 = 1 once "succeeded" with two all-zero strings
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--n0", "1"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: N0 = 1 gives N_check = 0")
        assert out.err.count("\n") == 1

    def test_unbuildable_code_is_an_error(self, capsys):
        # N_raw 70 is too short for a 4-cycle-free code at its 21 checks;
        # the refusal once escaped as a traceback
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--n0", "200", "--ir-backend", "ldpc"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: n_raw 70 is too short")
        assert out.err.count("\n") == 1

    @pytest.mark.parametrize("seed, sessions", [("-5", "1"), (str(1 << 256), "1"),
                                                (str((1 << 256) - 1), "2")])
    def test_seed_outside_key_range_is_a_usage_error(self, capsys, monkeypatch,
                                                     seed, sessions):
        # session seeds are 32-byte keys; a seed outside [0, 2**256) once
        # escaped Rng.from_int as an OverflowError
        monkeypatch.setattr(protocol, "run_session", _not_reached)
        _usage_error(capsys, "simulate", "--sessions", sessions, "--seed", seed)

    @pytest.mark.parametrize("flag,value", [("--p-err", "0.6"), ("--p-loss", "1"),
                                            ("--p-dark", "1")])
    def test_bad_source_model_is_an_error(self, capsys, flag, value):
        # p_loss or p_dark of 1 once made the quantum phase loop forever
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--n0", "4096", "--sessions", "1", flag, value])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.err.startswith("error: ") and out.err.count("\n") == 1
        assert out.out == ""

    def test_auto_backend_corrects_double_pair_errors(self, capsys):
        # undetected double pairs flip matched-basis bits even at p_err 0;
        # the trivial backend once failed every such session with IR_FAILED
        code, out, _ = _run(capsys, "simulate", "--sessions", "5",
                            "--p-double", "0.05", "--seed", "3", "--json")
        data = json.loads(out)
        assert code == 0
        assert data["successes"] == 5 and data["aborts"] == {}


class TestRole:
    @pytest.mark.parametrize("role", ["sender", "receiver"])
    def test_keeps_only_its_own_party(self, capsys, monkeypatch, role):
        other = "receiver" if role == "sender" else "sender"
        refs, seen = {}, {}
        real_parties = protocol.parties

        def parties(*args, **kwargs):
            sender, receiver = real_parties(*args, **kwargs)
            refs["sender"], refs["receiver"] = weakref.ref(sender), weakref.ref(receiver)
            return sender, receiver

        def drive(*ends, timeout):
            (actor, _), = ends
            seen["actor"] = refs[role]() is actor
            seen["other collected"] = refs[other]() is None
            actor._end(protocol.AbortReason.TRANSPORT)

        class Conn:
            def close(self):
                pass

        monkeypatch.setattr(protocol, "parties", parties)
        monkeypatch.setattr(protocol, "drive", drive)
        monkeypatch.setattr(wire, "listen_one", lambda *a, **kw: Conn())
        monkeypatch.setattr(wire, "connect", lambda *a, **kw: Conn())
        code, out, _ = _run(capsys, "role", "--role", role, "--n0", "16384")
        assert code == 1 and out.startswith("aborted: TRANSPORT")
        assert seen == {"actor": True, "other collected": True}

    @pytest.mark.parametrize("flag, value", [
        ("--seed", "-5"), ("--seed", str(1 << 256)),
        ("--port", "70000"), ("--port", "-1"),
        ("--timeout", "-1"), ("--timeout", "0"), ("--timeout", "inf"),
        ("--timeout", "nan"),
    ])
    def test_bad_flag_is_a_usage_error(self, capsys, monkeypatch, flag, value):
        # each once escaped as a traceback, from Rng.from_int, bind or
        # settimeout; now refused before the quantum phase and any socket
        for module, name in [(protocol, "parties"), (wire, "listen_one"),
                             (wire, "connect")]:
            monkeypatch.setattr(module, name, _not_reached)
        for role in ("sender", "receiver"):
            _usage_error(capsys, "role", "--role", role, "--n0", "16384",
                         flag, value)

    def test_two_processes_over_loopback(self):
        # one party per process over a real socket: the session completes
        # only if both ends derive the same payload bound from the config
        env = _subprocess_env()
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = str(probe.getsockname()[1])
        argv = [sys.executable, "-m", "qrot.cli", "role", "--n0", "16384",
                "--port", port, "--timeout", "20", "--json", "--role"]
        sender = subprocess.Popen(argv + ["sender"], env=env, text=True,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            for _ in range(50):
                receiver = subprocess.run(argv + ["receiver"], env=env, text=True,
                                          capture_output=True, timeout=60)
                if receiver.returncode != 3:  # 3: the sender is not listening yet
                    break
                time.sleep(0.1)
            sent, err = sender.communicate(timeout=60)
        finally:
            sender.kill()
            sender.wait()
        assert receiver.returncode == 0, receiver.stderr
        assert sender.returncode == 0, err
        got, sent = json.loads(receiver.stdout), json.loads(sent)
        assert got["m_c"] == (sent["m0"], sent["m1"])[got["c"]]
