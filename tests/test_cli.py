import json
import weakref

import pytest

from qrot import protocol, wire
from qrot.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


class TestOptimize:
    def test_small_grid(self, capsys):
        code, out, _ = _run(capsys, "optimize", "--grid", "3,3,2", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["feasible"] and 3e5 < data["n_crit"] < 3e7

    def test_bad_grid_flag(self, capsys):
        code, _, err = _run(capsys, "optimize", "--grid", "3,3")
        assert code == 2 and "grid" in err


class TestSimulate:
    def test_noiseless_sessions(self, capsys):
        code, out, _ = _run(capsys, "simulate", "--sessions", "3",
                            "--n0", "16384", "--seed", "5", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["successes"] == 3 and data["aborts"] == {}

    def test_unsendable_config_is_an_error(self, capsys):
        # 10^7 signals make a 70 MB COMMITMENTS frame; no session may start
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--n0", "10000000"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.err.startswith("error: COMMITMENTS payload is 70000000 B")
        assert out.out == ""

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
