import json

import pytest

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
        assert out.err.startswith("error: COMMITMENTS payload is 70000004 B")
        assert out.out == ""
