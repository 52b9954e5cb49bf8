import json
from pathlib import Path

import numpy as np
import pytest

from qcx.cindex import REL_GAP_TOL
from qcx.cli import build_function, load_config, main
from qcx.extcore import PairTable, quasiconvexity_gap


BASE_CONFIG = """\
[space]
uniform = 10

[partition]
atoms = 1-4; 5-7; 8-10

[function s]
family = sqrt
domain = 1 4
grid = 31

[function l]
family = neglog
weight = {weight}
domain = 1 2.718281828459045
grid = 31

[measure m]
kind = {measure}

[index]
function = s l
tol = 1e-4

[sum-check]
functions = s l

[risk-check]
measure = m
budget = 80

[l2-demo]
fixture = {fixture}
measure = {l2_measure}
budget = 80
samples = 80
"""


def write_config(tmp_path, weight=1.1, measure="entropic", fixture="paper10pt",
                 l2_measure="neg_cond_exp"):
    path = tmp_path / "run.ini"
    path.write_text(BASE_CONFIG.format(weight=weight, measure=measure,
                                       fixture=fixture, l2_measure=l2_measure))
    return str(path)


def run(args):
    return main(args)


def run_changed(tmp_path, command, section, changes):
    """Run ``command`` on the base config with ``changes`` made in
    ``section`` (``None`` removes a key); ``sum-check`` runs with
    ``--brute``."""
    cp = load_config(write_config(tmp_path))
    for key, value in changes.items():
        if value is None:
            cp.remove_option(section, key)
        else:
            cp.set(section, key, value)
    cfg = tmp_path / "changed.ini"
    with open(cfg, "w", encoding="utf-8") as fh:
        cp.write(fh)
    argv = [command, "--config", str(cfg)]
    return run(argv + (["--brute"] if command == "sum-check" else []))


class TestIndexCommand:
    def test_report_values(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "r.json"
        code = run(["index", "--config", cfg, "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        fs = report["results"]["functions"]
        assert fs["s"]["value"] == pytest.approx(-1.0, abs=2e-3)
        assert fs["s"]["case"] == "I" and fs["s"]["convex"] is False
        assert fs["l"]["value"] == pytest.approx(1 / 1.1, abs=2e-3)
        assert fs["l"]["convex"] is True
        assert "sqrt" not in capsys.readouterr().out  # names come from config

    def test_binding_pair_in_report(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "r.json"
        run(["index", "--config", cfg, "--out", str(out)])
        for r in json.loads(out.read_text())["results"]["functions"].values():
            b = r["binding"]
            assert set(b) == {"x1", "x2", "eta", "violation"}
            assert len(b["x1"]) == len(b["x2"]) == 1 and 0 < b["eta"] < 1
            assert b["violation"] > REL_GAP_TOL

    def test_constant_function(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[function k]\nfamily = const\nc = 3\ndomain = 0 1\n"
                       "grid = 17\n\n[index]\nfunction = k\n")
        out = tmp_path / "r.json"
        assert run(["index", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        k = report["results"]["functions"]["k"]
        assert k["value"] == "inf" and k["constant"] is True

    def test_csv_sweep(self, tmp_path):
        """Every probe row replays on a fresh table; each function's rows
        end with its bracket ends."""
        cfg = write_config(tmp_path)
        csv = tmp_path / "sweep.csv"
        out = tmp_path / "r.json"
        run(["index", "--config", cfg, "--csv", str(csv), "--out", str(out)])
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "function,lambda,transform_ok"
        functions = json.loads(out.read_text())["results"]["functions"]
        cp = load_config(cfg)
        rows = [line.split(",") for line in lines[1:]]
        for name, r in functions.items():
            f, box = build_function(cp, name)
            table = PairTable(f, box)
            sign = +1 if r["case"] == "I" else -1
            mine = [(float(lam), ok == "1") for n, lam, ok in rows if n == name]
            for lam, ok in mine:
                assert table.exp_transform_ok(lam, sign, REL_GAP_TOL) == ok
            lo, hi = r["bracket"]
            assert mine[-2:] == [(lo, True), (hi, False)]


class TestSumCheckCommand:
    def test_not_quasiconvex_with_oracle(self, tmp_path):
        cfg = write_config(tmp_path, weight=1.1)
        out = tmp_path / "r.json"
        code = run(["sum-check", "--config", cfg, "--brute", "--out", str(out)])
        assert code == 0
        res = json.loads(out.read_text())["results"]
        assert res["index_sum_criterion"]["decision"] == "not-quasiconvex"
        assert res["characterize"]["decision"] == "not-quasiconvex"
        assert res["brute_force"]["verdict"] == "refuted"
        assert res["oracle_agrees"] is True

    def test_witness_replays_from_report(self, tmp_path):
        cfg = write_config(tmp_path, weight=2.0)
        out = tmp_path / "r.json"
        run(["sum-check", "--config", cfg, "--brute", "--out", str(out)])
        res = json.loads(out.read_text())["results"]
        w = res["brute_force"]["witness"]

        def fn(p):
            return np.sqrt(p[:, 0]) - 2.0 * np.log(p[:, 1])
        from qcx.extcore import FunctionSpec
        g = FunctionSpec(2, fn)
        gap, degen = quasiconvexity_gap(g, w["x1"], w["x2"], w["eta"])
        assert not degen and gap >= w["violation"] * 0.99

    def test_harmonic_emitted_for_convex_sum(self, tmp_path):
        cfg = tmp_path / "h.ini"
        cfg.write_text(
            "[function q]\nfamily = square\ndomain = 1 2\ngrid = 65\n\n"
            "[function l]\nfamily = neglog\ndomain = 1 2.718281828459045\n"
            "grid = 65\n\n[sum-check]\nfunctions = q l\n")
        out = tmp_path / "r.json"
        assert run(["sum-check", "--config", str(cfg), "--out", str(out)]) == 0
        res = json.loads(out.read_text())["results"]
        assert res["characterize"]["rule"] == "all-convex"
        assert res["harmonic_index"] == pytest.approx(1 / 9, abs=2e-2)

    def test_needs_two_functions(self, tmp_path):
        cfg = tmp_path / "one.ini"
        cfg.write_text("[function q]\nfamily = square\ndomain = 0 1\n\n"
                       "[sum-check]\nfunctions = q\n")
        assert run(["sum-check", "--config", str(cfg)]) == 64

    def test_csv_violation_data(self, tmp_path):
        cfg = write_config(tmp_path, weight=2.0)
        csv = tmp_path / "viol.csv"
        run(["sum-check", "--config", cfg, "--brute", "--csv", str(csv)])
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "x1,x2,eta,violation"
        assert len(lines) == 2  # refuted: one witness row
        # certified case still produces the (header-only) artifact
        cfg2 = write_config(tmp_path, weight=0.5)
        csv2 = tmp_path / "none.csv"
        run(["sum-check", "--config", cfg2, "--brute", "--csv", str(csv2)])
        assert csv2.read_text().strip() == "x1,x2,eta,violation"


class TestRiskCheckCommand:
    def test_entropic_all_pass(self, tmp_path):
        cfg = write_config(tmp_path, measure="entropic")
        out = tmp_path / "r.json"
        code = run(["risk-check", "--config", cfg, "--out", str(out)])
        assert code == 0
        props = json.loads(out.read_text())["results"]["properties"]
        assert all(rep["verdict"] == "pass" for rep in props.values())

    def test_sqrt_log_fails_with_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, measure="sqrt_log")
        out = tmp_path / "r.json"
        code = run(["risk-check", "--config", cfg, "--out", str(out)])
        assert code == 2
        props = json.loads(out.read_text())["results"]["properties"]
        assert props["quasiconvexity"]["verdict"] == "pass"
        assert props["locality"]["verdict"] == "pass"
        assert props["nqc"]["verdict"] == "fail"
        assert props["convexity"]["verdict"] == "fail"
        assert "separating_dual" in props["nqc"]["witness"]
        # non-normalized map: sensitivity precondition fails
        assert props["sensitivity"]["verdict"] == "inconclusive"

    def test_inconclusive_exit_3(self, tmp_path):
        cfg = tmp_path / "s.ini"
        cfg.write_text("[space]\nuniform = 10\n\n[partition]\n"
                       "atoms = 1-4; 5-7; 8-10\n\n[measure m]\nkind = sqrt_log\n\n"
                       "[risk-check]\nmeasure = m\nproperties = sensitivity\n")
        assert run(["risk-check", "--config", str(cfg)]) == 3

    def test_mean_broadcast_locality_witness(self, tmp_path):
        cfg = write_config(tmp_path, measure="mean_broadcast")
        out = tmp_path / "r.json"
        assert run(["risk-check", "--config", cfg, "--out", str(out)]) == 2
        props = json.loads(out.read_text())["results"]["properties"]
        assert props["locality"]["verdict"] == "fail"
        assert "witness" in props["locality"]


class TestL2DemoCommand:
    def test_main_fixture(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "r.json"
        assert run(["l2-demo", "--config", cfg, "--out", str(out)]) == 0
        res = json.loads(out.read_text())["results"]
        assert res["orthonormality_residual"] < 1e-12
        assert res["classical_locality"]["verdict"] == "pass"
        assert res["basis_locality"]["verdict"] == "pass"
        assert res["cone_self_dual"]["verdict"] == "pass"
        assert res["nqc_wrt_preorder"]["verdict"] == "pass"

    def test_split_fixture_counterexample(self, tmp_path):
        cfg = write_config(tmp_path, fixture="paper10pt-split",
                           l2_measure="coarse_cond_exp")
        out = tmp_path / "r.json"
        assert run(["l2-demo", "--config", cfg, "--out", str(out)]) == 2
        res = json.loads(out.read_text())["results"]
        assert res["basis_locality"]["verdict"] == "pass"
        assert res["classical_locality"]["verdict"] == "fail"
        assert "witness" in res["classical_locality"]

    def test_broadcast_fails_basis_locality(self, tmp_path):
        cfg = write_config(tmp_path, l2_measure="mean_broadcast")
        out = tmp_path / "r.json"
        assert run(["l2-demo", "--config", cfg, "--out", str(out)]) == 2
        res = json.loads(out.read_text())["results"]
        assert res["basis_locality"]["verdict"] == "fail"


class TestDeterminismAndErrors:
    @pytest.mark.parametrize("command", ["index", "sum-check", "risk-check",
                                         "l2-demo"])
    def test_byte_identical_reports(self, tmp_path, command):
        cfg = write_config(tmp_path)
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        run([command, "--config", cfg, "--seed", "3", "--out", str(out1)])
        run([command, "--config", cfg, "--seed", "3", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_config(self, tmp_path):
        assert run(["index", "--config", str(tmp_path / "nope.ini")]) == 64

    def test_undeclared_function(self, tmp_path):
        cfg = tmp_path / "u.ini"
        cfg.write_text("[index]\nfunction = ghost\n")
        assert run(["index", "--config", str(cfg)]) == 64

    def test_parse_error_mentions_line(self, tmp_path, capsys):
        cfg = tmp_path / "p.ini"
        cfg.write_text("[index\nfunction = f\n")
        assert run(["index", "--config", str(cfg)]) == 64
        assert "line" in capsys.readouterr().err

    def test_unknown_measure_kind(self, tmp_path):
        cfg = tmp_path / "m.ini"
        cfg.write_text("[space]\nuniform = 4\n\n[partition]\natoms = 1-2; 3-4\n\n"
                       "[measure m]\nkind = nonsense\n\n[risk-check]\nmeasure = m\n")
        assert run(["risk-check", "--config", str(cfg)]) == 64

    def test_file_based_space_and_partition(self, tmp_path):
        (tmp_path / "scen.txt").write_text(
            "\n".join(["0.1 w%d" % i for i in range(1, 11)]) + "\n")
        (tmp_path / "part.txt").write_text("1-4\n5-7\n8-10\n")
        cfg = tmp_path / "f.ini"
        cfg.write_text(
            f"[space]\nfile = {tmp_path / 'scen.txt'}\n\n"
            f"[partition]\nfile = {tmp_path / 'part.txt'}\n\n"
            "[measure m]\nkind = neg_cond_exp\n\n"
            "[risk-check]\nmeasure = m\nbudget = 40\n"
            "properties = monotonicity locality nqc\n")
        out = tmp_path / "r.json"
        assert run(["risk-check", "--config", str(cfg), "--out", str(out)]) == 0
        props = json.loads(out.read_text())["results"]["properties"]
        assert all(rep["verdict"] == "pass" for rep in props.values())

    def test_demo_config_from_another_cwd(self, tmp_path, monkeypatch):
        """Data-file paths resolve against the config file's directory."""
        demo = Path(__file__).resolve().parent.parent / "demos" / "cli" / "run.ini"
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "r.json"
        assert run(["risk-check", "--config", str(demo), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["results"]["measure"] == "entropic-ce"

    @pytest.mark.parametrize("section", ["space", "partition"])
    def test_bad_data_file_is_config_error(self, tmp_path, capsys, section):
        (tmp_path / "space.txt").write_text("0.5 a\n0.5 b\n")
        (tmp_path / "partition.txt").write_text("1\n2\n")
        cfg = tmp_path / "d.ini"
        cfg.write_text("[space]\nfile = space.txt\n\n[partition]\n"
                       "file = partition.txt\n\n[measure m]\n"
                       "kind = neg_cond_exp\n\n[risk-check]\nmeasure = m\n"
                       "properties = monotonicity\n")
        assert run(["risk-check", "--config", str(cfg)]) == 0
        (tmp_path / f"{section}.txt").unlink()
        assert run(["risk-check", "--config", str(cfg)]) == 64
        assert f"[{section}] file" in capsys.readouterr().err
        (tmp_path / f"{section}.txt").write_text("not a number\n")
        assert run(["risk-check", "--config", str(cfg)]) == 64

    @pytest.mark.parametrize("command,key,value", [
        ("risk-check", "budget", "0"), ("risk-check", "budget", "-5"),
        ("risk-check", "budget", "many"), ("l2-demo", "budget", "0"),
        ("l2-demo", "samples", "0")])
    def test_sample_budget_must_be_positive(self, tmp_path, capsys, command,
                                            key, value):
        """A budget of zero checks nothing, so it cannot report a pass."""
        text = Path(write_config(tmp_path, measure="cubed_mean",
                                 l2_measure="sqrt_log")).read_text()
        risk, l2 = text.split("[l2-demo]")
        if command == "risk-check":
            risk = risk.replace(f"{key} = 80", f"{key} = {value}")
        else:
            l2 = l2.replace(f"{key} = 80", f"{key} = {value}")
        cfg = tmp_path / "b.ini"
        cfg.write_text(risk + "[l2-demo]" + l2)
        assert run([command, "--config", str(cfg)]) == 64
        assert f"[{command}] {key}" in capsys.readouterr().err

    def test_partition_size_mismatch(self, tmp_path):
        cfg = tmp_path / "m.ini"
        cfg.write_text("[space]\nuniform = 8\n\n[partition]\n"
                       "atoms = 1-4; 5-7; 8-10\n\n[measure m]\n"
                       "kind = neg_cond_exp\n\n[risk-check]\nmeasure = m\n")
        assert run(["risk-check", "--config", str(cfg)]) == 64

    def test_threads_flag_accepted(self, tmp_path):
        """Whole ``results`` sections agree across thread counts."""
        cfg = write_config(tmp_path)
        for command, section in ((["sum-check", "--brute"], "brute_force"),
                                 (["index"], "functions")):
            reports = []
            for threads in ("1", "3"):
                out = tmp_path / f"{command[0]}-{threads}.json"
                run([*command, "--config", cfg, "--threads", threads,
                     "--out", str(out)])
                reports.append(json.loads(out.read_text()))
            assert reports[0]["threads"] == 1 and reports[1]["threads"] == 3
            assert section in reports[0]["results"]
            assert reports[0]["results"] == reports[1]["results"], command

    @pytest.mark.parametrize("value", ["0", "9", "x"])
    def test_blind_spot_atom_out_of_range(self, tmp_path, capsys, value):
        """``ignored_atom`` is a 1-based atom number, 1..k."""
        text = Path(write_config(tmp_path, measure="blind_spot")).read_text()
        cfg = tmp_path / "b.ini"
        cfg.write_text(text.replace("kind = blind_spot",
                                    f"kind = blind_spot\nignored_atom = {value}"))
        assert run(["risk-check", "--config", str(cfg)]) == 64
        assert "ignored_atom" in capsys.readouterr().err

    def test_blind_spot_atom_in_range(self, tmp_path):
        text = Path(write_config(tmp_path, measure="blind_spot")).read_text()
        cfg = tmp_path / "b.ini"
        cfg.write_text(text.replace("kind = blind_spot",
                                    "kind = blind_spot\nignored_atom = 3"))
        out = tmp_path / "r.json"
        assert run(["risk-check", "--config", str(cfg), "--out", str(out)]) == 2
        res = json.loads(out.read_text())["results"]
        assert res["measure"] == "blind-spot[2]"
        assert res["properties"]["sensitivity"]["witness"]["event"] == [7]

    @pytest.mark.parametrize("command,section,changes", [
        ("risk-check", "risk-check", {"tol": "abc"}),
        ("risk-check", "space", {"uniform": "ten"}),
        ("risk-check", "space", {"uniform": None, "probs": "0.5 half"}),
        ("index", "index", {"lambda_cap": "1e4x"}),
        ("index", "index", {"tol": ""}),
        ("sum-check", "sum-check", {"tol": "abc"}),
        ("sum-check", "sum-check", {"lambda_cap": "big"}),
        ("sum-check", "sum-check", {"pair_budget": "1e6"}),
        ("sum-check", "sum-check", {"brute_grid": "41 x"}),
        ("index", "function l", {"weight": "heavy"}),
        ("index", "function s", {"a": "abc"}),
        ("index", "function s", {"domain": "1 four"}),
        ("index", "function s", {"domain": "1 2 3"}),
        ("index", "function s", {"grid": "31.5"}),
        ("index", "function s", {"family": "piecewise", "ys": "0 1 4",
                                 "xs": "0 1 x"}),
        ("index", "function s", {"family": "piecewise", "xs": "0 1 2",
                                 "ys": "0 1 oops"}),
    ])
    def test_malformed_number_is_config_error(self, tmp_path, capsys, command,
                                              section, changes):
        """A value that does not parse exits 64 and names its key (the
        last one changed)."""
        assert run_changed(tmp_path, command, section, changes) == 64
        key = list(changes)[-1]
        assert f"[{section}] {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("command,section,changes", [
        ("index", "function s", {"domain": "4 1"}),
        ("index", "function s", {"grid": "2"}),
        ("risk-check", "space", {"uniform": None, "probs": "0.5 0.6"}),
        ("risk-check", "risk-check", {"tol": "-1"}),
        ("index", "index", {"tol": "0"}),
        ("sum-check", "sum-check", {"lambda_cap": "-1e4"}),
    ])
    def test_out_of_range_value_is_config_error(self, tmp_path, capsys,
                                                command, section, changes):
        """A well-formed value out of its range (an empty domain, fewer
        than three grid points, probabilities that do not sum to 1, a
        tolerance or lambda cap that is not positive) exits 64 and names
        its key."""
        assert run_changed(tmp_path, command, section, changes) == 64
        key = list(changes)[-1]
        assert f"[{section}] {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one(self, tmp_path, capsys, threads):
        cfg = write_config(tmp_path)
        assert run(["index", "--config", cfg, "--threads", threads]) == 64
        assert "--threads" in capsys.readouterr().err

    def test_threads_clamped_to_cores(self, tmp_path, monkeypatch):
        """The command gets at most ``os.cpu_count()`` threads; the stub
        command starts none."""
        import qcx.cli as cli
        seen = []

        def fake_index(cp, seed, threads, csv_path):
            seen.append(threads)
            return {"functions": {}}

        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(cli, "cmd_index", fake_index)
        cfg = write_config(tmp_path)
        out = tmp_path / "r.json"
        assert run(["index", "--config", cfg, "--threads", "64",
                    "--out", str(out)]) == 0
        assert run(["index", "--config", cfg, "--threads", "1"]) == 0
        assert seen == [2, 1]
        assert json.loads(out.read_text())["threads"] == 64
