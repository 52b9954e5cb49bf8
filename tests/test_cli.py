import importlib.util
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qcx.cindex import DEFAULT_LAMBDA_CAP, REL_GAP_TOL
from qcx.cli import CONFIG_KEYS, _read, build_function, load_config, main
from qcx.decomp import DecomposableSum
from qcx.errors import CapTooSmallWarning, ConfigError
from qcx.extcore import PairTable, quasiconvexity_gap

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "workloads", ROOT / "bench" / "workloads.py")
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)


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

    @staticmethod
    def _sweep(tmp_path, cfg):
        """Run ``index`` with ``--csv``; every row must replay on a fresh
        table. Returns the rows, the report's functions and the config."""
        csv, out = tmp_path / "sweep.csv", tmp_path / "r.json"
        assert run(["index", "--config", cfg, "--csv", str(csv),
                    "--out", str(out)]) == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "function,lambda,transform_ok"
        functions = json.loads(out.read_text())["results"]["functions"]
        cp = load_config(cfg)
        for name, lam, ok in (line.split(",") for line in lines[1:]):
            f, box = build_function(cp, name)
            assert PairTable(f, box).exp_transform_ok(float(lam)) == (ok == "1")
        return lines[1:], functions, cp

    def test_csv_sweep(self, tmp_path):
        """Each function's rows are its cap probe and its upper bracket end,
        and the transform passes at the lower end, which the solve proves
        without a probe. An infinite index has its cap probe as its only
        row, and a constant has none."""
        rows, functions, cp = self._sweep(tmp_path, write_config(tmp_path))
        for name, r in functions.items():
            f, box = build_function(cp, name)
            sign = +1 if r["case"] == "I" else -1
            mine = [(float(lam), ok == "1") for n, lam, ok in
                    (row.split(",") for row in rows) if n == name]
            lo, hi = r["bracket"]
            assert mine == [(-sign * DEFAULT_LAMBDA_CAP, r["case"] == "I"),
                            (hi, False)]
            assert PairTable(f, box).exp_transform_ok(lo)
        cp = load_config(write_config(tmp_path, weight=1.0))
        cp.read_string("[function k]\nfamily = const\nc = 3\ndomain = 0 1\n")
        cp.set("index", "function", "s l k")
        cp.set("index", "lambda_cap", "0.001")
        cfg = tmp_path / "inf.ini"
        with open(cfg, "w", encoding="utf-8") as fh:
            cp.write(fh)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CapTooSmallWarning)
            rows, functions, _ = self._sweep(tmp_path, str(cfg))
        assert rows == ["s,-0.001,0", "l,0.001,1"]
        assert {n: (r["value"], r["cap_probe"]) for n, r in functions.items()} \
            == {"s": ("-inf", True), "l": ("inf", True), "k": ("inf", False)}


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

    @pytest.mark.parametrize("args,message", [
        (["--seed", "x"], "invalid int value: 'x'"),
        (["--bogus"], "unrecognized arguments: --bogus"),
        (None, "required: --config"),
    ], ids=["bad-seed", "unknown-flag", "missing-config"])
    def test_usage_error_exits_64(self, tmp_path, capsys, args, message):
        """A usage error is a configuration error, not the failure that
        argparse's own exit code 2 would report."""
        argv = ["index"] + (["--config", write_config(tmp_path)] + args
                            if args else [])
        with pytest.raises(SystemExit) as exit_:
            run(argv)
        assert exit_.value.code == 64
        err = capsys.readouterr().err
        assert err.startswith("usage: qcx") and message in err

    @pytest.mark.parametrize("command", ["index", "sum-check", "risk-check",
                                         "l2-demo"])
    def test_negative_seed_is_usage_error(self, capsys, command):
        """A negative seed exits 64 on every subcommand; risk-check and
        l2-demo used to end in a numpy traceback, the others ran."""
        demo = ROOT / "demos" / "cli" / "run.ini"
        with pytest.raises(SystemExit) as exit_:
            run([command, "--config", str(demo), "--seed", "-1"])
        assert exit_.value.code == 64
        err = capsys.readouterr().err
        assert err.startswith("usage: qcx") and "--seed" in err

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    def test_unwritable_output_is_usage_error(self, tmp_path, capsys, flag):
        """An output path that cannot be opened exits 64 before anything
        is computed; it used to end in a traceback after the whole run."""
        demo = ROOT / "demos" / "cli" / "run.ini"
        with pytest.raises(SystemExit) as exit_:
            run(["index", "--config", str(demo),
                 flag, str(tmp_path / "missing" / "o")])
        assert exit_.value.code == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: cannot write" in captured.err

    def test_repeated_index_function(self, tmp_path, capsys):
        """A function named twice in ``[index] function`` is a config
        error; it used to be computed twice and reported once."""
        assert run_changed(tmp_path, "index", "index",
                           {"function": "s l s"}) == 64
        err = capsys.readouterr().err
        assert "[index] function" in err and "'s' is listed twice" in err

    def test_repeated_risk_check_property(self, tmp_path, capsys):
        """A property named twice in ``[risk-check] properties`` is a config
        error; it used to run twice on two streams and keep the second
        report only, so a failure of the first run was lost."""
        assert run_changed(tmp_path, "risk-check", "risk-check", {
            "properties": "monotonicity monotonicity star"}) == 64
        err = capsys.readouterr().err
        assert ("[risk-check] properties: 'monotonicity' is listed twice"
                in err)

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

    def test_certainty_equivalent_kind_is_gone(self, tmp_path, capsys):
        """``certainty_equivalent`` only re-spelled ``entropic`` (loss
        ``exp``) and ``neg_cond_exp`` (loss ``identity``): it exits 64 and
        the message lists the kinds that remain."""
        changes = {"kind": "certainty_equivalent"}
        assert run_changed(tmp_path, "risk-check", "measure m", changes) == 64
        err = capsys.readouterr().err
        assert "[measure m] kind: unknown 'certainty_equivalent'" in err
        assert "known: neg_cond_exp, entropic," in err

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

    @pytest.mark.parametrize("atoms", ["1 1 2; 3", "1-2; 3 5-4; 4-5"],
                             ids=["repeated-outcome", "reversed-range"])
    @pytest.mark.parametrize("form", ["atoms", "file"])
    def test_malformed_partition_is_config_error(self, tmp_path, capsys,
                                                 atoms, form):
        """A repeated outcome and a reversed range used to pass unnoticed;
        the first covered four outcomes with three, so it ran on a uniform
        space of four."""
        n = 4 if "1 1" in atoms else 5
        if form == "file":
            (tmp_path / "part.txt").write_text(atoms.replace(";", "\n"))
            given = "part.txt"
        else:
            given = atoms
        cfg = tmp_path / "p.ini"
        cfg.write_text(f"[space]\nuniform = {n}\n\n[partition]\n"
                       f"{form} = {given}\n\n[measure m]\n"
                       "kind = neg_cond_exp\n\n[risk-check]\nmeasure = m\n")
        assert run(["risk-check", "--config", str(cfg)]) == 64
        assert f"[partition] {form}: " in capsys.readouterr().err

    @pytest.mark.parametrize("section,changes", [
        ("partition", {"atoms": "0-4; 5-7; 8-10"}),
        ("partition", {"atoms": None, "file": "part.txt"}),
        ("measure m", {"kind": "coarse_cond_exp", "target": "0-7; 8-10"}),
    ])
    def test_outcome_zero_is_config_error(self, tmp_path, capsys, section,
                                          changes):
        """A partition counts outcomes from 1: outcome 0 exits 64, names its
        key and says so."""
        (tmp_path / "part.txt").write_text("0-4\n5-7\n8-10\n")
        if "file" in changes:
            changes = {**changes, "file": str(tmp_path / "part.txt")}
        assert run_changed(tmp_path, "risk-check", section, changes) == 64
        key = list(changes)[-1]
        err = capsys.readouterr().err
        assert f"[{section}] {key}: " in err and "numbered from 1" in err

    @pytest.mark.parametrize("token", ["1_0", "+10", "-10", "10-", "8-9-10",
                                       "9--10"])
    @pytest.mark.parametrize("section,key", [
        ("partition", "atoms"), ("partition", "file"),
        ("measure m", "target")])
    def test_outcome_token_other_than_n_or_range_is_config_error(
            self, tmp_path, capsys, token, section, key):
        """An outcome token other than ``N`` or ``N-M`` exits 64 and names
        its key and the token; ``1_0`` and ``+10`` ran as outcome 10."""
        atoms = f"1-4; 5-7; 8-9 {token}"
        (tmp_path / "part.txt").write_text(atoms.replace(";", "\n"))
        changes = {"atoms": None, "file": str(tmp_path / "part.txt")}
        if key == "atoms":
            changes = {"atoms": atoms}
        elif key == "target":
            changes = {"kind": "coarse_cond_exp", "target": atoms}
        assert run_changed(tmp_path, "risk-check", section, changes) == 64
        err = capsys.readouterr().err
        assert (f"[{section}] {key}: {token!r} is not an outcome number"
                in err)

    def test_partition_size_mismatch(self, tmp_path):
        cfg = tmp_path / "m.ini"
        cfg.write_text("[space]\nuniform = 8\n\n[partition]\n"
                       "atoms = 1-4; 5-7; 8-10\n\n[measure m]\n"
                       "kind = neg_cond_exp\n\n[risk-check]\nmeasure = m\n")
        assert run(["risk-check", "--config", str(cfg)]) == 64

    def test_threads_flag_accepted(self, tmp_path):
        """``--threads`` is accepted and changes nothing: the report files
        agree byte for byte, up to far more threads than cores."""
        cfg = write_config(tmp_path)
        for command, section in ((["sum-check", "--brute"], "brute_force"),
                                 (["index"], "functions")):
            reports = []
            for threads in ("1", "3", "64"):
                out = tmp_path / f"{command[0]}-{threads}.json"
                run([*command, "--config", cfg, "--threads", threads,
                     "--out", str(out)])
                reports.append(out.read_bytes())
            assert section in json.loads(reports[0])["results"]
            assert reports[0] == reports[1] == reports[2], command

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
        ("risk-check", "partition", {"atoms": "1-4; 5-x; 8-10"}),
        ("risk-check", "measure m", {"kind": "coarse_cond_exp",
                                     "target": "1-7; 8-10", "negate": "ture"}),
        ("risk-check", "measure m", {"kind": "coarse_cond_exp",
                                     "target": "1-7; 8-x"}),
        ("index", "index", {"function": ""}),
        ("risk-check", "risk-check", {"properties": ""}),
        ("sum-check", "sum-check", {"brute_grid": ""}),
    ])
    def test_malformed_number_is_config_error(self, tmp_path, capsys, command,
                                              section, changes):
        """A value that does not parse (a number, a partition, a boolean)
        exits 64 and names its key (the last one changed)."""
        assert run_changed(tmp_path, command, section, changes) == 64
        key = list(changes)[-1]
        assert f"[{section}] {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("word,negate", [
        ("true", True), ("Yes", True), ("on", True), ("1", True),
        ("false", False), ("no", False), ("OFF", False), ("0", False)])
    def test_boolean_words(self, tmp_path, word, negate):
        """``negate`` reads configparser's boolean words."""
        cp = load_config(write_config(tmp_path))
        for key, value in (("kind", "coarse_cond_exp"),
                           ("target", "1-7; 8-10"), ("negate", word)):
            cp.set("measure m", key, value)
        cp.set("risk-check", "properties", "locality")
        cfg = tmp_path / "changed.ini"
        cfg = tmp_path / "inf.ini"
        with open(cfg, "w", encoding="utf-8") as fh:
            cp.write(fh)
        out = tmp_path / "r.json"
        run(["risk-check", "--config", str(cfg), "--out", str(out)])
        name = json.loads(out.read_text())["results"]["measure"]
        assert name == ("neg-" if negate else "") + "cond-exp-coarse"

    @pytest.mark.parametrize("command,section,changes", [
        ("index", "function s", {"domain": "4 1"}),
        ("index", "function s", {"grid": "2"}),
        ("risk-check", "space", {"uniform": None, "probs": "0.5 0.6"}),
        ("risk-check", "risk-check", {"tol": "-1"}),
        ("index", "index", {"tol": "0"}),
        ("sum-check", "sum-check", {"lambda_cap": "-1e4"}),
        ("risk-check", "partition", {"atoms": "1-4; 4-7; 8-10"}),
        ("risk-check", "risk-check", {"tol": "inf"}),
        ("index", "index", {"lambda_cap": "inf"}),
        ("sum-check", "sum-check", {"brute_grid": "2 2"}),
        ("sum-check", "sum-check", {"brute_grid": "11 11 11"}),
        ("risk-check", "space", {"uniform": None,
                                 "probs": "0.1 " * 9 + "nan"}),
        ("index", "function l", {"weight": "nan"}),
        ("index", "function l", {"weight": "inf"}),
    ])
    def test_out_of_range_value_is_config_error(self, tmp_path, capsys,
                                                command, section, changes):
        """A well-formed value out of its range (an empty domain, fewer
        than three grid points, probabilities that do not sum to 1, a
        tolerance or lambda cap that is not positive, overlapping atoms)
        exits 64 and names its key."""
        assert run_changed(tmp_path, command, section, changes) == 64
        key = list(changes)[-1]
        assert f"[{section}] {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("changes,key", [
        ({"family": "affine", "a": "nan"}, "a"),
        ({"family": "affine", "b": "-inf"}, "b"),
        ({"family": "const", "c": "nan"}, "c"),
        ({"family": "piecewise", "xs": "0 1 2", "ys": "0 nan 1"}, "ys"),
        ({"family": "piecewise", "xs": "0 1 inf", "ys": "0 1 2"}, "xs"),
    ])
    def test_non_finite_family_parameter_is_config_error(
            self, tmp_path, capsys, changes, key):
        """A NaN or infinite family parameter exits 64 and names the
        function and the parameter, instead of failing in the oracle."""
        assert run_changed(tmp_path, "index", "function s", changes) == 64
        err = capsys.readouterr().err
        assert "[function s]" in err and f"{key} must be finite" in err

    @pytest.mark.parametrize("command", ["index", "sum-check"])
    @pytest.mark.parametrize("section,changes", [
        ("function s", {"domain": "-1 4"}),
        ("function l", {"domain": "-2 2.718281828459045"}),
    ])
    def test_domain_outside_the_family_is_config_error(
            self, tmp_path, capsys, command, section, changes):
        """A domain where the family is undefined (NaN) exits 64 and names
        the function's domain, instead of failing in the oracle."""
        assert run_changed(tmp_path, command, section, changes) == 64
        err = capsys.readouterr().err
        assert f"[{section}] domain" in err and "Traceback" not in err

    @pytest.mark.parametrize("section,changes,given", [
        ("space", {"probs": "0.1 " * 10}, "uniform and probs"),
        ("space", {"file": "scen.txt"}, "uniform and file"),
        ("space", {"probs": "0.1 " * 10, "file": "scen.txt"},
         "uniform and probs and file"),
        ("partition", {"file": "part.txt"}, "atoms and file"),
    ])
    def test_conflicting_key_sets_are_config_error(self, tmp_path, capsys,
                                                   section, changes, given):
        """A space or partition given by more than one key set exits 64
        and names the section and the keys, instead of using the first."""
        assert run_changed(tmp_path, "risk-check", section, changes) == 64
        assert f"[{section}] {given}: conflicting" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one(self, tmp_path, capsys, threads):
        cfg = write_config(tmp_path)
        assert run(["index", "--config", cfg, "--threads", threads]) == 64
        assert "--threads" in capsys.readouterr().err

    def test_sum_check_reads_brute_keys_before_the_indices(
            self, tmp_path, capsys, monkeypatch):
        """A bad brute key exits 64 before any coordinate index is
        computed."""
        import qcx.decomp

        def no_index(*args, **kwargs):
            raise AssertionError("an index was computed")

        monkeypatch.setattr(qcx.decomp, "compute_index", no_index)
        for value in ("41 x", "2 2", "11 11 11"):
            assert run_changed(tmp_path, "sum-check", "sum-check",
                               {"brute_grid": value}) == 64
            assert "[sum-check] brute_grid" in capsys.readouterr().err

    @pytest.mark.parametrize("changes,pairs", [
        ({"brute_grid": "9 9", "pair_budget": "100"}, 3240),
        ({"pair_budget": "1000"}, 461280)])
    def test_pair_budget_below_the_brute_grid_is_config_error(
            self, tmp_path, capsys, monkeypatch, changes, pairs):
        """A pair budget below the brute-force grid's pair count (from
        ``brute_grid``, else the functions' 31-point grids) exits 64 before
        any coordinate index is computed."""
        import qcx.decomp

        def no_index(*args, **kwargs):
            raise AssertionError("an index was computed")

        with monkeypatch.context() as patched:
            patched.setattr(qcx.decomp, "compute_index", no_index)
            assert run_changed(tmp_path, "sum-check", "sum-check",
                               changes) == 64
        err = capsys.readouterr().err
        assert "[sum-check] pair_budget" in err and str(pairs) in err
        changes = {**changes, "pair_budget": str(pairs)}
        assert run_changed(tmp_path, "sum-check", "sum-check", changes) != 64

    @pytest.mark.parametrize("command,section,changes", [
        ("risk-check", "risk-check", {"budgte": "7"}),
        ("index", "function s", {"gird": "31"}),
        ("l2-demo", "l2-demo", {"loss": "exp"}),
        ("sum-check", "sum-check", {"brute": "true"}),  # --brute asks for it
    ])
    def test_unknown_key_is_config_error(self, tmp_path, capsys, command,
                                         section, changes):
        """A misspelled key exits 64 and names itself instead of leaving
        its default in force."""
        assert run_changed(tmp_path, command, section, changes) == 64
        key = list(changes)[-1]
        assert f"[{section}] {key}: unknown key" in capsys.readouterr().err

    def test_unknown_sections_and_measure_keys_are_accepted(self, tmp_path):
        """Sections of other kinds are left alone, and a measure section
        accepts every measure key whatever its kind."""
        cfg = tmp_path / "extra.ini"
        cfg.write_text(Path(write_config(tmp_path)).read_text()
                       + "\n[notes]\nbudgte = 7\n")
        cp = load_config(str(cfg))
        cp.set("measure m", "negate", "true")
        cp.set("measure m", "ignored_atom", "2")
        cfg = tmp_path / "inf.ini"
        with open(cfg, "w", encoding="utf-8") as fh:
            cp.write(fh)
        assert run(["risk-check", "--config", str(cfg)]) == 0

    def test_values_are_read_only_by_their_command(self, tmp_path):
        """A bad value breaks only the commands that read it."""
        assert run_changed(tmp_path, "index", "risk-check",
                           {"budget": "x", "tol": "inf"}) == 0
        assert run_changed(tmp_path, "risk-check", "l2-demo",
                           {"fixture": "nowhere"}) == 0

    @pytest.mark.parametrize("command", [["index"], ["sum-check", "--brute"],
                                         ["risk-check"], ["l2-demo"]])
    def test_demo_config_runs_every_subcommand(self, command):
        demo = ROOT / "demos" / "cli" / "run.ini"
        assert run([*command, "--config", str(demo)]) == 0

    def test_bench_configs_load(self, tmp_path):
        """Every config the benchmark generates loads, and each of its keys
        reads through the table."""
        cfg = tmp_path / "job.ini"
        for workload in ("index", "brute", "risk"):
            for seed in range(101, 111):
                for job in workloads.generate(workload, seed):
                    cfg.write_text(job["config"])
                    cp = load_config(str(cfg))
                    for section in cp.sections():
                        assert section.partition(" ")[0] in CONFIG_KEYS
                        for key in cp.options(section):
                            _read(cp, section, key)

    def test_bench_brute_jobs_keep_term_tables(self, tmp_path):
        """Every ``brute`` job of the benchmark scans a sum whose term
        tables are kept, so it runs the chunked outer-sum scan."""
        cfg = tmp_path / "job.ini"
        jobs = 0
        for seed in range(101, 111):
            for job in workloads.generate("brute", seed):
                cfg.write_text(job["config"])
                cp = load_config(str(cfg))
                names = _read(cp, "sum-check", "functions")
                dsum = DecomposableSum(tuple(build_function(cp, name)
                                             for name in names))
                box = dsum.product_box(_read(cp, "sum-check", "brute_grid"))
                assert PairTable(dsum.as_function(), box).terms is not None
                jobs += 1
        assert jobs == 30

    def test_bench_risk_reports_keep_the_verdict_lattice(self, tmp_path):
        """Per triple, convex implies nqc and star, and each of those implies
        quasiconvex. The four checks read one triple table in one order, so
        a weaker property fails no earlier than a stronger one. A failure
        counts at its ``samples``, a pass at ``samples + 1``."""
        cfg, out = tmp_path / "job.ini", tmp_path / "r.json"
        reports = 0
        for seed in range(101, 111):
            for job in workloads.generate("risk", seed):
                if job["command"] != "risk-check":
                    continue
                cfg.write_text(job["config"])
                run([job["command"], "--config", str(cfg),
                     "--seed", str(job["seed"]), *job["extra"],
                     "--out", str(out)])
                props = json.loads(out.read_text())["results"]["properties"]
                first = {p: props[p]["samples"] + (props[p]["verdict"] == "pass")
                         for p in ("convexity", "nqc", "star", "quasiconvexity")}
                for middle in ("nqc", "star"):
                    assert (first["convexity"] <= first[middle]
                            <= first["quasiconvexity"]), (seed, job["name"], first)
                reports += 1
        assert reports == 120

    def test_bench_verifier_loads(self, monkeypatch):
        """``bench/verify.py`` loads: every library name the benchmark's
        correctness gate imports still exists."""
        monkeypatch.syspath_prepend(str(ROOT / "bench"))
        # its ``import workloads`` registers a module; drop it afterwards
        monkeypatch.setitem(sys.modules, "workloads", None)
        monkeypatch.delitem(sys.modules, "workloads")
        spec = importlib.util.spec_from_file_location(
            "verify", ROOT / "bench" / "verify.py")
        verify = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(verify)
        assert callable(verify.check_job)

    def test_read_names_a_missing_required_key(self, tmp_path):
        cfg = tmp_path / "r.ini"
        cfg.write_text("[function f]\nfamily = sqrt\n")
        cp = load_config(str(cfg))
        assert _read(cp, "function f", "grid") == 129
        with pytest.raises(ConfigError, match="missing key 'domain'"):
            _read(cp, "function f", "domain")
