"""The ladder harness (``perf/ladder.py``) and its committed file.

The smallest rungs (k = 3, 257 grid points for the index and its table,
scan and probe, 21^2 and 9^3 product grids) and the L2 rungs run into a
temporary file,
which must have the schema of the committed ``BENCH_ladder.json``; the
committed file must hold every rung of the full ladder.
"""

import importlib.util
import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("ladder",
                                               ROOT / "perf" / "ladder.py")
ladder = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ladder)

METADATA = {"nproc", "python", "numpy", "commit", "src_qcx_lines"}


#: The L2 rungs, which have no size.
L2_RUNGS = {"l2.basis_locality.paper10pt", "l2.basis_locality.paper10pt-split",
            "l2.cone_self_dual.paper10pt", "l2.nqc_wrt_preorder.paper10pt"}


def rung_names(ks, points, points_2d, points_3d):
    return ({f"risk.{prop}.{measure}.k{k}" for k in ks
             for measure in ladder.MEASURES
             for prop in ladder.cli.PROPERTY_CHECKS}
            | {f"{layer}.{name}.m{m}" for m in points
               for name in ladder.INDEX_FUNCTIONS
               for layer in ("index", "table", "scan", "probe")}
            | {f"{kind}.m{m}" for m in points_2d
               for kind in ("index.neglog2", "brute.sqrt_neglog")}
            | {f"brute.sqrt_neglog_square.m{m}" for m in points_3d}
            | L2_RUNGS)


def check_schema(data, *sizes):
    assert METADATA <= set(data["metadata"])
    assert data["metadata"]["src_qcx_lines"] > 0
    assert set(data["rungs"]) == rung_names(*sizes)
    for name, rung in data["rungs"].items():
        assert set(rung) == {"best_s", "faults", "peak_mb", "outcome"}
        assert rung["best_s"] > 0 and rung["peak_mb"] > 0
        assert isinstance(rung["faults"], int) and rung["faults"] >= 0
        if name.startswith("risk."):
            assert rung["outcome"] in ("pass", "fail", "inconclusive")
        elif name.startswith("l2."):  # the entropic measure passes them all
            assert rung["outcome"] == "pass"
        elif name.startswith("brute.sqrt_neglog."):  # -1 + 1/0.5 >= 0
            assert rung["outcome"] == "certified"
        elif name.startswith("brute."):  # one exception, 1/-1 + 1 + 8 > 0
            assert rung["outcome"] == "refuted"
        elif name.startswith("table."):  # the pair count
            assert isinstance(rung["outcome"], int) and rung["outcome"] > 0
        elif name.startswith("scan."):  # the worst convexity gap
            concave = name.split(".")[1] in ("sqrt", "log", "late_concave")
            assert (rung["outcome"] > 1e-6) == concave
        elif name.startswith("probe."):  # the index passes
            assert rung["outcome"] is True
        elif name.startswith("index.neglog2."):  # 1 / (1/1 + 1/1)
            assert abs(rung["outcome"] - 0.5) < 1e-3
        elif name.startswith("index.late_concave."):  # f''/f'^2 = -19 at 1
            assert abs(rung["outcome"] + 19.0) < 1e-2
        elif name.startswith("index.square."):  # f''/f'^2 = 1/8 at 2
            assert abs(rung["outcome"] - 0.125) < 1e-3
        elif name.startswith("index.exp."):  # f''/f'^2 = 1/e at 1
            assert abs(rung["outcome"] - math.exp(-1.0)) < 1e-3
        else:  # sqrt and log are case I, neglog case II, indices near -1, 1
            assert abs(abs(rung["outcome"]) - 1.0) < 1e-3


def test_smallest_rungs_write_the_schema(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(ladder, "KS", (3,))
    monkeypatch.setattr(ladder, "POINTS", (257,))
    monkeypatch.setattr(ladder, "POINTS_2D", (21,))
    monkeypatch.setattr(ladder, "POINTS_3D", (9,))
    monkeypatch.setattr(ladder, "RUNS", 1)
    out = tmp_path / "ladder.json"
    assert ladder.main(["--out", str(out)]) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    check_schema(data, [3], [257], [21], [9])
    assert data["rungs"]["index.sqrt.m257"]["outcome"] < 0
    assert data["rungs"]["index.log.m257"]["outcome"] < 0
    assert data["runs"] == 1
    # the cubed mean is neither translative nor convex
    assert data["rungs"]["risk.translativity.cubed_mean.k3"]["outcome"] == "fail"
    assert data["rungs"]["risk.locality.entropic.k3"]["outcome"] == "pass"
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 49
    assert all("committed" in line for line in printed)


def test_committed_file_holds_the_full_ladder():
    data = json.loads((ROOT / "BENCH_ladder.json").read_text(encoding="utf-8"))
    check_schema(data, ladder.KS, ladder.POINTS, ladder.POINTS_2D,
                 ladder.POINTS_3D)


def test_rungs_call_the_cli(monkeypatch):
    """Each risk rung at k = 3 checks its own property through
    ``cli.check_property``, and each L2 rung checks a fixture and measure
    from ``cli.build_l2``: the ladder keeps no copy of either."""
    cli, checked, built = ladder.cli, [], []
    check_property, build_l2 = cli.check_property, cli.build_l2

    def record_check(prop, *args):
        checked.append(prop)
        return check_property(prop, *args)

    def record_build(fixture, kind):
        built.append(build_l2(fixture, kind))
        return built[-1]

    monkeypatch.setattr(cli, "check_property", record_check)
    monkeypatch.setattr(cli, "build_l2", record_build)
    for name, call in ladder.risk_calls(3).items():
        checked.clear()
        assert call() in ("pass", "fail", "inconclusive")
        assert checked == [name.split(".")[1]], name
    given = []
    for check in ("check_basis_locality", "check_cone_self_dual",
                  "check_nqc_wrt_preorder"):
        def record(*args, _check=getattr(ladder.l2basis, check), **kwargs):
            given.append(args)
            return _check(*args, **kwargs)
        monkeypatch.setattr(ladder.l2basis, check, record)
    calls = ladder.l2_calls()
    assert [rho.name for _, rho in built] == ["entropic-ce", "cond-exp-coarse"]
    for name, call in calls.items():
        given.clear()
        assert call() == "pass"
        assert given and all(any(a is b for pair in built for b in pair)
                             for args in given for a in args), name


def test_changed_outcomes_are_printed(tmp_path, capsys, monkeypatch):
    committed = tmp_path / "committed.json"
    committed.write_text(json.dumps({"rungs": {
        name: {"best_s": 1.0, "outcome": outcome}
        for name, outcome in (("a", "pass"), ("b", "fail"))}}))
    monkeypatch.setattr(ladder, "COMMITTED", committed)
    monkeypatch.setattr(ladder, "rungs", lambda *sizes: {
        name: {"best_s": 0.5, "peak_mb": 1.0, "faults": 0, "outcome": "pass"}
        for name in ("a", "b", "c")})
    assert ladder.main(["--out", str(tmp_path / "out.json")]) == 0
    a, b, c = capsys.readouterr().out.splitlines()
    assert "outcome changed" not in a + c
    assert b.endswith("0.500x committed  outcome changed (committed: fail)")
    assert c.endswith("new")
