import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import claimorder
from claimorder.cases import get_case
from claimorder.cli import _difference_verdict, load_instance_spec, main, write_curve_csv
from claimorder.ordercheck import TheoremId, audit

GOOD_SPEC = """
portfolio_a:
  family: {kind: exponential}
  psi: {kind: neg_log}
  p: [0.2, 0.25, 0.3]
  alpha: [3.0, 2.5, 2.0]
portfolio_b:
  family: {kind: exponential}
  psi: {kind: neg_log}
  p: [0.15, 0.2, 0.25]
  alpha: [3.5, 3.0, 2.5]
counts_a: {kind: poisson, lam: 1.0, support: [2, 3]}
counts_b: {kind: poisson, lam: 1.0, support: [2, 3]}
kind: max
grid: {points: 400}
"""


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "instance.yaml"
    path.write_text(GOOD_SPEC)
    return str(path)


_EX3_CORRECTIONS = (
    "correction applied: p[5] = e^{3.9} exceeds 1; corrected to e^{-3.9}\n"
    "correction applied: q[5] = e^{3.9} exceeds 1; corrected to e^{-3.9}\n"
)

# reproduce's whole stdout at the default points and at --points 200
_REPRODUCE_STDOUT = {
    "ex3_1": 2 * [
        _EX3_CORRECTIONS
        + "ex3_1: holds: difference <= 0 everywhere (max difference -7.77379e-07)\n"
    ],
    "cex3_1": 2 * [
        "correction applied: p[5] = e^{3.9} exceeds 1; corrected to e^{-3.9}\n"
        "correction applied: q[5] = e^{2.6} exceeds 1; corrected to e^{-2.6}\n"
        "cex3_1: sign change at x ~= 0.841381\n"
    ],
    "cex3_2": 2 * ["cex3_2: sign change at x ~= 1.49035\n"],
    "cex3_3": [
        _EX3_CORRECTIONS + "cex3_3: ratio decreases on [0.0008, 0.000822413] (not monotone)\n",
        _EX3_CORRECTIONS + "cex3_3: ratio decreases on [0.0008, 0.00105461] (not monotone)\n",
    ],
}


def _assert_reproduce_stdout(case, capsys):
    for extra, want in zip(([], ["--points", "200"]), _REPRODUCE_STDOUT[case]):
        assert main(["reproduce", case, *extra]) == 0
        assert capsys.readouterr().out == want, extra


class TestReproduce:
    def test_example_holds_and_reports_corrections(self, capsys):
        _assert_reproduce_stdout("ex3_1", capsys)

    def test_first_counterexample_reports_crossing(self, capsys):
        _assert_reproduce_stdout("cex3_1", capsys)

    def test_second_counterexample_reports_crossing(self, capsys):
        _assert_reproduce_stdout("cex3_2", capsys)

    def test_third_counterexample_ratio_not_monotone(self, capsys):
        _assert_reproduce_stdout("cex3_3", capsys)

    def test_second_counterexample_holds_within_a_wide_tolerance(self, capsys):
        assert main(["reproduce", "cex3_2", "--tol", "1e-3"]) == 0
        out = capsys.readouterr().out
        assert out == "cex3_2: holds: difference <= 0 everywhere (max difference 0.000224391)\n"

    def test_swapped_example_holds_with_a_nonnegative_difference(self):
        case = get_case("ex3_1")
        swapped = dataclasses.replace(case, portfolio_a=case.portfolio_b, portfolio_b=case.portfolio_a,
                                      counts_a=case.counts_b, counts_b=case.counts_a)
        verdict = _difference_verdict(swapped, swapped.grid(), 1e-9)
        assert verdict == "holds: difference >= 0 everywhere (min difference 7.77379e-07)"

    def test_literal_mode_refuses_corrected_probabilities(self, capsys):
        assert main(["reproduce", "ex3_1", "--literal"]) == 1
        err = capsys.readouterr().err
        assert "outside (0, 1)" in err

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "x"])
    def test_tolerance_must_be_positive(self, tol, capsys):
        # a NaN tolerance would report cex3_3's decreasing ratio as monotone
        assert main(["reproduce", "cex3_3", "--points", "200", f"--tol={tol}"]) == 1
        assert "--tol" in capsys.readouterr().err

    def test_literal_mode_names_the_requested_case(self, capsys):
        assert main(["reproduce", "cex3_3", "--literal"]) == 1
        assert "case cex3_3:" in capsys.readouterr().err

    def test_csv_output_is_byte_identical_across_runs(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["reproduce", "ex3_1", "--points", "200", "--out", str(p1)]) == 0
        assert main(["reproduce", "ex3_1", "--points", "200", "--out", str(p2)]) == 0
        b1, b2 = p1.read_bytes(), p2.read_bytes()
        assert b1 == b2
        lines = b1.decode().splitlines()
        assert lines[0] == "x,value_a,value_b,delta"
        assert len(lines) == 201

    def test_csv_values_roundtrip_exactly(self, tmp_path):
        path = tmp_path / "c.csv"
        x = np.array([0.1, 1.0 / 3.0])
        a = np.array([np.exp(-0.1), np.exp(-1.0 / 3.0)])
        write_curve_csv(str(path), x, a, a, a - a)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        for (xs, as_, bs, ds), xi, ai in zip(rows, x, a):
            assert float(xs) == xi and float(as_) == ai and float(bs) == ai
            assert float(ds) == 0.0


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["bogus"]) == 1

    def test_unknown_case(self, capsys):
        assert main(["reproduce", "nope"]) == 1

    def test_missing_field_is_addressed(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(GOOD_SPEC.replace("counts_b:", "counts_x:"))
        assert main(["audit", str(path)]) == 1
        assert "counts_b" in capsys.readouterr().err

    def test_bad_probability_is_addressed(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(GOOD_SPEC.replace("p: [0.2, 0.25, 0.3]", "p: [1.2, 0.25, 0.3]"))
        assert main(["audit", str(path)]) == 1
        assert "portfolio_a" in capsys.readouterr().err

    def test_unreadable_file(self, tmp_path, capsys):
        assert main(["audit", str(tmp_path / "missing.yaml")]) == 1

    @pytest.mark.parametrize("command,grid,field", [
        ("audit", "{points: 400, x_min: 0}", "grid.x_min"),
        ("audit", "{points: 400, x_max: 0}", "grid.x_max"),
        ("audit", "{points: 400, x_min: 5, x_max: 1}", "grid.x_min"),
        ("simulate", "{points: 400, x_min: -1}", "grid.x_min"),
    ])
    def test_bad_grid_edges_are_addressed(self, tmp_path, capsys, command, grid, field):
        path = tmp_path / "bad.yaml"
        path.write_text(GOOD_SPEC.replace("grid: {points: 400}", f"grid: {grid}"))
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err and "Traceback" not in err

    @pytest.mark.parametrize("command,old,new,field", [
        ("audit", "kind: max", "kind: max\ntolerance: .nan", "tolerance"),
        ("audit", "kind: max", "kind: max\ntolerance: -1", "tolerance"),
        ("audit", "p: [0.2,", "p: [.nan,", "portfolio_a.p"),
        ("simulate", "p: [0.2,", "p: [.nan,", "portfolio_a.p"),
        ("audit", "alpha: [3.0,", "alpha: [.inf,", "portfolio_a.alpha"),
        ("audit", "lam: 1.0", "lam: .nan", "counts_a.lam"),
        ("simulate", "kind: max", "kind: max\nseed: 2.7", "seed"),
        ("audit", "support: [2, 3]", "support: [2.5, 3]", "counts_a.support"),
        ("audit", "support: [2, 3]", "support: [2, 1.0e+20]", "counts_a"),
        ("audit", "counts_a: {kind: poisson, lam: 1.0, support: [2, 3]}",
         "counts_a: {kind: degenerate, m: 2.5}", "counts_a.m"),
    ])
    def test_bad_numbers_are_addressed(self, tmp_path, capsys, command, old, new, field):
        path = tmp_path / "bad.yaml"
        path.write_text(GOOD_SPEC.replace(old, new, 1))
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err and "Traceback" not in err

    def test_integral_floats_are_integers(self, tmp_path):
        path = tmp_path / "floats.yaml"
        path.write_text(GOOD_SPEC.replace("support: [2, 3]", "support: [2.0, 3]", 1)
                        .replace("counts_b: {kind: poisson, lam: 1.0, support: [2, 3]}",
                                 "counts_b: {kind: degenerate, m: 3.0}") + "seed: 7.0\n")
        spec = load_instance_spec(str(path))
        assert spec.seed == 7 and isinstance(spec.seed, int)
        assert spec.counts_a.support.tolist() == [2, 3]
        assert spec.counts_b.support.tolist() == [3]

    def test_resolved_x_min_above_auto_x_max_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(GOOD_SPEC.replace("grid: {points: 400}", "grid: {points: 400, x_min: 100}"))
        assert main(["audit", str(path)]) == 1
        assert "x_min" in capsys.readouterr().err

    def test_unknown_theorem_id(self, spec_file, capsys):
        assert main(["audit", spec_file, "--theorem", "NOT_A_THEOREM"]) == 1
        assert "unknown theorem id" in capsys.readouterr().err


class TestAudit:
    def test_single_theorem_report(self, spec_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["audit", spec_file, "--theorem", "ST_MAX_RANDOM", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "theorem ST_MAX_RANDOM:" in text
        reports = json.loads(out.read_text())
        assert len(reports) == 1
        r = reports[0]
        assert r["theorem_id"] == "ST_MAX_RANDOM"
        assert isinstance(r["preconditions"], list) and r["preconditions"]
        assert {"name", "satisfied", "evidence"} <= set(r["preconditions"][0])
        assert set(r["conclusion"]) >= {"holds", "margin", "grid_spec", "witness"}
        assert r["conclusion"]["holds"] is True
        assert r["classification"] == "confirmed"

    def test_fixed_n_theorems_use_a_grid_built_for_n(self, tmp_path, capsys):
        # with N = 1 the auto grid ends at x = 8, where the n = 5 maximum's CDF
        # is only 0.991; a fixed-N theorem compares the extremes at N = n
        path = tmp_path / "fixed.yaml"
        path.write_text("""
portfolio_a:
  family: {kind: exponential}
  psi: {kind: neg_log}
  p: [0.5, 0.4, 0.3, 0.2, 0.1]
  alpha: [3.0, 2.5, 2.0, 1.0, 0.3]
portfolio_b:
  family: {kind: exponential}
  psi: {kind: neg_log}
  p: [0.5, 0.4, 0.3, 0.2, 0.1]
  alpha: [3.0, 2.5, 2.0, 1.2, 0.4]
counts_a: {kind: degenerate, m: 1}
counts_b: {kind: degenerate, m: 1}
kind: max
grid: {points: 400}
""")
        out = tmp_path / "report.json"
        assert main(["audit", str(path), "--out", str(out)]) == 0
        grids = {r["theorem_id"]: r["conclusion"]["grid_spec"] for r in json.loads(out.read_text())}
        assert grids["ST_MAX_FIXED"] == "400 points on [0.0064, 64]"
        assert grids["RH_MAX_ALPHA"] == "400 points on [0.0064, 64]"
        assert grids["ST_MAX_RANDOM"] == "400 points on [0.0008, 8]"
        # an explicit edge is honoured for both kinds of theorem
        path.write_text(path.read_text().replace("{points: 400}", "{points: 400, x_max: 30}"))
        assert main(["audit", str(path), "--out", str(out)]) == 0
        grids = {r["theorem_id"]: r["conclusion"]["grid_spec"] for r in json.loads(out.read_text())}
        assert grids["ST_MAX_FIXED"] == grids["ST_MAX_RANDOM"] == "400 points on [0.003, 30]"

    def test_report_does_not_depend_on_the_instance_kind(self, tmp_path, capsys):
        reports = []
        for kind in ("max", "min"):
            path = tmp_path / f"{kind}.yaml"
            path.write_text(GOOD_SPEC.replace("kind: max", f"kind: {kind}"))
            out = tmp_path / f"{kind}.json"
            assert main(["audit", str(path), "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_reports_equal_the_library_audit_on_its_own_grid(self, tmp_path, capsys):
        path = tmp_path / "instance.yaml"
        path.write_text(GOOD_SPEC.replace("grid: {points: 400}", "grid: {points: 800}"))
        out = tmp_path / "report.json"
        assert main(["audit", str(path), "--out", str(out)]) == 0
        reports = json.loads(out.read_text())
        assert len(reports) > 5
        spec = load_instance_spec(str(path))
        for r in reports:
            lib = audit(TheoremId(r["theorem_id"]), spec.portfolio_a, spec.portfolio_b,
                        spec.counts_a, spec.counts_b, grid=None)
            assert json.loads(json.dumps(lib.to_dict())) == r

    def test_grid_error_is_never_a_skipped_theorem(self, tmp_path, capsys):
        # x_min = 0.5 fits the MAX grid, which ends at x = 8, but not the MIN
        # grid, which ends at x = 2
        path = tmp_path / "instance.yaml"
        path.write_text(GOOD_SPEC.replace("grid: {points: 400}", "grid: {points: 400, x_min: 0.5}"))
        assert main(["audit", str(path), "--theorem", "ST_MAX_RANDOM"]) == 0
        capsys.readouterr()
        for theorem in ("ST_MIN_RANDOM", "all"):
            assert main(["audit", str(path), "--theorem", theorem]) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ") and "x_min" in captured.err
            assert "skipped" not in captured.out

    def test_all_skips_inapplicable(self, spec_file, capsys):
        assert main(["audit", spec_file]) == 0
        out = capsys.readouterr().out
        assert "skipped" in out  # e.g. theorems needing equal p vectors
        assert "theorem ST_MAX_RANDOM: confirmed" in out


class TestMajorize:
    def test_report_contents(self, spec_file, capsys):
        assert main(["majorize", spec_file]) == 0
        out = capsys.readouterr().out
        assert "alpha rows: sorted-ascending prefix sums" in out
        assert "psi rows: sorted-ascending prefix sums" in out
        assert "doubly stochastic" in out
        assert "M_n" in out


# one fresh process: after each step, the SciPy modules it has loaded
_LOADED_SCIPY = """
import contextlib, io, json, sys
from claimorder import cli
wanted = ("scipy.special", "scipy.optimize")
loaded = {"import": [m for m in wanted if m in sys.modules]}
for command in ("majorize", "audit"):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main([command, sys.argv[1]])
    loaded[command] = [m for m in wanted if m in sys.modules]
print(json.dumps(loaded))
"""


def test_cli_loads_no_gamma_functions_or_lp_solver_it_does_not_use(spec_file):
    # spec_file is exponential, and its alpha rows total 7.5 and 9.0, so no
    # command needs an incomplete gamma function or the doubly stochastic LP
    src = os.path.dirname(os.path.dirname(os.path.abspath(claimorder.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _LOADED_SCIPY, spec_file], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(proc.stdout) == {"import": [], "majorize": [], "audit": []}


class TestSimulate:
    def test_within_band_and_overlay(self, spec_file, tmp_path, capsys):
        out = tmp_path / "overlay.csv"
        code = main(
            ["simulate", spec_file, "--samples", "20000", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert text.count("within bound") == 2
        lines = out.read_text().splitlines()
        assert lines[0] == "x,value_a,value_b,delta"
        assert len(lines) == 401

    def test_seed_defaults_to_the_instance_file(self, tmp_path, capsys):
        path = tmp_path / "seeded.yaml"
        path.write_text(GOOD_SPEC + "seed: 7\n")
        assert main(["simulate", str(path), "--samples", "2000"]) == 0
        assert capsys.readouterr().out.count("2000 samples, seed 7)") == 2
        assert main(["simulate", str(path), "--samples", "2000", "--seed", "3"]) == 0
        assert capsys.readouterr().out.count("2000 samples, seed 3)") == 2
