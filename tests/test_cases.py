import json

import pytest

from claimorder.cases import CASE_NAMES, InstanceSpec, get_case
from claimorder.cli import load_instance_spec, main

# gamma shape of each published case's scale family
SHAPES = {"ex3_1": 1.5, "cex3_1": 1.5, "cex3_2": 10.09, "cex3_3": 1.5}


def _floats(values):
    return "[" + ", ".join(repr(float(v)) for v in values) + "]"


def _as_instance_file(case, shape):
    def portfolio(pf):
        return (f"  family: {{kind: scale, baseline: {{kind: gamma, shape: {shape!r}}}}}\n"
                f"  psi: {{kind: neg_log}}\n  p: {_floats(pf.p)}\n  alpha: {_floats(pf.alpha)}\n")

    def counts(c):
        support = ", ".join(str(int(m)) for m in c.support)
        return f"{{kind: explicit, support: [{support}], weights: {_floats(c.weights)}}}"

    return (f"portfolio_a:\n{portfolio(case.portfolio_a)}"
            f"portfolio_b:\n{portfolio(case.portfolio_b)}"
            f"counts_a: {counts(case.counts_a)}\ncounts_b: {counts(case.counts_b)}\n"
            f"kind: {case.kind.value}\n")


@pytest.mark.parametrize("name", CASE_NAMES)
def test_builtin_case_equals_its_instance_file(name, tmp_path):
    case = get_case(name)
    path = tmp_path / f"{name}.yaml"
    path.write_text(_as_instance_file(case, SHAPES[name]))
    spec = load_instance_spec(str(path))
    assert isinstance(case, InstanceSpec) and isinstance(spec, InstanceSpec)
    x = case.grid()
    assert spec.grid().tobytes() == x.tobytes()
    assert spec.curve_a(x).tobytes() == case.curve_a(x).tobytes()
    assert spec.curve_b(x).tobytes() == case.curve_b(x).tobytes()


def test_grid_defaults_to_the_instance_points():
    case = get_case("cex3_2")
    assert case.points == 2000 and case.grid().size == 2000
    assert case.grid(points=333).size == 333


def test_max_theorem_on_a_min_instance_uses_a_max_grid(tmp_path, capsys):
    # cex3_2 compares minima; its fixed-N maximum at n = 5 needs x up to 32
    path = tmp_path / "cex3_2.yaml"
    path.write_text(_as_instance_file(get_case("cex3_2"), SHAPES["cex3_2"]))
    out = tmp_path / "report.json"
    assert main(["audit", str(path), "--theorem", "ST_MAX_FIXED", "--out", str(out)]) == 0
    [report] = json.loads(out.read_text())
    assert report["conclusion"]["grid_spec"] == "2000 points on [0.0032, 32]"
