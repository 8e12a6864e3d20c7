"""End-to-end acceptance gate.

Each test covers one shipping criterion and prints a single pass/fail line;
run with ``pytest -v`` (add ``-s`` to see the lines inline).
"""

import time

import numpy as np
import pytest

from claimorder.cases import get_case
from claimorder.extremes import (
    ExtremeKind,
    Portfolio,
    cdf_max_fixed,
    cdf_max_random,
    cdf_min_fixed,
    cdf_min_random,
    counts_st_leq,
    poisson_counts,
    reversed_hazard_max_fixed,
    reversed_hazard_min_fixed,
    survival_min_fixed,
)
from claimorder.majorization import (
    ParamMatrix,
    TTransform,
    apply_t_transform,
    birkhoff_vertex_feasible,
    chain_majorizes_doubly_stochastic,
    chain_majorizes_via_t,
    majorizes,
    row_majorizes,
    row_weakly_majorizes,
    weakly_supermajorizes,
)
from claimorder.ordercheck import (
    POTENTIAL_COUNTEREXAMPLE,
    TheoremId,
    _bisect_root,
    audit,
    schur_test,
)
from claimorder.severity import (
    Exponential,
    KumaraswamyG,
    ProportionalHazard,
    Scale,
    gamma_baseline,
    neg_log,
)
from claimorder.simulate import SimulationConfig, dkw_bound, ks_distance, sample_extreme


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {status} — {detail}")
    assert ok, detail


def brute_majorizes(a, b, tol=1e-12):
    pa, pb = np.cumsum(np.sort(a)), np.cumsum(np.sort(b))
    if abs(pa[-1] - pb[-1]) > tol:
        return False
    return bool(np.all(pb[:-1] >= pa[:-1] - tol))


def brute_weakly_supermajorizes(a, b, tol=1e-12):
    pa, pb = np.cumsum(np.sort(a)), np.cumsum(np.sort(b))
    return bool(np.all(pb >= pa - tol))


def test_criterion_1_example_difference_nonpositive():
    t0 = time.perf_counter()
    case = get_case("ex3_1")
    x = case.grid()
    delta = case.delta(x)
    elapsed = time.perf_counter() - t0
    ok = bool(np.all(delta <= 1e-9)) and elapsed < 5.0
    report(1, ok, f"max CDF difference {delta.max():.3g} <= 1e-9 on {x.size} points in {elapsed:.2f}s")


def test_criterion_2_first_counterexample_sign_change():
    t0 = time.perf_counter()
    case = get_case("cex3_1")
    x = case.grid()
    delta = case.delta(x)
    has_neg = bool(np.any(delta < -1e-9))
    has_pos = bool(np.any(delta > 1e-9))
    # bisect the first crossing to width 1e-6
    signs = np.sign(np.where(np.abs(delta) <= 1e-9, 0.0, delta))
    nz = np.nonzero(signs)[0]
    flip = nz[np.nonzero(np.diff(signs[nz]))[0]][0]
    lo = float(x[flip])
    hi = float(x[nz[np.searchsorted(nz, flip) + 1]])
    fn = lambda t: float(case.delta(np.array([t]))[0])
    x_w = _bisect_root(fn, lo, hi, width=1e-6)
    crossing_confirmed = np.sign(fn(x_w - 1e-6)) != np.sign(fn(x_w + 1e-6))
    elapsed = time.perf_counter() - t0
    ok = has_neg and has_pos and crossing_confirmed and elapsed < 5.0
    report(2, ok, f"CDF difference changes sign; crossing bisected to x={x_w:.6f} +/- 1e-6 in {elapsed:.2f}s")


def test_criterion_3_second_counterexample_crossing_and_counts():
    case = get_case("cex3_2")
    x = case.grid()
    delta = case.delta(x)
    has_both_signs = bool(np.any(delta < -1e-9)) and bool(np.any(delta > 1e-9))
    counts_dominance = counts_st_leq(case.counts_a, case.counts_b)
    ok = has_both_signs and not counts_dominance
    report(3, ok, "min-survival difference changes sign and the count-dominance precondition is reported false")


def test_criterion_4_third_counterexample_ratio_decreases():
    case = get_case("cex3_3")
    x = case.grid()
    ratio = case.delta(x)
    steps = np.diff(ratio)
    bad = steps < -1e-9
    runs = bad[:-1] & bad[1:]
    ok = bool(np.any(runs))
    i = int(np.argmax(runs)) if ok else 0
    report(4, ok, f"CDF ratio strictly decreases on [{x[i]:.4g}, {x[i + 2]:.4g}] (two consecutive steps)")


@pytest.mark.parametrize("name", ["ex3_1", "cex3_1", "cex3_2", "cex3_3"])
def test_criterion_5_monte_carlo_agreement(name):
    case = get_case(name)
    n = 1_000_000
    bound = dkw_bound(n)
    t0 = time.perf_counter()
    worst = 0.0
    for kind in (ExtremeKind.MIN, ExtremeKind.MAX):
        for pf, counts in ((case.portfolio_a, case.counts_a), (case.portfolio_b, case.counts_b)):
            emp = sample_extreme(pf, counts, kind, SimulationConfig(samples=n, seed=12))
            if kind is ExtremeKind.MIN:
                cdf = lambda x, pf=pf, c=counts: cdf_min_random(pf, c, x)
            else:
                cdf = lambda x, pf=pf, c=counts: cdf_max_random(pf, c, x)
            worst = max(worst, ks_distance(emp, cdf))
    elapsed = time.perf_counter() - t0
    ok = worst < bound and elapsed < 60.0
    report(5, ok, f"{name}: worst KS {worst:.3g} < DKW {bound:.3g} over min/max x both portfolios in {elapsed:.1f}s")


def test_criterion_6_majorization_oracle_equivalence():
    rng = np.random.default_rng(100)
    vector_ok = True
    for _ in range(10_000):
        n = int(rng.integers(2, 7))
        a = rng.uniform(0.0, 4.0, n)
        if rng.random() < 0.5:
            b = a.mean() + rng.uniform(0.0, 1.3) * (a - a.mean())
        else:
            b = rng.uniform(0.0, 4.0, n)
        if majorizes(a, b) != brute_majorizes(a, b):
            vector_ok = False
            break
        if weakly_supermajorizes(a, b) != brute_weakly_supermajorizes(a, b):
            vector_ok = False
            break
    matrix_ok = True
    for _ in range(500):
        n = int(rng.integers(2, 5))
        A = ParamMatrix(rng.uniform(0.2, 3.0, n), rng.uniform(0.2, 3.0, n))
        if rng.random() < 0.5:
            perms = [tuple(rng.permutation(n)) for _ in range(3)]
            w = rng.dirichlet(np.ones(3))
            P = sum(wi * np.eye(n)[:, list(p)] for wi, p in zip(w, perms))
            arr = A.as_array() @ P
            B = ParamMatrix(arr[0], arr[1])
        else:
            B = ParamMatrix(rng.uniform(0.2, 3.0, n), rng.uniform(0.2, 3.0, n))
        if chain_majorizes_doubly_stochastic(A, B).feasible != birkhoff_vertex_feasible(A, B):
            matrix_ok = False
            break
    ok = vector_ok and matrix_ok
    report(6, ok, "10,000 vector pairs match the prefix-sum oracle; 500 matrix pairs match Birkhoff-vertex feasibility")


def test_criterion_7_implication_chain():
    rng = np.random.default_rng(200)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        A = ParamMatrix(np.sort(rng.uniform(0.3, 3.0, n)), np.sort(rng.uniform(0.3, 3.0, n)))
        ts = [
            TTransform(float(rng.uniform(0.0, 1.0)), tuple(rng.permutation(n)))
            for _ in range(int(rng.integers(1, 4)))
        ]
        B = A
        for T in ts:
            B = apply_t_transform(B, T)
        chain = chain_majorizes_via_t(A, B, ts)
        ds = chain_majorizes_doubly_stochastic(A, B).feasible
        row = row_majorizes(A, B).holds
        row_weak = row_weakly_majorizes(A, B).holds
        if not (chain and ds and row and row_weak):
            violations += 1
    report(7, violations == 0, f"chain-via-T => doubly-stochastic => row => row-weak on 1000 instances ({violations} violations)")


def _fuzz_instance(rng):
    n = int(rng.integers(3, 6))
    if rng.random() < 0.5:
        family = Exponential()
    else:
        # shape <= 1 keeps the baseline density decreasing and the hazard
        # decreasing, so the rate-scaled survival is convex and log-convex
        family = Scale(gamma_baseline(float(rng.uniform(0.4, 1.0))))
    psi = neg_log()
    alpha_b = np.sort(rng.uniform(0.5, 2.5, n))
    alpha_a = alpha_b + rng.uniform(0.0, 1.0)
    psi_b = np.sort(rng.uniform(1.3, 2.8, n))  # p in (0.06, 0.27), below 1/e
    psi_a = psi_b + rng.uniform(0.0, 0.4)
    pf_a = Portfolio(family, psi, np.exp(-psi_a), alpha_a)
    pf_b = Portfolio(family, psi, np.exp(-psi_b), alpha_b)
    support = sorted(set(int(m) for m in rng.integers(1, n + 1, 2)))
    lam1 = float(rng.uniform(0.5, 2.0))
    lam2 = lam1 + float(rng.uniform(0.0, 1.0))
    return pf_a, pf_b, poisson_counts(lam1, support), poisson_counts(lam2, support)


@pytest.mark.parametrize("theorem", [TheoremId.ST_MAX_RANDOM, TheoremId.ST_MIN_RANDOM])
def test_criterion_8_fuzz_revalidation(theorem):
    rng = np.random.default_rng(7 if theorem is TheoremId.ST_MAX_RANDOM else 8)
    flagged = 0
    for _ in range(200):
        pf_a, pf_b, c1, c2 = _fuzz_instance(rng)
        result = audit(theorem, pf_a, pf_b, c1, c2)
        if result.classification == POTENTIAL_COUNTEREXAMPLE:
            flagged += 1
    report(8, flagged == 0, f"{theorem.value}: 0/200 hypothesis-satisfying random instances flagged ({flagged} flagged)")


def test_criterion_9_identity_checks():
    ok = True
    notes = []

    pf = Portfolio(
        Exponential(), neg_log(), np.array([0.3, 0.5, 0.6]), np.array([1.0, 0.8, 1.5])
    )
    xs = np.linspace(0.4, 3.5, 9)
    h = 1e-6
    for m in (1, 2, 3):
        for fn_rh, fn_cdf in (
            (reversed_hazard_max_fixed, cdf_max_fixed),
            (reversed_hazard_min_fixed, cdf_min_fixed),
        ):
            fd = (np.log(fn_cdf(pf, m, xs + h)) - np.log(fn_cdf(pf, m, xs - h))) / (2 * h)
            if not np.allclose(fn_rh(pf, m, xs), fd, rtol=1e-4):
                ok = False
                notes.append(f"reversed hazard mismatch at m={m}")

    base = gamma_baseline(0.8)
    xs = np.linspace(0.3, 2.5, 8)
    alphas = (0.7, 1.4, 2.2)
    ha = 1e-5
    for family in (KumaraswamyG(base, gamma=1.7), Scale(base), ProportionalHazard(base)):
        for a in alphas:
            d1 = family.dsurvival_dalpha(xs, a)
            d2 = family.d2survival_dalpha2(xs, a)
            sf = lambda aa: np.exp(family.log_survival(xs, aa))
            fd1 = (sf(a + ha) - sf(a - ha)) / (2 * ha)
            h2 = 1e-4  # wider step: the second difference loses ~eps/h^2 to roundoff
            fd2 = (sf(a + h2) - 2 * sf(a) + sf(a - h2)) / h2**2
            if not np.allclose(d1, fd1, rtol=1e-4, atol=1e-12):
                ok = False
                notes.append(f"{family.name} first derivative mismatch at alpha={a}")
            if not np.allclose(d2, fd2, rtol=1e-4, atol=1e-9):
                ok = False
                notes.append(f"{family.name} second derivative mismatch at alpha={a}")
    report(9, ok, notes[0] if notes else
           "reversed hazards match log-CDF finite differences; Kw-G/scale/PHR parameter derivatives match closed forms (rel 1e-4)")


def test_criterion_10_schur_sanity():
    res_sum = schur_test(lambda u: float(np.sum(u)), np.array([1.0, 2.0, 3.0]))
    sum_ok = abs(res_sum.min_expression) < 1e-7 and abs(res_sum.max_expression) < 1e-7

    case = get_case("cex3_2")
    pf = case.portfolio_a

    def phi(alpha):
        pf2 = Portfolio(pf.family, pf.psi, pf.p, np.asarray(alpha))
        return float(survival_min_fixed(pf2, pf2.n, 0.4))

    res_min = schur_test(phi, pf.alpha)
    conv_ok = res_min.classification == "schur_convex_evidence"
    ok = sum_ok and conv_ok
    report(10, ok, "coordinate-sum expression ~0 (<1e-7); min-survival in alpha reports Schur-convex evidence")
