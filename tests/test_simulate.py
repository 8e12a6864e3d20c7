import functools
import math
import os

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import claimorder.simulate as simulate
from claimorder.cases import get_case
from claimorder.errors import DomainError
from claimorder.extremes import (
    ClaimCountDistribution,
    ExtremeKind,
    Portfolio,
    cdf_max_random,
    cdf_min_random,
    poisson_counts,
)
from claimorder.severity import (
    BaselineDistribution,
    Exponential,
    Gamma,
    KumaraswamyG,
    PowerGeneralizedWeibull,
    ProportionalHazard,
    Scale,
    WeibullRate,
    gamma_baseline,
    neg_log,
)
from claimorder.simulate import (
    EmpiricalCurve,
    SimulationConfig,
    dkw_bound,
    ks_distance,
    sample_extreme,
)


def exp_portfolio(p, alpha):
    return Portfolio(Exponential(), neg_log(), np.asarray(p, float), np.asarray(alpha, float))


@pytest.fixture
def portfolio():
    return exp_portfolio([0.3, 0.5, 0.6, 0.4], [1.0, 0.8, 1.5, 2.0])


@pytest.fixture
def counts():
    return poisson_counts(1.3, [2, 3, 4])


class TestConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            SimulationConfig(samples=0, seed=1)
        with pytest.raises(DomainError):
            SimulationConfig(samples=10, seed=-1)
        with pytest.raises(DomainError):
            SimulationConfig(samples=10, seed=2**64)

    @pytest.mark.parametrize("field, value", [
        ("samples", 10.5), ("samples", float("nan")), ("samples", float("inf")),
        ("samples", "10"), ("seed", 2.7), ("seed", 2.2), ("seed", float("nan")),
    ])
    def test_non_integral_refused(self, field, value):
        kwargs = {"samples": 10, "seed": 1, field: value}
        with pytest.raises(DomainError):
            SimulationConfig(**kwargs)

    def test_integral_floats_stored_as_int(self):
        cfg = SimulationConfig(samples=7.0, seed=np.float64(3.0))
        assert (cfg.samples, cfg.seed) == (7, 3)
        assert type(cfg.samples) is int and type(cfg.seed) is int

    def test_count_support_limit(self, portfolio):
        with pytest.raises(DomainError):
            sample_extreme(
                portfolio,
                poisson_counts(1.0, [4, 5]),
                ExtremeKind.MAX,
                SimulationConfig(samples=100, seed=0),
            )


class TestDeterminism:
    def test_identical_seeds_byte_identical(self, portfolio, counts):
        cfg = SimulationConfig(samples=5000, seed=42)
        a = sample_extreme(portfolio, counts, ExtremeKind.MAX, cfg)
        b = sample_extreme(portfolio, counts, ExtremeKind.MAX, cfg)
        assert a.sorted_values.tobytes() == b.sorted_values.tobytes()
        assert a.zero_count == b.zero_count

    def test_different_seeds_differ(self, portfolio, counts):
        a = sample_extreme(
            portfolio, counts, ExtremeKind.MAX, SimulationConfig(samples=5000, seed=1)
        )
        b = sample_extreme(
            portfolio, counts, ExtremeKind.MAX, SimulationConfig(samples=5000, seed=2)
        )
        assert a.sorted_values.tobytes() != b.sorted_values.tobytes()

    def test_parallel_matches_serial(self, portfolio, counts):
        cfg = SimulationConfig(samples=(1 << 17) + 17, seed=7)
        serial = sample_extreme(portfolio, counts, ExtremeKind.MIN, cfg)
        old = os.environ.get("CLAIMORDER_THREADS")
        os.environ["CLAIMORDER_THREADS"] = "4"
        try:
            parallel = sample_extreme(portfolio, counts, ExtremeKind.MIN, cfg)
        finally:
            if old is None:
                del os.environ["CLAIMORDER_THREADS"]
            else:
                os.environ["CLAIMORDER_THREADS"] = old
        assert serial.sorted_values.tobytes() == parallel.sorted_values.tobytes()
        assert serial.zero_count == parallel.zero_count

    def test_bad_thread_env_rejected(self, portfolio, counts):
        os.environ["CLAIMORDER_THREADS"] = "many"
        try:
            with pytest.raises(DomainError):
                sample_extreme(
                    portfolio, counts, ExtremeKind.MIN, SimulationConfig(samples=10, seed=0)
                )
        finally:
            del os.environ["CLAIMORDER_THREADS"]


class TestAgainstClosedForms:
    def test_atom_mass_max_within_3_sigma(self):
        p = np.array([0.3, 0.5, 0.6])
        pf = exp_portfolio(p, [1.0, 0.8, 1.5])
        deg = ClaimCountDistribution.degenerate(3)
        n = 200_000
        emp = sample_extreme(pf, deg, ExtremeKind.MAX, SimulationConfig(samples=n, seed=3))
        expected = float(np.prod(1.0 - p))
        sigma = math.sqrt(expected * (1.0 - expected) / n)
        assert abs(emp.zero_count / n - expected) <= 3.0 * sigma

    def test_atom_mass_min_within_3_sigma(self):
        p = np.array([0.3, 0.5, 0.6])
        pf = exp_portfolio(p, [1.0, 0.8, 1.5])
        deg = ClaimCountDistribution.degenerate(3)
        n = 200_000
        emp = sample_extreme(pf, deg, ExtremeKind.MIN, SimulationConfig(samples=n, seed=4))
        expected = 1.0 - float(np.prod(p))
        sigma = math.sqrt(expected * (1.0 - expected) / n)
        assert abs(emp.zero_count / n - expected) <= 3.0 * sigma

    def test_single_exponential_survival_oracle(self):
        # one claim, p = 0.5, rate 1: P(T > 1) = 0.5 e^{-1} = 0.18394
        pf = exp_portfolio([0.5], [1.0])
        deg = ClaimCountDistribution.degenerate(1)
        n = 1_000_000
        emp = sample_extreme(pf, deg, ExtremeKind.MIN, SimulationConfig(samples=n, seed=5))
        expected = 0.5 * math.exp(-1.0)
        assert expected == pytest.approx(0.18394, abs=5e-6)
        sigma = math.sqrt(expected * (1.0 - expected) / n)
        assert abs(1.0 - emp.cdf(1.0) - expected) <= 3.0 * sigma

    @pytest.mark.parametrize("kind", [ExtremeKind.MIN, ExtremeKind.MAX])
    def test_ks_within_dkw_band(self, portfolio, counts, kind):
        n = 100_000
        emp = sample_extreme(portfolio, counts, kind, SimulationConfig(samples=n, seed=6))
        cdf = cdf_min_random if kind is ExtremeKind.MIN else cdf_max_random
        d = ks_distance(emp, lambda x: cdf(portfolio, counts, x))
        assert d < dkw_bound(n)

    def test_mismatched_portfolio_exceeds_band(self, portfolio, counts):
        n = 100_000
        emp = sample_extreme(portfolio, counts, ExtremeKind.MAX, SimulationConfig(samples=n, seed=8))
        wrong = exp_portfolio(portfolio.p, portfolio.alpha * 1.5)
        d = ks_distance(emp, lambda x: cdf_max_random(wrong, counts, x))
        assert d > dkw_bound(n)

    def test_ks_decreases_with_samples(self, portfolio, counts):
        inversions = 0
        for seed in range(5):
            ds = []
            for n in (10_000, 100_000):
                emp = sample_extreme(
                    portfolio, counts, ExtremeKind.MAX, SimulationConfig(samples=n, seed=seed)
                )
                ds.append(ks_distance(emp, lambda x: cdf_max_random(portfolio, counts, x)))
            if ds[1] >= ds[0]:
                inversions += 1
        assert inversions <= 1


class TestExponentialOracle:
    """The sampler against mixture CDFs written out by hand from p_i and
    exp(-alpha_i x), with no curve of ``claimorder.extremes``."""

    P = np.array([0.35, 0.6, 0.8])
    ALPHA = np.array([0.7, 1.4, 2.5])
    LAM = 1.2

    def weights(self):
        raw = np.array([math.exp(-self.LAM) * self.LAM**m / math.factorial(m) for m in (1, 2, 3)])
        return raw / raw.sum()

    def cdf(self, kind, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for m, w in zip((1, 2, 3), self.weights()):
            terms = self.P[:m, None] * np.exp(-self.ALPHA[:m, None] * x[None, :])
            if kind is ExtremeKind.MIN:
                # T_{1:m} > x >= 0 needs every claim to occur and exceed x
                out += w * (1.0 - np.prod(terms, axis=0))
            else:
                out += w * np.prod(1.0 - terms, axis=0)
        return out

    @pytest.mark.parametrize("kind", [ExtremeKind.MIN, ExtremeKind.MAX])
    def test_ks_within_dkw_band(self, kind):
        pf = exp_portfolio(self.P, self.ALPHA)
        counts = ClaimCountDistribution(np.array([1, 2, 3]), self.weights())
        n = 200_000
        emp = sample_extreme(pf, counts, kind, SimulationConfig(samples=n, seed=31))
        assert ks_distance(emp, lambda x: self.cdf(kind, x)) < dkw_bound(n)

    def test_oracle_rejects_a_wrong_portfolio(self):
        pf = exp_portfolio(self.P, 1.3 * self.ALPHA)
        counts = ClaimCountDistribution(np.array([1, 2, 3]), self.weights())
        n = 200_000
        emp = sample_extreme(pf, counts, ExtremeKind.MAX, SimulationConfig(samples=n, seed=32))
        assert ks_distance(emp, lambda x: self.cdf(ExtremeKind.MAX, x)) > dkw_bound(n)


class TestEmpiricalCurve:
    def test_cdf_properties(self):
        values = np.sort(np.array([0.0, 0.0, 0.5, 1.0, 2.0]))
        emp = EmpiricalCurve(values, 2)
        assert emp.cdf(-1.0) == 0.0
        assert emp.cdf(0.0) == pytest.approx(0.4)
        assert emp.cdf(0.5) == pytest.approx(0.6)
        assert emp.cdf(10.0) == 1.0
        xs = np.linspace(-1, 3, 50)
        assert np.all(np.diff(emp.cdf(xs)) >= 0)
        assert emp.zero_count / emp.n == pytest.approx(0.4)

    def test_ks_of_curve_against_itself_is_small(self):
        rng = np.random.default_rng(0)
        values = np.sort(rng.exponential(size=1000))
        emp = EmpiricalCurve(values, 0)
        assert ks_distance(emp, emp.cdf) <= 1.0 / emp.n + 1e-12

    def test_dkw_bound_values(self):
        assert dkw_bound(1_000_000) == pytest.approx(
            math.sqrt(math.log(2000.0) / 2e6), rel=1e-12
        )
        with pytest.raises(DomainError):
            dkw_bound(1000, level=0.0)


def reference_chunk(portfolio, counts, kind, seed, chunk_idx, size, cache=None):
    """The full-matrix sampler: every cell of the size x n matrix is inverted.

    ``cache`` maps the bytes of ``u`` to its severity matrix.  The draws of
    ``u`` do not depend on the counts or the extreme, so one test can share
    the inversions among them; the values are the same as without it.
    """
    rng = np.random.Generator(np.random.Philox(key=[seed, chunk_idx]))
    n = portfolio.n
    m = rng.choice(counts.support, size=size, p=counts.weights)
    occurs = rng.random((size, n)) < portfolio.p[None, :]
    u = rng.random((size, n))
    u = np.where(u == 0.0, np.nextafter(0.0, 1.0), u)
    key = u.tobytes()
    sev = None if cache is None else cache.get(key)
    if sev is None:
        sev = np.empty((size, n))
        for i in range(n):
            sev[:, i] = portfolio.family.inverse_survival(u[:, i], portfolio.alpha[i])
        if cache is not None:
            cache[key] = sev
    t = np.where(occurs, sev, 0.0)
    active = np.arange(n)[None, :] < m[:, None]
    if kind is ExtremeKind.MIN:
        return np.where(active, t, np.inf).min(axis=1)
    return np.where(active, t, -np.inf).max(axis=1)


SHIPPED_FAMILIES = {
    "exponential": Exponential(),
    "weibull_rate": WeibullRate(1.7),
    "gamma": Gamma(1.3),
    "pgw": PowerGeneralizedWeibull(2.0),
    "scale_gamma": Scale(gamma_baseline(1.5)),
    "proportional_hazard": ProportionalHazard(gamma_baseline(2.0)),
    "kumaraswamy_g": KumaraswamyG(gamma_baseline(1.5), 0.7),
}


def mixed_portfolio(family, n):
    rng = np.random.default_rng(n)
    return Portfolio(family, neg_log(), rng.uniform(0.3, 0.95, n), rng.uniform(0.5, 3.0, n))


def count_cases(n):
    return {"degenerate": ClaimCountDistribution.degenerate((n + 1) // 2),
            "poisson": poisson_counts(1.5, range(1, n + 1))}


class TestAgainstFullMatrixSampler:
    """Inverting only the deciding cells leaves every sample bit-identical."""

    SAMPLES = (1 << 16) + 4465  # two chunks

    @pytest.mark.parametrize("name", sorted(SHIPPED_FAMILIES))
    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_byte_identical_to_reference(self, name, n, monkeypatch):
        pf = mixed_portfolio(SHIPPED_FAMILIES[name], n)
        reference = functools.partial(reference_chunk, cache={})
        for label, counts in count_cases(n).items():
            for kind in ExtremeKind:
                cfg = SimulationConfig(samples=self.SAMPLES, seed=11)
                got = sample_extreme(pf, counts, kind, cfg)
                with monkeypatch.context() as mp:
                    mp.setattr(simulate, "_simulate_chunk", reference)
                    ref = sample_extreme(pf, counts, kind, cfg)
                where = f"{label} {kind.name}"
                assert got.sorted_values.tobytes() == ref.sorted_values.tobytes(), where
                assert got.zero_count == ref.zero_count, where

    def test_byte_identical_in_parallel(self, monkeypatch):
        pf = mixed_portfolio(SHIPPED_FAMILIES["scale_gamma"], 7)
        monkeypatch.setenv("CLAIMORDER_THREADS", "2")
        for kind in ExtremeKind:
            cfg = SimulationConfig(samples=self.SAMPLES, seed=12)
            got = sample_extreme(pf, count_cases(7)["poisson"], kind, cfg)
            with monkeypatch.context() as mp:
                mp.setattr(simulate, "_simulate_chunk", reference_chunk)
                ref = sample_extreme(pf, count_cases(7)["poisson"], kind, cfg)
            assert got.sorted_values.tobytes() == ref.sorted_values.tobytes()
            assert got.zero_count == ref.zero_count


class CountingExponential(Exponential):
    def __init__(self):
        self.cells = 0
        self.calls = 0

    def inverse_survival(self, u, alpha):
        self.cells += np.size(u)
        self.calls += 1
        return super().inverse_survival(u, alpha)


class TestDecidingCells:
    @pytest.mark.parametrize("kind", [ExtremeKind.MIN, ExtremeKind.MAX])
    def test_only_deciding_cells_are_inverted(self, kind):
        family = CountingExponential()
        pf = Portfolio(family, neg_log(), np.array([0.9, 0.6, 0.8, 0.3, 0.95]),
                       np.array([1.0, 1.5, 2.0, 2.5, 3.0]))
        counts = poisson_counts(2.0, [1, 2, 3, 4, 5])
        size = 5000
        sample_extreme(pf, counts, kind, SimulationConfig(samples=size, seed=21))
        # replay the chunk's draws: the count, then the occurrences
        rng = np.random.Generator(np.random.Philox(key=[21, 0]))
        m = rng.choice(counts.support, size=size, p=counts.weights)
        occurs = rng.random((size, pf.n)) < pf.p[None, :]
        active = np.arange(pf.n)[None, :] < m[:, None]
        if kind is ExtremeKind.MAX:
            expected = np.count_nonzero(active & occurs)
        else:
            full = np.all(occurs | ~active, axis=1)
            expected = np.count_nonzero(active[full])
        assert 0 < expected < size * pf.n
        assert family.cells == expected
        assert family.calls == pf.n

    @pytest.mark.parametrize("kind", [ExtremeKind.MIN, ExtremeKind.MAX])
    def test_baseline_without_ppf_still_refused(self, kind):
        base = BaselineDistribution(cdf=lambda x: -np.expm1(-x), pdf=lambda x: np.exp(-x))
        pf = Portfolio(Scale(base), neg_log(), np.array([1e-9, 1e-9]), np.array([1.0, 2.0]))
        with pytest.raises(DomainError):
            sample_extreme(pf, ClaimCountDistribution.degenerate(2), kind,
                           SimulationConfig(samples=100, seed=0))


def reference_ks_distance(emp, analytic_cdf):
    """The full pass: the analytic CDF at every non-zero sample."""
    n = emp.n
    z = emp.zero_count
    dev = 0.0
    if z:
        f0 = float(np.asarray(analytic_cdf(np.array([0.0])), dtype=float)[0])
        dev = abs(z / n - f0)
    xs = emp.sorted_values[z:]
    if xs.size:
        f = np.asarray(analytic_cdf(xs), dtype=float)
        ranks = np.arange(z, n)
        upper = np.abs((ranks + 1) / n - f)
        lower = np.abs(ranks / n - f)
        dev = max(dev, float(upper.max()), float(lower.max()))
    return dev


class CountingCdf:
    """Wraps a CDF and counts the points it is evaluated at."""

    def __init__(self, cdf):
        self.cdf = cdf
        self.points = 0

    def __call__(self, x):
        self.points += np.size(x)
        return self.cdf(x)


def curve(values, zeros):
    values = np.sort(np.concatenate([np.zeros(zeros), np.asarray(values, float)]))
    return EmpiricalCurve(values, zeros)


def atom_exponential_cdf(atom, scale):
    """An analytic law with mass ``atom`` at 0 and an exponential tail."""
    return lambda x: atom + (1.0 - atom) * -np.expm1(-np.asarray(x, float) / scale)


class TestCdfBatchInvariance:
    """A point's CDF value does not depend on the batch it is evaluated in;
    the blocked ``ks_distance`` is bit-identical to the full pass only
    because of this."""

    @pytest.mark.parametrize("name", sorted(SHIPPED_FAMILIES))
    def test_subset_equals_full_batch(self, name):
        n = 5
        pf = mixed_portfolio(SHIPPED_FAMILIES[name], n)
        rng = np.random.default_rng(len(name))
        for label, counts in count_cases(n).items():
            for kind, cdf in ((ExtremeKind.MIN, cdf_min_random),
                              (ExtremeKind.MAX, cdf_max_random)):
                emp = sample_extreme(pf, counts, kind, SimulationConfig(samples=3000, seed=13))
                xs = np.concatenate([[0.0, 1e-300], emp.sorted_values[emp.zero_count:]])
                full = cdf(pf, counts, xs)
                where = f"{label} {kind.name}"
                for size in (1, 2, 7, 100, xs.size // 3):
                    idx = np.sort(rng.choice(xs.size, size=size, replace=False))
                    assert full[idx].tobytes() == cdf(pf, counts, xs[idx]).tobytes(), where
                for i in rng.choice(xs.size, size=20, replace=False):
                    assert full[i : i + 1].tobytes() == cdf(pf, counts, xs[i : i + 1]).tobytes(), where
                    assert float(full[i]) == float(cdf(pf, counts, xs[i])), where


class TestBlockedKs:
    """The blocked ``ks_distance`` against the full pass, compared with float ``==``."""

    @settings(max_examples=150, deadline=None)
    @given(
        m=st.integers(0, 12_000),
        zeros=st.integers(0, 50),
        levels=st.sampled_from([None, 1, 3, 40]),
        atom=st.sampled_from([0.0, 0.1, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(m=1, zeros=0, levels=None, atom=0.0, seed=0)
    @example(m=2, zeros=3, levels=None, atom=0.0, seed=0)
    def test_equals_full_pass(self, m, zeros, levels, atom, seed):
        assume(m + zeros > 0)
        rng = np.random.default_rng(seed)
        values = rng.exponential(size=m)
        if levels:
            # ties: every value is one of a few levels
            values = rng.choice(rng.exponential(size=levels) + 0.01, size=m)
        emp = curve(values, zeros)
        cdf = atom_exponential_cdf(atom, 1.1)
        assert ks_distance(emp, cdf) == reference_ks_distance(emp, cdf)
        assert ks_distance(emp, emp.cdf) == reference_ks_distance(emp, emp.cdf)

    @pytest.mark.parametrize("m", [1, 2, 3, 4096, 4097, 4099, 5000, 5003])
    @pytest.mark.parametrize("zeros", [0, 9])
    def test_block_edges(self, m, zeros):
        # m = 1 is fewer samples than one block, m = 2 exactly one block,
        # and 4097, 4099 and 5003 leave a partial last block; atom = 0.3 is
        # an analytic atom at 0 that the sample lacks when zeros = 0
        emp = curve(np.random.default_rng(m).exponential(size=m), zeros)
        for atom in (0.0, 0.3):
            cdf = atom_exponential_cdf(atom, 0.9)
            assert ks_distance(emp, cdf) == reference_ks_distance(emp, cdf)
        assert ks_distance(emp, emp.cdf) == reference_ks_distance(emp, emp.cdf)

    def test_all_zero_samples(self):
        emp = EmpiricalCurve(np.zeros(10), 10)
        cdf = CountingCdf(atom_exponential_cdf(0.4, 1.0))
        assert ks_distance(emp, cdf) == reference_ks_distance(emp, cdf.cdf) == pytest.approx(0.6)
        assert cdf.points == 1

    def test_decreasing_edges_evaluate_every_sample(self):
        emp = curve(np.random.default_rng(2).exponential(size=20_000), 4)
        wavy = CountingCdf(lambda x: 0.5 + 0.4 * np.sin(37.0 * np.asarray(x, float)))
        assert ks_distance(emp, wavy) == reference_ks_distance(emp, wavy.cdf)
        assert wavy.points == 1 + 20_000


class TestPinnedKs:
    """The cross-checks of the built-in cases at 2^18 samples: the blocked
    pass gives the full-pass value exactly, and for MAX it evaluates the
    closed form at fewer than a quarter of the non-zero samples."""

    @pytest.mark.parametrize("case", ["ex3_1", "cex3_1", "cex3_2"])
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_matches_full_pass(self, case, side):
        spec = get_case(case)
        pf, counts = getattr(spec, f"portfolio_{side}"), getattr(spec, f"counts_{side}")
        for kind, cdf in ((ExtremeKind.MIN, cdf_min_random), (ExtremeKind.MAX, cdf_max_random)):
            emp = sample_extreme(pf, counts, kind, SimulationConfig(samples=1 << 18, seed=12))
            analytic = CountingCdf(lambda x: cdf(pf, counts, x))
            d = ks_distance(emp, analytic)
            assert d == reference_ks_distance(emp, analytic.cdf), kind.name
            if kind is ExtremeKind.MAX:
                assert analytic.points < 0.25 * (emp.n - emp.zero_count)
