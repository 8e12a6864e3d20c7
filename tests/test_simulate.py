import functools
import math
import os

import numpy as np
import pytest

import claimorder.simulate as simulate
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
        assert abs(emp.zero_mass - expected) <= 3.0 * sigma

    def test_atom_mass_min_within_3_sigma(self):
        p = np.array([0.3, 0.5, 0.6])
        pf = exp_portfolio(p, [1.0, 0.8, 1.5])
        deg = ClaimCountDistribution.degenerate(3)
        n = 200_000
        emp = sample_extreme(pf, deg, ExtremeKind.MIN, SimulationConfig(samples=n, seed=4))
        expected = 1.0 - float(np.prod(p))
        sigma = math.sqrt(expected * (1.0 - expected) / n)
        assert abs(emp.zero_mass - expected) <= 3.0 * sigma

    def test_single_exponential_survival_oracle(self):
        # one claim, p = 0.5, rate 1: P(T > 1) = 0.5 e^{-1} = 0.18394
        pf = exp_portfolio([0.5], [1.0])
        deg = ClaimCountDistribution.degenerate(1)
        n = 1_000_000
        emp = sample_extreme(pf, deg, ExtremeKind.MIN, SimulationConfig(samples=n, seed=5))
        expected = 0.5 * math.exp(-1.0)
        assert expected == pytest.approx(0.18394, abs=5e-6)
        sigma = math.sqrt(expected * (1.0 - expected) / n)
        assert abs(emp.survival(1.0) - expected) <= 3.0 * sigma

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

    def test_antithetic_still_within_band(self, portfolio, counts):
        n = 100_000
        emp = sample_extreme(
            portfolio, counts, ExtremeKind.MAX,
            SimulationConfig(samples=n, seed=9, antithetic=True),
        )
        d = ks_distance(emp, lambda x: cdf_max_random(portfolio, counts, x))
        assert d < dkw_bound(n)


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
        assert emp.zero_mass == pytest.approx(0.4)

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


def reference_chunk(portfolio, counts, kind, seed, chunk_idx, size, antithetic, cache=None):
    """The full-matrix sampler: every cell of the size x n matrix is inverted.

    ``cache`` maps the bytes of ``u`` to its severity matrix.  The draws of
    ``u`` do not depend on the counts or the extreme, so one test can share
    the inversions among them; the values are the same as without it.
    """
    rng = np.random.Generator(np.random.Philox(key=[seed, chunk_idx]))
    n = portfolio.n
    m = rng.choice(counts.support, size=size, p=counts.weights)
    occurs = rng.random((size, n)) < portfolio.p[None, :]
    if antithetic:
        half = (size + 1) // 2
        u = rng.random((half, n))
        u = np.concatenate([u, 1.0 - u[: size - half]], axis=0)
        u = np.where(u == 0.0, np.nextafter(0.0, 1.0), u)
    else:
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
                for antithetic in (False, True):
                    cfg = SimulationConfig(samples=self.SAMPLES, seed=11, antithetic=antithetic)
                    got = sample_extreme(pf, counts, kind, cfg)
                    with monkeypatch.context() as mp:
                        mp.setattr(simulate, "_simulate_chunk", reference)
                        ref = sample_extreme(pf, counts, kind, cfg)
                    where = f"{label} {kind.name} antithetic={antithetic}"
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
