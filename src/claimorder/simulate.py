"""Seeded Monte Carlo engine for empirical extreme-claim distributions.

Replicates are processed in fixed-size chunks, each driven by its own
counter-based (Philox) stream keyed by (seed, chunk index), so serial and
parallel runs produce byte-identical results regardless of scheduling.

A chunk draws the claim counts, the occurrence flags and the uniforms of the
whole ``size x n`` matrix, then inverts only the severities that can decide
the extreme: for the maximum the cells with ``J_i = 1`` and ``i < N``, for
the minimum the active cells of rows in which every active claim occurs.
The draws are those of inverting every cell, so the samples are the same
bit for bit; only the inversion work, the bulk of sampling for gamma
families, shrinks.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .extremes import ClaimCountDistribution, ExtremeKind, Portfolio

__all__ = [
    "SimulationConfig",
    "EmpiricalCurve",
    "sample_extreme",
    "ks_distance",
    "dkw_bound",
]

_CHUNK = 1 << 16


@dataclass(frozen=True)
class SimulationConfig:
    samples: int
    seed: int
    antithetic: bool = False

    def __post_init__(self):
        samples, seed = _whole("samples", self.samples), _whole("seed", self.seed)
        if samples < 1:
            raise DomainError("samples must be >= 1")
        if not 0 <= seed < 2**64:
            raise DomainError("seed must be a 64-bit unsigned integer")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "seed", seed)


def _whole(name: str, value) -> int:
    """``value`` as an int; integral floats such as 7.0 pass, 2.7 and NaN do not."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value:
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return whole


@dataclass(frozen=True)
class EmpiricalCurve:
    """Sorted sample values; the point mass at exactly 0 is tracked separately."""

    sorted_values: np.ndarray
    zero_count: int

    @property
    def n(self) -> int:
        return self.sorted_values.size

    @property
    def zero_mass(self) -> float:
        return self.zero_count / self.n

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.searchsorted(self.sorted_values, x, side="right") / self.n
        return float(out) if out.ndim == 0 else out

    def survival(self, x):
        return 1.0 - self.cdf(x)


def _max_workers() -> int:
    cap = os.environ.get("CLAIMORDER_THREADS")
    if cap:
        try:
            return max(1, int(cap))
        except ValueError:
            raise DomainError(f"CLAIMORDER_THREADS must be an integer, got {cap!r}")
    return 1


def _simulate_chunk(portfolio, counts, kind, seed, chunk_idx, size, antithetic):
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
    # The cells that decide the extreme (see the module docstring), claim-major
    # so that each claim's row is contiguous; a MIN row that is not full is 0.
    active = np.arange(n)[:, None] < m[None, :]
    if kind is ExtremeKind.MIN:
        full = ~np.any(active & ~occurs.T, axis=0)
        used = active & full[None, :]
        t = np.full((n, size), np.inf)
    else:
        used = active & occurs.T
        t = np.zeros((n, size))
    for i in range(n):
        rows = used[i]
        t[i, rows] = portfolio.family.inverse_survival(u[rows, i], portfolio.alpha[i])
    if kind is ExtremeKind.MIN:
        return np.where(full, t.min(axis=0), 0.0)
    return t.max(axis=0)


def sample_extreme(
    portfolio: Portfolio,
    counts: ClaimCountDistribution,
    kind: ExtremeKind,
    config: SimulationConfig,
) -> EmpiricalCurve:
    """Simulate min/max claim amounts of the generative model T_i = J_i U_i."""
    if counts.max_support > portfolio.n:
        raise DomainError("count support exceeds portfolio size")
    n_chunks = math.ceil(config.samples / _CHUNK)
    sizes = [
        min(_CHUNK, config.samples - i * _CHUNK) for i in range(n_chunks)
    ]

    def run(i):
        return _simulate_chunk(
            portfolio, counts, kind, config.seed, i, sizes[i], config.antithetic
        )

    workers = min(_max_workers(), n_chunks)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, range(n_chunks)))
    else:
        parts = [run(i) for i in range(n_chunks)]
    values = np.concatenate(parts)
    values.sort()
    return EmpiricalCurve(values, int(np.count_nonzero(values == 0.0)))


def ks_distance(emp: EmpiricalCurve, analytic_cdf) -> float:
    """sup |empirical CDF - analytic CDF| over the sample.

    The law has a single atom, at 0; there the comparison uses the jump
    itself (empirical zero mass vs analytic CDF at 0) rather than the
    left-limit formula that is only valid at continuity points.
    """
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


def dkw_bound(samples: int, level: float = 1e-3) -> float:
    """Dvoretzky-Kiefer-Wolfowitz band half-width at confidence 1 - level."""
    if not 0 < level < 1:
        raise DomainError("level must lie in (0, 1)")
    return math.sqrt(math.log(2.0 / level) / (2.0 * samples))
