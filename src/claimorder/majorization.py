"""Vector and matrix majorization predicates, T-transforms, and the cone M_n.

Direction convention: ``majorizes(a, b)`` means ``a`` dominates ``b`` in the
standard sense used by the ordering theorems ("alpha majorizes beta"), i.e.
with both vectors sorted ascending the prefix sums of ``b`` dominate those of
``a`` and the totals agree.  ``weakly_supermajorizes(a, b)`` drops the total
equality and requires prefix-sum dominance at every length.  The notation in
the literature is two-sided; the CLI reports both directional readings.

``scipy.optimize`` is imported only when a linear program runs:
``chain_majorizes_doubly_stochastic`` first compares the row totals, which
``B = A P`` must keep, and solves its LP only when both rows agree;
``birkhoff_vertex_feasible`` always solves one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, SolverError

__all__ = [
    "majorizes",
    "weakly_supermajorizes",
    "ParamMatrix",
    "TTransform",
    "apply_t_transform",
    "chain_majorizes_via_t",
    "DoublyStochasticResult",
    "chain_majorizes_doubly_stochastic",
    "birkhoff_vertex_feasible",
    "RowComparison",
    "row_majorizes",
    "row_weakly_majorizes",
    "in_Mn",
]

PREFIX_TOL = 1e-12

# B = A P with P doubly stochastic keeps each row's total.  A row whose totals
# differ by more than this share of max(1, sum |a_r| + sum |b_r|) rules B out
# without the LP.  The LP itself accepts gaps up to about 1e-7 of that size
# (its absolute tolerance on small rows), ten times below this margin.
ROW_TOTAL_MARGIN = 1e-6

# birkhoff_vertex_feasible has one LP column per permutation of n
BIRKHOFF_MAX_N = 8


def _pair(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or a.size != b.size:
        raise DomainError("vectors must be 1-d and of equal length")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise DomainError("vectors must have finite entries")
    return a, b


def majorizes(a, b) -> bool:
    """True iff a dominates b in the majorization order (b is 'more averaged')."""
    a, b = _pair(a, b)
    pa = np.cumsum(np.sort(a))
    pb = np.cumsum(np.sort(b))
    if abs(pa[-1] - pb[-1]) > PREFIX_TOL:
        return False
    return bool(np.all(pb[:-1] >= pa[:-1] - PREFIX_TOL))


def weakly_supermajorizes(a, b) -> bool:
    """True iff a dominates b in the weak supermajorization order."""
    a, b = _pair(a, b)
    pa = np.cumsum(np.sort(a))
    pb = np.cumsum(np.sort(b))
    return bool(np.all(pb >= pa - PREFIX_TOL))


@dataclass(frozen=True)
class ParamMatrix:
    """A 2 x n matrix (psi(p), alpha) with strictly positive rows."""

    row_psi: np.ndarray
    row_alpha: np.ndarray

    def __post_init__(self):
        psi_row = np.asarray(self.row_psi, dtype=float)
        alpha_row = np.asarray(self.row_alpha, dtype=float)
        if psi_row.ndim != 1 or alpha_row.ndim != 1 or psi_row.size != alpha_row.size:
            raise DomainError("both rows must be 1-d and of equal length")
        object.__setattr__(self, "row_psi", psi_row)
        object.__setattr__(self, "row_alpha", alpha_row)

    @property
    def n(self) -> int:
        return self.row_psi.size

    def as_array(self) -> np.ndarray:
        return np.vstack([self.row_psi, self.row_alpha])


@dataclass(frozen=True)
class TTransform:
    """T_w = w I + (1 - w) Pi for a permutation Pi of {0, ..., n-1}."""

    w: float
    permutation: tuple

    def __post_init__(self):
        if not 0.0 <= self.w <= 1.0:
            raise DomainError("T-transform weight w must lie in [0, 1]")
        perm = tuple(int(i) for i in self.permutation)
        if sorted(perm) != list(range(len(perm))):
            raise DomainError("permutation must be a rearrangement of 0..n-1")
        object.__setattr__(self, "permutation", perm)

    @property
    def n(self) -> int:
        return len(self.permutation)

    def matrix(self) -> np.ndarray:
        eye = np.eye(self.n)
        pi = eye[:, list(self.permutation)]
        return self.w * eye + (1.0 - self.w) * pi


def apply_t_transform(A: ParamMatrix, T: TTransform) -> ParamMatrix:
    if T.n != A.n:
        raise DomainError(f"T-transform order {T.n} does not match matrix width {A.n}")
    M = A.as_array() @ T.matrix()
    return ParamMatrix(M[0], M[1])


def chain_majorizes_via_t(
    A: ParamMatrix, B: ParamMatrix, transforms: Sequence[TTransform], tol: float = 1e-10
) -> bool:
    """True iff right-multiplying A by the given T-transform chain reproduces B."""
    if A.n != B.n:
        raise DomainError("matrices must have equal width")
    cur = A
    for T in transforms:
        cur = apply_t_transform(cur, T)
    return bool(np.all(np.abs(cur.as_array() - B.as_array()) <= tol))


@dataclass(frozen=True)
class DoublyStochasticResult:
    feasible: bool
    witness: Optional[np.ndarray] = None

    def __bool__(self) -> bool:
        return self.feasible


def _ds_constraints(A: np.ndarray, B: np.ndarray):
    """Equality system {A P = B, row sums 1, col sums 1} over the row-major vec(P).

    Row ``r * n + j`` of ``kron(A, I)`` is ``(A P)[r, j]``; ``kron(I, 1^T)``
    sums the rows of P and ``kron(1^T, I)`` its columns.
    """
    n = A.shape[1]
    eye, ones = np.eye(n), np.ones((1, n))
    lhs = np.vstack([np.kron(A, eye), np.kron(eye, ones), np.kron(ones, eye)])
    return lhs, np.concatenate([B.ravel(), np.ones(2 * n)])


def chain_majorizes_doubly_stochastic(A: ParamMatrix, B: ParamMatrix) -> DoublyStochasticResult:
    """Decide whether B = A P for some doubly stochastic P; return P when feasible.

    A row whose totals differ by more than ``ROW_TOTAL_MARGIN`` of its size
    is infeasible without the LP (P's rows sum to 1).
    """
    if A.n != B.n:
        raise DomainError("matrices must have equal width")
    a, b = A.as_array(), B.as_array()
    gap = np.abs(b.sum(axis=1) - a.sum(axis=1))
    size = np.maximum(1.0, np.abs(a).sum(axis=1) + np.abs(b).sum(axis=1))
    # written so that NaN, for which every comparison is false, goes to the LP
    if np.any(gap > ROW_TOTAL_MARGIN * size):
        return DoublyStochasticResult(False, None)
    # imported here: scipy.optimize costs a noticeable share of every CLI start,
    # and only the two LP checks use it
    from scipy import optimize

    n = A.n
    Aeq, beq = _ds_constraints(a, b)
    res = optimize.linprog(
        c=np.zeros(n * n),
        A_eq=Aeq,
        b_eq=beq,
        bounds=[(0.0, 1.0)] * (n * n),
        method="highs",
    )
    if res.status == 0:
        return DoublyStochasticResult(True, res.x.reshape(n, n))
    if res.status == 2:
        return DoublyStochasticResult(False, None)
    raise SolverError(f"feasibility solver did not converge (status {res.status}: {res.message})")


def birkhoff_vertex_feasible(A: ParamMatrix, B: ParamMatrix) -> bool:
    """Exhaustive check over the Birkhoff vertices: is B = A P for P in the
    convex hull of all n! permutation matrices?  Always solves its LP, whose
    2n x n! matrix limits it to n <= ``BIRKHOFF_MAX_N``."""
    if A.n != B.n:
        raise DomainError("matrices must have equal width")
    n = A.n
    if n > BIRKHOFF_MAX_N:
        raise DomainError(f"Birkhoff vertex check needs n <= {BIRKHOFF_MAX_N}, got n = {n}")
    Aarr, Barr = A.as_array(), B.as_array()
    cols = []
    for perm in itertools.permutations(range(n)):
        P = np.eye(n)[:, list(perm)]
        cols.append((Aarr @ P).ravel())
    M = np.column_stack(cols)  # (2n) x n!
    Aeq = np.vstack([M, np.ones((1, M.shape[1]))])
    beq = np.concatenate([Barr.ravel(), [1.0]])
    from scipy import optimize

    res = optimize.linprog(
        c=np.zeros(M.shape[1]),
        A_eq=Aeq,
        b_eq=beq,
        bounds=[(0.0, 1.0)] * M.shape[1],
        method="highs",
    )
    if res.status == 0:
        return True
    if res.status == 2:
        return False
    raise SolverError(f"Birkhoff vertex solver did not converge (status {res.status})")


@dataclass(frozen=True)
class RowComparison:
    """Row-wise verdict of a matrix majorization predicate."""

    holds: bool
    psi_row: bool
    alpha_row: bool

    def __bool__(self) -> bool:
        return self.holds


def row_majorizes(A: ParamMatrix, B: ParamMatrix) -> RowComparison:
    if A.n != B.n:
        raise DomainError("matrices must have equal width")
    p = majorizes(A.row_psi, B.row_psi)
    a = majorizes(A.row_alpha, B.row_alpha)
    return RowComparison(p and a, p, a)


def row_weakly_majorizes(A: ParamMatrix, B: ParamMatrix) -> RowComparison:
    if A.n != B.n:
        raise DomainError("matrices must have equal width")
    p = weakly_supermajorizes(A.row_psi, B.row_psi)
    a = weakly_supermajorizes(A.row_alpha, B.row_alpha)
    return RowComparison(p and a, p, a)


def in_Mn(A: ParamMatrix) -> bool:
    """Membership in M_n: strictly positive rows, similarly ordered."""
    x, y = A.row_psi, A.row_alpha
    if np.any(x <= 0) or np.any(y <= 0):
        return False
    dx = x[:, None] - x[None, :]
    dy = y[:, None] - y[None, :]
    return bool(np.all(dx * dy >= 0))
