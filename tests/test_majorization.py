import itertools

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from claimorder import majorization
from claimorder.errors import DomainError
from claimorder.majorization import (
    ROW_TOTAL_MARGIN,
    ParamMatrix,
    TTransform,
    _ds_constraints,
    apply_t_transform,
    birkhoff_vertex_feasible,
    chain_majorizes_doubly_stochastic,
    chain_majorizes_via_t,
    in_Mn,
    majorizes,
    row_majorizes,
    row_weakly_majorizes,
    weakly_supermajorizes,
)

ALPHA_EX = np.array([1.9, 2.0, 3.0, 5.0, 6.0])
BETA_EX = np.array([4.9, 6.5, 7.6, 8.2, 10.9])


def brute_majorizes(a, b, tol=1e-12):
    pa = np.cumsum(np.sort(a))
    pb = np.cumsum(np.sort(b))
    if abs(pa[-1] - pb[-1]) > tol:
        return False
    return all(pb[l] >= pa[l] - tol for l in range(len(pa) - 1))


def brute_weakly_supermajorizes(a, b, tol=1e-12):
    pa = np.cumsum(np.sort(a))
    pb = np.cumsum(np.sort(b))
    return all(pb[l] >= pa[l] - tol for l in range(len(pa)))


class TestVectorPredicates:
    def test_averaging_case(self):
        assert majorizes([1.0, 3.0], [2.0, 2.0])
        assert not majorizes([2.0, 2.0], [1.0, 3.0])

    def test_published_alpha_beta_vectors(self):
        # totals differ (17.9 vs 38.1) so plain majorization fails, but the
        # beta prefixes dominate so weak supermajorization holds
        assert not majorizes(ALPHA_EX, BETA_EX)
        assert weakly_supermajorizes(ALPHA_EX, BETA_EX)
        pa = np.cumsum(np.sort(ALPHA_EX))
        pb = np.cumsum(np.sort(BETA_EX))
        assert np.allclose(pa, [1.9, 3.9, 6.9, 11.9, 17.9])
        assert np.allclose(pb, [4.9, 11.4, 19.0, 27.2, 38.1])
        assert np.all(pb >= pa)

    def test_weak_reflexive_and_strict_cases(self):
        a = np.array([0.4, 1.7, 2.2])
        assert weakly_supermajorizes(a, a)
        assert majorizes(a, a)
        assert not weakly_supermajorizes([5.0, 5.0], [1.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            majorizes([1.0], [1.0, 2.0])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = rng.uniform(0.1, 5.0, 4)
            b = a.mean() + 0.5 * (a - a.mean())  # strictly more averaged
            for pa in itertools.permutations(range(4)):
                assert majorizes(a[list(pa)], b)
                assert majorizes(a, b[list(pa)])

    def test_majorizes_implies_weak(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            a = rng.uniform(0.1, 5.0, rng.integers(2, 6))
            t = rng.uniform(0.0, 1.0)
            b = a.mean() + t * (a - a.mean())
            assert majorizes(a, b)
            assert weakly_supermajorizes(a, b)

    def test_transitive_on_random_triples(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = rng.uniform(0.1, 5.0, 4)
            b = a.mean() + 0.7 * (a - a.mean())
            c = b.mean() + 0.6 * (b - b.mean())
            assert majorizes(a, b) and majorizes(b, c) and majorizes(a, c)

    def test_agrees_with_brute_force_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(2000):
            n = rng.integers(2, 7)
            a = rng.uniform(0.0, 4.0, n)
            if rng.random() < 0.5:
                b = a.mean() + rng.uniform(0, 1.2) * (a - a.mean())
            else:
                b = rng.uniform(0.0, 4.0, n)
            assert majorizes(a, b) == brute_majorizes(a, b)
            assert weakly_supermajorizes(a, b) == brute_weakly_supermajorizes(a, b)


class TestTTransforms:
    def test_identity_at_w_one(self):
        A = ParamMatrix(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        T = TTransform(1.0, (1, 0))
        out = apply_t_transform(A, T)
        assert np.allclose(out.as_array(), A.as_array())

    def test_full_average_at_w_half(self):
        A = ParamMatrix(np.array([1.0, 3.0]), np.array([2.0, 6.0]))
        out = apply_t_transform(A, TTransform(0.5, (1, 0)))
        assert np.allclose(out.row_psi, [2.0, 2.0])
        assert np.allclose(out.row_alpha, [4.0, 4.0])

    def test_invalid_weight_and_permutation(self):
        with pytest.raises(DomainError):
            TTransform(1.5, (0, 1))
        with pytest.raises(DomainError):
            TTransform(0.5, (0, 0))

    def test_chain_verification(self):
        rng = np.random.default_rng(5)
        A = ParamMatrix(rng.uniform(0.5, 3.0, 4), rng.uniform(0.5, 3.0, 4))
        ts = [
            TTransform(rng.uniform(0, 1), tuple(rng.permutation(4))) for _ in range(3)
        ]
        B = A
        for T in ts:
            B = apply_t_transform(B, T)
        assert chain_majorizes_via_t(A, B, ts)
        assert not chain_majorizes_via_t(A, A, ts) or all(t.w == 1.0 for t in ts)

    def test_chain_result_is_row_weakly_majorized(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            A = ParamMatrix(np.sort(rng.uniform(0.5, 3.0, 3)), np.sort(rng.uniform(0.5, 3.0, 3)))
            ts = [
                TTransform(rng.uniform(0, 1), tuple(rng.permutation(3))) for _ in range(3)
            ]
            B = A
            for T in ts:
                B = apply_t_transform(B, T)
            assert row_weakly_majorizes(A, B).holds


def loop_ds_constraints(A, B):
    """The equality system of ``_ds_constraints``, one row of vec(P) at a time."""
    n = A.shape[1]
    rows, rhs = [], []
    for r in range(A.shape[0]):
        for j in range(n):
            coeff = np.zeros((n, n))
            coeff[:, j] = A[r]
            rows.append(coeff.ravel())
            rhs.append(B[r, j])
    for i in range(n):  # row sums
        coeff = np.zeros((n, n))
        coeff[i, :] = 1.0
        rows.append(coeff.ravel())
        rhs.append(1.0)
    for j in range(n):  # column sums
        coeff = np.zeros((n, n))
        coeff[:, j] = 1.0
        rows.append(coeff.ravel())
        rhs.append(1.0)
    return np.array(rows), np.array(rhs)


def _lp_verdict(A, B):
    """The LP's verdict on B = A P, with the row-total check switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(majorization, "ROW_TOTAL_MARGIN", np.inf)
        return chain_majorizes_doubly_stochastic(A, B).feasible


class TestDoublyStochastic:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_constraints_equal_the_loop_version(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            A, B = rng.uniform(0.2, 3.0, (2, n)), rng.uniform(0.2, 3.0, (2, n))
            for got, want in zip(_ds_constraints(A, B), loop_ds_constraints(A, B)):
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()

    def test_identity_feasible(self):
        A = ParamMatrix(np.array([1.0, 2.0, 3.0]), np.array([2.0, 4.0, 8.0]))
        res = chain_majorizes_doubly_stochastic(A, A)
        assert res.feasible
        P = res.witness
        assert np.allclose(P.sum(axis=0), 1.0, atol=1e-8)
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-8)
        assert np.all(P >= -1e-9)
        assert np.allclose(A.as_array() @ P, A.as_array(), atol=1e-8)

    def test_t_transform_image_feasible(self):
        rng = np.random.default_rng(7)
        A = ParamMatrix(rng.uniform(0.5, 3.0, 3), rng.uniform(0.5, 3.0, 3))
        B = apply_t_transform(A, TTransform(0.3, (1, 0, 2)))
        assert chain_majorizes_doubly_stochastic(A, B).feasible

    def test_outside_hull_infeasible(self):
        A = ParamMatrix(np.array([1.0, 2.0]), np.array([1.0, 3.0]))
        B = ParamMatrix(np.array([5.0, 5.0]), np.array([1.0, 3.0]))
        assert not chain_majorizes_doubly_stochastic(A, B).feasible
        assert not birkhoff_vertex_feasible(A, B)

    def test_agrees_with_birkhoff_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(120):
            n = int(rng.integers(2, 5))
            A = ParamMatrix(rng.uniform(0.2, 3.0, n), rng.uniform(0.2, 3.0, n))
            if rng.random() < 0.5:
                # image under a random doubly stochastic mixture: feasible
                perms = [tuple(rng.permutation(n)) for _ in range(3)]
                w = rng.dirichlet(np.ones(3))
                P = sum(wi * np.eye(n)[:, list(p)] for wi, p in zip(w, perms))
                Barr = A.as_array() @ P
                B = ParamMatrix(Barr[0], Barr[1])
            else:
                B = ParamMatrix(rng.uniform(0.2, 3.0, n), rng.uniform(0.2, 3.0, n))
            assert chain_majorizes_doubly_stochastic(A, B).feasible == birkhoff_vertex_feasible(A, B)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_shifted_row_totals_agree_with_birkhoff_oracle(self, data):
        # B = A P for a random doubly stochastic P, then one entry of B moved
        # by a share of its row's total
        n = data.draw(st.integers(2, 6))
        scale = 10.0 ** data.draw(st.floats(-3.0, 3.0))
        entries = st.floats(0.2, 3.0)
        A = ParamMatrix(*(np.array(data.draw(st.lists(entries, min_size=n, max_size=n))) * scale
                          for _ in range(2)))
        perms = data.draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
        w = np.array(data.draw(st.lists(st.floats(0.05, 1.0), min_size=len(perms),
                                        max_size=len(perms))))
        P = sum(wi * np.eye(n)[:, list(p)] for wi, p in zip(w / w.sum(), perms))
        Barr = A.as_array() @ P
        # a decade of -13 leaves B = A P as it is
        decade = data.draw(st.integers(-13, -3))
        shift = 0.0 if decade == -13 else 10.0 ** (decade + data.draw(st.floats(0.0, 1.0)))
        r, j = data.draw(st.integers(0, 1)), data.draw(st.integers(0, n - 1))
        Barr[r, j] += data.draw(st.sampled_from([-1.0, 1.0])) * shift * Barr[r].sum()
        B = ParamMatrix(Barr[0], Barr[1])

        feasible = chain_majorizes_doubly_stochastic(A, B).feasible
        # the row-total check never changes the LP's verdict ...
        assert feasible == _lp_verdict(A, B)
        # ... and where it decides, or nothing was shifted, the oracle agrees.
        # Gaps below the margin are left out: there the two LPs' own
        # tolerances can disagree, with or without the check.
        size = max(1.0, np.abs(A.as_array()[r]).sum() + np.abs(Barr[r]).sum())
        if shift == 0.0 or abs(Barr[r].sum() - A.as_array()[r].sum()) > ROW_TOTAL_MARGIN * size:
            assert feasible == birkhoff_vertex_feasible(A, B)

    @pytest.mark.parametrize("gap", [1e-8, 5e-8, 2e-7, 2e-6])
    def test_small_rows_leave_gaps_within_the_lp_tolerance_to_the_lp(self, gap):
        # rows totalling about 1e-2: the LP accepts absolute gaps up to about
        # 1e-7, so a margin relative to the rows alone would refuse them
        A = ParamMatrix(np.array([1e-3, 2e-3, 3e-3]), np.array([2e-3, 1e-3, 4e-3]))
        Barr = A.as_array() @ (0.6 * np.eye(3) + 0.4 * np.eye(3)[:, [1, 2, 0]])
        Barr[0, 0] += gap
        B = ParamMatrix(Barr[0], Barr[1])
        assert chain_majorizes_doubly_stochastic(A, B).feasible == _lp_verdict(A, B)

    def test_unequal_row_totals_are_decided_without_the_lp(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("linprog called")

        monkeypatch.setattr(scipy.optimize, "linprog", refuse)
        A = ParamMatrix(np.array([1.0, 2.0]), np.array([1.0, 3.0]))
        for B in (ParamMatrix(np.array([5.0, 5.0]), np.array([1.0, 3.0])),
                  ParamMatrix(np.array([2.0, 1.0]), np.array([3.0, 1.0 + 1e-5]))):
            res = chain_majorizes_doubly_stochastic(A, B)
            assert not res.feasible and res.witness is None

    def test_birkhoff_oracle_refuses_large_n(self):
        A = ParamMatrix(np.arange(1.0, 10.0), np.arange(1.0, 10.0))
        with pytest.raises(DomainError, match="n <= 8"):
            birkhoff_vertex_feasible(A, A)

    def test_ds_implies_row_implies_row_weak(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            A = ParamMatrix(rng.uniform(0.2, 3.0, n), rng.uniform(0.2, 3.0, n))
            perms = [tuple(rng.permutation(n)) for _ in range(2)]
            w = rng.dirichlet(np.ones(2))
            P = sum(wi * np.eye(n)[:, list(p)] for wi, p in zip(w, perms))
            Barr = A.as_array() @ P
            B = ParamMatrix(Barr[0], Barr[1])
            assert chain_majorizes_doubly_stochastic(A, B).feasible
            assert row_majorizes(A, B).holds
            assert row_weakly_majorizes(A, B).holds


class TestMn:
    def test_similarly_ordered(self):
        assert in_Mn(ParamMatrix(np.array([1.0, 2.0, 3.0]), np.array([10.0, 20.0, 30.0])))
        assert not in_Mn(ParamMatrix(np.array([1.0, 2.0]), np.array([5.0, 4.0])))

    def test_requires_positive_rows(self):
        assert not in_Mn(ParamMatrix(np.array([1.0, -2.0]), np.array([1.0, 2.0])))

    def test_published_counterexample_matrices_fail(self):
        # the first counterexample's construction violates similar ordering
        psi_p = -np.log(np.exp([-0.7, -0.9, -3.0, -4.9, -3.9]))
        alpha = np.array([1.9, 5.0, 5.5, 6.0, 10.0])
        psi_q = -np.log(np.exp([-3.9, -1.5, -1.6, -4.2, -2.6]))
        beta = np.array([0.7, 0.9, 3.0, 4.9, 3.9])
        assert not (
            in_Mn(ParamMatrix(psi_p, alpha)) and in_Mn(ParamMatrix(psi_q, beta))
        )
