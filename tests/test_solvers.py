"""Solver kernels against independent oracles."""

import numpy as np
import pytest

from radartag import (
    DimensionMismatchError,
    RegularizationConfig,
    SingularSystemError,
    alternating_pilot,
    gen_gold,
    lasso_solve,
    numeric_rank,
    pinv_apply,
    ridge_solve,
)
from radartag.channel import conv_matrix_from_code
from radartag.solvers import _power_iteration_largest, fista_stacked, soft_threshold


def _randc(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _two_product_fista(grams, atbs, bnorm2s, lipschitzes, lam, cfg, x0):
    """fista_stacked as it was before it took one Gram product per iteration.

    The reference loop: G z for the gradient, G x again for the objective
    (quadratic and cross terms as separate reductions), a scalar or
    length-n ``lam`` and one joint stop rule over every column.  Returns
    (gamma, iterations, objective).
    """
    grams = np.asarray(grams, dtype=np.complex128)
    atbs = np.asarray(atbs, dtype=np.complex128)
    s, n, r = atbs.shape
    lam = np.asarray(lam, dtype=float)
    if lam.ndim == 0:
        lam = np.full(n, float(lam))
    bnorm2s = np.asarray(bnorm2s, dtype=float).reshape(s, r)
    steps = 1.0 / np.maximum(np.asarray(lipschitzes, dtype=float), 1e-30)
    thresh = lam[None, :, None] * (steps[:, None, None] / 2.0)

    def objective(x):
        gx = grams @ x
        quad = np.real(np.einsum("sij,sij->sj", x.conj(), gx))
        cross = np.real(np.einsum("sij,sij->sj", x.conj(), atbs))
        return quad - 2.0 * cross + bnorm2s + np.einsum("i,sij->sj", lam, np.abs(x))

    x = np.array(x0, dtype=np.complex128).reshape(s, n, r).copy()
    z = x.copy()
    t = 1.0
    obj = objective(x)
    best_obj = obj.copy()
    best_x = x.copy()
    it = 0
    for it in range(1, cfg.fista_max_iter + 1):
        grad = grams @ z - atbs
        x_new = soft_threshold(z - steps[:, None, None] * grad, thresh)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        z = x_new + ((t - 1.0) / t_new) * (x_new - x)
        x, t = x_new, t_new
        obj_new = objective(x)
        better = obj_new < best_obj
        np.copyto(best_obj, obj_new, where=better)
        np.copyto(best_x, x, where=better[:, None, :])
        rel = np.abs(obj_new - obj) / np.maximum(np.abs(obj), 1e-30)
        obj = obj_new
        if np.all(rel < cfg.fista_tol):
            break
    return best_x, it, best_obj


def _lasso_stack(rng, s, n, r):
    """(grams, atbs, bnorm2s, exact steps) of s random sparse-truth problems."""
    mats = _randc(rng, s, 3 * n, n)
    truth = _randc(rng, s, n, r) * (rng.random((s, n, r)) < 0.3)
    b = mats @ truth + 0.3 * _randc(rng, s, 3 * n, r)
    mats_h = mats.conj().transpose(0, 2, 1)
    grams = mats_h @ mats
    return grams, mats_h @ b, np.sum(np.abs(b) ** 2, axis=1), np.linalg.eigvalsh(grams)[:, -1]


def _inv3_by_cofactors(m):
    """Explicit adjugate inverse of a 3x3 complex matrix (oracle path)."""
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    adj = np.array([
        [e * i - f * h, c * h - b * i, b * f - c * e],
        [f * g - d * i, a * i - c * g, c * d - a * f],
        [d * h - e * g, b * g - a * h, a * e - b * d],
    ])
    return adj / det


def _lasso_coordinate_descent(a, b, lam, iters=20000, tol=1e-10):
    """Coordinate-descent LASSO oracle, run to very tight tolerance."""
    n = a.shape[1]
    x = np.zeros(n, dtype=complex)
    col_norm2 = np.sum(np.abs(a) ** 2, axis=0)
    resid = b.copy()

    def objective(v):
        return np.sum(np.abs(b - a @ v) ** 2) + lam * np.sum(np.abs(v))

    prev = objective(x)
    for _ in range(iters):
        for j in range(n):
            resid += a[:, j] * x[j]
            rho = a[:, j].conj() @ resid
            mag = abs(rho)
            x[j] = 0.0 if mag == 0 else (rho / mag) * max(0.0, mag - lam / 2) / col_norm2[j]
            resid -= a[:, j] * x[j]
        cur = objective(x)
        if abs(prev - cur) <= tol * max(abs(prev), 1.0):
            break
        prev = cur
    return x, objective(x)


class TestRidgeSolve:
    def test_identity(self):
        b = np.array([1.0, 2.0j, -1.0])
        assert np.allclose(ridge_solve(np.eye(3), b, 0.0), b)

    def test_scaled_identity_with_lambda(self):
        # (4 + 2)^{-1} * 2 * 6 = 2
        out = ridge_solve(2.0 * np.eye(2), np.array([6.0, 0.0]), 2.0)
        assert np.allclose(out, [2.0, 0.0])

    def test_against_cofactor_normal_equations(self):
        # acceptance: 100 random instances at 1e-8 relative
        rng = np.random.default_rng(2024)
        for _ in range(100):
            a = _randc(rng, 8, 3)
            b = _randc(rng, 8)
            lam = 0.1
            got = ridge_solve(a, b, lam)
            gram = a.conj().T @ a + lam * np.eye(3)
            want = _inv3_by_cofactors(gram) @ (a.conj().T @ b)
            assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_lambda_zero_equals_direct_solve(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = _randc(rng, 5, 5)
            b = _randc(rng, 5)
            got = ridge_solve(a, b, 0.0)
            want = np.linalg.solve(a, b)
            assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_singular_at_lambda_zero(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularSystemError):
            ridge_solve(a, np.array([1.0, 2.0]), 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            ridge_solve(np.eye(3), np.ones(4), 0.1)


class TestLassoSolve:
    def test_lambda_zero_identity(self):
        sol = lasso_solve(np.eye(2), np.array([3.0, -4.0j]), 0.0)
        assert sol.converged
        assert np.allclose(sol.gamma, [3.0, -4.0j], atol=1e-8)

    def test_scalar_prox(self):
        # closed form: b * max(0, 1 - lam / (2|b|))
        sol = lasso_solve(np.eye(1), np.array([4.0 + 0.0j]), 4.0)
        assert np.allclose(sol.gamma, [2.0], atol=1e-8)

    def test_against_coordinate_descent(self):
        # acceptance: 50 instances, objective within 1e-6 relative
        rng = np.random.default_rng(11)
        cfg = RegularizationConfig(fista_tol=1e-12, fista_max_iter=5000)
        for _ in range(50):
            a = _randc(rng, 10, 4)
            truth = np.zeros(4, dtype=complex)
            truth[rng.integers(4)] = _randc(rng)
            b = a @ truth + 0.05 * _randc(rng, 10)
            lam = 0.5
            sol = lasso_solve(a, b, lam, cfg)
            _, obj_oracle = _lasso_coordinate_descent(a, b, lam)
            assert sol.objective <= obj_oracle * (1 + 1e-6) + 1e-12

    def test_objective_not_above_zero_vector(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = _randc(rng, 6, 3)
            b = _randc(rng, 6)
            lam = float(rng.uniform(0, 5))
            sol = lasso_solve(a, b, lam)
            assert sol.objective <= np.sum(np.abs(b) ** 2) + 1e-12

    def test_restart_does_not_increase_objective(self):
        rng = np.random.default_rng(17)
        a = _randc(rng, 12, 5)
        b = _randc(rng, 12)
        first = lasso_solve(a, b, 0.8)
        second = lasso_solve(a, b, 0.8, x0=first.gamma)
        assert second.objective <= first.objective + 1e-12

    def test_huge_lambda_gives_zero(self):
        rng = np.random.default_rng(23)
        a = _randc(rng, 8, 3)
        b = _randc(rng, 8)
        lam = 10.0 * float(np.max(np.abs(a.conj().T @ b)))
        sol = lasso_solve(a, b, lam)
        assert np.allclose(sol.gamma, 0.0, atol=1e-12)

    def test_nonconvergence_flag(self):
        rng = np.random.default_rng(29)
        a = _randc(rng, 20, 8)
        b = _randc(rng, 20)
        cfg = RegularizationConfig(fista_tol=1e-15, fista_max_iter=3)
        sol = lasso_solve(a, b, 0.3, cfg)
        assert not sol.converged
        assert sol.iterations == 3
        assert sol.gamma.shape == (8,)

    def test_weighted_lambda_vector(self):
        # infinite-weight coordinate must stay at zero
        rng = np.random.default_rng(31)
        a = _randc(rng, 10, 3)
        b = _randc(rng, 10)
        lam = np.array([0.1, 1e9, 0.1])
        sol = lasso_solve(a, b, lam)
        assert abs(sol.gamma[1]) < 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_exact_step_where_power_iteration_falls_short(self):
        # a pilot-aided sensing matrix [x (x) Xi_c, 1 (x) Xi_c] (q = 3, 27 pilot
        # chips, 6 pilot PRIs) on which power iteration stops near half the
        # largest eigenvalue: a 1/L step from it is twice too long for FISTA
        rng = np.random.default_rng(697)
        gold = gen_gold(5)
        c = np.concatenate([gold.words[int(rng.integers(len(gold)))][:27],
                            1 - 2 * rng.integers(0, 2, 4)])
        x = np.concatenate([alternating_pilot(6), 1 - 2 * rng.integers(0, 2, 4)])
        xi = conv_matrix_from_code(c, 3)
        sensing = np.hstack([np.kron(x[:, None], xi), np.kron(np.ones((10, 1)), xi)])
        gram = sensing.conj().T @ sensing
        assert _power_iteration_largest(gram) < 0.55 * np.linalg.eigvalsh(gram)[-1]
        b = sensing @ _randc(rng, 8) + _randc(rng, sensing.shape[0])
        cfg = RegularizationConfig(fista_tol=1e-12, fista_max_iter=5000)
        sol = lasso_solve(sensing, b, 0.4, cfg)
        _, obj_oracle = _lasso_coordinate_descent(sensing, b, 0.4)
        assert sol.objective <= obj_oracle * (1 + 1e-6)


def _pm1_gram_stack(rng, s, n, r):
    """(real grams, atbs, bnorm2s, exact steps) of s sparse-truth problems whose
    operators are convolution matrices of random +/-1 codewords, as in the
    pilot-free l1 fits: each Gram 10 Xi^T Xi is a real matrix of integers."""
    mats = conv_matrix_from_code(1 - 2 * rng.integers(0, 2, (s, 2 * n)), n - 1).real
    truth = _randc(rng, s, n, r) * (rng.random((s, n, r)) < 0.3)
    b = mats @ truth + 0.3 * _randc(rng, s, mats.shape[1], r)
    grams = 10.0 * (mats.transpose(0, 2, 1) @ mats)
    return (grams, 10.0 * (mats.transpose(0, 2, 1) @ b), 10.0 * np.sum(np.abs(b) ** 2, axis=1),
            np.linalg.eigvalsh(grams)[:, -1])


class TestFistaStacked:
    def test_families_reach_their_own_minimizers(self):
        # three families of two right-hand sides, iterated in lockstep
        rng = np.random.default_rng(14)
        cfg = RegularizationConfig(fista_tol=1e-12, fista_max_iter=5000)
        mats = [_randc(rng, 8, 3) for _ in range(3)]
        rhs = [_randc(rng, 8, 2) for _ in range(3)]
        grams = np.stack([a.conj().T @ a for a in mats])
        atbs = np.stack([a.conj().T @ b for a, b in zip(mats, rhs)])
        bnorm2s = np.stack([np.sum(np.abs(b) ** 2, axis=0) for b in rhs])
        lips = np.linalg.eigvalsh(grams)[:, -1]
        sol = fista_stacked(grams, atbs, bnorm2s, lips, 0.5, cfg, np.zeros_like(atbs))
        assert sol.converged
        assert sol.gamma.shape == (3, 3, 2) and sol.objective.shape == (3, 2)
        for s, (a, b) in enumerate(zip(mats, rhs)):
            at_gamma = (np.sum(np.abs(b - a @ sol.gamma[s]) ** 2, axis=0)
                        + 0.5 * np.sum(np.abs(sol.gamma[s]), axis=0))
            assert np.allclose(sol.objective[s], at_gamma, rtol=1e-10, atol=0)
            for j in range(2):
                _, obj_oracle = _lasso_coordinate_descent(a, b[:, j], 0.5)
                assert sol.objective[s, j] <= obj_oracle * (1 + 1e-6)


    @pytest.mark.parametrize("r", [1, 16, 17])
    @pytest.mark.parametrize("max_iter", [6, 500], ids=["capped", "uncapped"])
    def test_one_product_loop_matches_two_product_reference(self, r, max_iter):
        # G z = G x_new + beta (G x_new - G x) and the one-reduction objective
        # change only the rounding, so both loops stop together and return
        # the same objectives; per-row weights go in as an (n, 1) column
        rng = np.random.default_rng(50 + r + max_iter)
        cfg = RegularizationConfig(fista_max_iter=max_iter)
        for _ in range(4):
            grams, atbs, bnorm2s, lips = _lasso_stack(rng, 16, 15, r)
            lam = rng.uniform(0.5, 8.0, 15)
            x0 = np.linalg.solve(grams + np.eye(15), atbs)
            sol = fista_stacked(grams, atbs, bnorm2s, lips, lam[:, None], cfg, x0)
            _, iters, objective = _two_product_fista(grams, atbs, bnorm2s, lips, lam, cfg, x0)
            assert sol.iterations.tolist() == [iters]
            assert sol.converged.tolist() == [iters < max_iter]
            np.testing.assert_allclose(sol.objective, objective, rtol=1e-12, atol=0)

    def test_families_stop_as_separate_calls(self):
        # a stopped family is frozen, so it ends where it would alone while the
        # other family runs on.  BLAS picks its kernel by column count, so the
        # separate calls' products round differently: stop iterations agree
        # exactly, objectives to 1e-12 and estimates (a best iterate may flip
        # on rounding) to 1e-6 relative; iterating past the stop moves the
        # objective by far more than 1e-12
        rng = np.random.default_rng(61)
        cfg = RegularizationConfig()
        stops = []
        for ra, rb in [(16, 1), (3, 2), (4, 4), (1, 5)] * 2:
            grams, atbs, bnorm2s, lips = _lasso_stack(rng, 6, 5, ra + rb)
            x0 = np.zeros_like(atbs)
            both = fista_stacked(grams, atbs, bnorm2s, lips, np.repeat([0.7, 3.0], [ra, rb]),
                                 cfg, x0, families=np.repeat([0, 1], [ra, rb]))
            parts = [fista_stacked(grams, atbs[:, :, cols], bnorm2s[:, cols], lips, lam, cfg,
                                   x0[:, :, cols])
                     for cols, lam in ((slice(0, ra), 0.7), (slice(ra, None), 3.0))]
            assert both.iterations.tolist() == [p.iterations[0] for p in parts]
            assert both.converged.tolist() == [True, True]
            np.testing.assert_allclose(
                both.objective, np.concatenate([p.objective for p in parts], axis=1),
                rtol=1e-12, atol=0)
            alone = np.concatenate([p.gamma for p in parts], axis=2)
            assert np.max(np.abs(both.gamma - alone)) <= 1e-6 * np.max(np.abs(alone))
            stops.append(both.iterations.tolist())
        assert all(a != b for a, b in stops)   # one family always runs on

    @pytest.mark.parametrize("s", [1, 5, 24])
    def test_per_gram_families_equal_separate_calls_bit_for_bit(self, s):
        # (s, 1) labels give every Gram its own stop family; a Gram's products
        # are its own slice of each stacked product and a stopped Gram is
        # frozen, so each one returns exactly what a one-Gram call returns
        rng = np.random.default_rng(70 + s)
        cfg = RegularizationConfig()
        grams, atbs, bnorm2s, lips = _lasso_stack(rng, s, 6, 1)
        lam = rng.uniform(0.5, 4.0, (6, 1))
        x0 = np.linalg.solve(grams + np.eye(6), atbs)
        stacked = fista_stacked(grams, atbs, bnorm2s, lips, lam, cfg, x0,
                                families=np.arange(s)[:, None])
        assert stacked.iterations.shape == (s,)
        for i in range(s):
            one = slice(i, i + 1)
            alone = fista_stacked(grams[one], atbs[one], bnorm2s[one], lips[one], lam, cfg,
                                  x0[one])
            assert stacked.iterations[i] == alone.iterations[0]
            assert stacked.converged[i] == alone.converged[0]
            assert stacked.gamma[one].tobytes() == alone.gamma.tobytes()
            assert stacked.objective[one].tobytes() == alone.objective.tobytes()
        if s > 1:
            assert len(set(stacked.iterations.tolist())) > 1   # the Grams stop apart

    @pytest.mark.parametrize("n", [3, 15])
    @pytest.mark.parametrize("r", [2, 17])
    def test_real_gram_stack_equals_complex_oracle_bit_for_bit(self, n, r):
        # a float64 stack takes one real product on the iterate's (re, im)
        # pairs; with n <= 15 and at least two columns it rounds exactly as
        # the complex product of the same stack cast to complex128, here with
        # two families that stop apart, so the first to stop is frozen while
        # the other runs
        rng = np.random.default_rng(80 + n + r)
        cfg = RegularizationConfig()
        grams, atbs, bnorm2s, lips = _pm1_gram_stack(rng, 16, n, r)
        lam = np.repeat([0.7, 3.0], [r - 1, 1])
        families = np.repeat([0, 1], [r - 1, 1])
        x0 = np.linalg.solve(grams + np.eye(n), atbs)
        real = fista_stacked(grams, atbs, bnorm2s, lips, lam, cfg, x0, families=families)
        oracle = fista_stacked(grams.astype(np.complex128), atbs, bnorm2s, lips, lam, cfg, x0,
                               families=families)
        assert real.iterations[0] != real.iterations[1]
        assert real.gamma.dtype == np.complex128 and real.objective.dtype == np.float64
        for field in ("gamma", "objective", "iterations", "converged"):
            assert getattr(real, field).tobytes() == getattr(oracle, field).tobytes(), field

    @pytest.mark.parametrize("n", [16, 21])
    def test_real_gram_stack_rounds_like_complex_oracle_above_15(self, n):
        # from 16 columns on BLAS may sum the real and the complex products in
        # another order, so the last bits may differ: the same stops, and
        # objectives within 1e-12 relative
        rng = np.random.default_rng(90 + n)
        cfg = RegularizationConfig()
        grams, atbs, bnorm2s, lips = _pm1_gram_stack(rng, 16, n, 17)
        x0 = np.linalg.solve(grams + np.eye(n), atbs)
        real = fista_stacked(grams, atbs, bnorm2s, lips, 3.0, cfg, x0)
        oracle = fista_stacked(grams.astype(np.complex128), atbs, bnorm2s, lips, 3.0, cfg, x0)
        assert real.iterations.tolist() == oracle.iterations.tolist()
        np.testing.assert_allclose(real.objective, oracle.objective, rtol=1e-12, atol=0)


class TestPinvApply:
    def test_identity(self):
        rng = np.random.default_rng(5)
        b = _randc(rng, 2, 3)
        assert np.allclose(pinv_apply(np.eye(2), b), b)

    def test_projection_onto_ones(self):
        out = pinv_apply(np.array([[1.0], [1.0]]), np.array([[2.0], [4.0]]))
        assert np.allclose(out, [[3.0]])

    def test_full_rank_left_inverse(self):
        rng = np.random.default_rng(13)
        a = _randc(rng, 6, 3)
        assert np.allclose(pinv_apply(a, a), np.eye(3), atol=1e-10)

    def test_moore_penrose_identities(self):
        # acceptance: all four identities on 20 random instances at 1e-8
        rng = np.random.default_rng(19)
        for k in range(20):
            m, n = int(rng.integers(2, 8)), int(rng.integers(2, 8))
            a = _randc(rng, m, n)
            if k % 3 == 0:  # include rank-deficient cases
                a[:, -1] = a[:, 0]
            ap = pinv_apply(a, np.eye(m))
            assert np.allclose(a @ ap @ a, a, atol=1e-8)
            assert np.allclose(ap @ a @ ap, ap, atol=1e-8)
            assert np.allclose((a @ ap).conj().T, a @ ap, atol=1e-8)
            assert np.allclose((ap @ a).conj().T, ap @ a, atol=1e-8)


class TestRegularizationConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            RegularizationConfig(kind="l3")
        with pytest.raises(ValueError):
            RegularizationConfig(lambda_str=-0.1)
        with pytest.raises(ValueError):
            RegularizationConfig(lambda_x=-1.0)
        with pytest.raises(ValueError):
            RegularizationConfig(fista_tol=0.0)
        with pytest.raises(ValueError):
            RegularizationConfig(fista_max_iter=0)

    @pytest.mark.parametrize("max_iter", [5.0, 2.5, np.float64(5.0), True, "5", None])
    def test_rejects_non_integer_max_iter(self, max_iter):
        # range() inside fista_stacked would raise TypeError on these
        with pytest.raises(ValueError, match="fista_max_iter"):
            RegularizationConfig(kind="l1", fista_max_iter=max_iter)

    def test_accepts_numpy_integer_max_iter(self):
        assert RegularizationConfig(fista_max_iter=np.int64(7)).fista_max_iter == 7

    def test_relaxed_penalties_default_unset(self):
        cfg = RegularizationConfig()
        assert cfg.lambda_c is None and cfg.lambda_x is None


class TestNumericRank:
    def test_identity(self):
        assert numeric_rank(np.eye(4)) == 4

    def test_proportional_columns(self):
        rng = np.random.default_rng(37)
        v = _randc(rng, 6)
        assert numeric_rank(np.stack([v, 2 * v], axis=1)) == 1

    def test_zero_matrix(self):
        assert numeric_rank(np.zeros((3, 3))) == 0

    def test_invariant_under_householder_mixing(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            a = _randc(rng, 7, 4)
            a[:, 3] = a[:, 0] + a[:, 1]  # force rank 3
            v = _randc(rng, 7)
            h_left = np.eye(7) - 2 * np.outer(v, v.conj()) / np.sum(np.abs(v) ** 2)
            w = _randc(rng, 4)
            h_right = np.eye(4) - 2 * np.outer(w, w.conj()) / np.sum(np.abs(w) ** 2)
            assert numeric_rank(a) == 3
            assert numeric_rank(h_left @ a @ h_right) == 3

    def test_stack_gets_one_rank_per_matrix(self):
        rng = np.random.default_rng(43)
        stack = _randc(rng, 6, 5, 3)
        stack[1, :, 2] = stack[1, :, 0]          # rank 2
        stack[2] = 0.0                           # rank 0
        stack[3, :, 1:] = 1e-12 * stack[3, :, 1:]  # below the relative tolerance
        ranks = numeric_rank(stack)
        assert ranks.tolist() == [numeric_rank(m) for m in stack]
        assert ranks.tolist()[:4] == [3, 2, 0, 1]
        assert numeric_rank(stack.reshape(2, 3, 5, 3)).tolist() == \
            ranks.reshape(2, 3).tolist()
