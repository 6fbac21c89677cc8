"""Channel sampling statistics and convolution-matrix structure."""

import numpy as np
import pytest
from scipy.linalg import toeplitz

from radartag import (
    TooManyTapsError,
    conv_matrix_from_channel,
    conv_matrix_from_code,
    gen_gold,
    numeric_rank,
    response_vector,
    sample_channel,
)


def _randc(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestSampleChannel:
    def test_dense_support(self):
        rng = np.random.default_rng(0)
        g = sample_channel(2, 3, 1.0, -10.0, sparse=False, rng=rng)
        assert g.shape == (3,) and g.dtype == np.complex128
        assert np.array_equal(np.flatnonzero(g), [0, 1, 2])

    def test_sparse_support_within_range(self):
        rng = np.random.default_rng(1)
        used = set()
        for _ in range(200):
            g = sample_channel(14, 3, 1.0, -10.0, sparse=True, rng=rng)
            assert g.shape == (15,)
            support = np.flatnonzero(g)
            assert support.size == 3
            used.update(support.tolist())
        assert used == set(range(15))

    def test_pure_specular_magnitude(self):
        rng = np.random.default_rng(2)
        g = sample_channel(2, 3, 4.0, np.inf, sparse=False, rng=rng)
        assert np.allclose(np.abs(g), 2.0)

    def test_mean_tap_power(self):
        # Monte Carlo moment oracle: E|tap|^2 = sigma2 regardless of kappa
        rng = np.random.default_rng(3)
        sigma2 = 2.5
        total = 0.0
        draws = 100_000
        for _ in range(draws // 2):
            g = sample_channel(1, 2, sigma2, -10.0, sparse=False, rng=rng)
            total += np.sum(np.abs(g) ** 2)
        mean = total / draws
        assert mean == pytest.approx(sigma2, rel=0.02)

    def test_too_many_taps(self):
        rng = np.random.default_rng(4)
        with pytest.raises(TooManyTapsError):
            sample_channel(2, 4, 1.0, -10.0, sparse=False, rng=rng)

    @pytest.mark.parametrize("stack", (1, 3, 16))
    @pytest.mark.parametrize("sparse", (False, True))
    @pytest.mark.parametrize("sigma2", (0.0, 0.7))
    def test_stack_equals_single_draws(self, stack, sparse, sigma2):
        # row f of a stacked draw is the single draw from generator f, bit for bit
        seeds = [[11, f] for f in range(stack)]
        got = sample_channel(14, 3, sigma2, -10.0, sparse,
                             [np.random.default_rng(s) for s in seeds])
        want = np.array([sample_channel(14, 3, sigma2, -10.0, sparse,
                                        np.random.default_rng(s)) for s in seeds])
        assert got.shape == (stack, 15)
        assert np.array_equal(got.view(np.float64), want.view(np.float64))


class TestConvMatrixFromCode:
    def test_q_zero_single_column(self):
        c = np.array([1.0, -1.0, 1.0])
        m = conv_matrix_from_code(c, 0)
        assert m.shape == (3, 1)
        assert np.allclose(m[:, 0], c)

    def test_impulse_gives_shifted_identity(self):
        c = np.zeros(4)
        c[0] = 1.0
        m = conv_matrix_from_code(c, 2)
        want = np.vstack([np.eye(3), np.zeros((3, 3))])
        assert np.allclose(m, want)

    def test_matches_direct_convolution(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n, q = int(rng.integers(2, 12)), int(rng.integers(0, 5))
            c = _randc(rng, n)
            g = _randc(rng, q + 1)
            got = conv_matrix_from_code(c, q) @ g
            want = np.convolve(c, g)[: n + q]
            assert np.allclose(got, want, atol=1e-12)

    def test_full_column_rank_for_gold_words(self):
        # holds for every delay spread up to n - 2
        gold = gen_gold(5)
        for q in (0, 2, 14, 29):
            for w in gold.words[:8]:
                assert numeric_rank(conv_matrix_from_code(w, q)) == q + 1


class TestResponseVector:
    def test_impulse_at_lag_zero(self):
        c = np.array([1.0, -1.0, 1.0, 1.0])
        g = np.array([1.0, 0.0, 0.0])
        assert np.allclose(response_vector(c, g), np.concatenate([c, [0, 0]]))

    def test_impulse_at_last_lag(self):
        c = np.array([1.0, -1.0, 1.0, 1.0])
        g = np.array([0.0, 0.0, 1.0])
        assert np.allclose(response_vector(c, g), np.concatenate([[0, 0], c]))

    def test_matches_convolution_oracle(self):
        rng = np.random.default_rng(6)
        c = _randc(rng, 9)
        g = _randc(rng, 4)
        assert np.allclose(response_vector(c, g), np.convolve(c, g), atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        c = _randc(rng, 8)
        g1, g2 = _randc(rng, 3), _randc(rng, 3)
        a, b = _randc(rng), _randc(rng)
        lhs = response_vector(c, a * g1 + b * g2)
        rhs = a * response_vector(c, g1) + b * response_vector(c, g2)
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestConvMatrixFromChannel:
    def test_no_data_columns(self):
        rng = np.random.default_rng(8)
        g = _randc(rng, 3)
        c = _randc(rng, 6)
        gp, gd = conv_matrix_from_channel(g, 6, 0)
        assert gd.shape == (8, 0)
        assert np.allclose(gp @ c, response_vector(c, g), atol=1e-12)

    def test_impulse_channel(self):
        g = np.array([1.0, 0.0, 0.0])
        gp, gd = conv_matrix_from_channel(g, 3, 2)
        full = np.hstack([gp, gd])
        want = np.vstack([np.eye(5), np.zeros((2, 5))])
        assert np.allclose(full, want)

    def test_commutativity_identity(self):
        # Gamma_P c_P + Gamma_D c_D == Xi_c g for every split point
        rng = np.random.default_rng(9)
        c = _randc(rng, 31)
        g = _randc(rng, 3)
        want = response_vector(c, g)
        for n_pilot in (0, 1, 20, 31):
            gp, gd = conv_matrix_from_channel(g, n_pilot, 31 - n_pilot)
            got = gp @ c[:n_pilot] + gd @ c[n_pilot:]
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("n_pilot,n_data", [(27, 4), (31, 0), (1, 30)])
    def test_channel_stack_equals_single_calls(self, n_pilot, n_data):
        # a (2, q+1) stack splits into the two single-channel splits, bit for bit
        rng = np.random.default_rng(11)
        g = np.stack([_randc(rng, 3), _randc(rng, 3)])
        gp, gd = conv_matrix_from_channel(g, n_pilot, n_data)
        assert gp.shape == (2, n_pilot + n_data + 2, n_pilot)
        assert gd.shape == (2, n_pilot + n_data + 2, n_data)
        for f in range(2):
            gp_f, gd_f = conv_matrix_from_channel(g[f], n_pilot, n_data)
            assert gp_f.ndim == gd_f.ndim == 2
            assert np.array_equal(gp[f], gp_f) and np.array_equal(gd[f], gd_f)

    def test_energy_bound(self):
        rng = np.random.default_rng(10)
        c = _randc(rng, 12)
        g = _randc(rng, 4)
        xi = conv_matrix_from_code(c, 3)
        assert np.linalg.norm(xi @ g) <= np.linalg.norm(xi, "fro") * np.linalg.norm(g) + 1e-12


class TestToeplitzGather:
    @pytest.mark.parametrize("n,q", [(1, 0), (1, 3), (4, 0), (7, 1), (31, 2),
                                     (31, 14), (31, 29)])
    def test_conv_matrices_match_scipy_toeplitz(self, n, q):
        # both functions only copy values, so they must equal scipy's bit for bit
        rng = np.random.default_rng(100 * n + q)
        c = _randc(rng, n)
        want = toeplitz(np.concatenate([c, np.zeros(q)]),
                        np.concatenate([c[:1], np.zeros(q)]))
        got = conv_matrix_from_code(c, q)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        got[0, 0] = 99.0  # results must not alias the cached gather index
        assert np.array_equal(conv_matrix_from_code(c, q), want)

        g = _randc(rng, q + 1)
        want_ch = toeplitz(np.concatenate([g, np.zeros(n - 1)]),
                           np.concatenate([g[:1], np.zeros(n - 1)]))
        for n_pilot in (0, n // 2, n):
            gp, gd = conv_matrix_from_channel(g, n_pilot, n - n_pilot)
            assert np.array_equal(np.hstack([gp, gd]), want_ch)
