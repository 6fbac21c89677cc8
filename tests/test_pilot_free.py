"""Pilot-free decoders: exact noiseless recovery and objective identities."""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radartag import (
    RegularizationConfig,
    SourceCodebook,
    TagCodebook,
    check_source_separability,
    decode_disjoint,
    decode_joint,
    decode_perfect_csi,
    gen_gold,
    gen_tag_codebook,
    iterative_channel_update,
    sample_channel,
    synthesize_frame,
)
from radartag.channel import conv_matrix_from_code, response_vector
from radartag import pilot_aided, pilot_free, solvers
from radartag.errors import EmptyCodebookError, SingularSystemError
from radartag.framesim import SnrConfig, noise_variance
from test_solvers import _two_product_fista

REG0 = RegularizationConfig(kind="l2", lambda_str=0.0, lambda_sr=0.0)


@pytest.fixture(scope="module")
def books():
    gold = gen_gold(5)
    tag_pool = gen_tag_codebook(10)
    rng = np.random.default_rng(1234)
    src_idx = np.sort(rng.choice(33, 16, replace=False))
    tag_idx = np.sort(rng.choice(126, 16, replace=False))
    return (SourceCodebook(n=31, words=gold.words[src_idx]),
            TagCodebook(l=10, words=tag_pool.words[tag_idx]))


def _small_instance():
    """Length-7 source words satisfying pairwise separability at q=1, plus
    the full length-4 tag codebook."""
    rng = np.random.default_rng(77)
    words = []
    while len(words) < 4:
        cand = 1 - 2 * rng.integers(0, 2, 7)
        trial = words + [cand]
        book = SourceCodebook(n=7, words=np.array(trial)) if len(
            {tuple(w) for w in trial}) == len(trial) else None
        if book is not None and check_source_separability(book, 1):
            words.append(cand)
    return SourceCodebook(n=7, words=np.array(words)), gen_tag_codebook(4)


def _residual_fits(xis, u_cols, u_ones, gam_str, gam_sr, big_l, reg):
    """Both families' fits L ||u/L - Xi_c g||^2 + lam phi(g) at given estimates,
    from the residuals of the (Mc, n+q, q+1) convolution matrices ``xis``."""

    def fits(u, gam, lam):
        resid = u[None, :, :] / big_l - xis @ gam
        penalty = np.abs(gam) ** 2 if reg.kind == "l2" else np.abs(gam)
        return big_l * np.sum(np.abs(resid) ** 2, axis=1) + lam * np.sum(penalty, axis=1)

    return (fits(u_cols, gam_str, reg.lambda_str),
            fits(u_ones[:, None], gam_sr[:, :, None], reg.lambda_sr)[:, 0])


def _draw_channels(rng, q=2, sigma2=1.0):
    return (sample_channel(q, q + 1, sigma2, -10.0, False, rng),
            sample_channel(q, q + 1, sigma2, -10.0, False, rng))


def _raw_objective(y, c, x, g_str, g_sr, reg):
    q = y.shape[1] - c.size
    xi = conv_matrix_from_code(c, q)
    model = np.outer(x, xi @ g_str) + np.outer(np.ones(y.shape[0]), xi @ g_sr)
    value = np.sum(np.abs(y - model) ** 2)
    if reg.kind == "l2":
        value += reg.lambda_str * np.sum(np.abs(g_str) ** 2)
        value += reg.lambda_sr * np.sum(np.abs(g_sr) ** 2)
    else:
        value += reg.lambda_str * np.sum(np.abs(g_str))
        value += reg.lambda_sr * np.sum(np.abs(g_sr))
    return float(value)


def _decomposed_objective(y, c, x, g_str, g_sr, reg):
    big_l = y.shape[0]
    q = y.shape[1] - c.size
    xi = conv_matrix_from_code(c, q)
    u_x = y.T @ np.conj(x)
    u_1 = y.sum(axis=0)
    value = (np.sum(np.abs(y) ** 2)
             - np.sum(np.abs(u_x) ** 2) / big_l
             - np.sum(np.abs(u_1) ** 2) / big_l
             + big_l * np.sum(np.abs(u_x / big_l - xi @ g_str) ** 2)
             + big_l * np.sum(np.abs(u_1 / big_l - xi @ g_sr) ** 2))
    if reg.kind == "l2":
        value += reg.lambda_str * np.sum(np.abs(g_str) ** 2)
        value += reg.lambda_sr * np.sum(np.abs(g_sr) ** 2)
    else:
        value += reg.lambda_str * np.sum(np.abs(g_str))
        value += reg.lambda_sr * np.sum(np.abs(g_sr))
    return float(value)


class TestChannelEstimatesGiven:
    """Channel estimates given a fixed codebook pair: the single-pair fit
    ``iterative_channel_update``, on the pilot-free codebooks."""

    def test_noiseless_exact_recovery(self, books):
        src, tag = books
        rng = np.random.default_rng(0)
        for _ in range(10):
            g_str, g_sr = _draw_channels(rng)
            c, x = src.words[3], tag.words[5]
            y = synthesize_frame(c, x, g_str, g_sr, 0.0, rng)
            gs, gr = iterative_channel_update(y, c, x, REG0)
            assert np.linalg.norm(gs - g_str) < 1e-10
            assert np.linalg.norm(gr - g_sr) < 1e-10

    def test_noiseless_exact_recovery_for_non_zero_sum_word(self, books):
        # the joint fit does not need the zero-sum split: a tag word with one
        # symbol flipped sums to +/-2, and the channels still come back exactly
        src, tag = books
        rng = np.random.default_rng(23)
        for k in range(10):
            c, x = src.words[k], tag.words[k].copy()
            x[0] = -x[0]
            g_str, g_sr = _draw_channels(rng)
            y = synthesize_frame(c, x, g_str, g_sr, 0.0, rng)
            gs, gr = iterative_channel_update(y, c, x, REG0)
            assert np.linalg.norm(gs - g_str) < 1e-10
            assert np.linalg.norm(gr - g_sr) < 1e-10

    def test_huge_lambda_shrinks_to_zero(self, books):
        src, tag = books
        rng = np.random.default_rng(1)
        g_str, g_sr = _draw_channels(rng)
        y = synthesize_frame(src.words[0], tag.words[0], g_str, g_sr, 0.0, rng)
        big = RegularizationConfig(kind="l2", lambda_str=1e14, lambda_sr=1e14)
        gs, gr = iterative_channel_update(y, src.words[0], tag.words[0], big)
        assert np.linalg.norm(gs) < 1e-8
        assert np.linalg.norm(gr) < 1e-8

    def test_l1_huge_lambda_exactly_zero(self, books):
        src, tag = books
        rng = np.random.default_rng(2)
        g_str, g_sr = _draw_channels(rng)
        y = synthesize_frame(src.words[0], tag.words[0], g_str, g_sr, 0.0, rng)
        big = RegularizationConfig(kind="l1", lambda_str=1e9, lambda_sr=1e9)
        gs, gr = iterative_channel_update(y, src.words[0], tag.words[0], big)
        assert np.all(gs == 0)
        assert np.all(gr == 0)

    @pytest.mark.parametrize("kind", ["l2", "l1"])
    def test_zero_codeword_at_lambda_zero_is_singular(self, books, kind):
        src, tag = books
        y = synthesize_frame(src.words[0], tag.words[0], np.ones(3), np.ones(3), 1.0,
                             np.random.default_rng(3))
        reg = RegularizationConfig(kind=kind, lambda_str=0.0, lambda_sr=0.0)
        with pytest.raises(SingularSystemError):
            iterative_channel_update(y, np.zeros(31), tag.words[0], reg)

    def test_zero_frame_gives_zero_estimates(self, books):
        src, tag = books
        y = np.zeros((10, 33), dtype=complex)
        for reg in (REG0, RegularizationConfig(kind="l1", lambda_str=0.5, lambda_sr=0.5)):
            gs, gr = iterative_channel_update(y, src.words[0], tag.words[0], reg)
            assert np.allclose(gs, 0, atol=1e-12)
            assert np.allclose(gr, 0, atol=1e-12)


class TestDecodeJoint:
    def test_noiseless_exactness(self, books):
        src, tag = books
        rng = np.random.default_rng(3)
        for _ in range(25):
            ci, xi = int(rng.integers(16)), int(rng.integers(16))
            g_str, g_sr = _draw_channels(rng)
            y = synthesize_frame(src.words[ci], tag.words[xi], g_str, g_sr, 0.0, rng)
            res = decode_joint(y, src, tag, REG0)
            assert (res.c_index, res.x_index) == (ci, xi)
            assert np.linalg.norm(res.g_str_hat - g_str) < 1e-9
            assert np.linalg.norm(res.g_sr_hat - g_sr) < 1e-9

    def test_small_instance_exhaustive_roundtrip(self):
        src, tag = _small_instance()
        rng = np.random.default_rng(4)
        for _ in range(100):
            g_str, g_sr = _draw_channels(rng, q=1)
            for ci in range(len(src)):
                for xi in range(len(tag)):
                    y = synthesize_frame(src.words[ci], tag.words[xi],
                                         g_str, g_sr, 0.0, rng)
                    res = decode_joint(y, src, tag, REG0)
                    assert (res.c_index, res.x_index) == (ci, xi)

    def test_decomposition_identity(self, books):
        # raw objective equals the slow-time-decomposed form for zero-sum x
        src, tag = books
        rng = np.random.default_rng(5)
        reg = RegularizationConfig(kind="l2", lambda_str=0.3, lambda_sr=0.7)
        for _ in range(20):
            g_str, g_sr = _draw_channels(rng)
            y = synthesize_frame(src.words[rng.integers(16)],
                                 tag.words[rng.integers(16)],
                                 g_str, g_sr, 1.0, rng)
            c = src.words[int(rng.integers(16))]
            x = tag.words[int(rng.integers(16))]
            gs = (rng.standard_normal(3) + 1j * rng.standard_normal(3))
            gr = (rng.standard_normal(3) + 1j * rng.standard_normal(3))
            raw = _raw_objective(y, c, x, gs, gr, reg)
            dec = _decomposed_objective(y, c, x, gs, gr, reg)
            assert abs(raw - dec) <= 1e-8 * abs(raw)

    def test_zero_lambda_reduces_to_projection_metric(self, books):
        # the l2 rule at lambda=0 equals the projection-energy metric
        src, tag = books
        rng = np.random.default_rng(6)
        g_str, g_sr = _draw_channels(rng)
        y = synthesize_frame(src.words[2], tag.words[9], g_str, g_sr, 1.0, rng)
        big_l = y.shape[0]
        for ci in (0, 5):
            for xi in (1, 7):
                c, x = src.words[ci], tag.words[xi]
                xi_m = conv_matrix_from_code(c, 2)
                proj = xi_m @ np.linalg.pinv(xi_m)
                u_x = y.T @ np.conj(x).astype(complex)
                u_1 = y.sum(axis=0)
                metric_proof = (np.sum(np.abs(proj @ u_x) ** 2)
                                + np.sum(np.abs(proj @ u_1) ** 2)) / big_l
                gs, gr = iterative_channel_update(y, c, x, REG0)
                quad = np.real(u_x.conj() @ (xi_m @ gs) + u_1.conj() @ (xi_m @ gr))
                assert quad == pytest.approx(metric_proof, rel=1e-10)

    def test_cross_check_agrees_on_noisy_frames(self, books):
        # the residual-form objective at the same ridge estimates has the
        # same argmin as the quadratic-form score decode_joint minimizes
        src, tag = books
        rng = np.random.default_rng(15)
        reg = RegularizationConfig(kind="l2", lambda_str=0.1, lambda_sr=0.1)
        ops = pilot_free._source_ops(src, 2, 10, reg)
        xis = pilot_free._cached_xi_stack(src, 2)
        for _ in range(100):
            g_str, g_sr = _draw_channels(rng, sigma2=0.3)
            y = synthesize_frame(src.words[rng.integers(16)],
                                 tag.words[rng.integers(16)],
                                 g_str, g_sr, 1.0, rng)
            u_cols = y.T @ tag.words.T.astype(np.complex128)
            u_ones = y.sum(axis=0)
            _, _, coords = pilot_free._candidate_fits(ops, u_cols, u_ones, 10, reg)
            gam_str, gam_sr = pilot_free._estimates(ops, coords, slice(None), slice(None))
            r_str, r_sr = _residual_fits(xis, u_cols, u_ones, gam_str, gam_sr, 10, reg)
            tag_term = -np.sum(np.abs(u_cols) ** 2, axis=0) / 10
            flat = int(np.argmin(tag_term[None, :] + r_str + r_sr[:, None]))
            res = decode_joint(y, src, tag, reg)
            assert divmod(flat, len(tag)) == (res.c_index, res.x_index)

    def test_backscatter_free_frame_ties_to_index_zero_tag(self, books):
        # without a tag component every slow-time projection is zero, so the
        # tag choice is a tie broken toward index 0; the source still decodes
        src, tag = books
        rng = np.random.default_rng(16)
        zero = np.zeros(3)
        g_sr = sample_channel(2, 3, 1.0, -10.0, False, rng)
        y = synthesize_frame(src.words[9], tag.words[4], zero, g_sr, 0.0, rng)
        res = decode_joint(y, src, tag, REG0)
        assert res.x_index == 0
        assert res.c_index == 9

    def test_scaling_invariance_of_decision(self, books):
        src, tag = books
        rng = np.random.default_rng(7)
        g_str, g_sr = _draw_channels(rng)
        y = synthesize_frame(src.words[4], tag.words[11], g_str, g_sr, 1.0, rng)
        res1 = decode_joint(y, src, tag, REG0)
        res2 = decode_joint(3.7 * y, src, tag, REG0)
        assert (res1.c_index, res1.x_index) == (res2.c_index, res2.x_index)

    def test_degenerate_zero_frame(self, books):
        src, tag = books
        res = decode_joint(np.zeros((10, 33), dtype=complex), src, tag, REG0)
        assert (res.c_index, res.x_index) == (0, 0)
        assert np.allclose(res.g_str_hat, 0)
        assert np.allclose(res.g_sr_hat, 0)

    def test_empty_codebook_rejected(self, books):
        # emptiness is decided at construction, so the decoders need no guard
        with pytest.raises(EmptyCodebookError):
            TagCodebook(l=10, words=np.zeros((0, 10), dtype=np.int64))
        # and no object can be hollowed out after it
        _, tag = books
        hollow = object.__new__(TagCodebook)
        with pytest.raises(FrozenInstanceError):
            hollow.words = tag.words[:0]


@pytest.mark.slow
class TestFullCodebookNoiselessSweep:
    def test_all_pairs_full_scale(self):
        # every (source, tag) pair of the full 33 x 126 codebooks decodes
        # exactly, channels cycling through a pool of 100 random draws
        gold = gen_gold(5)
        tag = gen_tag_codebook(10)
        rng = np.random.default_rng(8)
        pool = [_draw_channels(rng) for _ in range(100)]
        k = 0
        for ci in range(len(gold)):
            for xi in range(len(tag)):
                g_str, g_sr = pool[k % 100]
                k += 1
                y = synthesize_frame(gold.words[ci], tag.words[xi],
                                     g_str, g_sr, 0.0, rng)
                res = decode_joint(y, gold, tag, REG0)
                assert (res.c_index, res.x_index) == (ci, xi)


class TestDecodeDisjoint:
    def test_noiseless_exactness(self, books):
        src, tag = books
        rng = np.random.default_rng(9)
        for _ in range(25):
            ci, xi = int(rng.integers(16)), int(rng.integers(16))
            g_str, g_sr = _draw_channels(rng)
            y = synthesize_frame(src.words[ci], tag.words[xi], g_str, g_sr, 0.0, rng)
            res = decode_disjoint(y, src, tag, REG0)
            assert (res.c_index, res.x_index) == (ci, xi)
            assert np.linalg.norm(res.g_str_hat - g_str) < 1e-9

    def test_joint_metric_never_worse(self, books):
        src, tag = books
        rng = np.random.default_rng(10)
        for _ in range(15):
            g_str, g_sr = _draw_channels(rng)
            y = synthesize_frame(src.words[rng.integers(16)],
                                 tag.words[rng.integers(16)],
                                 g_str, g_sr, 1.0, rng)
            joint = decode_joint(y, src, tag, REG0)
            disjoint = decode_disjoint(y, src, tag, REG0)
            assert joint.metric <= disjoint.metric + 1e-9

    def test_sr_only_variant_matches_when_no_backscatter(self, books):
        src, tag = books
        rng = np.random.default_rng(11)
        zero = np.zeros(3)
        for _ in range(10):
            g_sr = sample_channel(2, 3, 1.0, -10.0, False, rng)
            y = synthesize_frame(src.words[rng.integers(16)],
                                 tag.words[rng.integers(16)],
                                 zero, g_sr, 0.0, rng)
            with_str = decode_disjoint(y, src, tag, REG0)
            sr_only = decode_disjoint(y, src, tag, REG0,
                                      use_str_for_source=False)
            assert with_str.c_index == sr_only.c_index


class TestDecodePerfectCsi:
    def test_noiseless_exact(self, books):
        src, tag = books
        rng = np.random.default_rng(12)
        for _ in range(20):
            ci, xi = int(rng.integers(16)), int(rng.integers(16))
            g_str, g_sr = _draw_channels(rng)
            y = synthesize_frame(src.words[ci], tag.words[xi], g_str, g_sr, 0.0, rng)
            res = decode_perfect_csi(y, src, tag, g_str, g_sr)
            assert (res.c_index, res.x_index) == (ci, xi)

    def test_single_pair_returned_under_heavy_noise(self):
        rng = np.random.default_rng(13)
        src = SourceCodebook(n=7, words=(1 - 2 * rng.integers(0, 2, (1, 7))))
        tag = TagCodebook(l=4, words=np.array([[1, 1, -1, -1]]))
        g_str, g_sr = _draw_channels(rng, q=1)
        y = synthesize_frame(src.words[0], tag.words[0], g_str, g_sr, 1e6, rng)
        res = decode_perfect_csi(y, src, tag, g_str, g_sr)
        assert (res.c_index, res.x_index) == (0, 0)

    def test_matches_direct_residual_minimization(self, books):
        src, tag = books
        rng = np.random.default_rng(14)
        for q in (2, 14):
            for _ in range(4):
                g_str = sample_channel(q, 3, 0.2, -10.0, q > 2, rng)
                g_sr = sample_channel(q, 3, 0.5, -10.0, q > 2, rng)
                y = synthesize_frame(src.words[rng.integers(16)],
                                     tag.words[rng.integers(16)],
                                     g_str, g_sr, 1.0, rng)
                res = decode_perfect_csi(y, src, tag, g_str, g_sr)
                best = None
                for ci in range(16):
                    a = response_vector(src.words[ci], g_str)
                    b = response_vector(src.words[ci], g_sr)
                    for xi in range(16):
                        resid = (y - np.outer(tag.words[xi], a)
                                 - np.outer(np.ones(10), b))
                        val = np.sum(np.abs(resid) ** 2)
                        if best is None or val < best[0]:
                            best = (val, ci, xi)
                assert (res.c_index, res.x_index) == (best[1], best[2])
                assert res.metric == pytest.approx(best[0], rel=1e-9)

    def test_exact_tie_breaks_toward_the_smaller_source_index(self):
        # source words c, -c and tag words x, -x: the frame (-x) a_c^T is
        # both (0, 1) and (1, 0) exactly, and the known channels (no direct
        # link) rule out the other two pairs, which tie with these under
        # joint decoding's sign ambiguity
        rng = np.random.default_rng(19)
        c, x = 1 - 2 * rng.integers(0, 2, 7), np.array([1, 1, -1, -1])
        src = SourceCodebook(n=7, words=np.array([c, -c]))
        tag = TagCodebook(l=4, words=np.array([x, -x]))
        g_str = sample_channel(1, 2, 1.0, -10.0, False, rng)
        y = np.outer(-x, response_vector(c, g_str))
        res = decode_perfect_csi(y, src, tag, g_str, np.zeros(2))
        assert (res.c_index, res.x_index) == (0, 1)


class TestStackedQuadraticForm:
    """The stacked l2 scoring path against an explicit per-pair oracle."""

    # lambda = 0 needs full-column-rank Xi, which Gold words have up to q = 29
    @pytest.mark.parametrize("q", [2, 14])
    @pytest.mark.parametrize("lam", [0.0, 0.1, 10.0])
    def test_decisions_match_per_pair_minimization(self, books, q, lam):
        src, tag = books
        reg = RegularizationConfig(kind="l2", lambda_str=lam, lambda_sr=lam / 2)
        rng = np.random.default_rng(q + int(10 * lam))
        for _ in range(4):
            g_str = sample_channel(q, 3, 0.1, -10.0, q > 2, rng)
            g_sr = sample_channel(q, 3, 0.3, -10.0, q > 2, rng)
            y = synthesize_frame(src.words[rng.integers(16)],
                                 tag.words[rng.integers(16)],
                                 g_str, g_sr, 1.0, rng)
            fits = {}
            for ci, c in enumerate(src.words):
                for xi, x in enumerate(tag.words):
                    gs, gr = iterative_channel_update(y, c, x, reg)
                    fits[ci, xi] = (_raw_objective(y, c, x, gs, gr, reg), gs, gr)

            joint = decode_joint(y, src, tag, reg)
            best = min(fits, key=lambda pair: fits[pair][0])
            assert (joint.c_index, joint.x_index) == best
            # the metric drops the pair-independent ||y||^2 - ||Y^T 1||^2 / L
            offset = np.sum(np.abs(y) ** 2) - np.sum(np.abs(y.sum(axis=0)) ** 2) / 10
            assert joint.metric + offset == pytest.approx(fits[best][0], rel=1e-9)
            self._assert_estimates(joint, fits[best])

            # disjoint: tag by slow-time energy, then the best source at that tag
            energies = [np.sum(np.abs(y.T @ x) ** 2) for x in tag.words]
            xi_d = int(np.argmax(energies))
            ci_d = min(range(len(src)), key=lambda ci: fits[ci, xi_d][0])
            disjoint = decode_disjoint(y, src, tag, reg)
            assert (disjoint.c_index, disjoint.x_index) == (ci_d, xi_d)
            self._assert_estimates(disjoint, fits[ci_d, xi_d])

    @staticmethod
    def _assert_estimates(res, fit):
        _, gs, gr = fit
        assert np.linalg.norm(res.g_str_hat - gs) <= 1e-9 * max(np.linalg.norm(gs), 1.0)
        assert np.linalg.norm(res.g_sr_hat - gr) <= 1e-9 * max(np.linalg.norm(gr), 1.0)


def _block_l2_fits(xis, u_cols, u_ones, big_l, reg):
    """The l2 fits as scored before the whitened operators, kept as their
    oracle: one matmul of the block [Xi^H; Op_str; Op_sr], with
    Op = (L Xi^H Xi + lam I)^{-1} Xi^H, against [u_cols, u_ones] gives Xi^H u
    and the ridge estimates of every pair, and a fit is
    ||u||^2/L - Re(u^H Xi Op u).  Returns (f_str, gam_str, f_sr, gam_sr)."""
    xi_h = xis.conj().transpose(0, 2, 1)
    grams = big_l * (xi_h @ xis)
    eye = np.eye(xis.shape[2])
    block = np.concatenate([xi_h, np.linalg.solve(grams + reg.lambda_str * eye, xi_h),
                            np.linalg.solve(grams + reg.lambda_sr * eye, xi_h)], axis=1)
    q1, r = xis.shape[2], u_cols.shape[1]
    prod = block @ np.column_stack([u_cols, u_ones])
    atb, gam_str, gam_sr = prod[:, :q1], prod[:, q1:2 * q1, :r], prod[:, 2 * q1:, r]
    f_str = -np.einsum("cij,cij->cj", atb[:, :, :r].conj(), gam_str).real
    f_sr = (float(np.sum(np.abs(u_ones) ** 2)) / big_l
            - np.einsum("ci,ci->c", atb[:, :, r].conj(), gam_sr).real)
    return f_str, gam_str, f_sr, gam_sr


def _block_l2_decodes(y, source, tag, reg):
    """(c, x, g_str, g_sr, metric) of decode_joint and of decode_disjoint
    with and without the backscatter fit, from the block-operator fits."""
    big_l, q = y.shape[0], y.shape[1] - source.n
    u_cols = pilot_free._tag_projections(y, tag)
    f_str, gam_str, f_sr, gam_sr = _block_l2_fits(conv_matrix_from_code(source.words, q),
                                                  u_cols, y.sum(axis=0), big_l, reg)
    metric = f_str + f_sr[:, None]
    ci, xi = divmod(int(np.argmin(metric)), len(tag))
    out = [(ci, xi, gam_str[ci, :, xi], gam_sr[ci], metric[ci, xi])]
    xi = int(np.argmax(np.sum(np.abs(u_cols) ** 2, axis=0)))
    for use_str in (True, False):
        ci = int(np.argmin(f_sr + (f_str[:, xi] if use_str else 0.0)))
        out.append((ci, xi, gam_str[ci, :, xi], gam_sr[ci], metric[ci, xi]))
    return out


class TestWhitenedRidgeFits:
    """The whitened l2 fits against the block-operator fits they replaced."""

    @staticmethod
    def _assert_close(got, want):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    # (q, (lambda_str, lambda_sr), source words, tag length, tag words, frames);
    # the last row's backscatter product takes several codeword chunks
    @pytest.mark.parametrize("q,lams,n_src,l,n_tag,frames", [
        (2, (0.0, 0.0), 16, 10, 16, 150), (2, (0.1, 0.1), 16, 10, 16, 150),
        (2, (0.1, 3.0), 16, 10, 16, 150), (14, (0.0, 0.0), 16, 10, 16, 80),
        (14, (0.1, 0.1), 16, 10, 16, 80), (14, (3.0, 0.1), 16, 10, 16, 80),
        (2, (0.1, 0.1), 32, 16, 128, 40)])
    def test_decodes_match_block_operator_fits(self, q, lams, n_src, l, n_tag, frames):
        rng = np.random.default_rng(q + n_tag + int(10 * sum(lams)))
        pool = gen_tag_codebook(l).words
        tag = TagCodebook(l=l, words=pool[np.sort(rng.choice(len(pool), n_tag, replace=False))])
        source = SourceCodebook(n=31, words=gen_gold(5).words[
            np.sort(rng.choice(33, n_src, replace=False))])
        reg = RegularizationConfig(kind="l2", lambda_str=lams[0], lambda_sr=lams[1])
        if n_tag == 128:
            assert n_src * (q + 1) * (31 + q) * n_tag > pilot_free._PROJECTION_MACS
        sigma_w2, sigma_str2, sigma_sr2 = noise_variance(SnrConfig(5.0, 10.0), 31)
        for _ in range(frames):
            ci, xi = int(rng.integers(n_src)), int(rng.integers(n_tag))
            y = synthesize_frame(source.words[ci], tag.words[xi],
                                 sample_channel(q, 3, sigma_str2, -10.0, q > 2, rng),
                                 sample_channel(q, 3, sigma_sr2, -10.0, q > 2, rng),
                                 sigma_w2 * 10 ** rng.uniform(-1, 1), rng)
            got = [decode_joint(y, source, tag, reg), decode_disjoint(y, source, tag, reg),
                   decode_disjoint(y, source, tag, reg, use_str_for_source=False)]
            for res, (c_ref, x_ref, gs, gr, metric) in zip(got, _block_l2_decodes(
                    y, source, tag, reg)):
                assert (res.c_index, res.x_index) == (c_ref, x_ref)
                self._assert_close(res.g_str_hat, gs)
                self._assert_close(res.g_sr_hat, gr)
                # a fit is a difference of slow-time energies, each at most
                # the frame energy, so metrics are also compared on that scale
                assert res.metric == pytest.approx(metric, rel=1e-12,
                                                   abs=1e-12 * np.vdot(y, y).real)
            # the fixed-pair estimates, at the sent pair and at the decoded one
            for c, x in ((source.words[ci], tag.words[xi]),
                         (source.words[got[0].c_index], tag.words[got[0].x_index])):
                u_x = (y.T @ x.astype(np.complex128))[:, None]
                _, gs, _, gr = _block_l2_fits(conv_matrix_from_code(c, q)[None], u_x,
                                              y.sum(axis=0), l, reg)
                est_str, est_sr = iterative_channel_update(y, c, x, reg)
                self._assert_close(est_str, gs[0, :, 0])
                self._assert_close(est_sr, gr[0])

    @pytest.mark.parametrize("q", [2, 14])
    def test_candidate_fits_match_block_operator_fits(self, books, q):
        # every pair's fit and estimate, not just the decoded ones
        src, tag = books
        rng = np.random.default_rng(40 + q)
        xis = pilot_free._cached_xi_stack(src, q)
        for lams in ((0.0, 0.0), (0.1, 0.1), (0.1, 3.0)):
            reg = RegularizationConfig(kind="l2", lambda_str=lams[0], lambda_sr=lams[1])
            ops = pilot_free._source_ops(src, q, 10, reg)
            for _ in range(5):
                y = synthesize_frame(src.words[rng.integers(16)], tag.words[rng.integers(16)],
                                     sample_channel(q, 3, 0.3, -10.0, q > 2, rng),
                                     sample_channel(q, 3, 1.0, -10.0, q > 2, rng), 1.0, rng)
                u_cols, u_ones = pilot_free._tag_projections(y, tag), y.sum(axis=0)
                f_str, f_sr, coords = pilot_free._candidate_fits(ops, u_cols, u_ones, 10, reg)
                r_str, r_gs, r_sr, r_gr = _block_l2_fits(xis, u_cols, u_ones, 10, reg)
                scale = 1e-12 * np.vdot(y, y).real
                np.testing.assert_allclose(f_str, r_str, rtol=1e-12, atol=scale)
                np.testing.assert_allclose(f_sr, r_sr, rtol=1e-12, atol=scale)
                gam_str, gam_sr = pilot_free._estimates(ops, coords, slice(None), slice(None))
                for c in range(len(src)):
                    self._assert_close(gam_sr[c], r_gr[c])
                    for j in range(len(tag)):
                        self._assert_close(gam_str[c, :, j], r_gs[c, :, j])

    @pytest.mark.parametrize("q", [2, 14])
    def test_l1_grams_are_real_with_complex_stack_steps(self, books, q):
        # +/-1 codewords make every Gram L Xi^T Xi a real matrix of integers,
        # which FISTA multiplies in float64; the power-iteration steps are
        # still taken on the complex stack, so each keeps its bits
        src, _ = books
        xis = conv_matrix_from_code(src.words, q)
        _, grams, lips = pilot_free._operators(xis, 10, 12.0, 12.0, l1=True)
        assert grams.dtype == np.float64 and grams.flags.c_contiguous
        assert not grams.flags.writeable
        xis_real = xis.real
        assert np.array_equal(grams, 10 * (xis_real.transpose(0, 2, 1) @ xis_real))
        complex_grams = 10 * (xis.conj().transpose(0, 2, 1) @ xis)
        steps = np.array([solvers._power_iteration_largest(g) for g in complex_grams])
        assert lips.tobytes() == steps.tobytes()

    def test_zero_codeword_at_lambda_zero_is_singular(self):
        xis = conv_matrix_from_code(np.zeros((2, 31)), 2)
        with pytest.raises(SingularSystemError):
            pilot_free._operators(xis, 10, 0.0, 0.0, l1=False)
        with pytest.raises(SingularSystemError):
            pilot_free._operators(xis, 10, 0.1, 0.0, l1=False)


def _reference_perfect_csi(y, source, tag, g_str, g_sr):
    """(c, x) of decode_perfect_csi as it scored every pair before dropping
    the terms that the zero-sum tag words cancel or that no pair changes:
    ||y - 1 b_c^T||^2 + L ||a_c||^2 - 2 Re x^T (y - 1 b_c^T) a_c^*."""
    big_l, k = y.shape
    q = k - source.n
    xis = conv_matrix_from_code(source.words, q).reshape(-1, q + 1)
    a, b = ((xis @ g).reshape(len(source), k) for g in (g_str, g_sr))
    a_conj = a.conj()
    base = (np.vdot(y, y).real - 2.0 * (b @ y.sum(axis=0).conj()).real
            + big_l * (np.sum(np.abs(b) ** 2, axis=1) + np.sum(np.abs(a) ** 2, axis=1)))
    cross = (tag.words @ (y @ a_conj.T - np.sum(b * a_conj, axis=1))).real
    return divmod(int(np.argmin(base[:, None] - 2.0 * cross.T)), len(tag))


def _pre_change_l2_decodes(y, source, tag, reg):
    """(c, x, g_str, g_sr, metric) of decode_joint and of decode_disjoint with
    and without the backscatter fit, as computed before the tag words were
    cached and the estimate closure was dropped."""
    big_l, k = y.shape
    w_str, w_sr, back_str, back_sr = pilot_free._source_ops(source, k - source.n, big_l, reg)
    mc, q1 = back_str.shape[:2]
    words_t = tag.words.T.astype(np.complex128)
    chunk = max(1, pilot_free._PROJECTION_MACS // (big_l * k))
    parts = [y.T @ words_t[:, i:i + chunk] for i in range(0, words_t.shape[1], chunk)]
    u_cols = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
    u_ones = y.sum(axis=0)

    def fits(u):
        rows = q1 * max(1, pilot_free._PROJECTION_MACS // (w_str.shape[1] * q1 * u.shape[1]))
        parts = [w_str[i:i + rows] @ u for i in range(0, mc * q1, rows)]
        z_str = (parts[0] if len(parts) == 1 else np.concatenate(parts)).reshape(mc, q1, -1)
        z_sr = (w_sr @ u_ones).reshape(mc, q1)
        f_sr = np.vdot(u_ones, u_ones).real / big_l - np.square(np.abs(z_sr)).sum(axis=1)
        return -np.square(np.abs(z_str)).sum(axis=1), f_sr, lambda c, j: (
            back_str[c] @ z_str[c, :, j], (back_sr[c] @ z_sr[c, :, None])[..., 0])

    f_str, f_sr, estimates = fits(u_cols)
    metric = f_str + f_sr[:, None]
    ci, xi = divmod(int(np.argmin(metric)), len(tag))
    out = [(ci, xi, *estimates(ci, xi), float(metric[ci, xi]))]
    xi = int(np.argmax(np.sum(np.abs(u_cols) ** 2, axis=0)))
    f_str, f_sr, estimates = fits(u_cols[:, xi:xi + 1])
    for use_str in (True, False):
        ci = int(np.argmin(f_sr + (f_str[:, 0] if use_str else 0.0)))
        out.append((ci, xi, *estimates(ci, 0), float(f_str[ci, 0] + f_sr[ci])))
    return out


# (q, source words, tag length, tag words, frames); the last row's 128-word
# book takes several chunks in every product that is chunked
@pytest.mark.parametrize("q,n_src,l,n_tag,frames", [
    (2, 16, 10, 16, 2000), (14, 16, 10, 16, 2000), (2, 32, 16, 128, 100)])
def test_decoders_match_their_pre_change_paths(q, n_src, l, n_tag, frames):
    # perfect CSI scores only the pair-dependent terms, so its metric moves by
    # rounding but no decision may; the l2 decoders keep every bit, and so
    # do their estimates.  The l2 paths are checked on every fourth frame.
    rng = np.random.default_rng(700 + q + n_tag)
    pool = gen_tag_codebook(l).words
    tag = TagCodebook(l=l, words=pool[np.sort(rng.choice(len(pool), n_tag, replace=False))])
    src = SourceCodebook(n=31, words=gen_gold(5).words[
        np.sort(rng.choice(33, n_src, replace=False))])
    reg = RegularizationConfig(kind="l2", lambda_str=0.1, lambda_sr=0.1)
    sigma_w2, sigma_str2, sigma_sr2 = noise_variance(SnrConfig(5.0, 10.0), 31)
    for f in range(frames):
        g_str = sample_channel(q, 3, sigma_str2, -10.0, q > 2, rng)
        g_sr = sample_channel(q, 3, sigma_sr2, -10.0, q > 2, rng)
        y = synthesize_frame(src.words[rng.integers(n_src)], tag.words[rng.integers(n_tag)],
                             g_str, g_sr, sigma_w2 * 10 ** rng.uniform(-1, 1), rng)
        res = decode_perfect_csi(y, src, tag, g_str, g_sr)
        assert (res.c_index, res.x_index) == _reference_perfect_csi(y, src, tag, g_str, g_sr)
        resid = (y - np.outer(tag.words[res.x_index], response_vector(src.words[res.c_index], g_str))
                 - response_vector(src.words[res.c_index], g_sr))
        residual = np.vdot(resid, resid).real
        assert abs(res.metric - residual) <= 1e-12 * residual
        if f % 4:
            continue
        got = [decode_joint(y, src, tag, reg), decode_disjoint(y, src, tag, reg),
               decode_disjoint(y, src, tag, reg, use_str_for_source=False)]
        for res, (ci, xi, gs, gr, metric) in zip(got, _pre_change_l2_decodes(y, src, tag, reg)):
            assert (res.c_index, res.x_index, res.metric) == (ci, xi, metric)
            assert res.g_str_hat.tobytes() == gs.tobytes()
            assert res.g_sr_hat.tobytes() == gr.tobytes()


@pytest.mark.parametrize("l", [16, 18])
def test_chunked_tag_projections_match_one_product(monkeypatch, l):
    # 128 tags, the harness's largest codebook, take two column chunks at k = 33
    n_tags = 128
    rng = np.random.default_rng(l)
    pool = gen_tag_codebook(l).words
    tag = TagCodebook(l=l, words=pool[np.sort(rng.choice(len(pool), n_tags, replace=False))])
    source = SourceCodebook(n=31, words=gen_gold(5).words[:16])
    reg = RegularizationConfig(kind="l2", lambda_str=0.1, lambda_sr=0.1)
    assert n_tags * l * 33 > pilot_free._PROJECTION_MACS
    frames = []
    for _ in range(500):
        g_str, g_sr = _draw_channels(rng, sigma2=10 ** rng.uniform(-2, 0))
        frames.append(synthesize_frame(source.words[rng.integers(16)],
                                       tag.words[rng.integers(n_tags)], g_str, g_sr, 1.0, rng))
    decoders = (pilot_free.decode_joint, pilot_free.decode_disjoint)
    chunked = [[decode(y, source, tag, reg) for decode in decoders] for y in frames]
    monkeypatch.setattr(pilot_free, "_PROJECTION_MACS", 10 ** 9)
    for y, results in zip(frames, chunked):
        for decode, got in zip(decoders, results):
            want = decode(y, source, tag, reg)
            assert (got.c_index, got.x_index, got.metric) == (
                want.c_index, want.x_index, want.metric)
            assert np.array_equal(got.g_str_hat, want.g_str_hat)
            assert np.array_equal(got.g_sr_hat, want.g_sr_hat)


@pytest.mark.parametrize("lams", [(0.3, 0.3), (0.3, 3.0), (12.0, 12.0)])
def test_l1_fits_are_the_residual_objectives_at_the_estimates(books, lams):
    # the l1 scores are the objectives FISTA returns; rebuilt from the
    # residuals at the returned estimates they agree to rounding
    src, tag = books
    reg = RegularizationConfig(kind="l1", lambda_str=lams[0], lambda_sr=lams[1])
    rng = np.random.default_rng(91)
    ops = pilot_free._source_ops(src, 2, 10, reg)
    xis = pilot_free._cached_xi_stack(src, 2)
    u_all = tag.words.T.astype(np.complex128)
    for _ in range(5):
        g_str, g_sr = _draw_channels(rng, sigma2=0.3)
        y = synthesize_frame(src.words[rng.integers(16)], tag.words[rng.integers(16)],
                             g_str, g_sr, 1.0, rng)
        u_cols, u_ones = y.T @ u_all, y.sum(axis=0)
        f_str, f_sr, coords = pilot_free._candidate_fits(ops, u_cols, u_ones, 10, reg)
        gam_str, gam_sr = pilot_free._estimates(ops, coords, slice(None), slice(None))
        r_str, r_sr = _residual_fits(xis, u_cols, u_ones, gam_str, gam_sr, 10, reg)
        energy = np.sum(np.abs(u_cols) ** 2, axis=0) / 10
        np.testing.assert_allclose(f_str + energy, r_str, rtol=1e-12, atol=0)
        np.testing.assert_allclose(f_sr, r_sr, rtol=1e-12, atol=0)


def _two_call_l1_fits(ops, u_cols, u_ones, big_l, reg):
    """``_candidate_fits``' l1 branch before both families shared one FISTA
    call: the tag columns and the direct column in two runs of the
    two-product loop, each with its own joint stop rule."""
    block, grams, lips = ops
    q1 = block.shape[1] // 3
    r = u_cols.shape[1]
    prod = block @ np.column_stack([u_cols, u_ones])
    atb = prod[:, :q1]
    mc = block.shape[0]
    energy = np.sum(np.abs(u_cols) ** 2, axis=0) / big_l
    gam_str = _two_product_fista(grams, atb[:, :, :r], np.broadcast_to(energy, (mc, r)), lips,
                                 reg.lambda_str, reg, prod[:, q1:2 * q1, :r])[0]
    bn1 = np.full((mc, 1), float(np.sum(np.abs(u_ones) ** 2)) / big_l)
    gam_sr = _two_product_fista(grams, atb[:, :, r:], bn1, lips, reg.lambda_sr, reg,
                                prod[:, 2 * q1:, r:])[0][:, :, 0]
    xis = block[:, :q1].conj().swapaxes(1, 2)
    f_str, f_sr = _residual_fits(xis, u_cols, u_ones, gam_str, gam_sr, big_l, reg)
    return f_str - energy, f_sr, (gam_str, gam_sr)


# (q, sparse channels, (lambda_str, lambda_sr), (snr_str, snr_sr) dB, frames):
# the criterion-7c config, the golden l1 row's dense lambda = 0.3 at its low
# SNR point, and unequal weights, so each link's fit must get its own
@pytest.mark.parametrize("q,sparse,lams,snr,frames",
                         [(14, True, (12.0, 12.0), (5.0, 10.0), 40),
                          (2, False, (0.3, 0.3), (-5.0, 0.0), 120),
                          (2, False, (0.3, 3.0), (-5.0, 0.0), 120)],
                         ids=["7c", "dense_lam0.3", "dense_lam0.3_3"])
def test_l1_decisions_match_two_call_path(books, monkeypatch, q, sparse, lams, snr, frames):
    # one FISTA call with a stop family per link, one Gram product per
    # iteration, against the two calls of the two-product loop: the same
    # decisions, and estimates that differ only by rounding
    src, tag = books
    reg = RegularizationConfig(kind="l1", lambda_str=lams[0], lambda_sr=lams[1])
    sigma_w2, sigma_str2, sigma_sr2 = noise_variance(SnrConfig(*snr), 31)
    rng = np.random.default_rng(frames + q)
    ys = [synthesize_frame(src.words[rng.integers(16)], tag.words[rng.integers(16)],
                           sample_channel(q, 3, sigma_str2, -10.0, sparse, rng),
                           sample_channel(q, 3, sigma_sr2, -10.0, sparse, rng), sigma_w2, rng)
          for _ in range(frames)]
    decoders = (decode_joint, decode_disjoint)
    got = [[decode(y, src, tag, reg) for decode in decoders] for y in ys]
    monkeypatch.setattr(pilot_free, "_candidate_fits", _two_call_l1_fits)
    for y, results in zip(ys, got):
        for decode, res in zip(decoders, results):
            want = decode(y, src, tag, reg)
            assert (res.c_index, res.x_index) == (want.c_index, want.x_index)
            for est, ref in ((res.g_str_hat, want.g_str_hat), (res.g_sr_hat, want.g_sr_hat)):
                assert np.linalg.norm(est - ref) <= 1e-6 * max(np.linalg.norm(ref), 1.0)


def test_benchmark_seams_still_resolve():
    # perfbench/selftest.py reads these module attributes directly (it
    # deletes and restores fista_precomputed in two modules, and asserts the
    # traced iterative_channel_update count), so dropping one breaks the
    # benchmark's self-test; this keeps that failure inside tier-1
    assert callable(pilot_free.fista_precomputed)
    assert callable(solvers.fista_precomputed)
    assert callable(pilot_aided.iterative_channel_update)


class TestNonFiniteFrames:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_every_decoder_rejects(self, books, bad):
        src, tag = books
        rng = np.random.default_rng(18)
        g_str, g_sr = _draw_channels(rng)
        y = synthesize_frame(src.words[1], tag.words[2], g_str, g_sr, 1.0, rng)
        y[4, 7] = bad
        l1 = RegularizationConfig(kind="l1", lambda_str=0.5, lambda_sr=0.5)
        for decode in (lambda: decode_joint(y, src, tag, REG0),
                       lambda: decode_joint(y, src, tag, l1),
                       lambda: decode_disjoint(y, src, tag, REG0),
                       lambda: decode_perfect_csi(y, src, tag, g_str, g_sr),
                       lambda: iterative_channel_update(y, src.words[1], tag.words[2], REG0),
                       lambda: iterative_channel_update(y, src.words[1], tag.words[2], l1)):
            with pytest.raises(ValueError, match="non-finite"):
                decode()


@pytest.fixture(scope="module")
def pools():
    return gen_gold(5), gen_tag_codebook(10)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), src_bits=st.integers(0, 5),
       tag_bits=st.integers(0, 6))
def test_noiseless_subsets_decode_exactly(pools, seed, src_bits, tag_bits):
    # any power-of-two subset of the 33 Gold and 126 tag words decodes a
    # noiseless frame to the transmitted indices at lambda = 0
    gold, tag_pool = pools
    rng = np.random.default_rng(seed)
    src = SourceCodebook(n=31, words=gold.words[
        np.sort(rng.choice(33, 2 ** src_bits, replace=False))])
    tag = TagCodebook(l=10, words=tag_pool.words[
        np.sort(rng.choice(126, 2 ** tag_bits, replace=False))])
    ci, xi = int(rng.integers(len(src))), int(rng.integers(len(tag)))
    g_str, g_sr = _draw_channels(rng)
    y = synthesize_frame(src.words[ci], tag.words[xi], g_str, g_sr, 0.0, rng)
    for decode in (decode_joint, decode_disjoint):
        res = decode(y, src, tag, REG0)
        assert (res.c_index, res.x_index) == (ci, xi)
