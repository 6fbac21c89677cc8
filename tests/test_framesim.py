"""Frame synthesis, SNR bookkeeping, and the model assumption checks."""

from dataclasses import replace

import numpy as np
import pytest

from radartag import (
    SnrConfig,
    SystemParams,
    check_assumptions,
    gen_gold,
    gen_tag_codebook,
    noise_variance,
    numeric_rank,
    sample_channel,
    snr_pair,
    synthesize_frame,
)
from radartag.channel import ChannelTaps, response_vector


def _channels(rng, q=2, sigma2=1.0):
    g_str = sample_channel(q, q + 1, sigma2, -10.0, False, rng)
    g_sr = sample_channel(q, q + 1, sigma2, -10.0, False, rng)
    return g_str, g_sr


class TestCheckAssumptions:
    def test_paper_defaults_coherence_bound(self):
        # 24 GHz setup, l=10, pri 3 us: channels frame-constant if nu_max << 33.3 kHz
        params = SystemParams(n=31, l=10, q=2, n_pri=150, pri_s=3e-6, nu_max_hz=0.0)
        report = check_assumptions(params)
        assert report.nu_max_bound_hz == pytest.approx(33.333e3, rel=1e-3)
        assert report.coherence_ok

    def test_timing_check(self):
        params = SystemParams(n=31, l=10, q=2, n_pri=150)
        assert check_assumptions(params).timing_ok
        tight = SystemParams(n=31, l=10, q=2, n_pri=33)
        assert not check_assumptions(tight).timing_ok

    def test_zero_doppler_always_coherent(self):
        params = SystemParams(nu_max_hz=0.0)
        assert check_assumptions(replace(params, l=10_000_000)).coherence_ok

    def test_fast_scatterers_fail(self):
        params = SystemParams(nu_max_hz=50e3)
        assert not check_assumptions(params).coherence_ok


class TestNoiseVariance:
    def test_zero_db_direct_link(self):
        sw2, _, s_sr2 = noise_variance(SnrConfig(-5.0, 0.0), 31)
        assert sw2 == 1.0
        assert s_sr2 == pytest.approx(1 / 31)

    def test_rho_coupling(self):
        snr = snr_pair(20.0, -5.0)
        assert snr.snr_str_db == 15.0
        assert snr.snr_sr_db == 20.0
        _, s_str2, s_sr2 = noise_variance(snr, 31)
        assert 10 * np.log10(s_str2 / s_sr2) == pytest.approx(-5.0)

    def test_minus_inf_switches_link_off(self):
        _, s_str2, _ = noise_variance(SnrConfig(-np.inf, 0.0), 31)
        assert s_str2 == 0.0


class TestSynthesizeFrame:
    def test_direct_only_gives_identical_rows(self):
        rng = np.random.default_rng(0)
        c = 1 - 2 * rng.integers(0, 2, 7)
        x = np.array([1, -1, 1, -1])
        zero = ChannelTaps(np.zeros(2), np.array([]), 0.0, -10.0)
        g_sr = sample_channel(1, 2, 1.0, -10.0, False, rng)
        frame = synthesize_frame(c, x, zero, g_sr, 0.0, rng)
        want = response_vector(c, g_sr)
        for row in frame.y:
            assert np.allclose(row, want, atol=1e-14)

    def test_backscatter_only_rows_scale_with_symbols(self):
        rng = np.random.default_rng(1)
        c = 1 - 2 * rng.integers(0, 2, 7)
        x = np.array([1, -1, -1, 1])
        g_str = sample_channel(1, 2, 1.0, -10.0, False, rng)
        zero = ChannelTaps(np.zeros(2), np.array([]), 0.0, -10.0)
        frame = synthesize_frame(c, x, g_str, zero, 0.0, rng)
        a = response_vector(c, g_str)
        for p, row in enumerate(frame.y):
            assert np.allclose(row, x[p] * a, atol=1e-14)

    def test_zero_sum_tag_orthogonality_identity(self):
        # noiseless: averaging rows recovers the direct pulse shape exactly
        rng = np.random.default_rng(2)
        gold = gen_gold(5)
        tag = gen_tag_codebook(10)
        c = gold.words[3]
        x = tag.words[17]
        g_str, g_sr = _channels(rng)
        frame = synthesize_frame(c, x, g_str, g_sr, 0.0, rng)
        avg = frame.y.T @ np.ones(10) / 10
        assert np.allclose(avg, response_vector(c, g_sr), atol=1e-12)

    def test_noiseless_signal_rank_two(self):
        rng = np.random.default_rng(3)
        c = 1 - 2 * rng.integers(0, 2, 9)
        x = np.array([1, 1, -1, -1, 1, -1])
        g_str, g_sr = _channels(rng)
        frame = synthesize_frame(c, x, g_str, g_sr, 0.0, rng)
        assert numeric_rank(frame.y) == 2

    def test_noise_variance_empirical(self):
        rng = np.random.default_rng(4)
        c = np.ones(31)
        x = np.ones(10)
        zero = ChannelTaps(np.zeros(3), np.array([]), 0.0, -10.0)
        sigma2 = 0.7
        total = 0.0
        count = 0
        for _ in range(40):  # 40 * 330 = 13200 >> enough for 2%
            frame = synthesize_frame(c, x, zero, zero, sigma2, rng)
            total += np.sum(np.abs(frame.y) ** 2)
            count += frame.y.size
        assert total / count == pytest.approx(sigma2, rel=0.02)

    def test_deterministic_given_seed(self):
        c = np.ones(7)
        x = np.array([1, -1, 1, -1])
        g_str, g_sr = _channels(np.random.default_rng(5))
        y1 = synthesize_frame(c, x, g_str, g_sr, 1.0, np.random.default_rng(99)).y
        y2 = synthesize_frame(c, x, g_str, g_sr, 1.0, np.random.default_rng(99)).y
        assert np.array_equal(y1, y2)
