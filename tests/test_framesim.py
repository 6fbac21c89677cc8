"""Frame synthesis, SNR bookkeeping, and the model assumption checks."""

from dataclasses import replace

import numpy as np
import pytest

from radartag import (
    ConfigInvalidError,
    DimensionMismatchError,
    PilotLayout,
    RegularizationConfig,
    SnrConfig,
    SourceCodebook,
    SystemParams,
    TagCodebook,
    alternating_pilot,
    check_assumptions,
    decode_disjoint,
    decode_iterative,
    decode_joint,
    decode_noniterative,
    decode_perfect_csi,
    exhaustive_search,
    gen_gold,
    gen_tag_codebook,
    iterative_channel_update,
    noise_variance,
    numeric_rank,
    relaxed_data_updates,
    sample_channel,
    snr_pair,
    source_data_update_discrete,
    synthesize_frame,
    tag_data_update_discrete,
)
from radartag.channel import response_vector


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

    @pytest.mark.parametrize("name,value", [
        ("pri_s", float("nan")), ("pri_s", float("inf")), ("pri_s", 0.0),
        ("pri_s", 10 ** 400), ("nu_max_hz", float("nan")), ("nu_max_hz", float("inf")),
        ("nu_max_hz", -1.0)])
    def test_pri_and_doppler_must_be_finite(self, name, value):
        # a NaN or infinite PRI once built and gave a NaN coherence product
        with pytest.raises(ConfigInvalidError):
            SystemParams(**{name: value})


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
        zero = np.zeros(2)
        g_sr = sample_channel(1, 2, 1.0, -10.0, False, rng)
        y = synthesize_frame(c, x, zero, g_sr, 0.0, rng)
        want = response_vector(c, g_sr)
        for row in y:
            assert np.allclose(row, want, atol=1e-14)

    def test_backscatter_only_rows_scale_with_symbols(self):
        rng = np.random.default_rng(1)
        c = 1 - 2 * rng.integers(0, 2, 7)
        x = np.array([1, -1, -1, 1])
        g_str = sample_channel(1, 2, 1.0, -10.0, False, rng)
        zero = np.zeros(2)
        y = synthesize_frame(c, x, g_str, zero, 0.0, rng)
        a = response_vector(c, g_str)
        for p, row in enumerate(y):
            assert np.allclose(row, x[p] * a, atol=1e-14)

    def test_zero_sum_tag_orthogonality_identity(self):
        # noiseless: averaging rows recovers the direct pulse shape exactly
        rng = np.random.default_rng(2)
        gold = gen_gold(5)
        tag = gen_tag_codebook(10)
        c = gold.words[3]
        x = tag.words[17]
        g_str, g_sr = _channels(rng)
        y = synthesize_frame(c, x, g_str, g_sr, 0.0, rng)
        avg = y.T @ np.ones(10) / 10
        assert np.allclose(avg, response_vector(c, g_sr), atol=1e-12)

    def test_noiseless_signal_rank_two(self):
        rng = np.random.default_rng(3)
        c = 1 - 2 * rng.integers(0, 2, 9)
        x = np.array([1, 1, -1, -1, 1, -1])
        g_str, g_sr = _channels(rng)
        y = synthesize_frame(c, x, g_str, g_sr, 0.0, rng)
        assert numeric_rank(y) == 2

    def test_noise_variance_empirical(self):
        rng = np.random.default_rng(4)
        c = np.ones(31)
        x = np.ones(10)
        zero = np.zeros(3)
        sigma2 = 0.7
        total = 0.0
        count = 0
        for _ in range(40):  # 40 * 330 = 13200 >> enough for 2%
            y = synthesize_frame(c, x, zero, zero, sigma2, rng)
            total += np.sum(np.abs(y) ** 2)
            count += y.size
        assert total / count == pytest.approx(sigma2, rel=0.02)

    def test_deterministic_given_seed(self):
        c = np.ones(7)
        x = np.array([1, -1, 1, -1])
        g_str, g_sr = _channels(np.random.default_rng(5))
        y1 = synthesize_frame(c, x, g_str, g_sr, 1.0, np.random.default_rng(99))
        y2 = synthesize_frame(c, x, g_str, g_sr, 1.0, np.random.default_rng(99))
        assert np.array_equal(y1, y2)

    @pytest.mark.parametrize("stack", (1, 3, 16))
    @pytest.mark.parametrize("sparse", (False, True))
    @pytest.mark.parametrize("sigma_omega2", (0.0, 0.3))
    def test_stack_equals_single_frames(self, stack, sparse, sigma_omega2):
        # frame f of a stacked call is the single call on row f with a fresh
        # generator from the same seed, bit for bit
        setup = np.random.default_rng(6)
        c = gen_gold(5).words[setup.integers(0, 33, stack)]
        x = 1 - 2 * setup.integers(0, 2, (stack, 10))
        seeds = [[12, f] for f in range(stack)]
        gens = [np.random.default_rng(s) for s in seeds]
        g_str = sample_channel(14, 3, 0.8, -10.0, sparse, gens)
        g_sr = sample_channel(14, 3, 1.2, -10.0, sparse, gens)
        got = synthesize_frame(c, x, g_str, g_sr, sigma_omega2, gens)
        want = []
        for f, seed in enumerate(seeds):
            gen = np.random.default_rng(seed)
            g_str_f = sample_channel(14, 3, 0.8, -10.0, sparse, gen)
            g_sr_f = sample_channel(14, 3, 1.2, -10.0, sparse, gen)
            want.append(synthesize_frame(c[f], x[f], g_str_f, g_sr_f, sigma_omega2, gen))
        assert got.shape == (stack, 10, 45)
        assert np.array_equal(got.view(np.float64), np.array(want).view(np.float64))

    @pytest.mark.parametrize("short", ("c", "x", "g_str", "g_sr"))
    def test_generator_count_must_match_rows(self, short):
        rows = dict(c=np.ones((3, 7)), x=np.ones((3, 4)),
                    g_str=np.ones((3, 2)), g_sr=np.ones((3, 2)))
        rows[short] = rows[short][:2]
        gens = [np.random.default_rng(f) for f in range(3)]
        with pytest.raises(DimensionMismatchError):
            synthesize_frame(rows["c"], rows["x"], rows["g_str"], rows["g_sr"], 1.0, gens)


def _entry_points():
    """Every public decoder and block update of both decoder modules, as
    calls of a (10, 33) frame ``y`` and the full codewords ``c`` (31) and
    ``x`` (10) wherever the entry point takes them."""
    gold, tags = gen_gold(5), gen_tag_codebook(10)
    src, tag = SourceCodebook(n=31, words=gold.words[:4]), TagCodebook(l=10, words=tags.words[:4])
    layout = PilotLayout(c_pilot=gold.words[0][:27], x_pilot=alternating_pilot(6),
                         n_data=4, l_data=4)
    reg = RegularizationConfig(lambda_c=1.0, lambda_x=1.0)
    g = np.array([1.0, 0.5, 0.25])
    return {
        "decode_joint": lambda y, c, x: decode_joint(y, src, tag, reg),
        "decode_disjoint": lambda y, c, x: decode_disjoint(y, src, tag, reg),
        "decode_perfect_csi": lambda y, c, x: decode_perfect_csi(y, src, tag, g, g),
        "decode_noniterative": lambda y, c, x: decode_noniterative(y, layout),
        "decode_iterative": lambda y, c, x: decode_iterative(y, layout, reg),
        "exhaustive_search": lambda y, c, x: exhaustive_search(y, layout, reg),
        "iterative_channel_update": lambda y, c, x: iterative_channel_update(y, c, x, reg),
        "source_data_update_discrete":
            lambda y, c, x: source_data_update_discrete(y, layout, x[6:], g, g),
        "tag_data_update_discrete":
            lambda y, c, x: tag_data_update_discrete(y, layout, c[27:], g, g),
        "relaxed_data_updates":
            lambda y, c, x: relaxed_data_updates(y, layout, np.ones(4), g, g, 1.0, 1.0),
    }


_WRONG_RANK = {"frame (33,)": ("y", np.ones(33)),
               "frame (10, 33, 1)": ("y", np.ones((10, 33, 1))),
               "c (2, 31)": ("c", np.ones((2, 31))),
               "x (2, 5)": ("x", np.ones((2, 5)))}
_TAKES_C = ("iterative_channel_update", "tag_data_update_discrete")
_TAKES_X = ("iterative_channel_update", "source_data_update_discrete")


@pytest.mark.parametrize("name, bad", [
    *((name, bad) for name in _entry_points() for bad in ("frame (33,)", "frame (10, 33, 1)")),
    *((name, "c (2, 31)") for name in _TAKES_C),
    *((name, "x (2, 5)") for name in _TAKES_X),
])
def test_every_entry_point_rejects_wrong_rank_inputs(name, bad):
    # one frame check serves every decoder entry point, so each of them
    # reports a wrong-rank frame or codeword as a dimension mismatch
    call = _entry_points()[name]
    args = dict(y=np.ones((10, 33)), c=np.ones(31), x=np.ones(10))
    assert call(**args) is not None          # the well-formed call decodes
    key, value = _WRONG_RANK[bad]
    args[key] = value
    with pytest.raises(DimensionMismatchError):
        call(**args)


_PILOT = gen_gold(5).words[0][:27]
_BAD_LAYOUTS = {
    "c_pilot (1, 27)": (DimensionMismatchError, dict(c_pilot=_PILOT[None])),
    "c_pilot ()": (DimensionMismatchError, dict(c_pilot=1.0)),
    "x_pilot (2, 3)": (DimensionMismatchError, dict(x_pilot=np.ones((2, 3)))),
    "c_pilot nan": (ValueError, dict(c_pilot=np.append(_PILOT[:-1], np.nan))),
    "x_pilot inf": (ValueError, dict(x_pilot=[1.0, -1.0, np.inf, -1.0, 1.0, -1.0])),
    "c_pilot complex array": (ValueError, dict(c_pilot=np.append(_PILOT[:-1], 1 + 1j))),
    "x_pilot complex list": (ValueError, dict(x_pilot=[1 + 1j, -1, 1, -1, 1, -1])),
    "n_data -1": (ValueError, dict(n_data=-1)),
    "n_data 4.0": (ValueError, dict(n_data=4.0)),
    "l_data '4'": (ValueError, dict(l_data="4")),
}


@pytest.mark.parametrize("bad", list(_BAD_LAYOUTS))
def test_pilot_layout_rejects_malformed_pilots_and_lengths(bad):
    # a malformed layout fails where it is built, not inside numpy in a decoder
    good = dict(c_pilot=_PILOT, x_pilot=alternating_pilot(6), n_data=np.int64(4), l_data=4)
    assert PilotLayout(**good).n == 31
    error, change = _BAD_LAYOUTS[bad]
    with pytest.raises(error):
        PilotLayout(**{**good, **change})


def _tap_entry_points():
    """Every entry point that takes channel taps, as calls of (g_str, g_sr)
    against a (10, 33) frame, i.e. q = 2."""
    gold, tags = gen_gold(5), gen_tag_codebook(10)
    src, tag = SourceCodebook(n=31, words=gold.words[:4]), TagCodebook(l=10, words=tags.words[:4])
    layout = PilotLayout(c_pilot=gold.words[0][:27], x_pilot=alternating_pilot(6),
                         n_data=4, l_data=4)
    y, c, x = np.ones((10, 33)), np.ones(31), np.ones(10)
    return {
        "decode_perfect_csi": lambda gs, gr: decode_perfect_csi(y, src, tag, gs, gr),
        "source_data_update_discrete":
            lambda gs, gr: source_data_update_discrete(y, layout, x[6:], gs, gr),
        "tag_data_update_discrete":
            lambda gs, gr: tag_data_update_discrete(y, layout, c[27:], gs, gr),
        "relaxed_data_updates":
            lambda gs, gr: relaxed_data_updates(y, layout, np.ones(4), gs, gr, 1.0, 1.0),
    }


_G = np.array([1.0, 0.5, 0.25])
_BAD_TAPS = {"g_str (4,)": (np.ones(4), _G), "g_sr (4,)": (_G, np.ones(4)),
             "both (4,)": (np.ones(4), np.ones(4)), "both (1, 3)": (_G[None], _G[None])}


@pytest.mark.parametrize("name, bad", [
    (name, bad) for name in _tap_entry_points() for bad in _BAD_TAPS
])
def test_every_tap_taker_rejects_wrong_tap_shapes(name, bad):
    # taps that are not two (q+1,) vectors are a dimension mismatch, not a
    # broadcasting error from inside numpy
    call = _tap_entry_points()[name]
    assert call(_G, _G) is not None          # the well-formed call decodes
    with pytest.raises(DimensionMismatchError, match="taps"):
        call(*_BAD_TAPS[bad])
