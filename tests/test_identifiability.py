"""Every config the harness accepts meets the paper's identifiability
conditions and runs in finite arithmetic: its books decode noiseless frames
exactly, and the configs beyond them are config errors."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from radartag import (
    ChannelConfig,
    ConfigInvalidError,
    ExperimentConfig,
    RegularizationConfig,
    SnrConfig,
    SystemParams,
    check_source_separability,
    check_tag_separability,
    decode_disjoint,
    decode_joint,
    decode_noniterative,
    gen_gold,
    gen_tag_codebook,
    harness,
    run_trials,
    sample_channel,
    sweep,
    synthesize_frame,
)
from radartag.cli import main
from radartag.harness import config_from_dict, config_to_dict

_EXACT = RegularizationConfig(kind="l2", lambda_str=0.0, lambda_sr=0.0)
_KAPPAS = (-math.inf, -10.0, 0.0, 10.0, math.inf)


@st.composite
def _pilot_free_configs(draw):
    # book sizes up to 128 tags; validation turns away those beyond the cap
    l = draw(st.sampled_from((4, 6, 8, 10, 12)))
    q = draw(st.integers(0, 29))
    try:
        return ExperimentConfig(
            params=SystemParams(l=l, q=q), reg=_EXACT, trials=1,
            channel=ChannelConfig(n_taps=draw(st.integers(1, q + 1)),
                                  kappa_db=draw(st.sampled_from(_KAPPAS)),
                                  sparse=draw(st.booleans())),
            n_source_words=2 ** draw(st.integers(0, 5)),
            n_tag_words=2 ** draw(st.integers(0, 7)),
            seed=draw(st.integers(0, 2 ** 32)))
    except ConfigInvalidError:
        assume(False)


@st.composite
def _pilot_layouts(draw):
    l = draw(st.integers(2, harness.MAX_FRAME_L))
    q = draw(st.integers(0, 30))
    return ExperimentConfig(
        params=SystemParams(l=l, q=q), scheme="pilot_aided_noniter", trials=1,
        channel=ChannelConfig(n_taps=draw(st.integers(1, q + 1)),
                              kappa_db=draw(st.sampled_from(_KAPPAS)),
                              sparse=draw(st.booleans())),
        n_source_words=None, n_tag_words=None,
        n_pilot=draw(st.integers(q + 1, 31)), l_pilot=draw(st.integers(2, l)),
        seed=draw(st.integers(0, 2 ** 32)))


def _channels(cfg, rng):
    chan = cfg.channel
    return [sample_channel(cfg.params.q, chan.n_taps, 1.0, chan.kappa_db, chan.sparse, rng)
            for _ in range(2)]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(cfg=_pilot_free_configs())
def test_accepted_pilot_free_books_decode_noiseless_frames(cfg):
    # the books a run builds, at lambda = 0: joint and disjoint decoding
    # recover the sent pair and both channels of every noiseless frame
    ctx = harness._Context(cfg)
    rng = np.random.default_rng(cfg.seed)
    for _ in range(2):
        ci, xi = int(rng.integers(len(ctx.source))), int(rng.integers(len(ctx.tag)))
        g_str, g_sr = _channels(cfg, rng)
        y = synthesize_frame(ctx.source.words[ci], ctx.tag.words[xi], g_str, g_sr, 0.0, rng)
        for decode in (decode_joint, decode_disjoint):
            res = decode(y, ctx.source, ctx.tag, cfg.reg)
            assert (res.c_index, res.x_index) == (ci, xi), decode.__name__
            assert np.max(np.abs(res.g_str_hat - g_str)) <= 1e-8
            assert np.max(np.abs(res.g_sr_hat - g_sr)) <= 1e-8


@settings(derandomize=True, max_examples=300, deadline=None)
@given(cfg=_pilot_layouts())
def test_accepted_pilot_layouts_decode_noiseless_frames(cfg):
    ctx = harness._Context(cfg)
    rng = np.random.default_rng(cfg.seed)
    for _ in range(2):
        layout = ctx.layouts[int(rng.integers(len(ctx.layouts)))]
        c_data = 1 - 2 * rng.integers(0, 2, ctx.n_data)
        x_data = 1 - 2 * rng.integers(0, 2, ctx.l_data)
        g_str, g_sr = _channels(cfg, rng)
        y = synthesize_frame(np.concatenate([layout.c_pilot, c_data]),
                             np.concatenate([layout.x_pilot, x_data]), g_str, g_sr, 0.0, rng)
        res = decode_noniterative(y, layout)
        assert np.array_equal(res.c_data_hat, c_data)
        assert np.array_equal(res.x_data_hat, x_data)
        # a pilot as short as q + 1 chips gives a delay matrix whose
        # condition number reaches about 4e9 among the Gold words, so the
        # taps are exact only to about 4e9 eps, some 1e-6
        assert np.max(np.abs(res.g_str_hat - g_str)) <= 1e-5
        assert np.max(np.abs(res.g_sr_hat - g_sr)) <= 1e-5


def test_every_gold_subset_is_source_separable_up_to_n_minus_2():
    # so the pilot-free rule q <= n - 2 is the source condition for any subset
    gold = gen_gold(5)
    assert all(check_source_separability(gold, q) for q in range(30))


@pytest.mark.parametrize("l", (4, 6, 8, 10, 12))
def test_tag_cap_is_the_separable_book(l):
    book = gen_tag_codebook(l)
    assert len(book) == math.comb(l - 1, l // 2)
    assert check_tag_separability(book)
    top = 2 ** int(math.log2(min(len(book), harness.MAX_TAG_WORDS)))
    ExperimentConfig(params=SystemParams(l=l), n_tag_words=top)
    with pytest.raises(ConfigInvalidError, match="tag codebook size"):
        ExperimentConfig(params=SystemParams(l=l), n_tag_words=2 * top)


def _edge_config(l, n_tag):
    return ExperimentConfig(params=SystemParams(l=l), n_tag_words=n_tag, trials=20, seed=5,
                            snr_grid=(SnrConfig(60.0, 60.0),))


@pytest.mark.parametrize("l,n_tag", ((4, 4), (6, 16), (8, 64), (10, 128)))
def test_books_beyond_the_separable_set_are_config_errors(l, n_tag, tmp_path):
    # each was the top rate_tag at its l, and held antipodal pairs: a word
    # and its negation give one frame under g_str and -g_str
    with pytest.raises(ConfigInvalidError, match="tag codebook size"):
        _edge_config(l, n_tag)
    data = config_to_dict(_edge_config(l, n_tag // 2))
    data["codebook"]["n_tag"] = n_tag
    with pytest.raises(ConfigInvalidError):
        config_from_dict(data)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert main(["simulate", "--config", str(path)]) == 2


def test_rate_tag_sweep_beyond_the_separable_set_is_a_config_error():
    with pytest.raises(ConfigInvalidError, match="tag codebook size"):
        sweep(_edge_config(10, 16), "rate_tag", [7])


@pytest.mark.parametrize("l,n_tag", ((4, 2), (6, 8), (8, 32), (10, 64)))
def test_largest_separable_books_run_error_free_at_high_snr(l, n_tag):
    for scheme in ("pilot_free_joint", "pilot_free_disjoint"):
        row = run_trials(replace(_edge_config(l, n_tag), scheme=scheme))[0]
        assert (row.ber_source, row.ber_tag) == (0.0, 0.0)
        assert row.nrmse_str < 1e-2 and row.nrmse_sr < 1e-2


@pytest.mark.parametrize("snr", ((harness.MAX_DB, harness.MAX_DB), (-300.0, -300.0),
                                 (-math.inf, -math.inf), (-math.inf, 10.0), (10.0, -math.inf)))
@pytest.mark.parametrize("scheme", sorted(harness.SCHEMES))
def test_extreme_accepted_snrs_run_finite(scheme, snr):
    layout = {}
    if scheme in harness.PILOT_AIDED_SCHEMES:
        layout = dict(n_source_words=None, n_tag_words=None, n_pilot=27,
                      l_pilot=6 if scheme == "pilot_aided_exhaustive" else 2)
    cfg = ExperimentConfig(scheme=scheme, snr_grid=(SnrConfig(*snr),), trials=2, seed=3,
                           **layout)
    row = run_trials(cfg)[0]
    assert all(math.isfinite(getattr(row, name)) for name in
               ("ber_source", "ber_tag", "nrmse_str", "nrmse_sr", "mean_iters"))


@pytest.mark.parametrize("value", (300.5, 3070.0, 2 ** 70))
def test_db_values_above_max_db_are_config_errors(value):
    for kw in (dict(snr_grid=(SnrConfig(value, 10.0),)), dict(rho_db=value),
               dict(channel=ChannelConfig(kappa_db=value))):
        with pytest.raises(ConfigInvalidError, match="at most 300 dB"):
            ExperimentConfig(**kw)
    with pytest.raises(ConfigInvalidError, match="at most 300 dB"):
        sweep(ExperimentConfig(trials=1), "snr_sr", [value])


def test_max_db_and_infinities_are_accepted():
    ExperimentConfig(snr_grid=(SnrConfig(harness.MAX_DB, -math.inf),), rho_db=harness.MAX_DB,
                     channel=ChannelConfig(kappa_db=harness.MAX_DB))
    for kappa_db in (math.inf, -math.inf):
        ExperimentConfig(channel=ChannelConfig(kappa_db=kappa_db))
    with pytest.raises(ConfigInvalidError):
        ExperimentConfig(rho_db=math.inf)
