"""Pilot-aided decoders: constructive recovery chain and block-coordinate descent."""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radartag import (
    BudgetExceededError,
    DimensionMismatchError,
    PilotConditionViolatedError,
    PilotLayout,
    RegularizationConfig,
    alternating_pilot,
    decode_iterative,
    decode_noniterative,
    exhaustive_search,
    gen_gold,
    iterative_channel_update,
    relaxed_data_updates,
    sample_channel,
    source_data_update_discrete,
    synthesize_frame,
    tag_data_update_discrete,
)
from radartag import pilot_aided
from radartag.channel import conv_matrix_from_code, conv_matrix_from_channel
from radartag.pilot_aided import (
    _binary_candidates,
    _objective_at,
    _pilot_pinvs,
    _pulse_shapes,
    _slice_pm1,
    _tag_filter,
    _with_pilot,
)
from radartag.solvers import fista_stacked, pinv_apply

REG0 = RegularizationConfig(kind="l2", lambda_str=0.0, lambda_sr=0.0,
                            lambda_c=0.0, lambda_x=0.0)
REG = RegularizationConfig(kind="l2", lambda_str=0.1, lambda_sr=0.1,
                           lambda_c=1.0, lambda_x=1.0)
REG_L1 = RegularizationConfig(kind="l1", lambda_str=0.4, lambda_sr=0.4,
                              lambda_c=1.0, lambda_x=1.0)


@pytest.fixture(scope="module")
def gold():
    return gen_gold(5)


def _layout(gold, rng, n_pilot=3, n_data=4, l_pilot=2, l_data=8):
    word = gold.words[int(rng.integers(len(gold)))]
    return PilotLayout(c_pilot=word[:n_pilot], x_pilot=alternating_pilot(l_pilot),
                       n_data=n_data, l_data=l_data)


def _frame(layout, rng, sigma_str2=1.0, sigma_sr2=1.0, noise=0.0, q=2, n_taps=3):
    c_data = 1 - 2 * rng.integers(0, 2, layout.n_data)
    x_data = 1 - 2 * rng.integers(0, 2, layout.l_data)
    c = np.concatenate([layout.c_pilot.astype(np.int64), c_data])
    x = np.concatenate([layout.x_pilot.astype(np.int64), x_data])
    g_str = sample_channel(q, n_taps, sigma_str2, -10.0, False, rng)
    g_sr = sample_channel(q, n_taps, sigma_sr2, -10.0, False, rng)
    y = synthesize_frame(c, x, g_str, g_sr, noise, rng)
    return y, c_data, x_data, g_str, g_sr


def _count_calls(monkeypatch, *names):
    """One list per ``pilot_aided`` kernel name, recording every call of it."""
    calls = []
    for name in names:
        kernel, made = getattr(pilot_aided, name), []

        def counted(*args, _kernel=kernel, _made=made):
            _made.append(args)
            return _kernel(*args)

        monkeypatch.setattr(pilot_aided, name, counted)
        calls.append(made)
    return calls


def _random_start(layout, rng):
    """Random +/-1 (c_data, x_data) to start decode_iterative from."""
    return (1 - 2 * rng.integers(0, 2, layout.n_data),
            1 - 2 * rng.integers(0, 2, layout.l_data))


class TestDecodeNoniterative:
    def test_noiseless_exact(self, gold):
        rng = np.random.default_rng(0)
        for _ in range(25):
            layout = _layout(gold, rng)
            y, c_data, x_data, g_str, g_sr = _frame(layout, rng)
            res = decode_noniterative(y, layout)
            assert np.array_equal(res.c_data_hat, c_data)
            assert np.array_equal(res.x_data_hat, x_data)
            assert np.linalg.norm(res.g_str_hat - g_str) < 1e-9
            assert np.linalg.norm(res.g_sr_hat - g_sr) < 1e-9
            assert not res.degenerate

    def test_recovery_chain_stepwise(self, gold):
        # each constructive step reproduces its target from exact inputs
        rng = np.random.default_rng(1)
        layout = _layout(gold, rng)
        y, c_data, x_data, g_str, g_sr = _frame(layout, rng)
        c = np.concatenate([layout.c_pilot, c_data])
        xi = conv_matrix_from_code(c, 2)
        a_str, a_sr = xi @ g_str, xi @ g_sr
        # step 1: slow-time inversion of the pilot rows
        basis = np.stack([layout.x_pilot.astype(complex), np.ones(2)], axis=1)
        shapes = pinv_apply(basis, y[:2])
        assert np.linalg.norm(shapes[0] - a_str) < 1e-8 * np.linalg.norm(a_str)
        assert np.linalg.norm(shapes[1] - a_sr) < 1e-8 * np.linalg.norm(a_sr)
        # step 2: channel deconvolution on the pilot-only rows
        xi_p = conv_matrix_from_code(layout.c_pilot, 2)[:3]
        g_hat = pinv_apply(xi_p, np.stack([a_str[:3], a_sr[:3]], axis=1))
        assert np.linalg.norm(g_hat[:, 0] - g_str) < 1e-8
        assert np.linalg.norm(g_hat[:, 1] - g_sr) < 1e-8
        # step 3: source data by averaging the two deconvolved tails
        g1p, g1d = conv_matrix_from_channel(g_str, 3, 4)
        g2p, g2d = conv_matrix_from_channel(g_sr, 3, 4)
        cp = layout.c_pilot.astype(complex)
        c_cont = 0.5 * (pinv_apply(g1d, a_str - g1p @ cp)
                        + pinv_apply(g2d, a_sr - g2p @ cp))
        assert np.linalg.norm(c_cont - c_data) < 1e-8
        # step 4: tag data by matched filtering
        x_cont = (y[2:] - np.outer(np.ones(8), a_sr)) @ a_str.conj() / np.sum(np.abs(a_str) ** 2)
        assert np.linalg.norm(x_cont - x_data) < 1e-8

    def test_no_source_data_split(self, gold):
        rng = np.random.default_rng(2)
        layout = PilotLayout(c_pilot=gold.words[0], x_pilot=alternating_pilot(9),
                             n_data=0, l_data=1)
        y, c_data, x_data, *_ = _frame(layout, rng)
        res = decode_noniterative(y, layout)
        assert res.c_data_hat.size == 0
        assert np.array_equal(res.x_data_hat, x_data)

    def test_vanished_direct_link(self, gold):
        rng = np.random.default_rng(3)
        layout = _layout(gold, rng)
        c_data = 1 - 2 * rng.integers(0, 2, 4)
        x_data = 1 - 2 * rng.integers(0, 2, 8)
        c = np.concatenate([layout.c_pilot.astype(np.int64), c_data])
        x = np.concatenate([layout.x_pilot.astype(np.int64), x_data])
        g_str = sample_channel(2, 3, 1.0, -10.0, False, rng)
        zero = np.zeros(3)
        y = synthesize_frame(c, x, g_str, zero, 0.0, rng)
        res = decode_noniterative(y, layout)
        assert np.array_equal(res.x_data_hat, x_data)
        assert np.linalg.norm(res.g_sr_hat) < 1e-10

    def test_zero_frame_is_degenerate(self, gold):
        # an exactly-zero observation leaves the tag data undefined
        rng = np.random.default_rng(4)
        layout = _layout(gold, rng)
        res = decode_noniterative(np.zeros((10, 9), dtype=complex), layout)
        assert res.degenerate
        assert np.all(res.x_data_hat == 1)

    def test_vanished_backscatter_keeps_alphabet(self, gold):
        # zero backscatter channel: tag symbols undefined up to float crumbs,
        # but outputs stay in the alphabet and the estimate is near zero
        rng = np.random.default_rng(4)
        layout = _layout(gold, rng)
        c = np.concatenate([layout.c_pilot.astype(np.int64),
                            1 - 2 * rng.integers(0, 2, 4)])
        x = np.concatenate([layout.x_pilot.astype(np.int64),
                            1 - 2 * rng.integers(0, 2, 8)])
        zero = np.zeros(3)
        g_sr = sample_channel(2, 3, 1.0, -10.0, False, rng)
        y = synthesize_frame(c, x, zero, g_sr, 0.0, rng)
        res = decode_noniterative(y, layout)
        assert set(np.unique(res.x_data_hat)) <= {-1, 1}
        assert np.linalg.norm(res.g_str_hat) < 1e-10

    def test_pilot_condition_violated(self, gold):
        layout = PilotLayout(c_pilot=gold.words[0][:3], x_pilot=np.array([1, 1]),
                             n_data=4, l_data=8)
        with pytest.raises(PilotConditionViolatedError):
            decode_noniterative(np.zeros((10, 9), dtype=complex), layout)


def test_pilot_layout_is_frozen_with_read_only_copied_pilots(gold):
    c_pilot, x_pilot = gold.words[0][:27].copy(), alternating_pilot(6)
    layout = PilotLayout(c_pilot=c_pilot, x_pilot=x_pilot, n_data=4, l_data=4)
    for name, value in (("c_pilot", c_pilot), ("x_pilot", x_pilot), ("n_data", 3)):
        with pytest.raises(FrozenInstanceError):
            setattr(layout, name, value)
    for pilot in (layout.c_pilot, layout.x_pilot):
        assert pilot.dtype == np.float64
        with pytest.raises(ValueError):
            pilot[0] = 0.0
    # the caller's arrays stay writable and separate from the layout's
    c_pilot[0], x_pilot[0] = 0, 0
    assert layout.c_pilot[0] == gold.words[0][0] and layout.x_pilot[0] == 1.0


class TestIterativeChannelUpdate:
    def test_noiseless_exact(self, gold):
        rng = np.random.default_rng(5)
        layout = _layout(gold, rng)
        y, c_data, x_data, g_str, g_sr = _frame(layout, rng)
        c = np.concatenate([layout.c_pilot, c_data])
        x = np.concatenate([layout.x_pilot, x_data])
        gs, gr = iterative_channel_update(y, c, x, REG0)
        assert np.linalg.norm(gs - g_str) < 1e-9
        assert np.linalg.norm(gr - g_sr) < 1e-9

    def test_decouples_for_zero_sum_tag_word(self, gold):
        # joint update with lambda=0 equals the two slow-time-projected fits
        # that decode_joint makes, at the pair it decodes
        from radartag import decode_joint, gen_tag_codebook
        rng = np.random.default_rng(6)
        tag = gen_tag_codebook(10)
        c = gold.words[7]
        x = tag.words[31]
        g_str = sample_channel(2, 3, 1.0, -10.0, False, rng)
        g_sr = sample_channel(2, 3, 1.0, -10.0, False, rng)
        y = synthesize_frame(c, x, g_str, g_sr, 1.0, rng)
        reg = RegularizationConfig(kind="l2", lambda_str=0.0, lambda_sr=0.0)
        res = decode_joint(y, gold, tag, reg)
        gs_joint, gr_joint = iterative_channel_update(
            y, gold.words[res.c_index], tag.words[res.x_index], reg)
        assert np.linalg.norm(gs_joint - res.g_str_hat) < 1e-9
        assert np.linalg.norm(gr_joint - res.g_sr_hat) < 1e-9

    def test_all_ones_tag_word_needs_regularization(self, gold):
        # coincident sensing blocks: lambda > 0 restores uniqueness
        rng = np.random.default_rng(7)
        c = gold.words[0]
        x = np.ones(10)
        g = sample_channel(2, 3, 1.0, -10.0, False, rng)
        y = synthesize_frame(c, x, g, g, 1.0, rng)
        reg = RegularizationConfig(kind="l2", lambda_str=0.5, lambda_sr=0.5)
        gs, gr = iterative_channel_update(y, c, x, reg)
        # symmetric problem: both halves must agree
        assert np.linalg.norm(gs - gr) < 1e-9

    def test_l1_warm_start_matches_vectorized_lasso(self, gold):
        from radartag import lasso_solve
        rng = np.random.default_rng(8)
        layout = _layout(gold, rng)
        y, c_data, x_data, *_ = _frame(layout, rng, noise=1.0)
        c = np.concatenate([layout.c_pilot, c_data])
        x = np.concatenate([layout.x_pilot, x_data])
        reg = RegularizationConfig(kind="l1", lambda_str=0.4, lambda_sr=0.4)
        gs, gr = iterative_channel_update(y, c, x, reg)
        xi = conv_matrix_from_code(c, 2)
        sensing = np.hstack([np.kron(x.reshape(-1, 1).astype(complex), xi),
                             np.kron(np.ones((10, 1)), xi)])
        sol = lasso_solve(sensing, y.reshape(-1), 0.4, reg)
        joint = np.concatenate([gs, gr])
        obj_mine = (np.sum(np.abs(y.reshape(-1) - sensing @ joint) ** 2)
                    + 0.4 * np.sum(np.abs(joint)))
        assert obj_mine <= sol.objective * (1 + 1e-6) + 1e-9


class TestDiscreteDataUpdates:
    def test_source_update_noiseless_truth(self, gold):
        rng = np.random.default_rng(9)
        layout = _layout(gold, rng)
        y, c_data, x_data, g_str, g_sr = _frame(layout, rng)
        got = source_data_update_discrete(y, layout, x_data,
                                          g_str, g_sr)
        assert np.array_equal(got, c_data)

    @pytest.mark.parametrize("n_data", [1, 3])
    def test_source_update_single_symbol_matches_two_candidate_oracle(self, gold, n_data):
        # the quadratic-form argmin equals the residual argmin over every word
        rng = np.random.default_rng(10)
        layout = _layout(gold, rng, n_pilot=31 - n_data, n_data=n_data)
        y, c_data, x_data, g_str, g_sr = _frame(layout, rng, noise=2.0)
        x = np.concatenate([layout.x_pilot, x_data])
        got = source_data_update_discrete(y, layout, x_data,
                                          g_str, g_sr)
        cands = _binary_candidates(n_data)
        scores = []
        for cand in cands:
            c = np.concatenate([layout.c_pilot, cand]).astype(complex)
            xi = conv_matrix_from_code(c, y.shape[1] - c.size)
            scores.append(_objective_at(y, x.astype(complex), *_pulse_shapes(xi, g_str, g_sr),
                                        g_str, g_sr, REG0))
        assert np.array_equal(got, cands[int(np.argmin(scores))])

    def test_source_update_budget(self, gold):
        rng = np.random.default_rng(11)
        layout = _layout(gold, rng, n_pilot=11, n_data=20)
        y, *_ = _frame(layout, rng)
        g = sample_channel(2, 3, 1.0, -10.0, False, rng)
        x = np.concatenate([layout.x_pilot, np.ones(8)])
        with pytest.raises(BudgetExceededError):
            source_data_update_discrete(y, layout, x[2:], g, g)

    def test_tag_update_noiseless_truth(self, gold):
        rng = np.random.default_rng(12)
        layout = _layout(gold, rng)
        y, c_data, x_data, g_str, g_sr = _frame(layout, rng)
        got = tag_data_update_discrete(y, layout, c_data,
                                       g_str, g_sr)
        assert np.array_equal(got, x_data)

    def test_tag_update_matches_per_row_oracle(self, gold):
        rng = np.random.default_rng(13)
        layout = _layout(gold, rng)
        y, c_data, x_data, g_str, g_sr = _frame(layout, rng, noise=2.0)
        c = np.concatenate([layout.c_pilot, c_data])
        got = tag_data_update_discrete(y, layout, c_data,
                                       g_str, g_sr)
        xi = conv_matrix_from_code(c, 2)
        a_str, a_sr = xi @ g_str, xi @ g_sr
        for p in range(8):
            row = y[2 + p] - a_sr
            plus = np.sum(np.abs(row - a_str) ** 2)
            minus = np.sum(np.abs(row + a_str) ** 2)
            want = +1 if plus <= minus else -1
            assert got[p] == want

    def test_tag_update_zero_backscatter_ties_to_plus_one(self, gold):
        rng = np.random.default_rng(14)
        layout = _layout(gold, rng)
        y, c_data, *_ = _frame(layout, rng)
        g_sr = sample_channel(2, 3, 1.0, -10.0, False, rng)
        got = tag_data_update_discrete(y, layout, c_data,
                                       np.zeros(3), g_sr)
        assert np.all(got == 1)


@pytest.mark.parametrize("reg", [REG, REG0, REG_L1], ids=["l2", "l2_zero", "l1"])
def test_channel_fit_value_is_the_objective_at_its_estimates(gold, reg):
    # the value a fit returns scores its candidate: the l2 ridge identity
    # ||Y||^2 - Re(rhs^H g) and FISTA's objective both equal the residual
    # energy plus penalty at the returned estimates, for one pair and a stack
    rng = np.random.default_rng(33)
    c_words = _with_pilot(gold.words[3][:27], _binary_candidates(4))
    for _ in range(4):
        layout = _layout(gold, rng, n_pilot=27, n_data=4, l_pilot=6, l_data=4)
        x_words = _with_pilot(layout.x_pilot, _binary_candidates(4))
        y, *_ = _frame(layout, rng, sigma_str2=10 ** rng.uniform(-2, 0), noise=1.0)
        frame = pilot_aided._Frame(y, 2, reg)
        ci, ti = rng.integers(16, size=(2, 24))
        xi, xw = conv_matrix_from_code(c_words[ci], 2), x_words[ti]
        for pair in (xi[0], xw[0]), (xi, xw):
            g_str, g_sr, value = pilot_aided._channel_fit(frame, *pair, reg)
            want = _objective_at(y, pair[1], *_pulse_shapes(pair[0], g_str, g_sr),
                                 g_str, g_sr, reg)
            assert np.shape(value) == np.shape(want)
            np.testing.assert_allclose(value, want, rtol=1e-12, atol=0)


class TestRelaxedDataUpdates:
    def test_noiseless_exact_at_zero_penalty(self, gold):
        rng = np.random.default_rng(15)
        layout = _layout(gold, rng)
        y, c_data, x_data, g_str, g_sr = _frame(layout, rng)
        c_new, x_new = relaxed_data_updates(y, layout, x_data.astype(complex),
                                            g_str, g_sr, 0.0, 0.0)
        assert np.linalg.norm(c_new - c_data) < 1e-8
        assert np.linalg.norm(x_new - x_data) < 1e-8

    def test_huge_tag_penalty_shrinks_to_zero(self, gold):
        rng = np.random.default_rng(16)
        layout = _layout(gold, rng)
        y, c_data, x_data, g_str, g_sr = _frame(layout, rng)
        _, x_new = relaxed_data_updates(y, layout, x_data.astype(complex),
                                        g_str, g_sr, 1.0, 1e12)
        assert np.linalg.norm(x_new) < 1e-6

    def test_single_pri_scalar_ratio(self, gold):
        # closed form for one data PRI: matched filter over (lambda_x + energy)
        rng = np.random.default_rng(17)
        layout = _layout(gold, rng, n_pilot=31, n_data=0, l_pilot=9, l_data=1)
        y, c_data, x_data, g_str, g_sr = _frame(layout, rng, noise=0.5)
        lam_x = 0.7
        _, x_new = relaxed_data_updates(y, layout, x_data.astype(complex),
                                        g_str, g_sr, 0.0, lam_x)
        c = layout.c_pilot
        xi = conv_matrix_from_code(c, 2)
        a_str, a_sr = xi @ g_str, xi @ g_sr
        want = (y[9] - a_sr) @ a_str.conj() / (lam_x + np.sum(np.abs(a_str) ** 2))
        assert abs(x_new[0] - want) < 1e-10


class TestDecodeIterative:
    def test_noiseless_converges_immediately(self, gold):
        rng = np.random.default_rng(18)
        layout = _layout(gold, rng)
        y, c_data, x_data, g_str, g_sr = _frame(layout, rng)
        res = decode_iterative(y, layout, REG0, mode="discrete")
        assert res.converged
        assert res.iters == 1
        assert np.array_equal(res.c_data_hat, c_data)
        assert np.array_equal(res.x_data_hat, x_data)

    def test_truth_is_fixed_point(self, gold):
        rng = np.random.default_rng(19)
        layout = _layout(gold, rng)
        y, c_data, x_data, g_str, g_sr = _frame(layout, rng)
        res = decode_iterative(y, layout, REG0, mode="discrete",
                               init_data=(c_data, x_data))
        assert np.array_equal(res.c_data_hat, c_data)
        assert np.array_equal(res.x_data_hat, x_data)

    @pytest.mark.parametrize("mode", ["discrete", "relaxed"])
    def test_monotone_traces_under_noise(self, gold, mode):
        rng = np.random.default_rng(20)
        for _ in range(15):
            layout = _layout(gold, rng)
            y, *_ = _frame(layout, rng, sigma_str2=10 ** -0.55 / 31,
                           sigma_sr2=1 / 31, noise=1.0)
            res = decode_iterative(y, layout, REG, mode=mode)
            trace = np.asarray(res.objective_trace)
            assert np.all(np.diff(trace) <= 1e-12)
            assert res.iters <= 50

    def test_noniterative_init_starts_lower_than_random(self, gold):
        # tendency, not a per-trial guarantee: at -5 dB the pilot-based
        # estimate is itself noisy, so judge majority and mean
        rng = np.random.default_rng(21)
        wins = 0
        start_good = []
        start_rand = []
        trials = 30
        for _ in range(trials):
            layout = _layout(gold, rng)
            y, *_ = _frame(layout, rng, sigma_str2=10 ** -0.5 / 31,
                           sigma_sr2=1 / 31, noise=1.0)
            good = decode_iterative(y, layout, REG, mode="discrete")
            rand = decode_iterative(y, layout, REG, mode="discrete",
                                    init_data=_random_start(layout, rng))
            start_good.append(good.objective_trace[0])
            start_rand.append(rand.objective_trace[0])
            wins += start_good[-1] <= start_rand[-1]
        assert wins > trials // 2
        assert np.mean(start_good) < np.mean(start_rand)

    def test_relaxed_slices_to_alphabet(self, gold):
        rng = np.random.default_rng(22)
        layout = _layout(gold, rng)
        y, *_ = _frame(layout, rng, noise=1.0)
        res = decode_iterative(y, layout, REG, mode="relaxed")
        assert set(np.unique(res.c_data_hat)) <= {-1, 1}
        assert set(np.unique(res.x_data_hat)) <= {-1, 1}

    @pytest.mark.parametrize("mode", ["discrete", "relaxed"])
    @pytest.mark.parametrize("reg", [REG, REG_L1], ids=["l2", "l1"])
    def test_one_channel_update_per_sweep(self, gold, monkeypatch, reg, mode):
        # the fit at the initial data serves sweep 1; it is not repeated.  This
        # discrete decode ends on its fixed point, whose repeat sweep is
        # appended to the trace, not computed
        rng = np.random.default_rng(28)
        layout = _layout(gold, rng)
        y, *_ = _frame(layout, rng, sigma_str2=0.3, noise=1.0)
        start = np.random.default_rng(30)
        fits, sweeps = _count_calls(monkeypatch, "_channel_fit", "_source_form")
        res = decode_iterative(y, layout, reg, mode=mode,
                               init_data=_random_start(layout, start))
        assert res.iters >= 2
        assert len(fits) == len(sweeps) == res.iters - (mode == "discrete")

    @pytest.mark.parametrize("mode", ["discrete", "relaxed"])
    def test_default_start_is_the_noniterative_data(self, gold, mode):
        rng = np.random.default_rng(31)
        layout = _layout(gold, rng)
        y, *_ = _frame(layout, rng, sigma_str2=0.3, noise=1.0)
        start = decode_noniterative(y, layout)
        init_data = (start.c_data_hat.copy(), start.x_data_hat.copy())
        default = decode_iterative(y, layout, REG, mode=mode)
        given = decode_iterative(y, layout, REG, mode=mode, init_data=init_data)
        assert default.objective_trace == given.objective_trace
        assert np.array_equal(default.c_data_hat, given.c_data_hat)
        assert np.array_equal(default.x_data_hat, given.x_data_hat)
        # the updates write the decoder's own words, never the caller's start
        assert np.array_equal(init_data[0], start.c_data_hat)
        assert np.array_equal(init_data[1], start.x_data_hat)

    def test_start_must_fit_the_layout(self, gold):
        rng = np.random.default_rng(32)
        layout = _layout(gold, rng)
        y, c_data, x_data, *_ = _frame(layout, rng)
        for init_data in ((c_data[1:], x_data), (c_data, np.append(x_data, 1))):
            with pytest.raises(DimensionMismatchError):
                decode_iterative(y, layout, REG, init_data=init_data)


class TestExhaustiveSearch:
    def test_noiseless_exact(self, gold):
        rng = np.random.default_rng(23)
        layout = _layout(gold, rng, n_pilot=27, n_data=4, l_pilot=6, l_data=4)
        y, c_data, x_data, *_ = _frame(layout, rng)
        res = exhaustive_search(y, layout, REG0)
        assert np.array_equal(res.c_data_hat, c_data)
        assert np.array_equal(res.x_data_hat, x_data)
        assert res.objective_trace[0] < 1e-18

    def test_dominates_iterative(self, gold):
        rng = np.random.default_rng(24)
        for _ in range(10):
            layout = _layout(gold, rng, n_pilot=27, n_data=4, l_pilot=6, l_data=4)
            y, *_ = _frame(layout, rng, sigma_str2=10 ** 1.5 / 31,
                           sigma_sr2=10 ** 2 / 31, noise=1.0)
            ex = exhaustive_search(y, layout, REG)
            it = decode_iterative(y, layout, REG, mode="discrete")
            assert ex.objective_trace[0] <= it.objective_trace[-1] + 1e-12

    # (n_data, l_data); a zero-length block has the single empty candidate
    @pytest.mark.parametrize("n_data,l_data", [(2, 2), (4, 4), (0, 3), (3, 0)],
                             ids=["2x2", "4x4", "0x3", "3x0"])
    @pytest.mark.parametrize("reg", [REG, REG0, REG_L1], ids=["l2", "l2_zero", "l1"])
    def test_matches_double_loop_oracle(self, gold, reg, n_data, l_data):
        rng = np.random.default_rng(25)
        layout = _layout(gold, rng, n_pilot=31 - n_data, n_data=n_data,
                         l_pilot=10 - l_data, l_data=l_data)
        y, *_ = _frame(layout, rng, noise=1.0)
        res = exhaustive_search(y, layout, reg)
        best = None
        for c_cand in _binary_candidates(n_data):
            for x_cand in _binary_candidates(l_data):
                c = np.concatenate([layout.c_pilot, c_cand]).astype(complex)
                x = np.concatenate([layout.x_pilot, x_cand]).astype(complex)
                gs, gr = iterative_channel_update(y, c, x, reg)
                xi = conv_matrix_from_code(c, y.shape[1] - c.size)
                val = _objective_at(y, x, *_pulse_shapes(xi, gs, gr), gs, gr, reg)
                if best is None or val < best[0]:
                    best = (val, c_cand, x_cand, gs, gr)
        assert np.array_equal(res.c_data_hat, best[1])
        assert np.array_equal(res.x_data_hat, best[2])
        assert res.objective_trace[0] == pytest.approx(best[0], rel=1e-12)
        assert np.allclose(res.g_str_hat, best[3], rtol=1e-12, atol=0)
        assert np.allclose(res.g_sr_hat, best[4], rtol=1e-12, atol=0)

    def test_chunk_boundaries_keep_the_first_minimum(self, gold, monkeypatch):
        # 256 pairs in chunks of 7: a partial last chunk, minima compared across chunks
        rng = np.random.default_rng(27)
        layout = _layout(gold, rng, n_pilot=27, n_data=4, l_pilot=6, l_data=4)
        y, *_ = _frame(layout, rng, noise=1.0)
        whole = exhaustive_search(y, layout, REG)
        monkeypatch.setattr(pilot_aided, "_SEARCH_CHUNK", 7)
        chunked = exhaustive_search(y, layout, REG)
        assert np.array_equal(chunked.c_data_hat, whole.c_data_hat)
        assert np.array_equal(chunked.x_data_hat, whole.x_data_hat)
        assert chunked.objective_trace == whole.objective_trace
        # a noiseless all-zero frame ties every pair at the pure penalty
        # minimum; the first pair in (source, tag) order wins
        zero = exhaustive_search(np.zeros_like(y), layout, REG)
        assert np.all(zero.c_data_hat == 1) and np.all(zero.x_data_hat == 1)

    def test_budget(self, gold):
        rng = np.random.default_rng(26)
        layout = _layout(gold, rng, n_pilot=11, n_data=20, l_pilot=2, l_data=8)
        with pytest.raises(BudgetExceededError):
            exhaustive_search(np.zeros((10, 33), dtype=complex), layout, REG)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_every_decoder_rejects_non_finite_frames(gold, bad):
    rng = np.random.default_rng(29)
    layout = _layout(gold, rng, n_pilot=27, n_data=4, l_pilot=6, l_data=4)
    y, c_data, x_data, g_str, g_sr = _frame(layout, rng, noise=1.0)
    y[4, 7] = bad
    c = np.concatenate([layout.c_pilot, c_data])
    x = np.concatenate([layout.x_pilot, x_data])
    for decode in (lambda: decode_noniterative(y, layout),
                   lambda: decode_iterative(y, layout, REG, mode="discrete"),
                   lambda: decode_iterative(y, layout, REG, mode="relaxed"),
                   lambda: exhaustive_search(y, layout, REG),
                   lambda: iterative_channel_update(y, c, x, REG),
                   lambda: source_data_update_discrete(y, layout, x_data, g_str, g_sr),
                   lambda: tag_data_update_discrete(y, layout, c_data, g_str, g_sr),
                   lambda: relaxed_data_updates(y, layout, x_data, g_str, g_sr, 1.0, 1.0)):
        with pytest.raises(ValueError, match="non-finite"):
            decode()


@settings(derandomize=True, max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), theta=st.floats(0.0, 2 * np.pi),
       n_data=st.integers(0, 3), l_data=st.integers(0, 3), l_pilot=st.integers(2, 6))
def test_global_phase_rotates_estimates_only(gold, seed, theta, n_data, l_data, l_pilot):
    # y -> e^{j theta} y leaves every data decision alone and rotates the channels
    rng = np.random.default_rng(seed)
    layout = _layout(gold, rng, n_pilot=31 - n_data, n_data=n_data,
                     l_pilot=l_pilot, l_data=l_data)
    y, *_ = _frame(layout, rng, sigma_str2=0.3, sigma_sr2=1.0, noise=1.0)
    phase = np.exp(1j * theta)
    decoders = [decode_noniterative,
                lambda y, lay: decode_iterative(y, lay, REG, mode="discrete"),
                lambda y, lay: decode_iterative(y, lay, REG, mode="relaxed"),
                lambda y, lay: exhaustive_search(y, lay, REG)]
    for decode in decoders:
        plain, turned = decode(y, layout), decode(phase * y, layout)
        assert np.array_equal(turned.c_data_hat, plain.c_data_hat)
        assert np.array_equal(turned.x_data_hat, plain.x_data_hat)
        for got, want in ((turned.g_str_hat, plain.g_str_hat),
                          (turned.g_sr_hat, plain.g_sr_hat)):
            assert np.linalg.norm(got - phase * want) <= 1e-9 * np.linalg.norm(want)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), word=st.integers(0, 32),
       n_data=st.integers(0, 4), l_data=st.integers(0, 4), l_pilot=st.integers(2, 6))
def test_noiseless_layouts_decode_exactly(gold, seed, word, n_data, l_data, l_pilot):
    # any Gold pilot word and data split decodes a noiseless frame exactly
    layout = PilotLayout(c_pilot=gold.words[word][:31 - n_data],
                         x_pilot=alternating_pilot(l_pilot), n_data=n_data, l_data=l_data)
    y, c_data, x_data, *_ = _frame(layout, np.random.default_rng(seed))
    for res in (decode_noniterative(y, layout),
                exhaustive_search(y, layout, REG0)):
        assert np.array_equal(res.c_data_hat, c_data)
        assert np.array_equal(res.x_data_hat, x_data)


# --- bit-identity oracle -------------------------------------------------------
# The pilot-aided decoders as they were before they ran on per-frame state:
# every sweep called the public, self-validating block updates, the joint
# channel Gram came from np.block, each channel's Toeplitz matrix had its own
# builder call, and the non-iterative chain took two validating
# pseudoinverses.  The decoders must reproduce these floats exactly.

def _reference_pulse_shapes(c_full, q, g_str, g_sr):
    xi = conv_matrix_from_code(c_full, q)
    return tuple((xi @ np.asarray(g, dtype=np.complex128)[..., None])[..., 0]
                 for g in (g_str, g_sr))


def _reference_channel_fit(y, xi, x, reg):
    m = xi.shape[-1]
    xi_h = np.conj(xi).swapaxes(-1, -2)
    gram0 = xi_h @ xi
    sxx = np.sum(np.abs(x) ** 2, axis=-1)[..., None, None]
    sx1 = np.sum(np.conj(x), axis=-1)[..., None, None]
    sensing = np.block([[sxx * gram0, sx1 * gram0],
                        [np.conj(sx1) * gram0, y.shape[0] * gram0]])
    weights = np.repeat([reg.lambda_str, reg.lambda_sr], m)
    rhs = np.concatenate([xi_h @ (y.T @ np.conj(x)[..., None]),
                          xi_h @ y.sum(axis=0)[:, None]], axis=-2)
    solution = np.linalg.solve(sensing + np.diag(weights), rhs)
    if reg.kind == "l1":
        lips = np.linalg.eigvalsh(sensing)[..., -1]
        bnorm2 = [[float(np.sum(np.abs(y) ** 2))]]
        for idx in np.ndindex(lips.shape):
            solution[idx] = fista_stacked(sensing[idx][None], rhs[idx][None], bnorm2,
                                          lips[idx][None], weights[:, None], reg,
                                          solution[idx][None]).gamma[0]
    solution = solution[..., 0]
    return solution[..., :m], solution[..., m:]


def _reference_channel_update(y, c, x, reg):
    assert np.all(np.isfinite(y))
    return _reference_channel_fit(y, conv_matrix_from_code(c, y.shape[1] - c.size), x, reg)


def _reference_source_form(y, x, c_pilot, g_str, g_sr, n_d):
    c_pilot = np.asarray(c_pilot, dtype=np.complex128)
    g1_p, g1_d = conv_matrix_from_channel(g_str, c_pilot.size, n_d)
    g2_p, g2_d = conv_matrix_from_channel(g_sr, c_pilot.size, n_d)
    big_l = y.shape[0]
    resid = (y - np.outer(x, g1_p @ c_pilot)
             - np.outer(np.ones(big_l), g2_p @ c_pilot))
    sxx = float(np.sum(np.abs(x) ** 2))
    sx1 = np.sum(np.conj(x))
    g1_h, g2_h = g1_d.conj().T, g2_d.conj().T
    gram = (sxx * (g1_h @ g1_d) + sx1 * (g1_h @ g2_d)
            + np.conj(sx1) * (g2_h @ g1_d) + big_l * (g2_h @ g2_d))
    rhs = g1_h @ (resid.T @ np.conj(x)) + g2_h @ resid.sum(axis=0)
    return gram, rhs


def _reference_source_discrete(y, x, c_pilot, g_str, g_sr):
    n_d = (y.shape[1] - np.size(g_str) + 1) - np.size(c_pilot)
    if n_d == 0:
        return np.zeros(0, dtype=np.int64)
    gram, rhs = _reference_source_form(y, x, c_pilot, g_str, g_sr, n_d)
    cands = _binary_candidates(n_d)
    metric = (np.einsum("bi,ij,bj->b", cands, gram.real, cands)
              - 2.0 * (cands @ rhs.real))
    return cands[int(np.argmin(metric))].copy()


def _reference_tag_discrete(y, c, x_pilot, g_str, g_sr):
    a_str, a_sr = _reference_pulse_shapes(c, np.size(g_str) - 1, g_str, g_sr)
    return _slice_pm1(np.real(_tag_filter(y[np.size(x_pilot):], a_str, a_sr)))


def _reference_relaxed(y, layout, x_data, g_str, g_sr, lambda_c, lambda_x):
    q = y.shape[1] - layout.n
    n_d, l_p, l_d = layout.n_data, layout.x_pilot.size, layout.l_data
    if n_d > 0:
        gram, rhs = _reference_source_form(y, _with_pilot(layout.x_pilot, x_data),
                                           layout.c_pilot, g_str, g_sr, n_d)
        gram = gram + lambda_c * np.eye(n_d)
        c_data_new = np.linalg.solve(gram, rhs)
    else:
        c_data_new = np.zeros(0, dtype=np.complex128)
    a_str, a_sr = _reference_pulse_shapes(_with_pilot(layout.c_pilot, c_data_new), q,
                                          g_str, g_sr)
    denom = lambda_x + float(np.sum(np.abs(a_str) ** 2))
    if denom == 0.0:
        x_data_new = np.zeros(l_d, dtype=np.complex128)
    else:
        x_data_new = _tag_filter(y[l_p:], a_str, a_sr) / denom
    return c_data_new, x_data_new


def _reference_objective(y, c_full, x_full, g_str, g_sr, reg, lambda_c=0.0, lambda_x=0.0,
                         c_data=None, x_data=None):
    a_str, a_sr = _reference_pulse_shapes(c_full, y.shape[1] - c_full.shape[-1],
                                          g_str, g_sr)
    model = x_full[..., :, None] * a_str[..., None, :] + a_sr[..., None, :]
    value = np.sum(np.abs(y - model) ** 2, axis=(-2, -1))
    power = 2 if reg.kind == "l2" else 1
    value = value + reg.lambda_str * np.sum(np.abs(g_str) ** power, axis=-1)
    value = value + reg.lambda_sr * np.sum(np.abs(g_sr) ** power, axis=-1)
    for lam, data in ((lambda_c, c_data), (lambda_x, x_data)):
        if data is not None:
            value = value + lam * np.sum(np.abs(data) ** 2, axis=-1)
    return value


def _reference_decode_noniterative(y, layout):
    q = y.shape[1] - layout.n
    n_p, n_d = layout.c_pilot.size, layout.n_data
    l_p, l_d = layout.x_pilot.size, layout.l_data
    basis_pinv, xi_pilot_pinv = _pilot_pinvs(layout, q)
    shapes = basis_pinv @ y[:l_p]
    alpha_str, alpha_sr = shapes[0], shapes[1]
    gammas = xi_pilot_pinv @ np.stack([alpha_str[:n_p], alpha_sr[:n_p]], axis=1)
    g_str, g_sr = gammas[:, 0], gammas[:, 1]
    if n_d > 0:
        g1_p, g1_d = conv_matrix_from_channel(g_str, n_p, n_d)
        g2_p, g2_d = conv_matrix_from_channel(g_sr, n_p, n_d)
        c_pilot = layout.c_pilot.astype(np.complex128)
        c_cont = 0.5 * (pinv_apply(g1_d, alpha_str - g1_p @ c_pilot)
                        + pinv_apply(g2_d, alpha_sr - g2_p @ c_pilot))
        c_data = _slice_pm1(c_cont)
    else:
        c_data = np.zeros(0, dtype=np.int64)
    degenerate = False
    denom = float(np.sum(np.abs(alpha_str) ** 2))
    if denom == 0.0:
        degenerate = True
        x_data = np.ones(l_d, dtype=np.int64)
    else:
        x_data = _slice_pm1(_tag_filter(y[l_p:], alpha_str, alpha_sr) / denom)
    return pilot_aided.PilotAidedResult(c_data_hat=c_data, x_data_hat=x_data,
                                        g_str_hat=g_str, g_sr_hat=g_sr,
                                        objective_trace=[], iters=0, converged=True,
                                        degenerate=degenerate)


def _reference_decode_iterative(y, layout, reg, mode, init_data=None):
    q = y.shape[1] - layout.n
    relaxed = mode == "relaxed"
    lambda_c = float(reg.lambda_c) if relaxed else 0.0
    lambda_x = float(reg.lambda_x) if relaxed else 0.0
    if init_data is None:
        start = _reference_decode_noniterative(y, layout)
        init_data = (start.c_data_hat, start.x_data_hat)
    c = _with_pilot(layout.c_pilot, init_data[0])
    x = _with_pilot(layout.x_pilot, init_data[1])
    n_p, l_p = layout.c_pilot.size, layout.x_pilot.size
    c_data, x_data = c[n_p:], x[l_p:]
    penalized = {"c_data": c_data, "x_data": x_data} if relaxed else {}

    def score(gs, gr):
        return _reference_objective(y, c, x, gs, gr, reg, lambda_c, lambda_x, **penalized)

    g_str, g_sr = _reference_channel_update(y, c, x, reg)
    trace = [score(g_str, g_sr)]
    zero_floor = (np.finfo(float).eps * float(np.sum(np.abs(y) ** 2))) ** 2
    converged = False
    iters = 0
    for iters in range(1, pilot_aided.MAX_SWEEPS + 1):
        if iters > 1:
            g_new = _reference_channel_update(y, c, x, reg)
            if reg.kind == "l1" and score(*g_new) > trace[-1]:
                g_new = g_str, g_sr
            g_str, g_sr = g_new
        if relaxed:
            c[n_p:], x[l_p:] = _reference_relaxed(y, layout, x_data, g_str, g_sr,
                                                  lambda_c, lambda_x)
        else:
            c[n_p:] = _reference_source_discrete(y, x, layout.c_pilot, g_str, g_sr)
            x[l_p:] = _reference_tag_discrete(y, c, layout.x_pilot, g_str, g_sr)
        trace.append(score(g_str, g_sr))
        delta = abs(trace[-1] - trace[-2])
        if delta < pilot_aided.REL_TOL * abs(trace[-2]) or delta <= zero_floor:
            converged = True
            break
    a_str = _reference_pulse_shapes(c, q, g_str, g_sr)[0]
    return pilot_aided.PilotAidedResult(
        c_data_hat=_slice_pm1(c_data), x_data_hat=_slice_pm1(x_data),
        g_str_hat=g_str, g_sr_hat=g_sr,
        objective_trace=trace, iters=iters, converged=converged,
        degenerate=float(np.linalg.norm(a_str)) == 0.0,
    )


def _bits(a):
    return np.ascontiguousarray(a).view(np.float64)


def _assert_same_bits(got, want):
    assert got.objective_trace == want.objective_trace
    assert (got.iters, got.converged, got.degenerate) == (
        want.iters, want.converged, want.degenerate)
    for a, b in ((got.g_str_hat, want.g_str_hat), (got.g_sr_hat, want.g_sr_hat)):
        assert np.array_equal(_bits(a), _bits(b))
    assert np.array_equal(got.c_data_hat, want.c_data_hat)
    assert np.array_equal(got.x_data_hat, want.x_data_hat)
    assert got.c_data_hat.dtype == want.c_data_hat.dtype
    assert got.x_data_hat.dtype == want.x_data_hat.dtype


# (regularization, frames, layout (n_pilot, n_data, l_pilot, l_data), zero
# backscatter channel); every case runs both modes from the default start and
# from a random one, 330 frames in all
_ORACLE_CASES = {
    "l2": (REG, 60, (3, 4, 2, 8), False),
    "l2_zero_penalty": (REG0, 15, (3, 4, 2, 8), False),
    "l1": (REG_L1, 10, (3, 4, 2, 8), False),
    "no_source_data": (REG, 15, (31, 0, 2, 8), False),
    "no_tag_data": (REG, 15, (27, 4, 10, 0), False),
    "long_pilots": (REG, 10, (27, 4, 6, 4), False),
    "zero_backscatter": (REG, 15, (3, 4, 2, 8), True),
}


@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_decoders_match_the_per_call_reference_bit_for_bit(gold, case):
    reg, frames, (n_pilot, n_data, l_pilot, l_data), zero_str = _ORACLE_CASES[case]
    rng = np.random.default_rng(list(_ORACLE_CASES).index(case) + 500)
    for _ in range(frames):
        layout = _layout(gold, rng, n_pilot=n_pilot, n_data=n_data,
                         l_pilot=l_pilot, l_data=l_data)
        y, *_ = _frame(layout, rng, sigma_str2=0.0 if zero_str else 10 ** rng.uniform(-2, 0),
                       sigma_sr2=10 ** rng.uniform(-1, 0.5), noise=0.0 if zero_str else 1.0)
        start = _random_start(layout, rng)
        # a noiseless frame without backscatter, then the all-zero frame, whose
        # fitted backscatter channel is exactly zero: the degenerate exits
        for frame in ([y, np.zeros_like(y)] if zero_str else [y]):
            noniter = decode_noniterative(frame, layout)
            _assert_same_bits(noniter, _reference_decode_noniterative(frame, layout))
            for mode in ("discrete", "relaxed"):
                for init_data in (None, start):
                    res = decode_iterative(frame, layout, reg, mode=mode, init_data=init_data)
                    _assert_same_bits(res, _reference_decode_iterative(frame, layout, reg,
                                                                       mode, init_data))
            if zero_str and not frame.any():
                assert noniter.degenerate and res.degenerate


def _assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(_bits(got) if np.iscomplexobj(got) else got,
                          _bits(want) if np.iscomplexobj(want) else want)


@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_block_updates_match_the_per_call_reference_bit_for_bit(gold, case):
    # the public block updates, which take the layout, against the versions
    # that took full words and read the data lengths off the taps
    reg, frames, (n_pilot, n_data, l_pilot, l_data), zero_str = _ORACLE_CASES[case]
    rng = np.random.default_rng(list(_ORACLE_CASES).index(case) + 600)
    for _ in range(min(frames, 10)):
        layout = _layout(gold, rng, n_pilot=n_pilot, n_data=n_data,
                         l_pilot=l_pilot, l_data=l_data)
        y, _, _, g_str, g_sr = _frame(layout, rng, sigma_str2=0.0 if zero_str else 0.3,
                                      noise=1.0)
        c_data, x_data = _random_start(layout, rng)
        _assert_same_array(
            source_data_update_discrete(y, layout, x_data, g_str, g_sr),
            _reference_source_discrete(y, _with_pilot(layout.x_pilot, x_data),
                                       layout.c_pilot, g_str, g_sr))
        _assert_same_array(
            tag_data_update_discrete(y, layout, c_data, g_str, g_sr),
            _reference_tag_discrete(y, _with_pilot(layout.c_pilot, c_data),
                                    layout.x_pilot, g_str, g_sr))
        lambdas = (float(reg.lambda_c), float(reg.lambda_x))
        for got, want in zip(
                relaxed_data_updates(y, layout, x_data, g_str, g_sr, *lambdas),
                _reference_relaxed(y, layout, x_data, g_str, g_sr, *lambdas)):
            _assert_same_array(got, want)


def test_data_blocks_must_fill_the_layout(gold):
    # a data block that does not fill its word after the pilot is a dimension
    # mismatch, never a shorter word or a block the update ignores
    rng = np.random.default_rng(610)
    g = sample_channel(2, 3, 1.0, -10.0, False, rng)
    layout = _layout(gold, rng, n_pilot=27, n_data=4, l_pilot=6, l_data=4)
    no_source = _layout(gold, rng, n_pilot=31, n_data=0, l_pilot=6, l_data=4)
    for lay, c_data, x_data in ((layout, np.ones(4), np.ones(3)),
                                (no_source, np.ones(0), np.ones(7)),
                                (layout, np.ones(3), np.ones(4))):
        y = _frame(lay, rng, noise=1.0)[0]
        calls = [lambda: decode_iterative(y, lay, REG, init_data=(c_data, x_data))]
        if x_data.size != lay.l_data:
            calls += [lambda: source_data_update_discrete(y, lay, x_data, g, g),
                      lambda: relaxed_data_updates(y, lay, x_data, g, g, 1.0, 1.0)]
        else:
            calls += [lambda: tag_data_update_discrete(y, lay, c_data, g, g)]
        for call in calls:
            with pytest.raises(DimensionMismatchError):
                call()


@pytest.mark.parametrize("reg", [REG, REG_L1], ids=["l2", "l1"])
def test_exhaustive_search_matches_the_reference_channel_fit(gold, reg):
    rng = np.random.default_rng(540)
    for _ in range(3):
        layout = _layout(gold, rng, n_pilot=27, n_data=4, l_pilot=6, l_data=4)
        y, *_ = _frame(layout, rng, sigma_str2=0.3, noise=1.0)
        res = exhaustive_search(y, layout, reg)
        c_words = _with_pilot(layout.c_pilot, _binary_candidates(4))
        x_words = _with_pilot(layout.x_pilot, _binary_candidates(4))
        best = None
        for start in range(0, 256, pilot_aided._SEARCH_CHUNK):
            ci, ti = np.divmod(np.arange(start, min(start + pilot_aided._SEARCH_CHUNK, 256)), 16)
            gs, gr = _reference_channel_fit(y, conv_matrix_from_code(c_words[ci], 2),
                                            x_words[ti], reg)
            values = _reference_objective(y, c_words[ci], x_words[ti], gs, gr, reg)
            i = int(np.argmin(values))
            if best is None or values[i] < best[0]:
                best = (values[i], ci[i], ti[i], gs[i], gr[i])
        assert res.objective_trace == [best[0]]
        assert np.array_equal(res.c_data_hat, _binary_candidates(4)[best[1]])
        assert np.array_equal(res.x_data_hat, _binary_candidates(4)[best[2]])
        assert np.array_equal(_bits(res.g_str_hat), _bits(best[3]))
        assert np.array_equal(_bits(res.g_sr_hat), _bits(best[4]))


@pytest.mark.parametrize("reg", [REG, REG_L1], ids=["l2", "l1"])
def test_discrete_fixed_point_exits_match_the_reference(gold, monkeypatch, reg):
    # A discrete sweep that returns the words it was given ends the decode:
    # at sweep 1 by appending trace[0] unscored, later by appending the
    # objective the next sweep would repeat, without computing that sweep.
    # Both exits must equal the reference, which computes every sweep.
    rng = np.random.default_rng(620)
    (sweeps,) = _count_calls(monkeypatch, "_source_form")
    ends = set()
    for _ in range(20):
        layout = _layout(gold, rng, n_pilot=27, n_data=4, l_pilot=2, l_data=8)
        y, *_ = _frame(layout, rng, sigma_str2=10 ** rng.uniform(-2, 0),
                       sigma_sr2=10 ** rng.uniform(-1, 0.5), noise=1.0)
        for init_data in (None, _random_start(layout, rng)):
            sweeps.clear()
            res = decode_iterative(y, layout, reg, mode="discrete", init_data=init_data)
            _assert_same_bits(res, _reference_decode_iterative(y, layout, reg, "discrete",
                                                               init_data))
            assert res.converged and res.objective_trace[-1] == res.objective_trace[-2]
            assert len(sweeps) == max(res.iters - 1, 1)
            ends.add(min(res.iters, 3))
    assert ends == {1, 3}


def test_noniterative_solve_matches_the_pinv_reference(gold):
    # The source data come from one stacked normal-equation solve, not a
    # pseudoinverse, so only the continuous estimates may move, by rounding.
    # Decisions, degenerate and channel bits must equal the pinv reference:
    # on the zero frame, beside an exactly zero channel estimate, without
    # source data, and at -5 dB, where the continuous estimates sit near zero.
    rng = np.random.default_rng(630)
    zero_frame = _layout(gold, rng, n_pilot=27, n_data=4, l_pilot=2, l_data=8)
    res = decode_noniterative(np.zeros((10, 33), dtype=complex), zero_frame)
    _assert_same_bits(res, _reference_decode_noniterative(np.zeros((10, 33)), zero_frame))
    assert res.degenerate and np.all(res.c_data_hat == 1)
    # noiseless frames whose pilot rows cancel one link exactly: the tag
    # pilot (+1, -1, +1, -1) nulls a missing backscatter link, (+1, -1) a
    # missing direct one
    for l_pilot, sigmas, zero_link in ((4, (0.0, 1.0), "g_str_hat"),
                                       (2, (1.0, 0.0), "g_sr_hat")):
        layout = _layout(gold, rng, n_pilot=27, n_data=4, l_pilot=l_pilot,
                         l_data=10 - l_pilot)
        y = _frame(layout, rng, sigma_str2=sigmas[0], sigma_sr2=sigmas[1])[0]
        res = decode_noniterative(y, layout)
        assert not getattr(res, zero_link).any()
        _assert_same_bits(res, _reference_decode_noniterative(y, layout))
    for n_pilot, n_data, l_pilot, frames in ((31, 0, 2, 20), (27, 4, 2, 300),
                                             (29, 2, 4, 150), (3, 4, 2, 150)):
        for _ in range(frames):
            layout = _layout(gold, rng, n_pilot=n_pilot, n_data=n_data, l_pilot=l_pilot,
                             l_data=10 - l_pilot)
            y = _frame(layout, rng, sigma_str2=10 ** -0.5 / 31, sigma_sr2=10 ** -0.5 / 31,
                       noise=1.0)[0]
            _assert_same_bits(decode_noniterative(y, layout),
                              _reference_decode_noniterative(y, layout))
