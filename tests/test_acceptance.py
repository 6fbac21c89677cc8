"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  Criterion 4 and the relaxed half of criterion 5 are known to
fail; the printed details state exactly which comparison is out of
tolerance (see README, "Known failing acceptance checks").
"""

import time

import numpy as np
import pytest

from radartag import (
    ChannelConfig,
    ExperimentConfig,
    PilotLayout,
    RegularizationConfig,
    SnrConfig,
    SourceCodebook,
    SystemParams,
    TagCodebook,
    alternating_pilot,
    check_source_separability,
    check_tag_separability,
    decode_disjoint,
    decode_iterative,
    decode_joint,
    decode_noniterative,
    exhaustive_search,
    gen_gold,
    gen_tag_codebook,
    lasso_solve,
    pilot_table,
    pinv_apply,
    ridge_solve,
    run_trials,
    sample_channel,
    sweep,
    synthesize_frame,
)
from radartag.harness import rows_to_csv

from test_solvers import _inv3_by_cofactors, _lasso_coordinate_descent, _randc

REG_L2 = RegularizationConfig(kind="l2", lambda_str=0.1, lambda_sr=0.1,
                              lambda_c=1.0, lambda_x=1.0)
# l1 weight resolved for the sparse-channel setup (see decisions notes)
REG_L1 = RegularizationConfig(kind="l1", lambda_str=12.0, lambda_sr=12.0)
REG_ZERO = RegularizationConfig(kind="l2", lambda_str=0.0, lambda_sr=0.0,
                                lambda_c=0.0, lambda_x=0.0)


def _report(tag: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _ber_se(p: float, bits: int) -> float:
    return float(np.sqrt(max(p * (1.0 - p), 0.0) / bits))


def _paper_books(seed=20240):
    gold = gen_gold(5)
    pool = gen_tag_codebook(10)
    rng = np.random.default_rng(seed)
    src = SourceCodebook(n=31, words=gold.words[np.sort(rng.choice(33, 16, replace=False))])
    tag = TagCodebook(l=10, words=pool.words[np.sort(rng.choice(126, 16, replace=False))])
    return src, tag


def test_criterion_1_noiseless_pilot_free_exactness():
    src, tag = _paper_books()
    rng = np.random.default_rng(1001)
    start = time.time()
    errors = 0
    err2 = np.zeros(2)
    norm2 = np.zeros(2)
    trials = 1000
    for _ in range(trials):
        ci, xi = int(rng.integers(16)), int(rng.integers(16))
        g_str = sample_channel(2, 3, 1.0, -10.0, False, rng)
        g_sr = sample_channel(2, 3, 1.0, -10.0, False, rng)
        y = synthesize_frame(src.words[ci], tag.words[xi], g_str, g_sr, 0.0, rng)
        for res in (decode_joint(y, src, tag, REG_ZERO),
                    decode_disjoint(y, src, tag, REG_ZERO)):
            errors += (res.c_index != ci) + (res.x_index != xi)
            err2 += [np.sum(np.abs(res.g_str_hat - g_str) ** 2),
                     np.sum(np.abs(res.g_sr_hat - g_sr) ** 2)]
            norm2 += [np.sum(np.abs(g_str) ** 2), np.sum(np.abs(g_sr) ** 2)]
    nrmse = np.sqrt(err2 / norm2)
    elapsed = time.time() - start
    ok = errors == 0 and np.all(nrmse < 1e-8) and elapsed < 120
    assert _report("1 (noiseless pilot-free exactness)", ok,
                   f"{errors} message errors over {trials} trials, "
                   f"NRMSE (str, sr) = ({nrmse[0]:.2e}, {nrmse[1]:.2e}), "
                   f"{elapsed:.1f}s (target < 120s)")


def test_criterion_2_noiseless_pilot_aided_exactness():
    rng = np.random.default_rng(1002)
    start = time.time()
    symbol_errors = 0
    worst_nrmse = 0.0
    trials = 1000
    for _ in range(trials):
        c_pilot = 1 - 2 * rng.integers(0, 2, 3)
        layout = PilotLayout(c_pilot=c_pilot, x_pilot=alternating_pilot(2),
                             n_data=4, l_data=8)
        c_data = 1 - 2 * rng.integers(0, 2, 4)
        x_data = 1 - 2 * rng.integers(0, 2, 8)
        c = np.concatenate([c_pilot, c_data])
        x = np.concatenate([layout.x_pilot.astype(np.int64), x_data])
        g_str = sample_channel(2, 3, 1.0, -10.0, False, rng)
        g_sr = sample_channel(2, 3, 1.0, -10.0, False, rng)
        y = synthesize_frame(c, x, g_str, g_sr, 0.0, rng)
        res = decode_noniterative(y, layout)
        symbol_errors += np.count_nonzero(res.c_data_hat != c_data)
        symbol_errors += np.count_nonzero(res.x_data_hat != x_data)
        for est, true in ((res.g_str_hat, g_str), (res.g_sr_hat, g_sr)):
            worst_nrmse = max(worst_nrmse,
                              float(np.linalg.norm(est - true) / np.linalg.norm(true)))
    elapsed = time.time() - start
    ok = symbol_errors == 0 and worst_nrmse < 1e-8 and elapsed < 60
    assert _report("2 (noiseless pilot-aided exactness)", ok,
                   f"{symbol_errors} symbol errors over {trials} trials, "
                   f"worst channel NRMSE {worst_nrmse:.2e}, "
                   f"{elapsed:.1f}s (target < 60s)")


def test_criterion_3_codebook_counts_and_conditions():
    tag = gen_tag_codebook(10)
    gold = gen_gold(5)
    ok = (len(tag) == 126 and check_tag_separability(tag)
          and len(gold) == 33 and check_source_separability(gold, 2))
    assert _report("3 (codebook counts and conditions)", ok,
                   f"tag words {len(tag)} (want 126), gold words {len(gold)} "
                   f"(want 33), rank conditions "
                   f"{'hold' if ok else 'violated'}")


def test_criterion_4_waveform_quality_table():
    targets = {0: (-9.4, 0.4), 4: (-7.6, 1.3), 9: (-5.9, 3.0)}
    start = time.time()
    rows = pilot_table(gen_gold(5), list(targets))
    elapsed = time.time() - start
    deltas = []
    ok = elapsed < 300
    for row in rows:
        want_psl, want_islr = targets[row.rate]
        d_psl = row.psl_db - want_psl
        d_islr = row.islr_db - want_islr
        deltas.append(f"rate {row.rate}: dPSL {d_psl:+.2f} dB, dISLR {d_islr:+.2f} dB")
        ok = ok and abs(d_psl) <= 0.5 and abs(d_islr) <= 0.5
    assert _report("4 (waveform quality table)", ok,
                   "; ".join(deltas) + f"; {elapsed:.1f}s (target < 300s, "
                   "tolerance +/-0.5 dB)")


@pytest.mark.slow
@pytest.mark.parametrize("mode", ["discrete", "relaxed"])
def test_criterion_5_monotone_descent_and_convergence(mode):
    rng = np.random.default_rng(1005)
    sigma_str2 = 10 ** (-5.0 / 10.0) / 7
    sigma_sr2 = 10 ** (0.0 / 10.0) / 7
    trials = 1000
    iters = []
    monotone_ok = True
    converged_all = True
    for _ in range(trials):
        c_pilot = 1 - 2 * rng.integers(0, 2, 3)
        layout = PilotLayout(c_pilot=c_pilot, x_pilot=alternating_pilot(2),
                             n_data=4, l_data=8)
        c = np.concatenate([c_pilot, 1 - 2 * rng.integers(0, 2, 4)])
        x = np.concatenate([layout.x_pilot.astype(np.int64),
                            1 - 2 * rng.integers(0, 2, 8)])
        g_str = sample_channel(2, 3, sigma_str2, -10.0, False, rng)
        g_sr = sample_channel(2, 3, sigma_sr2, -10.0, False, rng)
        y = synthesize_frame(c, x, g_str, g_sr, 1.0, rng)
        res = decode_iterative(y, layout, REG_L2, mode=mode)
        trace = np.asarray(res.objective_trace)
        monotone_ok = monotone_ok and bool(np.all(np.diff(trace) <= 1e-12))
        converged_all = converged_all and res.converged
        iters.append(res.iters)
    median_iters = float(np.median(iters))
    ok = monotone_ok and converged_all and median_iters <= 5
    assert _report(f"5 ({mode} iterative decoding)", ok,
                   f"monotone traces: {monotone_ok}, converged within 50: "
                   f"{converged_all} ({np.mean(iters):.1f} mean iters), "
                   f"median iters {median_iters:g} (want <= 5)")


def test_criterion_6_exhaustive_search_dominance():
    gold = gen_gold(5)
    rng = np.random.default_rng(1006)
    sigma_str2 = 10 ** (15.0 / 10.0) / 31
    sigma_sr2 = 10 ** (20.0 / 10.0) / 31
    frames = 200
    dominated = 0
    agreed = 0
    for _ in range(frames):
        word = gold.words[int(rng.integers(33))]
        layout = PilotLayout(c_pilot=word[:27], x_pilot=alternating_pilot(6),
                             n_data=4, l_data=4)
        c = np.concatenate([word[:27], 1 - 2 * rng.integers(0, 2, 4)])
        x = np.concatenate([layout.x_pilot.astype(np.int64),
                            1 - 2 * rng.integers(0, 2, 4)])
        g_str = sample_channel(2, 3, sigma_str2, -10.0, False, rng)
        g_sr = sample_channel(2, 3, sigma_sr2, -10.0, False, rng)
        y = synthesize_frame(c, x, g_str, g_sr, 1.0, rng)
        best = exhaustive_search(y, layout, REG_L2)
        local = decode_iterative(y, layout, REG_L2, mode="discrete")
        dominated += best.objective_trace[0] <= local.objective_trace[-1] + 1e-12
        agreed += (np.array_equal(best.c_data_hat, local.c_data_hat)
                   and np.array_equal(best.x_data_hat, local.x_data_hat))
    ok = dominated == frames and agreed >= 0.9 * frames
    assert _report("6 (exhaustive-search dominance)", ok,
                   f"dominance on {dominated}/{frames} frames, agreement "
                   f"{agreed}/{frames} (want >= {int(0.9 * frames)})")


def _ordering_holds(p_low, p_high, bits, z=1.96):
    return p_low <= p_high + z * np.sqrt(_ber_se(p_low, bits) ** 2
                                         + _ber_se(p_high, bits) ** 2)


@pytest.mark.slow
def test_criterion_7a_decoder_ordering():
    trials = 10_000
    base = dict(params=SystemParams(), snr_grid=[SnrConfig(5.0, 10.0)],
                reg=REG_L2, channel=ChannelConfig(), trials=trials, seed=71)
    rows = {}
    for scheme in ("perfect_csi", "pilot_free_joint", "pilot_free_disjoint"):
        rows[scheme] = run_trials(ExperimentConfig(scheme=scheme, **base))[0]
    bits = 4 * trials
    ok = True
    for field in ("ber_source", "ber_tag"):
        p = [getattr(rows[s], field) for s in
             ("perfect_csi", "pilot_free_joint", "pilot_free_disjoint")]
        ok = ok and _ordering_holds(p[0], p[1], bits) and _ordering_holds(p[1], p[2], bits)
    detail = ", ".join(
        f"{field}: perfect {getattr(rows['perfect_csi'], field):.4g} <= joint "
        f"{getattr(rows['pilot_free_joint'], field):.4g} <= disjoint "
        f"{getattr(rows['pilot_free_disjoint'], field):.4g}"
        for field in ("ber_source", "ber_tag"))
    assert _report("7a (perfect <= joint <= disjoint)", ok, detail)


@pytest.mark.slow
def test_criterion_7b_source_ber_decreasing_in_rho():
    trials = 10_000
    cfg = ExperimentConfig(params=SystemParams(), scheme="pilot_free_joint",
                           snr_grid=[SnrConfig(-5.0, 0.0)], reg=REG_L2,
                           channel=ChannelConfig(), trials=trials, seed=72)
    rows = sweep(cfg, "rho", values=[-10.0, 0.0, 10.0])
    bits = 4 * trials
    bers = [row.ber_source for row in rows]
    ok = all(_ordering_holds(b, a, bits, z=2.0) for a, b in zip(bers, bers[1:]))
    assert _report("7b (source BER decreasing in rho)", ok,
                   "source BER at rho -10/0/+10 dB: "
                   + ", ".join(f"{b:.4g}" for b in bers))


@pytest.mark.slow
def test_criterion_7c_sparse_l1_beats_l2():
    trials = 10_000
    base = dict(params=SystemParams(n=31, l=10, q=14),
                scheme="pilot_free_joint", snr_grid=[SnrConfig(5.0, 10.0)],
                channel=ChannelConfig(n_taps=3, kappa_db=-10.0, sparse=True),
                trials=trials, seed=73)
    row_l2 = run_trials(ExperimentConfig(reg=REG_L2, **base))[0]
    row_l1 = run_trials(ExperimentConfig(reg=REG_L1, **base))[0]
    bits = 4 * trials
    ok = (_ordering_holds(row_l1.ber_source, row_l2.ber_source, bits)
          and _ordering_holds(row_l1.ber_tag, row_l2.ber_tag, bits))
    assert _report("7c (sparse channels: l1 <= l2)", ok,
                   f"source BER l1 {row_l1.ber_source:.4g} vs l2 "
                   f"{row_l2.ber_source:.4g}; tag BER l1 {row_l1.ber_tag:.4g} "
                   f"vs l2 {row_l2.ber_tag:.4g}")


def test_criterion_8_solver_oracles():
    rng = np.random.default_rng(1008)
    ridge_ok = True
    for _ in range(100):
        a = _randc(rng, 8, 3)
        b = _randc(rng, 8)
        got = ridge_solve(a, b, 0.1)
        want = _inv3_by_cofactors(a.conj().T @ a + 0.1 * np.eye(3)) @ (a.conj().T @ b)
        ridge_ok = ridge_ok and np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)
    lasso_ok = True
    cfg = RegularizationConfig(fista_tol=1e-12, fista_max_iter=5000)
    for _ in range(50):
        a = _randc(rng, 10, 4)
        b = _randc(rng, 10)
        sol = lasso_solve(a, b, 0.5, cfg)
        _, obj_oracle = _lasso_coordinate_descent(a, b, 0.5)
        lasso_ok = lasso_ok and sol.objective <= obj_oracle * (1 + 1e-6) + 1e-12
    pinv_ok = True
    for _ in range(20):
        a = _randc(rng, int(rng.integers(2, 8)), int(rng.integers(2, 8)))
        ap = pinv_apply(a, np.eye(a.shape[0]))
        pinv_ok = pinv_ok and (np.allclose(a @ ap @ a, a, atol=1e-8)
                               and np.allclose(ap @ a @ ap, ap, atol=1e-8)
                               and np.allclose((a @ ap).conj().T, a @ ap, atol=1e-8)
                               and np.allclose((ap @ a).conj().T, ap @ a, atol=1e-8))
    ok = ridge_ok and lasso_ok and pinv_ok
    assert _report("8 (solver oracles)", ok,
                   f"ridge vs cofactor oracle: {ridge_ok}, FISTA vs coordinate "
                   f"descent: {lasso_ok}, Moore-Penrose identities: {pinv_ok}")


def test_criterion_9_sweep_determinism():
    cfg = ExperimentConfig(params=SystemParams(), scheme="pilot_free_joint",
                           snr_grid=[SnrConfig(5.0, 10.0)], reg=REG_L2,
                           channel=ChannelConfig(), trials=100, seed=91)
    values = [0.0, 10.0, 20.0]
    csv_a = rows_to_csv(sweep(cfg, "snr_sr", values=values, workers=1))
    csv_b = rows_to_csv(sweep(cfg, "snr_sr", values=values, workers=8))
    csv_c = rows_to_csv(sweep(cfg, "snr_sr", values=values, workers=1))
    ok = csv_a == csv_b == csv_c
    assert _report("9 (sweep determinism)", ok,
                   f"1-worker vs 8-worker vs rerun byte-identical: {ok}")
