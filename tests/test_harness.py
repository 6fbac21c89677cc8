"""Monte Carlo harness: bit error counts, trial loops, determinism, config handling."""

import json
import warnings
from dataclasses import FrozenInstanceError, asdict, fields, is_dataclass, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radartag import (
    ChannelConfig,
    ConfigInvalidError,
    ExperimentConfig,
    RegularizationConfig,
    SnrConfig,
    SystemParams,
    run_trials,
    sweep,
)
from radartag import harness, sample_channel, solvers, synthesize_frame
from radartag.framesim import noise_variance
from radartag.pilot_aided import PilotLayout, alternating_pilot
from radartag.pilot_free import PilotFreeResult
from radartag.harness import (
    MetricsRow,
    _reduce,
    config_from_dict,
    config_to_dict,
    rows_to_csv,
    rows_to_json,
)


def _quick_cfg(**kw):
    base = dict(
        params=SystemParams(),
        scheme="pilot_free_joint",
        snr_grid=[SnrConfig(15.0, 20.0)],
        reg=RegularizationConfig(kind="l2", lambda_str=0.1, lambda_sr=0.1),
        channel=ChannelConfig(),
        trials=40,
        seed=7,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestBitsFromIndex:
    def test_always_zero_decoder_gives_half_ber(self, monkeypatch):
        # uniform indices against a stuck-at-zero decoder: mean bit error 0.5
        width = 4
        trials = 4000
        monkeypatch.setattr(harness, "decode_joint", lambda y, *args: PilotFreeResult(
            c_index=0, x_index=0, g_str_hat=np.zeros(3), g_sr_hat=np.zeros(3), metric=0.0))
        row = run_trials(_quick_cfg(trials=trials, seed=0))[0]
        sigma = np.sqrt(0.25 / (width * trials))
        assert abs(row.ber_source - 0.5) <= 3 * sigma
        assert abs(row.ber_tag - 0.5) <= 3 * sigma


class TestMetricsReduction:
    def test_zero_estimator_nrmse_is_one(self):
        # estimate == 0 makes the error energy equal the channel energy
        rng = np.random.default_rng(1)
        trial_rows = []
        for _ in range(200):
            n2 = float(rng.uniform(0.5, 2.0))
            trial_rows.append((0, 4, 0, 4, n2, n2, 2 * n2, 2 * n2, 0))
        row = _reduce("pilot_free_joint", SnrConfig(0.0, 0.0), [trial_rows], 200, 0)
        assert row.nrmse_str == pytest.approx(1.0, abs=1e-12)
        assert row.nrmse_sr == pytest.approx(1.0, abs=1e-12)

    def test_batched_reduction_equals_one_pass(self):
        # the running sum carried from batch to batch is the one-pass sum bit
        # for bit; values of mixed magnitude make the summation order show
        rng = np.random.default_rng(5)
        records = rng.uniform(0.0, 1.0, (1000, 9)) * 10.0 ** rng.integers(-8, 8, (1000, 9))
        snr = SnrConfig(1.0, 2.0)
        want = _reduce("perfect_csi", snr, [records], 1000, 3)
        for cuts in ((1,), (999,), (10, 500, 501, 900), tuple(range(1, 1000, 7))):
            assert _reduce("perfect_csi", snr, iter(np.split(records, cuts)), 1000, 3) == want

    def test_rates_within_unit_interval(self):
        rows = run_trials(_quick_cfg(snr_grid=[SnrConfig(-20.0, -20.0)]))
        for row in rows:
            assert 0.0 <= row.ber_source <= 1.0
            assert 0.0 <= row.ber_tag <= 1.0
            assert row.nrmse_str >= 0.0
            assert row.nrmse_sr >= 0.0


class TestRunTrials:
    def test_perfect_csi_high_snr_error_free(self):
        cfg = _quick_cfg(scheme="perfect_csi",
                         snr_grid=[SnrConfig(60.0, 60.0)], trials=1000)
        row = run_trials(cfg)[0]
        assert row.ber_source == 0.0
        assert row.ber_tag == 0.0

    def test_rows_match_grid(self):
        cfg = _quick_cfg(snr_grid=[SnrConfig(0.0, 5.0), SnrConfig(5.0, 10.0),
                                   SnrConfig(10.0, 15.0)], trials=10)
        rows = run_trials(cfg)
        assert [r.snr_sr_db for r in rows] == [5.0, 10.0, 15.0]

    def test_deterministic_across_worker_counts(self):
        cfg = _quick_cfg(trials=48)
        csv_1 = rows_to_csv(run_trials(cfg, workers=1))
        csv_4 = rows_to_csv(run_trials(cfg, workers=4))
        assert csv_1 == csv_4

    def test_seed_changes_results(self):
        cfg_a = _quick_cfg(snr_grid=[SnrConfig(-5.0, 0.0)])
        cfg_b = _quick_cfg(snr_grid=[SnrConfig(-5.0, 0.0)], seed=8)
        rows_a = run_trials(cfg_a)
        rows_b = run_trials(cfg_b)
        assert (rows_a[0].nrmse_sr, rows_a[0].ber_tag) != \
               (rows_b[0].nrmse_sr, rows_b[0].ber_tag)

    def test_pilot_aided_scheme_runs(self):
        cfg = _quick_cfg(scheme="pilot_aided_noniter", n_source_words=None,
                         n_tag_words=None, n_pilot=3, l_pilot=2,
                         snr_grid=[SnrConfig(15.0, 20.0)], trials=50)
        row = run_trials(cfg)[0]
        assert row.trials == 50
        assert row.mean_iters == 0.0

    def test_iterative_scheme_reports_iters(self):
        cfg = _quick_cfg(scheme="pilot_aided_iter_discrete", n_source_words=None,
                         n_tag_words=None, n_pilot=27, l_pilot=2, trials=25)
        row = run_trials(cfg)[0]
        assert row.mean_iters >= 1.0

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigInvalidError):
            run_trials(_quick_cfg(scheme="no_such_scheme"))
        with pytest.raises(ConfigInvalidError):
            run_trials(_quick_cfg(trials=0))
        with pytest.raises(ConfigInvalidError):
            run_trials(_quick_cfg(n_source_words=12))  # not a power of two
        with pytest.raises(ConfigInvalidError):
            run_trials(_quick_cfg(scheme="pilot_aided_noniter",
                                  n_pilot=2, l_pilot=2))  # n_pilot < q+1


class TestSweep:
    def test_snr_axis_row_count_and_coupling(self):
        cfg = _quick_cfg(trials=10, rho_db=-5.0)
        rows = sweep(cfg, "snr_sr", values=[0.0, 10.0, 20.0])
        assert len(rows) == 3
        assert [r.axis_value for r in rows] == [0.0, 10.0, 20.0]
        for row in rows:
            assert row.snr_str_db == row.snr_sr_db - 5.0
            assert row.axis_name == "snr_sr"

    def test_snr_str_axis_couples_direct_link(self):
        cfg = _quick_cfg(trials=10, rho_db=-5.0)
        rows = sweep(cfg, "snr_str", values=[0.0, 10.0])
        assert [r.snr_str_db for r in rows] == [0.0, 10.0]
        assert [r.snr_sr_db for r in rows] == [5.0, 15.0]

    def test_rho_axis_holds_direct_link(self):
        cfg = _quick_cfg(trials=10, snr_grid=[SnrConfig(5.0, 10.0)])
        rows = sweep(cfg, "rho", values=[-10.0, 0.0, 10.0])
        assert all(r.snr_sr_db == 10.0 for r in rows)
        assert [r.snr_str_db for r in rows] == [0.0, 10.0, 20.0]

    def test_rate_tag_axis_resizes_codebook(self):
        cfg = _quick_cfg(trials=10)
        rows = sweep(cfg, "rate_tag", values=[1, 4, 6])
        assert len(rows) == 3

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigInvalidError):
            sweep(_quick_cfg(), "snr_sr", values=[])

    def test_array_and_generator_values_give_the_list_rows(self):
        cfg = _quick_cfg(trials=4)
        want = rows_to_csv(sweep(cfg, "rho", values=[1.0, 2.0]))
        assert rows_to_csv(sweep(cfg, "rho", values=np.array([1.0, 2.0]))) == want
        assert rows_to_csv(sweep(cfg, "rho", values=(v for v in [1.0, 2.0]))) == want

    @pytest.mark.parametrize("values", [[10 ** 5000], 5.0, None, np.array(3.0)])
    def test_unusable_values_are_config_errors(self, values):
        # an int too long to write as text, and values that are not iterable
        with pytest.raises(ConfigInvalidError):
            sweep(_quick_cfg(trials=1), "rho", values=values)
        with pytest.raises(ConfigInvalidError):
            sweep(_quick_cfg(trials=1), "rate_tag", values=values)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigInvalidError):
            sweep(_quick_cfg(), "bandwidth", values=[1.0])

    def test_deterministic_across_worker_counts(self):
        cfg = _quick_cfg(trials=32)
        csv_1 = rows_to_csv(sweep(cfg, "snr_sr", values=[5.0, 15.0], workers=1))
        csv_8 = rows_to_csv(sweep(cfg, "snr_sr", values=[5.0, 15.0], workers=8))
        assert csv_1 == csv_8



class TestWorkers:
    @pytest.mark.parametrize("workers", [0, -3, 2.0, True])
    def test_invalid_counts_rejected(self, workers):
        cfg = _quick_cfg(trials=2)
        with pytest.raises(ConfigInvalidError):
            run_trials(cfg, workers=workers)
        with pytest.raises(ConfigInvalidError):
            sweep(cfg, "snr_sr", values=[5.0], workers=workers)

    def test_counts_above_cpu_count_are_capped(self, monkeypatch):
        # an in-process stand-in for the pool records the size it was asked
        # for, so no worker process starts
        sizes = []

        class InlinePool:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return [fn(task) for task in tasks]

        monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
        cfg = _quick_cfg(trials=6)
        assert rows_to_csv(run_trials(cfg, workers=10 ** 6)) == rows_to_csv(run_trials(cfg))
        assert sizes == [3]

        # a whole sweep shares one pool, also capped
        sizes.clear()
        swept = rows_to_csv(sweep(cfg, "snr_sr", values=[5.0, 10.0], workers=64))
        assert sizes == [3]
        assert swept == rows_to_csv(sweep(cfg, "snr_sr", values=[5.0, 10.0]))


class TestBlasThreads:
    """The runner sets BLAS to one thread for a run and restores the caller's count."""

    @pytest.fixture
    def blas(self):
        # the caller runs BLAS at two threads; the original count comes back after
        get, put = harness._blas_thread_control()
        if get() is None:
            pytest.skip("numpy's OpenBLAS thread control is not found on this platform")
        before = get()
        put(2)
        yield get
        put(before)

    @staticmethod
    def _one_thread_decoder(monkeypatch, get, error=None):
        decode = harness.decode_joint

        def checked(*args, **kwargs):
            if get() != 1:
                raise AssertionError(f"decoder ran at {get()} BLAS threads")
            if error is not None:
                raise error
            return decode(*args, **kwargs)

        monkeypatch.setattr(harness, "decode_joint", checked)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_decoders_run_on_one_thread_and_the_count_is_restored(self, blas, monkeypatch,
                                                                  workers):
        # workers=2 starts a real process pool, whose workers are forked with the
        # checked decoder in place
        cfg = _quick_cfg(trials=16)
        want = rows_to_csv(run_trials(cfg))
        assert blas() == 2
        self._one_thread_decoder(monkeypatch, blas)
        assert rows_to_csv(run_trials(cfg, workers=workers)) == want
        assert rows_to_csv(sweep(cfg, "rho", (v for v in [-5.0, 0.0]), workers)) == \
            rows_to_csv(sweep(cfg, "rho", [-5.0, 0.0]))
        assert blas() == 2

    def test_count_is_restored_when_a_decode_raises(self, blas, monkeypatch):
        self._one_thread_decoder(monkeypatch, blas, error=RuntimeError("decode failed"))
        with pytest.raises(RuntimeError, match="decode failed"):
            run_trials(_quick_cfg(trials=4))
        assert blas() == 2

    def test_missing_thread_control_logs_once_and_runs_as_is(self, monkeypatch, caplog):
        def no_library(path):
            raise OSError(f"cannot load {path}")

        cfg = _quick_cfg(trials=16)
        want = rows_to_csv(run_trials(cfg))
        monkeypatch.setattr(harness, "ctypes", SimpleNamespace(CDLL=no_library))
        harness._blas_thread_control.cache_clear()
        caplog.set_level("INFO", logger="radartag.harness")
        try:
            assert [rows_to_csv(run_trials(cfg)) for _ in range(2)] == [want, want]
        finally:
            harness._blas_thread_control.cache_clear()
        assert [r.getMessage() for r in caplog.records if "OpenBLAS" in r.getMessage()] == [
            "numpy's OpenBLAS thread control not found: BLAS keeps its thread count"]


_VALID_CONFIG = {
    "scheme": "pilot_free_joint",
    "snr_grid": [{"snr_str_db": 5.0, "snr_sr_db": 10.0}],
    "codebook": {"n_source": 16, "n_tag": 16},
    "channel": {"n_taps": 3, "kappa_db": -10.0, "sparse": False},
    "trials": 1,
    "seed": 0,
}
_MALFORMED_CONFIGS = {
    "n_taps_string": {**_VALID_CONFIG, "channel": {"n_taps": "3"}},
    "n_source_string": {**_VALID_CONFIG, "codebook": {"n_source": "16", "n_tag": 16}},
    "n_source_float": {**_VALID_CONFIG, "codebook": {"n_source": 16.0, "n_tag": 16}},
    "top_level_list": [_VALID_CONFIG],
    "negative_seed": {**_VALID_CONFIG, "seed": -1},
    "snr_string": {**_VALID_CONFIG,
                   "snr_grid": [{"snr_str_db": "a", "snr_sr_db": 10.0}]},
    "kappa_string": {**_VALID_CONFIG,
                     "channel": {"n_taps": 3, "kappa_db": "x", "sparse": False}},
    "trials_fraction": {**_VALID_CONFIG, "trials": 2.7},
    "seed_fraction": {**_VALID_CONFIG, "seed": 3.9},
    "trials_string": {**_VALID_CONFIG, "trials": "5"},
    "rel_tol_string": {**_VALID_CONFIG, "rel_tol": "1e-3"},
    "snr_sr_string_list": {**_VALID_CONFIG, "snr_grid": None, "snr_sr_db": ["10"]},
    "snr_sr_bool_list": {**_VALID_CONFIG, "snr_grid": None, "snr_sr_db": [True]},
    "snr_sr_string": {**_VALID_CONFIG, "snr_grid": None, "snr_sr_db": "7"},
    # a trial index must fit one 32-bit word of the substream hash
    "trials_above_hash_word": {**_VALID_CONFIG, "trials": 2 ** 32 + 1},
}


@pytest.mark.parametrize("name", sorted(_MALFORMED_CONFIGS))
def test_malformed_config_is_a_config_error(name, tmp_path):
    from radartag.cli import main

    data = _MALFORMED_CONFIGS[name]
    with pytest.raises(ConfigInvalidError):
        config_from_dict(data)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert main(["simulate", "--config", str(path)]) == 2


def test_valid_config_of_the_malformed_cases_runs():
    rows = run_trials(config_from_dict(_VALID_CONFIG))
    assert rows[0].trials == 1


# dB values whose linear power 10^(x/10) overflows a float, or that are not
# finite; kappa_db = +/-inf stays valid (pure specular / pure diffuse taps)
_OUT_OF_RANGE_DB = {
    "snr_overflow": dict(snr_grid=[SnrConfig(4000.0, 10.0)]),
    "snr_nan": dict(snr_grid=[SnrConfig(5.0, float("nan"))]),
    "snr_inf": dict(snr_grid=[SnrConfig(float("inf"), 10.0)]),
    "rho_overflow": dict(rho_db=5000.0),
    "kappa_overflow": dict(channel=ChannelConfig(kappa_db=5000.0)),
    "kappa_huge_int": dict(channel=ChannelConfig(kappa_db=2 ** 70)),
    "kappa_nan": dict(channel=ChannelConfig(kappa_db=float("nan"))),
}


@pytest.mark.parametrize("name", sorted(_OUT_OF_RANGE_DB))
def test_out_of_range_db_is_a_config_error(name, tmp_path):
    from radartag.cli import main

    with pytest.raises(ConfigInvalidError):
        _quick_cfg(trials=1, **_OUT_OF_RANGE_DB[name])
    # the valid config's dict with the same offending values set
    data = config_to_dict(_quick_cfg(trials=1))
    data.update({key: [asdict(p) for p in value] if key == "snr_grid" else
                 asdict(value) if is_dataclass(value) else value
                 for key, value in _OUT_OF_RANGE_DB[name].items()})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))   # NaN and inf as Python's json writes them
    assert main(["simulate", "--config", str(path)]) == 2


@pytest.mark.parametrize("axis,value", [("snr_sr", 4000.0), ("snr_str", -2 ** 1100),
                                        ("rho", float("nan")), ("rate_tag", float("inf")),
                                        ("rate_source", 10 ** 300), ("rate_tag", 2.5),
                                        ("rate_source", 3.7)])
def test_out_of_range_axis_value_is_a_config_error(axis, value):
    with pytest.raises(ConfigInvalidError):
        sweep(_quick_cfg(trials=1), axis, values=[value])


@pytest.mark.parametrize("kappa_db", [float("inf"), -float("inf"), -2 ** 70])
def test_extreme_kappa_runs(kappa_db):
    rows = run_trials(_quick_cfg(trials=2, channel=ChannelConfig(kappa_db=kappa_db)))
    assert np.isfinite(rows[0].nrmse_str)


_PILOT_AIDED_CONFIG = {**_VALID_CONFIG, "scheme": "pilot_aided_noniter", "codebook": None,
                       "layout": {"n_pilot": 27, "l_pilot": 2}}
# frame geometries that validation must turn away before any codebook or
# array is built; each used to pass validation or end in a numpy traceback
_OUT_OF_RANGE_GEOMETRY = {
    "pf_q_huge": {**_VALID_CONFIG, "params": {"q": 2 ** 70}},
    "pf_q_above_n_minus_2": {**_VALID_CONFIG, "params": {"q": 30}},
    "pf_l_huge": {**_VALID_CONFIG, "params": {"l": 2 ** 70}},
    "pf_l_above_cap": {**_VALID_CONFIG, "params": {"l": harness.MAX_FRAME_L + 2}},
    "pf_l_odd": {**_VALID_CONFIG, "params": {"l": 7}},
    "pf_l_too_short": {**_VALID_CONFIG, "params": {"l": 2},
                       "codebook": {"n_source": 16, "n_tag": 1}},
    "pf_l_too_few_tag_words": {**_VALID_CONFIG, "params": {"l": 4}},
    "pa_l_huge": {**_PILOT_AIDED_CONFIG, "params": {"l": 2 ** 70}},
    "pa_l_above_cap": {**_PILOT_AIDED_CONFIG, "params": {"l": harness.MAX_FRAME_L + 1}},
}


# keys config_from_dict does not read, including the iteration and budget
# knobs it once took; each used to be dropped (or obeyed) without a word
_UNKNOWN_KEY_CONFIGS = {
    "misspelled_trials": {**_VALID_CONFIG, "trails": 5},
    "max_iters": {**_PILOT_AIDED_CONFIG, "scheme": "pilot_aided_iter_discrete",
                  "max_iters": 10},
    "rel_tol": {**_PILOT_AIDED_CONFIG, "scheme": "pilot_aided_iter_relaxed",
                "rel_tol": 1e-3},
    "enum_budget": {**_PILOT_AIDED_CONFIG, "scheme": "pilot_aided_iter_discrete",
                    "layout": {"n_pilot": 3, "l_pilot": 2}, "enum_budget": 2 ** 40},
    "search_budget": {**_PILOT_AIDED_CONFIG, "scheme": "pilot_aided_exhaustive",
                      "search_budget": 2 ** 40},
    "snr_str_db": {**_VALID_CONFIG, "snr_grid": None, "snr_sr_db": [10.0],
                   "snr_str_db": ["1"]},
    "codebook_key": {**_VALID_CONFIG,
                     "codebook": {"n_source": 16, "n_tag": 16, "n_tags": 8}},
    "layout_key": {**_PILOT_AIDED_CONFIG,
                   "layout": {"n_pilot": 27, "l_pilot": 2, "n_data": 4}},
}


@pytest.mark.parametrize("name", sorted(_UNKNOWN_KEY_CONFIGS))
def test_unknown_config_key_is_a_config_error(name, tmp_path, capsys):
    from radartag.cli import main

    data = _UNKNOWN_KEY_CONFIGS[name]
    with pytest.raises(ConfigInvalidError, match="unknown config keys"):
        config_from_dict(data)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert main(["simulate", "--config", str(path)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


_NON_FINITE_REG = [("lambda_str", float("nan")), ("lambda_sr", float("inf")),
                   ("lambda_c", float("inf")), ("lambda_x", -float("inf")),
                   ("lambda_c", float("nan")), ("fista_tol", float("nan")),
                   ("fista_tol", float("inf"))]


@pytest.mark.parametrize("name,value", _NON_FINITE_REG)
def test_non_finite_regularization_is_rejected(name, value, tmp_path):
    from radartag.cli import main

    with pytest.raises(ValueError, match=name):
        RegularizationConfig(**{name: value})
    data = {**_PILOT_AIDED_CONFIG, "scheme": "pilot_aided_iter_relaxed",
            "reg": {"kind": "l2", name: value}}
    with pytest.raises(ConfigInvalidError):
        config_from_dict(data)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))   # NaN and Infinity as Python's json writes them
    assert main(["simulate", "--config", str(path)]) == 2


@pytest.mark.parametrize("max_iter,ok", [(10 ** 15, False), (5000, True),
                                          (solvers.MAX_FISTA_ITER, True)])
def test_fista_iteration_cap(max_iter, ok, tmp_path):
    from radartag.cli import main

    reg = {"kind": "l1", "fista_max_iter": max_iter, "fista_tol": 1e-300}
    data = {**_VALID_CONFIG, "reg": reg}
    if ok:
        assert RegularizationConfig(**reg).fista_max_iter == max_iter
        assert config_from_dict(data).reg.fista_max_iter == max_iter
        return
    with pytest.raises(ValueError, match="fista_max_iter"):
        RegularizationConfig(**reg)
    with pytest.raises(ConfigInvalidError):
        config_from_dict(data)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert main(["simulate", "--config", str(path)]) == 2


@pytest.mark.parametrize("name", sorted(_OUT_OF_RANGE_GEOMETRY))
def test_out_of_range_geometry_is_a_config_error(name, tmp_path):
    from radartag.cli import main

    data = _OUT_OF_RANGE_GEOMETRY[name]
    with pytest.raises(ConfigInvalidError):
        config_from_dict(data)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert main(["simulate", "--config", str(path)]) == 2


def test_geometry_bounds_admit_their_edges():
    # validation only: the codebook at the length cap is never built here
    for data in ({**_VALID_CONFIG, "params": {"l": harness.MAX_FRAME_L}},
                 {**_VALID_CONFIG, "params": {"q": 29}, "channel": {"n_taps": 3}},
                 {**_VALID_CONFIG, "params": {"l": 4},
                  "codebook": {"n_source": 16, "n_tag": 2}},
                 {**_PILOT_AIDED_CONFIG, "params": {"l": harness.MAX_FRAME_L}}):
        config_from_dict(data)


# CSV data rows of run_trials at seed 2026, 6 trials, grid (-5, 0) and
# (5, 10) dB, and of one sweep, recorded from an earlier implementation of
# the harness: a refactor that changes any of them changes the CSV
_RECORDED_ROWS = {
    ("perfect_csi", "l2"): [
        "perfect_csi,snr_sr,0,-5,0,0,0.2083333333,0,0,0,6,2026",
        "perfect_csi,snr_sr,10,5,10,0,0,0,0,0,6,2026"],
    ("pilot_aided_exhaustive", "l2"): [
        "pilot_aided_exhaustive,snr_sr,0,-5,0,0.1666666667,0.25,0.7654858268,0.4089576117,0,6,2026",
        "pilot_aided_exhaustive,snr_sr,10,5,10,0,0.04166666667,0.2493306834,0.08149917566,0,6,2026"],
    ("pilot_aided_iter_discrete", "l2"): [
        "pilot_aided_iter_discrete,snr_sr,0,-5,0,0.04166666667,0.2083333333,0.8820524876,0.3244653172,3.333333333,6,2026",
        "pilot_aided_iter_discrete,snr_sr,10,5,10,0,0,0.1625565074,0.08425803436,3,6,2026"],
    ("pilot_aided_iter_relaxed", "l2"): [
        "pilot_aided_iter_relaxed,snr_sr,0,-5,0,0.08333333333,0.25,1.860359524,0.3688936747,24,6,2026",
        "pilot_aided_iter_relaxed,snr_sr,10,5,10,0,0,0.4582585239,0.09082152121,25.16666667,6,2026"],
    ("pilot_aided_noniter", "l2"): [
        "pilot_aided_noniter,snr_sr,0,-5,0,0.25,0.375,1.433450948,0.6022103101,0,6,2026",
        "pilot_aided_noniter,snr_sr,10,5,10,0.125,0.1666666667,0.4550697013,0.2489750936,0,6,2026"],
    ("pilot_free_disjoint", "l2"): [
        "pilot_free_disjoint,snr_sr,0,-5,0,0,0.4583333333,0.7777439742,0.3274120417,0,6,2026",
        "pilot_free_disjoint,snr_sr,10,5,10,0,0,0.1948231603,0.1106348928,0,6,2026"],
    ("pilot_free_disjoint_sr_only", "l2"): [
        "pilot_free_disjoint_sr_only,snr_sr,0,-5,0,0,0.4583333333,0.7777439742,0.3274120417,0,6,2026",
        "pilot_free_disjoint_sr_only,snr_sr,10,5,10,0,0,0.1948231603,0.1106348928,0,6,2026"],
    ("pilot_free_joint", "l2"): [
        "pilot_free_joint,snr_sr,0,-5,0,0,0.4166666667,0.9428885189,0.3274120417,0,6,2026",
        "pilot_free_joint,snr_sr,10,5,10,0,0,0.1948231603,0.1106348928,0,6,2026"],
    ("pilot_free_joint", "l1"): [
        "pilot_free_joint,snr_sr,0,-5,0,0,0.4166666667,0.9389468451,0.3268754662,0,6,2026",
        "pilot_free_joint,snr_sr,10,5,10,0,0,0.1947169288,0.1104990958,0,6,2026"],
}


def test_rows_match_recorded_parent_output():
    regs = {"l2": RegularizationConfig(kind="l2", lambda_str=0.1, lambda_sr=0.1),
            "l1": RegularizationConfig(kind="l1", lambda_str=0.3, lambda_sr=0.3)}
    assert {scheme for scheme, _ in _RECORDED_ROWS} == harness.SCHEMES
    for (scheme, kind), recorded in _RECORDED_ROWS.items():
        layout = {}
        if scheme in harness.PILOT_AIDED_SCHEMES:
            layout = dict(n_source_words=None, n_tag_words=None, n_pilot=27,
                          l_pilot=6 if scheme == "pilot_aided_exhaustive" else 2)
        cfg = _quick_cfg(scheme=scheme, reg=regs[kind], trials=6, seed=2026,
                         snr_grid=[SnrConfig(-5.0, 0.0), SnrConfig(5.0, 10.0)],
                         **layout)
        assert rows_to_csv(run_trials(cfg)).splitlines()[1:] == recorded, (scheme, kind)
    # a sweep gives axis position g the substreams (seed, 1, g, t)
    cfg = _quick_cfg(trials=6, seed=2026, snr_grid=[SnrConfig(-5.0, 0.0)])
    assert rows_to_csv(sweep(cfg, "rho", values=[-10.0, 0.0])).splitlines()[1:] == [
        "pilot_free_joint,rho,-10,-10,0,0,0.4166666667,1.811692464,0.3274120417,0,6,2026",
        "pilot_free_joint,rho,0,0,0,0,0,0.346406444,0.349946487,0,6,2026"]


# the per-trial runner that the stacked draw replaced, kept as its oracle:
# one generator, one channel pair and one frame per trial
def _reference_trial(ctx, noise, grid_idx, trial_idx):
    cfg = ctx.cfg
    rng = np.random.default_rng(np.random.SeedSequence(
        ctx.cfg.seed, spawn_key=(1, grid_idx, trial_idx)))
    sigma_omega2, sigma_str2, sigma_sr2 = noise
    aided, decode = harness._SCHEME_TABLE[cfg.scheme]
    if aided:
        pilot_word = int(rng.integers(len(ctx.gold)))
        c_pilot = ctx.gold.words[pilot_word][:cfg.n_pilot]
        c_data = 1 - 2 * rng.integers(0, 2, ctx.n_data)
        x_data = 1 - 2 * rng.integers(0, 2, ctx.l_data)
        c = np.concatenate([c_pilot, c_data])
        x_pilot = alternating_pilot(cfg.l_pilot)
        x = np.concatenate([x_pilot, x_data])
        layout = PilotLayout(c_pilot=c_pilot, x_pilot=x_pilot,
                             n_data=ctx.n_data, l_data=ctx.l_data)
    else:
        ci = int(rng.integers(len(ctx.source)))
        xi = int(rng.integers(len(ctx.tag)))
        c = ctx.source.words[ci]
        x = ctx.tag.words[xi]
    g_str = sample_channel(cfg.params.q, cfg.channel.n_taps, sigma_str2,
                           cfg.channel.kappa_db, cfg.channel.sparse, rng)
    g_sr = sample_channel(cfg.params.q, cfg.channel.n_taps, sigma_sr2,
                          cfg.channel.kappa_db, cfg.channel.sparse, rng)
    y = synthesize_frame(c, x, g_str, g_sr, sigma_omega2, rng)
    res = decode(ctx, y, layout if aided else (g_str, g_sr))
    e2_str = float(np.sum(np.abs(res.g_str_hat - g_str) ** 2))
    n2_str = float(np.sum(np.abs(g_str) ** 2))
    e2_sr = float(np.sum(np.abs(res.g_sr_hat - g_sr) ** 2))
    n2_sr = float(np.sum(np.abs(g_sr) ** 2))
    if aided:
        return (int(np.count_nonzero(res.c_data_hat != c_data)), ctx.n_data,
                int(np.count_nonzero(res.x_data_hat != x_data)), ctx.l_data,
                e2_str, n2_str, e2_sr, n2_sr, res.iters)
    return ((ci ^ res.c_index).bit_count(), ctx.src_bits,
            (xi ^ res.x_index).bit_count(), ctx.tag_bits,
            e2_str, n2_str, e2_sr, n2_sr, 0)


_ORACLE_CASES = [(scheme, "l2") for scheme in sorted(harness.SCHEMES)] + [
    ("pilot_free_joint", "l1_sparse")]


@pytest.mark.parametrize("scheme,setting", _ORACLE_CASES)
@pytest.mark.parametrize("start,stop", ((0, 37), (5, 21)))
def test_stacked_trials_equal_per_trial_oracle(scheme, setting, start, stop):
    # trial ranges that are not multiples of the draw stack end on a short stack
    layout = {}
    if scheme in harness.PILOT_AIDED_SCHEMES:
        layout = dict(n_source_words=None, n_tag_words=None, n_pilot=27,
                      l_pilot=6 if scheme == "pilot_aided_exhaustive" else 2)
    cfg = _quick_cfg(scheme=scheme, seed=31, trials=stop, **layout)
    if setting == "l1_sparse":
        cfg = _quick_cfg(scheme=scheme, seed=31, trials=stop,
                         params=SystemParams(q=14),
                         channel=ChannelConfig(n_taps=3, sparse=True),
                         reg=RegularizationConfig(kind="l1", lambda_str=12.0,
                                                  lambda_sr=12.0))
    snr = SnrConfig(5.0, 10.0)
    got = harness._trial_batch((cfg, 1, snr, start, stop))
    ctx = harness._context_for(cfg)
    noise = noise_variance(snr, cfg.params.n)
    want = [_reference_trial(ctx, noise, 1, t) for t in range(start, stop)]
    assert got.dtype == np.float64
    assert np.array_equal(got, np.array(want, dtype=np.float64))


def _seed_sequence_state(seed, grid_idx, trial_idx):
    return np.random.PCG64(np.random.SeedSequence(
        seed, spawn_key=(1, grid_idx, trial_idx))).state


# seeds of one, two, three and five entropy words, grid indices of one and
# two words, and the largest trial index a config can reach
@pytest.mark.parametrize("seed", (0, 12345, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 7,
                                  2 ** 64 + 3, 2 ** 130 + 5))
@pytest.mark.parametrize("grid_idx", (0, 1, 70_000, 2 ** 33))
def test_batch_seeding_equals_seed_sequence(seed, grid_idx):
    ranges = ((0, 1), (5, 8), (16, 32), (3, 153), (2 ** 32 - 3, 2 ** 32))
    for start, stop in ranges:
        got = harness._trial_states(seed, grid_idx, start, stop)
        assert got == [_seed_sequence_state(seed, grid_idx, t) for t in range(start, stop)]
    # a reused generator given a batch state draws what default_rng draws,
    # also when its last trial left a buffered 32-bit half behind
    gen = harness._draw_generators()[0]
    for t in (0, 2 ** 32 - 1):
        gen.random(dtype=np.float32)
        assert gen.bit_generator.state["has_uint32"] == 1
        gen.bit_generator.state = harness._trial_states(seed, grid_idx, t, t + 1)[0]
        want = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1, grid_idx, t)))
        for draw in (lambda g: g.random(dtype=np.float32), lambda g: g.integers(16),
                     lambda g: g.integers(2 ** 40), lambda g: g.standard_normal(5),
                     lambda g: g.random(3)):
            assert np.array_equal(draw(gen), draw(want))


# configs built in Python that must fail at construction, before any trial
_INVALID_CONSTRUCTIONS = {
    "trials_fraction": lambda: ExperimentConfig(trials=10.5),
    "n_source_float": lambda: ExperimentConfig(n_source_words=16.0),
    "seed_fraction": lambda: ExperimentConfig(seed=1.5),
    "reg_none": lambda: ExperimentConfig(reg=None),
    "snr_overflow": lambda: ExperimentConfig(snr_grid=[SnrConfig(4000.0, 10.0)]),
    "axis_nan": lambda: ExperimentConfig(axis_values=[1.0, float("nan")]),
    "seed_5000_digits": lambda: ExperimentConfig(seed=10 ** 5000),
    "q_float": lambda: SystemParams(q=2.0),
    "n_string": lambda: SystemParams(n="31"),
    "pri_nan": lambda: SystemParams(pri_s=float("nan")),
    "fista_tol_bool": lambda: RegularizationConfig(fista_tol=True),
    "lambda_bool": lambda: RegularizationConfig(lambda_str=True),
    "lambda_string": lambda: RegularizationConfig(lambda_str="0.1"),
    "fista_tol_complex": lambda: RegularizationConfig(fista_tol=1j),
    "lambda_list": lambda: RegularizationConfig(lambda_c=[1.0]),
    "snr_string": lambda: SnrConfig("5", 10.0),
    "sparse_int": lambda: ChannelConfig(sparse=1),
}


@pytest.mark.parametrize("name", sorted(_INVALID_CONSTRUCTIONS))
def test_invalid_config_fails_at_construction(name):
    with pytest.raises(ConfigInvalidError):
        _INVALID_CONSTRUCTIONS[name]()


def test_configs_are_frozen_and_store_tuples():
    cfg = _quick_cfg(axis_values=[1.0, 2.0])
    assert cfg.snr_grid == (SnrConfig(15.0, 20.0),)
    assert cfg.axis_values == (1.0, 2.0)
    for obj, name in ((cfg, "seed"), (cfg.params, "q"), (cfg.reg, "lambda_str"),
                      (cfg.channel, "n_taps"), (cfg.snr_grid[0], "snr_sr_db")):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, name, 0)
    # a derived config runs the same checks
    with pytest.raises(ConfigInvalidError):
        replace(cfg, trials=0)


def test_numpy_scalars_are_stored_as_python_numbers():
    cfg = _quick_cfg(trials=np.int64(2), seed=np.uint32(3), rho_db=np.float64(-5.0),
                     axis_values=[np.float32(1.5)])
    assert [type(v) for v in (cfg.trials, cfg.seed, cfg.rho_db, cfg.axis_values[0])] == [
        int, int, float, float]
    # the config writes as JSON, so it runs
    assert rows_to_csv(run_trials(cfg)) == rows_to_csv(run_trials(_quick_cfg(trials=2, seed=3)))


# values no config field may take unchecked (None, bools, huge ints,
# non-finite floats, complex numbers, strings and lists), and values that
# some fields take, so that many examples build
_ANY_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.sampled_from([2 ** 64, -2 ** 200, 10 ** 400, -10 ** 5000]),
    st.floats(), st.complex_numbers(), st.text(max_size=3),
    st.lists(st.one_of(st.floats(), st.integers()), max_size=2),
    st.integers(0, 40), st.floats(-50.0, 50.0),
    st.sampled_from(["l1", "l2", *sorted(harness.SCHEMES)]))
_PARTS = {"params": SystemParams, "reg": RegularizationConfig, "channel": ChannelConfig,
          "snr": SnrConfig, "top": ExperimentConfig}
_FIELD_NAMES = [(part, f.name) for part, cls in _PARTS.items() for f in fields(cls)]
_BASES = [{"snr": {"snr_str_db": 15.0, "snr_sr_db": 20.0}, "top": {}},
          {"snr": {"snr_str_db": 5.0, "snr_sr_db": 10.0},
           "top": {"scheme": "pilot_aided_iter_relaxed", "n_source_words": None,
                   "n_tag_words": None, "n_pilot": 27, "l_pilot": 2}}]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(data=st.data())
def test_config_construction_rejects_or_round_trips(data):
    kwargs = {part: {} for part in _PARTS}
    for part, values in data.draw(st.sampled_from(_BASES)).items():
        kwargs[part].update(values)
    for part, name in data.draw(st.lists(st.sampled_from(_FIELD_NAMES), max_size=3)):
        kwargs[part][name] = data.draw(_ANY_VALUE)
    try:
        cfg = ExperimentConfig(**{
            "params": SystemParams(**kwargs["params"]),
            "reg": RegularizationConfig(**kwargs["reg"]),
            "channel": ChannelConfig(**kwargs["channel"]),
            "snr_grid": [SnrConfig(**kwargs["snr"])], **kwargs["top"]})
    except ConfigInvalidError:
        return
    assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg


def test_trial_count_limit_is_the_hash_word():
    harness.validate_config(_quick_cfg(trials=2 ** 32))
    with pytest.raises(ConfigInvalidError):
        harness.validate_config(_quick_cfg(trials=2 ** 32 + 1))


def test_tasks_stay_below_the_chunk_cap(monkeypatch):
    # a long run hands out bounded trial ranges, so no task's records and no
    # reduction step grows with the trial count
    spans = []

    def zero_records(args):
        _, _, _, start, stop = args
        spans.append((start, stop))
        return np.zeros((stop - start, 9))

    monkeypatch.setattr(harness, "_trial_batch", zero_records)
    rows = run_trials(_quick_cfg(trials=100_000, snr_grid=[SnrConfig(0.0, 0.0)] * 2))
    assert [row.trials for row in rows] == [100_000, 100_000]
    assert max(stop - start for start, stop in spans) <= harness._MAX_CHUNK
    assert sum(stop - start for start, stop in spans) == 200_000


def test_trial_loop_raises_no_warnings():
    # every scheme at a low and a high SNR point, plus l1 on the sparse q = 14
    # config, with warnings turned into errors (uint32 overflow warnings of
    # scalar hashing, divide-by-zero and invalid-value warnings in decoders)
    grid = [SnrConfig(-5.0, 0.0), SnrConfig(20.0, 25.0)]
    cfgs = []
    for scheme in sorted(harness.SCHEMES):
        layout = {}
        if scheme in harness.PILOT_AIDED_SCHEMES:
            layout = dict(n_source_words=None, n_tag_words=None, n_pilot=27,
                          l_pilot=6 if scheme == "pilot_aided_exhaustive" else 2)
        cfgs.append(_quick_cfg(scheme=scheme, trials=3, snr_grid=grid, **layout))
    cfgs.append(_quick_cfg(trials=2, snr_grid=grid, params=SystemParams(q=14),
                           channel=ChannelConfig(n_taps=3, sparse=True),
                           reg=RegularizationConfig(kind="l1", lambda_str=12.0,
                                                    lambda_sr=12.0)))
    harness._pool_prefix.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cfg in cfgs:
            run_trials(cfg)


def test_pilot_layouts_are_built_once_per_context(monkeypatch):
    # the 33 Gold words give the only pilots a harness frame can carry, so a
    # context builds one layout per word and no trial builds another
    built = []

    def counting(*args, **kwargs):
        built.append(PilotLayout(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(harness, "PilotLayout", counting)
    harness._context_for.cache_clear()
    cfg = _quick_cfg(scheme="pilot_aided_noniter", n_source_words=None, n_tag_words=None,
                     n_pilot=27, l_pilot=2, trials=40)
    run_trials(cfg)
    run_trials(cfg)
    assert len(built) == 33


def test_runs_of_one_experiment_share_one_context():
    # the decoders cache by codebook and layout object, so the trial count
    # and the SNR points must not give a run or sweep point its own context
    for layout in ({}, dict(scheme="pilot_aided_noniter", n_source_words=None,
                            n_tag_words=None, n_pilot=27, l_pilot=2)):
        harness._context_for.cache_clear()
        run_trials(_quick_cfg(trials=1, **layout))
        run_trials(_quick_cfg(trials=5, snr_grid=[SnrConfig(-3.0, 2.0), SnrConfig(5.0, 10.0)],
                              **layout))
        sweep(_quick_cfg(trials=2, **layout), "rho", [-10.0, 0.0])
        assert harness._context_for.cache_info().misses == 1


def test_contexts_share_one_gold_codebook_built_through_gen_gold(monkeypatch):
    # the Gold codebook is frozen, so every context of a process reads one
    # copy; it is built once, through the module name the benchmark traces
    calls = []
    original = harness.gen_gold

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(harness, "gen_gold", counted)
    harness._gold.cache_clear()
    harness._context_for.cache_clear()
    cfgs = [_quick_cfg(seed=1), _quick_cfg(seed=2),
            _quick_cfg(scheme="pilot_aided_noniter", n_source_words=None, n_tag_words=None,
                       n_pilot=27, l_pilot=2)]
    contexts = [harness._context_for(cfg) for cfg in cfgs]
    assert len({id(ctx) for ctx in contexts}) == 3
    assert calls == [(5,)]
    assert all(ctx.gold is contexts[0].gold for ctx in contexts)


def _count_harness_calls(monkeypatch, names):
    """Wrap each ``harness`` module name with a call counter: {name: calls}."""
    calls = dict.fromkeys(names, 0)

    def counting(name):
        original = getattr(harness, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(harness, name, counting(name))
    return calls


def test_run_trials_decodes_per_trial_and_calls_the_draw_names(monkeypatch):
    # the benchmark tracer wraps these module names and counts one decoder
    # call per trial; the draw must still go through the two draw names
    calls = _count_harness_calls(monkeypatch, ("decode_joint", "sample_channel",
                                               "synthesize_frame"))
    run_trials(ExperimentConfig(trials=2))
    assert calls["decode_joint"] == 2
    assert calls["sample_channel"] > 0 and calls["synthesize_frame"] > 0


# the harness-level decoder names the benchmark's tracer wraps
_DECODER_NAMES = ("decode_joint", "decode_disjoint", "decode_perfect_csi",
                  "decode_noniterative", "decode_iterative", "exhaustive_search")


@pytest.mark.parametrize("scheme", sorted(harness.SCHEMES))
def test_run_trials_makes_one_decoder_call_per_trial(monkeypatch, scheme):
    # perfbench counts one call of a harness decoder name as one trial, so
    # every scheme must decode each trial by exactly one such call
    calls = _count_harness_calls(monkeypatch, _DECODER_NAMES)
    layout = {}
    if scheme in harness.PILOT_AIDED_SCHEMES:
        layout = dict(n_source_words=None, n_tag_words=None, n_pilot=27,
                      l_pilot=6 if scheme == "pilot_aided_exhaustive" else 2)
    run_trials(_quick_cfg(scheme=scheme, trials=5,
                          snr_grid=[SnrConfig(-5.0, 0.0), SnrConfig(5.0, 10.0)], **layout))
    assert sum(calls.values()) == 10
    assert sum(count > 0 for count in calls.values()) == 1


class TestSerialization:
    def test_csv_header(self):
        row = MetricsRow(scheme="perfect_csi", snr_str_db=1.0, snr_sr_db=2.0,
                         ber_source=0.1, ber_tag=0.2, nrmse_str=0.3,
                         nrmse_sr=0.4, mean_iters=0.0, trials=10, seed=3)
        text = rows_to_csv([row])
        header, line, _ = text.split("\n")
        assert header == ("scheme,axis_name,axis_value,snr_str_db,snr_sr_db,"
                          "ber_source,ber_tag,nrmse_str,nrmse_sr,mean_iters,"
                          "trials,seed")
        assert line.startswith("perfect_csi,snr_sr,nan,1,2,0.1,0.2,")

    def test_json_mirrors_rows_and_config(self):
        cfg = _quick_cfg(trials=5)
        rows = run_trials(cfg)
        payload = json.loads(rows_to_json(rows, cfg))
        assert payload["rows"][0]["scheme"] == "pilot_free_joint"
        assert payload["config"]["trials"] == 5
        assert "build" in payload

    def test_config_roundtrip(self):
        cfg = _quick_cfg(trials=123, seed=99)
        back = config_from_dict(config_to_dict(cfg))
        assert back == cfg

    def test_config_from_compact_snr_form(self):
        cfg = config_from_dict({
            "scheme": "pilot_free_joint",
            "snr_sr_db": [0.0, 10.0],
            "rho_db": -5.0,
            "codebook": {"n_source": 16, "n_tag": 16},
            "trials": 10,
            "seed": 1,
        })
        assert [s.snr_sr_db for s in cfg.snr_grid] == [0.0, 10.0]
        assert [s.snr_str_db for s in cfg.snr_grid] == [-5.0, 5.0]

    def test_malformed_config_rejected(self):
        with pytest.raises(ConfigInvalidError):
            config_from_dict({"scheme": "pilot_free_joint",
                              "codebook": {"n_source": 16},  # n_tag missing
                              "trials": 1, "seed": 0})

    def test_noise_variance_matches_rho(self):
        # rho in dB is the difference of the two per-link SNRs
        _, s_str2, s_sr2 = noise_variance(SnrConfig(15.0, 20.0), 31)
        assert 10 * np.log10(s_str2 / s_sr2) == pytest.approx(-5.0)


class TestFrameDump:
    def test_roundtrip_exact(self):
        from radartag import frame_from_csv, frame_to_csv, sample_channel, synthesize_frame
        rng = np.random.default_rng(2)
        g1 = sample_channel(2, 3, 1.0, -10.0, False, rng)
        g2 = sample_channel(2, 3, 1.0, -10.0, False, rng)
        y = synthesize_frame(np.ones(7), np.array([1, -1, 1, -1]),
                             g1, g2, 0.5, rng)
        text = frame_to_csv(y)
        assert len(text.strip().split("\n")) == 4
        back = frame_from_csv(text)
        assert np.array_equal(back, y)  # repr roundtrips floats exactly

    @pytest.mark.parametrize("text", ["", "1,a", "1,2\n1,2,3,4", "1,2,3"],
                             ids=["empty", "non_numeric", "ragged", "odd_cells"])
    def test_malformed_dump_is_config_error(self, text):
        from radartag import frame_from_csv
        with pytest.raises(ConfigInvalidError):
            frame_from_csv(text)
