"""Command-line surface: subcommands, formats, exit codes."""

import json
import subprocess
import sys

import pytest

from radartag import cli, gen_tag_codebook
from radartag.cli import main
from radartag.harness import MAX_FRAME_L


def _config_file(tmp_path, **overrides):
    data = {
        "version": 1,
        "scheme": "pilot_free_joint",
        "params": {"n": 31, "l": 10, "q": 2, "n_pri": 150, "pri_s": 3e-6,
                   "nu_max_hz": 0.0},
        "snr_sr_db": [10.0],
        "rho_db": -5.0,
        "reg": {"kind": "l2", "lambda_str": 0.1, "lambda_sr": 0.1},
        "codebook": {"n_source": 16, "n_tag": 16},
        "channel": {"n_taps": 3, "kappa_db": -10.0, "sparse": False},
        "trials": 20,
        "seed": 11,
        "axis_values": [0.0, 10.0],
    }
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestCodebookCommands:
    def test_gen_gold_row_count(self, capsys):
        assert main(["codebook", "gen-gold"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 33
        assert all(len(line.split(",")) == 31 for line in lines)

    def test_gen_tag_row_count(self, capsys):
        assert main(["codebook", "gen-tag", "--len", "10"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 126
        for line in lines[:5]:
            assert sum(int(v) for v in line.split(",")) == 0

    def test_check_passes_on_defaults(self, capsys):
        assert main(["codebook", "check", "--q", "2"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out

    def test_psl_table_csv(self, capsys):
        assert main(["codebook", "psl-table", "--rates", "0,4"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "rate,psl_db,islr_db"
        assert len(lines) == 3
        rate, psl, islr = lines[1].split(",")
        assert rate == "0"
        assert float(psl) < 0

    def test_psl_table_rate_range_syntax(self, capsys):
        assert main(["codebook", "psl-table", "--rates", "0..3"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2", "3"]

    def test_psl_table_budget_exit_code(self, capsys):
        assert main(["codebook", "psl-table", "--rates", "25"]) == 3


# codebook arguments out of range, each an exit-2 config error; the length
# cap is checked before any tag codebook is built
_BAD_CODEBOOK_ARGS = {
    "check_negative_q": ["check", "--q", "-1"],
    "check_len_above_cap": ["check", "--q", "2", "--len", "40"],
    "gen_tag_len_zero": ["gen-tag", "--len", "0"],
    "gen_tag_len_odd": ["gen-tag", "--len", "7"],
    "gen_tag_len_two": ["gen-tag", "--len", "2"],
    "gen_tag_len_above_cap": ["gen-tag", "--len", str(MAX_FRAME_L + 2)],
    "gen_tag_len_40": ["gen-tag", "--len", "40"],
    "rates_unparsable": ["psl-table", "--rates", "5..a"],
    "rates_open_range": ["psl-table", "--rates", "3.."],
    "rates_at_n": ["psl-table", "--rates", "31"],
    "rates_40": ["psl-table", "--rates", "40"],
    "rates_negative": ["psl-table", "--rates=-1,2"],
    "rates_huge_range": ["psl-table", "--rates", "0..10000000000"],
    "rates_reversed_range": ["psl-table", "--rates", "5..2"],
    "rates_empty_list": ["psl-table", "--rates", ","],
}


@pytest.mark.parametrize("name", sorted(_BAD_CODEBOOK_ARGS))
def test_out_of_range_codebook_arguments_exit_2(name, monkeypatch, capsys):
    def capped(length):
        assert length <= MAX_FRAME_L, "built a tag codebook past the length cap"
        return gen_tag_codebook(length)

    monkeypatch.setattr(cli, "gen_tag_codebook", capped)
    assert main(["codebook"] + _BAD_CODEBOOK_ARGS[name]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["codebook", "gen-gold"], ["codebook", "gen-tag"],
                                  ["codebook", "psl-table", "--rates", "0"],
                                  ["simulate"], ["sweep", "--axis", "snr_sr"]],
                         ids=["gen_gold", "gen_tag", "psl_table", "simulate", "sweep"])
def test_unwritable_out_is_config_error(argv, tmp_path, monkeypatch, capsys):
    # every writer reports an --out it cannot open as a config error, not a
    # traceback; simulate and sweep do so before they run anything
    def never(*args, **kwargs):
        raise AssertionError("ran the simulation before opening --out")

    monkeypatch.setattr(cli, "run_trials", never)
    monkeypatch.setattr(cli, "sweep", never)
    if argv[0] != "codebook":
        argv = argv + ["--config", _config_file(tmp_path, trials=2)]
    out = tmp_path / "missing" / "rows.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert f"config error: cannot write {out}" in capsys.readouterr().err
    assert not out.parent.exists()


@pytest.mark.parametrize("degree", [-1, 0, 3, 4, 5, 7])
@pytest.mark.parametrize("argv", [["gen-gold"], ["check", "--q", "2"],
                                  ["psl-table", "--rates", "0"]],
                         ids=["gen_gold", "check", "psl_table"])
def test_unsupported_degree_exits_2(argv, degree, capsys):
    # the codebook commands take no --degree; argparse rejects it as a usage error
    with pytest.raises(SystemExit) as exc:
        main(["codebook", *argv, "--degree", str(degree)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --degree" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["check", "--q", "0", "--len", "4"],
                                  ["gen-tag", "--len", "4"],
                                  ["psl-table", "--rates", "0,1"]],
                         ids=["q_zero_len_four", "len_four", "rates_from_zero"])
def test_codebook_arguments_at_their_edges_run(argv, capsys):
    assert main(["codebook"] + argv) == 0


class TestSimulate:
    def test_csv_output(self, tmp_path, capsys):
        cfg = _config_file(tmp_path)
        assert main(["simulate", "--config", cfg]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].startswith("scheme,axis_name")
        assert len(lines) == 2

    def test_json_format(self, tmp_path, capsys):
        cfg = _config_file(tmp_path)
        assert main(["simulate", "--config", cfg, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"][0]["trials"] == 20

    def test_seed_override_and_determinism(self, tmp_path, capsys):
        cfg = _config_file(tmp_path)
        main(["simulate", "--config", cfg, "--seed", "5"])
        first = capsys.readouterr().out
        main(["simulate", "--config", cfg, "--seed", "5"])
        second = capsys.readouterr().out
        main(["simulate", "--config", cfg, "--seed", "6"])
        third = capsys.readouterr().out
        assert first == second
        assert first != third

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2

    def test_bad_scheme_is_config_error(self, tmp_path):
        cfg = _config_file(tmp_path, scheme="nonsense")
        assert main(["simulate", "--config", cfg]) == 2

    def test_workers_below_one_is_config_error(self, tmp_path, capsys):
        cfg = _config_file(tmp_path, trials=2)
        for cmd in (["simulate"], ["sweep", "--axis", "snr_sr"]):
            assert main(cmd + ["--config", cfg, "--workers", "0"]) == 2
            assert "workers" in capsys.readouterr().err


class TestSweep:
    def test_axis_rows(self, tmp_path, capsys):
        cfg = _config_file(tmp_path, trials=10)
        assert main(["sweep", "--config", cfg, "--axis", "snr_sr"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 3  # header + 2 axis values
        assert lines[1].split(",")[1] == "snr_sr"

    def test_out_file_byte_identical_across_runs(self, tmp_path):
        cfg = _config_file(tmp_path, trials=16)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["sweep", "--config", cfg, "--axis", "snr_sr",
                     "--out", str(out1)]) == 0
        assert main(["sweep", "--config", cfg, "--axis", "snr_sr",
                     "--out", str(out2), "--workers", "4"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_empty_axis_grid_is_config_error(self, tmp_path):
        cfg = _config_file(tmp_path, axis_values=[])
        assert main(["sweep", "--config", cfg, "--axis", "snr_sr"]) == 2


class TestCheck:
    def test_reports_coherence_bound(self, tmp_path, capsys):
        cfg = _config_file(tmp_path)
        assert main(["check", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "33.3" in out  # kHz bound for l=10, pri 3 us
        assert "ok" in out

    def test_flags_violated_timing(self, tmp_path, capsys):
        cfg = _config_file(tmp_path,
                           params={"n": 31, "l": 10, "q": 2, "n_pri": 30,
                                   "pri_s": 3e-6, "nu_max_hz": 0.0})
        assert main(["check", "--config", cfg]) == 1
        assert "FAIL" in capsys.readouterr().out


def test_console_entry_point_installed():
    proc = subprocess.run([sys.executable, "-m", "radartag.cli", "codebook",
                           "gen-tag", "--len", "4"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert len(proc.stdout.strip().split("\n")) == 3
