"""Self-test of the benchmark on tiny workloads.

    python3 -m pytest -q perfbench/selftest.py

Runs every workload at ``--size tiny`` (a few trials per harness call) and
checks that the benchmark prints every declared metric with its unit, that
traced counts repeat exactly, that traced rows equal untraced rows, that
the correctness gate fails on an altered reference, that the traced layers
separate as the workloads predict, that the calibration kernel is fixed
work that does not depend on the program, that a missing wrapped name is reported
as absent, and that a copy of the benchmark without the program exits
nonzero.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_out" / "selftest"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SEED = 7  # any seed other than the default: no reference applies
COUNT_SUFFIXES = (".calls", ".calls_per_trial", ".iterations", ".iters_per_call",
                  ".maxed_frac", ".sweeps_mean", ".converged_frac", ".degenerate_frames")


def bench(*args, root=ROOT):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--size", "tiny",
           "--seconds", "0.2", *args]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


@lru_cache(maxsize=None)
def run(workload: str, trace: int, seed: int = SEED, repeat: int = 0):
    """(exit code, detail line, result line); ``repeat`` forces a fresh run."""
    code, lines, stderr = bench("--workload", workload, "--seed", str(seed),
                                "--trace", str(trace))
    assert code == 0, stderr
    return code, json.loads(lines[-2]), json.loads(lines[-1])


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_declared_metric_printed_with_unit(workload, trace):
    _, _, result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = declared()["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = run(workload, 1)[2]["metrics"]
    second = run(workload, 1, repeat=1)[2]["metrics"]
    counts = [name for name in first if name.endswith(COUNT_SUFFIXES)]
    assert counts
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_rows_equal_untraced_rows(workload):
    # the traced run gates its traced pass against its own untraced pass;
    # across processes the untraced rows must match as well
    assert run(workload, 1)[1]["rows"] == run(workload, 0)[1]["rows"]


def test_layer_separation():
    metrics = {w: run(w, 1)[2]["metrics"] for w in WORKLOADS}

    def value(w, name):
        return metrics[w][name]["value"]

    assert value("pf_l1_sparse", "solvers.fista_stacked.calls") > 0
    for w in ("pf_l2_dense", "pa_mix"):
        assert value(w, "solvers.fista_stacked.calls") == 0
    for w in ("pf_l2_dense", "pf_l1_sparse"):
        assert all(m["value"] == 0 for name, m in metrics[w].items()
                   if name.startswith("pilot_aided.") and name.endswith(".calls"))
    for w in ("pf_l2_dense", "pf_l1_sparse"):
        assert value(w, "pilot_aided.iterative_channel_update.calls_per_trial") == 0
    assert value("pa_mix", "pilot_aided.exhaustive_search.calls") > 0
    assert all("trace.overhead_frac" in metrics[w] for w in WORKLOADS)


def test_harness_self_time_and_children_add_up():
    metrics = run("pa_mix", 1, repeat=2)[2]["metrics"]  # writes the spans file read here
    path = ROOT / ".perfbench_out" / f"spans-pa_mix-{SEED}-tiny.jsonl"
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    roots = {i for i, s in enumerate(spans) if s[0] == "harness.run_trials"}
    busy = sum(spans[i][2] - spans[i][1] for i in roots)
    children = sum(s[2] - s[1] for s in spans if s[3] in roots)
    assert metrics["harness.run_trials.busy_s"]["value"] == pytest.approx(busy)
    assert metrics["harness.self_s"]["value"] + children == pytest.approx(busy)


def test_altered_reference_fails_the_gate():
    reference = json.loads((HERE / "reference.json").read_text())
    assert reference["seed"] == DEFAULT_SEED
    code, lines, _ = bench("--workload", "pf_l2_dense", "--seed", str(DEFAULT_SEED))
    assert code == 0 and json.loads(lines[-1])["failed"] == 0
    reference["tiny"]["pf_l2_dense"][1][0]["tag_errors"] += 1
    SCRATCH.mkdir(parents=True, exist_ok=True)
    altered = SCRATCH / "altered_reference.json"
    altered.write_text(json.dumps(reference))
    code, lines, stderr = bench("--workload", "pf_l2_dense", "--seed", str(DEFAULT_SEED),
                                "--reference", str(altered))
    result = json.loads(lines[-1])
    assert code != 0 and not result["correct"] and result["failed"] > 0
    assert "tag_errors" in stderr


def test_absent_name_is_reported_not_zero():
    import radartag.pilot_free as pilot_free
    import radartag.solvers as solvers
    from radartag import harness
    from spans import Tracer

    saved = pilot_free.fista_precomputed
    del pilot_free.fista_precomputed, solvers.fista_precomputed
    try:
        tracer = Tracer()
        assert "solvers.fista_precomputed" in tracer.absent
        tracer.install()
        try:
            harness.run_trials(harness.ExperimentConfig(trials=2))
        finally:
            tracer.uninstall()
        metrics, detail = tracer.layer_metrics()
    finally:
        pilot_free.fista_precomputed = solvers.fista_precomputed = saved
    assert "solvers.fista_precomputed.calls" not in metrics
    assert detail["solvers.fista_precomputed.calls"] == "absent"
    assert metrics["pilot_free.decode_joint.calls"] == (2.0, "count")


def test_untraced_run_installs_no_wrappers(monkeypatch):
    import measure
    import spans

    def refuse(self):
        raise AssertionError("untraced run installed wrappers")

    monkeypatch.setattr(spans.Tracer, "install", refuse)
    args = measure.argparse.Namespace(workload="pf_l2_dense", seed=SEED, size="tiny",
                                      seconds=0.0, trace=0, reference=None,
                                      spans_out=None)
    assert measure.measure(args)["failures"] == []


def test_calibration_kernel_is_fixed_and_independent_of_the_program():
    code = ("import sys, calibrate; "
            "print(calibrate.kernel(), calibrate.kernel(), 'radartag' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                          text=True, timeout=60, check=True)
    first, second, imported = proc.stdout.split()
    assert first == second and imported == "False"


def test_without_the_program_exits_nonzero():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, lines, _ = bench("--workload", "pf_l2_dense", root=bare)
    assert code != 0
    assert not any(line.startswith('{"correct"') for line in lines)
