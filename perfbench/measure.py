"""One benchmark process: a cold set-up probe, or a measured run of a workload.

Started by ``run.py`` in a fresh interpreter per probe and per run, so that
set-up is cold and the peak RSS belongs to one workload.  Prints one JSON
object as its last line of standard output.

    python3 perfbench/measure.py setup   --workload W --seed N [--size tiny]
    python3 perfbench/measure.py measure --workload W --seed N --seconds S
                                         --trace 0|1 [--size tiny]
                                         [--reference FILE] [--spans-out FILE]
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

# numpy links a multi-threaded OpenBLAS; pin it before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from radartag import harness  # noqa: E402  (imports the whole package)

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

T_IMPORTED = perf_counter()

import calibrate  # noqa: E402  (after T_IMPORTED: not part of set-up)

FIELDS = ("ber_source", "ber_tag", "nrmse_str", "nrmse_sr", "mean_iters")


def warm_up(calls):
    """Build every config's context and cached operators: one trial per call."""
    for call in calls:
        harness.run_trials(replace(call.cfg, trials=1))


def bits_per_trial(cfg) -> tuple[int, int]:
    if cfg.n_source_words is not None:
        return cfg.n_source_words.bit_length() - 1, cfg.n_tag_words.bit_length() - 1
    return cfg.params.n - cfg.n_pilot, cfg.params.l - cfg.l_pilot


def summarize(call, rows) -> list[dict]:
    """Rows as the gate compares them: bit-error counts exact, NRMSE as floats."""
    src_bits, tag_bits = bits_per_trial(call.cfg)
    return [{"snr_sr_db": row.snr_sr_db, "trials": row.trials,
             "src_errors": round(row.ber_source * src_bits * row.trials),
             "tag_errors": round(row.ber_tag * tag_bits * row.trials),
             "nrmse_str": row.nrmse_str, "nrmse_sr": row.nrmse_sr} for row in rows]


def reference_mismatch(got: list[dict], want: list[dict]) -> str | None:
    if len(got) != len(want):
        return f"{len(got)} rows, reference has {len(want)}"
    for g, w in zip(got, want):
        for key in ("snr_sr_db", "trials", "src_errors", "tag_errors"):
            if g[key] != w[key]:
                return f"{key} {g[key]} != reference {w[key]}"
        for key in ("nrmse_str", "nrmse_sr"):
            if not math.isclose(g[key], w[key], rel_tol=1e-6, abs_tol=0.0):
                return f"{key} {g[key]!r} differs from reference {w[key]!r} by > 1e-6"
    return None


class Gate:
    """Counts harness calls attempted and failed, with the reason for each failure."""

    def __init__(self, calls, reference):
        self.calls = calls
        self.reference = reference
        self.attempted = 0
        self.failures: list[str] = []
        self.csv: dict[int, str] = {}      # first untraced output of each call
        self.summary: dict[int, list] = {}

    def run(self, i: int, label: str, expect: str = "pass"):
        """Invoke call i; returns its wall time, or None if it failed."""
        call = self.calls[i]
        self.attempted += 1
        start = perf_counter()
        try:
            # looked up through the module, so that a tracer sees the call
            rows = harness.run_trials(call.cfg)
        except Exception:  # a raising call is a counted failure, not a crash
            self.failures.append(f"{label} call {i}: raised\n{traceback.format_exc()}")
            return None
        elapsed = perf_counter() - start
        csv = harness.rows_to_csv(rows)
        problem = None
        if not all(math.isfinite(getattr(row, f)) for row in rows for f in FIELDS):
            problem = "non-finite row"
        elif i not in self.csv:
            self.csv[i] = csv
            self.summary[i] = summarize(call, rows)
            if self.reference is not None:
                problem = reference_mismatch(self.summary[i], self.reference[i])
        elif csv != self.csv[i]:
            problem = f"rows differ from the first {expect}"
        if problem:
            self.failures.append(f"{label} call {i} ({call.scheme}): {problem}")
            return None
        return elapsed


def timed_passes(gate: Gate, budget_s: float, min_passes: int, tracer=None,
                 spans_out=None):
    """Repeat the whole trial set until the budget is spent.

    Every call is preceded and followed by a calibration kernel pass.
    Returns per-call times of the untraced passes, the same times divided
    by the mean of the two kernel times around each call, the kernel
    times, the per-call times of the traced passes, and the tracer's
    (metrics, details).  With a tracer, every untraced pass is followed by
    a traced one, so that both see the same machine state.  The per-layer
    metrics and the spans come from the first traced pass; later traced
    passes are only timed.
    """
    untraced = [[] for _ in gate.calls]
    untraced_cal = [[] for _ in gate.calls]
    traced = [[] for _ in gate.calls]
    kernel_s = []
    layers = None

    def one_pass(times, label, expect="pass", relative=None):
        before = calibrate.timed()
        kernel_s.append(before)
        for i in range(len(gate.calls)):
            elapsed = gate.run(i, label, expect)
            after = calibrate.timed()
            kernel_s.append(after)
            if elapsed is not None:
                times[i].append(elapsed)
                if relative is not None:
                    relative[i].append(elapsed / ((before + after) / 2))
            before = after

    start = perf_counter()
    passes = 0
    while passes < min_passes or perf_counter() - start < budget_s:
        one_pass(untraced, f"pass {passes}", relative=untraced_cal)
        if tracer:
            tracer.install()
            try:
                one_pass(traced, f"traced pass {passes}", "untraced pass")
            finally:
                tracer.uninstall()
            if layers is None:
                layers = tracer.layer_metrics()
                if spans_out:
                    tracer.dump(spans_out)
            tracer.reset()
        passes += 1
    return untraced, untraced_cal, kernel_s, traced, layers


def median_wall(times) -> float:
    """Wall time of the trial set: the sum of each call's median time.

    Given times in calibration units, it is the trial set's time in those
    units.
    """
    return sum(median(t) if t else math.nan for t in times)


def environment() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')} "
                    f"({blas.get('openblas configuration', '').strip()})",
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_reference(path, workload, size, seed, n_calls):
    if seed != workloads.DEFAULT_SEED or path is None:
        return None
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if data.get("seed") != seed:
        raise SystemExit(f"reference {path} was recorded for seed {data.get('seed')}")
    entry = data.get(size, {}).get(workload)
    if entry is None:
        raise SystemExit(f"reference {path} has no {size} rows for {workload}")
    if len(entry) != n_calls:
        raise SystemExit(f"reference {path} has {len(entry)} calls for {workload}, "
                         f"the workload makes {n_calls}")
    return entry


def measure(args) -> dict:
    calls = workloads.calls(args.workload, args.seed, args.size)
    reference = load_reference(args.reference, args.workload, args.size, args.seed,
                               len(calls))
    gate = Gate(calls, reference)
    out = {"env": environment(), "import_s": T_IMPORTED - T_START}

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    t0 = perf_counter()
    warm_up(calls)
    out["context_s"] = perf_counter() - t0
    if tracer:
        tracer.uninstall()
        setup_metrics, _ = tracer.layer_metrics()
        tracer.reset()

    times, relative, kernel_s, traced, layers = timed_passes(
        gate, args.seconds, 2 if args.trace else 3, tracer, args.spans_out)
    out["call_s"] = times
    out["wall_s"] = median_wall(times)
    out["wall_cal"] = median_wall(relative)
    out["kernel_s"] = {"median": median(kernel_s), "min": min(kernel_s),
                       "max": max(kernel_s), "samples": len(kernel_s)}
    out["peak_rss_mb"] = peak_rss_mb()
    if tracer:
        out["traced_wall_s"] = median_wall(traced)
        out["layers"], out["layer_detail"] = layers
        for name in ("codebooks.gen_gold.busy_s", "codebooks.gen_tag_codebook.busy_s"):
            if name in setup_metrics:
                out["layers"][name] = setup_metrics[name]
        out["absent"] = tracer.absent
    out["schemes"] = [c.scheme for c in calls]
    out["trials"] = [c.trials for c in calls]
    out["rows"] = [gate.summary.get(i) for i in range(len(calls))]
    out["attempted"] = gate.attempted
    out["failures"] = gate.failures
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference")
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        calls = workloads.calls(args.workload, args.seed, args.size)
        t0 = perf_counter()
        warm_up(calls)
        out = {"import_s": T_IMPORTED - T_START, "context_s": perf_counter() - t0}
    else:
        out = measure(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
