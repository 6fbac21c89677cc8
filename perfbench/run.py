"""radartag benchmark: Monte Carlo workloads through the public harness.

    python3 perfbench/run.py --workload pf_l2_dense --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each run starts fresh interpreters: three cold set-up probes (with
``--trace 0``) and one measured process, whose own cold set-up is the
fourth set-up sample.  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the line before it holds the
details (raw wall time, calibration kernel times, per-scheme throughput,
environment, call times, rows, failures).
``attempted``/``failed`` count harness calls, so failed/attempted is the
failed fraction.  With ``--workload all`` every workload runs in turn and
each prints its own pair of lines.  Exits 1 when the correctness gate fails
and 2 when ``src/radartag`` is missing.

Uses only the standard library, so it needs no numpy to start and to
report a missing program.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from statistics import median

from workloads import DEFAULT_SEED, SCHEMES, SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3  # plus the measured process's own cold set-up
CHILD_TIMEOUT_S = 150
OUT_DIR = ROOT / ".perfbench_out"


def child(mode: str, args, extra=()) -> dict:
    cmd = [sys.executable, str(HERE / "measure.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def per_scheme_throughput(result) -> dict:
    """trials_per_s.<scheme>: the scheme's trials / median wall of its calls."""
    trials, wall = {}, {}
    for scheme, n, times in zip(result["schemes"], result["trials"], result["call_s"]):
        trials[scheme] = trials.get(scheme, 0) + n
        wall[scheme] = wall.get(scheme, 0.0) + (median(times) if times else math.nan)
    return {f"trials_per_s.{s}": trials[s] / wall[s] if s in trials else 0.0
            for s in SCHEMES}


def record_reference(args, rows):
    """Store this run's rows as the ones the default seed must reproduce."""
    if args.seed != DEFAULT_SEED:
        raise SystemExit(f"references are recorded at the default seed {DEFAULT_SEED}")
    path = Path(args.reference)
    data = json.loads(path.read_text()) if path.exists() else {"seed": DEFAULT_SEED}
    data.setdefault(args.size, {})[args.workload] = rows
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def run_one(args) -> int:
    load_before = os.getloadavg()
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if not args.record_reference:
        extra += ["--reference", args.reference]
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        extra += ["--spans-out",
                  str(OUT_DIR / f"spans-{args.workload}-{args.seed}-{args.size}.jsonl")]
    setup = [] if args.trace else [child("setup", args) for _ in range(SETUP_PROBES)]
    result = child("measure", args, extra)
    throughput = per_scheme_throughput(result)

    if args.trace:
        metrics = dict(result["layers"])
        metrics["setup.import_s"] = (result["import_s"], "s")
        metrics["setup.context_s"] = (result["context_s"], "s")
        for name, value in throughput.items():
            metrics[name] = (value, "trials/s")
        metrics["trace.overhead_frac"] = (
            result["traced_wall_s"] / result["wall_s"] - 1.0, "ratio")
    else:
        metrics = {
            "wall_cal": (result["wall_cal"], "cal"),
            "setup_s": (median(p["import_s"] + p["context_s"]
                               for p in setup + [result]), "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
    failed = len(result["failures"])
    correct = failed == 0 and all(math.isfinite(v) for v, _ in metrics.values())
    detail = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "failed_frac": failed / result["attempted"],
        "wall_s": result["wall_s"], "calibration_kernel_s": result["kernel_s"],
        "per_scheme": throughput,
        "setup_probes": setup, "env": result["env"],
        "load_avg": {"before": load_before, "after": os.getloadavg()},
        "layer_detail": result.get("layer_detail", {}),
        "absent": result.get("absent", []),
        "call_s": result["call_s"], "rows": result["rows"],
        "failures": result["failures"],
    }
    print(json.dumps(detail))
    if args.record_reference and correct:
        record_reference(args, result["rows"])
    for failure in result["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time per run (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, prints the per-layer metrics")
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="tiny: a few trials per call, for the self-test")
    parser.add_argument("--reference", default=str(HERE / "reference.json"),
                        help="rows the default seed must reproduce")
    parser.add_argument("--record-reference", action="store_true",
                        help="write this run's rows into --reference instead "
                             "of checking them")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "radartag" / "__init__.py").is_file():
        print(f"radartag sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    status = 0
    for workload in (WORKLOADS if args.workload == "all" else (args.workload,)):
        status = max(status, run_one(argparse.Namespace(**{**vars(args),
                                                           "workload": workload})))
    return status


if __name__ == "__main__":
    sys.exit(main())
