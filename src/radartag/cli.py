"""Command-line front end.

Exit codes: 0 on success, 1 on a failed check, 2 on configuration or usage
errors, 3 when an enumeration budget is exceeded.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .codebooks import (
    check_source_separability,
    check_tag_separability,
    gen_gold,
    gen_tag_codebook,
    pilot_table,
)
from .errors import BudgetExceededError, ConfigInvalidError, RadarTagError, require
from .framesim import COHERENCE_THRESHOLD, check_assumptions
from .harness import (MAX_FRAME_L, SWEEP_AXES, load_config, rows_to_csv, rows_to_json,
                      run_trials, sweep)

__all__ = ["main"]


def _write(text: str, out: str | None):
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigInvalidError(f"cannot write {out}: {exc.strerror}") from exc


def _words_csv(words) -> str:
    return "\n".join(",".join(str(int(v)) for v in word) for word in words) + "\n"


def _parse_rates(spec: str, n: int) -> list[int]:
    """Rates given as ``lo..hi`` or ``a,b,c``, each in [0, n), at least one."""
    lo, dots, hi = spec.partition("..")
    try:
        rates = [int(lo), int(hi)] if dots else [int(tok) for tok in spec.split(",") if tok]
    except ValueError as exc:
        raise ConfigInvalidError(f"--rates {spec!r} is not a rate list") from exc
    require(all(0 <= rate < n for rate in rates), f"--rates must lie in [0, {n}), got {spec!r}")
    rates = list(range(rates[0], rates[1] + 1)) if dots else rates
    require(rates, f"--rates {spec!r} names no rate")
    return rates


def _tag_book(length: int):
    require(4 <= length <= MAX_FRAME_L and length % 2 == 0,
            f"--len must be an even length in [4, {MAX_FRAME_L}], got {length}")
    return gen_tag_codebook(length)


def _cmd_gen_gold(args) -> int:
    _write(_words_csv(gen_gold().words), args.out)
    return 0


def _cmd_gen_tag(args) -> int:
    _write(_words_csv(_tag_book(args.len).words), args.out)
    return 0


def _cmd_rank_check(args) -> int:
    require(args.q >= 0, f"--q must be >= 0, got {args.q}")
    source = gen_gold()
    tag = _tag_book(args.len)
    src_ok = check_source_separability(source, args.q)
    tag_ok = check_tag_separability(tag)
    print(f"source: {len(source)} words of length {source.n}, "
          f"pairwise rank 2(q+1) at q={args.q}: {'ok' if src_ok else 'FAIL'}")
    print(f"tag: {len(tag)} words of length {tag.l}, "
          f"zero-sum and pairwise rank 2: {'ok' if tag_ok else 'FAIL'}")
    return 0 if (src_ok and tag_ok) else 1


def _cmd_psl_table(args) -> int:
    book = gen_gold()
    rows = pilot_table(book, _parse_rates(args.rates, book.n))
    lines = ["rate,psl_db,islr_db"]
    lines += [f"{r.rate},{r.psl_db:.10g},{r.islr_db:.10g}" for r in rows]
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_run(args) -> int:
    """``simulate`` runs the config's SNR grid, ``sweep`` one axis of it."""
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    # open --out before the run, as a shell redirect would: an unwritable path
    # fails at once, not after the whole simulation
    _write("", args.out)
    if args.cmd == "sweep":
        rows = sweep(cfg, args.axis, workers=args.workers)
    else:
        rows = run_trials(cfg, workers=args.workers)
    text = rows_to_csv(rows) if args.format == "csv" else rows_to_json(rows, cfg)
    _write(text, args.out)
    return 0


def _cmd_check(args) -> int:
    cfg = load_config(args.config)
    report = check_assumptions(cfg.params)
    print(f"coherence: l * pri * nu_max = {report.coherence_product:.6g} "
          f"(threshold {COHERENCE_THRESHOLD:g}) -> "
          f"{'ok' if report.coherence_ok else 'FAIL'}")
    print(f"  frame-constant channels need nu_max << "
          f"{report.nu_max_bound_hz / 1e3:.6g} kHz")
    print(f"timing: n_pri = {cfg.params.n_pri} must exceed n + q_max = "
          f"{report.n_pri_required} -> {'ok' if report.timing_ok else 'FAIL'}")
    return 0 if (report.coherence_ok and report.timing_ok) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radartag",
        description="Simulate and decode tag backscatter over coded radar pulses.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    codebook = sub.add_parser("codebook", help="generate and verify codebooks")
    cb_sub = codebook.add_subparsers(dest="codebook_cmd", required=True)
    gg = cb_sub.add_parser("gen-gold", help="emit the Gold source codebook as CSV")
    gg.add_argument("--out", default=None)
    gg.set_defaults(handler=_cmd_gen_gold)
    gt = cb_sub.add_parser("gen-tag", help="emit the zero-sum tag codebook as CSV")
    gt.add_argument("--len", type=int, default=10)
    gt.add_argument("--out", default=None)
    gt.set_defaults(handler=_cmd_gen_tag)
    ck = cb_sub.add_parser("check", help="run the identifiability rank checks")
    ck.add_argument("--q", type=int, required=True)
    ck.add_argument("--len", type=int, default=10)
    ck.set_defaults(handler=_cmd_rank_check)
    pt = cb_sub.add_parser("psl-table",
                           help="averaged worst-case PSL/ISLR vs source data rate")
    pt.add_argument("--rates", required=True, help="e.g. 0..9 or 0,4,9")
    pt.add_argument("--out", default=None)
    pt.set_defaults(handler=_cmd_psl_table)

    run_opts = argparse.ArgumentParser(add_help=False)
    run_opts.add_argument("--config", required=True)
    run_opts.add_argument("--seed", type=int, default=None)
    run_opts.add_argument("--format", choices=("csv", "json"), default="csv")
    run_opts.add_argument("--out", default=None)
    run_opts.add_argument("--workers", type=int, default=1)
    sub.add_parser("simulate", parents=[run_opts],
                   help="run the SNR grid of a config").set_defaults(handler=_cmd_run)
    sw = sub.add_parser("sweep", parents=[run_opts], help="sweep one axis of a config")
    sw.add_argument("--axis", required=True, choices=SWEEP_AXES)
    sw.set_defaults(handler=_cmd_run)

    chk = sub.add_parser("check", help="report the frame-model assumption checks")
    chk.add_argument("--config", required=True)
    chk.set_defaults(handler=_cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except BudgetExceededError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3
    except ConfigInvalidError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RadarTagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
