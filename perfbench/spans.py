"""Outside-in tracing: timing wrappers swapped in for the layers' module names.

The program has no spans of its own, so the benchmark replaces the
module-level names through which the layers call each other (the decoders
and the per-trial draw as seen from ``harness``, the conv builders and
FISTA as seen from the decoders, the pilot-aided block updates, and
``soft_threshold`` inside ``solvers``) with wrappers that record a span per
call.  Spans stay in memory as (name, start, end, parent, trial, info) and
are written out by the caller when the run ends.  A name that no longer
exists is reported as absent, never as zero calls.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter

import numpy as np

# span name -> (module, attribute) sites through which the layers call it
SITES = {
    "harness.run_trials": [("harness", "run_trials")],
    "codebooks.gen_gold": [("harness", "gen_gold")],
    "codebooks.gen_tag_codebook": [("harness", "gen_tag_codebook")],
    "channel.sample_channel": [("harness", "sample_channel")],
    "framesim.synthesize_frame": [("harness", "synthesize_frame")],
    "pilot_free.decode_joint": [("harness", "decode_joint")],
    "pilot_free.decode_disjoint": [("harness", "decode_disjoint")],
    "pilot_free.decode_perfect_csi": [("harness", "decode_perfect_csi")],
    "pilot_aided.decode_noniterative": [("harness", "decode_noniterative")],
    "pilot_aided.decode_iterative": [("harness", "decode_iterative")],
    "pilot_aided.exhaustive_search": [("harness", "exhaustive_search")],
    "channel.conv_matrix_from_code": [("pilot_free", "conv_matrix_from_code"),
                                      ("pilot_aided", "conv_matrix_from_code")],
    "channel.conv_matrix_from_channel": [("pilot_aided", "conv_matrix_from_channel")],
    "solvers.fista_stacked": [("pilot_free", "fista_stacked"),
                              ("pilot_aided", "fista_stacked")],
    "solvers.fista_precomputed": [("pilot_free", "fista_precomputed"),
                                  ("solvers", "fista_precomputed")],
    "solvers.soft_threshold": [("solvers", "soft_threshold")],
    "pilot_aided.iterative_channel_update": [("pilot_aided", "iterative_channel_update")],
    "pilot_aided.relaxed_data_updates": [("pilot_aided", "relaxed_data_updates")],
    "pilot_aided.source_data_update_discrete": [("pilot_aided",
                                                 "source_data_update_discrete")],
    "pilot_aided.tag_data_update_discrete": [("pilot_aided", "tag_data_update_discrete")],
}

# one call of a harness-level decoder is one trial
DECODERS = ("pilot_free.decode_joint", "pilot_free.decode_disjoint",
            "pilot_free.decode_perfect_csi", "pilot_aided.decode_noniterative",
            "pilot_aided.decode_iterative", "pilot_aided.exhaustive_search")
FISTA = ("solvers.fista_stacked", "solvers.fista_precomputed")
# decode_iterative reports under one name per mode
_ITER_MODES = ("discrete", "relaxed")
DECODER_SPANS = tuple(
    name for d in DECODERS
    for name in ([f"{d}_{m}" for m in _ITER_MODES] if d == "pilot_aided.decode_iterative"
                 else [d]))
# metrics derived from a name without carrying it as their prefix
_DEPENDENT = {
    "harness.run_trials": ("harness.",),
    "solvers.soft_threshold": ("solvers.fista.",),
    "pilot_aided.decode_iterative": ("pilot_aided.bcd.",),
}
# per-decoder timing metrics; pilot_aided.bcd.* come from decode_iterative results
DECODER_STATS = ("calls", "busy_s", "self_s", "us_p50", "us_pN")


def _max_iter_of(args, kwargs):
    for value in list(args) + list(kwargs.values()):
        limit = getattr(value, "fista_max_iter", None)
        if limit is not None:
            return int(limit)
    return None


class Tracer:
    """Installs the wrappers, records spans, and derives per-layer metrics."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._trial = 0
        self._saved: list = []
        self.absent: list[str] = []
        for name, sites in SITES.items():
            if not any(hasattr(self._module(mod), attr) for mod, attr in sites):
                self.absent.append(name)

    @staticmethod
    def _module(short: str):
        try:
            return importlib.import_module(f"radartag.{short}")
        except ImportError:
            return None

    def install(self):
        for name, sites in SITES.items():
            for mod, attr in sites:
                module = self._module(mod)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        decoder = name in DECODERS
        fista = name in FISTA

        def traced(*args, **kwargs):
            label = name
            if name == "pilot_aided.decode_iterative":
                mode = kwargs.get("mode", args[3] if len(args) > 3 else "discrete")
                label = f"{name}_{mode}"
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                info = None
                if fista:
                    info = _max_iter_of(args, kwargs)
                elif decoder and hasattr(result, "degenerate"):
                    info = (int(getattr(result, "iters", 0)),
                            bool(getattr(result, "converged", True)),
                            bool(result.degenerate))
                spans[idx] = (label, start, end, parent, self._trial, info)
                if decoder:
                    self._trial += 1

        return traced

    def reset(self):
        self.spans.clear()
        self._trial = 0

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for label, start, end, parent, trial, info in self.spans:
                handle.write(json.dumps([label, start, end, parent, trial, info]) + "\n")

    def layer_metrics(self) -> tuple[dict, dict]:
        """Per-layer metrics of the recorded spans, plus sample-count details.

        Returns ({metric: (value, unit)}, {metric: detail}).  Metrics of an
        absent name are left out and listed as "absent" in the details.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        children = defaultdict(list)
        for idx, (_, start, end, parent, _, _) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                children[parent].append(idx)
        by_name = defaultdict(list)
        for idx, span in enumerate(spans):
            by_name[span[0]].append(idx)

        def durations(name):
            return np.array([spans[i][2] - spans[i][1] for i in by_name[name]])

        def busy(name):
            return float(durations(name).sum())

        def self_time(name):
            return float(sum(spans[i][2] - spans[i][1] - child_time[i]
                             for i in by_name[name]))

        trials = sum(len(by_name[d]) for d in DECODER_SPANS)
        out, detail = {}, {}

        def put(metric, value, unit):
            out[metric] = (float(value), unit)

        def timing(name, stats):
            d = durations(name) * 1e6
            for stat in stats:
                metric = f"{name}.{stat}"
                if stat == "calls":
                    put(metric, d.size, "count")
                elif stat == "calls_per_trial":
                    put(metric, d.size / trials if trials else 0.0, "calls/trial")
                elif stat == "busy_s":
                    put(metric, busy(name), "s")
                elif stat == "self_s":
                    put(metric, self_time(name), "s")
                elif stat == "us_p50":
                    put(metric, np.percentile(d, 50) if d.size else 0.0, "us")
                elif stat == "us_pN":
                    pct = next((p for p in (99.9, 99.0, 90.0, 50.0)
                                if d.size * (1 - p / 100) >= 10), 50.0)
                    put(metric, np.percentile(d, pct) if d.size else 0.0, "us")
                    detail[metric] = {"percentile": pct, "samples": int(d.size)}

        run_busy = busy("harness.run_trials")
        run_self = self_time("harness.run_trials")
        put("harness.run_trials.busy_s", run_busy, "s")
        put("harness.self_s", run_self, "s")
        put("harness.self_frac", run_self / run_busy if run_busy else 0.0, "ratio")
        put("codebooks.gen_gold.busy_s", busy("codebooks.gen_gold"), "s")
        put("codebooks.gen_tag_codebook.busy_s", busy("codebooks.gen_tag_codebook"), "s")
        timing("channel.sample_channel", ("calls", "busy_s", "us_p50"))
        timing("channel.conv_matrix_from_code", ("calls_per_trial", "busy_s"))
        timing("channel.conv_matrix_from_channel", ("calls_per_trial", "busy_s"))
        timing("framesim.synthesize_frame", ("calls", "busy_s", "us_p50"))
        for name in DECODER_SPANS:
            timing(name, DECODER_STATS)
        timing("solvers.fista_stacked", ("calls", "busy_s", "us_p50"))
        timing("solvers.fista_precomputed", ("calls",))

        fista_calls = [i for name in FISTA for i in by_name[name]]
        iters = {i: sum(spans[c][0] == "solvers.soft_threshold" for c in children[i])
                 for i in fista_calls}
        total_iters = sum(iters.values())
        maxed = sum(1 for i, n in iters.items()
                    if spans[i][5] is not None and n >= spans[i][5])
        put("solvers.fista.iterations", total_iters, "count")
        put("solvers.fista.iters_per_call",
            total_iters / len(fista_calls) if fista_calls else 0.0, "iters/call")
        put("solvers.fista.maxed_frac", maxed / len(fista_calls) if fista_calls else 0.0,
            "ratio")

        timing("pilot_aided.iterative_channel_update", ("calls_per_trial", "busy_s"))
        for name in ("relaxed_data_updates", "source_data_update_discrete",
                     "tag_data_update_discrete"):
            put(f"pilot_aided.{name}.busy_s", busy(f"pilot_aided.{name}"), "s")
        bcd = [spans[i][5] for m in _ITER_MODES
               for i in by_name[f"pilot_aided.decode_iterative_{m}"]
               if spans[i][5] is not None]
        put("pilot_aided.bcd.sweeps_mean",
            float(np.mean([b[0] for b in bcd])) if bcd else 0.0, "sweeps")
        put("pilot_aided.bcd.converged_frac",
            float(np.mean([b[1] for b in bcd])) if bcd else 0.0, "ratio")
        degenerate = sum(1 for name in DECODER_SPANS for i in by_name[name]
                         if spans[i][5] is not None and spans[i][5][2])
        put("pilot_aided.degenerate_frames", degenerate, "count")

        for name in self.absent:
            stems = (name + ".", name + "_") + _DEPENDENT.get(name, ())
            for metric in [m for m in out if m.startswith(stems)]:
                del out[metric]
                detail[metric] = "absent"
        detail["trials_traced"] = trials
        return out, detail
