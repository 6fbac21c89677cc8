"""Benchmark workloads: the harness calls each one makes, built from a seed.

Every workload uses n = 31, l = 10, SNR (snr_str, snr_sr) = (5, 10) dB and
3-tap channels at kappa = -10 dB.  The workload seed only picks the config
seeds; the program sees nothing but the resulting ExperimentConfigs.

Trial counts give each scheme of a workload a comparable share of wall
time on a shared 2-core x86 VM (0.3-0.8 s per call, 2-3 s per pass over
the trial set), so that a run repeats the set often enough for per-call
medians to shrug off short bursts of contention.
``pf_l1_sparse`` spreads its trials over eight config seeds because its cost
per trial depends on the codebook subset the config seed draws.

Importing this module does not import radartag, so ``run.py`` can list the
workloads without numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 1
SIZES = ("full", "tiny")

# name -> (why, [(scheme, setting, full trials, tiny trials, config seeds), ...])
PLANS = {
    "pf_l2_dense": (
        "small l2 decode kernel, so the per-trial draw and harness glue show; "
        "no FISTA, no pilot_aided",
        [("pilot_free_joint", "l2_dense", 600, 6, 1),
         ("pilot_free_disjoint", "l2_dense", 600, 6, 1),
         ("perfect_csi", "l2_dense", 600, 6, 1)]),
    "pf_l1_sparse": (
        "the 7c config: fista_stacked dominates, the draw and harness barely show",
        [("pilot_free_joint", "l1_sparse", 12, 2, 8)]),
    "pa_mix": (
        "pilot-aided Toeplitz builders and BCD sweeps; no FISTA, no pilot_free",
        [("pilot_aided_noniter", "pilots_27_2", 600, 8, 1),
         ("pilot_aided_iter_discrete", "pilots_27_2", 240, 4, 1),
         ("pilot_aided_iter_relaxed", "pilots_27_2", 40, 2, 1),
         ("pilot_aided_exhaustive", "pilots_27_6", 12, 1, 1)]),
}

WORKLOADS = tuple(PLANS)
SCHEMES = tuple(dict.fromkeys(step[0] for _, steps in PLANS.values() for step in steps))


@dataclass(frozen=True)
class Call:
    """One harness call: ``run_trials(cfg)``."""

    scheme: str
    cfg: object

    @property
    def trials(self) -> int:
        return self.cfg.trials * len(self.cfg.snr_grid)


def _config(scheme: str, setting: str, trials: int, seed: int):
    from radartag.framesim import SnrConfig, SystemParams
    from radartag.harness import ChannelConfig, ExperimentConfig
    from radartag.solvers import RegularizationConfig

    fields = dict(
        scheme=scheme, params=SystemParams(n=31, l=10, q=2),
        snr_grid=[SnrConfig(5.0, 10.0)], trials=trials, seed=seed,
        channel=ChannelConfig(n_taps=3, kappa_db=-10.0),
        reg=RegularizationConfig(kind="l2", lambda_str=0.1, lambda_sr=0.1,
                                 lambda_c=1.0, lambda_x=1.0))
    if setting == "l1_sparse":
        fields.update(params=SystemParams(n=31, l=10, q=14),
                      channel=ChannelConfig(n_taps=3, kappa_db=-10.0, sparse=True),
                      reg=RegularizationConfig(kind="l1", lambda_str=12.0,
                                               lambda_sr=12.0))
    elif setting.startswith("pilots_"):
        n_pilot, l_pilot = map(int, setting.split("_")[1:])
        fields.update(n_source_words=None, n_tag_words=None,
                      n_pilot=n_pilot, l_pilot=l_pilot)
    return ExperimentConfig(**fields)


def calls(workload: str, seed: int, size: str = "full") -> list[Call]:
    """The workload's fixed list of harness calls for this seed and size."""
    if seed < 0:
        raise ValueError("the workload seed must be nonnegative")
    out = []
    for scheme, setting, full, tiny, n_seeds in PLANS[workload][1]:
        for k in range(n_seeds):
            cfg = _config(scheme, setting, full if size == "full" else tiny,
                          1000 * seed + k)
            out.append(Call(scheme, cfg))
    return out
