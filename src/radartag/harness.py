"""Monte Carlo experiment runner: configs, trial loops, metrics, CSV/JSON output.

A config pins the frame geometry, the scheme, the regularization, the
channel statistics, and an SNR grid.  Each trial draws messages, channels,
and noise from a counter-split substream of the experiment seed, so results
are bit-identical for any worker count: trial i of grid point g always sees
the generator spawned at (seed, 1, g, i), and accumulation runs in trial
order.  In a sweep, the axis position plays the part of the grid point.

That generator is the PCG64 that ``np.random.default_rng(SeedSequence(seed,
spawn_key=(1, g, i)))`` would build, but no SeedSequence is built per trial.
A batch of trials computes every trial's PCG64 state at once: the pool of
``SeedSequence(seed, spawn_key=(1, g))``, which numpy computes, does not
depend on i and is cached per (seed, g); only the trial word's mixing steps
and the eight output words, copied from numpy's hash, run per trial,
vectorized over the batch, followed by PCG64's 128-bit seeding step.  Each
trial then sets the whole state of one of a few reused Generators before it
draws.  The trial index must fit one 32-bit hash word, so a config asks for
at most 2**32 trials.
"""

from __future__ import annotations

import ctypes
import json
import logging
import math
import os
from contextlib import nullcontext
from dataclasses import asdict, dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .channel import sample_channel
from .codebooks import SourceCodebook, TagCodebook, gen_gold, gen_tag_codebook
from .errors import (ConfigInvalidError, IndexOutOfRangeError, _shown, check_fields, is_int,
                     is_real, require)
from .framesim import SnrConfig, SystemParams, noise_variance, snr_pair, synthesize_frame
from .pilot_aided import (
    PilotLayout,
    alternating_pilot,
    decode_iterative,
    decode_noniterative,
    exhaustive_search,
)
from .pilot_free import decode_disjoint, decode_joint, decode_perfect_csi
from .solvers import RegularizationConfig

__all__ = [
    "ChannelConfig",
    "ExperimentConfig",
    "MetricsRow",
    "CSV_COLUMNS",
    "PILOT_FREE_SCHEMES",
    "PILOT_AIDED_SCHEMES",
    "SCHEMES",
    "SWEEP_AXES",
    "bits_from_index",
    "index_from_bits",
    "run_trials",
    "sweep",
    "rows_to_csv",
    "rows_to_json",
    "frame_to_csv",
    "frame_from_csv",
    "load_config",
    "config_from_dict",
    "config_to_dict",
]

log = logging.getLogger(__name__)
_gold = lru_cache(maxsize=1)(lambda: gen_gold(5))   # frozen: every context shares it

# scheme -> (pilot_aided, decoder call (ctx, y, side)); side is the pilot
# layout, or the true (g_str, g_sr) for pilot-free schemes.  Decoders are
# looked up in this module's globals at call time, so patching a name works.
_SCHEME_TABLE = {
    "pilot_free_joint": (False, lambda ctx, y, side: decode_joint(
        y, ctx.source, ctx.tag, ctx.reg)),
    "pilot_free_disjoint": (False, lambda ctx, y, side: decode_disjoint(
        y, ctx.source, ctx.tag, ctx.reg)),
    "pilot_free_disjoint_sr_only": (False, lambda ctx, y, side: decode_disjoint(
        y, ctx.source, ctx.tag, ctx.reg, use_str_for_source=False)),
    "perfect_csi": (False, lambda ctx, y, side: decode_perfect_csi(
        y, ctx.source, ctx.tag, *side)),
    "pilot_aided_noniter": (True, lambda ctx, y, side: decode_noniterative(y, side)),
    "pilot_aided_iter_discrete": (True, lambda ctx, y, side: decode_iterative(
        y, side, ctx.reg, mode="discrete")),
    "pilot_aided_iter_relaxed": (True, lambda ctx, y, side: decode_iterative(
        y, side, ctx.reg, mode="relaxed")),
    "pilot_aided_exhaustive": (True, lambda ctx, y, side: exhaustive_search(
        y, side, ctx.reg)),
}
SCHEMES = frozenset(_SCHEME_TABLE)
PILOT_AIDED_SCHEMES = frozenset(s for s, (aided, _) in _SCHEME_TABLE.items() if aided)
PILOT_FREE_SCHEMES = SCHEMES - PILOT_AIDED_SCHEMES

SWEEP_AXES = ("snr_sr", "snr_str", "rho", "rate_source", "rate_tag")

CSV_COLUMNS = ("scheme", "axis_name", "axis_value", "snr_str_db", "snr_sr_db",
               "ber_source", "ber_tag", "nrmse_str", "nrmse_sr", "mean_iters",
               "trials", "seed")

CONFIG_VERSION = 1
# longest frame (tag codeword length l, in PRIs) a config may ask for; the
# tag codebook of this length, C(18, 9)/2 = 24310 words, builds in 0.25 s
MAX_FRAME_L = 18
# most trials per grid point: a trial index must fit one 32-bit word of the
# substream hash (see _trial_states)
MAX_TRIALS = 2 ** 32


@dataclass(frozen=True)
class ChannelConfig:
    """Tap statistics shared by both links; types only, ExperimentConfig checks ranges."""

    n_taps: int = 3
    kappa_db: float = -10.0
    sparse: bool = False

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, valid by construction (field types, then :func:`validate_config`);
    lists are stored as tuples, and ``dataclasses.replace`` derives a new config."""

    params: SystemParams = SystemParams()
    scheme: str = "pilot_free_joint"
    snr_grid: tuple[SnrConfig, ...] = (SnrConfig(15.0, 20.0),)
    rho_db: float = -5.0
    reg: RegularizationConfig = RegularizationConfig()
    channel: ChannelConfig = ChannelConfig()
    n_source_words: int | None = 16
    n_tag_words: int | None = 16
    n_pilot: int | None = None
    l_pilot: int | None = None
    trials: int = 1000
    seed: int = 0
    axis_values: tuple[float, ...] | None = None

    def __post_init__(self):
        check_fields(self)
        validate_config(self)


@dataclass
class MetricsRow:
    """Aggregated metrics for one grid point."""

    scheme: str
    snr_str_db: float
    snr_sr_db: float
    ber_source: float
    ber_tag: float
    nrmse_str: float
    nrmse_sr: float
    mean_iters: float
    trials: int
    seed: int
    axis_name: str = "snr_sr"
    axis_value: float = float("nan")


def bits_from_index(index: int, width: int) -> np.ndarray:
    """Natural binary representation, most-significant bit first."""
    if width < 0 or not 0 <= index < 2 ** width:
        raise IndexOutOfRangeError(f"index {index} does not fit in {width} bits")
    return np.array([(index >> (width - 1 - b)) & 1 for b in range(width)],
                    dtype=np.int64)


def index_from_bits(bits) -> int:
    """Inverse of :func:`bits_from_index`."""
    value = 0
    for b in np.asarray(bits, dtype=np.int64):
        value = (value << 1) | int(b)
    return value


# ---------------------------------------------------------------------------
# experiment context: everything derived from the config once per process


def _db_ok(value) -> bool:
    """A real dB value whose linear power 10^(value/10) is a finite float."""
    try:
        return is_real(value) and math.isfinite(10.0 ** (value / 10.0))
    except OverflowError:
        return False


def validate_config(cfg: ExperimentConfig):
    """The rules between a config's fields, run by every ExperimentConfig it builds."""
    require(cfg.scheme in SCHEMES, f"unknown scheme {cfg.scheme!r}")
    require(1 <= cfg.trials <= MAX_TRIALS, f"trials must lie in [1, {MAX_TRIALS}]")
    require(cfg.seed >= 0, "seed must be >= 0")
    require(len(cfg.snr_grid) >= 1, "snr_grid must be nonempty")
    require(all(_db_ok(v) for p in cfg.snr_grid for v in (p.snr_str_db, p.snr_sr_db))
            and _db_ok(cfg.rho_db),
            "SNR and rho_db values must be dB values with a finite linear power")
    require(_db_ok(cfg.channel.kappa_db) or cfg.channel.kappa_db in (math.inf, -math.inf),
            "channel kappa_db must be +/-inf or a dB value with a finite linear power")
    require(1 <= cfg.channel.n_taps <= cfg.params.q + 1,
            "channel n_taps must lie in [1, q + 1], q + 1 being the delay bins")
    require(cfg.axis_values is None or all(v == v for v in cfg.axis_values),
            "axis_values must not hold NaN")
    require(cfg.params.n == 31,
            "the harness draws codewords and pilots from the 33 Gold words "
            "of length 31; other lengths are library-API territory")
    l = cfg.params.l
    require(l <= MAX_FRAME_L, f"params.l must be at most {MAX_FRAME_L}, got {l}")
    if cfg.scheme in PILOT_FREE_SCHEMES:
        require(None not in (cfg.n_source_words, cfg.n_tag_words)
                and cfg.n_pilot is None and cfg.l_pilot is None,
                "pilot-free schemes take codebook sizes, not a pilot layout")
        require(cfg.params.q <= cfg.params.n - 2,
                "pilot-free schemes need q <= n - 2 for source separability")
        require(l >= 4 and l % 2 == 0,
                "pilot-free schemes need an even tag codeword length l >= 4")
        # the tag pool: every zero-sum word of length l, complements included
        tag_pool = 2 * math.comb(l - 1, l // 2)
        for name, size, cap in (("source", cfg.n_source_words, 33),
                                ("tag", cfg.n_tag_words, min(252, tag_pool))):
            require(1 <= size <= cap and size & (size - 1) == 0,
                    f"{name} codebook size must be a power of two in [1, {cap}]")
    else:
        require(None not in (cfg.n_pilot, cfg.l_pilot)
                and cfg.n_source_words is None and cfg.n_tag_words is None,
                "pilot-aided schemes take a pilot layout (n_pilot, l_pilot), "
                "not codebook sizes")
        require(cfg.params.q + 1 <= cfg.n_pilot <= cfg.params.n,
                "need q + 1 <= n_pilot <= n")
        require(2 <= cfg.l_pilot <= cfg.params.l, "need 2 <= l_pilot <= l")


class _Context:
    """Per-process immutable experiment state."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.gold = _gold()
        setup_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0,)))
        if cfg.scheme in PILOT_FREE_SCHEMES:
            src_idx = np.sort(setup_rng.choice(len(self.gold), cfg.n_source_words,
                                               replace=False))
            tag_pool = gen_tag_codebook(cfg.params.l).words
            if cfg.n_tag_words > len(tag_pool):
                # beyond the separable set: admit the antipodal complements,
                # which keep the zero-sum constraint but break pairwise rank 2
                tag_pool = np.vstack([tag_pool, -tag_pool])
            tag_idx = np.sort(setup_rng.choice(tag_pool.shape[0], cfg.n_tag_words,
                                               replace=False))
            self.source = SourceCodebook(n=31, words=self.gold.words[src_idx])
            self.tag = TagCodebook(l=cfg.params.l, words=tag_pool[tag_idx])
            self.src_bits, self.tag_bits = int(self.source.rate_bits), int(self.tag.rate_bits)
            log.info("codebook subsets: source %s, tag %s",
                     src_idx.tolist(), tag_idx.tolist())
        else:
            # a frame's pilot is one Gold word cut to n_pilot: one layout per word
            x_pilot = alternating_pilot(cfg.l_pilot)
            self.n_data = cfg.params.n - cfg.n_pilot
            self.l_data = cfg.params.l - cfg.l_pilot
            self.layouts = [PilotLayout(c_pilot=word[:cfg.n_pilot], x_pilot=x_pilot,
                                        n_data=self.n_data, l_data=self.l_data)
                            for word in self.gold.words]
        # relaxed data penalties default to the noise variance (fixed at 1)
        reg = cfg.reg
        self.reg = replace(reg, lambda_c=1.0 if reg.lambda_c is None else reg.lambda_c,
                           lambda_x=1.0 if reg.lambda_x is None else reg.lambda_x)


def _context_key(cfg: ExperimentConfig) -> str:
    """The JSON of the config fields a context reads.  The trial count and
    the SNR points stay out, so every run and sweep point of one experiment
    shares its codebooks and layouts, and with them the decoders' caches,
    which are keyed by those objects."""
    data = config_to_dict(cfg)
    for key in ("snr_grid", "rho_db", "trials", "axis_values"):
        del data[key]
    return json.dumps(data, sort_keys=True)


@lru_cache(maxsize=8)
def _context_for(key: str) -> _Context:
    return _Context(config_from_dict(json.loads(key)))


# trials per stacked draw: one sample_channel call per link and one
# synthesize_frame call cover this many trials; at 16 the stack's arrays
# stay a few kB per frame, and larger stacks gained no speed but memory
_DRAW_STACK = 16
# most trials per task, so that a task's records stay a few hundred kB
_MAX_CHUNK = 4096


# ---------------------------------------------------------------------------
# trial substreams: numpy's SeedSequence hash (NEP 19, after O'Neill's
# seed_seq) and PCG64's seeding step, run for a whole batch of trials

_MASK32, _MASK128 = 0xFFFFFFFF, (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875      # entropy mixing
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED      # generate_state
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash(value, const, next_const):
    """One hashmix step: ``const`` is the hash constant before the step,
    ``next_const`` = const * mult after it; works on ints and uint64 arrays."""
    value = (value ^ const) * next_const & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    value = (_MIX_L * x - _MIX_R * y) & _MASK32
    return value ^ value >> 16


def _hash_consts(const: int, mult: int, count: int) -> np.ndarray:
    """(count, 2, 1) uint64 (const, next const) pairs of ``count`` hash steps."""
    pairs = []
    for _ in range(count):
        pairs.append((const, const * mult & _MASK32))
        const = pairs[-1][1]
    return np.array(pairs, dtype=np.uint64)[:, :, None]


def _word_count(n: int) -> int:
    """How many 32-bit entropy words SeedSequence makes of a nonnegative int."""
    return max(1, -(-n.bit_length() // 32))


# generate_state(4, uint64) cycles twice over the pool for its 8 words
_STATE_WORDS = np.tile(np.arange(_POOL_SIZE), 2)
_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


@lru_cache(maxsize=64)
def _pool_prefix(seed: int, grid_idx: int) -> tuple[np.ndarray, np.ndarray]:
    """SeedSequence's pool after every entropy word of (seed, 1, grid_idx),
    as a (4, 1) uint64 column, and the (4, 2, 1) hash constants with which
    the trial word, the last entropy word, is mixed into it.

    The pool is numpy's own, ``SeedSequence(seed, spawn_key=(1, grid_idx)).pool``.
    Mixing w entropy words takes 4w hash steps (the seed's words are padded
    to 4, then come 1 and the grid index's words), and each step multiplies
    the hash constant by ``_MULT_A``.
    """
    pool = np.random.SeedSequence(seed, spawn_key=(1, grid_idx)).pool
    column = pool.astype(np.uint64)[:, None]
    words = max(_POOL_SIZE, _word_count(seed)) + 1 + _word_count(grid_idx)
    const = _INIT_A * pow(_MULT_A, 4 * words, 1 << 32) & _MASK32
    consts = _hash_consts(const, _MULT_A, _POOL_SIZE)
    column.setflags(write=False)
    consts.setflags(write=False)
    return column, consts


def _trial_states(seed: int, grid_idx: int, start: int, stop: int) -> list[dict]:
    """The PCG64 states of trials start..stop-1 of grid point ``grid_idx``.

    Entry t equals ``PCG64(SeedSequence(seed, spawn_key=(1, grid_idx, t))).state``
    for every t below 2**32.
    """
    pool, consts = _pool_prefix(seed, grid_idx)
    trials = np.arange(start, stop, dtype=np.uint64)
    pool = _mix(pool, _hash(trials, consts[:, 0], consts[:, 1]))
    words = _hash(pool[_STATE_WORDS], _STATE_CONSTS[:, 0], _STATE_CONSTS[:, 1])
    # little-endian word pairs: state high, state low, seq high, seq low
    states = []
    for st_hi, st_lo, seq_hi, seq_lo in zip(*(words[0::2] | words[1::2] << 32).tolist()):
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        state = (((st_hi << 64 | st_lo) + inc) * _PCG_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


@lru_cache(maxsize=1)
def _draw_generators() -> list[np.random.Generator]:
    """The process's _DRAW_STACK reused Generators; built on first use, and
    every trial sets its generator's whole state before it draws."""
    return [np.random.Generator(np.random.PCG64(0)) for _ in range(_DRAW_STACK)]


def _trial_batch(args):
    key, grid_idx, snr, start, stop = args
    ctx = _context_for(key)
    noise = noise_variance(snr, ctx.cfg.params.n)
    states = _trial_states(ctx.cfg.seed, grid_idx, start, stop)
    gens = _draw_generators()
    stacks = []
    for a in range(0, len(states), _DRAW_STACK):
        stack = states[a:a + _DRAW_STACK]
        for gen, state in zip(gens, stack):
            gen.bit_generator.state = state
        stacks.append(_trial_stack(ctx, noise, gens[:len(stack)]))
    return np.concatenate(stacks)


def _trial_stack(ctx: _Context, noise, rngs: list[np.random.Generator]) -> np.ndarray:
    """The (F, 9) float64 records of a stack of trials, in trial order.

    Record columns: src_bit_err, src_bits, tag_bit_err, tag_bits, e2_str,
    n2_str, e2_sr, n2_sr, iters.  Each trial keeps its own substream, the
    generator ``rngs[f]`` of frame f: the Generator calls (messages, both
    channels, noise) run per trial in the order a lone trial makes them,
    and everything computed from the draws runs on the stack.  Decoding is
    one table call per frame.
    """
    cfg, chan = ctx.cfg, ctx.cfg.channel
    sigma_omega2, sigma_str2, sigma_sr2 = noise
    aided, decode = _SCHEME_TABLE[cfg.scheme]
    f_count = len(rngs)
    if aided:
        side = [ctx.layouts[rng.integers(len(ctx.gold))] for rng in rngs]
        c_data = 1 - 2 * np.array([rng.integers(0, 2, ctx.n_data) for rng in rngs])
        x_data = 1 - 2 * np.array([rng.integers(0, 2, ctx.l_data) for rng in rngs])
        c = np.concatenate([[layout.c_pilot for layout in side], c_data], axis=1)
        x = np.concatenate([[layout.x_pilot for layout in side], x_data], axis=1)
    else:
        messages = np.array([(rng.integers(len(ctx.source)), rng.integers(len(ctx.tag)))
                             for rng in rngs])
        c, x = ctx.source.words[messages[:, 0]], ctx.tag.words[messages[:, 1]]
    # g[f] holds frame f's true (g_str, g_sr), the side input of pilot-free schemes
    g = np.stack([sample_channel(cfg.params.q, chan.n_taps, sigma2, chan.kappa_db,
                                 chan.sparse, rngs)
                  for sigma2 in (sigma_str2, sigma_sr2)], axis=1)
    y = synthesize_frame(c, x, g[:, 0], g[:, 1], sigma_omega2, rngs)
    if not aided:
        side = g
    results = [decode(ctx, y[f], side[f]) for f in range(f_count)]
    g_hat = np.array([(r.g_str_hat, r.g_sr_hat) for r in results])
    e2, n2 = (np.sum(np.abs(v) ** 2, axis=2) for v in (g_hat - g, g))
    if aided:
        src_err = np.count_nonzero(np.array([r.c_data_hat for r in results]) != c_data, axis=1)
        tag_err = np.count_nonzero(np.array([r.x_data_hat for r in results]) != x_data, axis=1)
        bits, iters = (ctx.n_data, ctx.l_data), [r.iters for r in results]
    else:
        # bit errors are popcounts of index XORs; the codebooks hold at most
        # 128 words, so every index fits in one byte
        wrong = messages ^ np.array([(r.c_index, r.x_index) for r in results])
        src_err, tag_err = np.unpackbits(wrong.astype(np.uint8)[..., None],
                                         axis=-1).sum(axis=-1).T
        bits, iters = (ctx.src_bits, ctx.tag_bits), np.zeros(f_count)
    return np.array([src_err, np.full(f_count, bits[0]), tag_err, np.full(f_count, bits[1]),
                     e2[:, 0], n2[:, 0], e2[:, 1], n2[:, 1], iters], dtype=np.float64).T


def _reduce(scheme: str, snr: SnrConfig, batches, trials: int, seed: int) -> MetricsRow:
    # accumulate sums in trial order, so the float sums are reproducible
    # (np.sum would sum pairwise); counts stay exact in float64.  Each batch
    # of records continues the running sum of the batches before it, which
    # is the same left-to-right sum as one pass over all records.
    total = None
    for records in batches:
        if total is not None:
            records = np.concatenate([total[None], records])
        total = np.add.accumulate(records)[-1]
    (src_err, src_bits, tag_err, tag_bits,
     e2_str, n2_str, e2_sr, n2_sr, iters) = total.tolist()
    return MetricsRow(
        scheme=scheme,
        snr_str_db=snr.snr_str_db, snr_sr_db=snr.snr_sr_db,
        ber_source=src_err / src_bits if src_bits else 0.0,
        ber_tag=tag_err / tag_bits if tag_bits else 0.0,
        nrmse_str=math.sqrt(e2_str / n2_str) if n2_str > 0 else 0.0,
        nrmse_sr=math.sqrt(e2_sr / n2_sr) if n2_sr > 0 else 0.0,
        mean_iters=iters / trials,
        trials=trials,
        seed=seed,
        axis_value=snr.snr_sr_db,
    )


def _worker_count(workers) -> int:
    """Validated worker count, capped at the machine's CPU count."""
    require(is_int(workers), f"workers must be an integer, got {workers!r}")
    require(workers >= 1, f"workers must be >= 1, got {workers}")
    return min(int(workers), os.cpu_count() or 1)


@lru_cache(maxsize=1)
def _blas_thread_control():
    """(get, set) of numpy's bundled OpenBLAS thread count; no-ops where not found."""
    try:
        lib = ctypes.CDLL(str(next(Path(np.__file__).parent.parent.glob(
            "numpy.libs/libscipy_openblas64_*.so"))))
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (StopIteration, OSError, AttributeError):
        log.info("numpy's OpenBLAS thread control not found: BLAS keeps its thread count")
        return (lambda: None), (lambda count: None)
    get.argtypes, get.restype, put.argtypes, put.restype = [], ctypes.c_int, [ctypes.c_int], None
    return get, put


def _set_blas_threads(count):
    """Set BLAS to ``count`` threads; returns the count it had (None if not found)."""
    get, put = _blas_thread_control()
    before = get()
    put(count)
    return before


def _run(cfgs: list[ExperimentConfig], workers) -> list[MetricsRow]:
    """One MetricsRow per (config, grid point), in that order.

    Config i's grid point g draws trial t from the substream (seed, 1, i + g,
    t); callers pass one config (run_trials) or one-point configs (sweep), so
    no two points share a substream.  All trial chunks, at most _MAX_CHUNK
    trials each, go through the builtin map, or through one process pool
    when ``workers`` > 1, and each point is reduced in trial order, chunk by
    chunk as they arrive.  BLAS runs on one thread here and in each worker
    until the run ends: a frame's products are too small to gain from BLAS
    worker threads, which stall for milliseconds when other cores are busy.
    """
    workers = _worker_count(workers)
    points, tasks = [], []
    for i, cfg in enumerate(cfgs):
        key = _context_key(cfg)
        chunk = min(_MAX_CHUNK, -(-cfg.trials // (workers * 4)))
        for g, snr in enumerate(cfg.snr_grid):
            starts = range(0, cfg.trials, chunk)
            points.append((cfg, snr, len(starts)))
            tasks += [(key, i + g, snr, a, min(a + chunk, cfg.trials))
                      for a in starts]
    if workers > 1:
        # imported here: the pool modules cost start-up time no serial run needs
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(workers, initializer=_set_blas_threads, initargs=(1,))
    else:
        pool = nullcontext()
    threads = _set_blas_threads(1)
    try:
        with pool:
            batches = iter((pool.map if workers > 1 else map)(_trial_batch, tasks))
            return [_reduce(cfg.scheme, snr, (next(batches) for _ in range(n_batches)),
                            cfg.trials, cfg.seed)
                    for cfg, snr, n_batches in points]
    finally:
        _set_blas_threads(threads)


def run_trials(cfg: ExperimentConfig, workers: int = 1) -> list[MetricsRow]:
    """One MetricsRow per SNR grid point.

    ``workers`` must be at least 1; counts above ``os.cpu_count()`` are
    capped at it.
    """
    return _run([cfg], workers)


def _derived_config(cfg: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    base_sr = cfg.snr_grid[0].snr_sr_db
    if axis == "snr_sr":
        return replace(cfg, snr_grid=[snr_pair(value, cfg.rho_db)])
    if axis == "snr_str":
        return replace(cfg, snr_grid=[SnrConfig(value, value - cfg.rho_db)])
    if axis == "rho":
        return replace(cfg, snr_grid=[snr_pair(base_sr, value)], rho_db=value)
    if axis in ("rate_source", "rate_tag"):
        rate, source = int(value), axis == "rate_source"
        if cfg.scheme in PILOT_FREE_SCHEMES:    # codebook size 2^rate
            change = {"n_source_words" if source else "n_tag_words": 2 ** rate}
        else:                                   # rate data symbols after the pilot
            change = {"n_pilot": cfg.params.n - rate} if source else {
                "l_pilot": cfg.params.l - rate}
        return replace(cfg, snr_grid=[cfg.snr_grid[0]], **change)
    raise ConfigInvalidError(f"unknown sweep axis {axis!r}; pick one of {SWEEP_AXES}")


def sweep(cfg: ExperimentConfig, axis: str, values=None,
          workers: int = 1) -> list[MetricsRow]:
    """One MetricsRow per axis value, derived from the base config.

    snr_sr/snr_str values couple the other link through rho_db; rho values
    hold the base grid point's direct-link SNR fixed; rate values resize the
    codebooks (pilot-free) or the pilot split (pilot-aided).  ``workers`` is
    validated and capped as in :func:`run_trials`.
    """
    values = cfg.axis_values if values is None else values
    values = tuple(values) if np.iterable(values) else ()   # read once: it may be a generator
    require(values, "sweep needs a nonempty iterable of axis values")
    rate_caps = {"rate_source": cfg.params.n, "rate_tag": cfg.params.l}
    for value in values:
        if axis in rate_caps:
            cap = rate_caps[axis]
            require(is_real(value) and 0 <= value <= cap and float(value).is_integer(),
                    f"{axis} values must be whole numbers in [0, {cap}], got {_shown(value)}")
        else:
            require(_db_ok(value), f"{axis} value {_shown(value)} is not a dB value "
                                   "with a finite linear power")
    rows = _run([_derived_config(cfg, axis, value) for value in values], workers)
    for row, value in zip(rows, values):
        row.axis_name = axis
        row.axis_value = float(value)
    return rows


# ---------------------------------------------------------------------------
# serialization


def frame_to_csv(y: np.ndarray) -> str:
    """Debug dump of a frame matrix: one line per PRI, cells as re,im pairs.

    Row p of the frame becomes the line
    ``re(y[p,0]),im(y[p,0]),re(y[p,1]),im(y[p,1]),...`` with full float
    precision, so the dump is text-only and loadable by
    :func:`frame_from_csv`.
    """
    rows = np.asarray(y, dtype=np.complex128).tolist()
    return "".join(",".join(f"{v.real!r},{v.imag!r}" for v in row) + "\n" for row in rows)


def frame_from_csv(text: str) -> np.ndarray:
    """Inverse of :func:`frame_to_csv`; a malformed dump is a ConfigInvalidError."""
    rows = []
    for line in text.strip().split("\n"):
        try:
            parts = [float(tok) for tok in line.split(",")]
        except ValueError as exc:
            raise ConfigInvalidError(f"frame dump cell is not a number: {exc}") from exc
        require(len(parts) % 2 == 0, "frame dump lines need re,im pairs")
        values = np.array(parts).reshape(-1, 2)
        rows.append(values[:, 0] + 1j * values[:, 1])
    require(len({row.size for row in rows}) == 1, "frame dump rows differ in length")
    return np.vstack(rows)


def _fmt(value) -> str:
    return f"{value:.10g}" if isinstance(value, float) else str(value)


def rows_to_csv(rows: list[MetricsRow]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join(_fmt(getattr(row, col)) for col in CSV_COLUMNS) for row in rows]
    return "\n".join(lines) + "\n"


def rows_to_json(rows: list[MetricsRow], cfg: ExperimentConfig | None = None) -> str:
    from . import __version__
    payload = {
        "version": CONFIG_VERSION,
        "build": f"radartag-{__version__}",
        "rows": [asdict(row) for row in rows],
    }
    if cfg is not None:
        payload["config"] = config_to_dict(cfg)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return {
        "version": CONFIG_VERSION,
        "scheme": cfg.scheme,
        "params": asdict(cfg.params),
        "snr_grid": [asdict(s) for s in cfg.snr_grid],
        "rho_db": cfg.rho_db,
        "reg": asdict(cfg.reg),
        "channel": asdict(cfg.channel),
        "codebook": (None if cfg.n_source_words is None else
                     {"n_source": cfg.n_source_words, "n_tag": cfg.n_tag_words}),
        "layout": (None if cfg.n_pilot is None else
                   {"n_pilot": cfg.n_pilot, "l_pilot": cfg.l_pilot}),
        "trials": cfg.trials,
        "seed": cfg.seed,
        "axis_values": None if cfg.axis_values is None else list(cfg.axis_values),
    }


# the keys config_from_dict reads, at the top level and inside its two
# plain-dict blocks; any other key is a config error, not silently ignored
_CONFIG_KEYS = frozenset({"version", "scheme", "params", "snr_grid", "snr_sr_db",
                          "rho_db", "reg", "channel", "codebook", "layout", "trials",
                          "seed", "axis_values"})
_BLOCK_KEYS = {"codebook": frozenset({"n_source", "n_tag"}),
               "layout": frozenset({"n_pilot", "l_pilot"})}


def config_from_dict(data: dict) -> ExperimentConfig:
    require(isinstance(data, dict), f"a config is a JSON object, not {type(data).__name__}")
    unknown = {str(key) for key in set(data) - _CONFIG_KEYS}
    for name, known in _BLOCK_KEYS.items():
        if isinstance(data.get(name), dict):
            unknown |= {f"{name}.{key}" for key in set(data[name]) - known}
    require(not unknown, f"unknown config keys {sorted(unknown)}")
    try:
        require(data.get("version", CONFIG_VERSION) == CONFIG_VERSION,
                f"unsupported config version {data.get('version')}")
        rho_db = data.get("rho_db", -5.0)
        if data.get("snr_grid") is not None:
            grid = [SnrConfig(**point) for point in data["snr_grid"]]
        else:
            sr = data.get("snr_sr_db", 20.0)
            sr_values = sr if isinstance(sr, (list, tuple)) else [sr]
            require(all(map(is_real, sr_values)),
                    f"snr_sr_db must be a number or a list of numbers, got {sr!r}")
            grid = [snr_pair(float(v), rho_db) for v in sr_values]
        codebook, layout = data.get("codebook"), data.get("layout")
        return ExperimentConfig(
            params=SystemParams(**data.get("params", {})),
            scheme=data.get("scheme", "pilot_free_joint"), snr_grid=grid, rho_db=rho_db,
            reg=RegularizationConfig(**data.get("reg", {})),
            channel=ChannelConfig(**data.get("channel", {})),
            n_source_words=codebook["n_source"] if codebook else None,
            n_tag_words=codebook["n_tag"] if codebook else None,
            n_pilot=layout["n_pilot"] if layout else None,
            l_pilot=layout["l_pilot"] if layout else None,
            trials=data.get("trials", 1000), seed=data.get("seed", 0),
            axis_values=data.get("axis_values"))
    except ConfigInvalidError:
        raise
    except (TypeError, KeyError, ValueError, OverflowError) as exc:
        raise ConfigInvalidError(f"malformed config: {exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    # ValueError: bad JSON, not UTF-8, or an int of over 4300 digits;
    # RecursionError: nesting too deep to parse
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigInvalidError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(data)
