"""Source and tag codebook construction, identifiability checks, waveform scores.

The source codebook holds +/-1 radar codewords (Gold sequences by default);
the tag codebook holds +/-1 slow-time codewords that sum to zero.  Both are
immutable: the constructors copy the words into read-only int64 arrays and
validate them once, so every later reader may trust them.  Both come with
the rank checks that guarantee noiseless identifiability, plus
aperiodic-autocorrelation quality metrics (PSL/ISLR) for the radar side.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from .channel import conv_matrix_from_code
from .errors import (
    EmptyCodebookError,
    InfeasibleDimensionsError,
    NotPreferredPairError,
    OddLengthError,
    RateTooLargeError,
    UnsupportedDegreeError,
)
from .solvers import numeric_rank

__all__ = [
    "SourceCodebook",
    "TagCodebook",
    "WaveformQuality",
    "PilotTableRow",
    "DEFAULT_GOLD_PAIR",
    "gen_gold",
    "gen_tag_codebook",
    "check_tag_separability",
    "check_source_separability",
    "check_pilot_conditions",
    "waveform_quality",
    "pilot_table",
]

# x^5 + x^2 + 1 and x^5 + x^4 + x^3 + x^2 + 1, given as exponent tuples.
DEFAULT_GOLD_PAIR = ((5, 2, 0), (5, 4, 3, 2, 0))
# most data suffixes pilot_table enumerates per pilot (2^rate)
PSL_BUDGET = 2 ** 16


def _freeze_words(book, length: int) -> None:
    """Copy ``book.words`` into a validated read-only int64 array, in place."""
    words = np.asarray(book.words)
    if words.ndim != 2 or words.shape[1] != length:
        raise ValueError(f"words must be a (count, {length}) array")
    if words.shape[0] == 0:
        raise EmptyCodebookError("a codebook needs at least one codeword")
    # checked before the int64 cast, which would truncate 1.7 to 1
    if words.dtype.kind not in "iuf" or not np.all(np.abs(words) == 1):
        raise ValueError("codewords must be real and unimodular (+1/-1)")
    words = words.astype(np.int64)
    if np.unique(words, axis=0).shape[0] != words.shape[0]:
        raise ValueError("codewords must be distinct")
    words.setflags(write=False)
    object.__setattr__(book, "words", words)


class _Words:
    """Size and rate of a codebook, read off its words."""

    def __len__(self) -> int:
        return self.words.shape[0]

    @property
    def rate_bits(self) -> float:
        return float(np.log2(len(self)))


@dataclass(frozen=True, eq=False)
class SourceCodebook(_Words):
    """Finite set of length-n +/-1 radar codewords; immutable, compared by identity."""

    n: int
    words: np.ndarray

    def __post_init__(self):
        _freeze_words(self, self.n)


@dataclass(frozen=True, eq=False)
class TagCodebook(_Words):
    """Finite set of length-l zero-sum +/-1 slow-time codewords; immutable,
    compared by identity."""

    l: int
    words: np.ndarray

    def __post_init__(self):
        _freeze_words(self, self.l)
        if np.any(self.words.sum(axis=1) != 0):
            raise ValueError("tag codewords must sum to zero")


@dataclass
class WaveformQuality:
    """Aperiodic-autocorrelation scores: peak sidelobe and integrated sidelobe."""

    psl_db: float
    islr_db: float


@dataclass
class PilotTableRow:
    rate: int
    psl_db: float
    islr_db: float


def _poly_to_taps(poly) -> tuple[int, list[int]]:
    exps = sorted(set(int(e) for e in poly), reverse=True)
    if len(exps) < 2 or exps[-1] != 0:
        raise ValueError(f"polynomial {poly} must include the constant term")
    degree = exps[0]
    return degree, [e for e in exps if 0 < e < degree]


def _m_sequence(degree: int, poly) -> np.ndarray:
    """Bipolar maximal-length sequence for one primitive polynomial."""
    pdeg, taps = _poly_to_taps(poly)
    if pdeg != degree:
        raise ValueError(f"polynomial {poly} does not have degree {degree}")
    # Fibonacci LFSR from the all-ones state; the register is a ring buffer
    # whose oldest bit, at ``idx``, is both the output and the feedback slot.
    state = [1] * degree
    bits = np.empty(2 ** degree - 1, dtype=np.int64)
    idx = 0
    for i in range(bits.size):
        bit = state[idx]
        bits[i] = bit
        for t in taps:
            bit ^= state[(t + idx) % degree]
        state[idx] = bit
        idx = (idx + 1) % degree
    return 1 - 2 * bits


def _periodic_corr_values(u: np.ndarray, v: np.ndarray) -> set[int]:
    return {int(np.dot(u, np.roll(v, k))) for k in range(u.size)}


def gen_gold(degree: int = 5, preferred_pair=None) -> SourceCodebook:
    """Build the full Gold family: 2^degree + 1 bipolar words of length 2^degree - 1.

    ``preferred_pair`` is a pair of primitive polynomials given as exponent
    tuples, e.g. ``((5, 2, 0), (5, 4, 3, 2, 0))`` for x^5+x^2+1 and
    x^5+x^4+x^3+x^2+1 (the shipped default).  The pair is validated by
    checking that each m-sequence has the two-valued periodic
    autocorrelation {-1, 2^degree - 1} and that their periodic
    cross-correlation takes at most three values.
    """
    if degree < 3 or degree % 4 == 0:
        raise UnsupportedDegreeError(
            f"no Gold preferred pair exists for degree {degree}"
        )
    if preferred_pair is None:
        if degree != 5:
            raise UnsupportedDegreeError(
                f"no default preferred pair shipped for degree {degree}; pass one"
            )
        preferred_pair = DEFAULT_GOLD_PAIR
    n = 2 ** degree - 1
    u = _m_sequence(degree, preferred_pair[0])
    v = _m_sequence(degree, preferred_pair[1])
    for seq, poly in ((u, preferred_pair[0]), (v, preferred_pair[1])):
        if _periodic_corr_values(seq, seq) != {n, -1}:
            raise NotPreferredPairError(
                f"{poly} is not primitive: sequence is not maximal length"
            )
    cross = _periodic_corr_values(u, v)
    if len(cross) > 3:
        raise NotPreferredPairError(
            f"cross-correlation takes {len(cross)} values, expected at most 3: "
            f"{sorted(cross)}"
        )
    words = np.vstack([u, v] + [u * np.roll(v, -k) for k in range(n)])
    return SourceCodebook(n=n, words=words)


def gen_tag_codebook(l: int) -> TagCodebook:
    """All zero-sum +/-1 words of even length l, one per antipodal pair.

    The kept representative is the lexicographically smaller word under the
    ordering +1 < -1, i.e. the one starting with +1, so the codebook is
    deterministic.  Cardinality is C(l, l/2) / 2.
    """
    if l % 2 != 0:
        raise OddLengthError(f"zero-sum +/-1 words need even length, got {l}")
    if l < 4:
        raise ValueError("tag codebook needs length >= 4")
    words = []
    for neg_positions in combinations(range(1, l), l // 2):
        w = np.ones(l, dtype=np.int64)
        w[list(neg_positions)] = -1
        words.append(w)
    return TagCodebook(l=l, words=np.vstack(words))


def check_tag_separability(codebook: TagCodebook) -> bool:
    """True iff every distinct pair spans two dimensions.

    Two +/-1 words span one dimension exactly when one is the other up to
    sign, so the pairwise rank test is a uniqueness test on the words signed
    to start with +1.
    """
    words = codebook.words
    if len(codebook) < 2:
        raise ValueError("need at least two tag codewords")
    signed = words * words[:, :1]
    return np.unique(signed, axis=0).shape[0] == len(codebook)


def check_source_separability(codebook: SourceCodebook, q: int) -> bool:
    """True iff stacked convolution matrices of every pair have full rank 2(q+1)."""
    n = codebook.n
    if n < q + 2:
        raise InfeasibleDimensionsError(
            f"need n >= q + 2 for separability, got n={n}, q={q}"
        )
    mats = conv_matrix_from_code(codebook.words, q)
    # row i: one stacked rank over its pairs (i, j > i)
    for i in range(len(codebook) - 1):
        rest = mats[i + 1:]
        pairs = np.concatenate([np.broadcast_to(mats[i], rest.shape), rest], axis=-1)
        if np.any(numeric_rank(pairs) != 2 * (q + 1)):
            return False
    return True


def check_pilot_conditions(x_pilot, c_pilot, q: int) -> bool:
    """Rank checks enabling pilot-based recovery.

    Requires rank([x_pilot, 1]) == 2 and the first len(c_pilot) rows of the
    source convolution matrix to have rank q+1.
    """
    x_pilot = np.asarray(x_pilot, dtype=np.complex128)
    c_pilot = np.asarray(c_pilot, dtype=np.complex128)
    lp = x_pilot.size
    tag_mat = np.stack([x_pilot, np.ones(lp, dtype=np.complex128)], axis=1)
    if numeric_rank(tag_mat) != 2:
        return False
    xi_pilot = conv_matrix_from_code(c_pilot, q)[: c_pilot.size, :]
    return numeric_rank(xi_pilot) == q + 1


def _autocorr_quality_batch(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Linear-scale PSL ratio and ISLR ratio for each row of ``words``."""
    n = words.shape[1]
    nfft = 1 << int(2 * n - 1).bit_length()
    spectrum = np.fft.rfft(words, nfft)
    r = np.fft.irfft(np.abs(spectrum) ** 2, nfft)[:, :n]  # lags 0..n-1
    peak = r[:, 0]
    side = r[:, 1:]
    psl = np.max(np.abs(side), axis=1) / peak
    islr = 2.0 * np.sum(side ** 2, axis=1) / peak ** 2  # two-sided energy
    return psl, islr


def waveform_quality(c) -> WaveformQuality:
    """PSL and ISLR of one codeword's aperiodic autocorrelation, in dB."""
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 1 or c.size < 2:
        raise ValueError("codeword must be a vector of length >= 2")
    psl, islr = _autocorr_quality_batch(c[None, :])
    return WaveformQuality(psl_db=float(20.0 * np.log10(psl[0])),
                           islr_db=float(10.0 * np.log10(islr[0])))


@lru_cache(maxsize=32)
def _binary_candidates(width: int) -> np.ndarray:
    """All +/-1 words of the given width, index 0 being all +1 (read-only)."""
    cands = np.array(list(product((1, -1), repeat=width)),
                     dtype=np.int64).reshape(2 ** width, width)
    cands.setflags(write=False)
    return cands


def pilot_table(codebook: SourceCodebook, data_rates) -> list[PilotTableRow]:
    """Averaged worst-case waveform quality versus source data rate.

    For each rate R, pilot i is the first n-R chips of codebook word i; the
    worst PSL/ISLR over all 2^R binary data suffixes is taken per pilot and
    the worst-case ratios are then averaged (linear scale) over the pilots.
    """
    rows = []
    n = codebook.n
    for rate in data_rates:
        rate = int(rate)
        if rate < 0 or rate >= n:
            raise ValueError(f"rate must lie in [0, {n}), got {rate}")
        if 2 ** rate > PSL_BUDGET:
            raise RateTooLargeError(
                f"2^{rate} data suffixes exceed the enumeration budget {PSL_BUDGET}"
            )
        n_pilot = n - rate
        suffixes = _binary_candidates(rate)
        worst_psl = np.empty(len(codebook))
        worst_islr = np.empty(len(codebook))
        for i, word in enumerate(codebook.words):
            pilots = np.tile(word[:n_pilot], (suffixes.shape[0], 1))
            candidates = np.hstack([pilots, suffixes]).astype(np.float64)
            psl, islr = _autocorr_quality_batch(candidates)
            worst_psl[i] = psl.max()
            worst_islr[i] = islr.max()
        rows.append(PilotTableRow(
            rate=rate,
            psl_db=float(20.0 * np.log10(worst_psl.mean())),
            islr_db=float(10.0 * np.log10(worst_islr.mean())),
        ))
    return rows
