"""Frame synthesis: system geometry, SNR bookkeeping, and the observed matrix.

One frame is l pulse repetition intervals; each PRI contributes k = n + q
fast-time samples, arranged as one row of the l x k observation.  The
signal part is rank <= 2: an outer product of the tag codeword with the
backscatter pulse shape plus an outer product of all-ones with the direct
pulse shape.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channel import _generator_stack, conv_matrix_from_code
from .errors import DimensionMismatchError

__all__ = [
    "SystemParams",
    "SnrConfig",
    "AssumptionReport",
    "check_assumptions",
    "noise_variance",
    "snr_pair",
    "synthesize_frame",
]


@dataclass
class SystemParams:
    """Frame geometry plus the physical constants used by the feasibility checks."""

    n: int = 31            # source codeword length (chips)
    l: int = 10            # tag codeword length (PRIs)
    q: int = 2             # delay spread (bins); channels have q+1 taps
    n_pri: int = 150       # delay bins per PRI
    pri_s: float = 3e-6    # PRI duration (seconds)
    nu_max_hz: float = 0.0 # max absolute Doppler / carrier offset (Hz)

    def __post_init__(self):
        if self.n < 1 or self.l < 1 or self.q < 0:
            raise ValueError("need n >= 1, l >= 1, q >= 0")
        if self.n_pri < 1 or self.pri_s <= 0 or self.nu_max_hz < 0:
            raise ValueError("invalid PRI parameters")

    @property
    def k(self) -> int:
        """Fast-time samples per PRI."""
        return self.n + self.q


@dataclass
class SnrConfig:
    """Per-link SNR targets in dB; -inf switches a link off."""

    snr_str_db: float
    snr_sr_db: float


# the channel counts as constant over a frame when l * pri_s * nu_max is below this
COHERENCE_THRESHOLD = 0.1


@dataclass
class AssumptionReport:
    coherence_ok: bool
    timing_ok: bool
    coherence_product: float     # l * pri_s * nu_max
    nu_max_bound_hz: float       # "much less than" bound 1 / (l * pri_s)
    n_pri_required: int          # n + q_max (exclusive lower bound on n_pri)


def check_assumptions(params: SystemParams) -> AssumptionReport:
    """Feasibility report for the block-constant-channel and timing assumptions.

    The channel is treated as constant over the frame when
    l * pri_s * nu_max is below ``COHERENCE_THRESHOLD``, and the PRI must fit
    the pulse plus the largest delay: n_pri > n + q.
    """
    product = params.l * params.pri_s * params.nu_max_hz
    bound = 1.0 / (params.l * params.pri_s)
    q_max = params.q  # earliest arrival pinned to delay bin zero
    return AssumptionReport(
        coherence_ok=product < COHERENCE_THRESHOLD,
        timing_ok=params.n_pri > params.n + q_max,
        coherence_product=product,
        nu_max_bound_hz=bound,
        n_pri_required=params.n + q_max,
    )


def noise_variance(snr: SnrConfig, n: int) -> tuple[float, float, float]:
    """Fix the noise variance to one and back out the per-link tap powers.

    The per-link SNR is n * sigma_i^2 / sigma_omega^2 for unimodular
    length-n codewords, so sigma_i^2 = 10^(snr_db/10) / n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    sigma_str2 = float(10.0 ** (snr.snr_str_db / 10.0) / n)
    sigma_sr2 = float(10.0 ** (snr.snr_sr_db / 10.0) / n)
    return 1.0, sigma_str2, sigma_sr2


def snr_pair(snr_sr_db: float, rho_db: float) -> SnrConfig:
    """SNR pair from the direct-link SNR and the power-imbalance ratio (dB)."""
    return SnrConfig(snr_str_db=snr_sr_db + rho_db, snr_sr_db=snr_sr_db)


def _checked_frame(y, l: int | None, n: int) -> tuple[np.ndarray, int]:
    """The one input check of every decoder: (complex frame, q = k - n).

    The frame must be a finite 2-D array with ``l`` rows (any number when
    ``l`` is None) and at least ``n`` columns.
    """
    y = np.asarray(y, dtype=np.complex128)
    if y.ndim != 2:
        raise DimensionMismatchError(f"frame must be 2-D, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("frame contains non-finite samples")
    big_l, k = y.shape
    if l is not None and big_l != l:
        raise DimensionMismatchError(f"frame has {big_l} PRIs, expected {l}")
    if k < n:
        raise DimensionMismatchError(f"frame has {k} fast-time samples, needs {n}")
    return y, k - n


def synthesize_frame(c, x, g_str, g_sr, sigma_omega2: float,
                     rng: np.random.Generator | Sequence[np.random.Generator]
                     ) -> np.ndarray:
    """One received l x k frame: y = x a_str^T + 1 a_sr^T + noise.

    a_i is the pulse shape of codeword c through channel taps g_i; noise
    entries are i.i.d. circular complex Gaussian with variance sigma_omega2.

    ``rng`` is one Generator, or a sequence of F of them; with F generators
    ``c``, ``x`` and both tap arrays carry one row per frame, and the result
    is the (F, l, k) stack whose frame f equals the single call on row f
    with generator f.
    """
    rngs, single = _generator_stack(rng)
    c, x, g_str, g_sr = (np.asarray(v, dtype=np.complex128) for v in (c, x, g_str, g_sr))
    if single:
        c, x, g_str, g_sr = c[None], x[None], g_str[None], g_sr[None]
    if any(v.ndim != 2 or len(v) != len(rngs) for v in (c, x, g_str, g_sr)):
        raise DimensionMismatchError(
            f"codewords and taps need one row per generator ({len(rngs)})")
    if g_str.shape != g_sr.shape or g_str.shape[1] < 1:
        raise DimensionMismatchError("channels must share the same delay spread")
    if sigma_omega2 < 0:
        raise ValueError("sigma_omega2 must be nonnegative")
    xi = conv_matrix_from_code(c, g_str.shape[1] - 1)
    a_str = (xi @ g_str[:, :, None])[:, :, 0]
    a_sr = (xi @ g_sr[:, :, None])[:, :, 0]
    f_count, l, k = len(rngs), x.shape[1], a_str.shape[1]
    y = x[:, :, None] * a_str[:, None, :] + np.ones((l, 1)) * a_sr[:, None, :]
    if sigma_omega2 > 0:
        noise = np.empty((2, f_count, l, k))     # real parts, imaginary parts
        for f, gen in enumerate(rngs):
            gen.standard_normal(out=noise[0, f])
            gen.standard_normal(out=noise[1, f])
        scale = np.sqrt(sigma_omega2 / 2.0)
        y += scale * (noise[0] + 1j * noise[1])
    return y[0] if single else y
