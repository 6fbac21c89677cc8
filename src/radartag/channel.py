"""Tapped-delay-line channels and the convolution-structured maps they induce.

A channel is a vector of q+1 complex taps.  A codeword c of length n and a
channel g interact through the (n+q) x (q+1) Toeplitz convolution matrix
whose columns are delayed copies of c; the received pulse shape is its
product with the taps.  The dual factorization (channel-generated Toeplitz
matrix times the codeword) is what the pilot-aided decoders exploit.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatchError, TooManyTapsError

__all__ = [
    "sample_channel",
    "conv_matrix_from_code",
    "response_vector",
    "conv_matrix_from_channel",
]


def _generator_stack(rng) -> tuple[list[np.random.Generator], bool]:
    """(generators, single): one Generator is the F = 1 stack, squeezed on return."""
    if isinstance(rng, np.random.Generator):
        return [rng], True
    return list(rng), False


def sample_channel(q: int, n_taps: int, sigma2: float, kappa_db: float,
                   sparse: bool,
                   rng: np.random.Generator | Sequence[np.random.Generator]) -> np.ndarray:
    """Draw the (q+1,) complex tap vector, ``n_taps`` of its entries nonzero.

    Each nonzero tap is sqrt(sigma2) times a specular term of deterministic
    magnitude and uniform phase plus a circular complex Gaussian diffuse
    term, mixed by the linear specular-to-diffuse ratio 10^(kappa_db/10) so
    that E|tap|^2 = sigma2.  Dense mode uses delays 0..n_taps-1; sparse mode
    draws the support uniformly without replacement.

    ``rng`` is one Generator, or a sequence of F of them for an (F, q+1)
    stack whose row f equals the single draw from generator f.
    """
    if n_taps < 1 or n_taps > q + 1:
        raise TooManyTapsError(f"n_taps must lie in [1, {q + 1}], got {n_taps}")
    if sigma2 < 0:
        raise ValueError("sigma2 must be nonnegative")
    rngs, single = _generator_stack(rng)
    f_count = len(rngs)
    support = np.empty((f_count, n_taps), dtype=np.int64)
    # per frame: phases, diffuse real parts, diffuse imaginary parts; the
    # phases are uniform(0, 2 pi) draws, which numpy computes as 0 + 2 pi u
    draws = np.empty((f_count, 3, n_taps))
    for f, gen in enumerate(rngs):
        if sparse:
            support[f] = gen.choice(q + 1, size=n_taps, replace=False)
        gen.random(out=draws[f, 0])
        gen.standard_normal(out=draws[f, 1:])
    draws[:, 0] *= 2.0 * np.pi
    if math.isinf(kappa_db):
        spec_frac, diff_frac = (1.0, 0.0) if kappa_db > 0 else (0.0, 1.0)
    else:
        kappa = 10.0 ** (kappa_db / 10.0)
        spec_frac = kappa / (1.0 + kappa)
        diff_frac = 1.0 / (1.0 + kappa)
    phases, diffuse_re, diffuse_im = draws.transpose(1, 0, 2)
    diffuse = (diffuse_re + 1j * diffuse_im) / np.sqrt(2.0)
    values = np.sqrt(sigma2) * (np.sqrt(spec_frac) * np.exp(1j * phases)
                                + np.sqrt(diff_frac) * diffuse)
    taps = np.zeros((f_count, q + 1), dtype=np.complex128)
    if sparse:
        np.put_along_axis(taps, np.sort(support, axis=-1), values, axis=-1)
    else:
        taps[:, :n_taps] = values
    return taps[0] if single else taps


@lru_cache(maxsize=64)
def _delay_index(m: int, d: int) -> np.ndarray:
    """Gather index of the (m+d) x (d+1) delay matrix of a length-m vector.

    Entry (i, j) points at v[i - j] inside [d zeros, v, d zeros], so that
    column j of the gathered matrix is v delayed by j.
    """
    idx = d + np.arange(m + d)[:, None] - np.arange(d + 1)[None, :]
    idx.setflags(write=False)
    return idx


def conv_matrix_from_code(c, q: int) -> np.ndarray:
    """(n+q) x (q+1) Toeplitz matrix whose column j is c delayed by j.

    Leading axes of ``c`` are a stack of codewords, one matrix each.
    """
    c = np.asarray(c, dtype=np.complex128)
    if c.ndim < 1 or c.shape[-1] < 1:
        raise DimensionMismatchError("codeword must be a nonempty vector")
    if q < 0:
        raise ValueError("q must be nonnegative")
    n = c.shape[-1]
    padded = np.zeros(c.shape[:-1] + (n + 2 * q,), dtype=np.complex128)
    padded[..., q:q + n] = c
    return padded.take(_delay_index(n, q), axis=-1)


def response_vector(c, g) -> np.ndarray:
    """Received pulse shape of codeword c through channel taps g: length n+q."""
    taps = np.asarray(g, dtype=np.complex128)
    if taps.ndim != 1 or taps.size < 1:
        raise DimensionMismatchError("channel taps must be a nonempty vector")
    return conv_matrix_from_code(c, taps.size - 1) @ taps


def conv_matrix_from_channel(g, n_pilot: int, n_data: int) -> tuple[np.ndarray, np.ndarray]:
    """Channel-generated convolution matrix, split into pilot/data columns.

    The horizontal concatenation is the (n+q) x n Toeplitz matrix of the
    taps, so that Gamma_P c_P + Gamma_D c_D equals the response vector of
    c = [c_P; c_D] through g for every codeword split.  Leading axes of
    ``g`` are a stack of channels, one split matrix each.
    """
    taps = np.asarray(g, dtype=np.complex128)
    n = n_pilot + n_data
    if n_pilot < 0 or n_data < 0 or n < 1:
        raise DimensionMismatchError("pilot/data lengths must be nonnegative, n >= 1")
    if taps.ndim < 1 or taps.shape[-1] < 1:
        raise DimensionMismatchError("channel taps must be a nonempty vector")
    full = conv_matrix_from_code(taps, n - 1)
    return full[..., :n_pilot], full[..., n_pilot:]
