"""Decoders for the pilot-free scheme: whole-codeword modulation on both links.

The zero-sum constraint on the tag codebook makes the backscatter and
direct components orthogonal in slow time, so the full regularized LS
objective splits, per candidate pair (c, x), into

    -(1/L) ||Y^T x*||^2
    + L ||(1/L) Y^T x* - Xi_c g_str||^2 + lambda_str phi(g_str)   (backscatter fit)
    + L ||(1/L) Y^T 1  - Xi_c g_sr ||^2 + lambda_sr  phi(g_sr)    (direct fit)

up to candidate-independent terms.  Joint decoding scores every pair with
the channel fits at their per-candidate minimizers; disjoint decoding picks
the tag codeword first by slow-time correlation energy, then the source
codeword.  With phi = squared norm the channel fits are closed-form ridge
solutions, and a fit's value at its minimizer is the quadratic form
||u||^2/L - Re(u^H Xi_c Op_c u) with Op_c = (L Xi_c^H Xi_c + lambda I)^{-1} Xi_c^H,
so every candidate is scored by one matmul against a cached operator block
per codebook.  With phi = l1 the fits are LASSO problems solved by FISTA.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import conv_matrix_from_code
from .codebooks import SourceCodebook, TagCodebook
from .errors import DimensionMismatchError, EmptyCodebookError, SingularSystemError
from .framesim import _checked_frame
from .solvers import RegularizationConfig, _power_iteration_largest, fista_stacked
# fista_precomputed has no caller here; it stays importable from this module
# because perfbench/spans.py traces the name at this site
from .solvers import fista_precomputed  # noqa: F401

__all__ = [
    "PilotFreeResult",
    "channel_estimates_given",
    "decode_joint",
    "decode_disjoint",
    "decode_perfect_csi",
]

log = logging.getLogger(__name__)

# most multiply-adds in one Y^T X^T product.  On a 2-core x86 VM, OpenBLAS
# handed complex products of 67k-81k multiply-adds and more to its worker
# threads, which stall for milliseconds when the other cores are busy, so
# larger tag codebooks (128 words at l >= 16) are projected in column chunks
_PROJECTION_MACS = 60_000


@dataclass
class PilotFreeResult:
    """Decoded pair, channel estimates at that pair, and the objective value."""

    c_index: int
    x_index: int
    g_str_hat: np.ndarray
    g_sr_hat: np.ndarray
    metric: float


@lru_cache(maxsize=64)
def _cached_xi_stack(words_bytes: bytes, m: int, n: int, q: int) -> np.ndarray:
    """Convolution matrices of every source codeword, stacked (Mc, n+q, q+1)."""
    words = np.frombuffer(words_bytes, dtype=np.int64).reshape(m, n)
    xis = conv_matrix_from_code(words, q)
    xis.setflags(write=False)
    return xis


def _operators(xis, big_l: int, lam_str: float, lam_sr: float, l1: bool):
    """Stacked operators of a codeword stack: (xis, block, grams, lips).

    ``block[c]`` is [Xi_c^H; Op_str; Op_sr], shape (3(q+1), n+q), with the
    ridge solve operators Op = (L Xi_c^H Xi_c + lam I)^{-1} Xi_c^H.  One
    matmul of the block against slow-time projections gives every
    codeword's Xi^H u and both ridge channel estimates.  ``grams`` is the
    (Mc, q+1, q+1) stack L Xi^H Xi and ``lips`` their largest eigenvalues,
    which only the l1 fits read (None for l2).
    """
    xi_h = xis.conj().transpose(0, 2, 1)
    grams = big_l * (xi_h @ xis)
    eye = np.eye(xis.shape[2])
    try:
        ops_str = np.linalg.solve(grams + lam_str * eye, xi_h)
        ops_sr = np.linalg.solve(grams + lam_sr * eye, xi_h)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            "unregularized channel estimate needs full-column-rank "
            "convolution matrices"
        ) from exc
    block = np.concatenate([xi_h, ops_str, ops_sr], axis=1)
    block.setflags(write=False)
    grams.setflags(write=False)
    if not l1:
        return xis, block, grams, None
    lips = np.array([_power_iteration_largest(gram) for gram in grams])
    lips.setflags(write=False)
    return xis, block, grams, lips


@lru_cache(maxsize=64)
def _cached_source_ops(words_bytes: bytes, m: int, n: int, q: int, big_l: int,
                       lam_str: float, lam_sr: float, l1: bool):
    """:func:`_operators` of a source codebook, built once per (codebook, q,
    L, lambdas, penalty)."""
    return _operators(_cached_xi_stack(words_bytes, m, n, q), big_l, lam_str, lam_sr, l1)


def _words_key(source: SourceCodebook) -> tuple[bytes, int, int]:
    words = np.ascontiguousarray(source.words, dtype=np.int64)
    return words.tobytes(), words.shape[0], words.shape[1]


def _source_ops(source: SourceCodebook, q: int, big_l: int, reg: RegularizationConfig):
    return _cached_source_ops(*_words_key(source), q, big_l,
                              float(reg.lambda_str), float(reg.lambda_sr), reg.kind == "l1")


def _residual_fits(xis, u_cols, u_ones, gam_str, gam_sr, big_l, reg):
    """Both families' fits L ||u/L - Xi_c g||^2 + lam phi(g) at given estimates."""
    def fits(u, gam, lam):
        resid = u[None, :, :] / big_l - xis @ gam
        penalty = np.abs(gam) ** 2 if reg.kind == "l2" else np.abs(gam)
        return big_l * np.sum(np.abs(resid) ** 2, axis=1) + lam * np.sum(penalty, axis=1)

    return (fits(u_cols, gam_str, reg.lambda_str),
            fits(u_ones[:, None], gam_sr[:, :, None], reg.lambda_sr)[:, 0])


def _candidate_fits(ops, u_cols, u_ones, big_l, reg):
    """Channel fits of every source codeword against every projection column.

    Returns (f_str (Mc, r), gam_str (Mc, q+1, r), f_sr (Mc,), gam_sr
    (Mc, q+1)).  ``f_str`` is the backscatter fit minus the projection
    energy ||u||^2/L, i.e. the tag-dependent part of the joint objective;
    ``f_sr`` is the direct fit.  One matmul of the operator block against
    [u_cols, u_ones] gives Xi^H u and the ridge estimates of every
    codeword.  With l2 those estimates are the minimizers and a fit is
    ||u||^2/L - Re(u^H Xi Op u); with l1 they warm-start one stacked FISTA
    run over all r + 1 columns, in which the direct fit is its own stop
    family with its own weight.
    """
    xis, block, grams, lips = ops
    q1 = block.shape[1] // 3
    r = u_cols.shape[1]
    u_all = np.column_stack([u_cols, u_ones])
    # stacked, each BLAS call is one codeword in size; one 2-D product of the
    # whole block is big enough for OpenBLAS to use worker threads, which
    # stall for milliseconds when the other cores are busy
    prod = block @ u_all
    atb = prod[:, :q1]
    gam_str = prod[:, q1:2 * q1, :r]
    gam_sr = prod[:, 2 * q1:, r]
    if reg.kind == "l2":
        f_str = -np.einsum("cij,cij->cj", atb[:, :, :r].conj(), gam_str).real
        f_sr = (float(np.sum(np.abs(u_ones) ** 2)) / big_l
                - np.einsum("ci,ci->c", atb[:, :, r].conj(), gam_sr).real)
        return f_str, gam_str, f_sr, gam_sr

    energy = np.sum(np.abs(u_all) ** 2, axis=0) / big_l
    lam = np.repeat([reg.lambda_str, reg.lambda_sr], [r, 1])
    warm = np.concatenate([gam_str, gam_sr[:, :, None]], axis=2)
    gam = fista_stacked(grams, atb, np.broadcast_to(energy, (block.shape[0], r + 1)), lips,
                        lam, reg, warm, families=np.repeat([0, 1], [r, 1])).gamma
    gam_str, gam_sr = gam[:, :, :r], gam[:, :, r]
    f_str, f_sr = _residual_fits(xis, u_cols, u_ones, gam_str, gam_sr, big_l, reg)
    return f_str - energy[:r], gam_str, f_sr, gam_sr


def _tag_projections(y, tag: TagCodebook) -> np.ndarray:
    """Y^T x for every tag word x, as the columns of a (k, |X|) array.

    Computed in column chunks of at most ``_PROJECTION_MACS`` multiply-adds;
    a codebook that fits in one chunk takes a single product.
    """
    words_t = tag.words.T.astype(np.complex128)     # words are real
    big_l, k = y.shape
    chunk = max(1, _PROJECTION_MACS // (big_l * k))
    parts = [y.T @ words_t[:, i:i + chunk] for i in range(0, words_t.shape[1], chunk)]
    # one chunk skips the copy, about 2 us of a small pilot-free decode
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


def _frame_dims(y, source: SourceCodebook, tag: TagCodebook) -> tuple[np.ndarray, int]:
    if len(source) < 1 or len(tag) < 1:
        raise EmptyCodebookError("both codebooks must be nonempty")
    return _checked_frame(y, tag.l, source.n)


def channel_estimates_given(c, x, y, reg: RegularizationConfig):
    """Channel estimates for a fixed candidate pair.

    The backscatter estimate fits Xi_c g to the slow-time projection
    (1/L) Y^T x*, the direct estimate to the slow-time average (1/L) Y^T 1,
    each with its own regularization weight: the fits of
    :func:`decode_joint`, run on the one codeword c.  Raises ``ValueError``
    on a non-finite frame.
    """
    c, x = np.asarray(c, dtype=np.complex128), np.asarray(x, dtype=np.complex128)
    if c.ndim != 1 or x.ndim != 1:
        raise DimensionMismatchError("codewords must be 1-D")
    y, q = _checked_frame(y, x.size, c.size)
    big_l = y.shape[0]
    ops = _operators(conv_matrix_from_code(c, q)[None], big_l, reg.lambda_str, reg.lambda_sr,
                     reg.kind == "l1")
    _, gam_str, _, gam_sr = _candidate_fits(ops, (y.T @ x.conj())[:, None], y.sum(axis=0),
                                            big_l, reg)
    return gam_str[0, :, 0], gam_sr[0]


def decode_joint(y, source: SourceCodebook, tag: TagCodebook,
                 reg: RegularizationConfig) -> PilotFreeResult:
    """Exhaustive joint decoding over all |C| x |X| candidate pairs.

    Ties break toward the smallest (source, tag) index pair.  Raises
    ``ValueError`` on a non-finite frame.
    """
    y, q = _frame_dims(y, source, tag)
    big_l = y.shape[0]
    ops = _source_ops(source, q, big_l, reg)

    u_cols = _tag_projections(y, tag)
    u_ones = y.sum(axis=0)

    f_str, gam_str, f_sr, gam_sr = _candidate_fits(ops, u_cols, u_ones, big_l, reg)
    metric = f_str + f_sr[:, None]

    flat = int(np.argmin(metric))
    ci, xi_idx = divmod(flat, len(tag))
    if metric.min() == metric.max():
        log.debug("degenerate joint decode: all %d candidate metrics equal", metric.size)
    return PilotFreeResult(
        c_index=ci, x_index=xi_idx,
        g_str_hat=gam_str[ci, :, xi_idx].copy(), g_sr_hat=gam_sr[ci].copy(),
        metric=float(metric[ci, xi_idx]),
    )


def decode_disjoint(y, source: SourceCodebook, tag: TagCodebook,
                    reg: RegularizationConfig,
                    use_str_for_source: bool = True) -> PilotFreeResult:
    """Two-stage decoding: tag first by correlation energy, then the source.

    The tag stage needs no source knowledge; the source stage scores each
    codeword by the direct-link fit plus, unless ``use_str_for_source`` is
    off, the backscatter fit at the decoded tag codeword.  Raises
    ``ValueError`` on a non-finite frame.
    """
    y, q = _frame_dims(y, source, tag)
    big_l = y.shape[0]
    ops = _source_ops(source, q, big_l, reg)

    u_cols = _tag_projections(y, tag)
    energies = np.sum(np.abs(u_cols) ** 2, axis=0)
    xi_idx = int(np.argmax(energies))
    u_x = u_cols[:, xi_idx:xi_idx + 1]
    u_ones = y.sum(axis=0)

    f_str, gam_str, f_sr, gam_sr = _candidate_fits(ops, u_x, u_ones, big_l, reg)
    scores = f_sr + (f_str[:, 0] if use_str_for_source else 0.0)
    ci = int(np.argmin(scores))

    # report the full joint objective at the returned pair either way
    metric = float(f_str[ci, 0] + f_sr[ci])
    return PilotFreeResult(
        c_index=ci, x_index=xi_idx,
        g_str_hat=gam_str[ci, :, 0].copy(), g_sr_hat=gam_sr[ci].copy(),
        metric=metric,
    )


def decode_perfect_csi(y, source: SourceCodebook, tag: TagCodebook,
                       g_str, g_sr) -> PilotFreeResult:
    """Benchmark decoder: exhaustive data-fidelity minimization at known channels.

    ``g_str`` and ``g_sr`` are the true (q+1,) tap vectors.  Every pair is
    scored in closed form from the pulse shapes a_c = Xi_c g_str and
    b_c = Xi_c g_sr: ||y - x a_c^T - 1 b_c^T||^2 = ||y - 1 b_c^T||^2
    + L ||a_c||^2 - 2 Re x^T (y - 1 b_c^T) a_c^*, as tag words are +/-1.
    Raises ``ValueError`` on a non-finite frame.
    """
    y, q = _frame_dims(y, source, tag)
    g_str = np.asarray(g_str, dtype=np.complex128)
    g_sr = np.asarray(g_sr, dtype=np.complex128)
    if g_str.shape != (q + 1,) or g_sr.shape != (q + 1,):
        raise DimensionMismatchError("channel length inconsistent with frame width")
    big_l, k = y.shape
    xis = _cached_xi_stack(*_words_key(source), q)
    mc = xis.shape[0]
    a = (xis.reshape(mc * k, q + 1) @ g_str).reshape(mc, k)
    b = (xis.reshape(mc * k, q + 1) @ g_sr).reshape(mc, k)
    a_conj = a.conj()

    # ||y - 1 b^T||^2 expanded, plus L ||a||^2
    base = (np.vdot(y, y).real - 2.0 * (b @ y.sum(axis=0).conj()).real
            + big_l * (np.sum(np.abs(b) ** 2, axis=1) + np.sum(np.abs(a) ** 2, axis=1)))
    cross = (tag.words @ (y @ a_conj.T - np.sum(b * a_conj, axis=1))).real
    metric = base[:, None] - 2.0 * cross.T
    flat = int(np.argmin(metric))
    ci, xi_idx = divmod(flat, len(tag))
    return PilotFreeResult(
        c_index=ci, x_index=xi_idx,
        g_str_hat=g_str.copy(), g_sr_hat=g_sr.copy(),
        metric=float(metric[ci, xi_idx]),
    )
