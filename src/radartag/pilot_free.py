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
solutions: with L Xi_c^H Xi_c + lambda I = C_c C_c^H factored once per
codebook, a fit at its minimizer is ||u||^2/L - ||W_c u||^2 for the cached
whitened operator W_c = C_c^{-1} Xi_c^H, and only a returned pair's estimate
C_c^{-H} W_c u is formed.  With phi = l1 the fits are LASSO problems solved by FISTA.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import conv_matrix_from_code
from .codebooks import SourceCodebook, TagCodebook
from .errors import SingularSystemError
from .framesim import _checked_frame, _checked_taps
from .solvers import RegularizationConfig, _power_iteration_largest, fista_stacked
# fista_precomputed has no caller here; it stays importable from this module
# because perfbench/spans.py traces the name at this site
from .solvers import fista_precomputed  # noqa: F401

__all__ = [
    "PilotFreeResult",
    "decode_joint",
    "decode_disjoint",
    "decode_perfect_csi",
]

# most multiply-adds in one Y^T X^T or l2 W U product.  On a 2-core x86 VM,
# OpenBLAS handed complex products of 67k-81k multiply-adds and more to its
# worker threads, which stall for milliseconds when the other cores are busy,
# so larger tag codebooks (128 words at l >= 16) are projected in chunks
_PROJECTION_MACS = 60_000


@dataclass
class PilotFreeResult:
    """Decoded pair, channel estimates at that pair, and the objective value."""

    c_index: int
    x_index: int
    g_str_hat: np.ndarray
    g_sr_hat: np.ndarray
    metric: float


# the caches below are keyed by the codebook object itself: a codebook is
# frozen and its words are read-only, so its identity fixes its words
@lru_cache(maxsize=64)
def _cached_xi_stack(source: SourceCodebook, q: int) -> np.ndarray:
    """Convolution matrices of every source codeword, stacked (Mc, n+q, q+1)."""
    xis = conv_matrix_from_code(source.words, q)
    xis.setflags(write=False)
    return xis


def _operators(xis, big_l: int, lam_str: float, lam_sr: float, l1: bool):
    """Stacked operators of a codeword stack, for the l2 or the l1 fits.

    l2: (w_str, w_sr, back_str, back_sr).  Each ridge Gram factors as
    L Xi_c^H Xi_c + lam I = C_c C_c^H (Cholesky); ``w`` stacks the whitened
    operators W_c = C_c^{-1} Xi_c^H as (Mc(q+1), n+q) and ``back`` the
    (Mc, q+1, q+1) maps C_c^{-H} from W_c u to the ridge estimate.
    l1: (block, grams, lips).  ``block[c]`` is [Xi_c^H; Op_str; Op_sr],
    shape (3(q+1), n+q), with the ridge solve operators
    Op = (L Xi_c^H Xi_c + lam I)^{-1} Xi_c^H, so one matmul gives Xi^H u
    and both ridge warm starts; ``grams`` is the (Mc, q+1, q+1) stack
    L Xi^H Xi and ``lips`` their largest eigenvalues.
    """
    xi_h = xis.conj().transpose(0, 2, 1)
    grams = big_l * (xi_h @ xis)
    eye = np.eye(xis.shape[2])
    try:
        factors = [np.linalg.solve(a, xi_h) if l1 else np.linalg.inv(np.linalg.cholesky(a))
                   for a in (grams + lam_str * eye, grams + lam_sr * eye)]
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            "unregularized channel estimate needs full-column-rank "
            "convolution matrices"
        ) from exc
    if l1:
        ops = (np.concatenate([xi_h, *factors], axis=1), grams,
               np.array([_power_iteration_largest(gram) for gram in grams]))
    else:
        ops = (*[(inv @ xi_h).reshape(-1, xis.shape[1]) for inv in factors],
               *[inv.conj().transpose(0, 2, 1) for inv in factors])
    for op in ops:
        op.setflags(write=False)
    return ops


@lru_cache(maxsize=64)
def _cached_source_ops(source: SourceCodebook, q: int, big_l: int,
                       lam_str: float, lam_sr: float, l1: bool):
    """:func:`_operators` of a source codebook, built once per (codebook, q,
    L, lambdas, penalty)."""
    return _operators(_cached_xi_stack(source, q), big_l, lam_str, lam_sr, l1)


def _source_ops(source: SourceCodebook, q: int, big_l: int, reg: RegularizationConfig):
    return _cached_source_ops(source, q, big_l, float(reg.lambda_str), float(reg.lambda_sr),
                              reg.kind == "l1")


def _candidate_fits(ops, u_cols, u_ones, big_l, reg):
    """Channel fits of every source codeword against every projection column.

    Returns (f_str (Mc, r), f_sr (Mc,), estimates).  ``f_str`` is the
    backscatter fit minus the projection energy ||u||^2/L, i.e. the
    tag-dependent part of the joint objective; ``f_sr`` is the direct fit;
    ``estimates(c, j)`` gives the minimizers (g_str, g_sr) of codeword c
    with column j (c and j may also be slices).  With l2 a fit is
    ||u||^2/L - ||W_c u||^2, and only the pairs a caller asks for are
    mapped back to estimates C_c^{-H} W_c u.  With l1 one matmul of the
    operator block against [u_cols, u_ones] gives Xi^H u and the ridge
    estimates, which warm-start one stacked FISTA run over all r + 1
    columns, in which the direct fit is its own stop family with its own
    weight, and the fits are FISTA's objectives.
    """
    r = u_cols.shape[1]
    if reg.kind == "l2":
        w_str, w_sr, back_str, back_sr = ops
        mc, q1 = back_str.shape[:2]
        # whole codewords per product, each at most _PROJECTION_MACS
        rows = q1 * max(1, _PROJECTION_MACS // (w_str.shape[1] * q1 * r))
        parts = [w_str[i:i + rows] @ u_cols for i in range(0, mc * q1, rows)]
        z_str = (parts[0] if len(parts) == 1 else np.concatenate(parts)).reshape(mc, q1, r)
        z_sr = (w_sr @ u_ones).reshape(mc, q1)
        f_str = -np.square(np.abs(z_str)).sum(axis=1)
        f_sr = np.vdot(u_ones, u_ones).real / big_l - np.square(np.abs(z_sr)).sum(axis=1)
        return f_str, f_sr, lambda c, j: (back_str[c] @ z_str[c, :, j],
                                          (back_sr[c] @ z_sr[c, :, None])[..., 0])

    block, grams, lips = ops
    q1 = block.shape[1] // 3
    u_all = np.column_stack([u_cols, u_ones])
    # stacked, each BLAS call is one codeword in size; one 2-D product of the
    # whole block is big enough for OpenBLAS to use worker threads, which
    # stall for milliseconds when the other cores are busy
    prod = block @ u_all
    energy = np.sum(np.abs(u_all) ** 2, axis=0) / big_l
    lam = np.repeat([reg.lambda_str, reg.lambda_sr], [r, 1])
    warm = np.concatenate([prod[:, q1:2 * q1, :r], prod[:, 2 * q1:, r:]], axis=2)
    sol = fista_stacked(grams, prod[:, :q1], np.broadcast_to(energy, (block.shape[0], r + 1)),
                        lips, lam, reg, warm, families=np.repeat([0, 1], [r, 1]))
    fits, gam = sol.objective, sol.gamma
    return fits[:, :r] - energy[:r], fits[:, r], lambda c, j: (gam[c, :, j].copy(),
                                                              gam[c, :, r].copy())


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


def decode_joint(y, source: SourceCodebook, tag: TagCodebook,
                 reg: RegularizationConfig) -> PilotFreeResult:
    """Exhaustive joint decoding over all |C| x |X| candidate pairs.

    Ties break toward the smallest (source, tag) index pair.  Raises
    ``ValueError`` on a non-finite frame.
    """
    y, q = _checked_frame(y, tag.l, source.n)
    big_l = y.shape[0]
    ops = _source_ops(source, q, big_l, reg)

    u_cols = _tag_projections(y, tag)
    u_ones = y.sum(axis=0)

    f_str, f_sr, estimates = _candidate_fits(ops, u_cols, u_ones, big_l, reg)
    metric = f_str + f_sr[:, None]

    flat = int(np.argmin(metric))
    ci, xi_idx = divmod(flat, len(tag))
    return PilotFreeResult(ci, xi_idx, *estimates(ci, xi_idx), float(metric[ci, xi_idx]))


def decode_disjoint(y, source: SourceCodebook, tag: TagCodebook,
                    reg: RegularizationConfig,
                    use_str_for_source: bool = True) -> PilotFreeResult:
    """Two-stage decoding: tag first by correlation energy, then the source.

    The tag stage needs no source knowledge; the source stage scores each
    codeword by the direct-link fit plus, unless ``use_str_for_source`` is
    off, the backscatter fit at the decoded tag codeword.  Raises
    ``ValueError`` on a non-finite frame.
    """
    y, q = _checked_frame(y, tag.l, source.n)
    big_l = y.shape[0]
    ops = _source_ops(source, q, big_l, reg)

    u_cols = _tag_projections(y, tag)
    energies = np.sum(np.abs(u_cols) ** 2, axis=0)
    xi_idx = int(np.argmax(energies))
    u_x = u_cols[:, xi_idx:xi_idx + 1]
    u_ones = y.sum(axis=0)

    f_str, f_sr, estimates = _candidate_fits(ops, u_x, u_ones, big_l, reg)
    scores = f_sr + (f_str[:, 0] if use_str_for_source else 0.0)
    ci = int(np.argmin(scores))

    # report the full joint objective at the returned pair either way
    return PilotFreeResult(ci, xi_idx, *estimates(ci, 0), float(f_str[ci, 0] + f_sr[ci]))


def decode_perfect_csi(y, source: SourceCodebook, tag: TagCodebook,
                       g_str, g_sr) -> PilotFreeResult:
    """Benchmark decoder: exhaustive data-fidelity minimization at known channels.

    ``g_str`` and ``g_sr`` are the true (q+1,) tap vectors.  Every pair is
    scored in closed form from the pulse shapes a_c = Xi_c g_str and
    b_c = Xi_c g_sr: ||y - x a_c^T - 1 b_c^T||^2 = ||y - 1 b_c^T||^2
    + L ||a_c||^2 - 2 Re x^T (y - 1 b_c^T) a_c^*, as tag words are +/-1.
    Raises ``ValueError`` on a non-finite frame.
    """
    y, q = _checked_frame(y, tag.l, source.n)
    g_str, g_sr = _checked_taps(g_str, g_sr, q)
    big_l, k = y.shape
    xis = _cached_xi_stack(source, q)
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
