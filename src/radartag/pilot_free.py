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
    L Xi^H Xi, real for +/-1 codewords and so kept as float64 for FISTA's
    real products, and ``lips`` their largest eigenvalues, estimated by
    power iteration on the complex stack.
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
        ops = (np.concatenate([xi_h, *factors], axis=1), np.ascontiguousarray(grams.real),
               np.array([_power_iteration_largest(gram) for gram in grams]))
    else:
        ops = (*[(inv @ xi_h).reshape(-1, xis.shape[1]) for inv in factors],
               *[inv.conj().transpose(0, 2, 1) for inv in factors])
    for op in ops:
        op.setflags(write=False)
    return ops


@lru_cache(maxsize=64)
def _source_ops(source: SourceCodebook, q: int, big_l: int, reg: RegularizationConfig):
    """:func:`_operators` of a source codebook, built once per (codebook, q,
    L, regularization); the frozen config is its own cache key."""
    return _operators(_cached_xi_stack(source, q), big_l, float(reg.lambda_str),
                      float(reg.lambda_sr), reg.kind == "l1")


def _candidate_fits(ops, u_cols, u_ones, big_l, reg):
    """Channel fits of every source codeword against every projection column.

    Returns (f_str (Mc, r), f_sr (Mc,), coords).  ``f_str`` is the
    backscatter fit minus the projection energy ||u||^2/L, i.e. the
    tag-dependent part of the joint objective; ``f_sr`` is the direct fit;
    :func:`_estimates` reads the minimizers of any pair off ``coords``.
    With l2 a fit is ||u||^2/L - ||W_c u||^2, and ``coords`` are the
    whitened projections W_c u.  With l1 one matmul of the operator block
    against [u_cols, u_ones] gives Xi^H u and the ridge estimates, which
    warm-start one stacked FISTA run over all r + 1 columns, in which the
    direct fit is its own stop family with its own weight; the fits are
    FISTA's objectives and ``coords`` its solutions.
    """
    r = u_cols.shape[1]
    if reg.kind == "l2":
        w_str, w_sr, back_str, _ = ops
        mc, q1 = back_str.shape[:2]
        # whole codewords per product, each at most _PROJECTION_MACS
        rows = q1 * max(1, _PROJECTION_MACS // (w_str.shape[1] * q1 * r))
        z_str = _chunked_product(w_str, u_cols, rows, axis=0).reshape(mc, q1, r)
        z_sr = (w_sr @ u_ones).reshape(mc, q1)
        f_str = -np.square(np.abs(z_str)).sum(axis=1)
        f_sr = np.vdot(u_ones, u_ones).real / big_l - np.square(np.abs(z_sr)).sum(axis=1)
        return f_str, f_sr, (z_str, z_sr)

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
    return fits[:, :r] - energy[:r], fits[:, r], (gam[:, :, :r], gam[:, :, r])


def _estimates(ops, coords, c, j):
    """Minimizers (g_str, g_sr) of codeword c with column j off ``coords`` (c and
    j may be slices): l2 maps W_c u back by C_c^{-H}, l1 copies FISTA's."""
    s_str, s_sr = coords
    if len(ops) == 3:                            # l1 ops: (block, grams, lips)
        return s_str[c, :, j].copy(), s_sr[c].copy()
    return ops[2][c] @ s_str[c, :, j], (ops[3][c] @ s_sr[c, :, None])[..., 0]


def _chunked_product(a, b, size: int, axis: int) -> np.ndarray:
    """a @ b in blocks of ``size`` rows of a (axis 0) or columns of b (axis 1);
    one block covering it is a single product, without the copy."""
    n = b.shape[1] if axis else a.shape[0]
    if size >= n:
        return a @ b
    return np.concatenate([a @ b[:, i:i + size] if axis else a[i:i + size] @ b
                           for i in range(0, n, size)], axis=axis)


@lru_cache(maxsize=64)
def _cached_correlators(tag: TagCodebook) -> np.ndarray:
    """Complex slow-time correlators (|X| + 1, l): every tag word, then all-ones."""
    rows = np.vstack([tag.words, np.ones(tag.l)]).astype(np.complex128)
    rows.setflags(write=False)
    return rows


def _tag_projections(y, tag: TagCodebook) -> np.ndarray:
    """Y^T x for every tag word x, as the columns of a (k, |X|) array, in column
    chunks of at most ``_PROJECTION_MACS`` multiply-adds."""
    big_l, k = y.shape
    return _chunked_product(y.T, _cached_correlators(tag)[:-1].T,
                            max(1, _PROJECTION_MACS // (big_l * k)), axis=1)


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

    f_str, f_sr, coords = _candidate_fits(ops, u_cols, u_ones, big_l, reg)
    metric = f_str + f_sr[:, None]

    ci, xi_idx = divmod(int(metric.argmin()), len(tag))
    return PilotFreeResult(ci, xi_idx, *_estimates(ops, coords, ci, xi_idx),
                           float(metric[ci, xi_idx]))


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
    xi_idx = int((np.abs(u_cols) ** 2).sum(axis=0).argmax())
    u_x = u_cols[:, xi_idx:xi_idx + 1]
    u_ones = y.sum(axis=0)

    f_str, f_sr, coords = _candidate_fits(ops, u_x, u_ones, big_l, reg)
    scores = f_sr + (f_str[:, 0] if use_str_for_source else 0.0)
    ci = int(scores.argmin())

    # report the full joint objective at the returned pair either way
    return PilotFreeResult(ci, xi_idx, *_estimates(ops, coords, ci, 0),
                           float(f_str[ci, 0] + f_sr[ci]))


def decode_perfect_csi(y, source: SourceCodebook, tag: TagCodebook,
                       g_str, g_sr) -> PilotFreeResult:
    """Benchmark decoder: exhaustive data-fidelity minimization at known channels.

    ``g_str`` and ``g_sr`` are the true (q+1,) tap vectors.  With pulse shapes
    a_c = Xi_c g_str, b_c = Xi_c g_sr and +/-1 tag words that sum to zero,
    ||y - x a_c^T - 1 b_c^T||^2 = ||y||^2 + L ||a_c||^2 + L ||b_c||^2
    - 2 Re(a_c^H Y^T x + b_c^H Y^T 1); pairs are scored without ||y||^2, in
    (source, tag) order, so ties break toward the smallest index pair.
    Raises ``ValueError`` on a non-finite frame.
    """
    y, q = _checked_frame(y, tag.l, source.n)
    taps = _checked_taps(g_str, g_sr, q)
    xis = _cached_xi_stack(source, q)
    (big_l, k), mc = y.shape, xis.shape[0]
    # conjugate pulses a_c^*, then b_c^* (Xi_c is real), and ||a_c||^2 + ||b_c||^2
    pulses = (np.conj(taps) @ xis.reshape(mc * k, q + 1).T).reshape(2, mc, k)
    energy = np.einsum("icj,icj->c", pulses.view(np.float64), pulses.view(np.float64))
    # Re(p^H Y^T v) of every pulse p and correlator v, in column chunks
    corr = _chunked_product(pulses.reshape(2 * mc, k) @ y.T, _cached_correlators(tag).T,
                            max(1, _PROJECTION_MACS // (2 * mc * big_l)), axis=1).real
    pair = (big_l * energy - 2.0 * corr[mc:, -1])[:, None] - 2.0 * corr[:mc, :-1]
    ci, xi_idx = divmod(int(pair.argmin()), len(tag))
    return PilotFreeResult(ci, xi_idx, taps[0].copy(), taps[1].copy(),
                           float(pair[ci, xi_idx] + np.vdot(y, y).real))
