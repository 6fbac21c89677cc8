"""Decoders for the pilot-aided scheme: pilot symbols plus linear data symbols.

Known pilots at the head of both codewords decouple channel estimation from
data detection.  Non-iterative decoding runs the constructive recovery
chain once: slow-time pilot rows give both pulse shapes, the source-pilot
convolution structure gives both channel vectors, and the data symbols
follow by linear inversion plus symbol slicing.  Iterative decoding treats
the same regularized LS objective as a block-coordinate descent over the
channel pair, the source data block, and the tag data block, with either
exact discrete updates (enumeration) or relaxed continuous updates
(quadratically penalized closed forms, sliced once at exit).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np

# conv_matrix_from_channel has no caller here; it stays importable from this
# module because perfbench/spans.py traces the name at this site
from .channel import conv_matrix_from_channel, conv_matrix_from_code  # noqa: F401
from .codebooks import check_pilot_conditions
from .errors import (
    BudgetExceededError,
    ConfigInvalidError,
    DimensionMismatchError,
    PilotConditionViolatedError,
    SingularSystemError,
)
from .framesim import _checked_frame
from .solvers import RegularizationConfig, fista_stacked, numeric_rank

__all__ = [
    "PilotLayout",
    "PilotAidedResult",
    "alternating_pilot",
    "decode_noniterative",
    "iterative_channel_update",
    "source_data_update_discrete",
    "tag_data_update_discrete",
    "relaxed_data_updates",
    "decode_iterative",
    "exhaustive_search",
]

log = logging.getLogger(__name__)

MAX_SWEEPS = 50           # block-coordinate descent sweeps per decode_iterative
REL_TOL = 1e-8            # relative objective change that ends the descent
ENUM_BUDGET = 2 ** 16     # most source data words the discrete update enumerates
SEARCH_BUDGET = 2 ** 20   # most data pairs exhaustive_search enumerates
# candidate pairs fitted and scored per batched step of exhaustive_search; at
# l = 10, k = 33 a chunk's (24, l, k) complex temporaries take 126 720 bytes,
# below glibc's 128 KiB mmap and trim thresholds, so freeing them does not
# hand the pages back to the kernel only for the next chunk to fault them in
_SEARCH_CHUNK = 24


@dataclass
class PilotLayout:
    """Pilot symbols and data lengths for one frame."""

    c_pilot: np.ndarray
    x_pilot: np.ndarray
    n_data: int
    l_data: int

    def __post_init__(self):
        self.c_pilot = np.asarray(self.c_pilot, dtype=np.float64)
        self.x_pilot = np.asarray(self.x_pilot, dtype=np.float64)
        if self.n_data < 0 or self.l_data < 0:
            raise ValueError("data lengths must be nonnegative")

    @property
    def n(self) -> int:
        return self.c_pilot.size + self.n_data

    @property
    def l(self) -> int:
        return self.x_pilot.size + self.l_data


@dataclass
class PilotAidedResult:
    """Sliced data symbols, channel estimates, and the objective trace."""

    c_data_hat: np.ndarray
    x_data_hat: np.ndarray
    g_str_hat: np.ndarray
    g_sr_hat: np.ndarray
    objective_trace: list[float] = field(default_factory=list)
    iters: int = 0
    converged: bool = True
    degenerate: bool = False


def alternating_pilot(length: int) -> np.ndarray:
    """The +1, -1, +1, ... tag pilot of a given length."""
    pilot = np.ones(length, dtype=np.int64)
    pilot[1::2] = -1
    return pilot


def _slice_pm1(values) -> np.ndarray:
    """Map continuous symbols to the +/-1 alphabet; real-part zero goes to +1."""
    return np.where(np.real(np.asarray(values)) >= 0, 1, -1).astype(np.int64)


@lru_cache(maxsize=32)
def _binary_candidates(width: int) -> np.ndarray:
    """All +/-1 words of the given width, index 0 being all +1 (read-only)."""
    cands = np.array(list(product((1, -1), repeat=width)),
                     dtype=np.int64).reshape(2 ** width, width)
    cands.setflags(write=False)
    return cands


def _with_pilot(pilot, data) -> np.ndarray:
    """Complex full words: the pilot ahead of the data (or of each row of it)."""
    data = np.asarray(data)
    pilot = np.broadcast_to(pilot, data.shape[:-1] + np.shape(pilot))
    return np.concatenate([pilot, data], axis=-1).astype(np.complex128)


class _Frame:
    """A checked (L, k) frame with the constants every channel fit reads.

    Built once per decode, so the sweeps of ``decode_iterative`` and the
    chunks of ``exhaustive_search`` share Y^T, the column sums Y^T 1 and the
    ridge diagonal instead of rebuilding them per call.
    """

    __slots__ = ("y", "yt", "ysum", "weights", "ridge")

    def __init__(self, y: np.ndarray, q: int, reg: RegularizationConfig):
        self.y, self.yt, self.ysum = y, y.T, y.sum(axis=0)
        self.weights = np.repeat([reg.lambda_str, reg.lambda_sr], q + 1)
        self.ridge = np.diag(self.weights)


def _pulse_shapes(xi, g_str, g_sr):
    """Received pulse shapes Xi_c g of a codeword (stack) through both channels."""
    return tuple((xi @ np.asarray(g, dtype=np.complex128)[..., None])[..., 0]
                 for g in (g_str, g_sr))


def _tag_filter(data_rows, a_str, a_sr) -> np.ndarray:
    """Data rows with the direct pulse shape removed, matched to the backscatter one."""
    return (data_rows - a_sr) @ np.conj(a_str)


def _tag_signs(data_rows, a_str, a_sr) -> np.ndarray:
    """Exact +/-1 tag data: the per-row sign of the matched filter, ties to +1."""
    return _slice_pm1(np.real(_tag_filter(data_rows, a_str, a_sr)))


def _tag_relaxed(data_rows, a_str, a_sr, lambda_x: float) -> np.ndarray:
    """Penalized continuous tag data: the matched filter over lambda_x + ||a_str||^2."""
    denom = lambda_x + float((np.abs(a_str) ** 2).sum())
    if denom == 0.0:
        return np.zeros(data_rows.shape[0], dtype=np.complex128)
    return _tag_filter(data_rows, a_str, a_sr) / denom


@lru_cache(maxsize=128)
def _pilot_pinvs(x_pilot_bytes: bytes, c_pilot_bytes: bytes, q: int):
    """(pinv([x_pilot, 1]), pinv(Xi_pilot)) of a pilot pair, or None when
    ``check_pilot_conditions`` fails; keyed by the float64 pilot bytes.

    Only the pilots enter here, so each pair is inverted once per process
    rather than once per frame; the arrays are read-only because every
    caller shares them.
    """
    x_pilot = np.frombuffer(x_pilot_bytes, dtype=np.float64)
    c_pilot = np.frombuffer(c_pilot_bytes, dtype=np.float64)
    if not check_pilot_conditions(x_pilot, c_pilot, q):
        return None
    pilot_basis = np.stack([x_pilot.astype(np.complex128),
                            np.ones(x_pilot.size, dtype=np.complex128)], axis=1)
    xi_pilot = conv_matrix_from_code(c_pilot, q)[:c_pilot.size]
    pinvs = (np.linalg.pinv(pilot_basis), np.linalg.pinv(xi_pilot))
    for op in pinvs:
        op.setflags(write=False)
    return pinvs


def _channel_matrices(g_str, g_sr, n: int) -> np.ndarray:
    """(2, n+q, n) Toeplitz matrices of both channels; column j is g delayed by j."""
    return conv_matrix_from_code(np.stack([g_str, g_sr]), n - 1)


def decode_noniterative(y, layout: PilotLayout) -> PilotAidedResult:
    """Single-pass constructive recovery from the pilot structure.

    Steps, in order: (1) the pilot rows of the frame are inverted against
    [x_pilot, 1] to recover both pulse shapes; (2) their leading entries
    are inverted against the source-pilot convolution matrix to recover
    both channel vectors; (3) the source data symbols come from averaging
    the two channel-deconvolved pulse-shape tails; (4) the tag data symbols
    come from matched-filtering the direct-component-free data rows.
    Channel estimates use only the pilot rows.  A vanishing backscatter
    pulse shape leaves the tag data undefined; +1 symbols are returned with
    the degenerate flag set.
    """
    y, q = _checked_frame(y, layout.l, layout.n)
    return _noniterative(y, layout, q)


def _noniterative(y, layout: PilotLayout, q: int) -> PilotAidedResult:
    """:func:`decode_noniterative` on a frame already checked against the layout."""
    n_p, n_d = layout.c_pilot.size, layout.n_data
    l_p, l_d = layout.x_pilot.size, layout.l_data
    pilot_ops = _pilot_pinvs(layout.x_pilot.tobytes(), layout.c_pilot.tobytes(), q)
    if pilot_ops is None:
        raise PilotConditionViolatedError(
            "pilot rank conditions fail; pick a tag pilot not proportional to "
            "all-ones and a source pilot of length >= q+1 with nonzero lead"
        )
    basis_pinv, xi_pilot_pinv = pilot_ops

    shapes = basis_pinv @ y[:l_p]                    # rows: backscatter, direct
    alpha_str, alpha_sr = shapes[0], shapes[1]
    gammas = xi_pilot_pinv @ np.stack([alpha_str[:n_p], alpha_sr[:n_p]], axis=1)
    g_str, g_sr = gammas[:, 0], gammas[:, 1]

    if n_d > 0:
        # both channels' pilot and data columns, both data pseudoinverses at once
        full = _channel_matrices(g_str, g_sr, n_p + n_d)
        tails = shapes - full[:, :, :n_p] @ layout.c_pilot.astype(np.complex128)
        c_conts = np.linalg.pinv(full[:, :, n_p:]) @ tails[..., None]
        c_data = _slice_pm1(0.5 * (c_conts[0, :, 0] + c_conts[1, :, 0]))
    else:
        log.debug("noniterative decode with no source data symbols (n_data=0)")
        c_data = np.zeros(0, dtype=np.int64)

    degenerate = False
    denom = float((np.abs(alpha_str) ** 2).sum())
    if denom == 0.0:
        degenerate = True
        x_data = np.ones(l_d, dtype=np.int64)
    else:
        x_data = _slice_pm1(_tag_filter(y[l_p:], alpha_str, alpha_sr) / denom)
    return PilotAidedResult(c_data_hat=c_data, x_data_hat=x_data,
                            g_str_hat=g_str, g_sr_hat=g_sr,
                            objective_trace=[], iters=0, converged=True,
                            degenerate=degenerate)


def _channel_fit(frame: _Frame, xi, x, reg: RegularizationConfig):
    """Joint channel estimates for a stack of codeword pairs (Xi_c, x).

    Row-wise, the frame is linear in [g_str; g_sr] with sensing matrix
    [x (x) Xi_c, 1 (x) Xi_c], whose Gram is the block matrix
    [[sum|x|^2 G0, sum x* G0], [sum x G0, L G0]] in G0 = Xi_c^H Xi_c.  The l2
    path solves the 2(q+1) normal equations, Gram plus the ridge weights, for
    the whole stack in one call; the l1 path refines each pair by FISTA on the
    same Gram, with an exact 1/lambda_max step and per-block weights, warm
    started at its l2 solution.  One FISTA call per pair keeps a pair's
    estimate independent of the other pairs in the stack.
    """
    m = xi.shape[-1]
    xi_h = np.conj(xi).swapaxes(-1, -2)
    gram0 = xi_h @ xi
    sxx = (np.abs(x) ** 2).sum(axis=-1)[..., None, None]
    sx1 = np.conj(x).sum(axis=-1)[..., None, None]
    top_left = sxx * gram0
    sensing = np.empty(top_left.shape[:-2] + (2 * m, 2 * m), dtype=np.complex128)
    sensing[..., :m, :m] = top_left
    sensing[..., :m, m:] = sx1 * gram0
    sensing[..., m:, :m] = np.conj(sx1) * gram0
    sensing[..., m:, m:] = frame.y.shape[0] * gram0
    rhs = np.concatenate([xi_h @ (frame.yt @ np.conj(x)[..., None]),
                          xi_h @ frame.ysum[:, None]], axis=-2)
    try:
        solution = np.linalg.solve(sensing + frame.ridge, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError("joint channel system is singular") from exc
    if reg.kind == "l1":
        lips = np.linalg.eigvalsh(sensing)[..., -1]
        bnorm2 = [[float((np.abs(frame.y) ** 2).sum())]]
        for idx in np.ndindex(lips.shape):
            solution[idx] = fista_stacked(sensing[idx][None], rhs[idx][None], bnorm2,
                                          lips[idx][None], frame.weights[:, None], reg,
                                          solution[idx][None]).gamma[0]
    solution = solution[..., 0]
    return solution[..., :m], solution[..., m:]


def iterative_channel_update(y, c, x, reg: RegularizationConfig):
    """Joint channel estimate for one full candidate codeword pair.

    Raises ``ValueError`` on a non-finite frame.
    """
    c, x = np.asarray(c, dtype=np.complex128), np.asarray(x, dtype=np.complex128)
    if c.ndim != 1 or x.ndim != 1:
        raise DimensionMismatchError("codewords must be 1-D")
    y, q = _checked_frame(y, x.size, c.size)
    return _channel_fit(_Frame(y, q, reg), conv_matrix_from_code(c, q), x, reg)


def _source_form(y, x, c_pilot, g_str, g_sr, n_d: int):
    """(gram, rhs) of the residual as a quadratic form in the source data.

    With the pilot response removed, row p sees the data through
    x_p Gamma_str_D + Gamma_sr_D; for real c the residual energy is
    Re(c^T gram c) - 2 Re(c^T rhs) plus a constant.  ``c_pilot`` is complex.
    """
    n_p = c_pilot.size
    full = _channel_matrices(g_str, g_sr, n_p + n_d)
    g1_p, g1_d = full[0, :, :n_p], full[0, :, n_p:]
    g2_p, g2_d = full[1, :, :n_p], full[1, :, n_p:]
    big_l = y.shape[0]
    resid = (y - np.outer(x, g1_p @ c_pilot)
             - np.outer(np.ones(big_l), g2_p @ c_pilot))
    sxx = float((np.abs(x) ** 2).sum())
    sx1 = np.conj(x).sum()
    g1_h, g2_h = g1_d.conj().T, g2_d.conj().T
    gram = (sxx * (g1_h @ g1_d) + sx1 * (g1_h @ g2_d)
            + np.conj(sx1) * (g2_h @ g1_d) + big_l * (g2_h @ g2_d))
    rhs = g1_h @ (resid.T @ np.conj(x)) + g2_h @ resid.sum(axis=0)
    return gram, rhs


def _source_best(gram, rhs, cands) -> np.ndarray:
    """The +/-1 source word (row of ``cands``) of least residual; first on ties."""
    metric = (np.einsum("bi,ij,bj->b", cands, gram.real, cands)
              - 2.0 * (cands @ rhs.real))
    return cands[int(np.argmin(metric))]


def _source_relaxed(gram, rhs, lam_eye, lambda_c: float) -> np.ndarray:
    """Penalized continuous source data: (gram + lambda_c I)^{-1} rhs."""
    gram = gram + lam_eye
    if lambda_c == 0.0 and numeric_rank(gram) < gram.shape[0]:
        raise SingularSystemError("summed data Gram matrix is singular at lambda_c=0")
    return np.linalg.solve(gram, rhs)


def _check_enum_budget(n_d: int) -> None:
    if 2 ** n_d > ENUM_BUDGET:
        raise BudgetExceededError(
            f"2^{n_d} source candidates exceed the budget {ENUM_BUDGET}; "
            "use the relaxed update"
        )


def source_data_update_discrete(y, x, c_pilot, g_str, g_sr) -> np.ndarray:
    """Exact minimizer of the residual over all +/-1 source data words.

    ``x`` is the full tag word; the frame's columns beyond the channel's
    q and the pilot are the data.  Raises ``ValueError`` on a non-finite
    frame.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1:
        raise DimensionMismatchError("tag codeword must be 1-D")
    y, n_d = _checked_frame(y, x.size, np.size(g_str) - 1 + np.size(c_pilot))
    if n_d == 0:
        return np.zeros(0, dtype=np.int64)
    _check_enum_budget(n_d)
    gram, rhs = _source_form(y, x, np.asarray(c_pilot, dtype=np.complex128),
                             g_str, g_sr, n_d)
    return _source_best(gram, rhs, _binary_candidates(n_d)).copy()


def tag_data_update_discrete(y, c, x_pilot, g_str, g_sr) -> np.ndarray:
    """Per-row sign decisions on the direct-component-free data rows.

    Rows decouple, so the joint minimizer over the +/-1 product alphabet is
    the per-row matched-filter sign; exact ties resolve to +1.  ``c`` is
    the full source word.  Raises ``ValueError`` on a non-finite frame.
    """
    if np.ndim(c) != 1:
        raise DimensionMismatchError("source codeword must be 1-D")
    y, q = _checked_frame(y, None, np.size(c))
    xi = conv_matrix_from_code(c, q)
    return _tag_signs(y[np.size(x_pilot):], *_pulse_shapes(xi, g_str, g_sr))


def relaxed_data_updates(y, layout: PilotLayout, c_data, x_data, g_str, g_sr,
                         lambda_c: float, lambda_x: float):
    """Continuous data updates of the quadratically penalized objective.

    The source block solves the penalized normal equations of the source
    quadratic form; the tag block is a scalar-normalized matched filter.
    Both are exact minimizers of their blocks; slicing is the caller's job
    (once, at exit).
    """
    y, q = _checked_frame(y, layout.l, layout.n)
    n_d, l_p = layout.n_data, layout.x_pilot.size
    if n_d > 0:
        gram, rhs = _source_form(y, _with_pilot(layout.x_pilot, x_data),
                                 layout.c_pilot.astype(np.complex128), g_str, g_sr, n_d)
        c_data_new = _source_relaxed(gram, rhs, lambda_c * np.eye(n_d), lambda_c)
    else:
        c_data_new = np.zeros(0, dtype=np.complex128)

    xi = conv_matrix_from_code(_with_pilot(layout.c_pilot, c_data_new), q)
    x_data_new = _tag_relaxed(y[l_p:], *_pulse_shapes(xi, g_str, g_sr), lambda_x)
    return c_data_new, x_data_new


def _objective_at(y, x_full, a_str, a_sr, g_str, g_sr, reg: RegularizationConfig,
                  lambda_c: float = 0.0, lambda_x: float = 0.0,
                  c_data=None, x_data=None):
    """Penalized residual energy of the frame model at given pulse shapes.

    Leading axes of the tag words, pulse shapes, channels and data blocks
    are a stack of candidates, scored at once; one candidate gives a scalar.
    """
    model = x_full[..., :, None] * a_str[..., None, :] + a_sr[..., None, :]
    value = (np.abs(y - model) ** 2).sum(axis=(-2, -1))
    power = 2 if reg.kind == "l2" else 1
    value = value + reg.lambda_str * (np.abs(g_str) ** power).sum(axis=-1)
    value = value + reg.lambda_sr * (np.abs(g_sr) ** power).sum(axis=-1)
    for lam, data in ((lambda_c, c_data), (lambda_x, x_data)):
        if data is not None:
            value = value + lam * (np.abs(data) ** 2).sum(axis=-1)
    return value


def decode_iterative(y, layout: PilotLayout, reg: RegularizationConfig,
                     mode: str = "discrete", init_data=None) -> PilotAidedResult:
    """Block-coordinate descent: channels, then source data, then tag data.

    The descent starts from ``init_data = (c_data, x_data)``, or, when it is
    None, from the data of :func:`decode_noniterative`.  The full codewords
    are built once; each data update writes its block in place.  The trace
    records the objective at the initial state and after each full sweep; it
    is non-increasing because every block update is an exact minimizer over
    its block (the inexact l1 channel update is guarded: a step that fails to
    improve the objective is discarded).  The channels fitted at the initial
    data serve sweep 1, so a decode makes one channel update per sweep.  The
    loop stops after ``MAX_SWEEPS`` sweeps, or once the relative objective
    change falls below ``REL_TOL``.
    In relaxed mode the data blocks stay continuous until a single slice at
    exit and the trace includes the quadratic data penalties.

    The frame is checked once.  The sweeps then run the kernels of the
    public block updates directly: the tag update's convolution matrix and
    pulse shapes serve the sweep's objective and the next sweep's channel
    fit, since neither the codeword nor the channels change in between.
    """
    y, q = _checked_frame(y, layout.l, layout.n)
    if mode not in ("discrete", "relaxed"):
        raise ValueError(f"unknown mode {mode!r}")
    relaxed = mode == "relaxed"
    if relaxed and (reg.lambda_c is None or reg.lambda_x is None):
        raise ConfigInvalidError(
            "relaxed updates need numeric lambda_c/lambda_x (the harness "
            "defaults them to the noise variance)"
        )
    lambda_c = float(reg.lambda_c) if relaxed else 0.0
    lambda_x = float(reg.lambda_x) if relaxed else 0.0

    if init_data is None:
        start = _noniterative(y, layout, q)
        init_data = (start.c_data_hat, start.x_data_hat)
    c = _with_pilot(layout.c_pilot, init_data[0])
    x = _with_pilot(layout.x_pilot, init_data[1])
    if c.shape != (layout.n,) or x.shape != (layout.l,):
        raise DimensionMismatchError("init_data lengths must match the layout's data")
    n_p, l_p, n_d = layout.c_pilot.size, layout.x_pilot.size, layout.n_data
    c_data, x_data = c[n_p:], x[l_p:]       # views: the blocks the updates write
    c_pilot, data_rows = c[:n_p], y[l_p:]
    frame = _Frame(y, q, reg)
    penalized = {"c_data": c_data, "x_data": x_data} if relaxed else {}

    def score(a_str, a_sr, gs, gr):
        return _objective_at(y, x, a_str, a_sr, gs, gr, reg, lambda_c, lambda_x,
                             **penalized)

    # trace[0] is the objective after a channel update at the initial data,
    # so initial objectives are comparable across initializations
    xi = conv_matrix_from_code(c, q)
    g_str, g_sr = _channel_fit(frame, xi, x, reg)
    a_str, a_sr = _pulse_shapes(xi, g_str, g_sr)
    trace = [score(a_str, a_sr, g_str, g_sr)]
    if relaxed:
        lam_eye, cands = lambda_c * np.eye(n_d), None
    else:
        _check_enum_budget(n_d)
        lam_eye, cands = None, _binary_candidates(n_d)
    # objective values this close to zero are float crumbs, treated as equal
    zero_floor = (np.finfo(float).eps * float((np.abs(y) ** 2).sum())) ** 2
    converged = False
    iters = 0
    for iters in range(1, MAX_SWEEPS + 1):
        # sweep 1 starts from the data the channels were just fitted to
        if iters > 1:
            g_new = _channel_fit(frame, xi, x, reg)
            # FISTA is inexact; never accept a step that worsens the objective
            if reg.kind == "l1" and score(*_pulse_shapes(xi, *g_new), *g_new) > trace[-1]:
                g_new = g_str, g_sr
            g_str, g_sr = g_new

        if n_d > 0:
            gram, rhs = _source_form(y, x, c_pilot, g_str, g_sr, n_d)
            c_data[:] = (_source_relaxed(gram, rhs, lam_eye, lambda_c) if relaxed
                         else _source_best(gram, rhs, cands))
        xi = conv_matrix_from_code(c, q)
        a_str, a_sr = _pulse_shapes(xi, g_str, g_sr)
        x_data[:] = (_tag_relaxed(data_rows, a_str, a_sr, lambda_x) if relaxed
                     else _tag_signs(data_rows, a_str, a_sr))

        trace.append(score(a_str, a_sr, g_str, g_sr))
        delta = abs(trace[-1] - trace[-2])
        if delta < REL_TOL * abs(trace[-2]) or delta <= zero_floor:
            converged = True
            break

    return PilotAidedResult(
        c_data_hat=_slice_pm1(c_data), x_data_hat=_slice_pm1(x_data),
        g_str_hat=g_str, g_sr_hat=g_sr,
        objective_trace=trace, iters=iters, converged=converged,
        degenerate=float(np.linalg.norm(a_str)) == 0.0,
    )


def exhaustive_search(y, layout: PilotLayout, reg: RegularizationConfig) -> PilotAidedResult:
    """Global minimizer over all +/-1 data pairs, with inner channel updates.

    Pairs run in (source, tag) order, ``_SEARCH_CHUNK`` at a time: each
    source word's convolution matrix is built once, every chunk is fitted by
    one stacked channel fit and scored by one stacked objective, and the
    first minimum wins.
    """
    y, q = _checked_frame(y, layout.l, layout.n)
    n_d, l_d = layout.n_data, layout.l_data
    if 2 ** (n_d + l_d) > SEARCH_BUDGET:
        raise BudgetExceededError(
            f"2^{n_d + l_d} data pairs exceed the search budget {SEARCH_BUDGET}"
        )
    c_data, x_data = _binary_candidates(n_d), _binary_candidates(l_d)
    x_words = _with_pilot(layout.x_pilot, x_data)
    xi_words = conv_matrix_from_code(_with_pilot(layout.c_pilot, c_data), q)
    frame = _Frame(y, q, reg)
    pairs = len(c_data) * len(x_words)
    best = None
    for start in range(0, pairs, _SEARCH_CHUNK):
        ci, ti = np.divmod(np.arange(start, min(start + _SEARCH_CHUNK, pairs)), len(x_words))
        xi, xw = xi_words[ci], x_words[ti]
        g_str, g_sr = _channel_fit(frame, xi, xw, reg)
        values = _objective_at(y, xw, *_pulse_shapes(xi, g_str, g_sr), g_str, g_sr, reg)
        i = int(np.argmin(values))
        if best is None or values[i] < best[0]:
            best = (values[i], ci[i], ti[i], g_str[i], g_sr[i])
    value, ci, ti, g_str, g_sr = best
    return PilotAidedResult(
        c_data_hat=c_data[ci].copy(), x_data_hat=x_data[ti].copy(),
        g_str_hat=g_str, g_sr_hat=g_sr,
        objective_trace=[value], iters=0, converged=True,
    )
