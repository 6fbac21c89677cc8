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

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .channel import conv_matrix_from_channel, conv_matrix_from_code
from .codebooks import _binary_candidates, check_pilot_conditions
from .errors import (
    BudgetExceededError,
    ConfigInvalidError,
    DimensionMismatchError,
    PilotConditionViolatedError,
    SingularSystemError,
)
from .framesim import _checked_frame, _checked_taps
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

MAX_SWEEPS = 50           # block-coordinate descent sweeps per decode_iterative
REL_TOL = 1e-8            # relative objective change that ends the descent
ENUM_BUDGET = 2 ** 16     # most source data words the discrete update enumerates
SEARCH_BUDGET = 2 ** 20   # most data pairs exhaustive_search enumerates
# candidate pairs fitted and scored per batched step of exhaustive_search; a
# chunk's largest temporaries, its (24, k, q+1) convolution matrices, take
# 38 016 bytes at k = 33, q = 2, far below glibc's 128 KiB mmap threshold, so
# freeing them never hands pages back to the kernel for the next chunk to fault
_SEARCH_CHUNK = 24


@dataclass(frozen=True, eq=False)
class PilotLayout:
    """Pilot symbols and data lengths for one frame; immutable, compared by
    identity.  The pilots are copied into read-only float64 arrays."""

    c_pilot: np.ndarray
    x_pilot: np.ndarray
    n_data: int
    l_data: int

    def __post_init__(self):
        pilots = [np.asarray(p) for p in (self.c_pilot, self.x_pilot)]
        if any(np.any(np.imag(p) != 0) for p in pilots):
            raise ValueError("pilots must be real")
        c_pilot, x_pilot = (np.array(np.real(p), dtype=np.float64) for p in pilots)
        if c_pilot.ndim != 1 or x_pilot.ndim != 1:
            raise DimensionMismatchError("pilots must be 1-D")
        if not (np.isfinite(c_pilot).all() and np.isfinite(x_pilot).all()):
            raise ValueError("pilots must be finite")
        if not all(isinstance(v, (int, np.integer)) and v >= 0
                   for v in (self.n_data, self.l_data)):
            raise ValueError("data lengths must be integers >= 0")
        for name, pilot in (("c_pilot", c_pilot), ("x_pilot", x_pilot)):
            pilot.setflags(write=False)
            object.__setattr__(self, name, pilot)

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


def _with_pilot(pilot, data) -> np.ndarray:
    """Complex full words: the pilot ahead of the data (or of each row of it)."""
    data = np.asarray(data)
    pilot = np.broadcast_to(pilot, data.shape[:-1] + np.shape(pilot))
    return np.concatenate([pilot, data], axis=-1).astype(np.complex128)


def _full_word(pilot, data, length: int) -> np.ndarray:
    """The complex full word of a 1-D data block that fills ``length`` after the pilot."""
    data = np.asarray(data)
    if data.ndim != 1 or pilot.size + data.size != length:
        raise DimensionMismatchError(
            f"data block of shape {data.shape} does not fill the {length}-symbol "
            f"word after its {pilot.size}-symbol pilot")
    return _with_pilot(pilot, data)


class _Frame:
    """A checked (L, k) frame with the constants every channel fit reads.

    Built once per decode, so the sweeps of ``decode_iterative`` and the
    chunks of ``exhaustive_search`` share Y^T, the column sums Y^T 1, the
    energy ||Y||^2 and the ridge diagonal instead of rebuilding them per call.
    """

    __slots__ = ("y", "yt", "ysum", "ynorm2", "weights", "ridge")

    def __init__(self, y: np.ndarray, q: int, reg: RegularizationConfig):
        self.y, self.yt, self.ysum = y, y.T, y.sum(axis=0)
        self.ynorm2 = float((np.abs(y) ** 2).sum())
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
def _pilot_pinvs(layout: PilotLayout, q: int):
    """(pinv([x_pilot, 1]), pinv(Xi_pilot)) of a layout's pilots, or None when
    ``check_pilot_conditions`` fails; keyed by the layout object, whose
    pilots are frozen with it.

    Only the pilots enter here, so each layout is inverted once per process
    rather than once per frame; the arrays are read-only because every
    caller shares them.
    """
    x_pilot, c_pilot = layout.x_pilot, layout.c_pilot
    if not check_pilot_conditions(x_pilot, c_pilot, q):
        return None
    pilot_basis = np.stack([x_pilot.astype(np.complex128),
                            np.ones(x_pilot.size, dtype=np.complex128)], axis=1)
    xi_pilot = conv_matrix_from_code(c_pilot, q)[:c_pilot.size]
    pinvs = (np.linalg.pinv(pilot_basis), np.linalg.pinv(xi_pilot))
    for op in pinvs:
        op.setflags(write=False)
    return pinvs


def _source_split(g_str, g_sr, layout: PilotLayout):
    """Both channels' responses to the source pilot, (2, n+q), and their
    data columns, (2, n+q, n_data): the source word split by the layout."""
    pilot_cols, data_cols = conv_matrix_from_channel(
        np.stack([g_str, g_sr]), layout.c_pilot.size, layout.n_data)
    return pilot_cols @ layout.c_pilot, data_cols


def decode_noniterative(y, layout: PilotLayout) -> PilotAidedResult:
    """Single-pass constructive recovery from the pilot structure.

    Steps, in order: (1) the pilot rows of the frame are inverted against
    [x_pilot, 1] to recover both pulse shapes; (2) their leading entries
    are inverted against the source-pilot convolution matrix to recover
    both channel vectors; (3) the source data symbols come from averaging
    the two least-squares deconvolutions of the pulse-shape tails, the
    normal equations of both channels' data columns solved in one stacked
    call (a zero channel contributes zero, as its pseudoinverse would);
    (4) the tag data symbols come from matched-filtering the
    direct-component-free data rows.  Channel estimates use only the pilot
    rows.  A vanishing backscatter pulse shape leaves the tag data
    undefined; +1 symbols are returned with the degenerate flag set.
    """
    y, q = _checked_frame(y, layout.l, layout.n)
    return _noniterative(y, layout, q)


def _noniterative(y, layout: PilotLayout, q: int) -> PilotAidedResult:
    """:func:`decode_noniterative` on a frame already checked against the layout."""
    n_p, l_p = layout.c_pilot.size, layout.x_pilot.size
    pilot_ops = _pilot_pinvs(layout, q)
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

    # both channels' source data by one stacked normal-equation solve: a
    # nonzero channel's data columns have full column rank, and a zero
    # channel's zero Gram (its right side is zero too) becomes an identity,
    # which keeps the pseudoinverse's zero answer
    pilot_resp, data_cols = _source_split(g_str, g_sr, layout)
    data_h = np.conj(data_cols).swapaxes(-1, -2)
    gram = data_h @ data_cols
    gram[~gram.any(axis=(-2, -1))] = np.eye(layout.n_data)
    c_conts = np.linalg.solve(gram, data_h @ (shapes - pilot_resp)[..., None])
    c_data = _slice_pm1(0.5 * (c_conts[0, :, 0] + c_conts[1, :, 0]))
    x_data = _tag_signs(y[l_p:], alpha_str, alpha_sr)
    return PilotAidedResult(c_data_hat=c_data, x_data_hat=x_data,
                            g_str_hat=g_str, g_sr_hat=g_sr,
                            objective_trace=[], iters=0, converged=True,
                            degenerate=float(np.linalg.norm(alpha_str)) == 0.0)


def _channel_fit(frame: _Frame, xi, x, reg: RegularizationConfig):
    """Joint channel fits (g_str, g_sr, objective) of a stack of pairs (Xi_c, x).

    Row-wise, the frame is linear in [g_str; g_sr] with sensing matrix
    [x (x) Xi_c, 1 (x) Xi_c], whose Gram is the block matrix
    [[sum|x|^2 G0, sum x* G0], [sum x G0, L G0]] in G0 = Xi_c^H Xi_c.  The l2
    path solves the 2(q+1) normal equations, Gram plus the ridge weights, for
    the whole stack in one call; its objective is ||Y||^2 - Re(rhs^H g).  The
    l1 path refines the stack by one FISTA run on the same Grams (exact
    1/lambda_max steps, per-block weights, warm started at the l2 solution)
    with a stop family per pair, so each pair stops as it would alone.
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
    if reg.kind == "l2":
        value = frame.ynorm2 - (np.conj(rhs) * solution).sum(axis=(-2, -1)).real
    else:
        grams = sensing.reshape(-1, 2 * m, 2 * m)
        s = len(grams)
        sol = fista_stacked(grams, rhs.reshape(s, 2 * m, 1), np.full((s, 1), frame.ynorm2),
                            np.linalg.eigvalsh(grams)[:, -1], frame.weights[:, None], reg,
                            solution, families=np.arange(s)[:, None])
        solution = sol.gamma.reshape(solution.shape)
        value = sol.objective.reshape(sensing.shape[:-2])
    solution = solution[..., 0]
    return solution[..., :m], solution[..., m:], value


def iterative_channel_update(y, c, x, reg: RegularizationConfig):
    """Joint channel estimate for one full candidate codeword pair.

    Raises ``ValueError`` on a non-finite frame.
    """
    c, x = np.asarray(c, dtype=np.complex128), np.asarray(x, dtype=np.complex128)
    if c.ndim != 1 or x.ndim != 1:
        raise DimensionMismatchError("codewords must be 1-D")
    y, q = _checked_frame(y, x.size, c.size)
    return _channel_fit(_Frame(y, q, reg), conv_matrix_from_code(c, q), x, reg)[:2]


def _source_form(y, x, layout: PilotLayout, g_str, g_sr):
    """(gram, rhs) of the residual as a quadratic form in the source data.

    With the pilot response removed, row p sees the data through
    x_p Gamma_str_D + Gamma_sr_D; for real c the residual energy is
    Re(c^T gram c) - 2 Re(c^T rhs) plus a constant.
    """
    pilot_resp, (g1_d, g2_d) = _source_split(g_str, g_sr, layout)
    big_l = y.shape[0]
    resid = y - x[:, None] * pilot_resp[0] - pilot_resp[1]
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
    # an empty block (n_data = 0) has nothing to solve and no rank to take
    if lambda_c == 0.0 and gram.size and numeric_rank(gram) < gram.shape[0]:
        raise SingularSystemError("summed data Gram matrix is singular at lambda_c=0")
    return np.linalg.solve(gram, rhs)


def _check_enum_budget(n_d: int) -> None:
    if 2 ** n_d > ENUM_BUDGET:
        raise BudgetExceededError(
            f"2^{n_d} source candidates exceed the budget {ENUM_BUDGET}; "
            "use the relaxed update"
        )


def source_data_update_discrete(y, layout: PilotLayout, x_data, g_str, g_sr) -> np.ndarray:
    """Exact minimizer of the residual over all +/-1 source data words.

    ``x_data`` is the tag data block at which the source block is updated.
    Raises ``ValueError`` on a non-finite frame.
    """
    y, q = _checked_frame(y, layout.l, layout.n)
    g_str, g_sr = _checked_taps(g_str, g_sr, q)
    x = _full_word(layout.x_pilot, x_data, layout.l)
    _check_enum_budget(layout.n_data)
    gram, rhs = _source_form(y, x, layout, g_str, g_sr)
    return _source_best(gram, rhs, _binary_candidates(layout.n_data)).copy()


def tag_data_update_discrete(y, layout: PilotLayout, c_data, g_str, g_sr) -> np.ndarray:
    """Per-row sign decisions on the direct-component-free data rows.

    Rows decouple, so the joint minimizer over the +/-1 product alphabet is
    the per-row matched-filter sign; exact ties resolve to +1.  ``c_data``
    is the source data block at which the tag block is updated.  Raises
    ``ValueError`` on a non-finite frame.
    """
    y, q = _checked_frame(y, layout.l, layout.n)
    g_str, g_sr = _checked_taps(g_str, g_sr, q)
    xi = conv_matrix_from_code(_full_word(layout.c_pilot, c_data, layout.n), q)
    return _tag_signs(y[layout.x_pilot.size:], *_pulse_shapes(xi, g_str, g_sr))


def relaxed_data_updates(y, layout: PilotLayout, x_data, g_str, g_sr,
                         lambda_c: float, lambda_x: float):
    """Continuous data updates of the quadratically penalized objective.

    The source block solves the penalized normal equations of the source
    quadratic form at ``x_data``; the tag block is a scalar-normalized
    matched filter at the new source block.  Both are exact minimizers of
    their blocks; slicing is the caller's job (once, at exit).
    """
    y, q = _checked_frame(y, layout.l, layout.n)
    g_str, g_sr = _checked_taps(g_str, g_sr, q)
    gram, rhs = _source_form(y, _full_word(layout.x_pilot, x_data, layout.l),
                             layout, g_str, g_sr)
    c_data_new = _source_relaxed(gram, rhs, lambda_c * np.eye(layout.n_data), lambda_c)
    xi = conv_matrix_from_code(_with_pilot(layout.c_pilot, c_data_new), q)
    x_data_new = _tag_relaxed(y[layout.x_pilot.size:], *_pulse_shapes(xi, g_str, g_sr),
                              lambda_x)
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
    data serve sweep 1, so a decode makes one channel update per computed
    sweep.  The loop stops after ``MAX_SWEEPS`` sweeps, or once the relative
    objective change falls below ``REL_TOL``.
    In discrete mode it also stops at the exact fixed point: a sweep whose
    source and tag updates return the words they were given had its
    channels fitted to those words, so the next sweep would reproduce its
    channels, words and objective.  That repeat is appended to the trace and
    counted in ``iters`` without being computed (below the sweep cap); at
    sweep 1 the repeated state is the initial one, and ``trace[0]`` is
    appended unscored.  Trace, ``iters`` and ``converged`` equal those of a
    decode that computes every sweep.
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
    c = _full_word(layout.c_pilot, init_data[0], layout.n)
    x = _full_word(layout.x_pilot, init_data[1], layout.l)
    n_p, l_p, n_d = layout.c_pilot.size, layout.x_pilot.size, layout.n_data
    c_data, x_data = c[n_p:], x[l_p:]       # views: the blocks the updates write
    data_rows = y[l_p:]
    frame = _Frame(y, q, reg)
    penalized = {"c_data": c_data, "x_data": x_data} if relaxed else {}

    def score(a_str, a_sr, gs, gr):
        return _objective_at(y, x, a_str, a_sr, gs, gr, reg, lambda_c, lambda_x,
                             **penalized)

    # trace[0] is the objective after a channel update at the initial data,
    # so initial objectives are comparable across initializations
    xi = conv_matrix_from_code(c, q)
    g_str, g_sr, _ = _channel_fit(frame, xi, x, reg)
    a_str, a_sr = _pulse_shapes(xi, g_str, g_sr)
    trace = [score(a_str, a_sr, g_str, g_sr)]
    if relaxed:
        lam_eye, cands = lambda_c * np.eye(n_d), None
    else:
        _check_enum_budget(n_d)
        lam_eye, cands = None, _binary_candidates(n_d)
    # objective values this close to zero are float crumbs, treated as equal
    zero_floor = (np.finfo(float).eps * frame.ynorm2) ** 2
    converged = False
    iters = 0
    for iters in range(1, MAX_SWEEPS + 1):
        # sweep 1 starts from the data the channels were just fitted to
        if iters > 1:
            g_new = _channel_fit(frame, xi, x, reg)[:2]
            # FISTA is inexact; never accept a step that worsens the objective
            if reg.kind == "l1" and score(*_pulse_shapes(xi, *g_new), *g_new) > trace[-1]:
                g_new = g_str, g_sr
            g_str, g_sr = g_new

        gram, rhs = _source_form(y, x, layout, g_str, g_sr)
        c_new = (_source_relaxed(gram, rhs, lam_eye, lambda_c) if relaxed
                 else _source_best(gram, rhs, cands))
        fixed = not relaxed and np.array_equal(c_new, c_data)
        c_data[:] = c_new
        xi = conv_matrix_from_code(c, q)
        a_str, a_sr = _pulse_shapes(xi, g_str, g_sr)
        x_new = (_tag_relaxed(data_rows, a_str, a_sr, lambda_x) if relaxed
                 else _tag_signs(data_rows, a_str, a_sr))
        fixed = fixed and np.array_equal(x_new, x_data)
        x_data[:] = x_new

        # a discrete sweep that returns the words it was given is an exact
        # fixed point (see the docstring); at sweep 1 it is trace[0]'s state
        trace.append(trace[0] if fixed and iters == 1
                     else score(a_str, a_sr, g_str, g_sr))
        delta = abs(trace[-1] - trace[-2])
        if delta < REL_TOL * abs(trace[-2]) or delta <= zero_floor:
            converged = True
            break
        if fixed and iters < MAX_SWEEPS:
            trace.append(trace[-1])
            iters, converged = iters + 1, True
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
    source word's convolution matrix is built once, every chunk is fitted
    and scored by one stacked channel fit, whose minimized objective is the
    pair's score, and the first minimum wins.  The reported objective is
    recomputed from the residual at the winning pair only.
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
        g_str, g_sr, values = _channel_fit(frame, xi_words[ci], x_words[ti], reg)
        i = int(np.argmin(values))
        if best is None or values[i] < best[0]:
            best = (values[i], ci[i], ti[i], g_str[i], g_sr[i])
    _, ci, ti, g_str, g_sr = best
    value = _objective_at(y, x_words[ti], *_pulse_shapes(xi_words[ci], g_str, g_sr),
                          g_str, g_sr, reg)
    return PilotAidedResult(
        c_data_hat=c_data[ci].copy(), x_data_hat=x_data[ti].copy(),
        g_str_hat=g_str, g_sr_hat=g_sr,
        objective_trace=[value], iters=0, converged=True,
    )
