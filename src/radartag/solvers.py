"""Dense complex linear-algebra and proximal-optimization kernels.

Everything here is a pure function of its inputs; the decoders build on
these four primitives: ridge (Tikhonov) solves, complex LASSO via FISTA,
pseudoinverse application, and numerical rank.

There is one FISTA loop, :func:`fista_stacked`, which iterates a stack of
normal-equation LASSO problems; :func:`fista_precomputed` and
:func:`lasso_solve` are its single-problem entry points.  Callers choose the
step: ``lasso_solve`` and the pilot-aided channel fit take the exact largest
eigenvalue of the Gram matrix, while the pilot-free fits keep
:func:`_power_iteration_largest`, which can stop short of it, because the
benchmark reference pins the rows those fits produce.
"""

from __future__ import annotations

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
        for name in ("lambda_str", "lambda_sr"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        for name in ("lambda_c", "lambda_x"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.fista_tol <= 0:
            raise ValueError("fista_tol must be positive")
        if self.fista_max_iter < 1:
            raise ValueError("fista_max_iter must be at least 1")


@dataclass
class LassoSolution:
    """FISTA output: the minimizer plus convergence bookkeeping.

    ``objective`` is ||A g - b||^2 + sum_i lam_i |g_i| at ``gamma``, one
    value per right-hand side (and per family of a stacked solve).
    """

    gamma: np.ndarray
    converged: bool
    iterations: int
    objective: float | np.ndarray


def _as_complex_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionMismatchError(f"expected a 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix entries must be finite")
    return a


def ridge_solve(a, b, lam: float, rank_tol: float = _RANK_TOL) -> np.ndarray:
    """Minimize ||b - A g||^2 + lam ||g||^2, i.e. (A^H A + lam I)^{-1} A^H b.

    With ``lam == 0`` the Gram matrix must be invertible; a rank check at
    ``rank_tol`` raises :class:`SingularSystemError` otherwise.  ``b`` may
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
    if lam == 0 and numeric_rank(a, rank_tol) < n:
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
                  cfg: RegularizationConfig, x0: np.ndarray) -> LassoSolution:
    """FISTA on the normal-equation form of a stack of LASSO problem families.

    Solves min_x ||A x - b||^2 + sum_i lam_i |x_i| given only gram = A^H A,
    atb = A^H b, bnorm2 = ||b||^2 and a step constant L (the 1/L step needs
    L >= the largest eigenvalue of gram) for s problem families iterated in
    lockstep: ``grams`` is (s, n, n), ``atbs``/``x0`` are (s, n, r),
    ``bnorm2s`` is (s, r) and ``lipschitzes`` (s,), each family with r
    right-hand sides.  The joint stop rule waits until every column's
    relative objective change falls below ``cfg.fista_tol``.  The best
    iterate seen is kept per column, so the returned objective (s, r) never
    exceeds the starting one; ``gamma`` is (s, n, r).  This is the one FISTA
    loop: :func:`fista_precomputed` and :func:`lasso_solve` are its s = 1 case.
    """
    grams = np.asarray(grams, dtype=np.complex128)
    atbs = np.asarray(atbs, dtype=np.complex128)
    s, n, r = atbs.shape
    lam = np.asarray(lam, dtype=float)
    if lam.ndim == 0:
        lam = np.full(n, float(lam))
    bnorm2s = np.asarray(bnorm2s, dtype=float).reshape(s, r)
    steps = 1.0 / np.maximum(np.asarray(lipschitzes, dtype=float), 1e-30)
    thresh = lam[None, :, None] * (steps[:, None, None] / 2.0)

    def objective(x):
        gx = grams @ x
        quad = np.real(np.einsum("sij,sij->sj", x.conj(), gx))
        cross = np.real(np.einsum("sij,sij->sj", x.conj(), atbs))
        return quad - 2.0 * cross + bnorm2s + np.einsum("i,sij->sj", lam, np.abs(x))

    x = np.array(x0, dtype=np.complex128).reshape(s, n, r).copy()
    z = x.copy()
    t = 1.0
    obj = objective(x)
    best_obj = obj.copy()
    best_x = x.copy()
    converged = False
    it = 0
    for it in range(1, cfg.fista_max_iter + 1):
        grad = grams @ z - atbs  # gradient of (1/2)||A z - b||^2
        x_new = soft_threshold(z - steps[:, None, None] * grad, thresh)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        z = x_new + ((t - 1.0) / t_new) * (x_new - x)
        x, t = x_new, t_new
        obj_new = objective(x)
        better = obj_new < best_obj
        if np.any(better):
            best_obj = np.where(better, obj_new, best_obj)
            mask = np.broadcast_to(better[:, None, :], best_x.shape)
            best_x[mask] = x[mask]
        rel = np.abs(obj_new - obj) / np.maximum(np.abs(obj), 1e-30)
        obj = obj_new
        if np.all(rel < cfg.fista_tol):
            converged = True
            break
    return LassoSolution(gamma=best_x, converged=converged, iterations=it,
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
                        [lipschitz], lam, cfg, np.reshape(x0, (1, n, r)))
    gamma, objective = sol.gamma[0], sol.objective[0]
    return LassoSolution(gamma=gamma[:, 0] if single else gamma, converged=sol.converged,
                         iterations=sol.iterations,
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


def numeric_rank(a, rel_tol: float = _RANK_TOL) -> int:
    """Number of singular values above ``rel_tol`` times the largest one."""
    if not 0 < rel_tol < 1:
        raise ValueError("rel_tol must lie in (0, 1)")
    a = _as_complex_matrix(a)
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))
