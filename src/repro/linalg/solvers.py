"""The S3 batched solve: one LAPACK call per solve group.

The paper's S3 is the per-row ``smat x = svec`` solve; §V-C compares a
Gaussian-elimination kernel against the Cholesky method and keeps the
latter.  The host measured the same question (``cholesky`` and
``gaussian`` ran 3.5–14× slower than this path, BENCH_3) and keeps one
path: the whole occupied ``(batch, k, k)`` stack is solved by one
``np.linalg.solve`` gufunc call — a LAPACK ``dgesv`` (LU with partial
pivoting) per system, with the GIL released and no Python loop.  LU
costs twice the flops of Cholesky, but at ALS widths a host S3 group is
bound by per-call overhead, not arithmetic (see docs/performance.md
§S3).  A system with NaN or inf entries raises :class:`CholeskyError`;
an exactly singular one (never, for the ridge-regularized normal
equations) gets a counted least-squares answer instead of aborting its
batch.

The from-scratch references stay as plain functions for tests and the
``solve`` grid workload: :func:`repro.linalg.cholesky.batched_cholesky_solve`
(the paper's hand-written kernel) and
:func:`repro.linalg.gaussian.batched_gaussian_solve` (the §V-C
comparison point).
"""

from __future__ import annotations

import numpy as np

from repro.linalg.cholesky import CholeskyError, as_float64_stack
from repro.obs import metrics as obs_metrics
from repro.obs.spans import is_enabled

__all__ = ["batched_lapack_solve", "lapack_cholesky_factor"]


def lapack_cholesky_factor(a: np.ndarray) -> np.ndarray:
    """Batched lower-Cholesky via LAPACK, with the reference error type.

    Same contract as :func:`repro.linalg.cholesky.batched_cholesky_factor`
    (raises :class:`CholeskyError` naming the first offending system,
    non-finite input included) but one ``dpotrf`` gufunc call for the
    whole stack.
    """
    a = as_float64_stack(a, 3)
    if a.shape[1] != a.shape[2]:
        raise ValueError("input must have shape (batch, k, k)")
    try:
        L = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise _rejection(a) from None
    if not _finite_diagonal(L):
        raise _rejection(a)
    return L


def _finite_diagonal(L: np.ndarray) -> bool:
    """Whether every factor in the stack has a finite diagonal.

    ``dpotrf``'s pivot test (``ajj <= 0``) is false for NaN, so a NaN in
    a system's lower triangle comes back as a NaN factor instead of an
    error.  Any non-finite entry in row i of the lower triangle reaches
    ``L[i, i]`` through the pivot's sum of squares, so this O(batch·k)
    check catches every such system.
    """
    return bool(np.isfinite(np.diagonal(L, axis1=-2, axis2=-1)).all())


def _non_finite(i: int) -> CholeskyError:
    return CholeskyError(f"matrix {i} has non-finite entries")


def _rejection(a: np.ndarray) -> CholeskyError:
    """The reference's error for the first system the factorization rejects."""
    for i, ai in enumerate(a):
        if not np.isfinite(np.tril(ai)).all():
            return _non_finite(i)
        try:
            L = np.linalg.cholesky(ai)
        except np.linalg.LinAlgError:
            return CholeskyError(f"matrix {i} not positive definite")
        if not _finite_diagonal(L):
            return CholeskyError(f"matrix {i} not positive definite")
    return CholeskyError("stack not positive definite")


def _refuse_non_finite(a: np.ndarray) -> None:
    """Raise :class:`CholeskyError` naming the first system holding a NaN or inf.

    The common, finite case costs one pass over ``a`` and no temporary:
    a sum is NaN or infinite when any entry is.  A finite stack whose
    sum overflows takes the per-system check and passes it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(a.sum()):
            return
    bad = ~np.isfinite(a).all(axis=(1, 2))
    if bad.any():
        raise _non_finite(int(np.argmax(bad)))


def _lu_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One ``dgesv`` per system inside one gufunc call: no Python loop."""
    return np.linalg.solve(a, b[..., None])[..., 0]


def batched_lapack_solve(
    a: np.ndarray, b: np.ndarray, fallback: bool = True
) -> np.ndarray:
    """Solve a stack of SPD systems with one batched LAPACK call.

    Every system is solved by LU with partial pivoting (``dgesv``), all
    of them inside one ``np.linalg.solve`` gufunc call.  A system's
    answer depends only on that system, never on the others in its
    stack, so any split of the rows into groups solves each row
    bitwise the same.

    A system with non-finite entries raises :class:`CholeskyError`
    naming it, in both modes, as the reference does.  ``fallback=False``
    first checks positive definiteness with
    :func:`lapack_cholesky_factor` and raises like the reference.
    ``fallback=True`` (the sweep default) solves any nonsingular system,
    an indefinite one included; when LU finds an exactly singular
    system, the stack is re-solved one system at a time and each
    singular one gets a least-squares answer (counted in the
    ``solver.lapack.fallback_systems`` metric).
    """
    a = as_float64_stack(a, 3)
    b = as_float64_stack(b, 2, "rhs")
    if a.shape[1] != a.shape[2]:
        raise ValueError("input must have shape (batch, k, k)")
    if b.shape[0] != a.shape[0] or b.shape[1] != a.shape[1]:
        raise ValueError("rhs must have shape (batch, k)")
    if not fallback:
        lapack_cholesky_factor(a)
    _refuse_non_finite(a)
    try:
        return _lu_solve(a, b)
    except np.linalg.LinAlgError:
        return _solve_with_fallback(a, b)


def _solve_with_fallback(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-system solve of a finite stack holding a singular system."""
    x = np.empty_like(b)
    singular = 0
    for i in range(a.shape[0]):
        try:
            x[i] = _lu_solve(a[i:i + 1], b[i:i + 1])[0]
        except np.linalg.LinAlgError:
            x[i] = np.linalg.lstsq(a[i], b[i], rcond=None)[0]
            singular += 1
    if is_enabled():
        obs_metrics.inc("solver.lapack.fallback_systems", singular)
    return x

