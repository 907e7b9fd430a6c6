"""S3 solver variants: one registry for the batched normal-equation solve.

The paper's S3 is the per-row ``smat x = svec`` solve; §V-C compares a
Gaussian-elimination kernel against the Cholesky method and keeps the
latter.  This module is where those code variants live on the host side:

* ``lapack`` — the default.  The whole occupied ``(batch, k, k)`` stack
  is factored by NumPy's native batched ``np.linalg.cholesky`` (one
  gufunc call into LAPACK ``dpotrf``) and solved with two blocked
  batched triangular substitutions whose k² work rides on O(k/16)
  GEMMs.  It keeps every check the reference makes: a system with NaN
  or inf entries raises :class:`CholeskyError` (``dpotrf`` itself lets
  NaN through, so the factor's diagonal is checked).  When the batched factorization
  rejects the stack, the failing systems are isolated per-system (the
  paper's SPD guarantee makes this a never-in-theory robustness path)
  and recovered with a least-squares solve, so one finite indefinite
  matrix no longer aborts the whole batch.
* ``cholesky`` — the from-scratch reference (:mod:`repro.linalg.cholesky`).
  Loops over the k columns with Python-level einsum dispatches: faithful
  to the paper's hand-written kernel, but ~3·k interpreter round-trips
  per half-sweep.  Kept as the test oracle.
* ``gaussian`` — from-scratch LU with partial pivoting, the §V-C
  comparison point (~2× the flops of Cholesky on SPD systems).

The ``solver`` knob (:mod:`repro.knobs`) names the variant a sweep uses.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.linalg.cholesky import (
    CholeskyError,
    as_float64_stack,
    batched_cholesky_solve,
)
from repro.knobs import Knob
from repro.linalg.gaussian import batched_gaussian_solve
from repro.obs import metrics as obs_metrics
from repro.obs.spans import is_enabled

__all__ = [
    "SOLVER_MODES",
    "SOLVERS",
    "batched_lapack_solve",
    "lapack_cholesky_factor",
    "configure_solver",
    "resolve_solver",
    "solver_fn",
]


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


def _indefinite_mask(a: np.ndarray) -> np.ndarray:
    """Boolean mask of systems whose individual factorization fails."""
    bad = np.zeros(a.shape[0], dtype=bool)
    for i in range(a.shape[0]):
        try:
            np.linalg.cholesky(a[i])
        except np.linalg.LinAlgError:
            bad[i] = True
    if not bad.any():
        # The batched gufunc rejected the stack but every system factors
        # alone — should not happen; flag everything rather than loop.
        bad[:] = True
    return bad


#: Panel width of the blocked substitution: within a panel the rows are
#: eliminated one vectorized step at a time, and the trailing update is
#: a single batched GEMM — O(k/block) matmuls carry the k² work instead
#: of k dot products, and (unlike ``np.linalg.solve`` on the factor) no
#: LU of an already-triangular matrix is paid.
_TRSM_BLOCK = 16


def _triangular_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x`` with ``L Lᵀ x = b`` via two blocked batched substitutions."""
    k = b.shape[1]
    block = _TRSM_BLOCK
    # Forward: L z = b, by lower panels.
    z = b.copy()
    for s in range(0, k, block):
        e = min(s + block, k)
        for i in range(s, e):
            if i > s:
                z[:, i] -= np.einsum("bj,bj->b", L[:, i, s:i], z[:, s:i])
            z[:, i] /= L[:, i, i]
        if e < k:
            z[:, e:] -= np.matmul(L[:, e:, s:e], z[:, s:e, None])[:, :, 0]
    # Backward: Lᵀ x = z, by upper panels (indexing L column-wise keeps
    # the factor in place — no (batch, k, k) transposed copy).
    x = z
    for e in range(k, 0, -block):
        s = max(e - block, 0)
        for i in range(e - 1, s - 1, -1):
            if i < e - 1:
                x[:, i] -= np.einsum("bj,bj->b", L[:, i + 1:e, i], x[:, i + 1:e])
            x[:, i] /= L[:, i, i]
        if s > 0:
            x[:, :s] -= np.matmul(
                L[:, s:e, :s].transpose(0, 2, 1), x[:, s:e, None]
            )[:, :, 0]
    return x


def batched_lapack_solve(
    a: np.ndarray, b: np.ndarray, fallback: bool = True
) -> np.ndarray:
    """Solve a stack of SPD systems with LAPACK-class batched kernels.

    ``fallback=True`` (the sweep default) degrades gracefully when the
    batched factorization rejects the stack: PD systems are still solved
    through their Cholesky factors, and the finite indefinite ones fall
    back to a per-system least-squares solve (counted in the
    ``solver.lapack.fallback_systems`` metric).  ``fallback=False``
    raises :class:`CholeskyError` like the reference implementation.
    A system with non-finite entries raises :class:`CholeskyError` in
    both modes, as the reference does.
    """
    a = as_float64_stack(a, 3)
    b = as_float64_stack(b, 2, "rhs")
    if a.shape[1] != a.shape[2]:
        raise ValueError("input must have shape (batch, k, k)")
    if b.shape[0] != a.shape[0] or b.shape[1] != a.shape[1]:
        raise ValueError("rhs must have shape (batch, k)")
    try:
        L = lapack_cholesky_factor(a)
    except CholeskyError:
        if not fallback:
            raise
        return _solve_with_fallback(a, b)
    return _triangular_solve(L, b)


def _solve_with_fallback(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    bad = _indefinite_mask(a)
    good = ~bad
    L = np.linalg.cholesky(a[good]) if good.any() else None
    # Non-finite systems raise rather than reach lstsq (which fails with
    # "SVD did not converge" after LAPACK noise on stderr) or return the
    # NaN factor dpotrf accepted.
    non_finite = np.zeros(a.shape[0], dtype=bool)
    non_finite[bad] = ~np.isfinite(a[bad]).all(axis=(1, 2))
    if L is not None:
        non_finite[good] = ~np.isfinite(np.diagonal(L, axis1=1, axis2=2)).all(axis=1)
    if non_finite.any():
        raise _non_finite(int(np.argmax(non_finite)))
    x = np.empty_like(b)
    if L is not None:
        x[good] = _triangular_solve(L, b[good])
    for i in np.nonzero(bad)[0]:
        x[i] = np.linalg.lstsq(a[i], b[i], rcond=None)[0]
    if is_enabled():
        obs_metrics.inc("solver.lapack.fallback_systems", int(bad.sum()))
    return x


#: name -> batched solve ``(A, b) -> x`` over ``(batch, k, k)`` stacks.
SOLVERS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "cholesky": batched_cholesky_solve,
    "gaussian": batched_gaussian_solve,
    "lapack": batched_lapack_solve,
}

#: Names accepted by ``ALSConfig.solver`` / ``--solver`` / ``REPRO_SOLVER``.
SOLVER_MODES = tuple(SOLVERS)


def _validate_solver(name: str) -> str:
    if name not in SOLVER_MODES:
        raise ValueError(f"solver must be one of {SOLVER_MODES}, got {name!r}")
    return name


SOLVER = Knob("solver", "REPRO_SOLVER", "lapack", _validate_solver)
configure_solver = SOLVER.configure
resolve_solver = SOLVER.resolve


def solver_fn(name: str) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The batched solve for a solver name."""
    return SOLVERS[_validate_solver(name)]
