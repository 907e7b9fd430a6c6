"""Vectorized NumPy fast paths for the ALS update.

Every one of the 8 code variants computes the same half-sweep result
(they differ only in hardware mapping), so a single vectorized
implementation serves them all on large data.  Its equivalence to the
work-item kernels is asserted by the test suite on small instances
(tests/kernels/), which is what licenses the solvers to use it.

``sweep_occupied`` is the shard-sized kernel: assembly (S1/S2) plus the
batched solve (S3) over the *occupied* rows of one CSR matrix.  The
serial sweeps here wrap it for a whole matrix; the parallel executor
(:mod:`repro.parallel`) runs it once per nnz-balanced row shard on a
thread pool — BLAS and LAPACK release the GIL inside the batched GEMMs
and factorizations, so shards genuinely overlap.
"""

from __future__ import annotations

import numpy as np

from repro.linalg.normal_equations import (
    SolveGroup,
    binned_normal_equations,
    binned_solve_groups,
)
from repro.linalg.solvers import batched_lapack_solve
from repro.obs import metrics as obs_metrics
from repro.obs.spans import is_enabled, span
from repro.sparse.csr import CSRMatrix

__all__ = ["fast_half_sweep", "fast_iteration", "sweep_occupied"]


def sweep_occupied(
    R: CSRMatrix,
    Y: np.ndarray,
    lam: float,
    weighted: bool = False,
    tile_nnz: int | None = None,
    compute_dtype: object | None = None,
    implicit_alpha: float | None = None,
    base_gram: np.ndarray | None = None,
    col_block: tuple[int, int] | None = None,
    complement: np.ndarray | None = None,
    gram_complement: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Assemble and solve the occupied rows of ``R``; empty rows cost nothing.

    Returns ``(rows, X_rows)``: the occupied row indices and their solved
    factors.  Assembly is restricted to the (cached) occupied submatrix
    *before* S1, so an all-empty tail — common in the CSC sweep of a
    cold-start corpus — never allocates normal equations at all.

    ``weighted=True`` applies ALS-WR's per-row ridge ``λ·|Ω_u|·I``
    instead of the uniform ``λ I``.

    An explicit row whose degree bin is narrower than the system width
    ``d`` solves the exact dual system
    ``(Y_Ω Y_Ωᵀ + ρI) α = r`` and returns ``x = Y_Ωᵀ α``
    (:func:`~repro.linalg.normal_equations.binned_solve_groups`); the
    dual systems solve in a few width groups, each one S3 span with
    ``form="dual"``.  The groups stream: each is assembled in its own S1
    span, solved, written into ``X_rows`` and freed before the next is
    assembled, so a sweep holds one group's systems at a time.  Each
    group is solved by one :func:`~repro.linalg.solvers.batched_lapack_solve`
    call.

    ``implicit_alpha`` switches to the implicit-feedback (Hu–Koren)
    update: the assembly computes the confidence-weighted correction
    ``Σ α·r · y yᵀ`` and the RHS ``Σ (1 + α·r) · y`` through the same
    binned/tiled kernels (weights derive from each shard's own values,
    so executor shards reproduce the serial result bitwise), and
    ``base_gram`` — the shared dense ``YᵀY`` the caller computes once
    per half-sweep — is broadcast onto every row's system before S3.

    ``col_block=(start, stop)`` restricts the update to a *subspace* of
    ``d = stop - start`` factor coordinates (iALS++ block coordinate
    descent): assembly runs against ``Y[:, start:stop]`` only — d×d Gram
    blocks, d-length RHS — and the contribution of the frozen complement
    coordinates is folded into the right-hand side via ``complement``
    (required; shape ``(R.nnz,)``, aligned with ``R``'s entries): the
    prediction each stored rating gets from the k−d columns outside the
    block, which :func:`~repro.core.subspace.subspace_iteration`
    maintains across block updates.  The returned ``X_rows`` then has
    ``d`` columns.  For the implicit
    update the complement additionally enters through the dense
    cross-Gram term ``X̄·Ḡ[comp, block]``, supplied per row of ``R`` as
    ``gram_complement`` (shape ``(R.nrows, d)``), with ``base_gram`` the
    *full* ``k×k`` Gramian of ``Y``.  Both complements come from the
    caller, so a block update reads no other row's factors and any row
    split (executor shards, resident shards) solves identical systems.
    A full-width block skips every complement term and is
    bitwise-identical to the unblocked sweep.
    """
    if lam <= 0:
        raise ValueError("lam must be positive (λI keeps smat SPD)")
    if implicit_alpha is not None and weighted:
        raise ValueError("implicit_alpha and weighted (ALS-WR) are exclusive")
    k = Y.shape[1]
    if col_block is not None:
        start, stop = int(col_block[0]), int(col_block[1])
        if not (0 <= start < stop <= k):
            raise ValueError(f"col_block [{start}, {stop}) out of range for k={k}")
        blocked = stop - start < k
    else:
        start, stop = 0, k
        blocked = False
    d = stop - start
    implicit = implicit_alpha is not None
    if blocked:
        if complement is None:
            raise ValueError("a strict col_block requires the complement")
        if complement.shape != (R.nnz,):
            raise ValueError(f"complement must have shape {(R.nnz,)}")
        if implicit and (
            gram_complement is None or gram_complement.shape != (R.nrows, d)
        ):
            raise ValueError(
                f"a strict col_block implicit update requires a "
                f"gram_complement of shape {(R.nrows, d)}"
            )
    rows, sub = R.occupied_submatrix()
    if rows.size == 0:
        return rows, np.zeros((0, d), dtype=np.float64)
    # At full width Y[:, 0:k] is a plain view and every complement term
    # below is skipped, so the blocked path degenerates to the historical
    # sweep operation-for-operation (bitwise d == k reduction).  ``sub``
    # holds R's entries in R's order, so ``complement`` aligns with it.
    Yb = Y[:, start:stop] if blocked else Y
    if implicit:
        w = implicit_alpha * sub.value.astype(np.float64)
        rv = w + 1.0
        if blocked:
            rv = rv - w * complement
        A, b = binned_normal_equations(
            sub,
            Yb,
            lam=lam,
            tile_nnz=tile_nnz,
            compute_dtype=compute_dtype,
            nnz_weight=w,
            rhs_nnz_value=rv,
        )
        if base_gram is not None:
            if base_gram.shape != (k, k):
                raise ValueError(f"base_gram must have shape {(k, k)}")
            A += base_gram[start:stop, start:stop]
            if blocked:
                # The (unweighted) part of the implicit loss over
                # unobserved entries couples the block to the frozen
                # complement coordinates through the dense Gramian:
                # b_B -= X̄ · Ḡ[comp, B].
                b -= gram_complement[rows]
        elif blocked:
            raise ValueError("a strict col_block implicit update requires base_gram")
        # The dense YᵀY base term has no short form: implicit rows stay k×k.
        groups = [SolveGroup("primal", np.arange(rows.size), A, b)]
    else:
        rv = sub.value.astype(np.float64) - complement if blocked else None
        # ALS-WR's ridge scales with the *full-row* degree, which a block
        # update leaves unchanged — the same λ·|Ω_u| lands on each system.
        ridge = lam * sub.row_lengths().astype(np.float64) if weighted else lam
        groups = binned_solve_groups(
            sub, Yb, ridge, tile_nnz=tile_nnz,
            compute_dtype=compute_dtype, rhs_nnz_value=rv,
        )
    if is_enabled():
        obs_metrics.inc("als.sweep.rows", rows.size)
        obs_metrics.inc("sparse.nnz_touched", R.nnz)
        if blocked:
            obs_metrics.inc("subspace.block_updates")
            obs_metrics.set_gauge("subspace.block_size", d)
    s3_name = "als.implicit.s3" if implicit else "als.s3.solve"
    X_rows = np.empty((rows.size, d), dtype=np.float64)
    for g in groups:
        with span(s3_name, stage="S3", solver="lapack", k=g.width,
                  batch=g.rows.size, form=g.form):
            obs_metrics.inc("solver.lapack.calls")
            if g.form == "dual":
                obs_metrics.inc("als.sweep.dual_rows", g.rows.size)
            X_rows[g.rows] = g.factors(batched_lapack_solve(g.A, g.b))
        # Free the solved group before the generator assembles the next.
        del g
    return rows, X_rows


def fast_half_sweep(
    R: CSRMatrix,
    Y: np.ndarray,
    lam: float,
    X_prev: np.ndarray | None = None,
    tile_nnz: int | None = None,
    compute_dtype: object | None = None,
) -> np.ndarray:
    """Update all rows: ``x_u = (Y_ΩᵀY_Ω + λI)⁻¹ Y_Ωᵀ r_u`` (Eq. 4).

    Rows with no observed ratings are skipped, exactly as Algorithm 2's
    ``omegaSize > 0`` guard does: they keep their previous value
    (``X_prev``), or zero when no previous factors are given.

    ``tile_nnz``/``compute_dtype`` set the binned assembly's tile budget
    and compute precision (see :func:`binned_normal_equations`); ``None``
    defers to the knob (:mod:`repro.knobs`).

    A :class:`~repro.sparse.shards.ShardedCSR` ``R`` runs the blocked
    out-of-core sweep (one resident row-range shard at a time) through a
    serial :class:`~repro.parallel.executor.SweepExecutor`; the result
    is bitwise-identical to the in-RAM sweep.
    """
    from repro.sparse.shards import ShardedCSR

    if isinstance(R, ShardedCSR):
        # Imported lazily: parallel.executor imports this module.
        from repro.parallel.executor import SweepExecutor

        with SweepExecutor(1) as ex:
            return ex.half_sweep(
                R, Y, lam, X_prev=X_prev,
                tile_nnz=tile_nnz, compute_dtype=compute_dtype,
            )
    m = R.nrows
    k = Y.shape[1]
    X = np.zeros((m, k), dtype=np.float64)
    if X_prev is not None:
        if X_prev.shape != (m, k):
            raise ValueError(f"X_prev must have shape {(m, k)}")
        X[:] = X_prev
    rows, X_rows = sweep_occupied(
        R, Y, lam, tile_nnz=tile_nnz, compute_dtype=compute_dtype,
    )
    X[rows] = X_rows
    return X


def fast_iteration(
    R_rows: CSRMatrix,
    R_cols: CSRMatrix,
    X: np.ndarray,
    Y: np.ndarray,
    lam: float,
    tile_nnz: int | None = None,
    compute_dtype: object | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One ALS iteration (Algorithm 1 lines 4–9).

    ``R_cols`` is the transpose of ``R_rows`` in CSR form — i.e. the CSC
    view the paper uses for the Y update (§III-A).
    """
    X_new = fast_half_sweep(
        R_rows, Y, lam, X_prev=X,
        tile_nnz=tile_nnz, compute_dtype=compute_dtype,
    )
    Y_new = fast_half_sweep(
        R_cols, X_new, lam, X_prev=Y,
        tile_nnz=tile_nnz, compute_dtype=compute_dtype,
    )
    return X_new, Y_new
