"""Assembly of the ALS normal equations.

For each row ``u`` with rated item set Ω_u, ALS solves

    (Y_{Ω_u}ᵀ Y_{Ω_u} + λ I) x_u = Y_{Ω_u}ᵀ r_u

(paper Eq. 4).  Algorithm 2 computes the Gram matrix over *only* the rated
rows of ``Y`` — note line 6's loop bound ``omegaSize``: the Gram sum runs
over the non-zeros of row ``u``, not over all of ``Y``.

The sweep assembles with the analogue of the paper's *thread batching*
(:func:`binned_normal_equations`, :func:`binned_solve_groups`): rows are
grouped by degree (:meth:`CSRMatrix.degree_bins`), each bin gathers a
dense ``(rows, width, k)`` block of ``Y`` and reduces it with one
batched GEMM (``Gᵀ G``), tiled so peak scratch never exceeds an nnz
budget — the tile budget plays the role of the paper's bounded
local-memory working set.  S2 is fused into S1: each tile's RHS is
reduced from the same gathered block (``Gᵀ r``), the way the paper's
local-memory variant stages ``Y_Ω`` once for both steps, so ``Y`` is
read once per half-sweep.  An optional float32 compute mode mirrors the
paper's single-precision kernels (§IV); the RHS reduction and the
accumulation into the returned ``A``/``b`` stay float64.  The
``tile_nnz`` and ``assembly_dtype`` knobs (:mod:`repro.knobs`) set the
budget and the compute mode.

:func:`scatter_normal_equations` is the historical vectorized reference:
it materializes every per-rating outer product ``y_i y_iᵀ`` as an
``(nnz, k, k)`` tensor and scatter-adds it row-wise with ``np.add.at`` —
the Python analogue of the divergent one-thread-per-row kernel the paper
starts from (SAC15 baseline).  Binned beat it 274× on the full ML-1M shape
at k = 64 (BENCH_2), so no sweep runs it: it is the test
oracle and the ``assembly``/``implicit`` grid workloads' comparator.

The explicit sweep does not assemble every row's k×k system:
:func:`binned_solve_groups` gives a row whose degree bin is narrower than
``k`` the exact n×n *dual* form ``Y_Ωᵀ (Y_Ω Y_Ωᵀ + ρI)⁻¹ r`` of the same
solution, built from the same binned gather.

Both variants additionally accept a per-non-zero **weight vector**
(``nnz_weight``) turning the Gram sum into ``Σ w_e · y_e y_eᵀ`` and an
override for the RHS coefficients (``rhs_nnz_value``).  That is exactly
the confidence-weighted correction ``Yᵀ(C_u − I)Y`` of implicit-feedback
ALS (Hu–Koren, with ``w = α·r`` and RHS coefficients ``1 + α·r``), so
the implicit trainer rides the same degree-binned, tile-budgeted
machinery instead of a private ``(nnz, k, k)`` scatter kernel.  Weighted
calls report under the ``als.implicit.s1``/``als.implicit.s2`` span
names (stage attrs unchanged, so the hotspot table folds them into the
same S1/S2/S3 decomposition; the binned S1 span carries
``rhs_fused=True`` and no S2 span is emitted).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.knobs import Knob, at_least
from repro.obs import metrics as obs_metrics
from repro.obs.spans import is_enabled, span
from repro.sparse.csr import BinLanes, CSRMatrix

__all__ = [
    "assemble_gram",
    "assemble_rhs",
    "binned_normal_equations",
    "binned_solve_groups",
    "dual_width",
    "SolveGroup",
    "scatter_normal_equations",
    "complement_predictions",
    "GramCache",
    "configure_assembly",
    "assembly_defaults",
    "tile_bytes_bound",
    "DEFAULT_TILE_NNZ",
    "DEFAULT_BIN_GROWTH",
]

#: Default cap on non-zeros gathered per tile (~256 MB of float64 scratch
#: at k = 64; proportionally less for smaller k or float32 compute).
DEFAULT_TILE_NNZ = 1 << 19

#: Default degree-bin growth factor: rows whose degrees differ by less
#: than 25% share a (padded) bin, bounding both padding waste and the
#: number of bins (geometric in the max degree).
DEFAULT_BIN_GROWTH = 1.25

_COMPUTE_DTYPES = ("float32", "float64")

# Cached per-k diagonal index — hoists the per-call ``lam * np.eye(k)``
# allocation: the ridge becomes an in-place diagonal add.
_DIAG_CACHE: dict[int, np.ndarray] = {}


def _diag(k: int) -> np.ndarray:
    idx = _DIAG_CACHE.get(k)
    if idx is None:
        idx = np.arange(k)
        idx.setflags(write=False)
        _DIAG_CACHE[k] = idx
    return idx


def _as_float(Y: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """``Y`` as C-contiguous ``dtype``, copying only when it isn't already."""
    arr = np.asarray(Y)
    if arr.dtype == dtype and arr.flags.c_contiguous:
        return arr
    return np.ascontiguousarray(arr, dtype=dtype)


def _validate_dtype(compute_dtype: object) -> str:
    """A compute precision (its name, or a float dtype) as its name."""
    name = compute_dtype
    if not isinstance(name, str):
        name = np.dtype(compute_dtype).name
    if name not in _COMPUTE_DTYPES:
        raise ValueError(
            f"compute dtype must be one of {_COMPUTE_DTYPES}, got {compute_dtype!r}"
        )
    return name


TILE_NNZ = Knob("tile_nnz", "REPRO_TILE_NNZ", DEFAULT_TILE_NNZ, at_least())
ASSEMBLY_DTYPE = Knob(
    "assembly_dtype", "REPRO_ASSEMBLY_DTYPE", "float64", _validate_dtype
)


def configure_assembly(
    tile_nnz: int | None = None, compute_dtype: object | None = None
) -> None:
    """Configure both assembly knobs; ``None`` resets a knob."""
    TILE_NNZ.configure(tile_nnz)
    ASSEMBLY_DTYPE.configure(compute_dtype)


def assembly_defaults() -> dict[str, object]:
    """The currently resolved (tile_nnz, compute_dtype) defaults."""
    return {
        "tile_nnz": TILE_NNZ.resolve(),
        "compute_dtype": ASSEMBLY_DTYPE.resolve(),
    }


def tile_bytes_bound(
    tile_nnz: int,
    k: int,
    compute_dtype: object = np.float64,
    weighted: bool = False,
) -> int:
    """Upper bound on the binned path's peak per-tile scratch, in bytes.

    A tile holds at most ``tile_nnz`` gathered non-zeros and at most
    ``tile_nnz / max(k, width)`` rows, so the dominant terms are the
    ``(rows, width, k)`` gather and the ``(rows, k, k)`` GEMM output,
    both bounded by ``tile_nnz · k`` elements, and the fused RHS adds
    ``tile_nnz`` float64 coefficients plus a ``(rows, k)`` float64
    block.  The weighted (implicit) kernel adds one more
    ``tile_nnz · k`` operand (the weight-scaled gather) and the gathered
    weights themselves.  The gather and the weight-scaled gather live
    in scratch reused by every tile of one call, sized for its largest
    tile.  The lane indices are not tile scratch: they belong to the
    matrix's persistent plan (:meth:`CSRMatrix.lane_plan`, 8 bytes per
    padded lane at int32).  The ``tile_nnz`` int64/int64/bool index
    terms below cover the transient intp copies ``np.take`` makes of a
    tile's int32 lanes.  Tests assert the measured
    ``assembly.peak_tile_bytes`` gauge against this formula.
    """
    tile_nnz = TILE_NNZ.check(tile_nnz)
    cs = np.dtype(ASSEMBLY_DTYPE.check(compute_dtype)).itemsize
    gather = tile_nnz * k * cs  # G
    gemm_out = tile_nnz * k * cs  # (rows, k, k) with rows <= tile_nnz / k
    indices = tile_nnz * 16  # np.take's intp copies of the lanes
    mask = tile_nnz  # one byte of slack per lane
    rhs = tile_nnz * 16  # float64 RHS coefficients + (rows, k) RHS block
    bound = gather + gemm_out + indices + mask + rhs
    if weighted:
        bound += tile_nnz * k * cs  # Gw, the weight-scaled gather
        bound += tile_nnz * cs  # gathered weights
    return bound


def assemble_gram(Y: np.ndarray, cols: np.ndarray, lam: float) -> np.ndarray:
    """``Y_Ωᵀ Y_Ω + λI`` for one row's rated column set (the paper's smat)."""
    Y = _as_float(Y, np.float64)
    sub = Y[cols]
    G = sub.T @ sub
    d = _diag(Y.shape[1])
    G[d, d] += lam
    return G


def assemble_rhs(Y: np.ndarray, cols: np.ndarray, ratings: np.ndarray) -> np.ndarray:
    """``Y_Ωᵀ r_u`` for one row (the paper's svec)."""
    Y = _as_float(Y, np.float64)
    return Y[cols].T @ np.asarray(ratings, dtype=np.float64)


def _check_shapes(R: CSRMatrix, Y: np.ndarray) -> None:
    if Y.ndim != 2:
        raise ValueError(f"Y must be 2-D, got shape {Y.shape}")
    if Y.shape[0] != R.ncols:
        raise ValueError(f"Y must have {R.ncols} rows, got {Y.shape[0]}")


def _check_nnz_vector(v: np.ndarray | None, nnz: int, what: str) -> np.ndarray | None:
    if v is None:
        return None
    v = np.ascontiguousarray(v, dtype=np.float64)
    if v.shape != (nnz,):
        raise ValueError(f"{what} must have shape ({nnz},), got {v.shape}")
    return v


def _span_names(weighted: bool) -> tuple[str, str]:
    """Span names for the two assembly stages (implicit gets its own)."""
    if weighted:
        return "als.implicit.s1", "als.implicit.s2"
    return "als.s1.gram", "als.s2.rhs"


def scatter_normal_equations(
    R: CSRMatrix,
    Y: np.ndarray,
    lam: float,
    *,
    nnz_weight: np.ndarray | None = None,
    rhs_nnz_value: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The legacy ``np.add.at`` assembly, kept as baseline and test oracle.

    Materializes the full ``(nnz, k, k)`` outer-product tensor and
    scatter-adds it — memory and time both scale with ``nnz · k²``, which
    is exactly the pathology the binned path removes (and what
    ``benchmarks/bench_assembly.py`` measures it against).  With
    ``nnz_weight`` this is the retained SAC15-style implicit reference
    the parity tests and ``benchmarks/bench_implicit.py`` compare
    against.  No sweep calls it.
    """
    Y = _as_float(Y, np.float64)
    m = R.nrows
    k = Y.shape[1]
    _check_shapes(R, Y)
    w = _check_nnz_vector(nnz_weight, R.nnz, "nnz_weight")
    rv = _check_nnz_vector(rhs_nnz_value, R.nnz, "rhs_nnz_value")
    s1_name, s2_name = _span_names(w is not None)
    rows = R.expanded_rows()
    # The paper's S1 (smat = Y_ΩᵀY_Ω + λI) and S2 (svec = Y_Ωᵀ r_u) run as
    # separate kernels; the spans keep that boundary so the measured
    # hotspot table decomposes the same way as Fig. 8.  The Y gather is
    # shared by both steps and attributed to S1, which reads it first.
    with span(s1_name, stage="S1", nnz=R.nnz, k=k, mode="scatter"):
        gathered = Y[R.col_idx]  # (nnz, k)
        outer = gathered[:, :, None] * gathered[:, None, :]  # (nnz, k, k)
        if w is not None:
            outer *= w[:, None, None]
        A = np.zeros((m, k, k), dtype=np.float64)
        np.add.at(A, rows, outer)
        d = _diag(k)
        A[:, d, d] += lam
    with span(s2_name, stage="S2", nnz=R.nnz, k=k, mode="scatter"):
        vals = R.value.astype(np.float64) if rv is None else rv
        b = np.zeros((m, k), dtype=np.float64)
        np.add.at(b, rows, gathered * vals[:, None])
    if is_enabled():
        obs_metrics.inc("assembly.scatter.calls")
    return A, b


def binned_normal_equations(
    R: CSRMatrix,
    Y: np.ndarray,
    lam: float,
    *,
    tile_nnz: int | None = None,
    compute_dtype: object | None = None,
    growth: float | None = None,
    nnz_weight: np.ndarray | None = None,
    rhs_nnz_value: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Degree-binned, nnz-tiled assembly of ``(smat, svec)`` for all rows.

    The Python analogue of the paper's thread batching: rows of equal
    (within ``growth``) degree form one bin, whose ratings gather into a
    dense ``(rows, width, k)`` block that a single batched GEMM reduces
    to per-row Gram matrices — no ``(nnz, k, k)`` intermediate, no
    ``np.add.at``.  Bins are split into tiles of at most ``tile_nnz``
    gathered non-zeros (rows per tile additionally capped by ``k`` so the
    GEMM output obeys the same budget), which bounds peak scratch the way
    the paper's local-memory blocking bounds a work-group's footprint.

    S2 is fused: each tile's RHS ``Gᵀ r`` is reduced from the block S1
    has just gathered, instead of a second pass over ``Y`` — the paper's
    local-memory staging of ``Y_Ω`` shared by both steps.  The RHS
    coefficients are the stored values, or ``rhs_nnz_value`` when given.

    ``compute_dtype=float32`` runs the gathers and Gram GEMMs in single
    precision (the paper's device arithmetic); the RHS reduction runs
    in float64 on the gathered values, and the returned ``A``/``b``
    accumulate in float64 either way.

    ``nnz_weight`` turns the Gram sum into ``Σ w_e · y_e y_eᵀ`` by
    scaling one GEMM operand per tile, within the same tile budget.
    """
    tile = TILE_NNZ.resolve(tile_nnz)
    growth = DEFAULT_BIN_GROWTH if growth is None else float(growth)
    Yz, cdtype = _compute_operand(R, Y, compute_dtype)
    m = R.nrows
    k = Yz.shape[1]
    w_all = _check_nnz_vector(nnz_weight, R.nnz, "nnz_weight")
    rvals = _rhs_values(R, rhs_nnz_value)
    wc = None if w_all is None else _with_zero(w_all, cdtype)
    s1_name, _ = _span_names(w_all is not None)
    with span(
        s1_name, stage="S1", nnz=R.nnz, k=k, mode="binned", rhs_fused=True
    ) as s1:
        # Building the lane plan and the output allocation belong to
        # S1's measured cost (the plan is cached on R, so sweeps after
        # the first get it for free).
        plan = R.lane_plan(growth)
        s1.set(bins=len(plan))
        A = np.zeros((m, k, k), dtype=np.float64)
        b = np.zeros((m, k), dtype=np.float64)
        stats = _gram_tiles(
            Yz, plan, [lanes.bin.rows for lanes in plan], A, b, rvals, wc, tile
        )
        d = _diag(k)
        A[:, d, d] += lam
    _record_tiles(len(plan), *stats, weighted=w_all is not None)
    return A, b


def _compute_operand(
    R: CSRMatrix, Y: np.ndarray, compute_dtype: object | None
) -> tuple[np.ndarray, np.dtype]:
    """``Y`` in the resolved compute dtype, with one zero row appended.

    Padded gather lanes read that row (:func:`_gather`), so no padded
    block needs a mask pass.  ``np.take`` copies this contiguous basis
    row by row into the reused gather scratch, about twice as fast as
    fancy indexing into a fresh block.
    """
    cdtype = np.dtype(ASSEMBLY_DTYPE.resolve(compute_dtype))
    Y = np.asarray(Y)
    _check_shapes(R, Y)
    Yz = np.empty((Y.shape[0] + 1, Y.shape[1]), dtype=cdtype)
    Yz[:-1] = Y
    Yz[-1] = 0
    return Yz, cdtype


def _gather(
    Yz: np.ndarray,
    entries: np.ndarray,
    cols: np.ndarray,
    rvals: np.ndarray,
    wc: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Gather one tile of a bin's cached lanes (``entries``/``cols``).

    Returns ``(G, rt, wt)``: the ``(rows, lanes, k)`` block of ``Yz``
    (written into ``out`` when given), the lanes' RHS coefficients and
    (with ``wc``) weights.  The lane indices come straight from the
    matrix's plan (:meth:`CSRMatrix.lane_plan`), built once per matrix,
    so a visit computes no index, mask or pad write.  A padded lane
    holds the sentinels, which read ``Yz``'s zero row and the trailing
    zero of ``rvals``/``wc`` (:func:`_with_zero`), so it adds nothing to
    ``GᵀG``, ``G Gᵀ`` or ``Gᵀr``.
    """
    G = np.take(Yz, cols, axis=0, out=out, mode="clip")
    rt = np.take(rvals, entries, mode="clip")
    wt = None if wc is None else np.take(wc, entries, mode="clip")
    return G, rt, wt


def _with_zero(v: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """``v`` as ``dtype`` with one trailing zero: what a padded lane reads."""
    out = np.empty(v.size + 1, dtype=dtype)
    out[:-1] = v
    out[-1] = 0
    return out


def _rhs_values(R: CSRMatrix, rhs_nnz_value: np.ndarray | None) -> np.ndarray:
    """Float64 RHS coefficients (the stored values unless overridden),
    with the padded lanes' trailing zero."""
    rv = _check_nnz_vector(rhs_nnz_value, R.nnz, "rhs_nnz_value")
    return _with_zero(R.value if rv is None else rv, np.float64)


def _record_tiles(
    bins: int, peak_tile_bytes: int, tiles: int, weighted: bool = False
) -> None:
    if not is_enabled():
        return
    obs_metrics.set_gauge("assembly.bins", bins)
    obs_metrics.set_gauge("assembly.peak_tile_bytes", peak_tile_bytes)
    if weighted:
        obs_metrics.set_gauge("assembly.implicit.peak_tile_bytes", peak_tile_bytes)
    obs_metrics.inc("assembly.tiles", tiles)
    obs_metrics.inc("assembly.binned.calls")


def _gram_tiles(
    Yz: np.ndarray,
    plan: list[BinLanes],
    outs: list[np.ndarray],
    A: np.ndarray,
    b: np.ndarray,
    rvals: np.ndarray,
    wc: np.ndarray | None,
    tile: int,
) -> tuple[int, int]:
    """Reduce each bin's rows tile by tile into ``A[outs[i]]``/``b[outs[i]]``.

    ``outs[i]`` names the output slot of every row of ``plan[i]``'s bin
    (the row index itself for a whole-matrix assembly).  ``Yz`` is the
    basis with its zero row (:func:`_compute_operand`).  Every tile
    gathers into one scratch block (and, weighted, scales into a
    second), sized for the call's largest tile.  Returns the peak
    per-tile scratch in bytes and the number of tiles.
    """
    k = Yz.shape[1]
    # (rows per tile, lanes per segment) of each bin: long-tail rows
    # wider than the budget reduce in segments, one row per tile.
    shapes = [
        (max(1, tile // max(lanes.bin.width, k)), min(lanes.bin.width, tile))
        for lanes in plan
    ]
    scratch = k * max(
        (min(per, lanes.bin.rows.size) * seg
         for (per, seg), lanes in zip(shapes, plan)),
        default=0,
    )
    gbuf = np.empty(scratch, dtype=Yz.dtype)
    wbuf = None if wc is None else np.empty(scratch, dtype=Yz.dtype)
    peak_tile_bytes = 0
    tiles = 0
    for lanes, out, (rows_per_tile, seg) in zip(plan, outs, shapes):
        b_ = lanes.bin
        width = b_.width
        # No stage= attr here: the enclosing als.s1.gram span owns the
        # S1 attribution; bin spans only decompose it.
        with span(
            "als.s1.bin",
            width=width,
            rows=int(b_.rows.size),
            nnz=b_.nnz,
        ):
            for r0 in range(0, b_.rows.size, rows_per_tile):
                r1 = min(r0 + rows_per_tile, b_.rows.size)
                acc = None
                bacc = None
                for w0 in range(0, width, seg):
                    w1 = min(w0 + seg, width)
                    shape = (r1 - r0, w1 - w0, k)
                    size = shape[0] * shape[1] * k
                    G, rt, wt = _gather(
                        Yz, lanes.entries[r0:r1, w0:w1],
                        lanes.cols[r0:r1, w0:w1], rvals, wc,
                        out=gbuf[:size].reshape(shape),
                    )
                    # Fused S2: the RHS reduces the same gathered block
                    # (float64 arithmetic even on a float32 G).
                    part = np.einsum("rw,rwk->rk", rt, G)
                    tile_bytes = G.nbytes + rt.nbytes + part.nbytes
                    if wt is None:
                        contrib = G.transpose(0, 2, 1) @ G
                    else:
                        # Gᵀ diag(w) G: scale one operand by the weights.
                        Gw = np.multiply(
                            G, wt[:, :, None], out=wbuf[:size].reshape(shape)
                        )
                        contrib = Gw.transpose(0, 2, 1) @ G
                        tile_bytes += Gw.nbytes + wt.nbytes
                    tile_bytes += contrib.nbytes
                    if acc is None:
                        # Cross-segment accumulation (width > seg, so
                        # one row per tile) happens in float64 even in
                        # float32 compute mode; single-segment tiles
                        # upcast once on assignment into A below.
                        acc = contrib if width <= seg else contrib.astype(np.float64)
                        bacc = part
                    else:
                        acc += contrib
                        bacc += part
                    tiles += 1
                    if tile_bytes > peak_tile_bytes:
                        peak_tile_bytes = tile_bytes
                A[out[r0:r1]] = acc
                b[out[r0:r1]] = bacc
    return peak_tile_bytes, tiles


@dataclass
class SolveGroup:
    """One batch of same-width SPD systems whose solutions are row factors.

    ``form="primal"``: ``A`` is the rows' ``(Y_ΩᵀY_Ω + ρI)`` stack, ``b``
    their ``Y_Ωᵀ r``, and the solution *is* the factor.  ``form="dual"``:
    ``A`` is ``(Y_Ω Y_Ωᵀ + ρI)`` padded to ``width`` lanes, ``b`` the
    ratings themselves, and :meth:`factors` maps the solution ``α`` back
    through ``x = Y_Ωᵀ α`` (the push-through identity, exact).  A padded
    lane holds ``ρ`` on its diagonal and zeros elsewhere, with a zero
    RHS, so its ``α`` is exactly 0 and adds nothing to ``x``.
    """

    form: str
    rows: np.ndarray  # (n,) row indices into R
    A: np.ndarray  # (n, width, width) float64
    b: np.ndarray  # (n, width) float64
    parts: tuple = ()  # dual: (slice into rows, gather G) per bin

    @property
    def width(self) -> int:
        return int(self.A.shape[1])

    def factors(self, solution: np.ndarray) -> np.ndarray:
        """The ``(n, k)`` row factors for a solution of ``A · s = b``."""
        if self.form == "primal":
            return solution
        k = self.parts[0][1].shape[2]
        X = np.empty((self.rows.size, k), dtype=np.float64)
        for sl, G in self.parts:
            X[sl] = np.einsum("rw,rwk->rk", solution[sl, : G.shape[1]], G)
        return X


#: Dual systems pad their width up to a multiple of this many lanes.
DUAL_PAD = 16


def dual_width(width: int, k: int) -> int:
    """The solve width of a dual system over ``width`` ratings, or 0.

    A bin narrower than ``k`` takes the dual form.  Its systems pad to
    the next multiple of :data:`DUAL_PAD` (capped at ``k``).  The solved
    width is part of the arithmetic (an LU over another width may round
    differently), so the padding fixes each row's answer bits.  Each dual
    bin is a solve group of its own: one S3 call per bin, and a sweep
    holds one bin's systems and gather at a time.  A padded lane holds
    only the ridge and solves to 0.
    """
    if width >= k:
        return 0
    return min(-(-width // DUAL_PAD) * DUAL_PAD, k)


def binned_solve_groups(
    R: CSRMatrix,
    Y: np.ndarray,
    ridge: float | np.ndarray,
    *,
    tile_nnz: int | None = None,
    compute_dtype: object | None = None,
    rhs_nnz_value: np.ndarray | None = None,
) -> Iterator[SolveGroup]:
    """The explicit ALS systems of every occupied row, each in its smaller form.

    For a row with ``n`` ratings ``(Y_ΩᵀY_Ω + ρI)⁻¹ Y_Ωᵀ r =
    Y_Ωᵀ (Y_Ω Y_Ωᵀ + ρI)⁻¹ r``: the left side is a k×k system, the right
    an n×n one with the same nonzero spectrum.  Bins at least ``k`` wide
    are assembled by the primal binned kernel into one group; each
    narrower bin assembles ``G Gᵀ`` from its gather ``G``, which is kept
    for the back-projection, padded to :func:`dual_width`, as a group of
    its own.  The choice depends only on a row's degree bin (a fixed
    grid) and ``k``, so any row split of ``R`` puts every row in the same
    form and solves it identically.

    ``ridge`` is ``ρ``: a scalar, or one value per row of ``R`` (ALS-WR's
    ``λ·|Ω_u|``).  ``rhs_nnz_value`` replaces the stored values as ``r``
    (a subspace block's residual targets).

    A generator: each group is assembled only when the consumer asks for
    it (the primal group first, then the dual bins by width ascending),
    inside its own S1 span whose ``nnz`` counts the group's ratings; the
    first span also reads the lane plan, which builds it on a matrix's
    first sweep.  Nothing here keeps a yielded group, so a consumer that
    solves a group and drops it before asking for the next holds one
    group's systems and gathers at a time — for a dual group one bin's
    ``K`` and ``G`` — not the whole shard's.  Solving a system never
    depends on its batch, so how the rows split into groups leaves the
    factors bitwise unchanged.
    """
    tile = TILE_NNZ.resolve(tile_nnz)
    Yz, _ = _compute_operand(R, Y, compute_dtype)
    k = Yz.shape[1]
    rvals = _rhs_values(R, rhs_nnz_value)
    ridge = np.broadcast_to(ridge, (R.nrows,))
    todo = None  # (width, bins) of the groups still to assemble, next last
    while todo is None or todo:
        with span(
            "als.s1.gram", stage="S1", k=k, mode="binned", rhs_fused=True
        ) as s1:
            plan = R.lane_plan(DEFAULT_BIN_GROWTH)
            if todo is None:
                widths = [dual_width(lanes.bin.width, k) for lanes in plan]
                # The plan ascends by bin width, and so does dual_width.
                todo = [(w, [lanes]) for lanes, w in zip(plan, widths) if w][::-1]
                primal = [lanes for lanes, w in zip(plan, widths) if not w]
                if primal:
                    todo.append((0, primal))  # assembled first
                if not todo:
                    return
            width, bins = todo.pop()
            if is_enabled():
                s1.set(nnz=sum(lanes.bin.nnz for lanes in bins), bins=len(bins))
            group = _assemble_group(Yz, bins, width, rvals, ridge, tile, len(plan))
        yield group
        del group  # the consumer now holds the only reference


def _assemble_group(
    Yz: np.ndarray,
    bins: list[BinLanes],
    width: int,
    rvals: np.ndarray,
    ridge: np.ndarray,
    tile: int,
    plan_bins: int,
) -> SolveGroup:
    """The :class:`SolveGroup` of ``bins``: dual systems padded to
    ``width``, or the primal k×k ones when ``width`` is 0.  ``plan_bins``
    is the whole plan's bin count, for the ``assembly.bins`` gauge."""
    rows = np.concatenate([lanes.bin.rows for lanes in bins])
    size = width or Yz.shape[1]
    A = np.zeros((rows.size, size, size), dtype=np.float64)
    b = np.zeros((rows.size, size), dtype=np.float64)
    edges = np.cumsum([0] + [lanes.bin.rows.size for lanes in bins])
    spans = list(zip(edges[:-1], edges[1:]))
    if width:
        parts = tuple(
            (slice(lo, hi), _dual_block(Yz, lanes, rvals, A[lo:hi], b[lo:hi]))
            for lanes, (lo, hi) in zip(bins, spans)
        )
    else:
        outs = [np.arange(lo, hi) for lo, hi in spans]
        _record_tiles(
            plan_bins, *_gram_tiles(Yz, bins, outs, A, b, rvals, None, tile)
        )
        parts = ()
    diag = _diag(size)
    A[:, diag, diag] += ridge[rows, None]
    return SolveGroup("dual" if width else "primal", rows, A, b, parts)


def _dual_block(
    Yz: np.ndarray,
    lanes: BinLanes,
    rvals: np.ndarray,
    K: np.ndarray,
    r: np.ndarray,
) -> np.ndarray:
    """Write one bin's ``G Gᵀ`` and ratings into ``K``/``r``; return ``G``.

    ``G`` is the bin's whole ``(rows, width, k)`` gather — fewer than
    ``k`` lanes per row, so no segmenting — kept for ``x = Gᵀα``, so it
    is a fresh block rather than reused scratch.
    """
    width = lanes.bin.width
    G, rt, _ = _gather(Yz, lanes.entries, lanes.cols, rvals)
    K[:, :width, :width] = G @ G.transpose(0, 2, 1)
    r[:, :width] = rt
    return G


def complement_predictions(
    R: CSRMatrix,
    X_rows: np.ndarray,
    Y: np.ndarray,
    start: int,
    stop: int,
    *,
    tile_nnz: int | None = None,
) -> np.ndarray:
    """Per-non-zero predictions over the *complement* of a column block.

    For every stored entry ``(u, i)`` of ``R`` returns

        p̄_e = Σ_{j ∉ [start, stop)} X_rows[u, j] · Y[i, j]

    — the part of the model prediction contributed by the factor
    coordinates a subspace block update holds fixed.  Subtracting it from
    the residual target turns the block right-hand side into exactly the
    ``rhs_nnz_value`` hook of the assembly kernels, so iALS++ block
    coordinate descent rides the same binned/tiled machinery as the full
    sweep.  Training derives this vector from the per-rating predictions
    :class:`~repro.core.subspace.SubspaceState` maintains; this
    from-scratch recompute is the oracle the tests hold it to.

    The nnz axis is chunked so the gathered complement scratch stays
    under the configured tile budget (``chunk · (k - d)`` values per
    operand).  Accumulation is float64; each output element is an
    independent reduction over its own complement lane, so chunk
    boundaries (and therefore shard boundaries in the out-of-core path)
    do not perturb the result.
    """
    k = int(np.asarray(Y).shape[-1])
    if not (0 <= start < stop <= k):
        raise ValueError(f"block [{start}, {stop}) out of range for k={k}")
    out = np.zeros(R.nnz, dtype=np.float64)
    width = start + (k - stop)
    if width == 0 or R.nnz == 0:
        return out
    Xc = _as_float(X_rows, np.float64)
    Yc = _as_float(Y, np.float64)
    tile = TILE_NNZ.resolve(tile_nnz)
    chunk = max(1, tile // width)
    rows_e = R.expanded_rows()
    cols_e = R.col_idx
    for c0 in range(0, R.nnz, chunk):
        c1 = min(c0 + chunk, R.nnz)
        u = rows_e[c0:c1]
        i = cols_e[c0:c1]
        acc = out[c0:c1]
        if start > 0:
            acc += np.einsum(
                "ej,ej->e", Xc[u, :start], Yc[i, :start], dtype=np.float64,
            )
        if stop < k:
            acc += np.einsum(
                "ej,ej->e", Xc[u, stop:], Yc[i, stop:], dtype=np.float64,
            )
    return out


class GramCache:
    """Dense Gramian ``FᵀF`` maintained under block-column updates.

    The implicit-feedback update needs the full ``k×k`` Gramian of the
    fixed factor every half-sweep.  Under subspace descent only ``d``
    columns of ``F`` change per block update, so the cache refreshes just
    the affected ``d`` rows/columns with one ``(d, m)·(m, k)`` GEMM —
    O(m·d·k) instead of the O(m·k²) full recompute.  Each refresh is an
    exact recomputation from the current ``F`` (no running accumulation),
    so the cached matrix never drifts from a fresh ``FᵀF`` beyond the
    per-block GEMM rounding.

    A full-width update falls back to a fresh recompute so the ``d == k``
    configuration stays bitwise-identical to the existing trainers.
    """

    def __init__(self, F: np.ndarray) -> None:
        self.k = int(np.asarray(F).shape[-1])
        self._gram = self._full(F)

    @staticmethod
    def _full(F: np.ndarray) -> np.ndarray:
        # Matches the implicit half-sweep's historical recompute
        # (ascontiguousarray + T @) operation-for-operation.
        Fc = np.ascontiguousarray(F, dtype=np.float64)
        return Fc.T @ Fc

    @property
    def matrix(self) -> np.ndarray:
        """The cached ``(k, k)`` Gramian (owned by the cache; do not mutate)."""
        return self._gram

    def refresh(self, F: np.ndarray) -> np.ndarray:
        """Recompute the full Gramian from scratch."""
        self._gram = self._full(F)
        if is_enabled():
            obs_metrics.inc("gram.full_refreshes")
        return self._gram

    def update_block(self, F: np.ndarray, start: int, stop: int) -> np.ndarray:
        """Refresh rows/columns ``[start, stop)`` after those columns of
        ``F`` changed; every other entry of the Gramian is untouched by a
        block-column update and keeps its cached value."""
        if not (0 <= start < stop <= self.k):
            raise ValueError(
                f"block [{start}, {stop}) out of range for k={self.k}"
            )
        if start == 0 and stop == self.k:
            return self.refresh(F)
        Fc = np.ascontiguousarray(F, dtype=np.float64)
        slab = Fc[:, start:stop].T @ Fc  # (d, k): new rows of the Gramian
        self._gram[:, start:stop] = slab.T
        self._gram[start:stop, :] = slab
        if is_enabled():
            obs_metrics.inc("gram.block_updates")
        return self._gram
