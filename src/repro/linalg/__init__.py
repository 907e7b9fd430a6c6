"""Dense linear-algebra substrate implemented from scratch.

The paper's step S3 factorizes the k×k normal-equation matrix
``smat = YᵀY + λI`` with the Cholesky method and solves ``L Lᵀ x = svec``
(Algorithm 2, lines 16–17).  This package provides that factorization —
scalar and batched — plus the normal-equation assembly used by the
reference solver, and a Gaussian-elimination solver kept as the comparison
point for the paper's §V-C Cholesky claim.
"""

from repro.linalg.cholesky import (
    CholeskyError,
    as_float64_stack,
    cholesky_factor,
    cholesky_solve,
    batched_cholesky_factor,
    batched_cholesky_solve,
    forward_substitution,
    backward_substitution,
)
from repro.linalg.gaussian import gaussian_solve, batched_gaussian_solve
from repro.linalg.solvers import batched_lapack_solve, lapack_cholesky_factor
from repro.linalg.normal_equations import (
    assemble_gram,
    assemble_rhs,
    assembly_defaults,
    binned_normal_equations,
    configure_assembly,
    scatter_normal_equations,
    tile_bytes_bound,
)

__all__ = [
    "CholeskyError",
    "as_float64_stack",
    "batched_lapack_solve",
    "lapack_cholesky_factor",
    "cholesky_factor",
    "cholesky_solve",
    "batched_cholesky_factor",
    "batched_cholesky_solve",
    "forward_substitution",
    "backward_substitution",
    "gaussian_solve",
    "batched_gaussian_solve",
    "assemble_gram",
    "assemble_rhs",
    "assembly_defaults",
    "binned_normal_equations",
    "configure_assembly",
    "scatter_normal_equations",
    "tile_bytes_bound",
]
