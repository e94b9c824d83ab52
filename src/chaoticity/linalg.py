"""Dense complex linear algebra: Hermitian eigendecompositions, trace and
operator norms, Hermiticity checks.

Matrices are square numpy complex128 arrays. Functions never mutate their
inputs. Eigen/singular-value work is delegated to LAPACK via numpy.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, NotHermitian

# Hermiticity tolerance of every Hermitian precondition, relative to
# max(1, max |M|); states.validate checks densities at the absolute
# states.DENSITY_TOL instead.
HERMITICITY_TOL = 1e-10


class HermitianEigen(NamedTuple):
    """Eigendecomposition M = U diag(w) U†, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_matrix(m) -> np.ndarray:
    """Coerce to a square complex128 array; reject non-finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has NaN or Inf entries")
    return a


def hermiticity_defect(m: np.ndarray) -> float:
    """max |M - M†|, the entrywise deviation from being Hermitian."""
    m = np.asarray(m)
    return float(np.abs(m - m.conj().T).max())


def is_hermitian(m: np.ndarray) -> bool:
    """Hermiticity test at HERMITICITY_TOL relative to max(1, max|M|)."""
    m = np.asarray(m)
    scale = max(1.0, float(np.abs(m).max()))
    return hermiticity_defect(m) <= HERMITICITY_TOL * scale


def require_hermitian(m, what: str = "matrix") -> np.ndarray:
    a = as_matrix(m)
    if not is_hermitian(a):
        raise NotHermitian(
            f"{what} is not Hermitian: max |M - M†| = {hermiticity_defect(a):.3e} "
            f"exceeds {HERMITICITY_TOL:.1e} (relative)"
        )
    return a


def herm_eigen(m) -> HermitianEigen:
    """Eigendecomposition of a Hermitian matrix.

    Returns ascending real eigenvalues and a unitary whose columns are the
    eigenvectors. Raises NotHermitian when the input fails the tolerance
    check and ConvergenceFailure when the solver gives up.
    """
    a = require_hermitian(m)
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigh failed: {exc}") from exc
    return HermitianEigen(w, v)


def _moduli(a: np.ndarray) -> np.ndarray:
    """Singular values of a: |eigenvalues| for Hermitian input, the SVD otherwise."""
    try:
        if is_hermitian(a):
            return np.abs(np.linalg.eigvalsh(a))
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"singular values failed: {exc}") from exc


def trace_norm(m) -> float:
    """Sum of singular values; for Hermitian input the sum of |eigenvalues|."""
    return float(_moduli(as_matrix(m)).sum())


def operator_norm(m) -> float:
    """Largest singular value; for Hermitian input max |eigenvalue|."""
    a = as_matrix(m)
    if a.shape[0] == 0:
        return 0.0
    return float(_moduli(a).max())
