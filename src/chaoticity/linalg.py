"""Dense complex linear algebra: Hermitian eigendecompositions, trace and
operator norms, Hermiticity checks.

Matrices are square numpy complex128 arrays. Functions never mutate their
inputs. Eigen/singular-value work is delegated to LAPACK via numpy.

trace_norm also takes a (T, D, D) stack: one Hermiticity test per member,
then one eigvalsh call over the Hermitian members and one SVD call over the
rest. A single matrix is the stack of one, so both give the same floats.
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


def _square(m, ndims: tuple[int, ...]) -> np.ndarray:
    """m as a complex128 array of square matrices of one of the ranks ndims; no NaN or Inf."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim not in ndims or a.shape[-1] != a.shape[-2]:
        what = "a square matrix" if ndims == (2,) else "a square matrix or a stack of them"
        raise DimensionMismatch(f"expected {what}, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has NaN or Inf entries")
    return a


def as_matrix(m) -> np.ndarray:
    """Coerce to a square complex128 array; reject non-finite entries."""
    return _square(m, (2,))


def _defects(a: np.ndarray) -> np.ndarray:
    """max |M - M†| of the matrix, or of each matrix of a stack."""
    return np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1))


def _hermitian(a: np.ndarray) -> np.ndarray:
    """is_hermitian of the matrix, or of each matrix of a stack."""
    scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))
    return _defects(a) <= HERMITICITY_TOL * scale


def hermiticity_defect(m: np.ndarray) -> float:
    """max |M - M†|, the entrywise deviation from being Hermitian."""
    return float(_defects(np.asarray(m)))


def is_hermitian(m: np.ndarray) -> bool:
    """Hermiticity test at HERMITICITY_TOL relative to max(1, max|M|)."""
    return bool(_hermitian(np.asarray(m)))


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
    """Singular values of each a[t]: |eigenvalues| for Hermitian members, the SVD otherwise."""
    hermitian = _hermitian(a)
    try:
        # a stack of one kind, as every single matrix is, takes its one call whole
        if hermitian.all():
            return np.abs(np.linalg.eigvalsh(a))
        if not hermitian.any():
            return np.linalg.svd(a, compute_uv=False)
        out = np.empty(a.shape[:2])
        out[hermitian] = np.abs(np.linalg.eigvalsh(a[hermitian]))
        out[~hermitian] = np.linalg.svd(a[~hermitian], compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"singular values failed: {exc}") from exc
    return out


def trace_norm(m) -> float | np.ndarray:
    """Sum of singular values; for Hermitian input the sum of |eigenvalues|.

    m is one square matrix, whose norm comes back as a float, or a (T, D, D)
    stack, whose T norms come back as an array.
    """
    a = _square(m, (2, 3))
    if a.ndim == 2:
        return float(_moduli(a[None]).sum())
    return _moduli(a).sum(axis=-1)


def operator_norm(m) -> float:
    """Largest singular value; for Hermitian input max |eigenvalue|."""
    a = as_matrix(m)
    if a.shape[0] == 0:
        return 0.0
    return float(_moduli(a[None]).max())
