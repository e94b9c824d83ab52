"""Tensor-product structure of N copies of a d-dimensional site: Kronecker
products, permutation conjugation, partial traces, and site embedding.

kron multiplies its factors by broadcasting, not by numpy's kron; a factor may
carry one leading stack axis, so tensor_power of a (T, d, d) stack of
one-site matrices is one call.

Site indices are 1-based in the public API; internal digit arrays are
0-based. A TensorShape fixes (d, N) and enforces the total-dimension budget
d**N <= max_total_dim, the guard that keeps everything dense and desk-sized.

Site operators (the Hamiltonian assembly and pair traces in dynamics) are
placed by _add_on_sites, a flat-index scatter: an operator b on m ordered
sites is added at the d^m * d^m * d^(N-m) entries it touches, whose flat
index is the offset of the target-site digits plus the offset of the
remaining digits. No kron with identities and no permutation copy is formed.

Site permutations: a permutation p of the sites is its 1-based image
tuple, image[s-1] = p(s). The unitary U_p maps x_1 ox ... ox x_N to the
product whose j-th factor is x_{p^{-1}(j)}, i.e. the content of site s moves
to site p(s). conjugate_by_permutation forms U_{p^{-1}} M U_p by reordering
the axes of M's rank-2N tensor, the reshape partial_trace also uses, without
building U_p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadSiteIndex,
    DimensionMismatch,
    MemoryBudgetExceeded,
)

DEFAULT_MAX_TOTAL_DIM = 4096


@dataclass(frozen=True)
class TensorShape:
    """Local dimension, site count, and the total-dimension budget."""

    d: int
    sites: int
    max_total_dim: int = DEFAULT_MAX_TOTAL_DIM

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"local dimension must be >= 1, got {self.d}")
        if self.sites < 1:
            raise ValueError(f"site count must be >= 1, got {self.sites}")
        if self.d**self.sites > self.max_total_dim:
            raise MemoryBudgetExceeded(
                f"total dimension {self.d}**{self.sites} = {self.d**self.sites} "
                f"exceeds the budget {self.max_total_dim}"
            )

    @property
    def total_dim(self) -> int:
        return self.d**self.sites

    def reduced(self, sites: int) -> "TensorShape":
        """Same local dimension and budget on a different site count."""
        return TensorShape(self.d, sites, self.max_total_dim)


def _check_site(site: int, n: int):
    if not 1 <= site <= n:
        raise BadSiteIndex(f"site {site} outside 1..{n}")


def kron(*factors: np.ndarray, max_dim: int = DEFAULT_MAX_TOTAL_DIM) -> np.ndarray:
    """Kronecker product of one or more factors, left to right.

    Each factor is a matrix or a (T, r, c) stack of them; stacked factors
    multiply member by member, so the product of a stack is a stack. Each
    step multiplies by broadcasting, a[..., i, None, j, None] *
    b[..., None, k, None, l] at (i, k, j, l), then reshapes to rows i r_b + k
    and columns j c_b + l: the products numpy's kron forms, in its layout. The
    product's row dimension is checked against the budget before anything is
    formed.
    """
    if not factors:
        raise ValueError("kron needs at least one factor")
    factors = [np.asarray(f) for f in factors]
    if any(f.ndim not in (2, 3) for f in factors):
        raise DimensionMismatch(
            f"kron takes matrices or stacks of them, got shapes {[f.shape for f in factors]}"
        )
    dim = math.prod(f.shape[-2] for f in factors)
    if dim > max_dim:
        raise MemoryBudgetExceeded(f"kron result dimension {dim} exceeds budget {max_dim}")
    out = factors[0]
    for b in factors[1:]:
        product = out[..., :, None, :, None] * b[..., None, :, None, :]
        out = product.reshape(*product.shape[:-4], out.shape[-2] * b.shape[-2],
                              out.shape[-1] * b.shape[-1])
    return out


def tensor_power(m: np.ndarray, n: int, max_dim: int = DEFAULT_MAX_TOTAL_DIM) -> np.ndarray:
    """m ox m ox ... (n factors); a (T, d, d) stack gives the stack of its members' powers."""
    if n < 1:
        raise ValueError(f"tensor power needs n >= 1, got {n}")
    return kron(*[m] * n, max_dim=max_dim)


def conjugate_by_permutation(m: np.ndarray, image, shape: TensorShape) -> np.ndarray:
    """U_{p^{-1}} M U_p for the permutation p with p(s) = image[s-1].

    As a rank-2N tensor, the result's row and column legs of site s are
    M's legs of site p(s), so it is one transpose of the legs (no matmuls).
    At the identity the result is a view of m.
    """
    m = np.asarray(m)
    n = shape.sites
    if m.shape != (shape.total_dim, shape.total_dim):
        raise DimensionMismatch(f"matrix shape {m.shape} does not match {shape}")
    if len(image) != n:
        raise DimensionMismatch(
            f"permutation on {len(image)} sites does not match shape with {n}"
        )
    if sorted(image) != list(range(1, n + 1)):
        raise ValueError(f"not a bijection of 1..{n}: {tuple(image)}")
    ax = [s - 1 for s in image]
    t = m.reshape((shape.d,) * (2 * n))
    return t.transpose(ax + [n + a for a in ax]).reshape(m.shape)


def partial_trace(m: np.ndarray, shape: TensorShape, traced_sites) -> np.ndarray:
    """Trace out the given (1-based) sites; remaining sites keep their order.

    Direct index arithmetic: reshape to a rank-2N tensor and contract each
    traced row leg with its column leg.
    """
    m = np.asarray(m)
    if m.shape != (shape.total_dim, shape.total_dim):
        raise DimensionMismatch(f"matrix shape {m.shape} does not match {shape}")
    sites = sorted(set(int(s) for s in traced_sites))
    for s in sites:
        _check_site(s, shape.sites)
    if not sites:
        return m.copy()
    d, n = shape.d, shape.sites
    t = m.reshape((d,) * (2 * n))
    remaining = n
    for s in reversed(sites):
        t = np.trace(t, axis1=s - 1, axis2=remaining + s - 1)
        remaining -= 1
    dim = d**remaining
    return t.reshape(dim, dim)


def _site_offsets(sites, d: int, n: int) -> np.ndarray:
    """Flat-index offsets of every digit pattern on sites, first site most significant."""
    offsets = np.zeros(1, dtype=np.intp)
    for s in sites:
        offsets = (offsets[:, None] + np.arange(d) * d ** (n - s)).ravel()
    return offsets


def _add_on_sites(out: np.ndarray, b: np.ndarray, sites, shape: TensorShape,
                  scale: complex = 1.0) -> None:
    """out += scale * (b on the ordered sites, identity elsewhere), in place.

    The embedded operator has b[x_S, y_S] at flat indices (x, y) whose digits
    agree off the target sites S and is zero elsewhere, so only the
    d^m * d^m * d^(N-m) entries with row = offset(x_S) + offset(r) and
    column = offset(y_S) + offset(r) are touched. Sites are trusted here:
    callers pass distinct sites in 1..N.
    """
    rest = [s for s in range(1, shape.sites + 1) if s not in sites]
    rows = _site_offsets(sites, shape.d, shape.sites)[:, None] + _site_offsets(
        rest, shape.d, shape.sites
    )[None, :]
    out[rows[:, None, :], rows[None, :, :]] += scale * b[:, :, None]
