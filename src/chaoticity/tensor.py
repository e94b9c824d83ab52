"""Tensor-product structure of N copies of a d-dimensional site: Kronecker
products, permutation unitaries, partial traces, and site embeddings.

Site indices are 1-based in the public API; internal digit arrays are
0-based. A TensorShape fixes (d, N) and enforces the total-dimension budget
d**N <= max_total_dim, the guard that keeps everything dense and desk-sized.

Site operators (embed_on_sites and friends, and the Hamiltonian assembly in
dynamics) are placed by flat-index scatter: an operator b on m ordered sites
is added at the d^m * d^m * d^(N-m) entries it touches, whose flat index is
the offset of the target-site digits plus the offset of the remaining
digits. No kron with identities and no permutation copy is formed.

Permutation convention: the unitary U_p maps x_1 ox ... ox x_N to the product
whose j-th factor is x_{p^{-1}(j)}, i.e. the content of site s moves to site
p(s). Consequently U_p U_q = U_{p o q} with (p o q)(s) = p(q(s)).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadSiteIndex,
    DimensionMismatch,
    MemoryBudgetExceeded,
    SameSite,
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


@dataclass(frozen=True)
class Permutation:
    """Bijection of {1..N}; image[i-1] is where site i's content goes."""

    image: tuple[int, ...]

    def __post_init__(self):
        n = len(self.image)
        if sorted(self.image) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {self.image}")

    @property
    def sites(self) -> int:
        return len(self.image)

    def __call__(self, site: int) -> int:
        return self.image[site - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.sites
        for i, target in enumerate(self.image):
            inv[target - 1] = i + 1
        return Permutation(tuple(inv))

    def compose(self, other: "Permutation") -> "Permutation":
        """self o other: apply other first, then self."""
        if self.sites != other.sites:
            raise DimensionMismatch("composing permutations of different sizes")
        return Permutation(tuple(self(other(i)) for i in range(1, self.sites + 1)))

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        _check_site(i, n)
        _check_site(j, n)
        image = list(range(1, n + 1))
        image[i - 1], image[j - 1] = j, i
        return cls(tuple(image))

    @classmethod
    def all(cls, n: int):
        """All N! permutations, in lexicographic image order."""
        for image in itertools.permutations(range(1, n + 1)):
            yield cls(image)


def _check_site(site: int, n: int):
    if not 1 <= site <= n:
        raise BadSiteIndex(f"site {site} outside 1..{n}")


def kron(a: np.ndarray, b: np.ndarray, max_dim: int = DEFAULT_MAX_TOTAL_DIM) -> np.ndarray:
    """Kronecker product with the total-dimension budget enforced."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[0] * b.shape[0] > max_dim:
        raise MemoryBudgetExceeded(
            f"kron result dimension {a.shape[0] * b.shape[0]} exceeds budget {max_dim}"
        )
    return np.kron(a, b)


def kron_all(matrices, max_dim: int = DEFAULT_MAX_TOTAL_DIM) -> np.ndarray:
    """Kronecker product of a nonempty sequence, left to right."""
    out = None
    for m in matrices:
        out = np.asarray(m) if out is None else kron(out, m, max_dim)
    if out is None:
        raise ValueError("kron_all needs at least one matrix")
    return out


def tensor_power(m: np.ndarray, n: int, max_dim: int = DEFAULT_MAX_TOTAL_DIM) -> np.ndarray:
    """m ox m ox ... (n factors)."""
    if n < 1:
        raise ValueError(f"tensor power needs n >= 1, got {n}")
    return kron_all([m] * n, max_dim)


def _basis_map(p: Permutation, shape: TensorShape) -> np.ndarray:
    """Index array b with U_p e_x = e_{b[x]} on the product basis."""
    if p.sites != shape.sites:
        raise DimensionMismatch(
            f"permutation on {p.sites} sites does not match shape with {shape.sites}"
        )
    dims = (shape.d,) * shape.sites
    digits = np.stack(np.unravel_index(np.arange(shape.total_dim), dims))
    moved = np.empty_like(digits)
    for k in range(shape.sites):
        # content of site k+1 lands on site p(k+1)
        moved[p.image[k] - 1] = digits[k]
    return np.ravel_multi_index(tuple(moved), dims)


def permutation_unitary(p: Permutation, shape: TensorShape) -> np.ndarray:
    """Dense 0/1 unitary permuting the tensor factors."""
    b = _basis_map(p, shape)
    u = np.zeros((shape.total_dim, shape.total_dim), dtype=np.complex128)
    u[b, np.arange(shape.total_dim)] = 1.0
    return u


def conjugate_by_permutation(m: np.ndarray, p: Permutation, shape: TensorShape) -> np.ndarray:
    """U_{p^{-1}} M U_p, computed by basis re-indexing (no matmuls).

    Entrywise this is M[b[a], b[c]] with b the basis map of p.
    """
    m = np.asarray(m)
    if m.shape != (shape.total_dim, shape.total_dim):
        raise DimensionMismatch(f"matrix shape {m.shape} does not match {shape}")
    b = _basis_map(p, shape)
    return m[np.ix_(b, b)]


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
    column = offset(y_S) + offset(r) are touched. Sites are trusted here;
    the public embeddings check them.
    """
    rest = [s for s in range(1, shape.sites + 1) if s not in sites]
    rows = _site_offsets(sites, shape.d, shape.sites)[:, None] + _site_offsets(
        rest, shape.d, shape.sites
    )[None, :]
    out[rows[:, None, :], rows[None, :, :]] += scale * b[:, :, None]


def embed_on_sites(b: np.ndarray, sites: tuple[int, ...], shape: TensorShape) -> np.ndarray:
    """Operator acting as b on the given ordered sites, identity elsewhere.

    The first tensor factor of b acts on sites[0], the second on sites[1],
    and so on; the entries are placed by flat-index scatter.
    """
    b = np.asarray(b, dtype=np.complex128)
    m = len(sites)
    if len(set(sites)) != m:
        raise SameSite(f"repeated site in {sites}")
    for s in sites:
        _check_site(s, shape.sites)
    if b.shape != (shape.d**m, shape.d**m):
        raise DimensionMismatch(
            f"operator of shape {b.shape} cannot act on {m} site(s) of local dim {shape.d}"
        )
    out = np.zeros((shape.total_dim, shape.total_dim), dtype=np.complex128)
    _add_on_sites(out, b, sites, shape)
    return out


def embed_one_body(a: np.ndarray, site: int, shape: TensorShape) -> np.ndarray:
    """1^(site-1) ox a ox 1^(N-site): the one-site operator a placed at site."""
    a = np.asarray(a, dtype=np.complex128)
    _check_site(site, shape.sites)
    if a.shape != (shape.d, shape.d):
        raise DimensionMismatch(f"one-body operator shape {a.shape}, expected d = {shape.d}")
    out = np.zeros((shape.total_dim, shape.total_dim), dtype=np.complex128)
    _add_on_sites(out, a, (site,), shape)
    return out


def embed_two_body(v: np.ndarray, i: int, j: int, shape: TensorShape) -> np.ndarray:
    """Pair operator v with its first factor on site i and second on site j."""
    if i == j:
        raise SameSite(f"two-body embedding needs distinct sites, got ({i}, {j})")
    if shape.sites < 2:
        raise BadSiteIndex("two-body embedding needs at least 2 sites")
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (shape.d**2, shape.d**2):
        raise DimensionMismatch(f"pair operator shape {v.shape}, expected d^2 = {shape.d**2}")
    return embed_on_sites(v, (i, j), shape)


def empirical_observable(a: np.ndarray, shape: TensorShape) -> np.ndarray:
    """Site average (1/N) sum_j of a placed at site j."""
    a = np.asarray(a, dtype=np.complex128)
    if a.shape != (shape.d, shape.d):
        raise DimensionMismatch(f"one-body operator shape {a.shape}, expected d = {shape.d}")
    out = np.zeros((shape.total_dim, shape.total_dim), dtype=np.complex128)
    for j in range(1, shape.sites + 1):
        _add_on_sites(out, a, (j,), shape)
    out /= shape.sites
    return out
