"""Exact evolution of product states at d = 2 in the spin blocks of S_N.

H_N = sum_j A_j + (1/N) sum_{i<j} W_ij and rho0^(ox N) commute with every
site permutation, so by Schur-Weyl duality both act on (C^2)^(ox N) as
sum_r X_r ox 1_{m_r}. Block r = 0..N//2 (spin j = N/2 - r) is
Sym^{N-2r}(C^2), of dimension N - 2r + 1 and multiplicity
m_r = C(N, r) - C(N, r-1). In its two-mode boson basis |a> (a quanta in
site state 0), a collective sum J(X) = sum_i X_i is
sum_pq X_pq b_p† b_q + r tr X, and rho0^(ox N) is
Sym^{N-2r}(rho0) det(rho0)^r.

Sums over distinct sites, D(X_1..X_s) = sum over distinct i of
X_1^{i_1} ... X_s^{i_s}, follow from D(X_1..X_s) = D(X_1..X_{s-1}) J(X_s)
- sum_l D(X_1..(X_l X_s)..X_{s-1}). They give the pair term,
sum_{i<j} W_ij = (1/2) sum W[pr, qs] D(E_pq, E_rs), and every marginal,
tr(rho_N D(E_{p_1 q_1}, ..)) = (N)_k <q|rho^(k)|p>. A product of matrix
units shifts a by a fixed amount, so each D is a single band of each
block, and depends only on the multiset of its units. One memo, seeded
with D() = 1 and the four D(E_pq) = J(E_pq), holds them all.

evolve_grid reads the save grid in chunks of C = max(1, max_total_dim //
(N + 1)^2) times (on the default budget 33 at N = 10, and one from N = 45
on). Per block, a chunk's phases, its two products and the
band gather are stacked arrays, and one product with the coefficients gives
every marginal of the chunk; each is then validated alone, in grid order.
check_budget counts one chunk's work, about 4 C (N + 1)^2 entries plus its
bands and coefficient products, on top of what the propagator holds; only
the validated marginals accumulate across chunks.

Each order's bands and coefficients, and the sums they read, are built on
its first evolve_grid call and kept. check_budget at the largest order K
held covers them all (comb(K + 4, 4) counts every built order's rows; the
real sums, counted as complex, leave room for the integer band indices).

BlockPropagator shares dynamics.ExactPropagator's contract: both take
(sys, n_sites, max_total_dim), keep sys, and answer evolve_grid at every
order 1..N from the one-site rho0. propagator picks between the two by d,
and check_budget is the memory rule for what each holds.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from . import linalg
from .dynamics import ExactPropagator, MeanFieldSystem, _check_grid_call
from .errors import DimensionMismatch, MemoryBudgetExceeded
from .states import DensityOperator, validate
from .tensor import DEFAULT_MAX_TOTAL_DIM, TensorShape


# the four d = 2 matrix units E_pq = |p><q| as (p, q); E_pq shifts the quanta a by q - p
_UNITS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _block_sizes(n_sites: int) -> np.ndarray:
    """Dimension N - 2r + 1 of spin block r = 0..N//2 (spin j = N/2 - r)."""
    return n_sites - 2 * np.arange(n_sites // 2 + 1) + 1


def _band_rows(size: int, offset: int) -> np.ndarray:
    """The a with both a and a + offset inside a block of the given size."""
    return np.arange(max(0, -offset), size - max(0, offset))


def _band_entries(n_sites: int, max_order: int) -> int:
    """Entries of the bands |offset| <= max_order of every block, the ones a marginal reads."""
    offsets = np.arange(-max_order, max_order + 1)[:, None]
    return int(np.clip(_block_sizes(n_sites) - abs(offsets), 0, None).sum())


@functools.cache
def _scatter(order: int) -> np.ndarray:
    """Row of the order's coefficients that entry q 2^order + p of rho^(order) reads.

    The entry reads the multiset of units E_{p_j q_j}, and the rows follow
    combinations_with_replacement(_UNITS, order). The table depends on the
    order alone, so every propagator shares one read-only copy.
    """
    keys = itertools.combinations_with_replacement(_UNITS, order)
    position = {key: i for i, key in enumerate(keys)}
    digits = list(itertools.product((0, 1), repeat=order))
    table = np.array([position[tuple(sorted(zip(col, row)))] for row in digits for col in digits])
    table.flags.writeable = False
    return table


def block_entries(n_sites: int, max_order: int) -> int:
    """Complex entries a BlockPropagator of n_sites holds at most with orders up to max_order built.

    Two sets of square blocks (eigenvectors and the rotated initial state),
    and the band coefficients of every distinct-site sum up to max_order and
    the padded bands they are built from. evolve_grid's work on one chunk of
    times comes on top (_chunk_entries).
    """
    sizes = _block_sizes(n_sites)
    square = int((sizes * sizes).sum())
    tuples = math.comb(max_order + 4, 4)
    return 2 * square + tuples * (_band_entries(n_sites, max_order) + sizes.size * (n_sites + 1))


def _chunk_length(n_sites: int, max_total_dim: int) -> int:
    """Save-grid times one evolve_grid chunk stacks: C = max(1, max_total_dim // (N + 1)^2).

    A chunk's stacked work on one block then spans at most max_total_dim
    entries per array, or one block of the largest size when that alone is more.
    """
    return max(1, max_total_dim // (n_sites + 1) ** 2)


def _chunk_entries(n_sites: int, max_order: int, max_total_dim: int) -> int:
    """Complex work entries evolve_grid holds for one chunk of C = _chunk_length times.

    Per time: four blocks of the largest size, for the two phased factors
    and the buffers numpy's broadcasting multiply takes while forming the
    second (their product and the evolved block come after); the phases and
    their conjugates; the bands; the coefficient products (one per multiset
    of matrix units) and their gather into 4^max_order entries.
    """
    chunk = _chunk_length(n_sites, max_total_dim)
    per_time = (4 * (n_sites + 1) ** 2 + 2 * (n_sites + 1) + _band_entries(n_sites, max_order)
                + math.comb(max_order + 3, 3) + 4**max_order)
    return chunk * per_time


def check_budget(d: int, n_sites: int, max_order: int, max_total_dim: int) -> None:
    """Raise MemoryBudgetExceeded unless an n_sites propagator with orders <= max_order built fits.

    The dense path (d >= 3) holds D x D matrices with D = d^N <= max_total_dim;
    the block path (d = 2) may hold as many entries, max_total_dim^2, and its
    marginals obey the dense rule 2^order <= max_total_dim. Both dense rules
    are TensorShape's, the one place d^n <= max_total_dim is checked.
    """
    if d != 2:
        TensorShape(d, n_sites, max_total_dim)
        return
    TensorShape(2, max_order, max_total_dim)
    if (held := block_entries(n_sites, max_order)
            + _chunk_entries(n_sites, max_order, max_total_dim)) > max_total_dim**2:
        raise MemoryBudgetExceeded(
            f"the spin blocks of N = {n_sites} up to order {max_order} hold {held} entries, "
            f"over the budget of {max_total_dim}^2 = {max_total_dim**2}"
        )


def _xlogy(x: np.ndarray, y: float) -> np.ndarray:
    """x log y with 0 log 0 = 0, for counts x >= 0 and y >= 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x == 0, 0.0, x * np.log(y))


class BlockPropagator:
    """Exact marginals of rho0^(ox N) under H_N at d = 2, from the spin blocks.

    Construction diagonalizes each block of H_N; each marginal order is
    built on first use from the distinct-site sums (_sum, its memo seeded
    with J(E_pq)). evolve_grid takes the one-site rho0, rotates each block's
    state by its phases and reads the bands the marginal needs; nothing of
    size 2^N is formed. sys is kept, as ExactPropagator keeps it, for the
    hierarchy checks.
    """

    def __init__(self, sys: MeanFieldSystem, n_sites: int,
                 max_total_dim: int = DEFAULT_MAX_TOTAL_DIM):
        if sys.d != 2:
            raise DimensionMismatch(f"the block propagator needs d = 2, got d = {sys.d}")
        check_budget(2, n_sites, 2, max_total_dim)
        self.sys = sys
        self.n_sites = n_sites
        self.max_total_dim = max_total_dim
        self._sizes = sizes = _block_sizes(n_sites)
        spin_r = np.arange(sizes.size)[:, None]
        top = sizes[:, None] - 1
        quanta = np.arange(n_sites + 1)
        inside = quanta <= top
        # distinct-site sums per block as (offset, v), D[a + offset, a] = v[:, a] and zero outside,
        # seeded with D() = 1 and D(E_pq) = J(E_pq) (_sum); each order's bands once built (_order)
        self._sums = {
            (): (0, np.where(inside, 1.0, 0.0)),
            ((0, 0),): (0, np.where(inside, quanta + spin_r, 0.0)),
            ((1, 1),): (0, np.where(inside, top - quanta + spin_r, 0.0)),
            ((0, 1),): (1, np.sqrt(np.clip((quanta + 1) * (top - quanta), 0, None))),
            ((1, 0),): (-1, np.sqrt(np.clip(quanta * (top - quanta + 1), 0, None))),
        }
        self._orders = {}

        # W = sum W[(p1 p2), (q1 q2)] E_p1q1 ox E_p2q2, and sum_{i<j} W_ij = D(W) / 2
        pairs = [(0.5 / n_sites * sys.w[2 * p1 + p2, 2 * q1 + q2],
                  *self._sum(tuple(sorted(((p1, q1), (p2, q2))))))
                 for p1, q1 in _UNITS for p2, q2 in _UNITS]
        self._u, self._energies = [], []
        for h in self._block_matrices(self._collective(sys.a) + pairs):
            energies, u = linalg.herm_eigen(h)
            self._energies.append(energies)
            self._u.append(u)

    def _sum(self, key: tuple) -> tuple[int, np.ndarray]:
        """(offset, band) of D over the multiset key of matrix units, built on first use."""
        if key not in self._sums:
            rest, (p, q) = key[:-1], key[-1]
            off, v = self._sum(rest)
            shift, unit = self._sums[((p, q),)]
            # (D(rest) J)[a + shift + off, a] = v[a + shift] J[a + shift, a]
            band = np.zeros_like(v)
            lo, hi = max(0, -shift), v.shape[1] - max(0, shift)
            band[:, lo:hi] = v[:, lo + shift:hi + shift] * unit[:, lo:hi]
            for l, (pl, ql) in enumerate(rest):
                if ql == p:
                    band -= self._sum(tuple(sorted(rest[:l] + ((pl, q),) + rest[l + 1:])))[1]
            self._sums[key] = (off + shift, band)
        return self._sums[key]

    def _order(self, order: int) -> tuple[list, np.ndarray, np.ndarray]:
        """Band index per block, band slices and coefficients of order k, built on first use.

        rho^(k)[q, p] = (bands @ coefficients)[_scatter(k)[q 2^k + p]] over the
        bands |offset| <= k of each block, with 1/(N)_k in the coefficients.
        """
        if order not in self._orders:
            # (block, offset, a) of every band entry, in block, offset, a order
            sizes, shift = self._sizes, np.arange(-order, order + 1)[:, None]
            quanta = np.arange(self.n_sites + 1)
            blocks, offsets, rows = np.nonzero((quanta >= np.maximum(0, -shift)) & (
                quanta < sizes[:, None, None] - np.maximum(0, shift)))
            offsets -= order
            slices = np.searchsorted(blocks, np.arange(sizes.size + 1))
            index = np.split(rows * sizes[blocks] + rows + offsets, slices[1:-1])
            keys = list(itertools.combinations_with_replacement(_UNITS, order))
            falling = math.perm(self.n_sites, order)
            # complex, as the product with the bands needs them, filled a row at a time
            coeff = np.empty((len(keys), rows.size), dtype=np.complex128)
            for i, key in enumerate(keys):
                off, v = self._sum(key)
                coeff[i] = np.where(offsets == off, v[blocks, rows], 0.0) / falling
            self._orders[order] = (index, slices, coeff.T)
        return self._orders[order]

    def _collective(self, x: np.ndarray) -> list:
        """J(X) = sum X_pq J(E_pq) as _block_matrices terms (c, offset, band), in _UNITS order."""
        return [(x[p, q], *self._sums[((p, q),)]) for p, q in _UNITS]

    def _block_matrices(self, terms):
        """Dense blocks of sum c D over terms (c, offset, band), one at a time.

        The terms of each offset are summed first, in term order, so each
        block takes one scatter per offset: at most 5 for H_N.
        """
        bands = {}
        for c, off, band in terms:
            bands[off] = bands.get(off, 0.0) + c * band
        for i, size in enumerate(self._sizes):
            m = np.zeros((size, size), dtype=np.complex128)
            for off, band in bands.items():
                rows = _band_rows(size, off)
                m[rows + off, rows] = band[i, rows]
            yield m

    def _block_states(self, rho: DensityOperator) -> list[np.ndarray]:
        """U_r† rho0^(ox N)|_r U_r, each block weighted by its multiplicity.

        rho0 has eigenvalues lam0 <= lam1. On block r, Sym^{N-2r}(rho0) shares
        its eigenvectors with the boson operator sum_pq rho0_pq b_p† b_q, the
        one with a quanta in lam1's eigenvector having eigenvalue
        a lam1 + (N - 2r - a) lam0, ascending in a. There m_r rho0^(ox N) has
        the eigenvalue m_r lam1^{r+a} lam0^{N-r-a}, formed from logarithms:
        a term of the binomial expansion of (tr rho0)^N, so it is at most 1,
        though m_r alone leaves the float range near N = 1030.
        """
        lam = np.clip(linalg.herm_eigen(rho.matrix).eigenvalues, 0.0, None)
        out, generator = [], self._block_matrices(self._collective(rho.matrix))
        for r, (g, u) in enumerate(zip(generator, self._u)):
            # the r tr rho0 = r shift of the collective diagonal leaves the eigenvectors alone
            q = linalg.herm_eigen(g).eigenvectors
            ones = np.arange(r, r + q.shape[0])
            multiplicity = math.comb(self.n_sites, r) - (math.comb(self.n_sites, r - 1) if r else 0)
            weights = np.exp(math.log(multiplicity) + _xlogy(ones, lam[1])
                             + _xlogy(self.n_sites - ones, lam[0]))
            rotated = u.conj().T @ q
            out.append((rotated * weights) @ rotated.conj().T)
        return out

    def evolve_grid(self, rho0: DensityOperator, times, order: int) -> list[DensityOperator]:
        """Validated first-`order`-sites marginals of (rho0^(ox N))(t) for a one-site rho0.

        The grid is read in chunks of _chunk_length(N, max_total_dim) times.
        For each block, the chunk's phases, both products and the band
        gather are stacked arrays; one product with the order's coefficients
        then gives the 4^order entries of every marginal in the chunk, and
        each marginal is validated on its own, in grid order. Only the
        validated marginals outlive a chunk.
        """
        _check_grid_call(self, rho0, order)
        # the largest order held once this call is done, before anything is built
        check_budget(2, self.n_sites, max(order, 2, *self._orders), self.max_total_dim)
        band_index, slices, coeff = self._order(order)
        states = self._block_states(rho0)
        scatter = _scatter(order)
        shape = TensorShape(2, order, self.max_total_dim)
        times = np.asarray(times, dtype=float)
        chunk = _chunk_length(self.n_sites, self.max_total_dim)
        out = []
        for start in range(0, times.size, chunk):
            t = times[start:start + chunk, None]
            bands = np.empty((t.size, slices[-1]), dtype=np.complex128)
            for i, (u, energies, s) in enumerate(zip(self._u, self._energies, states)):
                p = np.exp(-1j * t * energies)[:, None, :]
                rho_t = (u * p) @ (s * p.conj()) @ u.conj().T
                bands[:, slices[i]:slices[i + 1]] = (
                    rho_t.reshape(t.size, -1)[:, band_index[i]])
            marginals = (bands @ coeff)[:, scatter].reshape(t.size, 2**order, 2**order)
            out += [validate(m, shape) for m in marginals]
        return out


def propagator(sys: MeanFieldSystem, n_sites: int, max_total_dim: int):
    """The propagator of rho0^(ox N) under H_N; its evolve_grid takes the one-site rho0.

    At d = 2 the spin-block propagator; at d >= 3 the dense one, which
    diagonalizes H_N on the d^N space. Both take these arguments.
    """
    return (BlockPropagator if sys.d == 2 else ExactPropagator)(sys, n_sites, max_total_dim)
