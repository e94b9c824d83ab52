"""Chaoticity metrics for N-site density operators.

How close is rho_N to the tensor power of a one-site state rho? Four views
of the same question, each exact (no sampling):

* chaos_distance    tr |rho_N^(k) - rho^(ox k)|, trace-norm distance of the
                    k-site marginal to the product; chaos_distances is its
                    grid form over (rho_N, rho) pairs, one stacked tensor
                    power and one stacked trace norm for the whole grid.
* empirical_variance e_N(A) = tr(|X_N(A) - tr(A rho) 1|^2 rho_N), the
                    variance of the site-averaged observable X_N(A).
* factorization_error C_{k,N}(A_1..A_k) = |tr((A_1 ox ... ox A_k) rho_N^(k))
                    - prod_j tr(rho A_j)|.
* corollary_bound   the closeness-rate ceiling combining sqrt(e_N) terms with
                    a combinatorial sampling defect 2 prod ||A_i|| (1 - prod_m
                    (1 - m/N)); C_{k,N} stays below it on symmetric states.

Every metric reads rho_N only through the states.State protocol: its
validated marginals rho_N.marginal(k), which the state forms once and keeps,
and its symmetry_defect. No metric asks which kind of state it holds, so a
ProductMixture, whose marginals come from its components without d^N, and
any other object answering the protocol pass as a dense DensityOperator
does. On a symmetric state e_N needs only the first two marginals:

    e_N(A) = tr(rho^(1) B†B) / N + (1 - 1/N) tr(rho^(2) (B† ox B)),
    B = A - tr(A rho) 1,

so empirical_variance requires a symmetric rho_N: a state that fails
is_symmetric raises NotSymmetric (a ProductMixture is symmetric by
construction).

Every product expectation tr((F_1 ox ... ox F_k) M) -- the one-site
tr(A rho), both e_N terms, the joint of C_{k,N} -- is one contraction of the
k-site matrix M, read as a rank-2k tensor, against k stacks of one-site
factors, so a whole stack of observables or tuples costs one einsum and no
Kronecker product of observables is ever formed.

The bound is evaluated in its printed squared-factor form and, because the
underlying Cauchy-Schwarz step suggests unsquared factors were intended, the
unsquared variant is computed alongside: corollary_bound returns the pair
(squared, unsquared), and reports carry both.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import BadSiteIndex, BoundViolation, DimensionMismatch, NotSymmetric
from .states import DensityOperator, State, _check_one_site, is_symmetric
from .tensor import tensor_power

# e values in [-E_CLAMP, 0) are reported as 0 (flagged); below -E_ERROR is a bug.
E_CLAMP = 1e-10
E_ERROR = 1e-8
BOUND_SLACK = 1e-9


def _contract(m: np.ndarray, d: int, factors) -> np.ndarray:
    """tr((F_1[t] ox ... ox F_k[t]) M) for every t.

    M is a d^k x d^k matrix and factors holds k stacks of shape (T, d, d).
    With M read as M[j_1..j_k, i_1..i_k], the trace is the sum of
    F_1[t, i_1, j_1] ... F_k[t, i_k, j_k] M[j_1..j_k, i_1..i_k]: one einsum.
    """
    k = len(factors)
    operands = []
    for s, f in enumerate(factors):
        operands += [f, [0, 1 + s, 1 + k + s]]
    legs = [*range(1 + k, 1 + 2 * k), *range(1, 1 + k)]
    return np.einsum(*operands, np.reshape(m, (d,) * (2 * k)), legs, [0])


def _observable_stack(observables, d: int) -> np.ndarray:
    """The observables as one complex (m, d, d) stack; DimensionMismatch unless each is d x d."""
    stack = [np.asarray(a, dtype=np.complex128) for a in observables]
    if not stack:
        raise ValueError("need at least one observable")
    for a in stack:
        if a.shape != (d, d):
            raise DimensionMismatch(f"observable of shape {a.shape} on sites of dimension {d}")
    return np.stack(stack)


def chaos_distances(states, references, k: int) -> np.ndarray:
    """tr |rho_N^(k) - rho^(ox k)| for every pair (rho_N, rho) of states and references.

    The grid form of E_k, as along a save grid of evolved states and their
    one-site references: one stacked tensor power of the references and one
    stacked trace norm of the differences. Each state's marginal(k) is the
    one it keeps.
    """
    states, references = list(states), list(references)
    if len(states) != len(references):
        raise DimensionMismatch(f"{len(states)} states for {len(references)} references")
    if not states:
        return np.empty(0)
    for rho_N, rho in zip(states, references):
        _check_one_site(rho, rho_N.d)
    margs = [rho_N.marginal(k) for rho_N in states]
    budget = min(marg.shape.max_total_dim for marg in margs)
    refs = tensor_power(np.stack([rho.matrix for rho in references]), k, budget)
    return linalg.trace_norm(np.stack([marg.matrix for marg in margs]) - refs)


def chaos_distance(rho_N: State, rho: DensityOperator, k: int) -> float:
    """tr |rho_N^(k) - rho^(ox k)|, the one-pair case of chaos_distances."""
    return float(chaos_distances([rho_N], [rho], k)[0])


def _require_symmetric(rho_N: State) -> None:
    ok, worst = is_symmetric(rho_N)
    if not ok:
        raise NotSymmetric(
            f"empirical variance needs a symmetric state: max |U_p rho_N U_p† - rho_N| = {worst:.3e}"
        )


def _variances(rho_N: State, rho: DensityOperator, stack: np.ndarray) -> np.ndarray:
    """e_N of every observable in stack on a symmetric state (see empirical_variance)."""
    n, d = rho_N.sites, rho_N.d
    b = stack - _contract(rho.matrix, d, [stack])[:, None, None] * np.eye(d)
    b_dag = b.conj().transpose(0, 2, 1)
    val = _contract(rho_N.marginal(1).matrix, d, [b_dag @ b]) / n
    if n > 1:
        val += (1.0 - 1.0 / n) * _contract(rho_N.marginal(2).matrix, d, [b_dag, b])
    if val.real.min() < -E_ERROR:
        raise BoundViolation(f"empirical variance {val.real.min():.3e} < -{E_ERROR:.1e}")
    return val.real


def empirical_variance(rho_N: State, rho: DensityOperator, a: np.ndarray) -> float:
    """e_N(A) = tr(|X_N(A) - tr(A rho) 1|^2 rho_N) from the first two marginals.

    With B = A - tr(A rho) 1, X_N(A) - tr(A rho) 1 = (1/N) sum_j B_j, whose
    modulus square is (1/N^2) sum_{i,j} B_i† B_j. On a symmetric state the N
    diagonal terms read rho_N^(1) and the N(N-1) others rho_N^(2):

        e_N(A) = tr(rho^(1) B†B) / N + (1 - 1/N) tr(rho^(2) (B† ox B)),

    and at N = 1 only the first term remains. A dense rho_N that fails
    is_symmetric raises NotSymmetric. The value is real up to roundoff; a
    real part below -1e-8 means a kernel bug.
    """
    _check_one_site(rho, rho_N.d)
    stack = _observable_stack([a], rho_N.d)
    _require_symmetric(rho_N)
    return float(_variances(rho_N, rho, stack)[0])


def factorization_error(rho_N: State, rho: DensityOperator, observables) -> float:
    """C_{k,N} = |tr((A_1 ox ... ox A_k) rho_N^(k)) - prod_j tr(rho A_j)|.

    Contracted against the k-site marginal; tracing the identity padding
    first is exactly the full-space contraction, at O(d^2k) instead of
    O(d^2N) cost.
    """
    observables = list(observables)
    k = len(observables)
    if k > rho_N.sites:
        raise BadSiteIndex(f"k = {k} exceeds N = {rho_N.sites}")
    _check_one_site(rho, rho_N.d)
    stack = _observable_stack(observables, rho_N.d)
    joint = _contract(rho_N.marginal(k).matrix, rho_N.d, [a[None] for a in stack])[0]
    return float(abs(joint - np.prod(_contract(rho.matrix, rho.d, [stack]))))


def combinatorial_factor(k: int, n_sites: int) -> float:
    """prod_{m=0}^{k-1} (1 - m/N): the injective-sampling fraction."""
    out = 1.0
    for m in range(k):
        out *= 1.0 - m / n_sites
    return out


def _rate_bounds(norms, exps, e_values, idx: np.ndarray, n_sites: int):
    """(squared, unsquared) rate bounds of every tuple idx[t] = (i_1..i_k).

    norms[i], exps[i] = |tr(rho A_i)| and e_values[i] belong to observable i;
    the bound of a tuple is sum_l sqrt(e_{i_l}) prod_{j<l} exps_{i_j}^p
    prod_{j>l} norms_{i_j}^p + 2 prod_j norms_{i_j} (1 - combinatorial_factor),
    for p = 2 (printed form) and p = 1.
    """
    t, k = idx.shape
    root_e = np.sqrt(np.maximum(e_values, 0.0))[idx]
    tail = 2.0 * np.prod(norms[idx], axis=1) * (1.0 - combinatorial_factor(k, n_sites))
    ones = np.ones((t, 1))
    bounds = []
    for power in (2, 1):
        x, y = exps[idx] ** power, norms[idx] ** power
        before = np.cumprod(np.hstack([ones, x[:, :-1]]), axis=1)
        after = np.cumprod(np.hstack([ones, y[:, :0:-1]]), axis=1)[:, ::-1]
        bounds.append((root_e * before * after).sum(axis=1) + tail)
    return bounds[0], bounds[1]


def corollary_bound(
    rho: DensityOperator,
    observables,
    e_values,
    n_sites: int,
) -> tuple[float, float]:
    """Closeness-rate ceilings (squared, unsquared) for the factorization error of k observables.

    e_values[l] must be the empirical variance of the adjoint of
    observables[l] against the N-site state under test (l = 0..k-1). The
    printed form weights by squared expectations and norms; the unsquared
    variant by their first powers.
    """
    observables = list(observables)
    k = len(observables)
    if k > n_sites:
        raise BadSiteIndex(f"k = {k} exceeds N = {n_sites}")
    if len(e_values) != k:
        raise DimensionMismatch(f"need {k} e-values, got {len(e_values)}")
    _check_one_site(rho)
    stack = _observable_stack(observables, rho.d)
    norms = np.array([linalg.operator_norm(a) for a in stack])
    exps = np.abs(_contract(rho.matrix, rho.d, [stack]))
    b_sq, b_un = _rate_bounds(norms, exps, np.array(e_values, dtype=float),
                              np.arange(k)[None, :], n_sites)
    return float(b_sq[0]), float(b_un[0])


def weyl_basis(d: int) -> list[np.ndarray]:
    """Shift/clock unitaries X^a Z^b in lexicographic (a, b) order.

    d*d unitaries spanning the operator space; the identity comes first.
    """
    omega = np.exp(2j * np.pi / d)
    shift = np.roll(np.eye(d, dtype=np.complex128), 1, axis=0)
    clock = np.diag(omega ** np.arange(d))
    basis = []
    xa = np.eye(d, dtype=np.complex128)
    for _ in range(d):
        zb = np.eye(d, dtype=np.complex128)
        for _ in range(d):
            basis.append(xa @ zb)
            zb = zb @ clock
        xa = xa @ shift
    return basis


def weyl_labels(d: int) -> list[str]:
    return [f"W({a},{b})" for a in range(d) for b in range(d)]


@dataclass(frozen=True)
class ChaosReport:
    """Everything the metrics say about one (rho_N, rho, k) triple."""

    k: int
    N: int
    chaos_distance: float
    e_values: tuple[tuple[str, float], ...]
    c_values: tuple[tuple[str, float], ...]
    corollary_bound: float
    corollary_bound_unsquared: float
    bound_satisfied: bool
    clamped_labels: tuple[str, ...]


def chaos_report(
    rho_N: State,
    rho: DensityOperator,
    k: int,
    observables=None,
    labels=None,
    max_tuples: int = 8,
) -> ChaosReport:
    """Aggregate the metrics for one k against an observable set.

    The set defaults to the Weyl basis, whose first element is the identity.
    e_N is reported for every observable, but factorization errors only for
    the first max_tuples k-tuples of the set in lexicographic order: with
    the default 8, at d >= 3 and k >= 2 every tested tuple starts with the
    identity, so max C reads roundoff there (testing every tuple is ROADMAP item 1).
    Each tuple's error is compared with its own rate bound, and
    bound_satisfied requires every tested tuple to pass. The reported
    corollary_bound fields belong to the first tuple with the largest
    factorization error. rho_N passes one symmetry gate, as in
    empirical_variance, and every e_N reads the marginals the state keeps.
    """
    d = rho_N.d
    if observables is None:
        observables = weyl_basis(d)
        labels = weyl_labels(d)
    elif labels is None:
        labels = [f"A{i}" for i in range(len(observables))]
    if len(labels) != len(observables):
        raise DimensionMismatch("labels and observables differ in length")
    if max_tuples < 1:
        raise ValueError(f"max_tuples must be >= 1, got {max_tuples}")

    _check_one_site(rho, rho_N.d)
    stack = _observable_stack(observables, d)
    marg = rho_N.marginal(k)
    _require_symmetric(rho_N)
    dist = chaos_distance(rho_N, rho, k)

    raw = _variances(rho_N, rho, stack)
    shown = np.where((raw < 0.0) & (raw >= -E_CLAMP), 0.0, raw)
    e_adjoint = raw.copy()
    skew = np.array([not linalg.is_hermitian(a) for a in stack])
    if skew.any():
        e_adjoint[skew] = _variances(rho_N, rho, stack[skew].conj().transpose(0, 2, 1))

    idx = np.array(list(itertools.islice(itertools.product(range(len(stack)), repeat=k),
                                         max_tuples)))
    joint = _contract(marg.matrix, d, [stack[idx[:, j]] for j in range(k)])
    exps = _contract(rho.matrix, d, [stack])
    c = np.abs(joint - np.prod(exps[idx], axis=1))
    norms = np.array([linalg.operator_norm(a) for a in stack])
    b_sq, b_un = _rate_bounds(norms, np.abs(exps), e_adjoint, idx, rho_N.sites)
    worst = int(np.argmax(c))

    return ChaosReport(
        k=k,
        N=rho_N.sites,
        chaos_distance=dist,
        e_values=tuple(zip(labels, shown.tolist())),
        c_values=tuple(("x".join(labels[i] for i in row), float(ct))
                       for row, ct in zip(idx, c)),
        corollary_bound=float(b_sq[worst]),
        corollary_bound_unsquared=float(b_un[worst]),
        bound_satisfied=not bool((c > b_sq + BOUND_SLACK).any()),
        clamped_labels=tuple(lbl for lbl, e in zip(labels, raw) if e < 0.0),
    )
