"""Chaoticity metrics for N-site density operators.

How close is rho_N to the tensor power of a one-site state rho? Four views
of the same question, each exact (no sampling):

* chaos_distance    tr |rho_N^(k) - rho^(ox k)|, trace-norm distance of the
                    k-site marginal to the product.
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

The bound is evaluated in its printed squared-factor form and, because the
underlying Cauchy-Schwarz step suggests unsquared factors were intended, the
unsquared variant is computed alongside: corollary_bound returns the pair
(squared, unsquared), and reports carry both.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import BadSiteIndex, BoundViolation, DimensionMismatch, NotSymmetric
from .states import DensityOperator, State, is_symmetric
from .tensor import kron, tensor_power

# e values in [-E_CLAMP, 0) are reported as 0 (flagged); below -E_ERROR is a bug.
E_CLAMP = 1e-10
E_ERROR = 1e-8
BOUND_SLACK = 1e-9


def _check_reference(rho_N: State, rho: DensityOperator) -> None:
    if rho.sites != 1:
        raise DimensionMismatch("reference state must live on one site")
    if rho.d != rho_N.d:
        raise DimensionMismatch(f"local dimensions differ: {rho.d} vs {rho_N.d}")


def _distance(marg: DensityOperator, rho: DensityOperator) -> float:
    """tr |marg - rho^(ox k)| for a k-site marginal."""
    ref = tensor_power(rho.matrix, marg.sites, marg.shape.max_total_dim)
    return linalg.trace_norm(marg.matrix - ref)


def chaos_distance(rho_N: State, rho: DensityOperator, k: int) -> float:
    """tr |rho_N^(k) - rho^(ox k)|."""
    _check_reference(rho_N, rho)
    return _distance(rho_N.marginal(k), rho)


def _require_symmetric(rho_N: State) -> None:
    ok, worst = is_symmetric(rho_N)
    if not ok:
        raise NotSymmetric(
            f"empirical variance needs a symmetric state: max |U_p rho_N U_p† - rho_N| = {worst:.3e}"
        )


def _variance(rho_N: State, rho: DensityOperator, a: np.ndarray) -> float:
    """e_N(A) of a symmetric state from its first two marginals (see empirical_variance)."""
    n = rho_N.sites
    c = linalg.trace_product(a, rho.matrix)
    b = a - c * np.eye(rho.d)
    b_dag = b.conj().T
    val = linalg.trace_product(b_dag @ b, rho_N.marginal(1).matrix) / n
    if n > 1:
        m2 = rho_N.marginal(2)
        val += (1.0 - 1.0 / n) * linalg.trace_product(
            kron(b_dag, b, max_dim=m2.shape.max_total_dim), m2.matrix
        )
    if val.real < -E_ERROR:
        raise BoundViolation(f"empirical variance {val.real:.3e} < -{E_ERROR:.1e}")
    return float(val.real)


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
    a = np.asarray(a, dtype=np.complex128)
    if rho.sites != 1 or a.shape != (rho_N.d, rho_N.d):
        raise DimensionMismatch("observable and reference state must be one-site objects")
    _require_symmetric(rho_N)
    return _variance(rho_N, rho, a)


def _product_expectation(marg_k: DensityOperator, observables, rho: DensityOperator) -> tuple[complex, complex]:
    """(joint expectation against the k-marginal, product of one-site ones)."""
    joint_obs = kron(*[np.asarray(a, dtype=np.complex128) for a in observables],
                     max_dim=marg_k.shape.max_total_dim)
    joint = linalg.trace_product(joint_obs, marg_k.matrix)
    prod = 1.0 + 0.0j
    for a in observables:
        prod *= linalg.trace_product(np.asarray(a, dtype=np.complex128), rho.matrix)
    return joint, prod


def factorization_error(rho_N: State, rho: DensityOperator, observables) -> float:
    """C_{k,N} = |tr((A_1 ox ... ox A_k) rho_N^(k)) - prod_j tr(rho A_j)|.

    Contracted against the k-site marginal; tracing the identity padding
    first is exactly the full-space contraction, at O(d^2k) instead of
    O(d^2N) cost.
    """
    observables = list(observables)
    k = len(observables)
    if k < 1:
        raise ValueError("need at least one observable")
    if k > rho_N.sites:
        raise BadSiteIndex(f"k = {k} exceeds N = {rho_N.sites}")
    joint, prod = _product_expectation(rho_N.marginal(k), observables, rho)
    return abs(joint - prod)


def combinatorial_factor(k: int, n_sites: int) -> float:
    """prod_{m=0}^{k-1} (1 - m/N): the injective-sampling fraction."""
    out = 1.0
    for m in range(k):
        out *= 1.0 - m / n_sites
    return out


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
    observables = [np.asarray(a, dtype=np.complex128) for a in observables]
    k = len(observables)
    if k > n_sites:
        raise BadSiteIndex(f"k = {k} exceeds N = {n_sites}")
    if len(e_values) != k:
        raise DimensionMismatch(f"need {k} e-values, got {len(e_values)}")
    norms = [linalg.operator_norm(a) for a in observables]
    exps = [abs(linalg.trace_product(rho.matrix, a)) for a in observables]
    tail = 2.0 * math.prod(norms) * (1.0 - combinatorial_factor(k, n_sites))
    bounds = []
    for power in (2, 1):
        total = 0.0
        for l in range(k):
            w = math.prod(x**power for x in exps[:l] + norms[l + 1:])
            total += np.sqrt(max(float(e_values[l]), 0.0)) * w
        bounds.append(total + tail)
    return bounds[0], bounds[1]


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


def _tuple_label(labels, index_tuple) -> str:
    return "x".join(labels[i] for i in index_tuple)


def chaos_report(
    rho_N: State,
    rho: DensityOperator,
    k: int,
    observables=None,
    labels=None,
    max_tuples: int = 8,
) -> ChaosReport:
    """Aggregate the metrics for one k against an observable set.

    Defaults to the full Weyl basis. Factorization errors are computed for
    k-tuples drawn from the set in lexicographic order, truncated to
    max_tuples; each tuple's error is compared with its own rate bound, and
    bound_satisfied requires every tested tuple to pass. The reported
    corollary_bound fields belong to the tuple with the largest
    factorization error. rho_N passes one symmetry gate, as in
    empirical_variance, and every e_N reads the marginals the state keeps.
    """
    d = rho_N.d
    if observables is None:
        observables = weyl_basis(d)
        labels = weyl_labels(d)
    else:
        observables = [np.asarray(a, dtype=np.complex128) for a in observables]
        if labels is None:
            labels = [f"A{i}" for i in range(len(observables))]
    if len(labels) != len(observables):
        raise DimensionMismatch("labels and observables differ in length")

    _check_reference(rho_N, rho)
    marg = rho_N.marginal(k)
    _require_symmetric(rho_N)
    dist = _distance(marg, rho)

    e_values = []
    e_adjoint = []
    clamped = []
    for lbl, a in zip(labels, observables):
        raw = _variance(rho_N, rho, a)
        val = raw
        if raw < 0.0:
            clamped.append(lbl)
            if raw >= -E_CLAMP:
                val = 0.0
        e_values.append((lbl, val))
        if linalg.is_hermitian(a):
            e_adjoint.append(max(raw, 0.0))
        else:
            e_adjoint.append(max(_variance(rho_N, rho, a.conj().T), 0.0))

    index_tuples = itertools.islice(
        itertools.product(range(len(observables)), repeat=k), max_tuples
    )

    c_values = []
    worst_c = -1.0
    worst_bounds = (0.0, 0.0)
    all_ok = True
    for idx in index_tuples:
        obs = [observables[i] for i in idx]
        joint, prod = _product_expectation(marg, obs, rho)
        c = abs(joint - prod)
        e_vals = [e_adjoint[i] for i in idx]
        b_sq, b_un = corollary_bound(rho, obs, e_vals, rho_N.sites)
        c_values.append((_tuple_label(labels, idx), c))
        if c > b_sq + BOUND_SLACK:
            all_ok = False
        if c > worst_c:
            worst_c = c
            worst_bounds = (b_sq, b_un)

    return ChaosReport(
        k=k,
        N=rho_N.sites,
        chaos_distance=dist,
        e_values=tuple(e_values),
        c_values=tuple(c_values),
        corollary_bound=worst_bounds[0],
        corollary_bound_unsquared=worst_bounds[1],
        bound_satisfied=all_ok,
        clamped_labels=tuple(clamped),
    )
