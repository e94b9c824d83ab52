"""Independent reference implementations used to cross-check the package.

Everything here deliberately takes a different computational route than the
library code: explicit index loops instead of reshapes, power iteration
instead of dense eigensolvers, Taylor series instead of eigendecomposition,
full-space contraction instead of marginals. Slow is fine; these run on
small inputs only.
"""

from __future__ import annotations

import itertools

import numpy as np

from chaoticity import metrics
from chaoticity.dynamics import (
    TRAJECTORY_TOL,
    ExactPropagator,
    bbgky_residual,
    epsilon_term,
    gronwall_envelope,
    integrate_hartree,
)
from chaoticity.experiments import (
    NS_OBSERVABLE,
    _draw_initial,
    _draw_mixture,
    _draw_observable,
    _draw_system,
    subseed,
)
from chaoticity.states import validate
from chaoticity.tensor import TensorShape


def power_iteration_norm(m: np.ndarray, iters: int = 5000, seed: int = 0) -> float:
    """Largest singular value via power iteration on M†M."""
    rng = np.random.default_rng(seed)
    h = m.conj().T @ m
    v = rng.standard_normal(h.shape[0]) + 1j * rng.standard_normal(h.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = h @ v
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return 0.0
        v = w / nrm
        lam = nrm
    return float(np.sqrt(lam))


def taylor_expm(h: np.ndarray, t: float, terms: int = 30) -> np.ndarray:
    """e^{-itH} by scaling and squaring plus truncated Taylor series."""
    a = -1j * t * np.asarray(h, dtype=np.complex128)
    norm = np.abs(a).sum(axis=1).max()
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-300))))) if norm > 1 else 0
    a = a / (2**squarings)
    out = np.eye(a.shape[0], dtype=np.complex128)
    term = np.eye(a.shape[0], dtype=np.complex128)
    for k in range(1, terms + 1):
        term = term @ a / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def naive_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Index-formula Kronecker product: out[ip+k, jq+l] = a[i,j] b[k,l]."""
    p, q = b.shape
    n, m = a.shape
    out = np.zeros((n * p, m * q), dtype=np.complex128)
    for i in range(n):
        for j in range(m):
            for k in range(p):
                for l in range(q):
                    out[i * p + k, j * q + l] = a[i, j] * b[k, l]
    return out


def naive_kron_chain(mats) -> np.ndarray:
    out = np.array(mats[0], dtype=np.complex128)
    for m in mats[1:]:
        out = naive_kron(out, np.asarray(m, dtype=np.complex128))
    return out


def _digits(x: int, d: int, n: int) -> list[int]:
    """Big-endian base-d digits, site 1 most significant."""
    out = []
    for _ in range(n):
        out.append(x % d)
        x //= d
    return list(reversed(out))


def _undigits(digits, d: int) -> int:
    x = 0
    for dig in digits:
        x = x * d + dig
    return x


def naive_partial_trace(m: np.ndarray, d: int, n: int, traced) -> np.ndarray:
    """Explicit multi-index summation, no reshape tricks."""
    traced = sorted(traced)
    kept = [s for s in range(1, n + 1) if s not in traced]
    dim_out = d ** len(kept)
    out = np.zeros((dim_out, dim_out), dtype=np.complex128)
    for a in range(dim_out):
        a_dig = _digits(a, d, len(kept))
        for b in range(dim_out):
            b_dig = _digits(b, d, len(kept))
            acc = 0.0 + 0.0j
            for t in range(d ** len(traced)):
                t_dig = _digits(t, d, len(traced))
                row = [0] * n
                col = [0] * n
                for site, dig in zip(kept, a_dig):
                    row[site - 1] = dig
                for site, dig in zip(kept, b_dig):
                    col[site - 1] = dig
                for site, dig in zip(traced, t_dig):
                    row[site - 1] = dig
                    col[site - 1] = dig
                acc += m[_undigits(row, d), _undigits(col, d)]
            out[a, b] = acc
    return out


def naive_permutation_unitary(image, d: int) -> np.ndarray:
    """U_p with output digit at site s = input digit at site p^{-1}(s)."""
    n = len(image)
    inverse = [0] * n
    for site, target in enumerate(image, start=1):
        inverse[target - 1] = site
    dim = d**n
    u = np.zeros((dim, dim), dtype=np.complex128)
    for x in range(dim):
        x_dig = _digits(x, d, n)
        y_dig = [x_dig[inverse[s] - 1] for s in range(n)]
        u[_undigits(y_dig, d), x] = 1.0
    return u


def full_group_defect(rho) -> float:
    """max |U_p rho U_p† - rho| over all N! site permutations p, each U_p dense.

    The library's symmetry_defect checks only the N - 1 adjacent swaps,
    which generate the group; this enumerates the whole group instead.
    """
    m = rho.matrix
    unitaries = (naive_permutation_unitary(image, rho.d)
                 for image in itertools.permutations(range(1, rho.sites + 1)))
    return max(float(np.abs(u @ m @ u.conj().T - m).max()) for u in unitaries)


def hartree_rhs_kron(rho_matrix: np.ndarray, a: np.ndarray, v: np.ndarray, d: int) -> np.ndarray:
    """-i([A, rho] + tr_2[V + S V S, rho ox rho]) with a dense swap S and kron."""
    s = naive_permutation_unitary((2, 1), d)
    w = v + s @ v @ s
    pair = np.kron(rho_matrix, rho_matrix)
    reduced = naive_partial_trace(w @ pair - pair @ w, d, 2, [2])
    return -1j * (a @ rho_matrix - rho_matrix @ a + reduced)


def embed_full(a: np.ndarray, site: int, d: int, n: int) -> np.ndarray:
    """1^(site-1) ox a ox 1^(n-site) by naive kron chain."""
    mats = [np.eye(d)] * (site - 1) + [a] + [np.eye(d)] * (n - site)
    return naive_kron_chain(mats)


def embed_sites_full(b: np.ndarray, sites, d: int, n: int) -> np.ndarray:
    """b on the ordered sites, identity elsewhere, by a loop over basis pairs.

    Entry (x, y) is b[x_S, y_S] when the digits of x and y agree off the
    target sites S, and zero otherwise; x_S reads the digits of x on
    sites[0], sites[1], ... as a base-d number, first site most significant.
    """
    dim = d**n
    out = np.zeros((dim, dim), dtype=np.complex128)
    rest = [s for s in range(1, n + 1) if s not in sites]
    for x in range(dim):
        x_dig = _digits(x, d, n)
        for y in range(dim):
            y_dig = _digits(y, d, n)
            if all(x_dig[s - 1] == y_dig[s - 1] for s in rest):
                row = _undigits([x_dig[s - 1] for s in sites], d)
                col = _undigits([y_dig[s - 1] for s in sites], d)
                out[x, y] = b[row, col]
    return out


def full_space_joint(rho_n_matrix: np.ndarray, observables, d: int, n: int) -> complex:
    """tr((A_1 ox ... ox A_k ox 1^(n-k)) rho_N) on the full space."""
    k = len(observables)
    mats = list(observables) + [np.eye(d)] * (n - k)
    big = naive_kron_chain(mats)
    return complex(np.trace(big @ rho_n_matrix))


def empirical_variance_expanded(
    rho_n_matrix: np.ndarray, rho_matrix: np.ndarray, a: np.ndarray, d: int, n: int
) -> float:
    """tr((X-c)†(X-c) rho_N) by expanding the four cross terms."""
    x = sum(embed_full(a, j, d, n) for j in range(1, n + 1)) / n
    c = complex(np.trace(a @ rho_matrix))
    xdx = x.conj().T @ x
    t1 = np.trace(xdx @ rho_n_matrix)
    t2 = np.conj(c) * np.trace(x @ rho_n_matrix)
    t3 = c * np.trace(x.conj().T @ rho_n_matrix)
    t4 = abs(c) ** 2 * np.trace(rho_n_matrix)
    return float((t1 - t2 - t3 + t4).real)


def product_e_closed_form(rho_matrix: np.ndarray, a: np.ndarray, n: int) -> float:
    """e_N(A) for rho_N = rho^(ox N): (tr(A†A rho) - |tr(A rho)|^2) / N."""
    t_aa = np.trace(a.conj().T @ a @ rho_matrix).real
    t_a = np.trace(a @ rho_matrix)
    return float((t_aa - abs(t_a) ** 2) / n)


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """QR of a Ginibre matrix with phase fixing: Haar distributed."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


# ------------------------------------------------------------ full-state forms
# Exact evolution used to form the whole N-site state and take marginals from
# it; the package now contracts marginals straight from the eigenbasis. These
# keep the full-state route, with digit-loop embeddings and partial traces.


def trace_norm_svd(m: np.ndarray) -> float:
    return float(np.linalg.svd(m, compute_uv=False).sum())


def marginal_full(rho_matrix: np.ndarray, d: int, n_sites: int, k: int) -> np.ndarray:
    """First-k-sites marginal of a full N-site matrix."""
    return naive_partial_trace(rho_matrix, d, n_sites, range(k + 1, n_sites + 1))


def symmetrised_pairs_full(v: np.ndarray, d: int, k: int, pairs) -> np.ndarray:
    """sum over the given pairs (i, j) of V_ij + V_ji on k sites."""
    out = np.zeros((d**k, d**k), dtype=np.complex128)
    for i, j in pairs:
        out += embed_sites_full(v, (i, j), d, k) + embed_sites_full(v, (j, i), d, k)
    return out


def _traced_pair_commutator(v: np.ndarray, m_np1: np.ndarray, d: int, n: int) -> np.ndarray:
    """sum_{j <= n} tr_{n+1}[V_{j,n+1} + V_{n+1,j}, rho^(n+1)]."""
    w = symmetrised_pairs_full(v, d, n + 1, [(j, n + 1) for j in range(1, n + 1)])
    return naive_partial_trace(w @ m_np1 - m_np1 @ w, d, n + 1, [n + 1])


def epsilon_full_state(rho_matrix: np.ndarray, v: np.ndarray, d: int, n_sites: int, n: int):
    """The order-n hierarchy defect of a full N-site state: (1/N) sum_{i<j<=n}
    [W_ij, rho^(n)] - (n/N) sum_{j<=n} tr_{n+1}[W_{j,n+1}, rho^(n+1)]."""
    m_n = marginal_full(rho_matrix, d, n_sites, n)
    m_np1 = marginal_full(rho_matrix, d, n_sites, n + 1)
    inner = symmetrised_pairs_full(
        v, d, n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    )
    return (inner @ m_n - m_n @ inner) / n_sites - (n / n_sites) * _traced_pair_commutator(
        v, m_np1, d, n
    )


def bbgky_residual_full_state(prop, rho0, a: np.ndarray, v: np.ndarray, n: int,
                              t: float, h: float) -> float:
    """|| (rho^(n)(t+h) - rho^(n)(t-h)) / 2h + i RHS(t) ||_1 from three full
    states prop.evolve(rho0, s), RHS = [H_{n,N}, rho^(n)]
    + ((N-n)/N) sum_{j<=n} tr_{n+1}[W_{j,n+1}, rho^(n+1)]."""
    d, n_sites = rho0.d, rho0.sites

    def marg(s, k):
        return marginal_full(prop.evolve(rho0, s).matrix, d, n_sites, k)

    lhs = (marg(t + h, n) - marg(t - h, n)) / (2.0 * h)
    h_n = sum(embed_sites_full(a, (j,), d, n) for j in range(1, n + 1))
    h_n = h_n + symmetrised_pairs_full(
        v, d, n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    ) / n_sites
    m_n, m_np1 = marg(t, n), marg(t, n + 1)
    rhs = h_n @ m_n - m_n @ h_n
    rhs = rhs + ((n_sites - n) / n_sites) * _traced_pair_commutator(v, m_np1, d, n)
    return trace_norm_svd(lhs + 1j * rhs)


def tensor_hierarchy_residual_direct(trajectory, a: np.ndarray, v: np.ndarray, n: int,
                                     t: float, h: float) -> float:
    """|| (rho(t+h)^(ox n) - rho(t-h)^(ox n)) / 2h + i L(rho(t)^(ox (n+1))) ||_1 with
    the tensor powers formed directly, L = sum_{j<=n} [A_j, rho^(ox n)]
    + sum_{j<=n} tr_{n+1}[W_{j,n+1}, rho^(ox (n+1))]."""
    minus, mid, plus = (trajectory.state_at(s).matrix for s in (t - h, t, t + h))
    d = mid.shape[0]
    lhs = (naive_kron_chain([plus] * n) - naive_kron_chain([minus] * n)) / (2.0 * h)
    m_n = naive_kron_chain([mid] * n)
    a_n = sum(embed_sites_full(a, (j,), d, n) for j in range(1, n + 1))
    limit = a_n @ m_n - m_n @ a_n + _traced_pair_commutator(
        v, naive_kron_chain([mid] * (n + 1)), d, n
    )
    return trace_norm_svd(lhs + 1j * limit)


def marginal_error_full_state(rho_matrix: np.ndarray, one_site: np.ndarray, d: int,
                              n_sites: int, n: int) -> float:
    """E_n = tr |rho_N^(n) - rho^(ox n)| from a full N-site state."""
    return trace_norm_svd(
        marginal_full(rho_matrix, d, n_sites, n) - naive_kron_chain([one_site] * n)
    )


# ------------------------------------------------------------ dense mixtures
# The mixture kinds used to build the d^N mixture and contract the site
# average X_N(A) against it on the full space. These rebuild their rows that
# way, with marginals by naive partial trace and joints against the full state.


def empirical_variance_full(rho_n_matrix: np.ndarray, rho_matrix: np.ndarray, a: np.ndarray,
                            d: int, n: int) -> float:
    """tr(B†B rho_N) with B = X_N(A) - tr(A rho) 1 formed as a D x D matrix,
    X_N(A) = (1/N) sum_j 1 ox .. ox A ox .. ox 1 by numpy kron with identities."""
    c = complex(np.trace(a @ rho_matrix))
    x = sum(np.kron(np.kron(np.eye(d ** (j - 1)), a), np.eye(d ** (n - j)))
            for j in range(1, n + 1)) / n
    b = x - c * np.eye(d**n)
    return float(np.vdot(b, b @ rho_n_matrix).real)


def dense_mixture(mix):
    """The validated d^N matrix sum_m w_m sigma_m^(ox N) of a ProductMixture."""
    d, n = mix.d, mix.sites
    acc = np.zeros((d**n, d**n), dtype=np.complex128)
    for w, s in zip(mix.weights, mix.components):
        power = s.matrix
        for _ in range(n - 1):
            power = np.kron(power, s.matrix)
        acc += w * power
    return validate(acc, TensorShape(d, n, d**n))


def joint_full(rho_n_matrix: np.ndarray, observables, d: int, n: int) -> complex:
    """tr((A_1 ox ... ox A_k ox 1) rho_N) with numpy kron on the full space."""
    big = np.eye(d ** (n - len(observables)), dtype=np.complex128)
    for a in reversed(observables):
        big = np.kron(a, big)
    return complex(np.trace(big @ rho_n_matrix))


def product_of_means(rho_matrix: np.ndarray, observables) -> complex:
    out = 1.0 + 0.0j
    for a in observables:
        out *= np.trace(rho_matrix @ a)
    return out


def corollary_bound_loop(rho_matrix: np.ndarray, observables, e_values, n_sites: int):
    """(squared, unsquared) rate bounds of one tuple by a scalar loop over its positions.

    sum_l sqrt(max(e_l, 0)) prod_{j<l} |tr(rho A_j)|^p prod_{j>l} ||A_j||^p
    + 2 prod_j ||A_j|| (1 - prod_{m<k} (1 - m/N)), for p = 2 and p = 1, with
    norms by SVD and expectations by np.trace.
    """
    k = len(observables)
    norms = [float(np.linalg.norm(a, 2)) for a in observables]
    exps = [abs(np.trace(rho_matrix @ a)) for a in observables]
    sampled = 1.0
    for m in range(k):
        sampled *= 1.0 - m / n_sites
    tail = 2.0 * float(np.prod(norms)) * (1.0 - sampled)
    bounds = []
    for power in (2, 1):
        total = 0.0
        for l in range(k):
            w = 1.0
            for x in exps[:l] + norms[l + 1:]:
                w *= x**power
            total += np.sqrt(max(float(e_values[l]), 0.0)) * w
        bounds.append(total + tail)
    return bounds[0], bounds[1]


def chaos_report_loop(big: np.ndarray, rho_matrix: np.ndarray, observables, d: int, n: int,
                      k: int, max_tuples: int = 8) -> dict:
    """chaos_report's rules on a dense N-site state, one tuple at a time.

    e values by empirical_variance_full, joints by numpy kron on the full
    space, bounds by corollary_bound_loop; tuples in lexicographic order,
    the first max_tuples of them.
    """
    m = len(observables)
    raw = [empirical_variance_full(big, rho_matrix, a, d, n) for a in observables]
    e_adj = [max(empirical_variance_full(big, rho_matrix, a.conj().T, d, n), 0.0)
             for a in observables]
    tuples, c_values, bounds = [], [], []
    for flat in range(min(max_tuples, m**k)):
        idx = [flat // m ** (k - 1 - j) % m for j in range(k)]
        tup = [observables[i] for i in idx]
        tuples.append(tuple(idx))
        c_values.append(abs(joint_full(big, tup, d, n) - product_of_means(rho_matrix, tup)))
        bounds.append(corollary_bound_loop(rho_matrix, tup, [e_adj[i] for i in idx], n))
    worst = int(np.argmax(c_values))
    return {
        "e_raw": raw,
        "e_shown": [0.0 if -metrics.E_CLAMP <= e < 0.0 else e for e in raw],
        "tuples": tuples,
        "c_values": c_values,
        "bounds": bounds,
        "worst_bounds": bounds[worst],
        "ok": all(c <= b + metrics.BOUND_SLACK for c, (b, _) in zip(c_values, bounds)),
    }


def chaos_sweep_rows_dense(config) -> list[tuple]:
    """chaos_sweep rows from dense mixtures: chaos_report's rules, full-space values."""
    d = config.d
    obs = metrics.weyl_basis(d)
    rows = []
    for n in config.N_list:
        rho_bar, mix = _draw_mixture(config, n)
        big = dense_mixture(mix).matrix
        for k in config.k_list:
            dist = trace_norm_svd(
                marginal_full(big, d, n, k) - naive_kron_chain([rho_bar.matrix] * k)
            )
            rep = chaos_report_loop(big, rho_bar.matrix, obs, d, n, k)
            rows.append((n, k, dist, max(rep["c_values"]), *rep["worst_bounds"], rep["ok"],
                         max(rep["e_shown"])))
    return rows


def bound_audit_rows_dense(config) -> list[tuple]:
    """bound_audit rows from dense mixtures, the same draws in the same order."""
    d = config.d
    reps = -(-config.trials // (len(config.N_list) * len(config.k_list)))
    rows = []
    for n in config.N_list:
        for k in config.k_list:
            for rep in range(reps):
                rho_bar, mix = _draw_mixture(config, n, n, k, rep)
                big = dense_mixture(mix).matrix
                rng = np.random.default_rng(subseed(config.seed, NS_OBSERVABLE, n, k, rep))
                obs = [_draw_observable(rng, d, config.a_norm_cap) for _ in range(k)]
                c = abs(joint_full(big, obs, d, n) - product_of_means(rho_bar.matrix, obs))
                e_vals = [max(empirical_variance_full(big, rho_bar.matrix, a.conj().T, d, n), 0.0)
                          for a in obs]
                b_sq, b_un = corollary_bound_loop(rho_bar.matrix, obs, e_vals, n)
                rows.append((n, k, rep, c, b_sq, b_un, bool(c <= b_sq + 1e-9), b_sq - c))
    return rows


# ------------------------------------------------------------ dense N-body path
# At d = 2 the N-body kinds evolve rho0^(ox N) in the spin blocks. These
# rebuild their rows on the dense path instead: ExactPropagator on the
# N-site product state, with marginals by naive partial trace.


def propagation_rows_dense(config) -> list[tuple]:
    """propagation rows from ExactPropagator.evolve_grid on rho0^(ox N)."""
    sys, rho0 = _draw_system(config), _draw_initial(config)
    traj = integrate_hartree(rho0, sys, 0.0, max(config.times), config.step,
                             config.save_every, config.tol_value("drift", TRAJECTORY_TOL))
    if config.gronwall:
        grid, states = traj.times, traj.states
    else:
        grid = np.asarray(config.times, dtype=float)
        states = [traj.state_at(t) for t in config.times]
    v_norm = sys.interaction_norm()
    d = config.d
    rows = []
    for n_sites in config.N_list:
        top = min(max(config.k_list) + 1, n_sites)
        evolved = ExactPropagator(sys, n_sites).evolve_grid(rho0, grid, top)

        def errors(order):
            return np.array([
                trace_norm_svd(marginal_full(m.matrix, d, top, order)
                               - naive_kron_chain([s.matrix] * order))
                for m, s in zip(evolved, states)
            ])

        for n in sorted(set(config.k_list)):
            e = errors(n)
            env = (gronwall_envelope(grid, errors(n + 1), n, n_sites, v_norm)
                   if config.gronwall and n < n_sites else None)
            for t in config.times:
                i = int(np.argmin(np.abs(grid - t)))
                eps = (epsilon_term(evolved[i].marginal(n + 1), sys, n_sites)
                       if n < n_sites else None)
                bound = None if env is None else float(env[i])
                rows.append((
                    n_sites, n, float(t), float(e[i]),
                    None if eps is None else eps.norm, None if eps is None else eps.bound,
                    bound, None if env is None else bool(e[i] <= 1.05 * bound + 1e-12),
                ))
    return rows


def bbgky_rows_dense(config) -> list[tuple]:
    """bbgky_verify rows from ExactPropagator grids of rho0^(ox N)."""
    sys, rho0 = _draw_system(config), _draw_initial(config)
    h = config.fd_h
    rows = []
    for n_sites in config.N_list:
        prop = ExactPropagator(sys, n_sites)
        for n in sorted(config.k_list):
            if n > n_sites - 1:
                continue
            for t in config.times:
                r1, r2 = (bbgky_residual(rho0, n, t, s, prop) for s in (h, h / 2.0))
                rows.append((n_sites, n, float(t), h, r1.residual_trace_norm,
                             r2.residual_trace_norm,
                             r1.residual_trace_norm / r2.residual_trace_norm,
                             r1.epsilon_norm, r1.epsilon_bound))
    return rows


# ------------------------------------------------------------ one-site flow


def hartree_convergence_rows_kron(config) -> list[tuple]:
    """hartree_convergence rows from classical RK4 on hartree_rhs_kron, one level at a time.

    Each level steps from 0 to max(times) on its own, with a shortened last
    step when max(times) is off its grid.
    """
    sys, rho0 = _draw_system(config), _draw_initial(config)
    t1 = max(config.times)
    steps = [config.step / 2**lvl for lvl in range(3)]
    ends = []
    for step in steps:
        m, k = rho0.matrix, 0
        while k * step < t1 - 1e-12:
            dt = min(step, t1 - k * step)
            k1 = hartree_rhs_kron(m, sys.a, sys.v, config.d)
            k2 = hartree_rhs_kron(m + 0.5 * dt * k1, sys.a, sys.v, config.d)
            k3 = hartree_rhs_kron(m + 0.5 * dt * k2, sys.a, sys.v, config.d)
            k4 = hartree_rhs_kron(m + dt * k3, sys.a, sys.v, config.d)
            m = m + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            k += 1
        ends.append(m)
    deltas = [trace_norm_svd(ends[0] - ends[1]), trace_norm_svd(ends[1] - ends[2])]
    ratio = deltas[0] / deltas[1] if deltas[1] > 0 else None
    return [
        (lvl, step, deltas[lvl] if lvl < 2 else None, ratio if lvl == 0 else None,
         abs(float(np.trace(end).real) - 1.0), float(np.linalg.eigvalsh(end).min()))
        for lvl, (step, end) in enumerate(zip(steps, ends))
    ]
