"""Independent reference implementations used as test oracles.

Everything here is deliberately written with plain loops and textbook
formulas, without touching the package's solver internals, so a test that
compares against these is a genuine dual-route check.
"""
import numpy as np


def p4_bisection(cap: float = 1e9, iters: int = 400):
    """Two-parameter bisection for the degree system k = (1,2,2,1).

    Exploits the path symmetry x_end := a, x_mid := b. Given b, the end
    equation 2*p(a,b) + p(a,a) = 1 is monotone in a and solved by inner
    bisection; the outer bisection drives the mid equation
    2*p(a,b) + p(b,b) = 2 over b in (0, cap].

    The mid equation has no interior root: it approaches zero from below as
    b grows, so the outer bisection converges to the bracket cap, which
    realizes the saturation limit p(b,b) -> 1, p(a,b) -> 1/2, p(a,a) -> 0.
    Returns (p_end_mid, p_mid_mid, p_end_end).
    """
    def p(u, v):
        return u * v / (1.0 + u * v)

    def a_of_b(b):
        lo, hi = 0.0, 1e14
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            if 2.0 * p(mid, b) + p(mid, mid) < 1.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    lo, hi = 1e-12, cap
    for _ in range(iters):
        b = 0.5 * (lo + hi)
        a = a_of_b(b)
        if 2.0 * p(a, b) + p(b, b) < 2.0:
            lo = b
        else:
            hi = b
    b = 0.5 * (lo + hi)
    a = a_of_b(b)
    return p(a, b), p(b, b), p(a, a)


def reduced_131_bisection(cap: float = 1e13, iters: int = 400):
    """Bisection oracle for the 3-node system k = (1,2,1) (conditioned path).

    Symmetry x_1 = x_3 := a, x_2 := b. The mid equation 2*p(a,b) = 2 only
    saturates, so the oracle converges to the cap, realizing p(a,b) -> 1 and
    p(a,a) -> 0. The boundary is approached as cap^(-2/3), hence the large
    default cap. Returns (p_end_mid, p_end_end).
    """
    def p(u, v):
        return u * v / (1.0 + u * v)

    lo, hi = 1e-12, cap
    for _ in range(iters):
        b = 0.5 * (lo + hi)
        # end equation: p(a,b) + p(a,a) = 1, monotone in a
        alo, ahi = 0.0, 1e14
        for _ in range(iters // 2):
            a = 0.5 * (alo + ahi)
            if p(a, b) + p(a, a) < 1.0:
                alo = a
            else:
                ahi = a
        a = 0.5 * (alo + ahi)
        if 2.0 * p(a, b) < 2.0:
            lo = b
        else:
            hi = b
    b = 0.5 * (lo + hi)
    alo, ahi = 0.0, 1e14
    for _ in range(iters // 2):
        a = 0.5 * (alo + ahi)
        if p(a, b) + p(a, a) < 1.0:
            alo = a
        else:
            ahi = a
    a = 0.5 * (alo + ahi)
    return p(a, b), p(a, a)


def dbcm_fixed_point(k_out, k_in, iters: int = 200_000, tol: float = 1e-12):
    """Direct fixed-point iteration for the directed degree system."""
    k_out = np.asarray(k_out, dtype=float)
    k_in = np.asarray(k_in, dtype=float)
    n = len(k_out)
    l_tot = k_out.sum()
    x = np.where(k_out > 0, k_out / np.sqrt(l_tot), 0.0)
    y = np.where(k_in > 0, k_in / np.sqrt(l_tot), 0.0)
    for _ in range(iters):
        sx = np.zeros(n)
        sy = np.zeros(n)
        for i in range(n):
            for j in range(n):
                if i != j:
                    sx[i] += y[j] / (1.0 + x[i] * y[j])
                    sy[j] += x[i] / (1.0 + x[i] * y[j])
        x_new = np.where(sx > 0, k_out / np.where(sx > 0, sx, 1.0), 0.0)
        y_new = np.where(sy > 0, k_in / np.where(sy > 0, sy, 1.0), 0.0)
        if max(np.abs(x_new - x).max(), np.abs(y_new - y).max()) < tol:
            x, y = x_new, y_new
            break
        x, y = x_new, y_new
    p = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                p[i, j] = x[i] * y[j] / (1.0 + x[i] * y[j])
    return p


def entropy_direct(p: np.ndarray, directed: bool) -> float:
    """Plain-loop Shannon entropy of independent pairs; 0/1 entries skip."""
    n = p.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            v = p[i, j]
            if 0.0 < v < 1.0:
                total += -(v * np.log(v) + (1.0 - v) * np.log(1.0 - v))
    return total if directed else 0.5 * total


def bfs_closeness(n, edges, directed):
    """Per-source BFS closeness, adjacency rebuilt from the raw edge list."""
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        if not directed:
            adj[j].append(i)
    scores = np.zeros(n)
    for src in range(n):
        dist = {src: 0}
        frontier = [src]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = d
                        nxt.append(v)
            frontier = nxt
        reached = len(dist) - 1
        if reached > 0:
            scores[src] = reached / sum(dist.values())
    return scores


def pagerank_linear(n, edges, directed, alpha):
    """Dense linear-system stationary solve, normalized to sum 1."""
    a = dense_matrix(n, edges, directed)
    k_out = a.sum(axis=1)
    m = np.zeros((n, n))
    for i in range(n):
        if k_out[i] > 0:
            m[i] = a[i] / k_out[i]
    p = np.linalg.solve(np.eye(n) - alpha * m.T, np.full(n, (1.0 - alpha) / n))
    return p / p.sum()


def dense_matrix(n, edges, directed, weights=None):
    """n x n matrix with weights.get((i, j), 1.0) on each edge (i, j),
    mirrored when undirected: the adjacency matrix when weights is None."""
    a = np.zeros((n, n))
    for i, j in edges:
        a[i, j] = (weights or {}).get((i, j), 1.0)
        if not directed:
            a[j, i] = a[i, j]
    return a


def pagerank_dense(n, edges, directed, alpha):
    """centrality.pagerank as first written: power iteration on a transition
    matrix divided out of the dense adjacency matrix."""
    a = dense_matrix(n, edges, directed)
    k_out = a.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.where(k_out[:, None] > 0, a / np.where(k_out[:, None] > 0, k_out[:, None], 1.0), 0.0)
    p = np.full(n, 1.0 / n)
    teleport = (1.0 - alpha) / n
    while True:
        p_new = teleport + alpha * (m.T @ p)
        if np.abs(p_new - p).sum() < 1e-12:
            return p_new / p_new.sum()
        p = p_new


def erdos_renyi_loops(n, p, seed, directed):
    """Edge set of generators.erdos_renyi as first written: a loop over the
    pairs, with one scalar draw per unordered pair when undirected."""
    rng = np.random.default_rng(seed)
    edges = set()
    if directed:
        r = rng.random((n, n))
        for i in range(n):
            for j in range(n):
                if i != j and r[i, j] < p:
                    edges.add((i, j))
    else:
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    edges.add((i, j))
    return edges


def expected_accuracy(pm, g):
    """<A> of a probability matrix against g's observed links, on the
    dense n x n matrices: the oracle of recon.class_accuracy."""
    a = dense_matrix(g.n, g.edges, g.directed)
    terms = a * pm.p + (1.0 - a) * (1.0 - pm.p)
    np.fill_diagonal(terms, 0.0)
    return float(terms.sum() / (g.n * (g.n - 1)))


def pearson_two_pass(x, y):
    """Computational-formula correlation: (sum xy - n mx my) / (n sx sy)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    mx, my = x.sum() / n, y.sum() / n
    sxy = float((x * y).sum()) - n * mx * my
    sxx = float((x * x).sum()) - n * mx * mx
    syy = float((y * y).sum()) - n * my * my
    return sxy / np.sqrt(sxx * syy)


def picard_clearing(L, Ae, Le, alpha, beta, iters: int = 500_000):
    """Exhaustive Picard iteration from full payments; no early stopping."""
    L = np.asarray(L, dtype=float)
    Ae = np.asarray(Ae, dtype=float)
    Le = np.asarray(Le, dtype=float)
    n = len(Ae)
    pbar = L.sum(axis=1) + Le
    pi = np.zeros_like(L)
    for i in range(n):
        if pbar[i] > 0:
            pi[i] = L[i] / pbar[i]
    p = pbar.copy()
    for _ in range(iters):
        receipts = pi.T @ p
        p_next = np.where(Ae + receipts >= pbar, pbar, alpha * Ae + beta * receipts)
        if np.array_equal(p_next, p):
            break
        p = p_next
    return p


def polyfit_normal_equations(x, y, degree):
    """Least squares via explicit normal equations."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    design = np.vander(x, degree + 1)
    gram = design.T @ design
    coeffs = np.linalg.solve(gram, design.T @ y)
    rss = float(((y - design @ coeffs) ** 2).sum())
    return coeffs, rss


def pair_ranges(k_out, k_in=None):
    """Least and greatest p_ij over the polytope of expected degrees, by LP.

    Directed when k_in is given: one variable per ordered pair i != j in
    [0, 1], row sums k_out and column sums k_in. Undirected otherwise: one
    variable per unordered pair, row sums k_out. Returns two n x n arrays
    (lo, hi), or None when the polytope is empty.
    """
    from scipy.optimize import linprog

    k_out = np.asarray(k_out, dtype=float)
    n = len(k_out)
    if k_in is None:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rows = np.zeros((n, len(pairs)))
        for v, (i, j) in enumerate(pairs):
            rows[i, v] = rows[j, v] = 1.0
        eq, rhs = rows, k_out
    else:
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        eq = np.zeros((2 * n, len(pairs)))
        for v, (i, j) in enumerate(pairs):
            eq[i, v] = eq[n + j, v] = 1.0
        rhs = np.concatenate([k_out, np.asarray(k_in, dtype=float)])
    lo = np.zeros((n, n))
    hi = np.zeros((n, n))
    if linprog(np.zeros(len(pairs)), A_eq=eq, b_eq=rhs,
               bounds=(0, 1)).status == 2:  # infeasible
        return None
    for v, (i, j) in enumerate(pairs):
        c = np.zeros(len(pairs))
        c[v] = 1.0
        lo[i, j] = linprog(c, A_eq=eq, b_eq=rhs, bounds=(0, 1)).fun
        hi[i, j] = -linprog(-c, A_eq=eq, b_eq=rhs, bounds=(0, 1)).fun
        if k_in is None:
            lo[j, i], hi[j, i] = lo[i, j], hi[i, j]
    return lo, hi


# ---------------------------------------------------------------------------
# per-system classification and cut test
# ---------------------------------------------------------------------------
#
# The package classifies and cut-tests a chunk of systems at once; these do
# one system, as the package did before.

def classes(k_out, k_in):
    """Class of each node, class sizes, and the degrees of each class, in
    ascending (k_out, k_in) order."""
    key = k_out * (int(k_in.max(initial=0)) + 1) + k_in
    _, first, cls, m = np.unique(key, return_index=True, return_inverse=True,
                                 return_counts=True)
    return cls, m, k_out[first], k_in[first]


def tight_cut(k_out, k_in):
    """Whether some cut of the flow network of the node degrees k_out, k_in
    is tight, i.e. may fix a pair; InputError where no feasible point exists.

    A cut through s rows, 1 <= s < |R|, has the largest excess
        E(s) = sum of the s largest (k_out_i + [k_in_i >= s])
               - sum_j min(k_in_j, s),
    taken by the first s rows in descending (k_out, k_in) order.
    """
    from inforank import InputError

    rows, cols = k_out > 0, k_in > 0
    n_r, n_c = int(rows.sum()), int(cols.sum())
    slack_out = n_c - cols - k_out
    slack_in = n_r - rows - k_in
    if np.any(slack_out < 0) or np.any(slack_in < 0):
        raise InputError("infeasible degree sequence: a node needs more "
                         "partners than are available")
    tight = bool(np.any(rows & (slack_out == 0)) or np.any(cols & (slack_in == 0)))
    if n_r < 2:
        return tight

    order = np.lexsort((-k_in, -k_out))[:n_r]
    top = np.cumsum(k_out[order])[:-1]
    pos = np.arange(1, n_r + 1)
    last = np.minimum(k_in[order], n_r - 1)
    live = last >= pos
    own = np.cumsum(np.bincount(pos[live], minlength=n_r + 1)
                    - np.bincount(last[live] + 1, minlength=n_r + 1))[1:n_r]
    at_least = np.cumsum(np.bincount(k_in, minlength=n_r + 1)[::-1])[::-1]
    excess = top + own - np.cumsum(at_least[1:n_r])
    if excess.max() > 0:
        raise InputError("infeasible degree sequence: the links of the top "
                         f"{int(np.argmax(excess)) + 1} nodes exceed every "
                         "realisation")
    return tight or bool(excess.max() == 0)


# ---------------------------------------------------------------------------
# dense node-level maximum-entropy solves
# ---------------------------------------------------------------------------
#
# The package solves on degree classes. These solve on nodes: n x n
# fixed-point loops, with the boundary pins found on the node-level flow
# network (no cut-test gate), so a comparison checks both the class network
# and the class iteration.

def node_fixed_pairs(k_out, k_in):
    """Pairs fixed over the polytope, and those among them fixed at 1.

    One maximum flow on source -> out_i (k_out_i), out_i -> in_j (1, i != j),
    in_j -> sink (k_in_j), plus the strongly connected components of its
    residual graph: a pair is fixed iff its ends lie in different components.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components, maximum_flow

    n = len(k_out)
    rows, cols = np.flatnonzero(k_out > 0), np.flatnonzero(k_in > 0)
    arcs = np.outer(k_out > 0, k_in > 0)
    np.fill_diagonal(arcs, False)
    i, j = np.nonzero(arcs)
    # nodes: source 0, out_i = 1 + i, in_j = 1 + n + j, sink 2n + 1
    sink = 2 * n + 1
    tail = np.concatenate([np.zeros(len(rows), np.int64), 1 + i, 1 + n + cols])
    head = np.concatenate([1 + rows, 1 + n + j, np.full(len(cols), sink)])
    cap = np.concatenate([k_out[rows], np.ones(len(i), np.int64), k_in[cols]])
    net = csr_matrix((cap.astype(np.int32), (tail, head)), shape=(sink + 1,) * 2)
    flow = maximum_flow(net, 0, sink).flow
    _, comp = connected_components((net - flow) > 0, directed=True,
                                   connection="strong")
    fixed = arcs & (comp[1:n + 1, None] != comp[None, n + 1:sink])
    return fixed, fixed & (flow[1:n + 1, n + 1:sink].toarray() > 0)


def node_pins(k_out, k_in):
    """(k_out, k_in, free, ones, lim) by the FORCED_LIM labelling rule."""
    n = len(k_out)
    fixed, ones = node_fixed_pairs(k_out, k_in)
    k_out = k_out - ones.sum(axis=1)
    k_in = k_in - ones.sum(axis=0)
    lim = ones | (fixed & np.outer(k_out > 0, k_in > 0))
    free = ~np.eye(n, dtype=bool) & ~lim
    return k_out, k_in, free, ones, lim


def _iterate_masked(k, free, opts):
    """Fixed-point iteration restricted to the free pairs."""
    from inforank import SolverError

    n = len(k)
    active = np.flatnonzero(k > 0)
    x_full = np.zeros(n)
    if len(active) == 0:
        return x_full, 0.0, 0

    ka = k[active].astype(float)
    mask = free[np.ix_(active, active)].astype(float)
    x = ka / np.sqrt(ka.sum())
    residual = np.inf
    for it in range(1, opts.max_iterations + 1):
        t = mask / (1.0 + np.outer(x, x))
        s = t @ x
        residual = float(np.max(np.abs(ka - x * s)))
        if residual <= opts.tolerance:
            x_full[active] = x
            return x_full, residual, it
        x = np.where(s > 0, ka / np.where(s > 0, s, 1.0), 0.0)
    raise SolverError("degree-constrained solve did not converge",
                      residual=residual, iterations=opts.max_iterations)


def _iterate_directed(k_out, k_in, free, opts):
    from inforank import SolverError

    n = len(k_out)
    x = np.zeros(n)
    y = np.zeros(n)
    ko = k_out.astype(float)
    ki = k_in.astype(float)
    l_tot = ko.sum()
    if l_tot == 0:
        return x, y, 0.0, 0

    out_idx = np.flatnonzero(ko > 0)
    in_idx = np.flatnonzero(ki > 0)
    x[out_idx] = ko[out_idx] / np.sqrt(l_tot)
    y[in_idx] = ki[in_idx] / np.sqrt(l_tot)
    # the diagonal stays in t and is subtracted after the products, which
    # keeps solves without pins bit-identical to the unmasked iteration
    mask = free.astype(float)
    np.fill_diagonal(mask, 1.0)
    residual = np.inf
    for it in range(1, opts.max_iterations + 1):
        t = mask / (1.0 + np.outer(x, y))
        diag = np.diagonal(t)
        sx = t @ y - y * diag
        sy = t.T @ x - x * diag
        res_out = np.max(np.abs(ko - x * sx)) if len(out_idx) else 0.0
        res_in = np.max(np.abs(ki - y * sy)) if len(in_idx) else 0.0
        residual = float(max(res_out, res_in))
        if residual <= opts.tolerance:
            return x, y, residual, it
        x = np.where(sx > 0, ko / np.where(sx > 0, sx, 1.0), 0.0)
        y = np.where(sy > 0, ki / np.where(sy > 0, sy, 1.0), 0.0)
    raise SolverError("degree-constrained solve did not converge",
                      residual=residual, iterations=opts.max_iterations)


def dense_ubcm(k, opts):
    """Node-level UBCM solve: (p, FORCED_LIM mask, iterations)."""
    k = np.asarray(k, dtype=np.int64)
    k, _, free, ones, lim = node_pins(k, k)
    x, _, iterations = _iterate_masked(k, free, opts)
    xx = np.outer(x, x)
    return np.where(free, xx / (1.0 + xx), ones), lim, iterations


def dense_dbcm(k_out, k_in, opts):
    """Node-level DBCM solve: (p, FORCED_LIM mask, iterations)."""
    k_out, k_in, free, ones, lim = node_pins(
        np.asarray(k_out, dtype=np.int64), np.asarray(k_in, dtype=np.int64))
    x, y, _, iterations = _iterate_directed(k_out, k_in, free, opts)
    xy = np.outer(x, y)
    return np.where(free, xy / (1.0 + xy), ones), lim, iterations


def dense_draw(p, directed, seed):
    """Boolean hit matrix of one draw from the n x n link probabilities p:
    one default_rng(seed).random((n, n)) compared with p at once, with the
    diagonal cleared, and only the upper triangle kept when undirected."""
    n = p.shape[0]
    hit = np.random.default_rng(seed).random((n, n)) < p
    if directed:
        np.fill_diagonal(hit, False)
        return hit
    return np.triu(hit, 1)


def barabasi_albert_choice(n, m, seed):
    """Edge set of generators.barabasi_albert as first written: one
    rng.choice over the normalised degrees per target draw."""
    rng = np.random.default_rng(seed)
    edges = {(i, j) for i in range(m + 1) for j in range(i + 1, m + 1)}
    deg = np.zeros(n)
    deg[: m + 1] = m
    for v in range(m + 1, n):
        targets = set()
        weights = deg[:v] / deg[:v].sum()
        while len(targets) < m:
            targets.add(int(rng.choice(v, p=weights)))
        for t in sorted(targets):
            edges.add((t, v))
            deg[t] += 1
        deg[v] = m
    return edges


def scale_free_directed_choice(n, m, seed):
    """Edge set of generators.scale_free_directed as first written: one
    rng.choice per target and per source draw."""
    rng = np.random.default_rng(seed)
    k_out, k_in = np.zeros(n), np.zeros(n)
    edges = set()

    def add(i, j):
        if i != j and (i, j) not in edges:
            edges.add((i, j))
            k_out[i] += 1
            k_in[j] += 1

    for i in range(m + 1):
        for j in range(m + 1):
            add(i, j)
    for v in range(m + 1, n):
        w_in = (k_in[:v] + 1.0) / (k_in[:v] + 1.0).sum()
        w_out = (k_out[:v] + 1.0) / (k_out[:v] + 1.0).sum()
        targets, sources = set(), set()
        while len(targets) < m:
            targets.add(int(rng.choice(v, p=w_in)))
        while len(sources) < m:
            sources.add(int(rng.choice(v, p=w_out)))
        for t in sorted(targets):
            add(v, t)
        for s in sorted(sources):
            add(s, v)
    return edges


def step_undirected(k, w, x):
    """One step of maxent's undirected class iteration as first written,
    each operation into a fresh array: k and x are (B, C), w is (B, C, C).
    Returns each system's residual at x and the next x."""
    s = ((w / (1.0 + x[:, :, None] * x[:, None])) @ x[:, :, None])[:, :, 0]
    return np.abs(k - x * s).max(axis=1), (k / np.where(s > 0, s, np.inf),)


def step_directed(ko, ki, w_out, w_in, x, y):
    """The directed analogue of step_undirected: returns the residual and
    the next x and y."""
    d = 1.0 + x[:, :, None] * y[:, None]
    sx = ((w_out / d) @ y[:, :, None])[:, :, 0]
    sy = (x[:, None] @ (w_in / d))[:, 0]
    residual = np.maximum(np.abs(ko - x * sx).max(axis=1),
                          np.abs(ki - y * sy).max(axis=1))
    return residual, (ko / np.where(sx > 0, sx, np.inf),
                      ki / np.where(sy > 0, sy, np.inf))


def clear_one(L, Ae, Le, alpha, beta, tol, max_iter):
    """clearing's iteration as first written, on one liability matrix at a
    time: returns (p, iterations), or (None, max_iter) when it has not
    converged after max_iter iterations."""
    pbar = L.sum(axis=1) + Le
    pi = L / np.where(pbar > 0, pbar, 1.0)[:, None]
    p = pbar.copy()
    for it in range(1, max_iter + 1):
        receipts = pi.T @ p
        available = Ae + receipts
        solvent = available >= pbar
        p_new = np.where(solvent, pbar, alpha * Ae + beta * receipts)
        change = float(np.max(np.abs(p_new - p))) if len(p) else 0.0
        p = p_new
        if change < tol:
            return p, it
    return None, max_iter
