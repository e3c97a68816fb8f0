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
    a = np.zeros((n, n))
    for i, j in edges:
        a[i, j] = 1.0
        if not directed:
            a[j, i] = 1.0
    k_out = a.sum(axis=1)
    m = np.zeros((n, n))
    for i in range(n):
        if k_out[i] > 0:
            m[i] = a[i] / k_out[i]
    p = np.linalg.solve(np.eye(n) - alpha * m.T, np.full(n, (1.0 - alpha) / n))
    return p / p.sum()


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
