"""Interbank clearing with recovery haircuts and the topology-knowledge
systemic-risk experiment.

The clearing map iterates from full payments p = pbar (greatest fixed point):
a bank whose external assets plus interbank receipts cover its obligations
pays in full; an insolvent bank pays alpha * external assets + beta *
receipts. External liabilities are folded into the obligation vector and the
relative-liability denominator, with external creditors acting as a
non-defaulting pro-rata sink. alpha = beta = 1 with no external liabilities
recovers the classic fictitious-default clearing payments. One kernel,
_clear, iterates a stack of B systems that share their externals as (B, n)
and (B, n, n) arrays, each system stopping at its own convergence; `clear`
runs it on a stack of one.

The risk experiment is a per-node scorer (RiskExperiment) over the
conditioned ensembles of entropy.conditioned_pass; the `risk` command runs it
in the same pass as the ranking, so each ensemble is solved once. It is the
only scorer that gathers an ensemble's n x n link probabilities
(ClassSolution.rows): it draws its samples from them as stacks of directed
adjacency matrices (sampling.adjacency_samples), which it weights and clears
in place, in one workspace and on one generator allocated per experiment.
Its constructor rejects an undirected network (build_liabilities), so no
sample is ever undirected.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import conditioned_pass
from .errors import InputError, SolverError
from .graphs import Graph
from .maxent import ClassSolution, SolverOptions
from .sampling import (BLOCK_ELEMENTS, SEED_CHUNK, adjacency_samples,
                       seed_words)

# clear()'s defaults, which the risk experiment clears with
CLEAR_TOL = 1e-10
CLEAR_MAX_ITER = 10_000


@dataclass
class ClearingProblem:
    """Nominal liabilities L[i, j] owed by i to j, plus external balance items."""

    L: np.ndarray
    Ae: np.ndarray
    Le: np.ndarray
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        self.L = np.asarray(self.L, dtype=float)
        self.Ae = np.asarray(self.Ae, dtype=float)
        self.Le = np.asarray(self.Le, dtype=float)
        n = self.L.shape[0]
        if self.L.shape != (n, n):
            raise InputError("liability matrix must be square")
        if np.any(np.diagonal(self.L) != 0):
            raise InputError("liability matrix must have a zero diagonal")
        if np.any(self.L < 0):
            raise InputError("liabilities must be non-negative")
        if self.Ae.shape != (n,) or self.Le.shape != (n,):
            raise InputError("external vectors must have one entry per bank")
        if not all(np.isfinite(v).all() for v in (self.L, self.Ae, self.Le)):
            raise InputError("liabilities and external items must be finite")
        if np.any(self.Ae < 0) or np.any(self.Le < 0):
            raise InputError("external assets and liabilities must be non-negative")
        for name, v in (("alpha", self.alpha), ("beta", self.beta)):
            if not 0.0 < v <= 1.0:
                raise InputError(f"{name} must lie in (0, 1]")

    @property
    def n(self) -> int:
        return self.L.shape[0]

    def obligations(self) -> np.ndarray:
        return self.L.sum(axis=1) + self.Le


@dataclass
class PaymentVector:
    p: np.ndarray
    insolvent: np.ndarray  # bool per bank
    iterations: int


def clear(prob: ClearingProblem, tol: float = CLEAR_TOL,
          max_iter: int = CLEAR_MAX_ITER) -> PaymentVector:
    """Greatest clearing fixed point via monotone iteration from p = pbar."""
    if not 0.0 < tol < math.inf:
        raise InputError("clearing tolerance must be positive and finite")
    if max_iter < 1:
        raise InputError("max_iter must be >= 1")
    pi = prob.L[None].copy()  # the kernel turns it into Pi
    (p,), (iterations,) = _clear(pi, prob.Ae, prob.Le, prob.alpha, prob.beta,
                                 tol, max_iter)
    insolvent = (prob.Ae + pi[0].T @ p) < prob.obligations()
    return PaymentVector(p=p, insolvent=insolvent, iterations=int(iterations))


def _clear(L: np.ndarray, Ae: np.ndarray, Le: np.ndarray, alpha: float,
           beta: float, tol: float, max_iter: int):
    """The iteration of `clear` on a stack of B systems that share Ae, Le,
    alpha and beta, for inputs a ClearingProblem would accept.

    L is a float (B, n, n) stack of liability matrices; it is overwritten
    with the relative liabilities Pi[b, i, j] = L[b, i, j] / pbar[b, i]
    (zero rows where pbar[b, i] = 0). Returns the (B, n) payments and each
    system's iteration count. Each system leaves the stack at its first
    iteration with a change below tol and keeps the p of that iteration;
    the systems still iterating are moved to the front of L, so every step
    works on the contiguous slice L[:b]. Raises SolverError if any system
    is still iterating after max_iter.
    """
    pbar = L.sum(axis=2) + Le
    # a bank with pbar_i = 0 owes nothing, so its row of L is already zero
    np.divide(L, np.where(pbar > 0, pbar, 1.0)[:, :, None], out=L)
    out = np.empty_like(pbar)
    iterations = np.zeros(len(L), dtype=np.int64)
    idx = np.arange(len(L))
    pi, p = L, pbar.copy()
    for it in range(1, max_iter + 1):
        receipts = np.matmul(pi.transpose(0, 2, 1), p[:, :, None])[:, :, 0]
        available = Ae + receipts
        solvent = available >= pbar
        p_new = np.where(solvent, pbar, alpha * Ae + beta * receipts)
        change = np.abs(p_new - p).max(axis=1, initial=0.0)
        p = p_new
        done = change < tol
        if done.any():
            out[idx[done]] = p[done]
            iterations[idx[done]] = it
            left = np.flatnonzero(~done)
            if not len(left):
                return out, iterations
            for dst, src in enumerate(left):
                if dst != src:
                    pi[dst] = pi[src]
            idx, pi = idx[left], pi[:len(left)]
            p, pbar = p[left], pbar[left]
    raise SolverError("clearing iteration did not converge (tolerance too tight?)",
                      residual=float(change.max()), iterations=max_iter)


def build_liabilities(g: Graph) -> np.ndarray:
    """Liability matrix of a directed graph: its stored link weights, or a
    unit weight per link when it has none."""
    if not g.directed:
        raise InputError("liability matrices need a directed graph")
    return g.weight_matrix()


@dataclass
class ExternalsConfig:
    """Gaussian parameters for external assets and liabilities."""

    mu_a: float = 10.0
    sigma_a: float = 0.1
    mu_l: float = 1.0
    sigma_l: float = 0.1

    def __post_init__(self):
        for name in ("mu_a", "mu_l"):
            if not math.isfinite(getattr(self, name)):
                raise InputError(f"{name} must be finite")
        for name in ("sigma_a", "sigma_l"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise InputError(f"{name} must be finite and non-negative")


@dataclass
class RiskResult:
    mse: np.ndarray            # per-node mean normalized squared error
    failed: np.ndarray         # bool per node
    p_real: np.ndarray
    Ae: np.ndarray
    Le: np.ndarray


class RiskExperiment:
    """The fixed part of the risk experiment, called as a per-node scorer.

    Externals are drawn once from `seed` and held fixed across every sample
    so that error differences across nodes reflect topology knowledge only.
    Calling the experiment with (node, cond) draws samples_per_node graphs
    from node's conditioned ensemble `cond` (a ClassSolution, whose link
    probabilities it gathers once with cond.rows), dresses them with uniform
    weights preserving the observed interbank volume in expectation, clears
    them, and returns the mean of ||p_sample - p_real||^2 / ||p_real||^2.

    Every network is cleared with clear()'s defaults. The fixed inputs
    (externals, alpha, beta) are checked once, here, by clearing the real
    network through `clear`. A sampled liability matrix is a 0/1 draw with
    an empty diagonal times a non-negative weight, so it is valid by
    construction, and no sample builds a ClearingProblem.

    The samples go through one workspace, a float (S, n, n) array allocated
    here with S = min(samples_per_node, max(1, sampling.BLOCK_ELEMENTS //
    n^2)): each stack of up to S samples is drawn into it
    (sampling.adjacency_samples), weighted and cleared (_clear) in place.
    Sample t keeps its seed (seed, node, t); a node's seeds are hashed to
    state words (sampling.seed_words) in passes of whole stacks, at most
    sampling.SEED_CHUNK seeds or one stack, and every stack is drawn on the
    one PCG64 generator made here. Each system clears as it would alone, so
    the stack size changes no result.
    """

    def __init__(self, g: Graph, samples_per_node: int = 100,
                 externals: ExternalsConfig | None = None,
                 alpha: float = 0.9, beta: float = 0.9, seed: int = 0):
        externals = externals or ExternalsConfig()
        if samples_per_node < 1:
            raise InputError("samples_per_node must be >= 1")
        if not isinstance(seed, (int, np.integer)) or seed < 0:
            raise InputError(f"seed must be an integer >= 0, got {seed!r}")
        self.samples = samples_per_node
        self.alpha, self.beta, self.seed = alpha, beta, int(seed)

        rng = np.random.default_rng(seed)
        self.ae = np.clip(rng.normal(externals.mu_a, externals.sigma_a, g.n), 0.0, None)
        self.le = np.clip(rng.normal(externals.mu_l, externals.sigma_l, g.n), 0.0, None)

        l_real = build_liabilities(g)
        self.volume = float(l_real.sum())
        # validates alpha, beta and the externals
        self.p_real = clear(ClearingProblem(L=l_real, Ae=self.ae, Le=self.le,
                                            alpha=alpha, beta=beta)).p
        self.norm = float(self.p_real @ self.p_real)
        if self.norm == 0.0:
            raise InputError("real payment vector is zero; error normalization undefined")
        stack = min(samples_per_node, max(1, BLOCK_ELEMENTS // g.n ** 2))
        self.work = np.empty((stack, g.n, g.n))
        self.rng = np.random.Generator(np.random.PCG64(0))  # re-stated per sample

    def __call__(self, node: int, cond: ClassSolution) -> float:
        prob = cond.rows(0, cond.n)
        exp_links = float(prob.sum())
        w = self.volume / exp_links if exp_links > 0 else 0.0
        errors = np.empty(self.samples)
        stack = len(self.work)
        chunk = stack * max(1, SEED_CHUNK // stack)  # whole stacks per pass
        for w0 in range(0, self.samples, chunk):
            words = seed_words(self.seed, node,
                               min(chunk, self.samples - w0), w0)
            for t0 in range(0, len(words), stack):
                liab = adjacency_samples(prob, words[t0:t0 + stack], self.rng,
                                         self.work)
                np.multiply(liab, w, out=liab)
                p, _ = _clear(liab, self.ae, self.le, self.alpha, self.beta,
                              CLEAR_TOL, CLEAR_MAX_ITER)
                d = p - self.p_real  # (1, n) @ (n, 1) per sample: d_t @ d_t
                dd = np.matmul(d[:, None], d[:, :, None])[:, 0, 0]
                errors[w0 + t0:w0 + t0 + len(p)] = dd / self.norm
        return errors.mean()


def risk_error_experiment(g: Graph, samples_per_node: int = 100,
                          externals: ExternalsConfig | None = None,
                          alpha: float = 0.9, beta: float = 0.9,
                          seed: int = 0,
                          opts: SolverOptions | None = None) -> RiskResult:
    """Per-node error in estimating the clearing payments from sampled
    topologies of each node's conditioned ensemble (see RiskExperiment)."""
    experiment = RiskExperiment(g, samples_per_node, externals,
                                alpha, beta, seed)
    (mse,) = conditioned_pass(g, (experiment,), opts)
    return RiskResult(mse=mse, failed=np.isnan(mse), p_real=experiment.p_real,
                      Ae=experiment.ae, Le=experiment.le)


def fit_trend(x, y, degree: int = 1):
    """Least-squares polynomial fit; returns (coefficients highest-first, RSS)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if degree not in (1, 2):
        raise InputError("degree must be 1 or 2")
    if len(x) != len(y) or len(x) < degree + 1:
        raise InputError("need at least degree+1 matching points")
    design = np.vander(x, degree + 1)
    if np.linalg.matrix_rank(design) < degree + 1:
        raise InputError("rank-deficient design (x values do not span the fit)")
    coeffs, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coeffs
    return coeffs, float(resid @ resid)
