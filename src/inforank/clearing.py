"""Interbank clearing with recovery haircuts and the topology-knowledge
systemic-risk experiment.

The clearing map iterates from full payments p = pbar (greatest fixed point):
a bank whose external assets plus interbank receipts cover its obligations
pays in full; an insolvent bank pays alpha * external assets + beta *
receipts. External liabilities are folded into the obligation vector and the
relative-liability denominator, with external creditors acting as a
non-defaulting pro-rata sink. alpha = beta = 1 with no external liabilities
recovers the classic fictitious-default clearing payments.

The risk experiment is a per-node scorer (RiskExperiment) over the
conditioned ensembles of entropy.conditioned_pass; the `risk` command runs it
in the same pass as the ranking, so each ensemble is solved once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import conditioned_pass
from .errors import InputError, SolverError
from .graphs import Graph
from .maxent import ProbMatrix, SolverOptions
from .sampling import adjacency_sample


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


def _relative_liabilities(L: np.ndarray, pbar: np.ndarray) -> np.ndarray:
    """Pi[i, j] = L[i, j] / pbar_i (zero rows where pbar_i = 0)."""
    # a bank with pbar_i = 0 owes nothing, so its row of L is already zero
    return L / np.where(pbar > 0, pbar, 1.0)[:, None]


@dataclass
class PaymentVector:
    p: np.ndarray
    insolvent: np.ndarray  # bool per bank
    iterations: int


def clear(prob: ClearingProblem, tol: float = 1e-10,
          max_iter: int = 10_000) -> PaymentVector:
    """Greatest clearing fixed point via monotone iteration from p = pbar."""
    if not 0.0 < tol < math.inf:
        raise InputError("clearing tolerance must be positive and finite")
    if max_iter < 1:
        raise InputError("max_iter must be >= 1")
    return _clear(prob.L, prob.Ae, prob.Le, prob.alpha, prob.beta, tol, max_iter)


def _clear(L: np.ndarray, Ae: np.ndarray, Le: np.ndarray, alpha: float,
           beta: float, tol: float, max_iter: int) -> PaymentVector:
    """The iteration of `clear`, for inputs a ClearingProblem would accept."""
    pbar = L.sum(axis=1) + Le
    pi = _relative_liabilities(L, pbar)
    p = pbar.copy()
    for it in range(1, max_iter + 1):
        receipts = pi.T @ p
        available = Ae + receipts
        solvent = available >= pbar
        p_new = np.where(solvent, pbar, alpha * Ae + beta * receipts)
        change = float(np.max(np.abs(p_new - p))) if len(p) else 0.0
        p = p_new
        if change < tol:
            receipts = pi.T @ p
            insolvent = (Ae + receipts) < pbar
            return PaymentVector(p=p, insolvent=insolvent, iterations=it)
    raise SolverError("clearing iteration did not converge (tolerance too tight?)",
                      residual=change, iterations=max_iter)


def build_liabilities(g: Graph) -> np.ndarray:
    """Liability matrix of a directed graph: its stored link weights, or a
    unit weight per link when it has none."""
    if not g.directed:
        raise InputError("liability matrices need a directed graph")
    if g.weights is not None:
        return g.weight_matrix()
    return g.adjacency()


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
    from node's conditioned ensemble `cond`, dresses them with uniform
    weights preserving the observed interbank volume in expectation, clears
    them, and returns the mean of ||p_sample - p_real||^2 / ||p_real||^2.

    The fixed inputs (externals, alpha, beta, tol, max_iter) are checked
    once, here, by clearing the real network through `clear`. A sampled
    liability matrix is a 0/1 draw with an empty diagonal times a
    non-negative weight, so it is valid by construction and is cleared
    without building a ClearingProblem.
    """

    def __init__(self, g: Graph, samples_per_node: int = 100,
                 externals: ExternalsConfig | None = None,
                 alpha: float = 0.9, beta: float = 0.9, seed: int = 0,
                 tol: float = 1e-10, max_iter: int = 10_000):
        externals = externals or ExternalsConfig()
        if samples_per_node < 1:
            raise InputError("samples_per_node must be >= 1")
        self.samples = samples_per_node
        self.alpha, self.beta, self.seed = alpha, beta, seed
        self.tol, self.max_iter = tol, max_iter

        rng = np.random.default_rng(seed)
        self.ae = np.clip(rng.normal(externals.mu_a, externals.sigma_a, g.n), 0.0, None)
        self.le = np.clip(rng.normal(externals.mu_l, externals.sigma_l, g.n), 0.0, None)

        l_real = build_liabilities(g)
        self.volume = float(l_real.sum())
        # validates alpha, beta, tol, max_iter and the externals
        self.p_real = clear(ClearingProblem(L=l_real, Ae=self.ae, Le=self.le,
                                            alpha=alpha, beta=beta),
                            tol=tol, max_iter=max_iter).p
        self.norm = float(self.p_real @ self.p_real)
        if self.norm == 0.0:
            raise InputError("real payment vector is zero; error normalization undefined")

    def __call__(self, node: int, cond: ProbMatrix) -> float:
        exp_links = float(cond.p.sum())
        w = self.volume / exp_links if exp_links > 0 else 0.0
        errors = np.empty(self.samples)
        for t in range(self.samples):
            a_s = adjacency_sample(cond, seed=(self.seed, node, t))
            p = _clear(a_s * w, self.ae, self.le, self.alpha, self.beta,
                       self.tol, self.max_iter).p
            diff = p - self.p_real
            errors[t] = float(diff @ diff) / self.norm
        return errors.mean()


def risk_error_experiment(g: Graph, samples_per_node: int = 100,
                          externals: ExternalsConfig | None = None,
                          alpha: float = 0.9, beta: float = 0.9,
                          seed: int = 0,
                          opts: SolverOptions | None = None,
                          tol: float = 1e-10, max_iter: int = 10_000) -> RiskResult:
    """Per-node error in estimating the clearing payments from sampled
    topologies of each node's conditioned ensemble (see RiskExperiment)."""
    experiment = RiskExperiment(g, samples_per_node, externals,
                                alpha, beta, seed, tol, max_iter)
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
