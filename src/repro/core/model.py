"""Querying the maintained model (Algorithm 3) and error metrics.

A :class:`CountModel` wraps a flat vector of counter values — exact
counts for EXACTMLE, coordinator estimates for the approximate
algorithms — and answers joint-probability queries by the factorization
of Equation 2: ``P[x] = prod_i A_i(x_i, x_par) / A_i(x_par)``.

Smoothing: both exact and approximate models use the same pseudo-count
``lam`` per cell (``(A + lam) / (A_par + lam * J_i)``) so queries on
configurations with zero observed mass are well defined and the
model-vs-MLE ratio is meaningful (DESIGN.md substitution #6).
The ground truth is the same product over its CPD cells, unsmoothed
(:meth:`CountModel.from_cpds`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bayesnet.structure import BayesNet


@dataclass
class CountModel:
    """A Bayesian-network model defined by counter values."""

    net: BayesNet
    values: np.ndarray  # (n_counters,) exact counts or estimates
    lam: float = 0.5

    def __post_init__(self) -> None:
        if self.values.shape != (self.net.n_counters,):
            raise ValueError("values must have one entry per counter")
        self.values = np.maximum(self.values.astype(np.float64), 0.0)

    @classmethod
    def from_cpds(cls, net: BayesNet, cpds: list[np.ndarray]) -> "CountModel":
        """The model whose factors are the CPD cells: ``cpds[i]`` has
        shape ``(K_i, J_i)``, so its row-major cells are variable ``i``'s
        family block (offset ``x_par * J_i + x_i``)."""
        values = np.ones(net.n_counters)
        values[: net.n_family_counters] = np.concatenate([t.reshape(-1) for t in cpds])
        return cls(net, values, lam=0.0)

    def log_factor(self, i: int | np.ndarray, xi: np.ndarray, pidx: np.ndarray) -> np.ndarray:
        """``log( A_i(x_i, x_par) / A_i(x_par) )`` with smoothing,
        vectorized over events; ``i`` is one variable id or an array of
        them, one per event."""
        fam, par = self.net.counter_ids(
            i, np.asarray(xi, dtype=np.int64), np.asarray(pidx, dtype=np.int64)
        )
        J = self.net.cards[i].astype(np.float64)
        return np.log(
            (self.values[fam] + self.lam) / (self.values[par] + self.lam * J)
        )

    def log_prob(self, X: np.ndarray) -> np.ndarray:
        """Log joint probability of each row of ``X`` (Algorithm 3)."""
        out = np.zeros(X.shape[0], dtype=np.float64)
        for i in range(self.net.n):
            pidx = self.net.parent_config_index(X, i)
            out += self.log_factor(i, X[:, i], pidx)
        return out


def mean_abs_ratio_error(logp_model: np.ndarray, logp_ref: np.ndarray) -> float:
    """Paper's testing error: average of ``|P_model(x)/P_ref(x) - 1|``
    over the test events, computed stably in log space."""
    return float(np.mean(np.abs(np.expm1(logp_model - logp_ref))))
