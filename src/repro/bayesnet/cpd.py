"""Ground-truth conditional probability distributions.

The paper generates training data "based on the ground truth for the
parameters" of real repository networks. Offline, we draw ground-truth
CPDs from a seeded Dirichlet with a probability floor: every conditional
probability is at least ``min_mass / J_i``, which (a) mirrors the
moderately-determinstic CPDs of the repository networks and (b)
guarantees Lemma 3's ``lambda`` lower bound so MLE convergence applies.

The Dirichlet concentration ``alpha`` tunes how deterministic the
network is: small ``alpha`` concentrates mass on few values, lowering
the irreducible classification error (paper Table 2 regime).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bayesnet.structure import BayesNet


@dataclass
class GroundTruth:
    """A BayesNet plus true CPD tables.

    ``cpds[i]`` has shape ``(K_i, J_i)``; row ``x_par_index`` is the
    conditional distribution ``P[X_i | par(X_i) = x_par]``.
    """

    net: BayesNet
    cpds: list[np.ndarray]

    @classmethod
    def random(
        cls,
        net: BayesNet,
        *,
        seed: int,
        alpha: float = 0.8,
        min_mass: float = 0.05,
    ) -> "GroundTruth":
        """Seeded Dirichlet CPDs with floor ``min_mass / J_i`` per cell."""
        rng = np.random.default_rng([seed, 0xC9D])
        cpds = []
        for i in range(net.n):
            J, K = int(net.cards[i]), int(net.K[i])
            t = rng.dirichlet(np.full(J, alpha), size=K)
            t = (1.0 - min_mass) * t + min_mass / J
            cpds.append(t / t.sum(axis=1, keepdims=True))
        return cls(net, cpds)

    def __post_init__(self) -> None:
        for i, t in enumerate(self.cpds):
            if t.shape != (int(self.net.K[i]), int(self.net.cards[i])):
                raise ValueError(f"cpd {i} has shape {t.shape}")
        # Cached log tables for fast scoring.
        self._log_cpds = [np.log(t) for t in self.cpds]
        #: Sampling's inverse-CDF tables, shape ``(J_i - 1, K_i)``:
        #: ``cum_cpds[i][x, x_par]`` is ``P[X_i <= x | x_par]``.
        self.cum_cpds = [
            np.ascontiguousarray(t.cumsum(axis=1)[:, :-1].T) for t in self.cpds
        ]

    # ------------------------------------------------------------ queries

    def log_prob(self, X: np.ndarray) -> np.ndarray:
        """Log joint probability of each row of ``X`` under Equation 1."""
        out = np.zeros(X.shape[0], dtype=np.float64)
        for i in range(self.net.n):
            pidx = self.net.parent_config_index(X, i)
            out += self._log_cpds[i][pidx, X[:, i].astype(np.int64)]
        return out

    def log_factor(self, i: int, xi: np.ndarray, pidx: np.ndarray) -> np.ndarray:
        """``log P[X_i = xi | par = pidx]`` vectorized over events."""
        return self._log_cpds[i][
            np.asarray(pidx, dtype=np.int64), np.asarray(xi, dtype=np.int64)
        ]

    def min_conditional(self) -> float:
        """Lemma 3's ``lambda``: the smallest conditional probability."""
        return float(min(t.min() for t in self.cpds))

    def exact_counter_probs(self) -> np.ndarray:
        """Stationary per-event increment probability of each counter.

        For the family counter ``(i, x_i, x_par)`` this is the marginal
        ``P[X_i = x_i, par(X_i) = x_par]``; for the parent counter it is
        ``P[par(X_i) = x_par]``. Computed by forward marginalization in
        topological order (exact for this use: we only need per-node
        joint-with-parents marginals). Used by tests to check that the
        exact Spark-aggregated counts converge to these frequencies.
        """
        net = self.net
        # marg[i] : (J_i,) marginal of X_i; pmarg[i] : (K_i,) marginal of
        # parent configuration. Parent configs of a node may be dependent
        # across parents; we approximate the parent-config marginal by the
        # product of parent marginals, which is exact for trees / forests
        # (used in tests only on tree-structured nets).
        marg: list[np.ndarray] = [None] * net.n  # type: ignore[list-item]
        out = np.zeros(net.n_counters, dtype=np.float64)
        for i in net.topo:
            i = int(i)
            ps = net.parents[i]
            if ps:
                pm = np.ones(1)
                for p in ps:
                    # order="F" matches the mixed-radix strides: the first
                    # parent is the fastest-varying digit of x_par_index.
                    pm = np.outer(pm, marg[p]).ravel(order="F")
                pmarg = pm
            else:
                pmarg = np.ones(1)
            joint = pmarg[:, None] * self.cpds[i]  # (K_i, J_i)
            marg[i] = joint.sum(axis=0)
            out[net.fam_offset[i] : net.fam_offset[i + 1]] = joint.ravel()
            out[net.par_offset[i] : net.par_offset[i + 1]] = pmarg
        return out
