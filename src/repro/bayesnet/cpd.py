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
    conditional distribution ``P[X_i | par(X_i) = x_par]``. Queries
    score it as ``CountModel.from_cpds(net, cpds)``.
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
        #: Sampling's inverse-CDF tables, shape ``(J_i - 1, K_i)``:
        #: ``cum_cpds[i][x, x_par]`` is ``P[X_i <= x | x_par]``.
        self.cum_cpds = [
            np.ascontiguousarray(t.cumsum(axis=1)[:, :-1].T) for t in self.cpds
        ]

