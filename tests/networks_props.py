"""Properties of a network or its ground truth that only tests read:
Lemma 3's smallest conditional, the in-degree, each counter's
stationary increment probability, the joint log-probability read
straight from the CPD tables, and the exact counts of a set of events."""
import numpy as np

from repro.bayesnet.cpd import GroundTruth
from repro.bayesnet.structure import BayesNet


def min_conditional(gt: GroundTruth) -> float:
    """Lemma 3's ``lambda``: the smallest conditional probability."""
    return float(min(t.min() for t in gt.cpds))


def joint_log_prob(gt: GroundTruth, X: np.ndarray) -> np.ndarray:
    """Log joint probability of each row of ``X`` under Equation 1,
    summed in variable order from ``log`` of the CPD tables: a reference
    that shares no code with ``CountModel``."""
    out = np.zeros(X.shape[0], dtype=np.float64)
    for i in range(gt.net.n):
        pidx = gt.net.parent_config_index(X, i)
        out += np.log(gt.cpds[i])[pidx, X[:, i].astype(np.int64)]
    return out


def exact_counts(net: BayesNet, X: np.ndarray) -> np.ndarray:
    """Every counter's count over the events ``X``: ids of all
    ``(event, variable)`` cells at once."""
    v = np.broadcast_to(np.arange(net.n), X.shape)
    fam, par = net.counter_ids(v, X, net.parent_index(X, v))
    return np.bincount(fam.ravel(), minlength=net.n_counters) + np.bincount(
        par.ravel(), minlength=net.n_counters
    )


def max_parents(net: BayesNet) -> int:
    return max((len(p) for p in net.parents), default=0)


def exact_counter_probs(gt: GroundTruth) -> np.ndarray:
    """Stationary per-event increment probability of each counter.

    For the family counter ``(i, x_i, x_par)`` this is the marginal
    ``P[X_i = x_i, par(X_i) = x_par]``; for the parent counter it is
    ``P[par(X_i) = x_par]``. Computed by forward marginalization in
    topological order. The parent-config marginal is the product of the
    parents' marginals, which is exact for trees / forests only: use it
    on tree-structured nets.
    """
    net = gt.net
    marg: list[np.ndarray] = [None] * net.n  # type: ignore[list-item]
    out = np.zeros(net.n_counters, dtype=np.float64)
    for i in net.topo:
        i = int(i)
        pmarg = np.ones(1)
        for p in net.parents[i]:
            # order="F" matches the mixed-radix strides: the first
            # parent is the fastest-varying digit of x_par_index.
            pmarg = np.outer(pmarg, marg[p]).ravel(order="F")
        joint = pmarg[:, None] * gt.cpds[i]  # (K_i, J_i)
        marg[i] = joint.sum(axis=0)
        out[net.fam_offset[i] : net.fam_offset[i + 1]] = joint.ravel()
        out[net.par_offset[i] : net.par_offset[i + 1]] = pmarg
    return out
