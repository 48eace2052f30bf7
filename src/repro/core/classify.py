"""Bayesian classification (Section 5.3, Tables 2-3 protocol).

Paper's test protocol: "generate the values for all the variables
(using the underlying model), then randomly select one variable to
predict, given the values of the remaining variables" — i.e. hide one
uniformly chosen variable per test event and predict it by maximizing
the (approximate) joint probability.

Only the factors whose scope contains the hidden variable ``t`` vary
with the candidate value: ``t``'s own CPD factor and the CPD factors of
``t``'s children (its Markov blanket's local factors), so the argmax is
computed over just those — verified against brute-force enumeration of
the full joint on tiny networks by the tests.
"""
from __future__ import annotations

import numpy as np

from repro.bayesnet.cpd import GroundTruth
from repro.bayesnet.sampling import sample_events
from repro.bayesnet.structure import BayesNet


def make_tests(
    gt: GroundTruth, n_tests: int, *, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Test events (sampled from the ground truth, disjoint RNG stream
    from training) and the hidden variable index per event."""
    # Offset far into the stream index space so test events never reuse
    # a training chunk's RNG stream.
    base = 1 << 40
    X = sample_events(gt, base, base + n_tests, seed=seed)
    rng = np.random.default_rng([seed, 0x7E57])
    targets = rng.integers(0, gt.net.n, n_tests)
    return X, targets


def predict(
    model, net: BayesNet, X_test: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """The predicted value of every query's hidden variable.

    Each query ``q`` hides ``t = targets[q]`` and predicts
    ``argmax_y P[X_t = y, x_rest]`` under ``model`` (Definition 4 with
    b = the maximizer; ``model`` exposes ``log_factor(i, xi, pidx)``);
    ties go to the first maximum, as in ``np.argmax``.
    """
    # Padding after each query's candidates never wins np.argmax's first
    # maximum, so the padded grid's argmax is each query's own.
    return _scores(model, net, X_test, targets).argmax(axis=1)


def _scores(
    model, net: BayesNet, X_test: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """``(queries, max J)`` grid: row ``q`` holds the log score of each
    candidate value of ``targets[q]``, then ``-inf`` padding.

    All queries are scored together: one row per (query, candidate),
    and one ``log_factor`` call per factor variable ``v`` over every row
    whose Markov-blanket factors include ``v``. A row's factors are its
    slots: ``t`` is slot 0, then ``t``'s children in ``net.children[t]``
    order, and they are added in slot order. Each element's float
    operations are those of scoring the query alone, so the scores are
    bit-identical to a per-query loop's.
    """
    X_test = np.asarray(X_test)
    targets = np.asarray(targets, dtype=np.int64)
    nq = len(targets)
    J = net.cards[targets]
    q = np.repeat(np.arange(nq), J)  # the query of each row
    y = np.arange(len(q)) - np.repeat(np.cumsum(J) - J, J)  # its candidate
    t = targets[q]
    cand = np.ascontiguousarray(X_test)[q]
    cand[np.arange(len(q)), t] = y
    # Every row's slots as (row, slot) entries, sorted by factor variable
    # (stable): the entries of v are [edges[v], edges[v + 1]).
    factors = [[v, *net.children[v]] for v in range(net.n)]
    n_fac = np.array([len(f) for f in factors], dtype=np.int64)
    n_slots = n_fac[t]
    e_row = np.repeat(np.arange(len(q)), n_slots)
    e_slot = np.arange(len(e_row)) - np.repeat(np.cumsum(n_slots) - n_slots, n_slots)
    e_var = np.concatenate(factors)[(np.cumsum(n_fac) - n_fac)[t][e_row] + e_slot]
    order = np.argsort(e_var, kind="stable")
    e_row, e_slot = e_row[order], e_slot[order]
    edges = np.searchsorted(e_var[order], np.arange(net.n + 1))
    slot_vals = np.empty((int(n_slots.max(initial=1)), len(q)))
    for v in np.flatnonzero(np.diff(edges)):
        r = e_row[edges[v] : edges[v + 1]]
        sub = cand[r]
        slot_vals[e_slot[edges[v] : edges[v + 1]], r] = model.log_factor(
            v, sub[:, v], net.parent_config_index(sub, v)
        )
    score = slot_vals[0]
    for s in range(1, len(slot_vals)):
        h = np.flatnonzero(n_slots > s)
        score[h] = score[h] + slot_vals[s, h]
    grid = np.full((nq, int(J.max(initial=1))), -np.inf)
    grid[q, y] = score
    return grid


def error_rate(
    model, net: BayesNet, X_test: np.ndarray, targets: np.ndarray
) -> float:
    """Fraction of test events whose hidden variable is mispredicted."""
    targets = np.asarray(targets, dtype=np.int64)
    truth = np.asarray(X_test)[np.arange(len(targets)), targets]
    return np.count_nonzero(predict(model, net, X_test, targets) != truth) / len(targets)
