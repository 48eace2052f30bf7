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
    b = the maximizer; ``model`` is a
    :class:`~repro.core.model.CountModel`);
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

    All queries are scored together: one row per (query, candidate).
    A row's factors are its slots: ``t`` is slot 0, then ``t``'s children
    in ``net.children[t]`` order. Slot ``s`` is one ``log_factor`` call
    over every row that has an ``s``-th factor, with that factor's
    variable per row, and each row adds its slots in slot order. Each
    element's float operations are those of scoring the query alone, so
    the scores are bit-identical to a per-query loop's.
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
    # Row v lists the factors whose scope holds v: its own, then its
    # children's, padded with -1.
    fac = np.full((net.n, 1 + max(map(len, net.children), default=0)), -1)
    for v, ch in enumerate(net.children):
        fac[v, : 1 + len(ch)] = [v, *ch]
    fac = fac[t]
    score = np.zeros(len(q))  # 0.0 + x is x: slot 0 adds its factor exactly
    for s in range(fac.shape[1]):
        h = np.flatnonzero(fac[:, s] >= 0)
        v, sub = fac[h, s], cand[h]
        score[h] += model.log_factor(v, sub[np.arange(len(h)), v], net.parent_index(sub, v))
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
