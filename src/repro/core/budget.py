"""Error-budget allocation across the network's counters.

Every algorithm maintains two distributed counters per CPD cell family:
``A_i(x_i, x_par)`` (family) and ``A_i(x_par)`` (parent). They differ
only in the per-counter error parameter (Algorithm 1's ``epsfnA`` /
``epsfnB``):

* BASELINE (Sec 4.3):   ``epsfnA(i) = epsfnB(i) = eps / (3n)`` —
  worst-case union bound via Fact 1.
* UNIFORM (Sec 4.4):    ``eps / (16 sqrt(n))`` — variance-of-product
  analysis (Lemmas 7-9) brings the ``n`` dependence down to ``sqrt(n)``.
* NONUNIFORM (Sec 4.5): the Lagrange-optimal split of the variance
  budget ``sum nu_i^2 = eps^2/256`` that minimizes total message cost
  ``sum J_i K_i / nu_i`` (Eq 5):

  .. math::
     \\nu_i = (J_i K_i)^{1/3} \\epsilon / (16 \\alpha),\\quad
     \\alpha = (\\sum_i (J_i K_i)^{2/3})^{1/2}        \\tag{7}

     \\mu_i = K_i^{1/3} \\epsilon / (16 \\beta),\\quad
     \\beta  = (\\sum_i K_i^{2/3})^{1/2}              \\tag{8}

* NAIVE-BAYES (Sec 5.2, Eq 9): NONUNIFORM's family allocation with
  ``K_i = J_1``, plus a *single shared* parent counter ``A(x_1)`` at
  error ``eps/(3n)`` instead of ``n-1`` independent copies.
"""
from __future__ import annotations

import numpy as np

from repro.bayesnet.structure import BayesNet


def _check_eps(eps: float) -> None:
    """Raise unless ``eps`` lies in ``(0, 1)`` (NaN does not)."""
    if not (0 < eps < 1):
        raise ValueError("eps must be in (0, 1)")


def _per_counter(net: BayesNet, eps_a: np.ndarray, eps_b: np.ndarray) -> np.ndarray:
    """Expand per-variable ``(eps_a, eps_b)`` to the flat
    ``(n_counters,)`` array the batch engine consumes: family blocks
    then parent blocks."""
    fam_sizes = (net.cards * net.K).astype(np.int64)
    return np.concatenate([np.repeat(eps_a, fam_sizes), np.repeat(eps_b, net.K)])


def per_variable_eps(net: BayesNet, algo: str, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """``(epsfnA, epsfnB)`` arrays of length ``n`` for a given algorithm."""
    _check_eps(eps)
    n = net.n
    J = net.cards.astype(np.float64)
    K = net.K.astype(np.float64)
    if algo == "baseline":
        v = np.full(n, eps / (3.0 * n))
        return v, v.copy()
    if algo == "uniform":
        v = np.full(n, eps / (16.0 * np.sqrt(n)))
        return v, v.copy()
    if algo == "nonuniform":
        alpha = np.sqrt(np.sum((J * K) ** (2.0 / 3.0)))
        beta = np.sqrt(np.sum(K ** (2.0 / 3.0)))
        nu = (J * K) ** (1.0 / 3.0) * eps / (16.0 * alpha)
        mu = K ** (1.0 / 3.0) * eps / (16.0 * beta)
        return nu, mu
    raise ValueError(f"unknown algorithm {algo!r} (exact has no eps)")


def counter_eps(net: BayesNet, algo: str, eps: float) -> np.ndarray:
    """Per-counter eps of BASELINE / UNIFORM / NONUNIFORM."""
    return _per_counter(net, *per_variable_eps(net, algo, eps))


def naive_bayes_eps(net: BayesNet, eps: float) -> np.ndarray:
    """Eq (9) allocation for a Naive-Bayes network (root = node 0).

    Family counters of leaves get ``nu_i = (eps/16) J_i^{1/3} /
    (sum_{i>=1} J_i^{2/3})^{1/2}``; every parent counter runs at the
    shared-counter error ``eps/(3n)``. The root's own (parentless)
    family/parent counters also use ``eps/(3n)``. The learner maintains
    one *physical* shared counter per root value: the ``"nb-shared"``
    entry of ``learner.ALGORITHMS``.
    """
    if any(p != [0] for p in net.parents[1:]) or net.parents[0]:
        raise ValueError("naive_bayes_eps requires root-0 naive-Bayes structure")
    if net.n < 2:
        raise ValueError("naive_bayes_eps requires at least one leaf")
    _check_eps(eps)
    n = net.n
    J = net.cards.astype(np.float64)
    denom = np.sqrt(np.sum(J[1:] ** (2.0 / 3.0)))
    eps_a = np.full(n, eps / (3.0 * n))
    eps_a[1:] = (eps / 16.0) * J[1:] ** (1.0 / 3.0) / denom
    return _per_counter(net, eps_a, np.full(n, eps / (3.0 * n)))


def predicted_message_bound(net: BayesNet, algo: str, eps: float, k: int, m: int) -> float:
    """The theory's communication bound (up to constants) — used by tests
    to check measured message counts have the predicted *ordering*.

    BASELINE: Lemma 6, UNIFORM: Theorem 1, NONUNIFORM: Theorem 2 with
    ``Gamma = (sum (J_i K_i)^{2/3})^{3/2} + (sum K_i^{2/3})^{3/2}``.
    """
    J = net.cards.astype(np.float64)
    K = net.K.astype(np.float64)
    sk, lm = np.sqrt(k), np.log(max(m, 2))
    if algo == "exact":
        return 2.0 * m * net.n
    if algo == "baseline":
        return float(3 * net.n * np.sum(J * K + K) / eps * sk * lm)
    if algo == "uniform":
        return float(16 * np.sqrt(net.n) * np.sum(J * K + K) / eps * sk * lm)
    if algo == "nonuniform":
        gamma = np.sum((J * K) ** (2 / 3)) ** 1.5 + np.sum(K ** (2 / 3)) ** 1.5
        return float(16 * gamma / eps * sk * lm)
    raise ValueError(algo)
