"""Synthetic stand-ins for the paper's benchmark networks (Table 1).

The paper evaluates on four networks from the bnlearn repository:

=========  ======  ======  ===========
dataset    nodes   edges   parameters
=========  ======  ======  ===========
ALARM          37      46          509
HEPAR II       70     123        1,453
LINK          724   1,125       14,211
MUNIN       1,041   1,397       80,592
=========  ======  ======  ===========

The ``.bif`` files are not available offline, so we generate seeded
random DAGs with exactly the same node and edge counts and cardinalities
tuned (by bisection over a "size temperature") so the free-parameter
count ``sum (J_i - 1) * K_i`` lands within a few percent of the paper's.
The learning algorithms only see ``(structure, J_i, K_i)`` and the count
skew induced by the CPDs, so this preserves the communication behaviour
(DESIGN.md substitution #1).

``NEW-ALARM`` follows the paper's recipe: keep the ALARM graph, set 6
randomly-chosen variables to cardinality 20 (Section 6.2).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bayesnet.cpd import GroundTruth
from repro.bayesnet.structure import BayesNet


@dataclass(frozen=True)
class NetSpec:
    """Target shape of a paper network plus generator knobs."""

    n_nodes: int
    n_edges: int
    target_params: int
    card_cap: int  # largest variable cardinality the generator may use
    d_max: int  # in-degree cap
    alpha: float  # Dirichlet concentration of the ground-truth CPDs


#: Table 1 targets. ``alpha`` is calibrated (once, globally) so the
#: ground-truth classifier's error rate lands at the paper's Table 2
#: value for each network — the irreducible error is a property of how
#: deterministic the repository networks' CPDs are, which our Dirichlet
#: stand-ins must match for Table 2 to be comparable.
PAPER_NETWORKS: dict[str, NetSpec] = {
    "alarm": NetSpec(37, 46, 509, card_cap=4, d_max=4, alpha=0.10),
    "hepar2": NetSpec(70, 123, 1453, card_cap=4, d_max=4, alpha=0.70),
    "link": NetSpec(724, 1125, 14211, card_cap=4, d_max=3, alpha=0.15),
    "munin": NetSpec(1041, 1397, 80592, card_cap=21, d_max=2, alpha=0.07),
}


def _random_dag(
    rng: np.random.Generator, n: int, n_edges: int, d_max: int
) -> list[list[int]]:
    """Random DAG with exactly ``n_edges`` edges; node ids are already a
    topological order (parents have smaller id)."""
    max_possible = sum(min(j, d_max) for j in range(n))
    if n_edges > max_possible:
        raise ValueError("too many edges for this node count / d_max")
    parents: list[set[int]] = [set() for _ in range(n)]
    added = 0
    while added < n_edges:
        j = int(rng.integers(1, n))
        if len(parents[j]) >= min(j, d_max):
            continue
        i = int(rng.integers(0, j))
        if i in parents[j]:
            continue
        parents[j].add(i)
        added += 1
    return [sorted(p) for p in parents]


def _parent_matrix(parents: list[list[int]]) -> np.ndarray:
    """``(n, d_max)`` parent ids, padded with ``n``: the id of an extra
    cardinality-1 slot, so every row's product is ``K_i``."""
    n = len(parents)
    P = np.full((n, max(map(len, parents), default=0)), n, dtype=np.int64)
    for j, ps in enumerate(parents):
        P[j, : len(ps)] = ps
    return P


def _params_for_cards(P: np.ndarray, cards: np.ndarray) -> int:
    """``sum (J_i - 1) * K_i`` for the parent matrix ``P`` of
    :func:`_parent_matrix`."""
    K = np.append(cards, 1)[P].prod(axis=1)
    return int(((cards - 1) * K).sum())


def _fit_cards(
    rng: np.random.Generator,
    P: np.ndarray,
    target: int,
    card_cap: int,
) -> np.ndarray:
    """Bisection on temperature ``t``: cards = clip(round(exp(t*b)), 2, cap).

    ``params(t)`` is monotone nondecreasing in ``t``, so bisection finds
    the temperature whose integer cardinalities are closest to target.
    """
    n = len(P)
    base = rng.uniform(np.log(2.0), np.log(float(card_cap)), n)

    def cards_at(t: float) -> np.ndarray:
        return np.clip(np.round(np.exp(t * base)), 2, card_cap).astype(np.int64)

    lo, hi = 0.01, 3.0
    best, best_err = cards_at(lo), abs(_params_for_cards(P, cards_at(lo)) - target)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        c = cards_at(mid)
        p = _params_for_cards(P, c)
        err = abs(p - target)
        if err < best_err:
            best, best_err = c, err
        if p < target:
            lo = mid
        else:
            hi = mid
    return best


def synth_network(
    name: str,
    n_nodes: int,
    n_edges: int,
    target_params: int,
    *,
    card_cap: int,
    d_max: int,
    seed: int = 0,
    attempts: int = 24,
) -> BayesNet:
    """Best-of-``attempts`` seeded network closest to ``target_params``."""
    best: BayesNet | None = None
    best_err = np.inf
    for a in range(attempts):
        rng = np.random.default_rng([seed, 0xBA7E5, a])
        parents = _random_dag(rng, n_nodes, n_edges, d_max)
        P = _parent_matrix(parents)
        cards = _fit_cards(rng, P, target_params, card_cap)
        err = abs(_params_for_cards(P, cards) - target_params)
        if err < best_err:
            best = BayesNet(name, parents, cards)
            best_err = err
        if best_err == 0:
            break
    assert best is not None
    return best


_NET_CACHE: dict[tuple[str, int], BayesNet] = {}
_GT_CACHE: dict[tuple[str, int], GroundTruth] = {}


def make(name: str, *, seed: int = 0) -> BayesNet:
    """The stand-in network for a paper dataset (memoized)."""
    key = (name, seed)
    if key not in _NET_CACHE:
        if name == "new-alarm":
            _NET_CACHE[key] = make_new_alarm(seed=seed)
        else:
            s = PAPER_NETWORKS[name]
            _NET_CACHE[key] = synth_network(
                name,
                s.n_nodes,
                s.n_edges,
                s.target_params,
                card_cap=s.card_cap,
                d_max=s.d_max,
                seed=seed,
            )
    return _NET_CACHE[key]


def make_new_alarm(*, seed: int = 0) -> BayesNet:
    """Paper's NEW-ALARM: ALARM graph, 6 random variables re-set to 20
    values — the heterogeneous-cardinality stress case for NONUNIFORM."""
    alarm = make("alarm", seed=seed)
    rng = np.random.default_rng([seed, 0x4E4A])
    cards = alarm.cards.copy()
    cards[rng.choice(alarm.n, size=6, replace=False)] = 20
    return BayesNet("new-alarm", [list(p) for p in alarm.parents], cards)


def ground_truth(name: str, *, seed: int = 0) -> GroundTruth:
    """Memoized ground-truth CPDs for a named network."""
    key = (name, seed)
    if key not in _GT_CACHE:
        if name == "new-alarm":
            # The paper's NEW-ALARM re-randomizes the CPDs of the six
            # widened variables over their 20-value domains, so the mass
            # is spread across the enlarged tables. ALARM's sharp,
            # classification-calibrated alpha does not carry over; this
            # network is only used for communication-cost experiments.
            alpha, min_mass = 5.0, 0.05
        else:
            # Probability floor: 0.02 of each CPD row's mass, spread evenly.
            alpha, min_mass = PAPER_NETWORKS[name].alpha, 0.02
        _GT_CACHE[key] = GroundTruth.random(
            make(name, seed=seed), seed=seed, alpha=alpha, min_mass=min_mass
        )
    return _GT_CACHE[key]


# --------------------------------------------------------- test helpers


def chain(n: int, J: int = 2) -> BayesNet:
    """X_1 -> X_2 -> ... -> X_n, all cardinality ``J``."""
    return BayesNet("chain", [[] if i == 0 else [i - 1] for i in range(n)], np.full(n, J))


def naive_bayes(n: int, J_root: int, J_leaf: int) -> BayesNet:
    """Section 5.2's model: root X_0 is the single parent of X_1..X_{n-1}."""
    cards = np.full(n, J_leaf)
    cards[0] = J_root
    return BayesNet("naive-bayes", [[] if i == 0 else [0] for i in range(n)], cards)
