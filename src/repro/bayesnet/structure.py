"""Bayesian network structure: DAG, cardinalities, flat counter index.

A :class:`BayesNet` is the *structure only* — node set, parent sets and
per-variable cardinalities ``J_i``. It owns the mapping from CPD cells
to the dense global counter ids that the distributed-monitoring layer
maintains:

* family counters ``A_i(x_i, x_par)`` — one per CPD cell, tracking
  ``F_i(x_i, x_par)`` (paper Lemma 2 numerator);
* parent counters ``A_i(x_par)`` — one per parent configuration,
  tracking ``F_i(x_par)`` (denominator). Kept per-variable even when two
  variables share a parent set, exactly as Section 4.4 requires so the
  product terms stay independent.

Ids are laid out as: all family blocks (variable by variable), then all
parent blocks. Within variable ``i``'s family block the cell
``(x_i, x_par)`` has offset ``x_par_index * J_i + x_i`` where
``x_par_index`` is the mixed-radix encoding of the parent values.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def padded_parents(parents: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """``(table, slot)``: ``(n, d_max)`` parent ids, row ``i`` holding
    ``parents[i]`` padded with parent 0, and the mask of real slots."""
    lens = np.array([len(p) for p in parents], dtype=np.int64)
    slot = np.arange(lens.max(initial=0)) < lens[:, None]
    table = np.zeros(slot.shape, dtype=np.int64)
    table[slot] = [p for ps in parents for p in ps]
    return table, slot


@dataclass
class BayesNet:
    """Directed acyclic graph over categorical variables.

    Parameters
    ----------
    name:
        Human-readable dataset name (e.g. ``"alarm"``).
    parents:
        ``parents[i]`` is the ordered list of parent node ids of node
        ``i``. Order matters only for the mixed-radix parent encoding.
    cards:
        ``cards[i]`` is ``J_i``, the domain size of variable ``i``.
    """

    name: str
    parents: list[list[int]]
    cards: np.ndarray

    # Derived fields, filled in __post_init__.
    n: int = field(init=False)
    topo: np.ndarray = field(init=False)
    K: np.ndarray = field(init=False)
    fam_offset: np.ndarray = field(init=False)
    par_offset: np.ndarray = field(init=False)
    n_family_counters: int = field(init=False)
    n_counters: int = field(init=False)
    children: list[list[int]] = field(init=False)
    parent_table: np.ndarray = field(init=False)
    strides: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.cards = np.asarray(self.cards, dtype=np.int64)
        self.n = len(self.parents)
        if self.cards.shape != (self.n,):
            raise ValueError("cards length must equal number of nodes")
        if np.any(self.cards < 2):
            raise ValueError("every variable needs cardinality >= 2")
        self._check_parents()
        self.children = [[] for _ in range(self.n)]
        for j, ps in enumerate(self.parents):
            for p in ps:
                self.children[p].append(j)
        self.topo = self._topological_order()
        # Mixed-radix strides per parent slot: stride of parents[i][t] is
        # prod(cards[parents[i][:t]]) so x_par_index = sum stride*value;
        # padding slots get stride 0, which adds nothing. K_i =
        # |dom(par(X_i))| = product of parent cardinalities (1 if root).
        self.parent_table, slot = padded_parents(self.parents)
        c = np.where(slot, self.cards[self.parent_table], 1)
        self.K = c.prod(axis=1)
        self.strides = np.where(slot, np.cumprod(c, axis=1) // c, 0)
        fam_sizes = self.cards * self.K
        self.fam_offset = np.concatenate([[0], np.cumsum(fam_sizes)])
        self.n_family_counters = int(self.fam_offset[-1])
        self.par_offset = self.n_family_counters + np.concatenate(
            [[0], np.cumsum(self.K)]
        )
        self.n_counters = int(self.par_offset[-1])

    # ---------------------------------------------------------------- DAG

    def _check_parents(self) -> None:
        """Parent ids must be in range, distinct and not the node itself;
        checked before ``children`` is built, which indexes by them."""
        for j, ps in enumerate(self.parents):
            if len(set(ps)) != len(ps):
                raise ValueError("duplicate parent")
            for p in ps:
                if not (0 <= p < self.n):
                    raise ValueError(f"parent id {p} out of range")
                if p == j:
                    raise ValueError("self loop")

    def _topological_order(self) -> np.ndarray:
        """Kahn's algorithm over ``children`` (each list in ascending id
        order, so sampling's draw order is fixed); raises if the graph
        has a cycle."""
        indeg = [len(ps) for ps in self.parents]
        order = [j for j in range(self.n) if indeg[j] == 0]
        for u in order:  # grows while it is walked
            for c in self.children[u]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    order.append(c)
        if len(order) != self.n:
            raise ValueError("graph has a cycle")
        return np.array(order, dtype=np.int64)

    @property
    def n_edges(self) -> int:
        return int(sum(len(p) for p in self.parents))

    @property
    def n_params(self) -> int:
        """Free parameters, ``sum_i (J_i - 1) * K_i`` — Table 1's metric."""
        return int(np.sum((self.cards - 1) * self.K))

    # ------------------------------------------------------- counter index

    def parent_config_index(self, X: np.ndarray, i: int) -> np.ndarray:
        """Mixed-radix parent configuration index for node ``i``.

        ``X`` is an ``(m, n)`` assignment matrix; returns ``(m,)`` int64
        in ``[0, K_i)`` (all zeros for a root node).
        """
        out = np.zeros(X.shape[0], dtype=np.int64)
        # One parent column at a time: no (m, |par|) gather, exact ints.
        for p, stride in zip(self.parents[i], self.strides[i]):
            out += np.multiply(X[:, p], stride, dtype=np.int64)
        return out

    def parent_index(self, X: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Parent configuration index of variable ``v[r, ...]`` in row
        ``r`` of ``X``: ``v`` holds one variable id per element, its
        first axis runs over the rows of ``X``, and the result has its
        shape."""
        rows = np.arange(X.shape[0]).reshape(-1, *(1,) * (v.ndim - 1))
        out = np.zeros(v.shape, dtype=np.int64)
        for d in range(self.strides.shape[1]):
            out += np.multiply(X[rows, self.parent_table[v, d]], self.strides[v, d], dtype=np.int64)
        return out

    def family_cells(self, i: int, xi: np.ndarray, pidx: np.ndarray) -> np.ndarray:
        """Offsets of node ``i``'s cells ``(x_i, x_par_index)`` inside its
        family block, ``x_i`` fastest — the one place the block layout is
        computed (the DuckDB oracle SQL re-derives it independently)."""
        return pidx * self.cards[i] + xi

    def counter_ids(
        self, i: int, xi: np.ndarray, pidx: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Global ``(family, parent)`` counter ids of node ``i``'s cells
        ``(x_i, x_par_index)``; ``i`` may be an array of node ids, one
        per cell."""
        return self.fam_offset[i] + self.family_cells(i, xi, pidx), self.par_offset[i] + pidx

    def counter_owner(self) -> np.ndarray:
        """``(n_counters,)`` map from global counter id to owning variable."""
        owner = np.empty(self.n_counters, dtype=np.int64)
        for i in range(self.n):
            owner[self.fam_offset[i] : self.fam_offset[i + 1]] = i
            owner[self.par_offset[i] : self.par_offset[i + 1]] = i
        return owner
