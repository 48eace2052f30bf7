"""Sequential reference implementation of the distributed counter.

Protocol (after Huang, Yi & Zhang, PODS 2012 — the paper's Lemma 4):

* Site ``s`` keeps its exact local count ``f_s``. On each local
  increment it sends the new ``f_s`` to the coordinator with probability
  ``p`` (the current round's reporting probability).
* The coordinator keeps, per site, the last synced/reported value
  ``r_s`` and which sites have reported *in the current round*. Its
  estimate is ``sum_s r_s + (#sites reported this round) * (1/p - 1)``.
  Within a round this is **exactly unbiased**: for a site with ``c``
  in-round increments, ``E[(last reported value - base) + 1/p - 1 if
  reported else 0] = sum_{l=1..c} (l + 1/p - 1) p (1-p)^{c-l} = c``
  (the no-report mass exactly cancels the correction's inflation).
* Rounds: when the estimate doubles, the coordinator re-syncs — every
  site with a stale value sends its exact count — and the reporting
  probability is lowered to ``p = min(1, proto_c * sqrt(k)/(eps * C))``.
  The sync removes any cross-round staleness, and within a round
  ``Var <= k (1-p)/p^2 <= (eps C / proto_c)^2``. Across rounds the
  estimator is *not* unbiased at a fixed count: a round ends when the
  estimate doubles, a time that depends on the estimate itself. As
  measured, 240 events at eps 0.1, k 4, proto_c 1 (the sites of
  ``TestAgainstSequentialCounter``) give a mean estimate of 238.57 over
  1,500 seeds (238.31 for the batched engine), 5-6 standard errors
  below 240.

Message cost: ``O(sqrt(k)/eps)`` reports per round plus at most ``k``
sync messages per round, over ``O(log T)`` rounds — the Lemma 4 bound
``O(sqrt(k)/eps * log T)`` for ``k <= 1/eps^2``. Message accounting
matches the paper's Section 6.1: a message is one update to one
counter's value (site -> coordinator); sync updates are counted,
coordinator broadcasts are not (the paper's EXACTMLE count of exactly
``2 m n`` shows its accounting is site->coordinator updates only).
"""
from __future__ import annotations

import numpy as np


class ExactCounter:
    """Strawman: every increment is forwarded — ``C`` messages for ``C``."""

    def __init__(self) -> None:
        self.count = 0
        self.messages = 0

    def increment(self, site: int = 0) -> None:
        self.count += 1
        self.messages += 1

    def estimate(self) -> float:
        return float(self.count)


class SeqDistCounter:
    """Event-by-event DISTCOUNTER(eps, .) over ``k`` sites."""

    def __init__(
        self, eps: float, k: int, *, rng: np.random.Generator, proto_c: float = 1.0
    ) -> None:
        if not (0 < eps):
            raise ValueError("eps must be positive")
        self.eps = float(eps)
        self.k = int(k)
        self.rng = rng
        self.proto_c = float(proto_c)
        self.p = 1.0
        self.f = np.zeros(k, dtype=np.int64)  # true local counts
        self.r = np.zeros(k, dtype=np.int64)  # last synced/reported value
        self.rep = np.zeros(k, dtype=bool)  # reported in current round?
        self.messages = 0
        self._round_est = 1.0

    @property
    def count(self) -> int:
        """Exact total (for tests; the coordinator does not see this)."""
        return int(self.f.sum())

    def estimate(self) -> float:
        return float(self.r.sum() + self.rep.sum() * (1.0 / self.p - 1.0))

    def increment(self, site: int) -> None:
        self.f[site] += 1
        if self.p >= 1.0 or self.rng.random() < self.p:
            self.r[site] = self.f[site]
            self.rep[site] = True
            self.messages += 1
            self._maybe_advance_round()

    def _maybe_advance_round(self) -> None:
        if self.estimate() < 2.0 * self._round_est:
            return
        # Re-sync: stale sites send their exact counts (counted), the
        # reporting probability drops for the new round.
        self.messages += int((self.f != self.r).sum())
        self.r[:] = self.f
        self.rep[:] = False
        exact = float(self.f.sum())
        self.p = max(
            min(self.p, self.proto_c * np.sqrt(self.k) / (self.eps * exact), 1.0),
            1e-12,
        )
        self._round_est = max(exact, 1.0)
