"""Vectorized batched engine for many distributed counters at once.

Runs the protocol of :mod:`repro.distmon.counters` for every counter of
a Bayesian network simultaneously, consuming per-micro-batch aggregated
increments ``(counter_id, site, n)`` produced by the Spark layer.

Exactness argument (DESIGN.md section 2.2): within one batch a
(counter, site) pair receives ``n`` increments under a fixed reporting
probability ``p``. The messages form an i.i.d. Bernoulli(p) process over
the ``n`` positions, so

* the number of trailing failures after the last message is
  ``G ~ Geometric(p)`` (``P[G = g] = p (1-p)^g``), independent of the
  prefix; ``G >= n`` (probability ``(1-p)^n``) means no message at all;
* given the last message at position ``L = n - G``, the number of
  messages among the first ``L-1`` positions is ``Binomial(L-1, p)``.

Sampling ``(G, then Binomial)`` therefore reproduces the *exact* joint
distribution of (message count, last reported value) without per-item
draws. At ``p == 1`` the outcome is certain (``n`` messages, the last at
position ``n``), so, as in ``SeqDistCounter.increment``, such a row draws
nothing from the protocol generator. Rounds (p refresh + exact re-sync,
see ``counters``) advance at batch boundaries; with the doubling batch
schedule this matches the round protocol's one-doubling lag.
"""
from __future__ import annotations

import numpy as np

#: The most events one (counter, site) pair may count: ``f`` and ``r`` are
#: int32 (every sum over sites is taken in int64).
SITE_COUNT_MAX = int(np.iinfo(np.int32).max)


class SiteLedger:
    """The sites' true local counts ``f`` (int32, ``n_counters x k``) and
    each counter's exact total ``totals`` (int64), kept once for every
    engine: ``add`` checks and applies a batch, each engine ``take``s it."""

    def __init__(self, n_counters: int, k: int) -> None:
        if k < 1:
            raise ValueError("k must be at least 1")
        self.k = int(k)
        self.f = np.zeros((n_counters, k), dtype=np.int32)
        self.totals = np.zeros(n_counters, dtype=np.int64)
        #: Batches added so far.
        self.batches = 0

    def add(self, cid: np.ndarray, sid: np.ndarray, n: np.ndarray) -> None:
        """Add ``n`` events to each (counter ``cid``, site ``sid``) pair.

        Raises ``ValueError``, before any state changes, unless every id
        is in range, the pairs are unique (O(rows) on the sorted output
        every aggregation path emits, else a sort), every ``n >= 0`` and
        no pair's count passes ``SITE_COUNT_MAX``.
        """
        # The ids keep their integer dtypes (the aggregation's are int32
        # and uint8); only the fused key is int64.
        cid, sid, n = np.asarray(cid), np.asarray(sid), np.asarray(n, dtype=np.int64)
        if len(cid):
            for ids, size, what in ((cid, len(self.totals), "counter"), (sid, self.k, "site")):
                if ids.min() < 0 or ids.max() >= size:
                    raise ValueError(f"{what} id out of range")
            if n.min() < 0:
                raise ValueError("negative increment count")
            key = np.multiply(cid, self.k, dtype=np.int64)
            key += sid
            if not np.all(key[1:] > key[:-1]):
                s = np.sort(key)
                if np.any(s[1:] == s[:-1]):
                    raise ValueError("duplicate (counter, site) pairs in one update")
            f = self.f.reshape(-1)
            fend = f[key] + n  # int64
            if fend.max() > SITE_COUNT_MAX:
                raise ValueError("a (counter, site) count would exceed SITE_COUNT_MAX")
            f[key] = fend
            np.add.at(self.totals, cid, n)
        self.batches += 1

    def take(self, batches: int) -> int:
        """The batches added, for an engine that has taken ``batches``;
        raises ``ValueError`` unless exactly one was added since."""
        if self.batches != batches + 1:
            raise ValueError("an engine update must follow exactly one ledger add")
        return self.batches


class ExactCounterEngine:
    """EXACTMLE's counters: the ledger's totals, one message per increment."""

    def __init__(self, ledger: SiteLedger) -> None:
        self.ledger = ledger
        self.batches = 0

    def update(self, cid: np.ndarray, sid: np.ndarray, n: np.ndarray) -> None:
        """Take the micro-batch ``(cid, sid, n)`` the ledger has just added."""
        self.batches = self.ledger.take(self.batches)

    @property
    def total_messages(self) -> int:
        return int(self.ledger.totals.sum())

    def estimates(self) -> np.ndarray:
        return self.ledger.totals.astype(np.float64)


class BatchCounterEngine:
    """All approximate counters of one algorithm, batched.

    The state is :class:`~repro.distmon.counters.SeqDistCounter`'s
    coordinator side, one row per counter: ``p``, ``r`` (int32), ``rep``,
    ``round_est`` and ``messages``; ``f`` is the ledger's. ``p`` never
    rises, so a ``p == 1`` counter has ``r == f`` and its estimate is the
    ledger's total: ``r`` and ``rep`` are used only where ``p < 1``, and
    a round advance, which may lower ``p``, sets ``r = f``. Only rows
    with ``p < 1`` draw from the protocol generator ``rng``: a uniform
    each, then a binomial each where there is a message, in row order.

    Parameters
    ----------
    eps:
        Per-counter error parameter array ``(n_counters,)`` — the output
        of :mod:`repro.core.budget` for BASELINE / UNIFORM / NONUNIFORM.
        The engine runs the ledger's first ``len(eps)`` counters.
    ledger:
        The sites' counts; each ``update`` follows one ``ledger.add``.
    seed:
        Protocol RNG seed (site coin flips).
    proto_c:
        Reporting-probability constant: ``p = min(1, proto_c * sqrt(k) /
        (eps * C))``. 1.0 is the textbook setting with variance bound
        ``(eps C)^2``; the experiment jobs calibrate it down to match the
        operating regime of the paper's implementation (DESIGN.md
        substitution #5), verifying the error guarantee empirically.
        Must be positive and finite.
    """

    def __init__(
        self, eps: np.ndarray, ledger: SiteLedger, *, seed: int, proto_c: float = 1.0
    ) -> None:
        eps = np.asarray(eps, dtype=np.float64)
        if not np.all(np.isfinite(eps) & (eps > 0)):
            raise ValueError("all counter eps must be positive and finite")
        if not (np.isfinite(proto_c) and proto_c > 0):
            raise ValueError("proto_c must be positive and finite")
        if len(eps) > len(ledger.totals):
            raise ValueError("more counters than the ledger holds")
        self.eps = eps
        self.ledger = ledger
        self.k = ledger.k
        self.proto_c = float(proto_c)
        self.nc = len(eps)
        self.batches = 0
        self.rng = np.random.default_rng([seed, 0xD15C])
        self.p = np.ones(self.nc, dtype=np.float64)
        self.r = np.zeros((self.nc, self.k), dtype=np.int32)  # synced/reported
        self.rep = np.zeros((self.nc, self.k), dtype=bool)  # reported this round
        self.round_est = np.ones(self.nc, dtype=np.float64)
        self.messages = np.zeros(self.nc, dtype=np.int64)

    @property
    def total_messages(self) -> int:
        return int(self.messages.sum())

    def update(self, cid: np.ndarray, sid: np.ndarray, n: np.ndarray) -> None:
        """Apply the micro-batch ``(cid, sid, n)`` the ledger has just checked
        and added; raises ``ValueError`` unless exactly one batch was added
        since this engine's last update."""
        self.batches = self.ledger.take(self.batches)
        cid, sid, n = np.asarray(cid), np.asarray(sid), np.asarray(n, dtype=np.int64)
        if len(cid) == 0:
            return

        # At p == 1 every increment reports and nothing is drawn, as in
        # ``SeqDistCounter.increment``: n messages, and ``r == f`` holds
        # without a write. Every row is first charged so; the p < 1 rows
        # then draw, in row order, a uniform for the trailing-failure
        # geometric G, capped at n ("no message", which also maps u = 0,
        # G = inf, there), and a binomial for the messages before the
        # last where there is one.
        np.add.at(self.messages, cid, n)
        thin = np.flatnonzero((self.p < 1.0)[cid])
        if len(thin):
            ct, nt = cid[thin], n[thin]
            pt = self.p[ct]
            u = self.rng.random(len(thin))
            with np.errstate(divide="ignore"):
                G = np.minimum(np.floor(np.log(u) / np.log1p(-pt)), nt)
            L = nt - G.astype(np.int64)  # position of the last message; 0: none
            M = L.copy()
            h = np.flatnonzero(L)
            if len(h):
                M[h] = self.rng.binomial(L[h] - 1, pt[h]) + 1
            np.add.at(self.messages, ct, M - nt)
            # The ledger's f already holds this batch, so f - n is the
            # local count before it.
            key = np.multiply(ct[h], self.k, dtype=np.int64)
            key += sid[thin[h]]
            self.r.reshape(-1)[key] = self.ledger.f.reshape(-1)[key] - nt[h] + L[h]
            self.rep.reshape(-1)[key] = True

        # Coordinator: advance rounds (sync + lower p) where the estimate
        # doubled. Scanning every counter finds the same ascending ids as
        # scanning the touched ones, because after each update every
        # estimate is below its line: an untouched counter keeps its
        # estimate, and a re-synced one's is ``exact < 2 * max(exact, 1)``.
        adv = np.flatnonzero(self._estimate() >= 2.0 * self.round_est)
        if len(adv):
            self._advance_round(adv)

    def _estimate(self) -> np.ndarray:
        """The ledger's exact total where ``p == 1``, and ``sum_s r_s +
        (#sites reported this round) * (1/p - 1)`` where ``p < 1``, as in
        ``SeqDistCounter.estimate`` (>= 0; the integer sums are below
        2**53, so float64 holds them exactly)."""
        est = self.ledger.totals[: self.nc].astype(np.float64)
        thin = np.flatnonzero(self.p < 1.0)
        rsum = self.r[thin].sum(axis=1, dtype=np.int64)
        est[thin] = rsum + self.rep[thin].sum(axis=1) * (1.0 / self.p[thin] - 1.0)
        return est

    def _advance_round(self, adv: np.ndarray) -> None:
        """Exact re-sync of stale sites + reporting-probability drop.

        Only counters already at ``p < 1`` can have stale sites, so only
        they send sync messages; every advanced counter's ``r`` becomes
        ``f``, since its ``p`` may drop below 1 here.
        """
        f = self.ledger.f
        thin = adv[self.p[adv] < 1.0]
        self.messages[thin] += (f[thin] != self.r[thin]).sum(axis=1)  # ids unique
        self.r[adv] = f[adv]
        self.rep[adv] = False
        exact = self.ledger.totals[adv].astype(np.float64)
        self.p[adv] = np.clip(
            np.minimum(
                self.p[adv],
                self.proto_c * np.sqrt(self.k) / (self.eps[adv] * np.maximum(exact, 1.0)),
            ),
            1e-12,
            1.0,
        )
        self.round_est[adv] = np.maximum(exact, 1.0)

    def estimates(self) -> np.ndarray:
        """Current coordinator-side estimates of all counters."""
        return self._estimate()
