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
draws. Rounds (p refresh + exact re-sync, see ``counters``) advance at
batch boundaries; with the doubling batch schedule this matches the
round protocol's one-doubling lag.
"""
from __future__ import annotations

import numpy as np


def _check_range(ids: np.ndarray, size: int, what: str) -> None:
    """Raise unless every id lies in ``[0, size)``."""
    if len(ids) and (ids.min() < 0 or ids.max() >= size):
        raise ValueError(f"{what} id out of range")


class ExactCounterEngine:
    """EXACTMLE's counters: exact values, one message per increment."""

    def __init__(self, n_counters: int) -> None:
        self.counts = np.zeros(n_counters, dtype=np.int64)

    def update(self, cid: np.ndarray, sid: np.ndarray, n: np.ndarray) -> None:
        """Add ``n`` to counters ``cid`` (repeats sum); ids must be in range."""
        _check_range(cid, len(self.counts), "counter")
        np.add.at(self.counts, cid, n)

    @property
    def total_messages(self) -> int:
        return int(self.counts.sum())

    def estimates(self) -> np.ndarray:
        return self.counts.astype(np.float64)


class BatchCounterEngine:
    """All approximate counters of one algorithm, batched.

    The state is :class:`~repro.distmon.counters.SeqDistCounter`'s, one
    row per counter: ``p``, ``f``, ``r``, ``rep``, ``round_est`` and
    ``messages``. Estimates and the message total are derived from it.

    Parameters
    ----------
    eps:
        Per-counter error parameter array ``(n_counters,)`` — the output
        of :mod:`repro.core.budget` for BASELINE / UNIFORM / NONUNIFORM.
    k:
        Number of sites.
    seed:
        Protocol RNG seed (site coin flips).
    proto_c:
        Reporting-probability constant: ``p = min(1, proto_c * sqrt(k) /
        (eps * C))``. 1.0 is the textbook setting with variance bound
        ``(eps C)^2``; the experiment jobs calibrate it down to match the
        operating regime of the paper's implementation (DESIGN.md
        substitution #5), verifying the error guarantee empirically.
    """

    def __init__(
        self, eps: np.ndarray, k: int, *, seed: int, proto_c: float = 1.0
    ) -> None:
        eps = np.asarray(eps, dtype=np.float64)
        if not np.all(np.isfinite(eps) & (eps > 0)):
            raise ValueError("all counter eps must be positive and finite")
        self.eps = eps
        self.k = int(k)
        self.proto_c = float(proto_c)
        self.nc = len(eps)
        self.rng = np.random.default_rng([seed, 0xD15C])
        self.p = np.ones(self.nc, dtype=np.float64)
        self.f = np.zeros((self.nc, k), dtype=np.int64)  # true local counts
        self.r = np.zeros((self.nc, k), dtype=np.int64)  # synced/reported
        self.rep = np.zeros((self.nc, k), dtype=bool)  # reported this round
        self.round_est = np.ones(self.nc, dtype=np.float64)
        self.messages = np.zeros(self.nc, dtype=np.int64)

    @property
    def total_messages(self) -> int:
        return int(self.messages.sum())

    def update(self, cid: np.ndarray, sid: np.ndarray, n: np.ndarray) -> None:
        """Apply one micro-batch of aggregated increments.

        ``(cid, sid)`` pairs must be unique and in range within the call
        (raises ``ValueError`` otherwise: a duplicate would keep one write
        to the site state but charge every copy's messages); ``n`` is the
        number of increments the pair received in this batch.
        """
        cid = np.asarray(cid, dtype=np.int64)
        sid = np.asarray(sid, dtype=np.int64)
        n = np.asarray(n, dtype=np.int64)
        if len(cid) == 0:
            return
        self._check_pairs(cid, sid)
        p_rows = self.p[cid]
        fstart = self.f[cid, sid]
        self.f[cid, sid] = fstart + n

        # Trailing-failure geometric (0 when p == 1: every item reports).
        u = self.rng.random(len(cid))
        sat = p_rows >= 1.0
        # Capped at n ("no message"), which also maps u = 0 (G = inf) there.
        with np.errstate(divide="ignore"):
            G = np.where(
                sat,
                0,
                np.minimum(
                    np.floor(np.log(u) / np.log1p(-np.minimum(p_rows, 1.0 - 1e-16))),
                    n,
                ),
            ).astype(np.int64)
        has_msg = G < n
        L = n - G  # position of the last message (1-based), where has_msg

        M = np.zeros(len(cid), dtype=np.int64)
        hm = np.nonzero(has_msg)[0]
        if len(hm):
            M[hm] = 1 + self.rng.binomial(L[hm] - 1, p_rows[hm])
            c_h, s_h = cid[hm], sid[hm]
            self.r[c_h, s_h] = fstart[hm] + L[hm]
            self.rep[c_h, s_h] = True
        np.add.at(self.messages, cid, M)

        # Coordinator: advance rounds (sync + lower p) where the estimate
        # doubled. Scanning every counter finds the same ascending ids as
        # scanning the touched ones, because after each update every
        # estimate is below its line: an untouched counter keeps its
        # estimate, and a re-synced one's is ``exact < 2 * max(exact, 1)``.
        adv = np.flatnonzero(self._estimate() >= 2.0 * self.round_est)
        if len(adv):
            self._advance_round(adv)

    def _check_pairs(self, cid: np.ndarray, sid: np.ndarray) -> None:
        """Raise unless ids are in range and ``(cid, sid)`` pairs unique.

        O(rows) on the sorted output every aggregation path emits; other
        input falls back to a sort.
        """
        _check_range(cid, self.nc, "counter")
        _check_range(sid, self.k, "site")
        key = cid * self.k + sid
        if not np.all(key[1:] > key[:-1]):
            key = np.sort(key)
            if np.any(key[1:] == key[:-1]):
                raise ValueError("duplicate (counter, site) pairs in one update")

    def _estimate(self) -> np.ndarray:
        """``sum_s r_s + (#sites reported this round) * (1/p - 1)`` per
        counter, as in ``SeqDistCounter.estimate`` (>= 0; the integer
        sums are below 2**53, so float64 holds them exactly)."""
        return self.r.sum(axis=1) + self.rep.sum(axis=1) * (1.0 / self.p - 1.0)

    def _advance_round(self, adv: np.ndarray) -> None:
        """Exact re-sync of stale sites + reporting-probability drop."""
        fa = self.f[adv]
        self.messages[adv] += (fa != self.r[adv]).sum(axis=1)  # ids unique
        self.r[adv] = fa
        self.rep[adv] = False
        exact = fa.sum(axis=1).astype(np.float64)
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

    def exact_counts(self) -> np.ndarray:
        """Ground-truth counter values (tests only — not coordinator-visible)."""
        return self.f.sum(axis=1)
