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


def _check_range(ids: np.ndarray, size: int, what: str) -> None:
    """Raise unless every id lies in ``[0, size)``."""
    if len(ids) and (ids.min() < 0 or ids.max() >= size):
        raise ValueError(f"{what} id out of range")


def _check_increments(n: np.ndarray) -> None:
    """Raise unless every increment count is ``>= 0``."""
    if len(n) and n.min() < 0:
        raise ValueError("negative increment count")


class ExactCounterEngine:
    """EXACTMLE's counters: exact values, one message per increment."""

    def __init__(self, n_counters: int) -> None:
        self.counts = np.zeros(n_counters, dtype=np.int64)

    def update(self, cid: np.ndarray, sid: np.ndarray, n: np.ndarray) -> None:
        """Add ``n`` to counters ``cid`` (repeats sum); ids must be in range
        and every ``n >= 0``."""
        _check_range(cid, len(self.counts), "counter")
        _check_increments(n)
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
    Only rows with ``p < 1`` draw from the protocol generator ``rng``: a
    uniform each, then a binomial each where there is a message, in row
    order. The per-site counts ``f`` and ``r`` are int32, so one
    (counter, site) pair counts at most ``SITE_COUNT_MAX`` events;
    ``update`` raises before it would pass that.

    Parameters
    ----------
    eps:
        Per-counter error parameter array ``(n_counters,)`` — the output
        of :mod:`repro.core.budget` for BASELINE / UNIFORM / NONUNIFORM.
    k:
        Number of sites (``>= 1``).
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
        self, eps: np.ndarray, k: int, *, seed: int, proto_c: float = 1.0
    ) -> None:
        eps = np.asarray(eps, dtype=np.float64)
        if not np.all(np.isfinite(eps) & (eps > 0)):
            raise ValueError("all counter eps must be positive and finite")
        if not (np.isfinite(proto_c) and proto_c > 0):
            raise ValueError("proto_c must be positive and finite")
        if k < 1:
            raise ValueError("k must be at least 1")
        self.eps = eps
        self.k = int(k)
        self.proto_c = float(proto_c)
        self.nc = len(eps)
        self.rng = np.random.default_rng([seed, 0xD15C])
        self.p = np.ones(self.nc, dtype=np.float64)
        self.f = np.zeros((self.nc, k), dtype=np.int32)  # true local counts
        self.r = np.zeros((self.nc, k), dtype=np.int32)  # synced/reported
        self.rep = np.zeros((self.nc, k), dtype=bool)  # reported this round
        self.round_est = np.ones(self.nc, dtype=np.float64)
        self.messages = np.zeros(self.nc, dtype=np.int64)

    @property
    def total_messages(self) -> int:
        return int(self.messages.sum())

    def update(self, cid: np.ndarray, sid: np.ndarray, n: np.ndarray) -> None:
        """Apply one micro-batch of aggregated increments.

        ``(cid, sid)`` pairs must be unique and in range within the call
        and every ``n >= 0`` (raises ``ValueError`` otherwise: a duplicate
        would keep one write to the site state but charge every copy's
        messages); ``n`` is the number of increments the pair received in
        this batch. No pair's count may pass ``SITE_COUNT_MAX`` (raises
        ``ValueError`` before any state changes).
        """
        # The ids keep their integer dtypes (the aggregation's are int32
        # and uint8); only the fused key is int64.
        cid, sid, n = np.asarray(cid), np.asarray(sid), np.asarray(n, dtype=np.int64)
        if len(cid) == 0:
            return
        _check_increments(n)
        key = self._check_pairs(cid, sid)
        f, r, rep = self.f.reshape(-1), self.r.reshape(-1), self.rep.reshape(-1)
        fend = f[key] + n  # int64
        if fend.max() > SITE_COUNT_MAX:
            raise ValueError("a (counter, site) count would exceed SITE_COUNT_MAX")
        f[key] = fend

        # At p == 1 every increment reports and nothing is drawn, as in
        # ``SeqDistCounter.increment``: n messages, the last one at the new
        # local count (a counter at p == 1 has ``r == f``, so a row with
        # n == 0 rewrites its own ``r``). Every row is first taken so; the
        # p < 1 rows then draw, in row order, a uniform for the
        # trailing-failure geometric G, capped at n ("no message", which
        # also maps u = 0, G = inf, there), and a binomial for the
        # messages before the last where there is one.
        np.add.at(self.messages, cid, n)
        r_new = fend
        sent = n > 0
        thin = np.flatnonzero((self.p < 1.0)[cid])
        if len(thin):
            nt, pt, kt = n[thin], self.p[cid[thin]], key[thin]
            u = self.rng.random(len(thin))
            with np.errstate(divide="ignore"):
                G = np.minimum(np.floor(np.log(u) / np.log1p(-pt)), nt)
            L = nt - G.astype(np.int64)  # position of the last message; 0: none
            M = L.copy()
            h = np.flatnonzero(L)
            if len(h):
                M[h] = self.rng.binomial(L[h] - 1, pt[h]) + 1
            np.add.at(self.messages, cid[thin], M - nt)
            # fend - nt is the local count before this batch.
            r_new[thin] = np.where(L > 0, fend[thin] - nt + L, r[kt])
            sent[thin] = L > 0
        r[key] = r_new
        rep[key] |= sent

        # Coordinator: advance rounds (sync + lower p) where the estimate
        # doubled. Scanning every counter finds the same ascending ids as
        # scanning the touched ones, because after each update every
        # estimate is below its line: an untouched counter keeps its
        # estimate, and a re-synced one's is ``exact < 2 * max(exact, 1)``.
        adv = np.flatnonzero(self._estimate() >= 2.0 * self.round_est)
        if len(adv):
            self._advance_round(adv)

    def _check_pairs(self, cid: np.ndarray, sid: np.ndarray) -> np.ndarray:
        """The fused keys ``cid * k + sid``, which index the flattened site
        state; raises unless ids are in range and the pairs unique.

        O(rows) on the sorted output every aggregation path emits; other
        input falls back to a sort.
        """
        _check_range(cid, self.nc, "counter")
        _check_range(sid, self.k, "site")
        key = np.multiply(cid, self.k, dtype=np.int64)
        key += sid
        if not np.all(key[1:] > key[:-1]):
            s = np.sort(key)
            if np.any(s[1:] == s[:-1]):
                raise ValueError("duplicate (counter, site) pairs in one update")
        return key

    def _estimate(self) -> np.ndarray:
        """``sum_s r_s + (#sites reported this round) * (1/p - 1)`` per
        counter, as in ``SeqDistCounter.estimate`` (>= 0; the integer
        sums are below 2**53, so float64 holds them exactly). The second
        term is exactly 0.0 at ``p == 1``, so it is only added where
        ``p < 1``."""
        # einsum accumulates int32 rows in int64 without the buffered cast
        # ``sum(dtype=np.int64)`` takes (MUNIN: 3.0 against 5.7 ms a call).
        est = np.einsum("ij->i", self.r, dtype=np.int64).astype(np.float64)
        thin = np.flatnonzero(self.p < 1.0)
        est[thin] += self.rep[thin].sum(axis=1) * (1.0 / self.p[thin] - 1.0)
        return est

    def _advance_round(self, adv: np.ndarray) -> None:
        """Exact re-sync of stale sites + reporting-probability drop.

        Only counters with ``p < 1`` can have stale sites: ``p`` never
        rises, so a counter at ``p == 1`` has reported every increment
        since it started and its ``r == f`` at every site.
        """
        thin = adv[self.p[adv] < 1.0]
        ft = self.f[thin]
        self.messages[thin] += (ft != self.r[thin]).sum(axis=1)  # ids unique
        self.r[thin] = ft
        self.rep[adv] = False
        exact = self.f[adv].sum(axis=1, dtype=np.int64).astype(np.float64)
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
        return self.f.sum(axis=1, dtype=np.int64)
