"""Continuous distributed-monitoring substrate.

Implements the randomized distributed counter of Huang, Yi & Zhang
(PODS 2012) that the paper uses as its primitive (Lemma 4): ``k`` sites
each receive increments of a shared logical counter and a coordinator
continuously maintains an estimate with relative standard deviation
``eps`` (unbiased within a round; see ``counters``), using
``O(sqrt(k)/eps * log T)`` messages.

Two implementations with identical semantics (the package re-exports
nothing; import the submodule):

* :mod:`repro.distmon.counters` — event-by-event sequential reference,
  used to validate the protocol's statistical guarantees directly;
* :mod:`repro.distmon.batch` — a vectorized engine running hundreds of
  thousands of counters at once from per-batch aggregated increment
  counts, exact-in-distribution (suffix-geometric decomposition). The
  sites' true counts live once, in a
  :class:`~repro.distmon.batch.SiteLedger` shared by every engine; an
  approximate engine keeps the reference's coordinator state,
  with ``r`` and ``rep`` only in slots for its ``p < 1`` counters, and
  reads a ``p = 1`` counter's estimate and messages off the ledger.
  EXACTMLE's engine is a view of the ledger.
"""
