"""Continuous distributed-monitoring substrate.

Implements the randomized distributed counter of Huang, Yi & Zhang
(PODS 2012) that the paper uses as its primitive (Lemma 4): ``k`` sites
each receive increments of a shared logical counter and a coordinator
continuously maintains an estimate with relative standard deviation
``eps`` (unbiased within a round; see ``counters``), using
``O(sqrt(k)/eps * log T)`` messages.

Two implementations with identical semantics:

* :mod:`repro.distmon.counters` — event-by-event sequential reference,
  used to validate the protocol's statistical guarantees directly;
* :mod:`repro.distmon.batch` — a vectorized engine running hundreds of
  thousands of counters at once from per-batch aggregated increment
  counts, exact-in-distribution (suffix-geometric decomposition). Its
  state is the reference's, one row per counter; estimates and message
  totals are derived from it.
"""
from repro.distmon.counters import ExactCounter, SeqDistCounter
from repro.distmon.batch import BatchCounterEngine, ExactCounterEngine

__all__ = [
    "ExactCounter",
    "SeqDistCounter",
    "BatchCounterEngine",
    "ExactCounterEngine",
]
