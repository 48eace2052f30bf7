"""Distributed-stream dataflow on Spark.

The union-of-streams is modeled as a deterministic event sequence with a
uniformly random site per event (paper Section 6.1). Spark tasks do the
site-side work, in one job per stream: each generates a chunk-aligned
slice of the stream's events and aggregates it to per-(counter, site)
increment counts, one partial per micro-batch its slice meets. The
driver merges each micro-batch's partials, with no shuffle, and runs the
coordinator protocol on them in stream order. Submodules: ``events``
(batch schedule, event frame), ``aggregate`` (site-side kernel and its
drivers), ``streaming`` (Structured Streaming wiring) and ``daemon``
(the Python workers' daemon); the package re-exports nothing.
"""
