"""Distributed-stream dataflow on Spark.

The union-of-streams is modeled as a deterministic event sequence with a
uniformly random site per event (paper Section 6.1). Spark tasks do the
site-side work, in one job per stream: each generates a chunk-aligned
slice of the stream's events and aggregates it to per-(counter, site)
increment counts, one partial per micro-batch its slice meets. The
driver merges each micro-batch's partials, with no shuffle, and runs the
coordinator protocol on them in stream order.
"""
from repro.stream.events import batch_ranges, events_pandas
from repro.stream.aggregate import (
    aggregate_events_df,
    aggregate_generated,
    aggregate_local,
    duckdb_counts_sql,
)

__all__ = [
    "batch_ranges",
    "events_pandas",
    "aggregate_events_df",
    "aggregate_generated",
    "aggregate_local",
    "duckdb_counts_sql",
]
