"""Site-side aggregation: events -> per-(counter, site) increment counts.

Each event increments ``2n`` counters (one family + one parent counter
per variable). Per micro-batch we only need, for every (counter, site)
pair, *how many* increments it received — the batched protocol engine is
exact given those counts (see ``distmon.batch``). As in the monitoring
model, sites work locally and one coordinator combines what they send:
each site-side slice runs one numpy kernel and the driver sums the
partials in one reduce, with no shuffle. The kernel sorts nothing: each
variable's family block and parent block is one ``bincount`` of
``counter_id * k + site`` into its slice of a dense ``n_counters * k``
table, whose nonzero cells are the sorted partial. Three paths, all
returning numpy ``(counter_id, site, n)`` sorted by key:

* :func:`aggregate_generated` — chunk-aligned Spark tasks generate their
  slice of the stream deterministically and aggregate it in place, so the
  raw stream (e.g. 50K x 1041 variables for MUNIN) never materializes.
* :func:`aggregate_events_df` — from an explicit Spark events DataFrame
  (oracle tests, Structured Streaming); verified row-for-row against an
  independent DuckDB SQL computation (:func:`duckdb_counts_sql`).
* :func:`aggregate_local` — driver-side numpy reference, used by unit
  tests to prove the Spark paths agree with it bit-for-bit.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.bayesnet.cpd import GroundTruth
from repro.bayesnet.sampling import chunk_edges, sample_events, sample_sites
from repro.bayesnet.structure import BayesNet


Counts = tuple[np.ndarray, np.ndarray, np.ndarray]


def _agg_kernel(
    net: BayesNet, X: np.ndarray, sites: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted nonzero fused keys ``counter_id * k + site`` and their counts.

    Variable ``i``'s family ids and parent ids each fill one contiguous
    id range, so each block is one ``bincount`` into its own slice of a
    dense ``n_counters * k`` table; nothing is sorted.
    """
    m = X.shape[0]
    if m and not (
        0 <= sites.min() and sites.max() < k
        and 0 <= X.min() and np.all(X.max(axis=0) < net.cards)
    ):
        raise ValueError("an event value or site lies outside its domain")
    table = np.empty(net.n_counters * k, dtype=np.int64)
    s64 = sites.astype(np.int64)
    for i in range(net.n):
        fam, par = net.counter_ids(i, X[:, i], net.parent_config_index(X, i))
        for ids, lo, hi in (
            (fam, net.fam_offset[i], net.fam_offset[i + 1]),
            (par, net.par_offset[i], net.par_offset[i + 1]),
        ):
            table[lo * k : hi * k] = np.bincount(
                (ids - lo) * k + s64, minlength=(hi - lo) * k
            )
    keys = np.flatnonzero(table)
    return keys, table[keys]


def _split(keys: np.ndarray, cnts: np.ndarray, k: int) -> Counts:
    """Sorted fused keys and their counts -> ``(counter_id, site, n)``."""
    return keys // k, keys % k, cnts.astype(np.int64)


def _merge(parts: list[tuple[np.ndarray, np.ndarray]], k: int) -> Counts:
    """The coordinator's reduce: sum the partial ``(keys, cnts)`` per key."""
    empty = np.empty(0, dtype=np.int64)
    keys = np.concatenate([empty, *(p[0] for p in parts)])
    cnts = np.concatenate([empty, *(p[1] for p in parts)])
    keys, inv = np.unique(keys, return_inverse=True)
    # float64 weights sum integer counts exactly below 2**53.
    return _split(keys, np.bincount(inv, weights=cnts, minlength=len(keys)), k)


def _task_bounds(lo: int, hi: int, slots: int) -> list[tuple[int, int]]:
    """Cut ``[lo, hi)`` at ``CHUNK`` boundaries into at most ``slots``
    slices of whole chunks, as even as the cut allows, so no two tasks
    draw the same chunk's random streams."""
    if hi <= lo:
        return []
    edges = chunk_edges(lo, hi)
    chunks = len(edges) - 1
    n = min(slots, chunks)
    cuts = [edges[j * chunks // n] for j in range(n + 1)]
    return list(zip(cuts[:-1], cuts[1:]))


def aggregate_local(gt: GroundTruth, lo: int, hi: int, *, k: int, seed: int) -> Counts:
    """Driver-side reference aggregation of stream events ``[lo, hi)``."""
    X = sample_events(gt, lo, hi, seed=seed)
    sites = sample_sites(lo, hi, k=k, seed=seed)
    return _split(*_agg_kernel(gt.net, X, sites, k), k)


def aggregate_generated(
    spark: SparkSession, gt: GroundTruth, lo: int, hi: int, *, k: int, seed: int
) -> Counts:
    """Spark aggregation with partition-local stream generation.

    ``[lo, hi)`` is cut into at most ``defaultParallelism`` tasks; each
    generates and aggregates its slice of the stream (deterministic in
    ``(seed, slice)`` — see ``sampling``) and returns its kernel partial
    to the driver, which merges them.
    """
    sc = spark.sparkContext
    bounds = _task_bounds(lo, hi, sc.defaultParallelism)

    def site_task(part: Iterator[tuple[int, int]]):
        for a, b in part:
            X = sample_events(gt, a, b, seed=seed)
            yield _agg_kernel(gt.net, X, sample_sites(a, b, k=k, seed=seed), k)

    parts = sc.parallelize(bounds, len(bounds) or 1).mapPartitions(site_task).collect()
    return _merge(parts, k)


def aggregate_events_df(
    spark: SparkSession, net: BayesNet, events_df: DataFrame, *, k: int
) -> Counts:
    """Aggregate an explicit events DataFrame (cols ``site, v0..v{n-1}``):
    each Arrow batch's kernel partial is collected and merged on the driver."""
    vcols = [f"v{i}" for i in range(net.n)]

    def agg(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            if not len(pdf):
                continue
            X = pdf[vcols].to_numpy(dtype=np.int32)
            sites = pdf["site"].to_numpy(dtype=np.int64)
            keys, cnts = _agg_kernel(net, X, sites, k)
            yield pd.DataFrame({"key": keys, "cnt": cnts.astype(np.int64)})

    pdf = events_df.mapInPandas(agg, schema="key long, cnt long").toPandas()
    return _merge([(pdf["key"].to_numpy(np.int64), pdf["cnt"].to_numpy(np.int64))], k)


def duckdb_counts_sql(net: BayesNet) -> str:
    """Independent DuckDB SQL computing the same (counter_id, site, n)
    counts from the wide events table — one UNION ALL branch per
    counter kind per variable, built from the network's index arithmetic
    so the oracle exercises the id mapping end to end."""
    branches = []
    for i in range(net.n):
        ps = net.parents[i]
        stride = np.concatenate([[1], np.cumprod(net.cards[ps][:-1])]) if ps else []
        pidx = " + ".join(f"{int(s)} * v{p}" for s, p in zip(stride, ps)) or "0"
        fam = f"{int(net.fam_offset[i])} + ({pidx}) * {int(net.cards[i])} + v{i}"
        par = f"{int(net.par_offset[i])} + ({pidx})"
        branches.append(f"SELECT {fam} AS counter_id, site FROM events")
        branches.append(f"SELECT {par} AS counter_id, site FROM events")
    union = "\nUNION ALL\n".join(branches)
    return (
        f"SELECT counter_id, site, COUNT(*) AS n FROM (\n{union}\n) "
        "GROUP BY counter_id, site"
    )
