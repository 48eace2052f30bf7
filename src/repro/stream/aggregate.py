"""Site-side aggregation: events -> per-(counter, site) increment counts.

Each event increments ``2n`` counters (one family + one parent counter
per variable). Per micro-batch we only need, for every (counter, site)
pair, *how many* increments it received — the batched protocol engine is
exact given those counts (see ``distmon.batch``). As in the monitoring
model, sites work locally and one coordinator combines what they send,
batch by batch in stream order, with no shuffle. The kernel sorts
nothing: each variable's family block is one ``bincount`` of
``counter_id * k + site`` into its slice of a dense ``n_counters * k``
table, its parent block is the family block summed over the variable's
own values, and the table's nonzero cells are the sorted partial;
the coordinator's merge adds the partials into one such table the same
way. Three paths, all returning numpy ``(counter_id, site, n)`` sorted
by key, each column the narrowest integer type its values allow (int32
ids; unsigned sites and counts, sized by ``k`` and the batch's largest
count):

* :func:`aggregate_generated` — one Spark job per stream
  (:class:`StreamJob`): chunk-aligned tasks generate their slice of the
  stream deterministically, cut it at the batch edges and return one
  kernel partial per piece, so the raw stream (e.g. 50K x 1041 variables
  for MUNIN) never materializes and the driver merges each batch when
  the coordinator asks for it.
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
    id range, so the family block is one ``bincount`` into its own slice
    of a dense ``n_counters * k`` table; nothing is sorted. The parent
    block needs no pass over the events: ``F_i(x_par) = sum_{x_i}
    F_i(x_i, x_par)`` at every site, and family ids run ``x_i`` fastest
    within each ``x_par``, so it is the family block summed over ``x_i``
    (exact integer sums). The table is int32, as a cell counts at most
    the ``m`` events; the counts are returned as int64.
    """
    m = X.shape[0]
    if m > np.iinfo(np.int32).max:
        raise ValueError(f"{m} events do not fit the int32 count table")
    if m and not (
        0 <= sites.min() and sites.max() < k
        and 0 <= X.min() and np.all(X.max(axis=0) < net.cards)
    ):
        raise ValueError("an event value or site lies outside its domain")
    table = np.empty(net.n_counters * k, dtype=np.int32)
    s64 = sites.astype(np.int64)
    for i in range(net.n):
        cell = net.family_cells(i, X[:, i], net.parent_config_index(X, i))
        cell *= k
        cell += s64
        K, J = int(net.K[i]), int(net.cards[i])
        lo, plo = net.fam_offset[i] * k, net.par_offset[i] * k
        fam = table[lo : lo + K * J * k]
        fam[:] = np.bincount(cell, minlength=len(fam))
        np.sum(fam.reshape(K, J, k), axis=1, out=table[plo : plo + K * k].reshape(K, k))
    keys = np.flatnonzero(table)
    return keys, table[keys].astype(np.int64)


def _split(keys: np.ndarray, cnts: np.ndarray, k: int) -> Counts:
    """Sorted fused keys and their counts -> ``(counter_id, site, n)``.

    The triple is as narrow as its values allow: ``counter_id`` int32
    (raises if a key's id would not fit), ``site`` the smallest unsigned
    type that holds ``k - 1`` and ``n`` the smallest unsigned type that
    holds the batch's largest count; the consumers convert ``n`` to
    int64 where they add it.
    """
    if len(keys) and keys[-1] // k > np.iinfo(np.int32).max:
        raise ValueError("a counter id does not fit the int32 triple")
    return (
        (keys // k).astype(np.int32),
        (keys % k).astype(np.min_scalar_type(k - 1)),
        cnts.astype(np.min_scalar_type(cnts.max(initial=0))),
    )


def _merge(parts: list[tuple[np.ndarray, np.ndarray]], size: int, k: int) -> Counts:
    """The coordinator's reduce: every partial ``(keys, cnts)`` is added
    into one dense ``size``-cell table (keys may repeat within and across
    partials), whose nonzero cells are the sorted sum."""
    table = np.zeros(size, dtype=np.int64)
    for keys, cnts in parts:
        # int64 values keep ``np.add.at`` on its fast path.
        np.add.at(table, keys, cnts.astype(np.int64, copy=False))
    keys = np.flatnonzero(table)
    return _split(keys, table[keys], k)


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
    keys, cnts = _agg_kernel(gt.net, X, sites, k)
    del X, sites  # the events are freed before the split allocates
    return _split(keys, cnts, k)


class StreamJob:
    """One Spark job that does the site-side work of a whole batch schedule.

    ``ranges`` are the schedule's batches, which tile one range in stream
    order. The job runs when the first batch is asked for: the range is
    cut at ``CHUNK`` boundaries into at most ``defaultParallelism`` tasks;
    each generates its slice once (deterministic in ``(seed, slice)`` —
    see ``sampling``), cuts it at the batch edges and returns one
    ``(batch index, keys, cnts)`` kernel partial per piece, as int32:
    keys are checked below ``2**31`` and a piece's counts are at most
    its length. The driver keeps the partials by batch and releases each
    batch's as it merges them, so each batch can be taken once.
    """

    def __init__(
        self, spark: SparkSession, gt: GroundTruth, ranges: list[tuple[int, int]],
        *, k: int, seed: int,
    ) -> None:
        if any(a[1] != b[0] for a, b in zip(ranges, ranges[1:])):
            raise ValueError(f"batches {ranges} do not tile one range in order")
        if gt.net.n_counters * k >= 2**31:
            raise ValueError(
                f"{gt.net.n_counters} counters x {k} sites do not fit the int32 partials"
            )
        self.spark, self.gt, self.k, self.seed = spark, gt, k, seed
        self.ranges = list(ranges)
        self._parts: dict[int, list[tuple[np.ndarray, np.ndarray]]] | None = None

    def _run(self) -> None:
        gt, k, seed, ranges = self.gt, self.k, self.seed, self.ranges

        def site_task(part: Iterator[tuple[int, int]]):
            for a, b in part:
                X = sample_events(gt, a, b, seed=seed)
                sites = sample_sites(a, b, k=k, seed=seed)
                for j, (lo, hi) in enumerate(ranges):
                    s, e = max(lo, a) - a, min(hi, b) - a
                    if s < e:
                        keys, cnts = _agg_kernel(gt.net, X[s:e], sites[s:e], k)
                        yield j, keys.astype(np.int32), cnts.astype(np.int32)

        self._parts = {j: [] for j in range(len(ranges))}
        sc = self.spark.sparkContext
        bounds = _task_bounds(ranges[0][0], ranges[-1][1], sc.defaultParallelism)
        if bounds:
            for j, keys, cnts in (
                sc.parallelize(bounds, len(bounds)).mapPartitions(site_task).collect()
            ):
                self._parts[j].append((keys, cnts))

    def take(self, gt: GroundTruth, lo: int, hi: int, *, k: int, seed: int) -> Counts:
        """Batch ``[lo, hi)``'s merged counts; its partials are released."""
        if gt is not self.gt or (k, seed) != (self.k, self.seed):
            raise ValueError("the job was built for another network, k or seed")
        if (lo, hi) not in self.ranges:
            raise ValueError(f"batch [{lo}, {hi}) is not in the job's schedule")
        if self._parts is None:
            self._run()
        parts = self._parts.pop(self.ranges.index((lo, hi)), None)
        if parts is None:
            raise ValueError(f"batch [{lo}, {hi}) was already taken")
        return _merge(parts, gt.net.n_counters * k, k)


def aggregate_generated(
    job: StreamJob, gt: GroundTruth, lo: int, hi: int, *, k: int, seed: int
) -> Counts:
    """Spark aggregation of stream events ``[lo, hi)`` with
    partition-local stream generation: batch ``[lo, hi)`` of ``job``."""
    return job.take(gt, lo, hi, k=k, seed=seed)


def aggregate_events_df(net: BayesNet, events_df: DataFrame, *, k: int) -> Counts:
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
            yield pd.DataFrame({"key": keys, "cnt": cnts})

    pdf = events_df.mapInPandas(agg, schema="key long, cnt long").toPandas()
    part = (pdf["key"].to_numpy(np.int64), pdf["cnt"].to_numpy(np.int64))
    return _merge([part], net.n_counters * k, k)


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
