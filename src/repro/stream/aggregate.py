"""Site-side aggregation: events -> per-(counter, site) increment counts.

Each event increments ``2n`` counters (one family + one parent counter
per variable). Per micro-batch we only need, for every (counter, site)
pair, *how many* increments it received — the batched protocol engine is
exact given those counts (see ``distmon.batch``). Three code paths share
one numpy kernel:

* :func:`aggregate_events_df` — from an explicit Spark events DataFrame;
  its output is verified row-for-row against an independent DuckDB SQL
  computation (:func:`duckdb_counts_sql`) by the oracle tests.
* :func:`aggregate_generated` — Spark partitions generate their slice of
  the stream deterministically and aggregate in place, so the raw stream
  (e.g. 50K x 1041 variables for MUNIN) never materializes.
* :func:`aggregate_local` — driver-side numpy reference, used by unit
  tests to prove the Spark paths agree with it bit-for-bit.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.bayesnet.cpd import GroundTruth
from repro.bayesnet.sampling import sample_events, sample_sites
from repro.bayesnet.structure import BayesNet


def _agg_kernel(
    net: BayesNet, X: np.ndarray, sites: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Unique fused keys ``counter_id * k + site`` and their counts."""
    m = X.shape[0]
    keys = np.empty(2 * net.n * m, dtype=np.int64)
    s64 = sites.astype(np.int64)
    for i in range(net.n):
        fam, par = net.counter_ids(i, X[:, i], net.parent_config_index(X, i))
        keys[2 * i * m : (2 * i + 1) * m] = fam * k + s64
        keys[(2 * i + 1) * m : (2 * i + 2) * m] = par * k + s64
    return np.unique(keys, return_counts=True)


def aggregate_local(
    gt: GroundTruth, lo: int, hi: int, *, k: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Driver-side reference aggregation of stream events ``[lo, hi)``."""
    X = sample_events(gt, lo, hi, seed=seed)
    sites = sample_sites(lo, hi, k=k, seed=seed)
    keys, cnts = _agg_kernel(gt.net, X, sites, k)
    return keys // k, keys % k, cnts.astype(np.int64)


def aggregate_generated(
    spark: SparkSession,
    gt: GroundTruth,
    lo: int,
    hi: int,
    *,
    k: int,
    seed: int,
    rows_per_task: int = 16384,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spark aggregation with partition-local stream generation.

    Each task generates and aggregates one contiguous slice of the
    stream (deterministic in ``(seed, slice)`` — see ``sampling``), then
    a ``groupBy(key).sum`` merges task partials. Returns numpy arrays
    ``(counter_id, site, n)`` for the coordinator.
    """
    bounds = list(range(lo, hi, rows_per_task)) + [hi]
    tasks = pd.DataFrame(
        {"lo": bounds[:-1], "hi": bounds[1:]}
    )
    net = gt.net

    def gen_agg(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            for a, b in zip(pdf["lo"], pdf["hi"]):
                X = sample_events(gt, int(a), int(b), seed=seed)
                sites = sample_sites(int(a), int(b), k=k, seed=seed)
                keys, cnts = _agg_kernel(net, X, sites, k)
                yield pd.DataFrame({"key": keys, "cnt": cnts.astype(np.int64)})

    sdf = spark.createDataFrame(tasks).repartition(len(tasks))
    out = (
        sdf.mapInPandas(gen_agg, schema="key long, cnt long")
        .groupBy("key")
        .agg(F.sum("cnt").alias("cnt"))
        .toPandas()
    )
    keys = out["key"].to_numpy(dtype=np.int64)
    cnts = out["cnt"].to_numpy(dtype=np.int64)
    order = np.argsort(keys)
    keys, cnts = keys[order], cnts[order]
    return keys // k, keys % k, cnts


def aggregate_events_df(
    spark: SparkSession, net: BayesNet, events_df: DataFrame, *, k: int
) -> DataFrame:
    """Aggregate an explicit events DataFrame (cols ``site, v0..v{n-1}``)
    to a ``(counter_id, site, n)`` DataFrame — the oracle-checkable path."""
    vcols = [f"v{i}" for i in range(net.n)]

    def agg(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            if not len(pdf):
                continue
            X = pdf[vcols].to_numpy(dtype=np.int32)
            sites = pdf["site"].to_numpy(dtype=np.int64)
            keys, cnts = _agg_kernel(net, X, sites, k)
            yield pd.DataFrame({"key": keys, "cnt": cnts.astype(np.int64)})

    return (
        events_df.mapInPandas(agg, schema="key long, cnt long")
        .groupBy("key")
        .agg(F.sum("cnt").alias("n"))
        .select(
            (F.col("key") / k).cast("long").alias("counter_id"),
            (F.col("key") % k).alias("site"),
            "n",
        )
    )


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
