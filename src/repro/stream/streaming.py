"""Genuine Structured Streaming wiring of the learner.

The rest of the codebase drives the learner with an explicit micro-batch
loop (semantically ``foreachBatch``). :func:`run_streaming_learner` takes
``train_many``'s arguments and runs the same coordinator update under a
real Structured Streaming query: the event stream is staged on the driver
as one parquet file per micro-batch, written with pandas/pyarrow (no
Spark job), read with ``readStream`` (``maxFilesPerTrigger=1`` so Spark's
micro-batches align with the protocol's), and inside ``foreachBatch``
every micro-batch is aggregated by
:func:`~repro.stream.aggregate.aggregate_events_df` and fed to the same
:class:`~repro.core.learner.Learner`. Used by ``jobs/streaming_demo.py``.
"""
from __future__ import annotations

import os
import tempfile
import time

from pyspark.sql import SparkSession

from repro.bayesnet.cpd import GroundTruth
from repro.core.learner import Learner, Spec, TrainResult
from repro.stream.aggregate import aggregate_events_df
from repro.stream.events import batch_ranges, events_pandas


def stage_stream(
    gt: GroundTruth, out_dir: str, *, m: int, k: int, seed: int, first_batch: int = 1024,
) -> int:
    """Write the event stream as one parquet file per micro-batch.

    File names are zero-padded by batch index and batch ``b``'s
    modification time is ``t0 + b`` seconds: Spark's file source takes
    new files in modification-time order, so both orders equal stream
    order. Returns the number of batches staged. The streaming query
    reads its schema from the first batch, so the stream needs at least
    one event.
    """
    if m < 1:
        raise ValueError(f"the stream needs at least one event, got m={m}")
    ranges = batch_ranges(m, first=first_batch)
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.time()
    for b, (lo, hi) in enumerate(ranges):
        path = os.path.join(out_dir, f"b{b:05d}.parquet")
        events_pandas(gt, lo, hi, k=k, seed=seed).to_parquet(path, index=False)
        os.utime(path, (t0 + b, t0 + b))
    return len(ranges)


def run_streaming_learner(
    spark: SparkSession,
    gt: GroundTruth,
    algos: list[str],
    *,
    m: int,
    k: int,
    eps: float,
    seed: int,
    proto_c: float = 1.0,
    first_batch: int = 1024,
) -> dict[str, TrainResult]:
    """``train_many(None, gt, algos, ...)``'s results, learned by a
    Structured Streaming query. The stream is staged in a temporary
    directory that also holds the query checkpoint (outside the
    ``b*.parquet`` glob the query reads), deleted on return and on error.
    """
    learner = Learner(gt.net, Spec.of(algos, eps=eps, seed=seed, proto_c=proto_c), k=k)

    def on_batch(batch_df, batch_id: int) -> None:
        learner.update(*aggregate_events_df(gt.net, batch_df, k=k))

    with tempfile.TemporaryDirectory(prefix="repro-stream-") as d:
        stage_stream(gt, d, m=m, k=k, seed=seed, first_batch=first_batch)
        schema = spark.read.parquet(os.path.join(d, "b00000.parquet")).schema
        q = (
            spark.readStream.schema(schema)
            .option("maxFilesPerTrigger", 1)
            .parquet(os.path.join(d, "b*.parquet"))
            .writeStream.foreachBatch(on_batch)
            .trigger(availableNow=True)
            .option("checkpointLocation", os.path.join(d, "checkpoint"))
            .start()
        )
        try:
            q.awaitTermination()  # drains the staged files (availableNow)
        finally:
            q.stop()  # a no-op unless interrupted: nothing writes to d after
    return {s.algo: r for s, r in learner.models().items()}
