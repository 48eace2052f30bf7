"""Genuine Structured Streaming wiring of the learner.

The rest of the codebase drives the learner with an explicit micro-batch
loop (semantically ``foreachBatch``). This module shows the same
coordinator update running under a real Structured Streaming query: the
event stream is staged on the driver as one parquet file per micro-batch,
written with pandas/pyarrow (no Spark job), read with ``readStream``
(``maxFilesPerTrigger=1`` so Spark's micro-batches align with the
protocol's), and inside ``foreachBatch`` every micro-batch is
aggregated by :func:`~repro.stream.aggregate.aggregate_events_df` and fed
to the same :class:`~repro.core.learner.Learner`.

Used by ``jobs/streaming_demo.py`` and the streaming integration test,
which asserts every algorithm's messages, history and model equal the
batch-loop path's.
"""
from __future__ import annotations

import os
import time

from pyspark.sql import SparkSession

from repro.bayesnet.cpd import GroundTruth
from repro.core.learner import Learner, TrainResult
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
    stream_dir: str,
    *,
    k: int,
    eps: float,
    algos: list[str],
    seed: int,
    proto_c: float = 1.0,
) -> dict[str, TrainResult]:
    """Consume the staged stream with a Structured Streaming query.

    Every micro-batch feeds the same :class:`~repro.core.learner.Learner`
    as ``train_many``, so with the stream staged at ``seed`` the results
    equal ``train_many(None, gt, algos, seed=seed, ...)``'s. Returns once
    the query drains (``availableNow`` trigger). Each invocation uses a
    fresh checkpoint so re-running over the same staged stream replays it
    from the start.
    """
    import tempfile

    learner = Learner(gt.net, algos, k=k, eps=eps, seed=seed, proto_c=proto_c)
    schema = spark.read.parquet(os.path.join(stream_dir, "b00000.parquet")).schema

    def on_batch(batch_df, batch_id: int) -> None:
        learner.update(*aggregate_events_df(spark, gt.net, batch_df, k=k))

    q = (
        spark.readStream.schema(schema)
        .option("maxFilesPerTrigger", 1)
        .parquet(os.path.join(stream_dir, "b*.parquet"))
        .writeStream.foreachBatch(on_batch)
        .trigger(availableNow=True)
        .option(
            "checkpointLocation",
            tempfile.mkdtemp(prefix="repro-stream-ckpt-"),
        )
        .start()
    )
    q.awaitTermination()
    return learner.models()
