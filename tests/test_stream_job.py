"""One Spark job per stream: ``StreamJob`` and ``aggregate_generated``.

A ``train_many`` call on Spark runs the site-side work of every
micro-batch in one job; each batch the coordinator takes equals the
driver reference ``aggregate_local`` bit for bit, however the tasks and
the batch edges cut the stream. Misuse of a job raises.
"""
import uuid
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from repro.bayesnet import networks
from repro.bayesnet.cpd import GroundTruth
from repro.bayesnet.sampling import CHUNK
from repro.core.learner import train_many
from repro.stream import aggregate
from repro.stream.aggregate import StreamJob, aggregate_generated, aggregate_local
from repro.stream.events import batch_ranges


@pytest.fixture(scope="module")
def gt():
    return GroundTruth.random(networks.chain(4, J=3), seed=5)


@contextmanager
def spark_jobs(sc):
    """Collects the ids of the Spark jobs this thread starts inside."""
    group = f"stream-job-{uuid.uuid4().hex}"
    ids: list[int] = []
    sc.setJobGroup(group, "counted")
    try:
        yield ids
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        ids += sc.statusTracker().getJobIdsForGroup(group)


def assert_same(a, b, k: int) -> None:
    want = [np.dtype(np.int32), np.min_scalar_type(k - 1), np.min_scalar_type(b[2].max(initial=0))]
    assert [x.dtype for x in a] == [y.dtype for y in b] == want
    for x, y in zip(a, b, strict=True):
        np.testing.assert_array_equal(x, y)


def test_train_many_runs_one_spark_job(spark, gt):
    assert len(batch_ranges(20_000, first=512)) >= 5
    with spark_jobs(spark.sparkContext) as ids:
        train_many(spark, gt, ["exact"], m=20_000, k=3, eps=0.1, seed=1, first_batch=512)
    assert len(ids) == 1


def test_empty_stream_starts_no_job(spark, gt):
    with spark_jobs(spark.sparkContext) as ids:
        res = train_many(spark, gt, ["exact"], m=0, k=3, eps=0.1, seed=1)
    assert ids == []
    assert res["exact"].history == [(0, 0)]


SCHEDULES = {
    # Batch edges cut inside chunks and inside tasks.
    "edges-inside-tasks": (3 * CHUNK + 500, 700),
    "m-below-first-batch": (300, 1024),
    "m-on-chunk-edge": (2 * CHUNK, 1000),
}


@pytest.mark.parametrize("slots", [1, 2, 4, 64])
@pytest.mark.parametrize("schedule", list(SCHEDULES))
def test_every_batch_equals_local(spark, gt, schedule, slots):
    m, first = SCHEDULES[schedule]
    ranges = batch_ranges(m, first=first)
    real = aggregate._task_bounds
    bounds = real(0, m, slots)
    if schedule == "edges-inside-tasks":
        inside = [lo for lo, _ in ranges[1:] if any(a < lo < b for a, b in bounds)]
        assert inside and any(lo % CHUNK for lo in inside)
    job = StreamJob(spark, gt, ranges, k=5, seed=11)
    with (
        mock.patch.object(aggregate, "_task_bounds", lambda lo, hi, _: real(lo, hi, slots)),
        spark_jobs(spark.sparkContext) as ids,
    ):
        got = [aggregate_generated(job, gt, lo, hi, k=5, seed=11) for lo, hi in ranges]
    assert len(ids) == 1
    for (lo, hi), batch in zip(ranges, got, strict=True):
        assert_same(batch, aggregate_local(gt, lo, hi, k=5, seed=11), 5)


class TestInputChecks:
    def test_batch_outside_schedule(self, spark, gt):
        job = StreamJob(spark, gt, batch_ranges(5000, first=512), k=3, seed=1)
        with pytest.raises(ValueError, match="not in the job's schedule"):
            aggregate_generated(job, gt, 0, 100, k=3, seed=1)

    @pytest.mark.parametrize("change", ["gt", "k", "seed"])
    def test_job_built_for_other_stream(self, spark, gt, change):
        job = StreamJob(spark, gt, batch_ranges(5000, first=512), k=3, seed=1)
        args = dict(gt=gt, k=3, seed=1)
        args[change] = {"gt": GroundTruth.random(gt.net, seed=6), "k": 4, "seed": 2}[change]
        with pytest.raises(ValueError, match="another network, k or seed"):
            aggregate_generated(job, args["gt"], 0, 512, k=args["k"], seed=args["seed"])

    def test_batch_taken_twice(self, spark, gt):
        job = StreamJob(spark, gt, batch_ranges(5000, first=512), k=3, seed=1)
        aggregate_generated(job, gt, 512, 1536, k=3, seed=1)
        with pytest.raises(ValueError, match="already taken"):
            aggregate_generated(job, gt, 512, 1536, k=3, seed=1)

    def test_batches_must_tile_one_range(self, spark, gt):
        with pytest.raises(ValueError, match="do not tile"):
            StreamJob(spark, gt, [(0, 100), (200, 300)], k=3, seed=1)

    def test_int32_partials_range(self, spark, gt):
        n = gt.net.n_counters
        StreamJob(spark, gt, [(0, 10)], k=(2**31 - 1) // n, seed=1)
        with pytest.raises(ValueError, match="int32"):
            StreamJob(spark, gt, [(0, 10)], k=-(-(2**31) // n), seed=1)
