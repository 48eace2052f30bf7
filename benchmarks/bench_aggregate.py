"""Benchmark: the Spark site-side aggregation at SF~0.1 scale.

50K events (the paper's table scale) of the ALARM stream, generated and
aggregated inside Spark partitions — the dataflow the whole
reproduction rides on.
"""
import numpy as np

from repro.bayesnet import networks
from repro.stream.aggregate import aggregate_generated, aggregate_local


def test_bench_spark_aggregation_alarm_50k(benchmark, spark):
    gt = networks.ground_truth("alarm")

    def run():
        return aggregate_generated(spark, gt, 0, 50_000, k=30, seed=5)

    cid, sid, n = benchmark.pedantic(run, rounds=1, iterations=1)
    assert n.sum() == 2 * gt.net.n * 50_000
    ref = aggregate_local(gt, 0, 50_000, k=30, seed=5)
    for got, want in zip((cid, sid, n), ref, strict=True):
        np.testing.assert_array_equal(got, want)


def test_bench_spark_aggregation_munin_10k(benchmark, spark):
    gt = networks.ground_truth("munin")

    def run():
        return aggregate_generated(spark, gt, 0, 10_000, k=30, seed=5)

    cid, sid, n = benchmark.pedantic(run, rounds=1, iterations=1)
    assert n.sum() == 2 * gt.net.n * 10_000
