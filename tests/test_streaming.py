"""Structured Streaming integration: the foreachBatch wiring produces
the same learned state as the explicit micro-batch loop, and a
streaming run deletes every file it writes."""
import tempfile

import numpy as np
import pytest
from pyspark.errors import StreamingQueryException

from repro.bayesnet import networks
from repro.bayesnet.cpd import GroundTruth
from repro.core.learner import ALGORITHMS, train_many
from repro.stream import streaming
from repro.stream.streaming import run_streaming_learner, stage_stream


@pytest.fixture(scope="module")
def staged(tmp_path_factory):
    gt = GroundTruth.random(networks.chain(5, J=3), seed=41)
    d = str(tmp_path_factory.mktemp("stream"))
    n_batches = stage_stream(gt, d, m=3000, k=4, seed=42, first_batch=512)
    return gt, d, n_batches


def assert_same_runs(out, ref, algos, where=""):
    for a in algos:
        assert out[a].total_messages == ref[a].total_messages, (where, a)
        assert out[a].history == ref[a].history, (where, a)
        np.testing.assert_array_equal(
            out[a].model.values, ref[a].model.values, err_msg=f"{where} {a}"
        )


@pytest.mark.parametrize("m", [0, -5])
def test_stage_stream_rejects_empty_stream(tmp_path, m):
    """With no events there is no first batch to read the schema from:
    refused before anything is written, without Spark."""
    gt = GroundTruth.random(networks.chain(3, J=2), seed=1)
    d = tmp_path / "stream"
    with pytest.raises(ValueError, match="at least one event"):
        stage_stream(gt, str(d), m=m, k=2, seed=0)
    assert not d.exists()


class TestStructuredStreaming:
    def test_stages_doubling_batches(self, staged):
        import glob

        gt, d, n_batches = staged
        files = glob.glob(f"{d}/b*.parquet")
        assert len(files) == n_batches
        assert n_batches >= 3

    def test_file_mtimes_follow_batch_index(self, staged):
        """Spark's file source replays files in modification-time order,
        so staging must give later batches strictly later mtimes however
        fast the writes run."""
        import os

        _, d, n_batches = staged
        mtimes = [os.stat(f"{d}/b{b:05d}.parquet").st_mtime for b in range(n_batches)]
        assert all(a < b for a, b in zip(mtimes, mtimes[1:])), mtimes

    def test_exact_counts_match_batch_loop(self, spark, staged):
        """Same arguments as the staged stream: EXACTMLE's counters equal
        the driver-side batch loop's bit-for-bit."""
        gt, _, _ = staged
        kw = dict(m=3000, k=4, eps=0.1, seed=42, first_batch=512)
        out = run_streaming_learner(spark, gt, ["exact"], **kw)
        ref = train_many(None, gt, ["exact"], **kw)
        assert_same_runs(out, ref, ["exact"])

    def test_approx_engine_runs_under_streaming(self, spark, staged):
        """An approximate engine sends messages under streaming and
        learns exactly what the batch loop learns."""
        gt, _, _ = staged
        kw = dict(m=3000, k=4, eps=0.2, seed=42, proto_c=0.1, first_batch=512)
        out = run_streaming_learner(spark, gt, ["uniform"], **kw)
        assert out["uniform"].total_messages > 0
        ref = train_many(None, gt, ["uniform"], **kw)
        assert_same_runs(out, ref, ["uniform"])

    def test_every_algorithm_matches_batch_loop(self, spark):
        """Streaming, the Spark batch loop and the driver-side loop feed
        the same Learner the same aggregates in the same order: messages,
        history and model values agree for every registered algorithm."""
        gt = GroundTruth.random(networks.naive_bayes(5, J_root=3, J_leaf=2), seed=45)
        algos = list(ALGORITHMS)
        kw = dict(m=6000, k=4, eps=0.1, seed=46, proto_c=0.1, first_batch=512)
        ref = train_many(None, gt, algos, **kw)
        for driver in (run_streaming_learner, train_many):
            assert_same_runs(driver(spark, gt, algos, **kw), ref, algos, driver.__name__)


@pytest.fixture()
def temp_root(tmp_path, monkeypatch):
    """An empty directory in place of the process's temporary root."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    return tmp_path


def run_chain(spark, m):
    gt = GroundTruth.random(networks.chain(3, J=2), seed=1)
    return run_streaming_learner(
        spark, gt, ["exact", "uniform"], m=m, k=2, eps=0.1, seed=0, first_batch=256
    )


@pytest.mark.parametrize("m", [0, -5])
def test_run_rejects_empty_stream_before_spark(temp_root, m):
    """Refused before the session is touched: any use of it would raise
    ``AttributeError`` on ``None`` instead."""
    with pytest.raises(ValueError, match="at least one event"):
        run_chain(None, m)
    assert list(temp_root.iterdir()) == []


class TestTemporaryFiles:
    def test_deleted_on_return(self, spark, temp_root):
        """The staged batches and the query checkpoint are gone once the
        call returns."""
        out = run_chain(spark, 600)
        assert out["exact"].history[-1] == (600, 2 * 600 * 3)
        assert list(temp_root.iterdir()) == []

    def test_deleted_when_a_batch_raises(self, spark, temp_root, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("batch failed")

        monkeypatch.setattr(streaming, "aggregate_events_df", fail)
        with pytest.raises(StreamingQueryException, match="batch failed"):
            run_chain(spark, 600)
        assert list(temp_root.iterdir()) == []
