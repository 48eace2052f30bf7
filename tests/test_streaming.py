"""Structured Streaming integration: the foreachBatch wiring produces
the same learned state as the explicit micro-batch loop."""
import numpy as np
import pytest

from repro.bayesnet import networks
from repro.bayesnet.cpd import GroundTruth
from repro.core.learner import ALGORITHMS, train_many
from repro.stream.streaming import run_streaming_learner, stage_stream


@pytest.fixture(scope="module")
def staged(tmp_path_factory):
    gt = GroundTruth.random(networks.chain(5, J=3), seed=41)
    d = str(tmp_path_factory.mktemp("stream"))
    n_batches = stage_stream(gt, d, m=3000, k=4, seed=42, first_batch=512)
    return gt, d, n_batches


@pytest.fixture(scope="module")
def staged_naive_bayes(tmp_path_factory):
    gt = GroundTruth.random(networks.naive_bayes(5, J_root=3, J_leaf=2), seed=45)
    d = str(tmp_path_factory.mktemp("stream-nb"))
    stage_stream(gt, d, m=6000, k=4, seed=46, first_batch=512)
    return gt, d


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
        gt, d, _ = staged
        out = run_streaming_learner(
            spark, gt, d, k=4, eps=0.1, algos=["exact"], seed=43
        )
        ref = train_many(None, gt, ["exact"], m=3000, k=4, eps=0.1, seed=42)
        np.testing.assert_array_equal(
            out["exact"].model.values, ref["exact"].model.values
        )
        assert out["exact"].total_messages == ref["exact"].total_messages

    def test_approx_engine_runs_under_streaming(self, spark, staged):
        gt, d, _ = staged
        out = run_streaming_learner(
            spark, gt, d, k=4, eps=0.2, algos=["uniform"], seed=44, proto_c=0.1
        )
        model = out["uniform"].model
        assert out["uniform"].total_messages > 0
        exact = train_many(None, gt, ["exact"], m=3000, k=4, eps=0.2, seed=42)
        rel = np.abs(model.values - exact["exact"].model.values)
        big = exact["exact"].model.values >= 500
        if big.any():
            assert (
                rel[big] / exact["exact"].model.values[big]
            ).max() < 0.5

    def test_every_algorithm_matches_batch_loop(self, spark, staged_naive_bayes):
        """Streaming and the batch loop feed the same Learner: messages,
        history and model values agree for every registered algorithm."""
        gt, d = staged_naive_bayes
        algos = list(ALGORITHMS)
        kw = dict(k=4, eps=0.1, seed=46, proto_c=0.1)
        out = run_streaming_learner(spark, gt, d, algos=algos, **kw)
        ref = train_many(None, gt, algos, m=6000, first_batch=512, **kw)
        for a in algos:
            assert out[a].total_messages == ref[a].total_messages, a
            assert out[a].history == ref[a].history, a
            np.testing.assert_array_equal(out[a].model.values, ref[a].model.values)
