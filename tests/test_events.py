"""Tests for the micro-batch schedule and event-frame helpers."""
import numpy as np
import pytest

from repro.bayesnet import networks
from repro.bayesnet.cpd import GroundTruth
from repro.stream.events import batch_ranges, events_pandas


class TestBatchRanges:
    def test_covers_stream_exactly(self):
        r = batch_ranges(10_000, first=1000)
        assert r[0] == (0, 1000)
        assert r[-1][1] == 10_000
        for (a, b), (c, d) in zip(r, r[1:]):
            assert b == c

    def test_doubling(self):
        sizes = [hi - lo for lo, hi in batch_ranges(100_000, first=1000)]
        for a, b in zip(sizes[:-2], sizes[1:-1]):
            assert b == 2 * a

    def test_small_stream_single_batch(self):
        assert batch_ranges(10, first=1000) == [(0, 10)]

    def test_empty_stream(self):
        assert batch_ranges(0) == []

    @pytest.mark.parametrize("first", [0, -5])
    def test_rejects_empty_first_batch(self, first):
        """A first batch of no events never doubles: the loop would not end."""
        with pytest.raises(ValueError):
            batch_ranges(10, first=first)

    @pytest.mark.parametrize("m", [1, 7, 1024, 12345])
    def test_total_events(self, m):
        r = batch_ranges(m, first=64)
        assert sum(hi - lo for lo, hi in r) == m


class TestEventsPandas:
    @pytest.fixture(scope="class")
    def gt(self):
        return GroundTruth.random(networks.chain(3, J=2), seed=1)

    def test_schema(self, gt):
        pdf = events_pandas(gt, 0, 100, k=4, seed=2)
        assert list(pdf.columns) == ["event_id", "site", "v0", "v1", "v2"]
        assert len(pdf) == 100

    def test_event_ids_absolute(self, gt):
        pdf = events_pandas(gt, 50, 80, k=4, seed=2)
        assert pdf["event_id"].tolist() == list(range(50, 80))

    def test_matches_sampling(self, gt):
        from repro.bayesnet.sampling import sample_events, sample_sites

        pdf = events_pandas(gt, 10, 60, k=4, seed=2)
        X = sample_events(gt, 10, 60, seed=2)
        s = sample_sites(10, 60, k=4, seed=2)
        np.testing.assert_array_equal(pdf[["v0", "v1", "v2"]].to_numpy(), X)
        np.testing.assert_array_equal(pdf["site"].to_numpy(), s)

    def test_wide_network_builds_without_warnings(self):
        """Column-by-column inserts fragment the frame past 100 columns and
        pandas warns (PerformanceWarning); one construction does not."""
        import warnings

        gt = GroundTruth.random(networks.chain(120, J=2), seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pdf = events_pandas(gt, 0, 64, k=4, seed=4)
        assert pdf.shape == (64, 122)
        assert (pdf.dtypes == np.int64).all()
