"""Spark aggregation tests, oracle-checked against DuckDB.

Every result-producing Spark aggregation is verified with
``tests.oracle.assert_equivalent`` running independent SQL over the same
input events — catching any error in the counter-id arithmetic, the
site-side kernel, or the driver-side merge of the sites' partials, not
just "it ran". The chunk-aligned task cutter is property-tested.
"""
import hashlib
from unittest import mock

import numpy as np
import pandas as pd
import pytest
from hypothesis import example, given, strategies as st

from repro.bayesnet import networks
from repro.bayesnet.cpd import GroundTruth
from repro.bayesnet.sampling import CHUNK, sample_events, sample_sites
from repro.bayesnet.structure import BayesNet
from repro.stream import aggregate
from repro.stream.aggregate import (
    StreamJob,
    _task_bounds,
    aggregate_events_df,
    aggregate_generated,
    aggregate_local,
    duckdb_counts_sql,
)
from repro.stream.events import batch_ranges, events_pandas
from tests import oracle


def rows(batch) -> pd.DataFrame:
    """A ``(counter_id, site, n)`` triple as the oracle's row frame."""
    return pd.DataFrame(dict(zip(["counter_id", "site", "n"], batch)))


def triple_dtypes(k: int, n: np.ndarray) -> list[np.dtype]:
    """The ``(counter_id, site, n)`` dtypes every path returns for ``k``
    sites and counts ``n``: ``n`` in the narrowest unsigned type that
    holds its largest value."""
    return [np.dtype(np.int32), np.min_scalar_type(k - 1), np.min_scalar_type(n.max(initial=0))]


def assert_same(a, b, k: int) -> None:
    assert [x.dtype for x in a] == [y.dtype for y in b] == triple_dtypes(k, b[2])
    for x, y in zip(a, b, strict=True):
        np.testing.assert_array_equal(x, y)


@pytest.fixture(scope="module")
def gt():
    rng_net = networks.synth_network(
        "agg-test", 6, 7, 60, card_cap=4, d_max=3, seed=3, attempts=4
    )
    return GroundTruth.random(rng_net, seed=4)


class TestOracle:
    def test_spark_counts_match_duckdb(self, spark, gt):
        """The full Spark path (events DF -> mapInPandas kernel ->
        driver-side merge) equals DuckDB's independent GROUP BY over the
        same events table."""
        events = events_pandas(gt, 0, 4000, k=5, seed=7)
        sdf = spark.createDataFrame(events)
        got = rows(aggregate_events_df(gt.net, sdf, k=5))
        oracle.assert_equivalent(got, duckdb_counts_sql(gt.net), events=events)

    def test_oracle_on_chain_network(self, spark):
        g = GroundTruth.random(networks.chain(4, J=3), seed=5)
        events = events_pandas(g, 0, 2500, k=3, seed=8)
        sdf = spark.createDataFrame(events)
        got = rows(aggregate_events_df(g.net, sdf, k=3))
        oracle.assert_equivalent(got, duckdb_counts_sql(g.net), events=events)

    def test_oracle_catches_wrong_result(self, spark, gt):
        """Negative control: a corrupted aggregation must fail the oracle."""
        events = events_pandas(gt, 0, 500, k=3, seed=9)
        sdf = spark.createDataFrame(events)
        got = rows(aggregate_events_df(gt.net, sdf, k=3))
        bad = got.assign(n=got["n"] + 1)
        with pytest.raises(AssertionError):
            oracle.assert_equivalent(bad, duckdb_counts_sql(gt.net), events=events)


class TestTaskBounds:
    @given(
        lo=st.integers(0, 5 * CHUNK),
        size=st.integers(0, 10 * CHUNK),
        slots=st.sampled_from([1, 2, 4, 64]),
    )
    @example(lo=100, size=3 * CHUNK + 400, slots=4)  # unaligned lo
    @example(lo=CHUNK + 7, size=CHUNK // 2, slots=4)  # shorter than CHUNK
    @example(lo=2 * CHUNK, size=0, slots=2)  # empty range
    def test_chunk_aligned_tiling(self, lo, size, slots):
        hi = lo + size
        bounds = _task_bounds(lo, hi, slots)
        if size == 0:
            assert bounds == []
            return
        assert bounds[0][0] == lo and bounds[-1][1] == hi
        for (_, b), (c, _) in zip(bounds, bounds[1:]):
            assert b == c and b % CHUNK == 0
        assert all(a < b for a, b in bounds)
        # As many tasks as the slots and the chunks allow, evenly loaded.
        chunks = [(b - 1) // CHUNK - a // CHUNK + 1 for a, b in bounds]
        assert len(bounds) == min(slots, sum(chunks))
        assert max(chunks) - min(chunks) <= 1


class TestPathAgreement:
    def test_generated_equals_local(self, spark, gt):
        """Spark partition-local generation over several chunk-aligned
        tasks == driver reference, exactly, on any number of cores."""
        lo, hi = 100, 3 * CHUNK + 500
        cuts = []

        def four_slots(lo, hi, slots):
            cuts.append(_task_bounds(lo, hi, 4))
            return cuts[-1]

        with mock.patch.object(aggregate, "_task_bounds", four_slots):
            job = StreamJob(spark, gt, [(lo, hi)], k=5, seed=11)
            got = aggregate_generated(job, gt, lo, hi, k=5, seed=11)
        assert len(cuts[0]) == 4
        assert_same(got, aggregate_local(gt, lo, hi, k=5, seed=11), 5)

    def test_generated_partition_split_invariant(self, spark, gt):
        """A range inside one chunk is one task, and still equals the
        driver reference."""
        lo, hi = CHUNK + 10, CHUNK + 3000
        assert len(_task_bounds(lo, hi, spark.sparkContext.defaultParallelism)) == 1
        job = StreamJob(spark, gt, [(lo, hi)], k=4, seed=12)
        assert_same(
            aggregate_generated(job, gt, lo, hi, k=4, seed=12),
            aggregate_local(gt, lo, hi, k=4, seed=12),
            4,
        )

    def test_generated_empty_range(self, spark, gt):
        job = StreamJob(spark, gt, [(700, 700)], k=4, seed=12)
        out = aggregate_generated(job, gt, 700, 700, k=4, seed=12)
        assert [a.dtype for a in out] == triple_dtypes(4, out[2])
        assert all(len(a) == 0 for a in out)

    def test_events_df_equals_local(self, spark, gt):
        events = events_pandas(gt, 0, 2000, k=4, seed=13)
        sdf = spark.createDataFrame(events)
        assert_same(
            aggregate_events_df(gt.net, sdf, k=4),
            aggregate_local(gt, 0, 2000, k=4, seed=13),
            4,
        )


class TestAggregateInvariants:
    def test_total_increments(self, gt):
        cid, sid, n = aggregate_local(gt, 0, 1000, k=5, seed=14)
        assert n.sum() == 2 * gt.net.n * 1000

    def test_pairs_unique(self, gt):
        cid, sid, n = aggregate_local(gt, 0, 1000, k=5, seed=14)
        keys = cid * 5 + sid
        assert len(np.unique(keys)) == len(keys)

    def test_ids_in_range(self, gt):
        cid, sid, n = aggregate_local(gt, 0, 1000, k=5, seed=14)
        assert cid.min() >= 0 and cid.max() < gt.net.n_counters
        assert sid.min() >= 0 and sid.max() < 5

    def test_per_variable_mass(self, gt):
        """Each variable's family and parent blocks both absorb exactly
        one increment per event."""
        cid, sid, n = aggregate_local(gt, 0, 800, k=3, seed=15)
        tot = np.zeros(gt.net.n_counters, dtype=np.int64)
        np.add.at(tot, cid, n)
        for i in range(gt.net.n):
            assert tot[gt.net.fam_offset[i] : gt.net.fam_offset[i + 1]].sum() == 800
            assert tot[gt.net.par_offset[i] : gt.net.par_offset[i + 1]].sum() == 800

    def test_batch_additivity(self, gt):
        """Aggregating [0,600) equals [0,250) + [250,600) summed."""
        full = np.zeros(gt.net.n_counters, dtype=np.int64)
        cid, _, n = aggregate_local(gt, 0, 600, k=4, seed=16)
        np.add.at(full, cid, n)
        split = np.zeros(gt.net.n_counters, dtype=np.int64)
        for lo, hi in [(0, 250), (250, 600)]:
            cid, _, n = aggregate_local(gt, lo, hi, k=4, seed=16)
            np.add.at(split, cid, n)
        np.testing.assert_array_equal(full, split)


def unique_reference(net, X, sites, k):
    """The sort-based kernel: ``np.unique`` over all ``2 n m`` fused keys,
    with parent indices computed by a gather independent of the kernel's."""
    keys = [np.empty(0, dtype=np.int64)]
    s64 = sites.astype(np.int64)
    for i, ps in enumerate(net.parents):
        strides = np.cumprod([1, *net.cards[ps][:-1]])[: len(ps)]
        pidx = (X[:, ps].astype(np.int64) * strides).sum(axis=1)
        fam = net.fam_offset[i] + pidx * net.cards[i] + X[:, i]
        par = net.par_offset[i] + pidx
        keys += [fam * k + s64, par * k + s64]
    return np.unique(np.concatenate(keys), return_counts=True)


class TestKernel:
    @pytest.mark.parametrize(
        "m, k", [(0, 5), (1, 1), (37, 1), (500, 3), (2000, 30)]
    )
    def test_equals_unique_reference(self, gt, m, k):
        rng = np.random.default_rng([m, k])
        X = rng.integers(0, gt.net.cards, size=(m, gt.net.n)).astype(np.int32)
        sites = rng.integers(0, k, m)
        keys, cnts = aggregate._agg_kernel(gt.net, X, sites, k)
        want_keys, want_cnts = unique_reference(gt.net, X, sites, k)
        assert keys.dtype == cnts.dtype == np.int64
        np.testing.assert_array_equal(keys, want_keys)
        np.testing.assert_array_equal(cnts, want_cnts)

    def test_root_and_wide_family_equal_unique_reference(self):
        """Parent blocks are family blocks summed over ``x_i``: checked
        where that sum is over a root's single configuration (K = 1) and
        over a high-cardinality child of three parents (K = 168, J = 9)."""
        net = BayesNet("wide", [[], [], [], [0, 1, 2], [3]], [2, 12, 7, 9, 5])
        rng = np.random.default_rng(11)
        X = rng.integers(0, net.cards, size=(3000, net.n)).astype(np.int32)
        sites = rng.integers(0, 6, 3000)
        keys, cnts = aggregate._agg_kernel(net, X, sites, 6)
        want_keys, want_cnts = unique_reference(net, X, sites, 6)
        np.testing.assert_array_equal(keys, want_keys)
        np.testing.assert_array_equal(cnts, want_cnts)

    def test_rejects_values_of_another_network(self):
        """Events of the seed-2 ALARM stand-in hold values outside the
        seed-0 structure's domains; counting them must fail loudly."""
        other = networks.ground_truth("alarm", seed=2)
        net = networks.make("alarm")
        X = sample_events(other, 0, 1000, seed=2)
        assert np.any(X.max(axis=0) >= net.cards)
        with pytest.raises(ValueError, match="outside its domain"):
            aggregate._agg_kernel(net, X, sample_sites(0, 1000, k=4, seed=2), 4)

    def test_rejects_negative_value(self, gt):
        X = sample_events(gt, 0, 50, seed=1).astype(np.int16)
        X[7, 2] = -1
        with pytest.raises(ValueError, match="outside its domain"):
            aggregate._agg_kernel(gt.net, X, np.zeros(50, dtype=np.int32), 2)

    def test_rejects_site_equal_to_k(self, gt):
        X = sample_events(gt, 0, 50, seed=1)
        sites = np.zeros(50, dtype=np.int64)
        sites[-1] = 3
        with pytest.raises(ValueError, match="outside its domain"):
            aggregate._agg_kernel(gt.net, X, sites, 3)


def test_golden_digest_hepar2():
    """Pins the stream and the kernel bit for bit: every micro-batch of a
    20K HEPAR2 stream (multi-parent nodes; batches that cross ``CHUNK``
    boundaries at unaligned starts), digest taken from the sort-based
    kernel that sampled chunk prefixes."""
    gt = networks.ground_truth("hepar2")
    h = hashlib.sha256()
    for lo, hi in batch_ranges(20_000):
        for a in aggregate_local(gt, lo, hi, k=7, seed=3):
            h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    assert h.hexdigest() == (
        "7bb65191f9f5d94a30c192f108e562791fad6e6a4d9ea52e6bc6a56852159ed2"
    )


def unique_merge(parts, k):
    """The sort-based merge: ``np.unique`` over the concatenated keys and
    a weighted ``bincount`` of their counts."""
    empty = np.empty(0, dtype=np.int64)
    keys = np.concatenate([empty, *(p[0] for p in parts)])
    cnts = np.concatenate([empty, *(p[1] for p in parts)])
    keys, inv = np.unique(keys, return_inverse=True)
    n = np.bincount(inv, weights=cnts, minlength=len(keys)).astype(np.int64)
    return keys // k, keys % k, n


class TestMerge:
    @given(
        k=st.integers(1, 6),
        n_counters=st.integers(1, 40),
        dtype=st.sampled_from([np.int32, np.int64]),
        data=st.data(),
    )
    @example(k=3, n_counters=5, dtype=np.int64, data=None)  # no parts
    def test_dense_equals_unique_merge(self, k, n_counters, dtype, data):
        """Keys may repeat inside a part (an events frame collected from
        several Arrow batches) and across parts (the sites' partials)."""
        size = n_counters * k
        part = st.lists(st.tuples(st.integers(0, size - 1), st.integers(1, 2**20)), max_size=40)
        raw = data.draw(st.lists(part, max_size=5)) if data is not None else []
        parts = [
            (np.array([p[0] for p in r], dtype=dtype), np.array([p[1] for p in r], dtype=dtype))
            for r in raw
        ]
        got = aggregate._merge(parts, size, k)
        want = unique_merge(parts, k)
        assert [x.dtype for x in got] == triple_dtypes(k, want[2])
        for x, y in zip(got, want, strict=True):
            np.testing.assert_array_equal(x, y)
        keys = got[0] * k + got[1]
        assert np.all(np.diff(keys) > 0)

    @pytest.mark.parametrize(
        "top, dtype", [(255, np.uint8), (256, np.uint16), (2**16 - 1, np.uint16), (2**16, np.uint32)]
    )
    def test_split_narrows_n_to_its_largest_count(self, top, dtype):
        n = aggregate._split(np.array([0, 1]), np.array([1, top], dtype=np.int64), 2)[2]
        assert n.dtype == dtype and n.tolist() == [1, top]

    def test_split_rejects_counter_id_past_int32(self):
        keys = np.array([3 * (2**31 - 1), 3 * 2**31 + 2])
        with pytest.raises(ValueError, match="int32"):
            aggregate._split(keys, np.ones(2, dtype=np.int64), 3)
        cid, sid, n = aggregate._split(keys[:1], np.ones(1, dtype=np.int64), 3)
        assert cid.tolist() == [2**31 - 1] and cid.dtype == np.int32
