"""Property-based tests of the batched counter engine: invariants that
must hold for *any* update sequence."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.distmon.batch import ExactCounterEngine
from tests.engines import batch_engine, feed, force_p


@st.composite
def update_sequences(draw):
    nc = draw(st.integers(1, 6))
    k = draw(st.integers(1, 5))
    n_batches = draw(st.integers(1, 6))
    batches = []
    for _ in range(n_batches):
        pairs = draw(
            st.lists(
                st.tuples(st.integers(0, nc - 1), st.integers(0, k - 1)),
                min_size=0,
                max_size=nc * k,
                unique=True,
            )
        )
        counts = [draw(st.integers(1, 500)) for _ in pairs]
        batches.append((pairs, counts))
    return nc, k, batches


def apply(engines, batches):
    for pairs, counts in batches:
        if not pairs:
            continue
        cid = np.array([p[0] for p in pairs], dtype=np.int64)
        sid = np.array([p[1] for p in pairs], dtype=np.int64)
        feed(engines, cid, sid, np.array(counts, dtype=np.int64))


class TestEngineInvariants:
    @given(update_sequences(), st.floats(0.01, 0.9), st.integers(0, 99))
    @settings(max_examples=60, deadline=None)
    def test_exact_counts_conserved(self, seq, eps, seed):
        """The ledger's ground-truth counts always equal the input mass,
        regardless of thinning decisions."""
        nc, k, batches = seq
        e = batch_engine(np.full(nc, eps), k, seed=seed)
        apply(e, batches)
        truth = np.zeros(nc, dtype=np.int64)
        for pairs, counts in batches:
            for (c, _), n in zip(pairs, counts):
                truth[c] += n
        np.testing.assert_array_equal(e.ledger.totals, truth)

    @given(update_sequences(), st.floats(0.01, 0.9), st.integers(0, 99))
    @settings(max_examples=60, deadline=None)
    def test_messages_bounded_by_increments(self, seq, eps, seed):
        nc, k, batches = seq
        e = batch_engine(np.full(nc, eps), k, seed=seed)
        apply(e, batches)
        total = sum(sum(c) for _, c in batches)
        # Reports <= increments; round syncs add at most one message per
        # stale (counter, site) pair per round; rounds <= log2(total)+2.
        bound = total + e.nc * k * (int(np.log2(max(total, 2))) + 2)
        assert 0 <= e.total_messages <= bound

    @given(update_sequences(), st.floats(0.01, 0.9), st.integers(0, 99))
    @settings(max_examples=40, deadline=None)
    def test_estimates_nonnegative_and_reports_bounded(self, seq, eps, seed):
        """After every update the slots are exactly the counters with
        ``p < 1``, each slot maps back to its counter, and a slot's
        reports never exceed its counter's true count."""
        nc, k, batches = seq
        e = batch_engine(np.full(nc, eps), k, seed=seed)
        for batch in batches:
            apply(e, [batch])
            assert np.all(e.estimates() >= 0)
            np.testing.assert_array_equal(np.sort(e.ids), np.flatnonzero(e.p < 1.0))
            np.testing.assert_array_equal(e.slot[e.ids], np.arange(len(e.ids)))
            assert np.count_nonzero(e.slot == -1) == nc - len(e.ids)
            assert np.all(e.r <= e.ledger.f[e.ids])
            assert np.all(e.r >= 0)

    @given(update_sequences(), st.floats(0.01, 0.9), st.integers(0, 99))
    @settings(max_examples=40, deadline=None)
    def test_p_within_unit_interval(self, seq, eps, seed):
        nc, k, batches = seq
        e = batch_engine(np.full(nc, eps), k, seed=seed)
        apply(e, batches)
        assert np.all((e.p > 0) & (e.p <= 1.0))

    @given(update_sequences(), st.integers(0, 99))
    @settings(max_examples=40, deadline=None)
    def test_matches_exact_engine_mass(self, seq, seed):
        """EXACTMLE over the same ledger reads the input mass, and its
        messages are that mass."""
        nc, k, batches = seq
        a = batch_engine(np.full(nc, 0.2), k, seed=seed)
        b = ExactCounterEngine(a.ledger)
        apply([a, b], batches)
        truth = np.zeros(nc)
        for pairs, counts in batches:
            for (c, _), n in zip(pairs, counts):
                truth[c] += n
        np.testing.assert_array_equal(b.estimates(), truth)
        assert b.total_messages == sum(sum(c) for _, c in batches)

    @given(update_sequences(), st.floats(0.01, 0.9), st.integers(0, 99), st.data())
    @settings(max_examples=60, deadline=None)
    def test_counters_at_p1_have_reported_everything(self, seq, eps, seed, data):
        """After every update a counter with ``p == 1`` has reported every
        increment (``p`` never rises): its estimate and its messages are
        its exact count. The engine keeps no ``r`` for it on this."""
        nc, k, batches = seq
        e = batch_engine(np.full(nc, eps), k, seed=seed)
        force_p(
            e,
            data.draw(
                st.lists(st.one_of(st.just(1.0), st.floats(0.01, 0.99)), min_size=nc, max_size=nc)
            ),
        )
        for batch in batches:
            apply(e, [batch])
            at1 = e.p == 1.0
            np.testing.assert_array_equal(e.estimates()[at1], e.ledger.totals[at1])
            np.testing.assert_array_equal(e.messages[at1], e.ledger.totals[at1])

    @given(update_sequences(), st.floats(0.01, 0.9))
    @settings(max_examples=30, deadline=None)
    def test_same_seed_same_run(self, seq, eps):
        nc, k, batches = seq
        runs = []
        for _ in range(2):
            e = batch_engine(np.full(nc, eps), k, seed=12345)
            apply(e, batches)
            runs.append((e.total_messages, e.estimates().copy()))
        assert runs[0][0] == runs[1][0]
        np.testing.assert_array_equal(runs[0][1], runs[1][1])
