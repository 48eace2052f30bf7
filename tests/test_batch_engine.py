"""Tests of the vectorized batched counter engine, including the
exact-in-distribution suffix-geometric decomposition (DESIGN.md 2.2)."""
import numpy as np
import pytest

from repro.bayesnet import networks
from repro.core.budget import counter_eps
from repro.distmon.batch import (
    SITE_COUNT_MAX,
    BatchCounterEngine,
    ExactCounterEngine,
    SiteLedger,
)
from repro.distmon.counters import SeqDistCounter
from repro.stream.aggregate import aggregate_local
from repro.stream.events import batch_ranges
from tests.engines import batch_engine, feed, state


def single(eps=0.3, k=4, seed=0, proto_c=1.0, nc=1):
    return batch_engine(np.full(nc, eps), k, seed=seed, proto_c=proto_c)


class TestExactEngine:
    def test_counts_and_messages(self):
        e = ExactCounterEngine(SiteLedger(3, 2))
        feed(e, np.array([0, 2]), np.array([0, 1]), np.array([5, 7]))
        feed(e, np.array([2]), np.array([0]), np.array([1]))
        assert e.estimates().tolist() == [5.0, 0.0, 8.0]
        assert e.total_messages == 13

    def test_sums_repeated_ids(self):
        """A counter's rows at several sites sum."""
        e = ExactCounterEngine(SiteLedger(3, 2))
        feed(e, np.array([1, 1]), np.array([0, 1]), np.array([2, 3]))
        assert e.estimates().tolist() == [0.0, 5.0, 0.0]

    @pytest.mark.parametrize("cid", [[-1, 0], [0, 3]])
    def test_rejects_out_of_range_ids(self, cid):
        """A negative id would wrap around onto the last counter."""
        e = ExactCounterEngine(SiteLedger(3, 2))
        with pytest.raises(ValueError):
            feed(e, np.array(cid), np.zeros(2, dtype=np.int64), np.ones(2, dtype=np.int64))
        assert not e.ledger.totals.any() and e.total_messages == 0


class TestEngineBasics:
    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            batch_engine(np.array([0.1, 0.0]), 4, seed=0)

    def test_empty_update_noop(self):
        e = single()
        empty = np.array([], dtype=np.int64)
        feed(e, empty, empty, empty)
        assert e.total_messages == 0

    def test_exact_counts_always_truth(self):
        e = single(nc=3)
        feed(e, np.array([0, 1]), np.array([0, 1]), np.array([10, 20]))
        feed(e, np.array([0]), np.array([2]), np.array([5]))
        assert e.ledger.totals.tolist() == [15, 20, 0]

    def test_exact_regime_when_threshold_not_reached(self):
        """eps loose + small counts => p stays 1, estimate is exact and
        messages equal increments."""
        e = single(eps=0.9, k=1)  # threshold sqrt(1)/0.9 ~ 1.1... use tiny counts
        feed(e, np.array([0]), np.array([0]), np.array([1]))
        assert e.estimates()[0] == 1.0
        assert e.total_messages == 1

    def test_p1_batch_reports_final_value(self):
        e = single(eps=1e-9)  # threshold astronomically large -> p == 1
        e.p[:] = 1.0
        feed(e, np.array([0]), np.array([2]), np.array([100]))
        assert e.total_messages == 100
        assert e.ledger.f[0, 2] == 100
        assert e.estimates()[0] == 100.0

    def test_counters_independent(self):
        e = single(nc=2, eps=0.3)
        feed(e, np.array([0]), np.array([0]), np.array([50_000]))
        assert e.ledger.totals[1] == 0
        assert e.estimates()[1] == 0.0
        assert e.messages[1] == 0

    def test_messages_per_counter_sum(self):
        e = single(nc=4, eps=0.4)
        rng = np.random.default_rng(0)
        for _ in range(10):
            feed(e, np.arange(4), rng.integers(0, 4, 4), rng.integers(1, 100, 4))
        assert e.messages.sum() == e.total_messages

    def test_deterministic_given_seed(self):
        def run():
            e = single(nc=2, seed=42)
            for b in range(8):
                feed(e, np.array([0, 1]), np.array([b % 4, (b + 1) % 4]), np.array([200, 300]))
            return e.total_messages, e.estimates().copy()

        m1, e1 = run()
        m2, e2 = run()
        assert m1 == m2
        np.testing.assert_array_equal(e1, e2)


class TestUpdatePrecondition:
    """``update`` rejects input that would corrupt the engine state."""

    @pytest.mark.parametrize(
        "cid, sid",
        [
            ([0, 1, 1], [2, 0, 0]),  # sorted, duplicate pair
            ([1, 0, 1], [0, 2, 0]),  # unsorted, duplicate pair
            ([-1, 0], [0, 0]),  # negative counter id (would wrap around)
            ([0, 3], [0, 0]),  # counter id past n_counters
            ([0, 1], [0, -1]),  # negative site
            ([0, 1], [0, 4]),  # site id past k
        ],
    )
    def test_rejects_bad_pairs(self, cid, sid):
        e = single(nc=3, k=4)
        with pytest.raises(ValueError):
            feed(e, np.array(cid), np.array(sid), np.ones(len(cid), dtype=np.int64))
        assert e.total_messages == 0 and not e.ledger.f.any()

    def test_accepts_unique_unsorted_pairs(self):
        e = single(nc=3, k=4)
        feed(e, np.array([2, 0, 1, 0]), np.array([0, 3, 1, 0]), np.full(4, 5))
        assert e.ledger.totals.tolist() == [10, 5, 5]


class TestGeometricDraw:
    def test_u_zero_means_no_message(self):
        """u = 0 in the trailing-failure draw gives G = inf: no message,
        not a negative binomial size."""

        class ZeroUniforms:
            def random(self, size):
                return np.zeros(size)

            def binomial(self, n, p):
                raise AssertionError("no message, so no binomial draw")

        e = single(nc=2, k=1)
        e.p[:] = 0.5
        e.round_est[:] = 1e18  # freeze rounds: test the batch kernel alone
        e.rng = ZeroUniforms()
        feed(e, np.array([0, 1]), np.array([0, 0]), np.array([1, 7]))
        assert e.total_messages == 0
        assert e.ledger.totals.tolist() == [1, 7]
        assert e.r.sum() == 0


class TestDecompositionExactness:
    """The (Geometric suffix, Binomial prefix) sampling must reproduce the
    per-item Bernoulli process exactly: message probability, message
    count moments, and last-report value."""

    def run_many(self, n, p, reps=40_000, seed=1):
        e = batch_engine(np.full(reps, 0.5), k=1, seed=seed)
        e.p[:] = p  # force the reporting probability under test
        e.round_est[:] = 1e18  # freeze rounds: test the batch kernel alone
        cid = np.arange(reps)
        feed(e, cid, np.zeros(reps, dtype=np.int64), np.full(reps, n))
        return e

    def test_message_probability(self):
        n, p = 20, 0.05
        e = self.run_many(n, p)
        got = np.mean(e.messages > 0)
        assert got == pytest.approx(1 - (1 - p) ** n, abs=0.01)

    def test_message_count_mean(self):
        n, p = 20, 0.05
        e = self.run_many(n, p)
        assert e.messages.mean() == pytest.approx(n * p, rel=0.05)

    def test_message_count_variance(self):
        n, p = 20, 0.05
        e = self.run_many(n, p)
        assert e.messages.var() == pytest.approx(n * p * (1 - p), rel=0.08)

    def test_last_report_matches_bernoulli_brute_force(self):
        """Compare E[last reported value | >=1 message] against a direct
        per-item Bernoulli simulation."""
        n, p, reps = 15, 0.2, 40_000
        e = self.run_many(n, p, reps=reps, seed=3)
        rep = e.r[:, 0]
        got = rep[e.messages > 0].mean()
        rng = np.random.default_rng(9)
        draws = rng.random((reps, n)) < p
        any_msg = draws.any(axis=1)
        last = n - np.argmax(draws[any_msg][:, ::-1], axis=1)
        assert got == pytest.approx(last.mean(), rel=0.01)


class TestStatisticalGuarantees:
    def test_unbiased_and_variance_bound(self):
        """Batched engine run per-event (batch size 1) reproduces the
        sequential counter's guarantees: E[A] ~= C, sd <= eps*C."""
        C, eps, k, trials = 1200, 0.4, 4, 100
        ests = []
        for t in range(trials):
            e = batch_engine(np.array([eps]), k, seed=1000 + t)
            sites = np.random.default_rng(t).integers(0, k, C)
            for s in sites:
                feed(e, np.array([0]), np.array([s]), np.array([1]))
            ests.append(e.estimates()[0])
        ests = np.array(ests)
        se = ests.std() / np.sqrt(trials)
        assert abs(ests.mean() - C) < 4 * se + 0.02 * C
        assert ests.std() <= eps * C * 1.2

    def test_big_batches_still_accurate(self):
        """Doubling batches (the production path) keep relative error
        within a few eps."""
        eps, k = 0.2, 4
        errs = []
        for t in range(40):
            e = batch_engine(np.array([eps]), k, seed=t)
            total, size = 0, 64
            while total < 40_000:
                b = min(size, 40_000 - total)
                per = np.full(k, b // k)
                per[: b % k] += 1
                feed(e, np.zeros(k, dtype=np.int64), np.arange(k), per)
                total += b
                size *= 2
            errs.append(abs(e.estimates()[0] - 40_000) / 40_000)
        assert np.median(errs) < 2 * eps
        assert np.mean(errs) < 2 * eps

    def test_message_cost_logarithmic(self):
        """10x the stream, much less than 10x the messages."""
        def msgs(C, seed=5):
            e = batch_engine(np.array([0.3]), 4, seed=seed)
            total, size = 0, 64
            while total < C:
                b = min(size, C - total)
                feed(e, np.array([0]), np.array([total % 4]), np.array([b]))
                total += b
                size *= 2
            return e.total_messages

        assert msgs(100_000) < 3 * msgs(10_000)

    def test_tighter_eps_more_messages_batched(self):
        def msgs(eps):
            e = batch_engine(np.array([eps]), 4, seed=8)
            for _ in range(20):
                feed(e, np.array([0]), np.array([0]), np.array([2000]))
            return e.total_messages

        assert msgs(0.02) > msgs(0.5)


class ReferenceEngine(BatchCounterEngine):
    """The engine's formulas before its shortcuts: 2-D indexing, every
    row's outcome in full arrays, and a stale-site scan and an estimate
    term for every counter. As in ``SeqDistCounter``, a ``p == 1`` row
    draws nothing and reports all ``n`` increments; ``p < 1`` rows draw a
    uniform each, then a binomial each where there is a message, in row
    order. ``r`` and ``rep`` are kept for every counter, so ``r == f``
    wherever ``p == 1``. Same generator calls."""

    def update(self, cid, sid, n):
        self.batches = self.ledger.take(self.batches)
        cid = np.asarray(cid, dtype=np.int64)
        sid = np.asarray(sid, dtype=np.int64)
        n = np.asarray(n, dtype=np.int64)
        if len(cid) == 0:
            return
        p_rows = self.p[cid]
        fstart = self.ledger.f[cid, sid] - n  # the ledger holds this batch
        thin = np.nonzero(p_rows < 1.0)[0]
        G = np.zeros(len(cid), dtype=np.int64)
        if len(thin):
            u = self.rng.random(len(thin))
            with np.errstate(divide="ignore"):
                G[thin] = np.minimum(np.floor(np.log(u) / np.log1p(-p_rows[thin])), n[thin])
        L = n - G
        M = L.copy()
        hm = thin[L[thin] > 0]
        if len(hm):
            M[hm] = 1 + self.rng.binomial(L[hm] - 1, p_rows[hm])
        has = L > 0
        c_h, s_h = cid[has], sid[has]
        self.r[c_h, s_h] = fstart[has] + L[has]
        self.rep[c_h, s_h] = True
        np.add.at(self.messages, cid, M)
        adv = np.flatnonzero(self._estimate() >= 2.0 * self.round_est)
        if len(adv):
            self._advance_round(adv)

    def _estimate(self):
        return self.r.sum(axis=1) + self.rep.sum(axis=1) * (1.0 / self.p - 1.0)

    def _advance_round(self, adv):
        fa = self.ledger.f[adv]
        self.messages[adv] += (fa != self.r[adv]).sum(axis=1)
        self.r[adv] = fa
        self.rep[adv] = False
        exact = fa.sum(axis=1).astype(np.float64)
        self.p[adv] = np.clip(
            np.minimum(
                self.p[adv],
                self.proto_c * np.sqrt(self.k) / (self.eps[adv] * np.maximum(exact, 1.0)),
            ),
            1e-12,
            1.0,
        )
        self.round_est[adv] = np.maximum(exact, 1.0)


def assert_state_equals_reference(new, ref):
    """Bit for bit: ``p``, ``round_est``, ``messages``, the estimates and
    the generator position; ``r`` through its dense view (the ledger's
    ``f`` where ``p == 1``) and ``rep`` on the counters with ``p < 1``."""
    for name in ("p", "round_est", "messages"):
        np.testing.assert_array_equal(getattr(new, name), getattr(ref, name), err_msg=name)
    np.testing.assert_array_equal(new.estimates(), ref.estimates())
    dense_r = np.where((new.p == 1.0)[:, None], new.ledger.f, new.r)
    np.testing.assert_array_equal(dense_r, ref.r)
    thin = new.p < 1.0
    np.testing.assert_array_equal(new.rep[thin], ref.rep[thin])
    assert new.rng.bit_generator.state == ref.rng.bit_generator.state


@pytest.mark.parametrize("seed", range(6))
def test_state_equals_reference_formulas(seed):
    """Bit for bit, after every update: the state and the generator
    position. Pairs are unique and unsorted, ``n`` mixes 0, 1 and large
    counts, most updates hold rows at ``p == 1`` and below 1, and every
    fourth has a message on every row (only ``p == 1`` rows, ``n >= 1``)."""
    rng = np.random.default_rng([seed, 77])
    nc, k = 60, 7
    # Half the counters get an eps so tight that they stay at p = 1.
    eps = np.where(np.arange(nc) % 2, rng.uniform(0.02, 0.5, nc), 1e-9)
    new = batch_engine(eps, k, seed=seed, proto_c=0.3)
    ref = ReferenceEngine(eps, SiteLedger(nc, k), seed=seed, proto_c=0.3)
    start_p = np.where(rng.random(nc) < 0.5, 1.0, rng.uniform(0.001, 0.99, nc))
    new.p[:] = ref.p[:] = start_p
    sizes = np.array([0, 1, 2, 37, 5000, 3_000_000])
    mixed = 0
    for step in range(40):
        every_row_reports = step % 4 == 3
        pool = np.flatnonzero(np.repeat(new.p == 1.0, k) if every_row_reports else np.ones(nc * k))
        key = rng.choice(pool, size=int(rng.integers(1, len(pool) + 1)), replace=False)
        if every_row_reports:
            n = rng.choice(sizes[1:], size=len(key))
        else:
            n = rng.choice(sizes, size=len(key), p=[0.2, 0.2, 0.2, 0.2, 0.15, 0.05])
            p_rows = new.p[key // k]
            mixed += bool(np.any(p_rows == 1.0) and np.any(p_rows < 1.0))
        for e in (new, ref):
            feed(e, key // k, key % k, n)
        assert_state_equals_reference(new, ref)
    assert mixed >= 20


def test_p1_rows_draw_nothing():
    """An update whose rows are all at ``p == 1`` reports every increment
    and leaves the generator where it was."""
    e = single(nc=3, k=4, eps=1e-9)
    feed(e, np.array([0, 0, 2]), np.array([1, 3, 0]), np.array([5, 1, 40]))
    state = e.rng.bit_generator.state
    before = e.messages.copy()
    n = np.array([3, 7, 1, 2])
    feed(e, np.array([0, 1, 1, 2]), np.array([1, 0, 2, 0]), n)
    assert np.all(e.p == 1.0)
    assert e.rng.bit_generator.state == state
    np.testing.assert_array_equal(e.messages - before, [3, 8, 2])
    np.testing.assert_array_equal(e.estimates(), [9.0, 8.0, 42.0])
    assert e.ledger.f[0, 1] == 8 and e.ledger.f[2, 0] == 42


def test_narrow_triple_equals_int64():
    """The aggregation's int32 / uint8 ids give the same state, messages
    and generator position, batch by batch, as the same rows in int64."""
    gt = networks.ground_truth("alarm")
    k = 6
    eps = counter_eps(gt.net, "uniform", 0.1)
    narrow = batch_engine(eps, k, seed=4, proto_c=0.1)
    wide = batch_engine(eps, k, seed=4, proto_c=0.1)
    for lo, hi in batch_ranges(20_000, first=512):
        cid, sid, n = aggregate_local(gt, lo, hi, k=k, seed=5)
        assert (cid.dtype, sid.dtype) == (np.int32, np.uint8)
        feed(narrow, cid, sid, n)
        feed(wide, cid.astype(np.int64), sid.astype(np.int64), n)
        np.testing.assert_array_equal(narrow.ledger.f, wide.ledger.f)
        for name in ("p", "r", "rep", "round_est", "messages"):
            np.testing.assert_array_equal(getattr(narrow, name), getattr(wide, name), err_msg=name)
        assert narrow.rng.bit_generator.state == wide.rng.bit_generator.state
    assert np.any(narrow.p < 1.0)


def ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov distance between empirical CDFs."""
    grid = np.union1d(a, b)
    cdf = [np.searchsorted(np.sort(x), grid, side="right") / len(x) for x in (a, b)]
    return float(np.max(np.abs(cdf[0] - cdf[1])))


class TestAgainstSequentialCounter:
    """The batched engine and ``SeqDistCounter`` have the same distribution
    of per-counter messages and estimates. Each counter starts at
    ``p == 1`` fed in batches of many increments that end where the
    sequential counter's rounds advance (its estimate is exact there, so
    rounds advance at counts 2, 4, 8, ...), then thins and is fed one
    event per update, where both make the same per-event decisions."""

    EPS, K, C, REPS = 0.1, 4, 240, 1500
    P1_END = 32  # the first round point with p < 1: sqrt(K) / EPS = 20 < 32

    def sites(self):
        return np.random.default_rng(5).integers(0, self.K, self.C)

    def batched(self):
        sites, reps = self.sites(), self.REPS
        e = batch_engine(np.full(reps, self.EPS), self.K, seed=11)
        cid = np.arange(reps)
        edges = [0, 1, 2, 4, 8, 16, self.P1_END, *range(self.P1_END + 1, self.C + 1)]
        for lo, hi in zip(edges[:-1], edges[1:]):
            assert np.all(e.p == 1.0) == (lo < self.P1_END)
            n = np.bincount(sites[lo:hi], minlength=self.K)
            s = np.flatnonzero(n)
            feed(e, np.repeat(cid, len(s)), np.tile(s, reps), np.tile(n[s], reps))
        return e.messages, e.estimates()

    def sequential(self):
        msgs, ests = [], []
        for t in range(self.REPS):
            c = SeqDistCounter(self.EPS, self.K, rng=np.random.default_rng([t, 99]))
            for s in self.sites():
                c.increment(int(s))
            msgs.append(c.messages)
            ests.append(c.estimate())
        return np.array(msgs), np.array(ests)

    def test_same_distribution(self):
        (bm, be), (sm, se) = self.batched(), self.sequential()
        # The p == 1 phase is exact: 32 reports, and its round advances sync nothing.
        assert bm.min() >= self.P1_END and sm.min() >= self.P1_END
        assert bm.std() > 0 and be.std() > 0
        # Asymptotic 0.1% critical value of the two-sample statistic.
        crit = 1.95 * np.sqrt(2 / self.REPS)
        assert ks_statistic(bm, sm) < crit
        assert ks_statistic(be, se) < crit
        for b, s in ((bm, sm), (be, se)):
            assert abs(b.mean() - s.mean()) < 4 * np.hypot(b.std(), s.std()) / np.sqrt(self.REPS)


class TestSiteCountWidth:
    """``f`` and ``r`` are int32 per (counter, site); sums over sites are
    int64."""

    def test_state_is_int32(self):
        nc, k = 5, 3
        e = batch_engine(np.full(nc, 0.1), k, seed=0)
        assert e.ledger.f.nbytes + e.r.nbytes == 8 * nc * k

    def test_update_past_limit_raises_and_changes_nothing(self):
        e = batch_engine(np.full(3, 0.1), 4, seed=2, proto_c=0.3)
        feed(e, np.array([0, 1]), np.array([1, 2]), np.array([7, SITE_COUNT_MAX - 5]))
        before = state(e, e.ledger)
        with pytest.raises(ValueError, match="SITE_COUNT_MAX"):
            feed(e, np.array([0, 1]), np.array([0, 2]), np.array([10, 6]))
        assert state(e, e.ledger) == before
        feed(e, np.array([1]), np.array([2]), np.array([5]))  # up to the limit is fine
        assert e.ledger.f[1, 2] == SITE_COUNT_MAX

    def test_sums_over_sites_pass_int32(self):
        """Every site of counter 0 at the limit: its total is above 2**31
        and estimates and exact counts read it exactly."""
        k = 4
        e = batch_engine(np.full(2, 0.1), k, seed=3, proto_c=0.3)
        feed(e, np.zeros(k, dtype=np.int64), np.arange(k), np.full(k, SITE_COUNT_MAX))
        total = k * SITE_COUNT_MAX
        assert total > 2**31
        assert e.ledger.totals.tolist() == [total, 0]
        assert e.estimates().tolist() == [float(total), 0.0]
        assert e.round_est[0] == float(total) and e.p[0] < 1.0
