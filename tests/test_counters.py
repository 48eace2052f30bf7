"""Statistical tests of the sequential distributed counter (Lemma 4)."""
import numpy as np
import pytest

from repro.distmon.counters import SeqDistCounter


def run_counter(eps, k, C, seed, proto_c=1.0):
    rng = np.random.default_rng(seed)
    c = SeqDistCounter(eps, k, rng=rng, proto_c=proto_c)
    sites = np.random.default_rng(seed + 1).integers(0, k, C)
    for s in sites:
        c.increment(int(s))
    return c


class TestSeqDistCounter:
    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            SeqDistCounter(0.0, 4, rng=np.random.default_rng(0))

    def test_exact_while_p_is_one(self):
        """Below the threshold sqrt(k)/eps the counter never thins, so the
        estimate is exact and every increment is a message."""
        c = run_counter(eps=0.5, k=4, C=3, seed=0)  # threshold = 4 > 3
        assert c.estimate() == 3.0
        assert c.messages == 3

    def test_empty_estimate_zero(self):
        c = SeqDistCounter(0.1, 4, rng=np.random.default_rng(0))
        assert c.estimate() == 0.0

    def test_count_tracks_truth(self):
        c = run_counter(eps=0.3, k=8, C=500, seed=3)
        assert c.count == 500

    def test_p_monotone_nonincreasing(self):
        rng = np.random.default_rng(5)
        c = SeqDistCounter(0.3, 4, rng=rng)
        ps = []
        for t in range(2000):
            c.increment(t % 4)
            ps.append(c.p)
        assert all(a >= b for a, b in zip(ps, ps[1:]))
        assert ps[-1] < 1.0

    def test_unbiased(self):
        """E[estimate] ~= C (the estimator's defining property)."""
        C, trials = 1500, 120
        ests = [run_counter(0.4, 4, C, seed=100 + t).estimate() for t in range(trials)]
        se = np.std(ests) / np.sqrt(trials)
        assert abs(np.mean(ests) - C) < 4 * se + 0.02 * C

    def test_variance_within_bound(self):
        """Var[estimate] <= (eps C)^2 with the textbook constant."""
        C, eps, trials = 1500, 0.4, 120
        ests = np.array(
            [run_counter(eps, 4, C, seed=300 + t).estimate() for t in range(trials)]
        )
        assert ests.std() <= eps * C * 1.2  # 20% slack on 120 trials

    def test_message_savings_and_log_growth(self):
        """Messages grow ~logarithmically: going 2K -> 20K events should
        cost far fewer than 10x the messages."""
        m1 = run_counter(0.4, 4, 2_000, seed=7).messages
        m2 = run_counter(0.4, 4, 20_000, seed=7).messages
        assert m2 < 20_000  # actually thinning
        assert m2 < 4 * m1  # log-ish, nowhere near the 10x of exact

    def test_tighter_eps_more_messages(self):
        loose = run_counter(0.5, 4, 10_000, seed=11).messages
        tight = run_counter(0.05, 4, 10_000, seed=11).messages
        assert tight > loose

    def test_proto_c_scales_messages(self):
        full = run_counter(0.3, 4, 10_000, seed=13, proto_c=1.0).messages
        thin = run_counter(0.3, 4, 10_000, seed=13, proto_c=0.1).messages
        assert thin < full

    def test_deterministic_given_rng(self):
        a = run_counter(0.3, 4, 3000, seed=21)
        b = run_counter(0.3, 4, 3000, seed=21)
        assert a.messages == b.messages
        assert a.estimate() == b.estimate()

    @pytest.mark.parametrize("k", [1, 2, 8, 30])
    def test_works_for_any_site_count(self, k):
        c = run_counter(0.3, k, 2000, seed=31)
        assert abs(c.estimate() - 2000) < 0.5 * 2000
