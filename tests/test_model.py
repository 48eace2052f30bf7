"""Tests for CountModel (Algorithm 3 queries) and the error metrics."""
import numpy as np
import pytest

from repro.bayesnet import networks, sampling
from repro.bayesnet.cpd import GroundTruth
from repro.core.model import CountModel, mean_abs_ratio_error
from tests.networks_props import exact_counts, joint_log_prob


@pytest.fixture(scope="module")
def gt():
    return GroundTruth.random(networks.chain(4, J=3), seed=2)


class TestCountModel:
    def test_rejects_wrong_length(self, gt):
        with pytest.raises(ValueError):
            CountModel(gt.net, np.zeros(3))

    def test_negative_values_clamped(self, gt):
        m = CountModel(gt.net, np.full(gt.net.n_counters, -5.0))
        assert np.all(m.values == 0.0)

    def test_mle_ratios_exact(self, gt):
        """With exact counts and lam -> 0, the model factor equals the
        empirical conditional frequency (Lemma 2)."""
        X = sampling.sample_events(gt, 0, 5000, seed=3)
        counts = exact_counts(gt.net, X)
        m = CountModel(gt.net, counts.astype(float), lam=1e-12)
        i = 1
        pidx = gt.net.parent_config_index(X, i)
        # empirical P[X1 = x | X0 = 0]
        sel = pidx == 0
        emp = np.bincount(X[sel, i], minlength=3) / sel.sum()
        got = np.exp(m.log_factor(i, np.arange(3), np.zeros(3, dtype=int)))
        np.testing.assert_allclose(got, emp, atol=1e-9)

    def test_log_prob_sums_factors(self, gt):
        X = sampling.sample_events(gt, 0, 10, seed=4)
        counts = exact_counts(gt.net, X)
        m = CountModel(gt.net, counts.astype(float))
        lp = m.log_prob(X[:3])
        manual = np.zeros(3)
        for i in range(gt.net.n):
            manual += m.log_factor(i, X[:3, i], gt.net.parent_config_index(X[:3], i))
        np.testing.assert_allclose(lp, manual)

    def test_mle_converges_to_ground_truth(self, gt):
        """Lemma 3: with enough data the MLE's joint ratio to the ground
        truth approaches 1."""
        Xbig = sampling.sample_events(gt, 0, 200_000, seed=5)
        m = CountModel(gt.net, exact_counts(gt.net, Xbig).astype(float))
        Xt = sampling.sample_events(gt, 1 << 41, (1 << 41) + 500, seed=6)
        err = mean_abs_ratio_error(m.log_prob(Xt), joint_log_prob(gt, Xt))
        assert err < 0.05

    def test_more_data_less_error(self, gt):
        Xt = sampling.sample_events(gt, 1 << 41, (1 << 41) + 500, seed=6)
        errs = []
        for m_events in [500, 5000, 50_000]:
            X = sampling.sample_events(gt, 0, m_events, seed=7)
            mdl = CountModel(gt.net, exact_counts(gt.net, X).astype(float))
            errs.append(mean_abs_ratio_error(mdl.log_prob(Xt), joint_log_prob(gt, Xt)))
        assert errs[0] > errs[1] > errs[2]

    def test_smoothing_handles_unseen_configs(self, gt):
        m = CountModel(gt.net, np.zeros(gt.net.n_counters))
        X = np.zeros((1, gt.net.n), dtype=np.int32)
        lp = m.log_prob(X)
        # Uniform fallback: every factor is 1/J = 1/3.
        assert lp[0] == pytest.approx(4 * np.log(1 / 3))


class TestMetrics:
    def test_zero_for_identical(self):
        lp = np.array([-1.0, -2.0, -3.0])
        assert mean_abs_ratio_error(lp, lp) == 0.0

    def test_known_ratio(self):
        lp_ref = np.array([-1.0, -1.0])
        lp = lp_ref + np.log(1.1)
        assert mean_abs_ratio_error(lp, lp_ref) == pytest.approx(0.1)

    def test_underestimate_counts_too(self):
        lp_ref = np.zeros(1)
        lp = lp_ref + np.log(0.8)
        assert mean_abs_ratio_error(lp, lp_ref) == pytest.approx(0.2)
