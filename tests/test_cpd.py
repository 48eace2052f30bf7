"""Unit tests for ground-truth CPDs."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bayesnet import networks, sampling
from repro.bayesnet.cpd import GroundTruth
from repro.bayesnet.structure import BayesNet
from repro.core.model import CountModel
from tests.networks_props import exact_counter_probs, joint_log_prob, min_conditional


@pytest.fixture(scope="module")
def vee_gt() -> GroundTruth:
    net = BayesNet("vee", [[], [], [0, 1]], np.array([2, 3, 4]))
    return GroundTruth.random(net, seed=3)


class TestRandomCPDs:
    def test_rows_normalized(self, vee_gt):
        for t in vee_gt.cpds:
            np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-12)

    def test_shapes(self, vee_gt):
        net = vee_gt.net
        for i, t in enumerate(vee_gt.cpds):
            assert t.shape == (int(net.K[i]), int(net.cards[i]))

    def test_floor_respected(self, vee_gt):
        for i, t in enumerate(vee_gt.cpds):
            J = int(vee_gt.net.cards[i])
            assert t.min() >= 0.05 / J * (1 - 1e-9)

    def test_deterministic_in_seed(self):
        net = networks.chain(4, J=3)
        a = GroundTruth.random(net, seed=11)
        b = GroundTruth.random(net, seed=11)
        c = GroundTruth.random(net, seed=12)
        for ta, tb in zip(a.cpds, b.cpds):
            np.testing.assert_array_equal(ta, tb)
        assert any(
            not np.array_equal(ta, tc) for ta, tc in zip(a.cpds, c.cpds)
        )

    def test_alpha_controls_determinism(self):
        net = networks.chain(6, J=4)
        sharp = GroundTruth.random(net, seed=5, alpha=0.1)
        flat = GroundTruth.random(net, seed=5, alpha=50.0)
        mx = lambda g: np.mean([t.max(axis=1).mean() for t in g.cpds])
        assert mx(sharp) > mx(flat)

    def test_bad_shape_rejected(self):
        net = networks.chain(2, J=2)
        with pytest.raises(ValueError, match="shape"):
            GroundTruth(net, [np.ones((1, 2)) / 2, np.ones((1, 2)) / 2])

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_min_conditional_positive(self, seed):
        net = networks.chain(3, J=3)
        gt = GroundTruth.random(net, seed=seed)
        assert 0 < min_conditional(gt) <= 1.0 / 3


class TestLogProb:
    """The ground truth scored as a counter model (Equation 1)."""

    @pytest.fixture(scope="class")
    def model(self, vee_gt):
        return CountModel.from_cpds(vee_gt.net, vee_gt.cpds)

    def test_matches_manual_product(self, vee_gt, model):
        X = np.array([[1, 2, 3], [0, 0, 0]])
        lp = model.log_prob(X)
        for r in range(2):
            a, b, c = X[r]
            manual = (
                vee_gt.cpds[0][0, a] * vee_gt.cpds[1][0, b]
                * vee_gt.cpds[2][a + 2 * b, c]
            )
            assert lp[r] == pytest.approx(np.log(manual))

    def test_total_mass_is_one(self, model):
        X = np.array(
            [[a, b, c] for a in range(2) for b in range(3) for c in range(4)]
        )
        assert np.exp(model.log_prob(X)).sum() == pytest.approx(1.0)

    def test_log_factor_consistency(self, vee_gt, model):
        X = np.array([[1, 1, 2]])
        lp = model.log_prob(X)
        total = sum(
            float(
                model.log_factor(
                    i, X[:, i], vee_gt.net.parent_config_index(X, i)
                )[0]
            )
            for i in range(3)
        )
        assert total == pytest.approx(float(lp[0]))

    @pytest.mark.parametrize("name", ["alarm", "hepar2", "link", "munin", "new-alarm"])
    def test_equals_cpd_reference(self, name):
        """Bit for bit the log of each CPD cell, summed in variable order."""
        gt = networks.ground_truth(name)
        X = sampling.sample_events(gt, 0, 500, seed=6)
        got = CountModel.from_cpds(gt.net, gt.cpds).log_prob(X)
        assert got.tobytes() == joint_log_prob(gt, X).tobytes()


class TestExactCounterProbs:
    def test_tree_probs_sum(self):
        net = networks.chain(4, J=3)
        gt = GroundTruth.random(net, seed=2)
        probs = exact_counter_probs(gt)
        # Each variable's family block is a distribution over (x_i, x_par).
        for i in range(net.n):
            fam = probs[net.fam_offset[i] : net.fam_offset[i + 1]]
            par = probs[net.par_offset[i] : net.par_offset[i + 1]]
            assert fam.sum() == pytest.approx(1.0)
            assert par.sum() == pytest.approx(1.0)

    def test_matches_enumeration_on_tree(self):
        net = networks.chain(3, J=2)
        gt = GroundTruth.random(net, seed=9)
        X = np.array(
            [[a, b, c] for a in range(2) for b in range(2) for c in range(2)]
        )
        p = np.exp(joint_log_prob(gt, X))
        probs = exact_counter_probs(gt)
        # P[X1 = 0, X0 = 0] from enumeration vs family counter of node 1.
        manual = p[(X[:, 1] == 0) & (X[:, 0] == 0)].sum()
        x = np.array([[0, 0, 0]])
        cid = int(net.counter_ids(1, x[:, 1], net.parent_config_index(x, 1))[0][0])
        assert probs[cid] == pytest.approx(manual)
