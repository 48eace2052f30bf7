"""The synthetic stand-in networks hit the paper's Table 1 targets."""
import numpy as np
import pytest

from repro.bayesnet import networks
from repro.bayesnet.networks import PAPER_NETWORKS
from repro.bayesnet.structure import BayesNet, padded_parents
from tests.networks_props import max_parents


@pytest.mark.parametrize("name", list(PAPER_NETWORKS))
class TestTable1Targets:
    def test_node_count(self, name):
        assert networks.make(name).n == PAPER_NETWORKS[name].n_nodes

    def test_edge_count(self, name):
        assert networks.make(name).n_edges == PAPER_NETWORKS[name].n_edges

    def test_param_count_close(self, name):
        net = networks.make(name)
        target = PAPER_NETWORKS[name].target_params
        assert abs(net.n_params - target) / target < 0.05

    def test_in_degree_cap(self, name):
        net = networks.make(name)
        assert max_parents(net) <= PAPER_NETWORKS[name].d_max

    def test_card_cap(self, name):
        net = networks.make(name)
        assert 2 <= net.cards.min()
        assert net.cards.max() <= PAPER_NETWORKS[name].card_cap

    def test_deterministic(self, name):
        a = networks.make(name)
        networks._NET_CACHE.clear()
        b = networks.make(name)
        assert a.parents == b.parents
        np.testing.assert_array_equal(a.cards, b.cards)


class TestNewAlarm:
    def test_same_graph_as_alarm(self):
        na, a = networks.make("new-alarm"), networks.make("alarm")
        assert na.parents == a.parents

    def test_six_vars_at_20(self):
        na = networks.make("new-alarm")
        assert int((na.cards == 20).sum()) == 6

    def test_other_cards_unchanged(self):
        na, a = networks.make("new-alarm"), networks.make("alarm")
        changed = na.cards != a.cards
        assert changed.sum() == 6
        assert np.all(na.cards[changed] == 20)

    def test_heterogeneous_params(self):
        # The re-cardinalized net must have far more parameters — the
        # regime where NONUNIFORM's budget split pays off (Sec 6.2).
        assert networks.make("new-alarm").n_params > 3 * networks.make("alarm").n_params


class TestGroundTruthRegistry:
    @pytest.mark.parametrize("name", ["alarm", "hepar2"])
    def test_ground_truth_shapes(self, name):
        gt = networks.ground_truth(name)
        net = networks.make(name)
        assert gt.net.parents == net.parents
        np.testing.assert_array_equal(gt.net.cards, net.cards)
        assert len(gt.cpds) == gt.net.n

    def test_ground_truth_memoized(self):
        assert networks.ground_truth("alarm") is networks.ground_truth("alarm")


class TestSynthGuards:
    def test_too_many_edges_rejected(self):
        with pytest.raises(ValueError, match="too many edges"):
            networks.synth_network(
                "x", 3, 10, 10, card_cap=3, d_max=1, seed=0, attempts=1
            )

    def test_chain_helper(self):
        net = networks.chain(3, J=5)
        assert net.parents == [[], [0], [1]]
        assert net.cards.tolist() == [5, 5, 5]

    def test_naive_bayes_helper(self):
        net = networks.naive_bayes(4, J_root=3, J_leaf=2)
        assert net.parents == [[], [0], [0], [0]]
        assert net.cards.tolist() == [3, 2, 2, 2]


class TestParamsForCards:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_bayesnet_n_params(self, seed):
        """The vectorized count the card fitter bisects on equals the
        structure's own ``sum (J_i - 1) * K_i`` on random DAGs."""
        rng = np.random.default_rng([seed, 0xFA])
        n = int(rng.integers(2, 40))
        d_max = int(rng.integers(1, 5))
        edges = int(rng.integers(0, sum(min(j, d_max) for j in range(n)) + 1))
        parents = networks._random_dag(rng, n, edges, d_max)
        cards = rng.integers(2, 9, n)
        padded = padded_parents(parents)
        assert networks._params_for_cards(padded, cards) == BayesNet("r", parents, cards).n_params

    def test_no_edges(self):
        table, slot = padded = padded_parents([[], [], []])
        assert table.shape == slot.shape == (3, 0)
        assert networks._params_for_cards(padded, np.array([2, 3, 4])) == 1 + 2 + 3
